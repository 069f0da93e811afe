"""Polygon rasterization: even-odd scanline fill over a global grid.

For each grid row, every polygon edge crossing the row's center
latitude contributes one crossing abscissa
``xin = (x2-x1)*(yc-y1)/(y2-y1) + x1`` — the SAME float expression,
operand order included, as the per-point even-odd test the PIP oracle
replays (stages/pip_join.point_in_ring), so a cell center is inside
iff the count of crossings to its right is odd, and scanline output
equals the per-cell point test EXACTLY (no epsilon, pinned by pytest
and by the DuckDB twin running the point test per cell).

Scale shape: polygons are the small side (broadcast once); the grid
streams as row blocks. Covered cells are produced as RUN SPANS
(iy, ix_start, ix_end) and reduced to per-polygon counts/checksums by
closed-form arithmetic series — nothing per-cell is ever
materialized, so a 10^12-cell grid costs O(rows x edges + runs), not
O(cells).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def ring_closed(ring: np.ndarray) -> np.ndarray:
    r = np.asarray(ring, dtype=np.float64)
    if r[0, 0] != r[-1, 0] or r[0, 1] != r[-1, 1]:
        r = np.vstack([r, r[:1]])
    return r


def scanline_runs(ring: np.ndarray, grid_w: int, grid_h: int,
                  row_lo: int, row_hi: int) -> list[tuple[int, int, int]]:
    """(iy, ix_start, ix_end) half-open runs of inside cell centers
    for grid rows [row_lo, row_hi). Grid: lon = -180 + (ix+0.5)*360/W,
    lat = -90 + (iy+0.5)*180/H."""
    r = ring_closed(ring)
    x1, y1 = r[:-1, 0], r[:-1, 1]
    x2, y2 = r[1:, 0], r[1:, 1]
    runs = []
    for iy in range(row_lo, row_hi):
        yc = -90.0 + (iy + 0.5) * 180.0 / grid_h
        cross = (y1 > yc) != (y2 > yc)
        if not cross.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = (x2[cross] - x1[cross]) * (yc - y1[cross]) \
                / (y2[cross] - y1[cross]) + x1[cross]
        xin.sort()
        # cell center xc is inside iff |{xin : xc < xin}| is odd; for
        # sorted xins the inside spans in center-x space are
        # [xin[0], xin[1]), [xin[2], xin[3]), ... — CLOSED at the left
        # crossing (xc == xin[0] leaves n-1 strictly-greater xins,
        # odd), open at the right. Both bounds therefore take the
        # first center >= the crossing.
        for k in range(0, len(xin) - 1, 2):
            lo = _first_center_geq(xin[k], grid_w)
            hi = _first_center_geq(xin[k + 1], grid_w)
            lo = max(lo, 0)
            hi = min(hi, grid_w)
            if hi > lo:
                runs.append((iy, lo, hi))
    return runs


def _first_center_geq(x: float, grid_w: int) -> int:
    """Smallest ix whose center lon is >= x, decided by evaluating the
    exact center expression (no algebraic rearrangement — float-exact
    against the per-point test's ``xc < xin``)."""
    ix = int(np.floor((x + 180.0) * grid_w / 360.0 - 0.5))
    ix = max(ix - 1, 0)
    while ix < grid_w and (-180.0 + (ix + 0.5) * 360.0 / grid_w < x):
        ix += 1
    return ix


def rasterize_polygons(polygons: pd.DataFrame, grid_w: int, grid_h: int,
                       rows_per_block: int = 16):
    """Dataset of per-(polygon, block) partial stats: n_cells and
    sum of cell ids (iy*grid_w + ix), via closed-form series over the
    run spans."""
    import ray
    import ray.data as rd

    polys = []
    for _, r in polygons.iterrows():
        ring = ring_closed(np.asarray(r["ring"]))
        polys.append((int(r["region_id"]), ring,
                      float(ring[:, 1].min()), float(ring[:, 1].max())))
    ref = ray.put(polys)

    blocks = [{"row_lo": lo, "row_hi": min(lo + rows_per_block, grid_h)}
              for lo in range(0, grid_h, rows_per_block)]
    plan = rd.from_items(blocks, override_num_blocks=max(1, len(blocks)))

    def _f(b: pa.Table) -> pa.Table:
        ps = ray.get(ref)
        rid_out, n_out, ck_out = [], [], []
        for lo, hi in zip(b.column("row_lo").to_pylist(),
                          b.column("row_hi").to_pylist()):
            lat_lo_c = -90.0 + (lo + 0.5) * 180.0 / grid_h
            lat_hi_c = -90.0 + (hi - 0.5) * 180.0 / grid_h
            for rid, ring, ymin, ymax in ps:
                if ymax < lat_lo_c or ymin > lat_hi_c:
                    continue
                runs = scanline_runs(ring, grid_w, grid_h, lo, hi)
                if not runs:
                    continue
                n = 0
                ck = 0
                for iy, a, z in runs:
                    ln = z - a
                    n += ln
                    ck += ln * iy * grid_w + (a + z - 1) * ln // 2
                rid_out.append(rid)
                n_out.append(n)
                ck_out.append(ck)
        return pa.table({
            "region_id": pa.array(rid_out, pa.int64()),
            "n_cells": pa.array(n_out, pa.int64()),
            "cell_checksum": pa.array(ck_out, pa.int64())})

    return plan.map_batches(_f, batch_format="pyarrow")
