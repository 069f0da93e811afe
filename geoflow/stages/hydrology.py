"""D8 hydrology over the tile table: flow direction, drainage basins,
flow accumulation.

Classic DEM hydrology (O'Callaghan & Mark 1984 D8; the parallel
accumulation decomposition follows the tile-local + boundary-graph
scheme of Wallis et al., "Parallel Flow-Direction and Contributing Area
Calculation", 2009) recast Ray-Data-first:

- **Flow direction** is a stateless ``map_batches`` over tile rows: the
  1-px DEM halo already carried by every tile (``sources/tiles.py``)
  provides all 8 neighbors without a tile-neighbor join, exactly like
  the slope/aspect stencil in ``stages/terrain.py``.
- **Within-tile resolution** (where does each cell's flow path first
  leave its tile, or at which in-tile sink does it end) is vectorized
  numpy pointer-doubling inside the same pass — O(area * log path) per
  tile, no shuffle.
- **The cross-tile graph lives only on tile-boundary entry cells** —
  O(perimeter) = N / tile_side nodes, ~0.006% of cells at 4096^2 tiles
  — so basin labels and accumulated inflows for the whole raster reduce
  to a tiny functional-graph solve over that entry set, then ONE more
  stateless per-tile pass with the solved entry dict broadcast via
  ``ray.put``. No all-to-all shuffle anywhere; the only wide op is the
  small groupby that collects per-entry outflow counts.

Exactness: the DEM is integer-valued and every comparison is integer
(steepest-descent slopes compared as cross-multiplied squared drops:
``drop_orth^2 * 2  vs  drop_diag^2``, exact because sqrt(2) is
irrational), so the DuckDB oracle replays flow direction, basin
assignment (recursive CTE) and accumulation (visit counting) to the
bit. Tie-break is the fixed compass priority E,SE,S,SW,W,NW,N,NE.

Scale story (SCALE.md "hydrology"): per-tile work is embarrassingly
parallel; the entry-graph solve is O(total boundary cells) and runs on
the driver under a size guard — above it, the same tile-contraction
step applies recursively (contract 4x4 tile groups), the textbook
multi-level variant. Flow paths strictly descend, so the entry graph
is acyclic and a single descending-elevation sweep solves it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# Compass priority order (pri, dy, dx, wt): wt = 2 for orthogonal, 1
# for diagonal — metric = drop^2 * wt compares drop/dist exactly.
D8_OFFSETS = (
    (0, 0, 1, 2),    # E
    (1, 1, 1, 1),    # SE
    (2, 1, 0, 2),    # S
    (3, 1, -1, 1),   # SW
    (4, 0, -1, 2),   # W
    (5, -1, -1, 1),  # NW
    (6, -1, 0, 2),   # N
    (7, -1, 1, 1),   # NE
)


def hydro_dem(height: int = 192, width: int = 192) -> np.ndarray:
    """Deterministic integer DEM: two basins + hash jitter.

    Exactly replayable in SQL (see ``hydro_dem_sql``): min of two
    paraboloids (two drainage basins divided by a ridge) times 4, plus
    a small integer hash jitter that carves local pits and makes the
    descent paths snake. Max value < 2^17, so float32 tile halos carry
    it exactly.
    """
    y, x = np.mgrid[0:height, 0:width]
    y = y.astype(np.int64)
    x = x.astype(np.int64)
    b1 = (x - 48) ** 2 + (y - 52) ** 2
    b2 = (x - 150) ** 2 + (y - 138) ** 2
    jit = (x * 73 + y * 151 + (x * y) % 31) % 89
    return (np.minimum(b1, b2) * 4 + jit).astype(np.int64)


def hydro_dem_sql(height: int = 192, width: int = 192) -> str:
    """DuckDB CTE fragment producing (y, x, cell, dem) for hydro_dem."""
    return f"""
cells AS (
  SELECT ty.y, tx.x, ty.y * {width} + tx.x AS cell,
         LEAST((tx.x - 48) * (tx.x - 48) + (ty.y - 52) * (ty.y - 52),
               (tx.x - 150) * (tx.x - 150) + (ty.y - 138) * (ty.y - 138)) * 4
         + ((tx.x * 73 + ty.y * 151 + ((tx.x * ty.y) % 31)) % 89) AS dem
  FROM range(0, {height}) ty(y), range(0, {width}) tx(x)
)"""


FDIR_SQL = """
nbrs AS (
  SELECT c.cell, n.cell AS ncell, k.pri,
         (c.dem - n.dem) AS dropv, k.wt
  FROM cells c
  JOIN (VALUES (0, 0, 1, 2), (1, 1, 1, 1), (2, 1, 0, 2), (3, 1, -1, 1),
               (4, 0, -1, 2), (5, -1, -1, 1), (6, -1, 0, 2), (7, -1, 1, 1))
       k(pri, dy, dx, wt) ON true
  JOIN cells n ON n.y = c.y + k.dy AND n.x = c.x + k.dx
),
best AS (
  SELECT cell, ncell,
         row_number() OVER (PARTITION BY cell
                            ORDER BY dropv * dropv * wt DESC, pri ASC) AS rn
  FROM nbrs WHERE dropv > 0
),
fdir AS (
  SELECT c.cell, c.dem, COALESCE(b.ncell, -1) AS next
  FROM cells c
  LEFT JOIN (SELECT cell, ncell FROM best WHERE rn = 1) b USING (cell)
)"""


def _doubling_chain_sql(rounds: int = 9) -> str:
    """Chained MATERIALIZED CTEs: pointer doubling + visited-pair closure.

    ``p{k}``: the (saturating) 2^k-step ancestor of every cell.
    ``v{k}``: all (origin, visited) pairs within distance <= 2^k.
    ``AS MATERIALIZED`` is load-bearing: DuckDB's default inlining would
    expand the self-references exponentially. ``rounds`` must satisfy
    2^rounds >= max path visits — 138 on the 192^2 fixture (pinned by
    pytest), so 9 is ample.
    """
    s = ["p0 AS MATERIALIZED (SELECT cell, CASE WHEN next < 0 THEN cell "
         "ELSE next END AS ptr FROM fdir)",
         "v0 AS MATERIALIZED (SELECT cell AS o, cell AS a FROM fdir "
         "UNION SELECT cell AS o, next AS a FROM fdir WHERE next >= 0)"]
    for k in range(1, rounds + 1):
        s.append(f"v{k} AS MATERIALIZED (SELECT o, a FROM v{k-1} UNION "
                 f"SELECT p.cell AS o, v.a FROM p{k-1} p "
                 f"JOIN v{k-1} v ON v.o = p.ptr)")
        s.append(f"p{k} AS MATERIALIZED (SELECT a.cell, b.ptr "
                 f"FROM p{k-1} a JOIN p{k-1} b ON b.cell = a.ptr)")
    return ",\n".join(s)


def _oracle_prefix(height: int, width: int, rounds: int = 9) -> str:
    return ("WITH "
            + hydro_dem_sql(height, width).strip().replace(
                "cells AS (", "cells AS MATERIALIZED (", 1)
            + "," + FDIR_SQL.strip().replace(
                "fdir AS (", "fdir AS MATERIALIZED (", 1)
            + ",\n" + _doubling_chain_sql(rounds))


def basins_oracle_sql(height: int = 192, width: int = 192,
                      rounds: int = 9) -> str:
    """Bit-exact SQL twin of the basin query (all-integer groupby)."""
    return _oracle_prefix(height, width, rounds) + f"""
SELECT p.ptr AS basin, COUNT(*) AS n_cells,
       CAST(SUM(f.dem) AS BIGINT) AS sum_dem,
       MIN(p.cell) AS min_cell
FROM p{rounds} p JOIN fdir f ON f.cell = p.cell
GROUP BY p.ptr"""


def accumulation_oracle_sql(height: int = 192, width: int = 192,
                            rounds: int = 9, top: int = 300) -> str:
    """SQL twin of flow accumulation: visit counts from the pair closure,
    deterministic top-k (acc DESC, cell ASC)."""
    return _oracle_prefix(height, width, rounds) + f"""
SELECT c.cell, c.y AS gy, c.x AS gx, a.acc
FROM (SELECT a AS cell, COUNT(*) AS acc FROM v{rounds} GROUP BY a) a
JOIN cells c USING (cell)
ORDER BY a.acc DESC, c.cell ASC LIMIT {top}"""


def _tile_flow(halo: np.ndarray, y0: int, x0: int, H: int, W: int):
    """Per-tile D8: returns (fdir codes int8, next global cell int64).

    ``halo``: (h+2, w+2) integer DEM including the 1-px halo. Neighbors
    outside the raster (possible only on raster-edge tiles, where the
    halo is extrapolated) are masked out by global coordinates.
    """
    h, w = halo.shape[0] - 2, halo.shape[1] - 2
    dem = halo[1:-1, 1:-1]
    gy, gx = np.mgrid[y0:y0 + h, x0:x0 + w]
    best_m = np.zeros((h, w), dtype=np.int64)
    best_k = np.full((h, w), -1, dtype=np.int8)
    best_next = np.full((h, w), -1, dtype=np.int64)
    for pri, dy, dx, wt in D8_OFFSETS:
        nb = halo[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        drop = dem.astype(np.int64) - nb.astype(np.int64)
        ny, nx = gy + dy, gx + dx
        ok = (drop > 0) & (ny >= 0) & (ny < H) & (nx >= 0) & (nx < W)
        m = drop * drop * wt
        better = ok & (m > best_m)
        best_m = np.where(better, m, best_m)
        best_k = np.where(better, np.int8(pri), best_k)
        best_next = np.where(better, ny * W + nx, best_next)
    return best_k, best_next


def _resolve_tile(next_cell: np.ndarray, y0: int, x0: int, h: int, w: int,
                  W: int):
    """Pointer-double inside the tile.

    Returns (kind, target): kind 0 = ends at an in-tile sink whose
    global cell id is target; kind 1 = first leaves the tile at global
    cell ``target`` (an entry cell of a neighboring tile).
    """
    n = h * w
    flat_next = next_cell.ravel()
    ny, nx = flat_next // W, flat_next % W
    in_tile = (flat_next >= 0) & (ny >= y0) & (ny < y0 + h) & \
              (nx >= x0) & (nx < x0 + w)
    local_next = np.where(in_tile, (ny - y0) * w + (nx - x0), -1)

    kind = np.full(n, -2, dtype=np.int8)
    target = np.zeros(n, dtype=np.int64)
    sink = flat_next < 0
    cell_ids = (np.arange(n) // w + y0) * W + (np.arange(n) % w + x0)
    kind[sink] = 0
    target[sink] = cell_ids[sink]
    leaves = (~sink) & (~in_tile)
    kind[leaves] = 1
    target[leaves] = flat_next[leaves]

    ptr = np.where(kind == -2, local_next, np.arange(n))
    for _ in range(2 * int(np.ceil(np.log2(max(n, 2)))) + 4):
        unres = kind == -2
        if not unres.any():
            break
        j = ptr[unres]
        done = kind[j] != -2
        idx = np.flatnonzero(unres)
        kind[idx[done]] = kind[j[done]]
        target[idx[done]] = target[j[done]]
        ptr[idx[~done]] = ptr[j[~done]]
    assert (kind != -2).all(), "pointer doubling failed to converge"
    return kind, target, local_next, in_tile


def _mass_push(local_next: np.ndarray, in_tile: np.ndarray,
               init: np.ndarray) -> np.ndarray:
    """Visit counts: push ``init`` mass down in-tile pointers to exit.

    acc[c] = total mass that ever sits on c (including its own initial
    mass), i.e. the number of (origin, visit) pairs restricted to the
    tile. Rounds = longest in-tile path; each round one bincount.
    """
    n = len(local_next)
    acc = np.zeros(n, dtype=np.int64)
    cur = init.astype(np.int64).copy()
    movers = in_tile
    for _ in range(n + 1):
        if not cur.any():
            break
        acc += cur
        m = movers & (cur > 0)
        cur = np.bincount(local_next[m], weights=cur[m],
                          minlength=n).astype(np.int64)
    return acc


class _FlowTiles:
    """map_batches callable: tile rows -> tile rows + flow columns.

    Output keeps one row per tile with list columns (cells are exploded
    later only where needed), so downstream passes stay tile-shaped.
    """

    def __init__(self, height: int, width: int, tile_h: int, tile_w: int):
        self.H, self.W = height, width
        self.tile_h, self.tile_w = tile_h, tile_w

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .terrain import _rows_as_arrays
        hs = batch.column("height").to_numpy()
        ws = batch.column("width").to_numpy()
        tys = batch.column("tile_y").to_numpy()
        txs = batch.column("tile_x").to_numpy()
        halos = _rows_as_arrays(batch.column("dem_halo"))
        tile_h, tile_w = self.tile_h, self.tile_w
        cols = {k: [] for k in ("fdir", "next_cell", "res_kind",
                                "res_target", "local_acc", "dem_i")}
        for h, w, ty, tx, halo in zip(hs, ws, tys, txs, halos):
            h, w = int(h), int(w)
            y0, x0 = int(ty) * tile_h, int(tx) * tile_w
            hg = np.rint(halo).astype(np.int64).reshape(h + 2, w + 2)
            fdir, nxt = _tile_flow(hg, y0, x0, self.H, self.W)
            kind, target, local_next, in_tile = _resolve_tile(
                nxt, y0, x0, h, w, self.W)
            acc = _mass_push(local_next, in_tile,
                             np.ones(h * w, dtype=np.int64))
            cols["fdir"].append(fdir.ravel())
            cols["next_cell"].append(nxt.ravel())
            cols["res_kind"].append(kind)
            cols["res_target"].append(target)
            cols["local_acc"].append(acc)
            cols["dem_i"].append(hg[1:-1, 1:-1].ravel())
        out = batch.drop_columns(
            [c for c in ("pixels", "dem_halo", "nodata", "zone_ids")
             if c in batch.column_names])
        out = out.append_column("fdir", pa.array(cols["fdir"], pa.list_(pa.int8())))
        out = out.append_column("next_cell", pa.array(cols["next_cell"], pa.list_(pa.int64())))
        out = out.append_column("res_kind", pa.array(cols["res_kind"], pa.list_(pa.int8())))
        out = out.append_column("res_target", pa.array(cols["res_target"], pa.list_(pa.int64())))
        out = out.append_column("local_acc", pa.array(cols["local_acc"], pa.list_(pa.int64())))
        out = out.append_column("dem_i", pa.array(cols["dem_i"], pa.list_(pa.int64())))
        return out


def flow_tiles(tiles_ds, height: int, width: int,
               tile_h: int = 64, tile_w: int = 64):
    """Stateless flow-derivation pass (band 0 rows only)."""
    ds = tiles_ds.filter(lambda r: r["band"] == 0)
    return ds.map_batches(_FlowTiles(height, width, tile_h, tile_w),
                          batch_format="pyarrow")


def _explode(batch: pa.Table, tile_h: int, tile_w: int, W: int,
             cols: list[str]) -> pa.Table:
    """Tile rows -> one row per pixel with global cell ids."""
    from .terrain import _rows_as_arrays
    hs = batch.column("height").to_numpy()
    ws = batch.column("width").to_numpy()
    tys = batch.column("tile_y").to_numpy()
    txs = batch.column("tile_x").to_numpy()
    per_col = {c: _rows_as_arrays(batch.column(c)) for c in cols}
    cells, gys, gxs = [], [], []
    flat = {c: [] for c in cols}
    for i, (h, w, ty, tx) in enumerate(zip(hs, ws, tys, txs)):
        h, w = int(h), int(w)
        y0, x0 = int(ty) * tile_h, int(tx) * tile_w
        gy, gx = np.mgrid[y0:y0 + h, x0:x0 + w]
        gys.append(gy.ravel())
        gxs.append(gx.ravel())
        cells.append((gy * W + gx).ravel())
        for c in cols:
            flat[c].append(np.asarray(per_col[c][i]))
    out = {"cell": pa.array(np.concatenate(cells), pa.int64()),
           "gy": pa.array(np.concatenate(gys).astype(np.int64)),
           "gx": pa.array(np.concatenate(gxs).astype(np.int64))}
    for c in cols:
        out[c] = pa.array(np.concatenate(flat[c]))
    return pa.table(out)


def entry_graph(flow_df: pd.DataFrame, tile_h: int, tile_w: int, W: int):
    """Driver-side solve over tile-boundary entry cells.

    ``flow_df``: the (small, tile-level) flow dataset as pandas. Returns
    (sink_of: dict entry_cell -> basin sink, inflow: dict entry_cell ->
    total mass entering, outflow0 included downstream).

    Size guard: entry cells are O(perimeter); callers at true scale
    contract recursively first (see module docstring).
    """
    # driver-assembly guard: this solve concatenates every tile's
    # cell/kind/target arrays on the driver — verification-sized flow
    # tables only (the cap is total cells across the tile rows)
    total_cells = int((flow_df["height"].astype(np.int64)
                       * flow_df["width"].astype(np.int64)).sum())
    if total_cells > 64_000_000:
        raise ValueError(
            f"entry_graph assembles {total_cells} cells on the driver "
            "and is intended for verification-sized inputs (<= 64M "
            "cells); contract the flow graph recursively at scale")
    kind_all, target_all, dem_all, cell_all = [], [], [], []
    for row in flow_df.itertuples(index=False):
        h, w = int(row.height), int(row.width)
        y0, x0 = int(row.tile_y) * tile_h, int(row.tile_x) * tile_w
        gy, gx = np.mgrid[y0:y0 + h, x0:x0 + w]
        cell_all.append((gy * W + gx).ravel())
        kind_all.append(np.asarray(row.res_kind))
        target_all.append(np.asarray(row.res_target))
        dem_all.append(np.asarray(row.dem_i))
    cell_all = np.concatenate(cell_all)
    kind_all = np.concatenate(kind_all)
    target_all = np.concatenate(target_all)
    dem_all = np.concatenate(dem_all)

    order = np.argsort(cell_all)
    cell_s = cell_all[order]
    kind_s, target_s, dem_s = (kind_all[order], target_all[order],
                               dem_all[order])

    leav = kind_all == 1
    entries, counts = np.unique(target_all[leav], return_counts=True)
    pos = np.searchsorted(cell_s, entries)
    assert (cell_s[pos] == entries).all()
    e_kind, e_target, e_dem = kind_s[pos], target_s[pos], dem_s[pos]

    # Descending-elevation sweep: flow strictly descends, so every
    # exit(e) has lower dem and is processed after e.
    idx_of = {int(c): i for i, c in enumerate(entries)}
    inflow = counts.astype(np.int64).copy()
    for i in np.argsort(-e_dem, kind="stable"):
        if e_kind[i] == 1:
            inflow[idx_of[int(e_target[i])]] += inflow[i]

    # Ascending sweep for basin sinks: exit(e) resolved before e.
    sink_of = np.zeros(len(entries), dtype=np.int64)
    for i in np.argsort(e_dem, kind="stable"):
        sink_of[i] = (e_target[i] if e_kind[i] == 0
                      else sink_of[idx_of[int(e_target[i])]])
    return ({int(c): int(s) for c, s in zip(entries, sink_of)},
            {int(c): int(m) for c, m in zip(entries, inflow)})


def basin_labels(flow_ds, sink_of_ref, tile_h: int, tile_w: int, W: int):
    """Per-cell basin sink via the broadcast entry->sink dict."""
    import ray

    def _label(batch: pa.Table) -> pa.Table:
        sink_of = ray.get(sink_of_ref) if not isinstance(sink_of_ref, dict) \
            else sink_of_ref
        t = _explode(batch, tile_h, tile_w, W,
                     ["res_kind", "res_target", "dem_i"])
        kind = t.column("res_kind").to_numpy()
        target = t.column("res_target").to_numpy()
        basin = np.where(
            kind == 0, target,
            pd.Series(target).map(sink_of).fillna(-1).astype(np.int64))
        assert (basin >= 0).all(), "entry cell missing from sink_of"
        return pa.table({"cell": t.column("cell"), "dem": t.column("dem_i"),
                         "basin": pa.array(basin, pa.int64())})

    return flow_ds.map_batches(_label, batch_format="pyarrow")


def accumulation(flow_ds, inflow_ref, tile_h: int, tile_w: int,
                 H: int, W: int):
    """Final accumulation: local visits + broadcast entry inflow replay."""
    import ray

    def _acc(batch: pa.Table) -> pa.Table:
        from .terrain import _rows_as_arrays
        inflow = ray.get(inflow_ref) if not isinstance(inflow_ref, dict) \
            else inflow_ref
        hs = batch.column("height").to_numpy()
        ws = batch.column("width").to_numpy()
        tys = batch.column("tile_y").to_numpy()
        txs = batch.column("tile_x").to_numpy()
        nxts = _rows_as_arrays(batch.column("next_cell"))
        laccs = _rows_as_arrays(batch.column("local_acc"))
        cells_o, gys_o, gxs_o, accs_o = [], [], [], []
        for h, w, ty, tx, nxt, lacc in zip(hs, ws, tys, txs, nxts, laccs):
            h, w = int(h), int(w)
            y0, x0 = int(ty) * tile_h, int(tx) * tile_w
            gy, gx = np.mgrid[y0:y0 + h, x0:x0 + w]
            cell = (gy * W + gx).ravel()
            flat_next = np.asarray(nxt)
            ny, nx = flat_next // W, flat_next % W
            in_tile = (flat_next >= 0) & (ny >= y0) & (ny < y0 + h) & \
                      (nx >= x0) & (nx < x0 + w)
            local_next = np.where(in_tile,
                                  (ny - y0) * w + (nx - x0), -1)
            init = np.zeros(h * w, dtype=np.int64)
            if inflow:
                m = pd.Series(cell).map(inflow)
                hit = m.notna().to_numpy()
                init[hit] = m.to_numpy(dtype="float64", na_value=0)[hit]
            extra = _mass_push(local_next, in_tile, init)
            cells_o.append(cell)
            gys_o.append(gy.ravel())
            gxs_o.append(gx.ravel())
            accs_o.append(np.asarray(lacc) + extra)
        return pa.table({
            "cell": pa.array(np.concatenate(cells_o), pa.int64()),
            "gy": pa.array(np.concatenate(gys_o).astype(np.int64)),
            "gx": pa.array(np.concatenate(gxs_o).astype(np.int64)),
            "acc": pa.array(np.concatenate(accs_o), pa.int64())})

    return flow_ds.map_batches(_acc, batch_format="pyarrow")
