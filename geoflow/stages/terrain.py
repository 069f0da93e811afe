"""Per-tile terrain derivation: slope / aspect / luminance as map_batches.

Engine counterpart of the reference's derived-layer computation
(``processing_alg/execution_context.py:193-294``): where the reference
shells out to gdal:slope / gdal:aspect / a raster calculator and caches
temp GeoTIFF paths, the engine derives all three as columns on the tile
row in ONE stateless Arrow ``map_batches`` pass. Each tile row carries a
1-pixel DEM halo (geoflow.sources.tiles), so the Zevenbergen-Thorne
stencil needs no neighbor join; raster-boundary tiles were halo-padded
with GDAL's COMPUTE_EDGES linear extrapolation at tiling time.

The numeric kernels are shared with the transcription oracle
(geoflow.oracle.kernels — single source of truth for the formulas);
parity tests exercise the genuinely distributed risk: tiled + halo
execution must reproduce the oracle's full-array results exactly.

Scale notes: the stage is stateless (task pool, elastic), output drops
``dem_halo`` so the heaviest column dies as early as possible, and all
downstream correction stages consume the slope/aspect/luminance columns
without recomputing them (the reference recomputes derived layers per
correction run — SURVEY.md section 3.2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..context import CorrectionContext, DEFAULT_CONTEXT
from ..oracle import kernels as ok


def _rows_as_arrays(col: pa.ChunkedArray | pa.Array) -> list[np.ndarray]:
    """Zero-copy-ish list<float32> column -> per-row numpy views."""
    out = []
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    for chunk in chunks:
        flat = chunk.values.to_numpy(zero_copy_only=False)
        offsets = chunk.offsets.to_numpy(zero_copy_only=False)
        for i in range(len(chunk)):
            out.append(flat[offsets[i]:offsets[i + 1]])
    return out


def derive_terrain_batch(batch: pa.Table,
                         ctx: CorrectionContext = DEFAULT_CONTEXT,
                         ewres: float = 1.0, nsres: float = -1.0) -> pa.Table:
    """Add slope/aspect (radians, f32) + luminance (f32) columns per tile.

    ``ewres``/``nsres``: pixel size from the raster geotransform (GDAL
    convention: nsres negative for north-up rasters); defaults keep the
    synthetic fixtures' unit grid.
    """
    heights = batch.column("height").to_numpy()
    widths = batch.column("width").to_numpy()
    halos = _rows_as_arrays(batch.column("dem_halo"))
    slopes, aspects, lums = [], [], []
    for h, w, halo in zip(heights, widths, halos):
        p = halo.reshape(h + 2, w + 2)
        slope_rad = np.deg2rad(ok.zt_slope_degrees_padded(p, ewres, nsres))
        aspect_rad = np.deg2rad(ok.zt_aspect_degrees_padded(p))
        lum = ok.luminance(slope_rad, aspect_rad, ctx).astype(np.float32)
        slopes.append(slope_rad.ravel())
        aspects.append(aspect_rad.ravel())
        lums.append(lum.ravel())
    out = batch.drop_columns(["dem_halo"])
    out = out.append_column("slope", pa.array(slopes, pa.list_(pa.float32())))
    out = out.append_column("aspect", pa.array(aspects, pa.list_(pa.float32())))
    out = out.append_column("luminance", pa.array(lums, pa.list_(pa.float32())))
    return out


def derive_terrain(tiles_ds, ctx: CorrectionContext = DEFAULT_CONTEXT,
                   ewres: float = 1.0, nsres: float = -1.0):
    def derive_slope_aspect_luminance(b):
        return derive_terrain_batch(b, ctx, ewres, nsres)

    return tiles_ds.map_batches(derive_slope_aspect_luminance,
                                batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Focal terrain statistics (the gdaldem TRI / TPI / roughness trio)
# ---------------------------------------------------------------------------

_FOCAL_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1),
                  (0, 1), (1, -1), (1, 0), (1, 1)]


def focal_stats_batch(batch: pa.Table, height: int, width: int,
                      tile: int) -> pa.Table:
    """Per-pixel 8-neighborhood terrain statistics over integer DEMs,
    ALL-INTEGER so the SQL twin replays them exactly:

    - ``tri``      sum of |dem - neighbor|  (Riley et al. terrain
                   ruggedness index, x n_nbrs vs the normalized form)
    - ``tpi_num``  n_nbrs * dem - sum(neighbors)  (topographic position
                   index numerator; TPI itself = tpi_num / n_nbrs)
    - ``rough``    max(neighbor) - min(neighbor)
    - ``n_nbrs``   in-raster neighbor count (boundary-true: the halo's
                   odd-reflect extrapolation row/col is NEVER read as a
                   neighbor — out-of-raster offsets are masked by global
                   coordinate, matching gdaldem's edge handling of
                   shrinking windows rather than GDAL's default NODATA
                   edge ring)

    The tile's 1-px DEM halo supplies every cross-tile neighbor, so the
    whole operator is ONE stateless map over the tile table — no
    neighbor join, no shuffle. Reference anchor: the reference derives
    slope/aspect with gdal:slope / gdal:aspect (execution_context.py:
    193-262); TRI/TPI/roughness are the remaining three gdaldem modes
    of the same 3x3 focal family.
    """
    heights = batch.column("height").to_numpy()
    widths = batch.column("width").to_numpy()
    tys = batch.column("tile_y").to_numpy()
    txs = batch.column("tile_x").to_numpy()
    halos = _rows_as_arrays(batch.column("dem_halo"))
    ys, xs, tris, tpis, roughs, cnts = [], [], [], [], [], []
    imin = np.iinfo(np.int64).min
    imax = np.iinfo(np.int64).max
    for h, w, ty, tx, halo in zip(heights, widths, tys, txs, halos):
        p = halo.reshape(h + 2, w + 2).astype(np.int64)
        center = p[1:1 + h, 1:1 + w]
        y0, x0 = int(ty) * tile, int(tx) * tile
        gy = y0 + np.arange(h, dtype=np.int64)
        gx = x0 + np.arange(w, dtype=np.int64)
        tri = np.zeros((h, w), dtype=np.int64)
        ssum = np.zeros((h, w), dtype=np.int64)
        cnt = np.zeros((h, w), dtype=np.int64)
        mx = np.full((h, w), imin, dtype=np.int64)
        mn = np.full((h, w), imax, dtype=np.int64)
        for dy, dx in _FOCAL_OFFSETS:
            nb = p[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
            valid = (((gy + dy >= 0) & (gy + dy < height))[:, None]
                     & ((gx + dx >= 0) & (gx + dx < width))[None, :])
            tri += np.abs(center - nb) * valid
            ssum += nb * valid
            cnt += valid
            mx = np.where(valid, np.maximum(mx, nb), mx)
            mn = np.where(valid, np.minimum(mn, nb), mn)
        ys.append(np.repeat(gy, w))
        xs.append(np.tile(gx, h))
        tris.append(tri.ravel())
        tpis.append((cnt * center - ssum).ravel())
        roughs.append((mx - mn).ravel())
        cnts.append(cnt.ravel())
    return pa.table({
        "y": pa.array(np.concatenate(ys) if ys else
                      np.empty(0, np.int64), pa.int64()),
        "x": pa.array(np.concatenate(xs) if xs else
                      np.empty(0, np.int64), pa.int64()),
        "n_nbrs": pa.array(np.concatenate(cnts) if cnts else
                           np.empty(0, np.int64), pa.int64()),
        "tri": pa.array(np.concatenate(tris) if tris else
                        np.empty(0, np.int64), pa.int64()),
        "tpi_num": pa.array(np.concatenate(tpis) if tpis else
                            np.empty(0, np.int64), pa.int64()),
        "rough": pa.array(np.concatenate(roughs) if roughs else
                          np.empty(0, np.int64), pa.int64()),
    })


def focal_stats(tiles_ds, height: int, width: int, tile: int):
    """Distributed TRI / TPI / roughness: stateless map over tile rows
    (the halo carries every neighbor — zero shuffles)."""
    return tiles_ds.map_batches(
        lambda b: focal_stats_batch(b, height, width, tile),
        batch_format="pyarrow")
