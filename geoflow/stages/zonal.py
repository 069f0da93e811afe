"""Raster <-> vector zonal aggregation keyed on quadtree cells.

North-rule operator: "raster<->vector zonal aggregation done as
groupby-aggregate shuffles keyed on H3 cell". Generalizes the
reference's two zonal patterns — the classification-map group masking
(``eval.py:128-141``) and the rose-diagram binned means
(``rose_diagram_eval.py:197-233``) — from ad-hoc integer maps to the
hierarchical cell grid shared with the web-page side, so raster pixels
and geocoded pages aggregate under the SAME keys and can be joined
cell-to-cell afterwards.

Shape: each tile knows its georeference (affine lat/lon of pixel (0,0)
of the raster + per-pixel steps). The tile kernel lays out one
(band, cell, value) row per pixel of the batch and collapses them with
the shared Arrow combine (``functions.agg.combine_partials``); pixels of
one batch span only a handful of coarse cells, so the shuffle of
``functions.agg.merge_partials`` moves O(batches x cells-per-batch) rows,
not O(pixels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import cells as cellmod
from ..functions.agg import (bucket_count, combine_partials, merge_partials,
                             plan_estimate)


@dataclass(frozen=True)
class RasterGeo:
    """Affine georeference: pixel (row, col) of the FULL raster ->
    (lat, lon) of the pixel center."""

    lat0: float = 70.0          # latitude of row 0 center
    lon0: float = -170.0        # longitude of col 0 center
    dlat: float = -0.01         # latitude step per row (southward)
    dlon: float = 0.01          # longitude step per col

    def pixel_lonlat(self, row0: int, col0: int, h: int, w: int):
        rows = self.lat0 + (row0 + np.arange(h)) * self.dlat
        cols = self.lon0 + (col0 + np.arange(w)) * self.dlon
        lat = np.repeat(rows, w)
        lon = np.tile(cols, h)
        return lat, lon


def zonal_partials_batch(batch: pa.Table, geo: RasterGeo, res: int,
                         tile_size: int, buckets: int = 1) -> pa.Table:
    """Tile rows -> per-(band, cell) partials within the batch, tagged
    with the exchange bucket of ``raster_zonal_stats``' merge."""
    hs = batch.column("height").to_numpy()
    ws = batch.column("width").to_numpy()
    cell = [np.empty(0, np.uint64)]
    for ty, tx, h, w in zip(batch.column("tile_y").to_numpy(),
                            batch.column("tile_x").to_numpy(), hs, ws):
        lat, lon = geo.pixel_lonlat(ty * tile_size, tx * tile_size, h, w)
        cell.append(cellmod.cell_id(lat, lon, res))
    flat = pa.table({
        "band": pa.array(np.repeat(batch.column("band").to_numpy(), hs * ws),
                         pa.int64()),
        "cell": pa.array(np.concatenate(cell).astype(np.int64), pa.int64()),
        "value": pc.list_flatten(batch.column("pixels")).cast(pa.float64()),
    })
    return combine_partials(flat, ["band", "cell"], ["value"],
                            ["value"], ["value"], buckets)


def with_mean(merged, key_cols: list[str]):
    """Merged pixel partials -> key_cols, value_sum, n_pixels, any
    min/max columns, mean_value (the zonal and rose output layout)."""
    def _mean(b: pa.Table) -> pa.Table:
        head = key_cols + ["value_sum", "n_pixels"]
        mean = b.column("value_sum").to_numpy() / b.column("n_pixels").to_numpy()
        return b.select(head + [c for c in b.column_names if c not in head]
                        ).append_column("mean_value", pa.array(mean, pa.float64()))

    return merged.map_batches(_mean, batch_format="pyarrow")


def raster_zonal_stats(tiles_ds, geo: RasterGeo = RasterGeo(), res: int = 6,
                       tile_size: int = 64):
    """-> Dataset (band, cell, value_sum, n_pixels, value_min, value_max,
    mean_value)."""
    # at most one partial per pixel: tiles x pixels per tile
    tiles = plan_estimate(tiles_ds)[0]
    buckets = bucket_count(tiles and tiles * tile_size * tile_size)
    partials = tiles_ds.map_batches(
        lambda b: zonal_partials_batch(b, geo, res, tile_size, buckets),
        batch_format="pyarrow")
    keys = ["band", "cell"]
    return with_mean(merge_partials(partials, keys, ["value"], "n_pixels",
                                    ["value"], ["value"], buckets=buckets),
                     keys)


def join_zonal_with_pages(raster_zonal_df: pd.DataFrame,
                          page_zonal_df: pd.DataFrame,
                          raster_res: int, page_res: int) -> pd.DataFrame:
    """Cell-to-cell join of raster zonal stats with page zonal stats.

    Aligns the two sides at the coarser of the two resolutions via
    quadtree parent arithmetic — the raster<->vector bridge.
    """
    res = min(raster_res, page_res)
    r = raster_zonal_df.copy()
    p = page_zonal_df.copy()
    r["join_cell"] = cellmod.cell_parent(
        r["cell"].to_numpy().astype(np.uint64), res).astype(np.int64)
    p["join_cell"] = cellmod.cell_parent(
        p["zone"].to_numpy().astype(np.uint64), res).astype(np.int64)
    return r.merge(p, on="join_cell", how="inner",
                   suffixes=("_raster", "_pages"))
