"""Rose-diagram zonal aggregation: mean band value per (slope, aspect) bin.

Transcribes ``rose_diagram_eval.py:197-233``: slope/aspect computed in
DEGREES (``in_radians=False``), binned by integer-floor ranges
(``group_by_range``, :104-106: group_size = (upper - lower) //
groups_count, bin = (v - lower) // group_size), mean of band pixels per
(slope_bin, aspect_bin) with a take-mask slope <= 90 and aspect <= 360.

Engine shape: the tile kernel derives the bins of every pixel of the
batch, and the shared Arrow combine (``functions.agg.combine_partials``)
collapses the (band, slope_bin, aspect_bin, value) rows to per-bin sums;
``functions.agg.merge_partials`` merges the few bins in one task — the
same path the raster zonal aggregation takes (``stages.zonal``,
SURVEY.md section 3.3).
``npg.aggregate``'s dense fill_value=0 matrix is reproduced on the
driver by ``densify``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import combine_partials, merge_partials
from ..oracle import kernels as ok
from .terrain import _rows_as_arrays
from .zonal import with_mean


def group_by_range(arr: np.ndarray, groups_count: int, upper_bound: float,
                   lower_bound: float = 0) -> np.ndarray:
    """rose_diagram_eval.py:104-106 (integer group size, floor division)."""
    group_size = (upper_bound - lower_bound) // groups_count
    return ((arr - lower_bound) // group_size).astype(int, copy=False)


def rose_bins_batch(batch: pa.Table, slope_groups: int = 3,
                    slope_max: float = 90.0, aspect_groups: int = 36,
                    aspect_max: float = 360.0) -> pa.Table:
    """Tile rows -> per-(band, slope_bin, aspect_bin) partial sums within
    the batch."""
    hs = batch.column("height").to_numpy()
    ws = batch.column("width").to_numpy()
    slope, aspect = [np.empty(0, np.float32)], [np.empty(0, np.float32)]
    for h, w, halo in zip(hs, ws, _rows_as_arrays(batch.column("dem_halo"))):
        p = halo.reshape(h + 2, w + 2)
        slope.append(ok.zt_slope_degrees_padded(p).ravel())
        aspect.append(ok.zt_aspect_degrees_padded(p).ravel())
    slope, aspect = np.concatenate(slope), np.concatenate(aspect)
    take = np.logical_and(slope <= slope_max, aspect <= aspect_max)
    pixels = pc.list_flatten(batch.column("pixels")).to_numpy()
    flat = pa.table({
        "band": pa.array(np.repeat(batch.column("band").to_numpy(),
                                   hs * ws)[take], pa.int64()),
        "slope_bin": group_by_range(slope[take], slope_groups, slope_max),
        "aspect_bin": group_by_range(aspect[take], aspect_groups, aspect_max),
        "value": pixels[take].astype(np.float64),
    })
    return combine_partials(flat, ["band", "slope_bin", "aspect_bin"],
                            ["value"])


def rose_diagram_ds(tiles_ds, slope_groups: int = 3, aspect_groups: int = 36):
    """Tile dataset -> (band, slope_bin, aspect_bin, value_sum, n_pixels,
    mean_value) Dataset."""
    partials = tiles_ds.map_batches(
        lambda b: rose_bins_batch(b, slope_groups=slope_groups,
                                  aspect_groups=aspect_groups),
        batch_format="pyarrow")
    keys = ["band", "slope_bin", "aspect_bin"]
    return with_mean(merge_partials(partials, keys, ["value"], "n_pixels",
                                    buckets=1), keys)


def densify(df: pd.DataFrame, band: int, slope_groups: int = 3,
            aspect_groups: int = 36) -> np.ndarray:
    """Sparse grouped means -> dense (slope_groups+, aspect_groups+) matrix
    with 0 fill, shaped like npg.aggregate's output
    (rose_diagram_eval.py:225-227: size grows to max bin index + 1)."""
    d = df[df["band"] == band]
    ns = max(slope_groups, int(d["slope_bin"].max()) + 1 if len(d) else 0)
    na = max(aspect_groups, int(d["aspect_bin"].max()) + 1 if len(d) else 0)
    out = np.zeros((ns, na))
    for r in d.itertuples(index=False):
        out[int(r.slope_bin), int(r.aspect_bin)] = r.mean_value
    return out
