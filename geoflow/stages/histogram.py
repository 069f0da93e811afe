"""Luminance x radiance 2-D histogram evaluation (correlation eval).

Transcribes ``correlation_eval.py:87-108``: per band, a 2-D histogram of
(luminance, band value) with bins=100 over range [[0,1],[band_min,
band_max]], transposed; plus a degree-1 fit of band ~ luminance over ALL
pixels (no threshold mask, :100).

Distributed shape (SURVEY.md section 2.4): two passes —
1. per-band min/max (the shared ``functions.agg`` combine of per-pixel
   (band, value) rows, then its merge), because np.histogram2d needs
   the full value range up front; the reference
   gets it from GDAL's approx-OK band statistics (``:97``) — the engine
   computes EXACT min/max (deviation documented; approx stats are a
   parity hazard, SURVEY.md 2.4).
2. per-tile np.histogram2d partials with the now-fixed shared range,
   summed elementwise per band (histograms with identical bin edges are
   additive), together with the OLS moment partials.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import combine_partials, merge_partials
from .terrain import _rows_as_arrays


def band_minmax(terrain_ds) -> dict[int, tuple[float, float]]:
    """Exact per-band min/max of the pixel values (pass 1)."""
    def _partial(batch: pa.Table) -> pa.Table:
        px = batch.column("pixels")
        flat = pa.table({
            "band": np.repeat(batch.column("band").to_numpy(),
                              pc.list_value_length(px).to_numpy()),
            "value": pc.list_flatten(px)})
        return combine_partials(flat, ["band"], [], ["value"], ["value"])

    partials = terrain_ds.map_batches(_partial, batch_format="pyarrow")
    df = merge_partials(partials, ["band"], [], "n_pixels", ["value"],
                        ["value"], buckets=1).to_pandas()
    return {int(r.band): (float(r.value_min), float(r.value_max))
            for r in df.itertuples(index=False)}


def histogram2d_ds(terrain_ds, minmax: dict[int, tuple[float, float]],
                   bins: int = 100):
    """Pass 2: per-band transposed 2-D histogram + OLS coefficients.

    Returns a Dataset with one row per band: band, hist (bins*bins int64,
    row-major of the TRANSPOSED matrix, correlation_eval.py:105), plus
    intercept/slope of polyfit(luminance, band, 1).
    """
    def _partial(batch: pa.Table) -> pa.Table:
        bands = batch.column("band").to_numpy()
        pixels = _rows_as_arrays(batch.column("pixels"))
        lums = _rows_as_arrays(batch.column("luminance"))
        hist_acc: dict[int, np.ndarray] = {}
        mom_acc: dict[int, np.ndarray] = {}
        for b, px, lm in zip(bands, pixels, lums):
            mn, mx = minmax[int(b)]
            h, _, _ = np.histogram2d(
                lm.astype(np.float64), px.astype(np.float64), bins=bins,
                range=[[0.0, 1.0], [mn, mx]])
            x = lm.astype(np.float64)
            y = px.astype(np.float64)
            mom = np.array([x.size, x.sum(), y.sum(),
                            (x * x).sum(), (x * y).sum()])
            key = int(b)
            if key in hist_acc:
                hist_acc[key] += h
                mom_acc[key] += mom
            else:
                hist_acc[key] = h
                mom_acc[key] = mom
        ks = list(hist_acc)
        return pa.table({
            "band": pa.array(ks, pa.int32()),
            "hist": pa.array([hist_acc[k].T.ravel().astype(np.int64)
                              for k in ks], pa.list_(pa.int64())),
            "mom": pa.array([mom_acc[k] for k in ks], pa.list_(pa.float64())),
        })

    partials = terrain_ds.map_batches(_partial, batch_format="pyarrow")

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        hist = np.sum([np.asarray(h, dtype=np.int64) for h in g["hist"]], axis=0)
        mom = np.sum([np.asarray(m) for m in g["mom"]], axis=0)
        n, sx, sy, sxx, sxy = mom
        denom = n * sxx - sx * sx
        slope = (n * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / n
        return pd.DataFrame({
            "band": [int(g["band"].iloc[0])],
            "hist": [hist.tolist()],
            "intercept": [intercept],
            "slope": [slope],
        })

    return partials.groupby("band").map_groups(_merge, batch_format="pandas")


def correlation_eval_ds(terrain_ds, bins: int = 100):
    mm = band_minmax(terrain_ds)
    return histogram2d_ds(terrain_ds, mm, bins)
