"""Luminance x radiance 2-D histogram evaluation (correlation eval).

Transcribes ``correlation_eval.py:87-108``: per band, a 2-D histogram of
(luminance, band value) with bins=100 over range [[0,1],[band_min,
band_max]], transposed; plus a degree-1 fit of band ~ luminance over ALL
pixels (no threshold mask, :100).

Evaluation shape: the band step (``stages.metrics.per_band``, the same
one task the rank runs) hands each band whole, flattened in tile order,
to the reference's own calls: ``np.histogram2d`` over the band's EXACT
min/max and ``np.polynomial.polynomial.polyfit``, on float64 arrays.
The reference takes the range from GDAL's approx-OK band statistics
(``:97``); exact min/max is the documented deviation (approx stats are a
parity hazard, SURVEY.md 2.4). Tiles from two rasters are refused.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .metrics import flat, per_band


def correlation_eval_ds(terrain_ds, bins: int = 100):
    """Terrain Dataset -> one row per band: band, hist (bins*bins int64,
    row-major of the TRANSPOSED matrix, correlation_eval.py:105), and
    intercept/slope of polyfit(luminance, band, 1)."""
    def evaluate_band(band: int, group: pa.Table) -> pd.DataFrame:
        lum = flat(group.column("luminance")).astype(np.float64)
        px = flat(group.column("pixels")).astype(np.float64)
        h, _, _ = np.histogram2d(lum, px, bins=bins,
                                 range=[[0.0, 1.0], [px.min(), px.max()]])
        intercept, slope = np.polynomial.polynomial.polyfit(lum, px, 1)
        return pd.DataFrame({"band": [band],
                             "hist": [h.T.ravel().astype(np.int64)],
                             "intercept": [intercept], "slope": [slope]})

    return per_band(terrain_ds, ["pixels", "luminance"], evaluate_band)
