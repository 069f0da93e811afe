"""Transcription oracle for the evaluation/ranking layer.

Single-process truth for metric evaluation (full-array band values,
``multi_criteria_eval.py:123-158``, scored by this module's own metric
code, never the engine's registry) and the merge/normalize/rank math
(``multi_criteria_rank.py:169-197``), written in the reference's pandas
idioms (.xs pre-combine capture, .where/.gt(level=1) split
normalization) so the engine's independent implementation can be
checked against the exact reference behavior — including the
combined-vs-raw-original comparison quirk (see
geoflow.pipelines.rank docstring).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..context import CorrectionContext, DEFAULT_CONTEXT
from ..stages.metrics import METRIC_IDS, ORIG_KEY
from . import kernels as ok


def _reference_metrics(vals: np.ndarray, omin: float, omax: float,
                      lum: np.ndarray) -> dict[str, float]:
    """The 7 reference metrics (``metrics.py:81-195``), one numpy call
    each, written apart from the engine's metric registry."""
    q1, q3 = np.percentile(vals, [25, 75])
    iqr = q3 - q1
    return {
        "std_reduction": float(np.std(vals)),
        "cv_reduction": float(np.std(vals) / np.mean(vals)),
        "iqr_reduction": float(iqr),
        "relative_median_difference": float(np.median(vals)),
        "outliers_threshold": float(np.count_nonzero(
            (vals < omin) | (vals > omax))),
        "outliers_iqr": float(np.count_nonzero(
            (vals < q1 - iqr) | (vals > q3 + iqr))),
        "determination_coefficient": float(np.corrcoef(
            lum.astype(np.float64), vals.astype(np.float64))[0, 1] ** 2),
    }


def oracle_metrics_table(bands: np.ndarray, dem: np.ndarray,
                         names: list[str] | None = None,
                         ctx: CorrectionContext = DEFAULT_CONTEXT,
                         zones: np.ndarray | None = None) -> pd.DataFrame:
    """(correction, band) x 7 metrics over full arrays (driver-style).

    ``zones`` is the (H, W) classification map: metrics are then taken
    per zone over zone-masked arrays, with min, max and luminance masked
    by the same zone (``eval.py:173-179``, ``multi_criteria_eval.py:128``),
    and the index gains a trailing ``zone`` level. Without it the whole
    image is the one group (``eval.py:128-141``).
    """
    names = names or list(ok.CORRECTION_NAMES)
    slope = ok.zt_slope_radians(dem)
    aspect = ok.zt_aspect_radians(dem)
    lum = ok.luminance(slope, aspect, ctx).astype(np.float32)
    coeffs = ok.fit_coefficients(bands, lum, slope, ctx)
    lum_flat = lum.ravel()
    zflat = np.ones(lum_flat.size, np.int32) if zones is None else zones.ravel()
    rows = []
    for b in range(bands.shape[0]):
        sources = {ORIG_KEY: bands[b].ravel()}
        for name in names:
            sources[name] = ok.apply_correction(name, bands[b], lum, slope,
                                                coeffs, b, ctx).ravel()
        for zone in np.unique(zflat):
            zmask = zflat == zone
            zorig = sources[ORIG_KEY][zmask]
            omin, omax = float(zorig.min()), float(zorig.max())
            for name, vals in sources.items():
                m = _reference_metrics(vals[zmask], omin, omax, lum_flat[zmask])
                m.update({"correction": name, "band": b, "zone": int(zone)})
                rows.append(m)
    keys = ["correction", "band"] + ([] if zones is None else ["zone"])
    df = pd.DataFrame(rows)[keys + METRIC_IDS]
    return df.set_index(keys).sort_index()


def oracle_merge_rank(metrics: pd.DataFrame,
                      weights: dict[str, float] | None = None,
                      band_combine: str = "sum"):
    """multi_criteria_rank.py:169-197 in the reference's own pandas style."""
    orig_metrics = metrics.xs(ORIG_KEY)           # PRE-combine capture (:170)
    combined = metrics.copy()
    for m in METRIC_IDS:                          # combine (:171-173)
        if m == "relative_median_difference":     # metrics.py:139-140
            combined[m] = -combined[m].subtract(orig_metrics[m], level=1).abs()
        else:                                     # metrics.py:77-78
            combined[m] = combined[m] * -1

    # _normalize (:180-190)
    good_results = combined.where(combined.gt(orig_metrics, level=1))
    norm_good = good_results.subtract(orig_metrics, level=1).divide(
        good_results.groupby(level=1).max() - orig_metrics, level=1)
    bad_results = combined.where(combined.lt(orig_metrics, level=1))
    bad_min = bad_results.groupby(level=1).min()
    norm_bad = bad_results.subtract(bad_min, level=1).divide(
        orig_metrics - bad_min, level=1) - 1
    norm_good[combined.eq(orig_metrics, level=1)] = 0.0
    normalized = norm_good.fillna(norm_bad).drop(ORIG_KEY)

    w = [(weights or {}).get(m, 1.0) for m in METRIC_IDS]
    per_band = (normalized * w).sum(1)            # merge (:175-178)
    grouped = per_band.groupby(level=0)           # BandMetricsCombiner (:52-79)
    scores = {
        "sum": grouped.sum(), "mean": grouped.mean(), "max": grouped.max(),
        "min": grouped.min(), "median": grouped.median(),
    }[band_combine].to_frame(name="Score")
    return scores.sort_values("Score", ascending=False), normalized
