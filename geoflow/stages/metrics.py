"""The 7 evaluation metrics + distributed evaluation over corrections.

Transcribed metric semantics (reference
``processing_alg/topocorrection_eval/metrics.py:81-206``):

| id                         | evaluate(values)                         |
|----------------------------|------------------------------------------|
| std_reduction              | np.std(values)                           |
| cv_reduction               | np.std/np.mean                           |
| iqr_reduction              | P75 - P25 (np.percentile linear interp)  |
| relative_median_difference | np.median (combine: -abs(corr - orig))   |
| outliers_threshold         | count outside [orig_min, orig_max]       |
| outliers_iqr               | count outside [Q1-IQR, Q3+IQR]           |
| determination_coefficient  | r^2 of OLS values ~ luminance            |

``determination_coefficient`` uses the closed-form Pearson r (the
standard formula behind scipy.stats.linregress, metrics.py:193-195;
scipy is not available in this environment -- SURVEY.md section 7.0).

Evaluation shape: corrections are applied in ONE wide ``map_batches``
pass (one column per correction + the original), then
``groupby("band").map_groups`` computes every registered metric for all
corrections of a band in one task. Exact medians/percentiles come from
the gathered per-band group (the reference holds full bands in the
driver, multi_criteria_eval.py:128). Group rows are sorted by
(tile_y, tile_x) before concatenation so floating reductions are
deterministic.

Zones follow the reference's optional classification map
(``eval.py:128-141``): tiles that carry ``zone_ids`` are evaluated per
zone; tiles without it are one zone covering the band, and the output
then has no ``zone`` column.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

METRIC_IDS = [
    "std_reduction", "cv_reduction", "iqr_reduction",
    "relative_median_difference", "outliers_threshold", "outliers_iqr",
    "determination_coefficient",
]

ORIG_KEY = "__orig__"


def metric_ids() -> list[str]:
    """Current metric registry order (includes user-registered metrics;
    geoflow.registry.register_metric)."""
    from ..registry import METRICS
    return list(METRICS)


def pearson_r2(x: np.ndarray, y: np.ndarray) -> float:
    """r^2 of the OLS fit y ~ x (scipy.stats.linregress semantics)."""
    x = x.astype(np.float64)
    y = y.astype(np.float64)
    n = x.size
    sx, sy = x.sum(), y.sum()
    sxx = (x * x).sum()
    syy = (y * y).sum()
    sxy = (x * y).sum()
    num = n * sxy - sx * sy
    den = (n * sxx - sx * sx) * (n * syy - sy * sy)
    if den <= 0:
        return 0.0
    r = num / np.sqrt(den)
    return float(r * r)


def _metric_snapshot():
    """Registry snapshot taken ON THE DRIVER so user-registered metrics
    travel into worker processes via the pickled closure."""
    from ..registry import METRICS
    return [(mid, spec.fn) for mid, spec in METRICS.items()]


def _zone_slices(g: pd.DataFrame):
    """Pixel order and [(zone, start, stop)] slices of one band group.

    Tiles with ``zone_ids`` are grouped by one stable argsort, so each
    zone's pixels keep their boolean-mask order; tiles without it are one
    zone (``None``) covering the band, evaluated on views.
    """
    if "zone_ids" not in g.columns:
        return None, [(None, 0, None)]
    zones = np.concatenate([np.asarray(v, np.int32) for v in g["zone_ids"]])
    order = np.argsort(zones, kind="stable")
    ids, starts = np.unique(zones[order], return_index=True)
    stops = np.append(starts[1:], zones.size)
    return order, list(zip(ids.tolist(), starts, stops))


def metrics_for_band_group(correction_cols: list[str]):
    """map_groups fn over a per-band group of wide tile rows.

    Expects columns: band, tile_y, tile_x, pixels (original), luminance,
    one column per correction name in ``correction_cols`` and optionally
    ``zone_ids``. Emits one row per (correction, zone), ``__orig__``
    included, with every registered metric; the ``zone`` column appears
    only for zoned input. Each zone's min, max and luminance come from
    that zone (reference ``eval.py:173-179``,
    ``multi_criteria_eval.py:123-133``).
    """
    specs = _metric_snapshot()
    ids = [mid for mid, _ in specs]

    def _eval(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["tile_y", "tile_x"])
        band = int(g["band"].iloc[0])
        order, slices = _zone_slices(g)
        lum, *arrays = [
            np.concatenate([np.asarray(v, np.float32) for v in g[c]])
            for c in ["luminance", "pixels"] + list(correction_cols)]
        if order is not None:
            lum, arrays = lum[order], [a[order] for a in arrays]
        orig = arrays[0]
        sources = list(zip([ORIG_KEY] + list(correction_cols), arrays))
        rows = []
        for zone, lo, hi in slices:
            zlum, zorig = lum[lo:hi], orig[lo:hi]
            omin, omax = float(zorig.min()), float(zorig.max())
            for name, vals in sources:
                rows.append({"correction": name, "band": band, "zone": zone,
                             **{mid: fn(vals[lo:hi], omin, omax, zlum)
                                for mid, fn in specs}})
        keys = ["correction", "band"] + (["zone"] if order is not None else [])
        return pd.DataFrame(rows)[keys + ids]
    return _eval


def evaluate_corrections_ds(wide_ds, correction_cols: list[str]):
    """wide per-tile dataset -> (correction, band[, zone], metrics) Dataset."""
    return wide_ds.groupby("band").map_groups(
        metrics_for_band_group(correction_cols), batch_format="pandas")
