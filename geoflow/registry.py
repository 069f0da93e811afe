"""User-extension registries: corrections and evaluation metrics.

Reference extension surface (SURVEY.md section 2.7): corrections are
subclasses of ``TopoCorrectionAlgorithm`` collected in
``DEFAULT_CORRECTIONS`` (``topocorrection/__init__.py:32-44``), metrics
subclass ``EvalMetric`` with ``is_reduction``/``weight`` attributes
(``metrics.py:60-78,198-206``). Engine equivalent: plain registries of
pure functions.

- correction: ``fn(I, L, slope_rad, coeffs, band_idx, ctx) -> float32``
  registered with ``@register_correction(name)``; a custom correction
  can read per-band fit results from ``coeffs['bands'][band_idx]``.
- metric: ``fn(values, orig_min, orig_max, luminance) -> float``
  registered with ``@register_metric(id, is_reduction=..., weight=...)``;
  registered metrics flow through the distributed evaluation and the
  normalize/rank stages automatically (they iterate the registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oracle import kernels as ok

# ---------------------------------------------------------------------------
# Corrections
# ---------------------------------------------------------------------------

CORRECTIONS: dict[str, Callable] = {}


def register_correction(name: str):
    def deco(fn):
        CORRECTIONS[name] = fn
        return fn
    return deco


def _builtin(name: str):
    def fn(I, L, slope_rad, coeffs, band_idx, ctx):
        return ok.apply_correction(name, I, L, slope_rad, coeffs, band_idx, ctx)
    fn.__name__ = f"apply_{name}"
    return fn


for _name in ok.CORRECTION_NAMES:
    CORRECTIONS[_name] = _builtin(_name)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    fn: Callable
    is_reduction: bool = True
    weight: float = 1.0


METRICS: dict[str, MetricSpec] = {}


def register_metric(metric_id: str, is_reduction: bool = True,
                    weight: float = 1.0):
    def deco(fn):
        METRICS[metric_id] = MetricSpec(fn, is_reduction, weight)
        return fn
    return deco


def _std(values, orig_min, orig_max, luminance):
    return float(np.std(values))                      # metrics.py:81-91


def _cv(values, orig_min, orig_max, luminance):
    return float(np.std(values) / np.mean(values))    # metrics.py:94-104


def _iqr(values, orig_min, orig_max, luminance):
    q1, q3 = np.percentile(values, [25, 75])          # metrics.py:107-123
    return float(q3 - q1)


def _median(values, orig_min, orig_max, luminance):
    return float(np.median(values))                   # metrics.py:126-140


def _out_thr(values, orig_min, orig_max, luminance):  # metrics.py:151-165
    return float(np.count_nonzero(
        np.logical_or(orig_min > values, values > orig_max)))


def _out_iqr(values, orig_min, orig_max, luminance):  # metrics.py:168-181
    q1, q3 = np.percentile(values, [25, 75])
    lo, hi = q1 - (q3 - q1), q3 + (q3 - q1)
    return float(np.count_nonzero(np.logical_or(lo > values, values > hi)))


def _r2(values, orig_min, orig_max, luminance):       # metrics.py:184-195
    from .stages.metrics import pearson_r2
    return pearson_r2(luminance, values)


# registry order == reference DEFAULT_METRICS order (metrics.py:198-206)
METRICS["std_reduction"] = MetricSpec(_std)
METRICS["cv_reduction"] = MetricSpec(_cv)
METRICS["iqr_reduction"] = MetricSpec(_iqr)
METRICS["relative_median_difference"] = MetricSpec(_median)
METRICS["outliers_threshold"] = MetricSpec(_out_thr)
METRICS["outliers_iqr"] = MetricSpec(_out_iqr)
METRICS["determination_coefficient"] = MetricSpec(_r2)
