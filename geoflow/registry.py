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
  It must be elementwise over 1-D arrays: output pixel i depends only
  on input pixel i and the coefficients. The arrays may be one tile or
  a whole band (the rank calls it once per band, as the reference
  applies a correction to the full raster), and both must give the
  same values.
- metric: ``fn(values, orig_min, orig_max, luminance) -> float``
  registered with ``@register_metric(id, is_reduction=..., weight=...)``;
  registered metrics flow through the distributed evaluation and the
  normalize/rank stages automatically (they iterate the registry).
  Re-registering a built-in id replaces it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .oracle import kernels as ok
from .stages import metrics as sm

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


def _builtin_metric(metric_id: str):
    def fn(values, orig_min, orig_max, luminance):
        return sm.FROM_SUMMARY[metric_id](sm.SourceSummary(
            values, orig_min, orig_max, sm.ZoneLuminance(luminance)))
    fn.__name__ = metric_id
    return fn


# registry order == reference DEFAULT_METRICS order (metrics.py:198-206);
# the evaluator derives these from one shared summary per (zone, source)
# while METRICS still holds them (stages/metrics.py::_metric_snapshot)
BUILTIN_METRICS: dict[str, Callable] = {
    mid: _builtin_metric(mid) for mid in sm.METRIC_IDS}
for _mid, _fn in BUILTIN_METRICS.items():
    METRICS[_mid] = MetricSpec(_fn)
