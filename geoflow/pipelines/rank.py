"""Multi-criteria ranking of corrections (reference entry point #5).

Engine shape (SURVEY.md section 3.2): ONE Ray Data job per rank. The
tiles stream through the terrain derivation into the band step
(``stages.metrics.per_band``, shared with the correlation eval), which
moves only the terrain columns the corrections read; nothing is
materialized before it and there is no separate fit job. The band step
coalesces those columns into one block, with no shuffle, and one task
runs every band in turn, refusing tiles from two rasters (the
reference scores whole bands held in one process,
``multi_criteria_eval.py:123-133``). The task fits each band
from the band's own tiles (the reference fits each band from that
band's pixels, ``multi_criteria_rank.py:199-239``), flattens the band's
pixels, luminance and slope once in tile order, calls every correction once on
the whole band (the reference applies them to full rasters, spawning a
process per correction and round-tripping GeoTIFFs) and computes all
metrics for the original and every correction from those flat arrays;
the tiny (corrections x bands) table is normalized/weighted/ranked on
the driver.
The band task's fit merges the same per-tile moment rows as
``stages.corrections.fit_corrections`` in the same order, so its
coefficients are ``==`` to that fit's.
Tiles that carry ``zone_ids`` (the reference's classification map) are
evaluated and ranked per zone by the same code; tiles without it are
one zone.

Normalization semantics transcribed from ``multi_criteria_rank.py:169-197``:
- reductions combine with sign flip (metrics.py:64,77-78);
  relative_median_difference combines as -abs(corrected - original)
  (metrics.py:139-140); the combine is applied to the ``__orig__`` row too;
- QUIRK preserved: ``_normalize`` compares the COMBINED (sign-flipped)
  values against the PRE-combine original metrics (``merge`` captures
  ``orig_metrics`` before mutating the frame, :170-174) — so for the
  reduction metrics "better than original" (-x > +orig) is unreachable
  and nearly every entry lands on the "worse" branch
  (x - min)/(orig_raw - min) - 1, which is still monotone in x.
  Faithfully reproduced, not fixed;
- equal (possible when both are 0, e.g. outlier counts) -> 0; the
  original row is dropped; weighted sum across metrics (NaN-skipping,
  like pandas .sum(1)); combined across bands (default sum,
  BandMetricsCombiner, :52-90); sorted descending.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..context import CorrectionContext, DEFAULT_CONTEXT
from ..oracle import kernels as ok
from ..stages.corrections import (fit_moments_batch, merge_moments,
                                  solve_corrections)
from ..stages.metrics import (ORIG_KEY, array_evaluator, flat, metric_ids,
                              per_band)
from ..stages.terrain import _rows_as_arrays, derive_terrain
# the stand-alone terrain and fit steps; perfbench's traced rank pass
# wraps them under these names, so they stay importable from here
from ..stages.corrections import fit_corrections  # noqa: F401
from .correction import prepare_terrain  # noqa: F401


# column-safe names for the wide layout
def _col(name: str) -> str:
    return "corr_" + name.replace(" ", "_").replace("+", "p").replace("-", "_")


def apply_all_wide_batch(batch: pa.Table, fns: list,
                         coeffs_by_raster: dict,
                         ctx: CorrectionContext) -> pa.Table:
    """``fns``: [(name, correction_fn)] resolved from the registry ON THE
    DRIVER so user-registered corrections reach worker processes."""
    rid = batch.column("raster_id").to_pylist()
    band = batch.column("band").to_numpy()
    pixels = _rows_as_arrays(batch.column("pixels"))
    lums = _rows_as_arrays(batch.column("luminance"))
    slopes = _rows_as_arrays(batch.column("slope"))
    keep_cols = ["band", "tile_y", "tile_x", "pixels", "luminance"]
    if "zone_ids" in batch.column_names:
        keep_cols.append("zone_ids")
    keep = batch.select(keep_cols)
    for name, fn in fns:
        outs = []
        for r, b, I, L, s in zip(rid, band, pixels, lums, slopes):
            res = np.asarray(fn(I, L, s, coeffs_by_raster[r], int(b), ctx),
                             dtype=np.float32)
            outs.append(res.ravel())
        keep = keep.append_column(_col(name),
                                  pa.array(outs, pa.list_(pa.float32())))
    return keep


def fit_band(group: pa.Table, ctx: CorrectionContext) -> dict:
    """{raster_id: coeffs} fitted from one band's own tiles."""
    return solve_corrections(
        merge_moments(fit_moments_batch(group, ctx)).to_pylist(), ctx)


def evaluate_corrections_ds(terrain, fns: list, ctx: CorrectionContext):
    """Terrain Dataset -> (correction, band[, zone], metrics) Dataset.

    One ``per_band`` task runs every band: it fits each band from the
    band's own tiles, flattens pixels, luminance and slope (and
    ``zone_ids``) once in tile order, calls each correction once on the
    whole band and evaluates the flat arrays."""
    evaluate = array_evaluator()

    def evaluate_band(band: int, group: pa.Table) -> pd.DataFrame:
        (coeffs,) = fit_band(group, ctx).values()
        I, L, s = (flat(group.column(c))
                   for c in ("pixels", "luminance", "slope"))
        corrected = [(name, np.asarray(fn(I, L, s, coeffs, band, ctx),
                                       dtype=np.float32).ravel())
                     for name, fn in fns]
        zones = (flat(group.column("zone_ids"))
                 if "zone_ids" in group.column_names else None)
        return evaluate(band, L, I, corrected, zones)

    return per_band(terrain, ["pixels", "luminance", "slope", "zone_ids"],
                    evaluate_band)


def compute_metrics_table(tiles_ds, names: list[str] | None = None,
                          ctx: CorrectionContext = DEFAULT_CONTEXT) -> pd.DataFrame:
    """-> DataFrame indexed (correction, band) with the metric columns;
    tiles that carry ``zone_ids`` add a trailing ``zone`` level. The tiles
    must come from one raster (``ValueError`` otherwise). One lazy
    pipeline, so one Ray Data execution: read, terrain, band step."""
    from ..registry import CORRECTIONS

    names = names or list(ok.CORRECTION_NAMES)
    fns = [(n, CORRECTIONS[n]) for n in names]   # driver-side resolve
    terrain = derive_terrain(tiles_ds, ctx)
    mt = evaluate_corrections_ds(terrain, fns, ctx).to_pandas()
    keys = ["correction", "band"] + (["zone"] if "zone" in mt.columns else [])
    return mt.set_index(keys).sort_index()


def combine_vs_original(metrics: pd.DataFrame) -> pd.DataFrame:
    """Sign-flip reductions; median becomes -abs(corrected - original).
    Applied to every row including ``__orig__`` (multi_criteria_rank.py
    :171-173 mutates the whole column)."""
    from ..registry import METRICS

    orig_raw = metrics.xs(ORIG_KEY)
    out = metrics.copy()
    for m in metric_ids():
        if m == "relative_median_difference":
            out[m] = -(out[m].subtract(orig_raw[m], level=1)).abs()
        else:
            mult = -1.0 if METRICS[m].is_reduction else 1.0
            out[m] = out[m] * mult
    return out


def _by_band(by_band: pd.DataFrame, index: pd.MultiIndex) -> pd.DataFrame:
    """Broadcast a band-indexed frame onto a (correction, band) index."""
    return by_band.reindex(index.get_level_values(1)).set_axis(index)


def normalize_vs_original(combined: pd.DataFrame,
                          orig_raw: pd.DataFrame) -> pd.DataFrame:
    """Split min-max normalization around the PRE-combine original value
    (reference quirk — see module docstring), over every metric column
    at once."""
    col = combined[metric_ids()].copy()   # one block: where/mask run once
    ov = _by_band(orig_raw[col.columns], col.index)
    good, bad = col > ov, col < ov
    max_good = _by_band(col.where(good).groupby(level=1).max(), col.index)
    min_bad = _by_band(col.where(bad).groupby(level=1).min(), col.index)
    norm = ((col - ov) / (max_good - ov)).where(good)
    norm = norm.mask(bad, (col - min_bad) / (ov - min_bad) - 1)
    norm = norm.mask(col == ov, 0.0)
    return norm.drop(ORIG_KEY, level=0)


def _rank(metrics: pd.DataFrame, weights: dict[str, float] | None,
          band_combine: str):
    """One zone's (correction, band) metric table -> (scores sorted desc,
    normalized metrics): combine, normalize, weight, combine bands."""
    from ..registry import METRICS

    if band_combine not in ("sum", "mean", "max", "min", "median"):
        raise KeyError(band_combine)
    combined = combine_vs_original(metrics)
    normalized = normalize_vs_original(combined, metrics.xs(ORIG_KEY))
    w = np.array([(weights or {}).get(m, METRICS[m].weight)
                  for m in metric_ids()])
    per_band = (normalized * w).sum(axis=1)
    scores = getattr(per_band.groupby(level=0), band_combine)()
    return (scores.to_frame(name="Score").sort_values("Score", ascending=False),
            normalized)


def rank_corrections(tiles_ds, names: list[str] | None = None,
                     ctx: CorrectionContext = DEFAULT_CONTEXT,
                     weights: dict[str, float] | None = None,
                     band_combine: str = "sum"):
    """Full ranking. Returns (scores DataFrame sorted desc, metrics,
    normalized metrics). Zoned tiles are ranked per zone, independently
    (reference ``eval.py:143-151``): scores and normalized metrics then
    carry a leading ``zone`` level. Pass ``tiles.drop_columns(["zone_ids"])``
    for a whole-band rank of zoned tiles."""
    metrics = compute_metrics_table(tiles_ds, names, ctx)
    if "zone" not in metrics.index.names:
        scores, normalized = _rank(metrics, weights, band_combine)
        return scores, metrics, normalized
    zones = metrics.index.unique(level="zone")
    ranked = [_rank(metrics.xs(z, level="zone"), weights, band_combine)
              for z in zones]
    scores, normalized = (pd.concat(parts, keys=zones, names=["zone"])
                          for parts in zip(*ranked))
    return scores, metrics, normalized


def export_rank_report(scores: pd.DataFrame, metrics: pd.DataFrame,
                       normalized: pd.DataFrame, out_dir: str) -> list[str]:
    """Driver-side report sink (reference exports xlsx sheets,
    ``multi_criteria_eval.py:231-265``; engine writes CSV + parquet +
    a real xlsx workbook via the stdlib OOXML writer)."""
    import os

    from .report import write_xlsx

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    sheets = {}
    for name, df in (("scores", scores), ("metrics", metrics),
                     ("normalized_metrics", normalized)):
        p = os.path.join(out_dir, f"{name}.csv")
        df.to_csv(p)
        df.reset_index().to_parquet(os.path.join(out_dir, f"{name}.parquet"))
        sheets[name] = df.reset_index()
        paths.append(p)
    paths.append(write_xlsx(os.path.join(out_dir, "report.xlsx"), sheets))
    return paths
