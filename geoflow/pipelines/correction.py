"""End-to-end topographic-correction pipeline (reference entry point #1).

Engine shape (SURVEY.md section 3.1): read tiles -> derive terrain once
-> one fit pass (all corrections' coefficients) -> stateless apply ->
write/collect. Control stays on the Ray driver; coefficients move
through closures instead of the reference's temp-GeoTIFF + re-opened
file paths (``processing_alg/execution_context.py:325-346``).

The terrain dataset is computed ONCE, materialized (its blocks pinned
in the object store, spilled transparently if needed) and shared by the
fit pass and every apply pass, which read it zero-copy.
"""

from __future__ import annotations

from ..context import CorrectionContext, DEFAULT_CONTEXT
from ..stages.corrections import (CORRECTION_NAMES, apply_correction_ds,
                                  fit_corrections)
from ..stages.terrain import derive_terrain


def prepare_terrain(tiles_ds, ctx: CorrectionContext = DEFAULT_CONTEXT):
    return derive_terrain(tiles_ds, ctx).materialize()


def run_correction(tiles_ds, name: str,
                   ctx: CorrectionContext = DEFAULT_CONTEXT,
                   coeffs: dict | None = None):
    """One correction end-to-end. Returns (corrected_ds, coeffs_by_raster)."""
    terrain = prepare_terrain(tiles_ds, ctx)
    if coeffs is None:
        coeffs = fit_corrections(terrain, ctx)
    return apply_correction_ds(terrain, name, coeffs, ctx), coeffs


def run_all_corrections(tiles_ds, names: list[str] | None = None,
                        ctx: CorrectionContext = DEFAULT_CONTEXT):
    """All (or selected) corrections off one terrain pass + one fit pass.

    Returns ({name: corrected_ds}, coeffs_by_raster). The reference runs
    one full pipeline per correction, re-deriving slope/aspect/luminance
    each time (``multi_criteria_rank.py:199-239``); here every correction
    shares both the terrain dataset and the single fit pass.
    """
    names = names or CORRECTION_NAMES
    terrain = prepare_terrain(tiles_ds, ctx)
    coeffs = fit_corrections(terrain, ctx)
    return {n: apply_correction_ds(terrain, n, coeffs, ctx) for n in names}, coeffs
