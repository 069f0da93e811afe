"""Distributed fit + apply for the 11 topographic-correction kernels.

Two-phase design (SURVEY.md section 2.3 "Ray Data mapping"):

FIT — one row of float64 moments per tile (``fit_moments_batch``), with
no per-batch combine, so a band's partial rows are the same whatever the
blocking. ``merge_moments`` (``functions.agg.merge_partials_local``)
sums them per (raster_id, band) in an order fixed by their values, and
``solve_corrections`` solves the closed-form OLS / means. Two callers
share these steps: ``fit_corrections`` maps the moments over a terrain
Dataset and merges every band in one task (``merge_partials`` at
B = 1) for ``run_correction`` / ``run_all_corrections``; the rank band
task (``pipelines.rank``) fits its own band from its own tiles. Both add
the same rows in the same order, so they give ``==`` coefficients. The
one set of moments yields the coefficients for ALL 11 corrections at
once — the reference reruns its full fit per correction and per band in
the driver process
(``LuminanceRegressionTopoCorrectionAlgorithm.py:30-35``,
``MinnaertTopoCorrectionAlgorithm.py:107-115``,
``CosineCTopoCorrectionAlgorithm.py:40-42``).

APPLY — a stateless Arrow ``map_batches`` over tile rows with the
coefficient dict captured in the closure (small: O(bands) floats — no
actor state needed, kernels are pure). Per-pixel formulas are shared
with the transcription oracle (geoflow.oracle.kernels) so engine tiles
are bit-identical to the oracle given identical coefficients; the
closed-form fit matches the oracle's ``np.polynomial.polyfit`` to
<=1e-9 relative on well-conditioned data (tolerance documented in
SURVEY.md section 7.4).

NDV propagation transcribes ``util/raster_calc.py:257-274``: nodata
cells are zeroed then set to gdal_calc's Float32 default NDV.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..context import CorrectionContext, DEFAULT_CONTEXT
from ..functions.agg import merge_partials, merge_partials_local
from ..oracle import kernels as ok
from ..registry import CORRECTIONS
from .terrain import _rows_as_arrays

CORRECTION_NAMES = list(ok.CORRECTION_NAMES)

_FIT_KEYS = ["raster_id", "band"]

# per-tile moments; the merge sums each into ``{c}_sum``. The merge sorts
# its rows on these columns in this order, and ``n`` and ``lum`` do not
# depend on the band, so every band of a raster adds its tiles' ``lum``
# in one order and gets the same ``luminance_mean`` bit for bit.
_MOMENT_COLS = [
    "n", "lum", "I",
    "m_n", "m_x", "m_y", "m_xx", "m_xy",     # OLS on masked px
    "mn_x", "mn_y", "mn_xx", "mn_xy",        # Minnaert log-fit
]


def fit_moments_batch(batch: pa.Table,
                      ctx: CorrectionContext = DEFAULT_CONTEXT) -> pa.Table:
    """One moment row per tile: ``raster_id``, ``band``, ``{c}_sum`` per
    moment and ``_n`` = 1, the partial layout ``functions.agg`` merges.
    No rows are combined here, so the partials of a band are the same
    rows however the tiles are blocked."""
    pixels = _rows_as_arrays(batch.column("pixels"))
    lums = _rows_as_arrays(batch.column("luminance"))
    slopes = _rows_as_arrays(batch.column("slope"))
    rows = [np.empty((0, len(_MOMENT_COLS)))]
    T = ctx.pixel_ignore_threshold
    for I, L, s in zip(pixels, lums, slopes):
        I64 = I.astype(np.float64)
        L64 = L.astype(np.float64)
        mask = I > T
        x = L64[mask]
        y = I64[mask]
        # Minnaert log-fit inputs with the reference's -10 fills
        # (MinnaertTopoCorrectionAlgorithm.py:74-105); fills participate.
        mx = ok.minnaert_x(L, s).astype(np.float64).ravel()
        my = ok.minnaert_y(I, s).astype(np.float64).ravel()
        rows.append([[
            I.size, L64.sum(), I64.sum(),
            x.size, x.sum(), y.sum(), (x * x).sum(), (x * y).sum(),
            mx.sum(), my.sum(), (mx * mx).sum(), (mx * my).sum(),
        ]])
    moments = np.concatenate(rows)
    return pa.table({
        "raster_id": batch.column("raster_id"),
        "band": batch.column("band").cast(pa.int32()),
        **{f"{c}_sum": moments[:, j] for j, c in enumerate(_MOMENT_COLS)},
        "_n": np.ones(batch.num_rows, np.int64)})


def _closed_form_ols(n, sx, sy, sxx, sxy) -> tuple[float, float]:
    """(intercept, slope) from float64 moments — matches polyfit analytically.

    Degenerate regressor (constant x — e.g. flat terrain giving constant
    luminance, as on the reference's own 10x10 test grid): the normal
    equations are rank-deficient; the minimum-norm least-squares solution
    is slope 0, intercept mean(y) (what lstsq returns where polyfit
    warns). Corrections built on these coefficients reduce to identity
    on such rasters, which is the physically right answer."""
    denom = n * sxx - sx * sx
    if denom == 0:
        return (float(sy / n) if n else 0.0), 0.0
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return float(intercept), float(slope)


def merge_moments(moments: pa.Table) -> pa.Table:
    """Per-tile moment rows -> one merged row per (raster_id, band)."""
    return merge_partials_local(moments, _FIT_KEYS, _MOMENT_COLS, "n_tiles")


def solve_corrections(rows, ctx: CorrectionContext = DEFAULT_CONTEXT) -> dict:
    """Merged moment rows (dicts, one per (raster_id, band)) ->
    {raster_id: coeffs} (oracle-shaped dicts), with an entry under
    ``bands`` for each band the rows hold."""
    out: dict[str, dict] = {}
    for row in rows:
        coeffs = out.setdefault(row["raster_id"], {
            "luminance_mean": None, "h0": ok.pbc_h0(ctx), "bands": {}})
        b = int(row["band"])
        intercept, slope = _closed_form_ols(
            row["m_n_sum"], row["m_x_sum"], row["m_y_sum"], row["m_xx_sum"],
            row["m_xy_sum"])
        m_int, m_slope = _closed_form_ols(
            row["n_sum"], row["mn_x_sum"], row["mn_y_sum"], row["mn_xx_sum"],
            row["mn_xy_sum"])
        coeffs["bands"][b] = {
            "ols_intercept": intercept,
            "ols_slope": slope,
            # degenerate fits (slope/intercept 0 on flat terrain —
            # see _closed_form_ols): c / pbc_c are arbitrary there
            # because the correction factor is identically 1 when
            # luminance is constant; pin 0.0 to keep kernels finite
            "c": intercept / slope if slope != 0 else 0.0,
            "minnaert_intercept": m_int,
            "minnaert_k": m_slope,
            "pbc_c": m_slope / m_int if m_int != 0 else 0.0,
            "band_mean": float(row["I_sum"] / row["n_sum"]),
            "zero_noise": ok.deterministic_zero_noise(b),
        }
        # luminance is band-independent, and so is the order in which
        # the merge adds it (see _MOMENT_COLS): every band gives one mean
        coeffs["luminance_mean"] = float(row["lum_sum"] / row["n_sum"])
    return out


def fit_corrections(terrain_ds, ctx: CorrectionContext = DEFAULT_CONTEXT) -> dict:
    """Streaming fit pass -> {raster_id: coeffs} (oracle-shaped dicts).

    The per-tile moment rows merge in one task (``merge_partials`` at
    B = 1), which adds them in an order fixed by their values. A band's
    rows do not depend on the blocking, so the coefficients are ``==``
    across blockings and tile orders, and ``==`` to the fit each rank
    band task makes from its own tiles."""
    def fit_moments(b):
        return fit_moments_batch(b, ctx)

    partials = terrain_ds.map_batches(fit_moments, batch_format="pyarrow")
    # few (raster, band) keys over tiles x bands partial rows: one bucket
    merged = merge_partials(partials, _FIT_KEYS, _MOMENT_COLS, "n_tiles",
                            buckets=1)
    return solve_corrections(merged.take_all(), ctx)


def apply_correction_batch(batch: pa.Table, fn, coeffs_by_raster: dict,
                           ctx: CorrectionContext = DEFAULT_CONTEXT) -> pa.Table:
    """Stateless apply kernel over tile rows; adds ``corrected`` (f32 list).

    ``fn`` is the correction callable resolved from the registry ON THE
    DRIVER (geoflow.registry) — passing the function through the closure
    (cloudpickle serializes it by value) means user-registered
    corrections work in worker processes that never ran the registering
    code.
    """
    rid = batch.column("raster_id").to_pylist()
    band = batch.column("band").to_numpy()
    pixels = _rows_as_arrays(batch.column("pixels"))
    lums = _rows_as_arrays(batch.column("luminance"))
    slopes = _rows_as_arrays(batch.column("slope"))
    has_nodata = "nodata" in batch.column_names
    ndmasks = (_rows_as_arrays(batch.column("nodata"))
               if has_nodata else [None] * len(rid))
    outs = []
    for r, b, I, L, s, nd in zip(rid, band, pixels, lums, slopes, ndmasks):
        coeffs = coeffs_by_raster[r]
        res = np.asarray(fn(I, L, s, coeffs, int(b), ctx), dtype=np.float32)
        if nd is not None and nd.any():
            res = ok.propagate_ndv(res, nd)
        outs.append(res.ravel())
    return batch.append_column("corrected",
                               pa.array(outs, pa.list_(pa.float32())))


def apply_correction_ds(terrain_ds, name: str, coeffs_by_raster: dict,
                        ctx: CorrectionContext = DEFAULT_CONTEXT):
    if name not in CORRECTIONS:
        raise KeyError(f"unknown correction {name!r}; "
                       f"registry: {sorted(CORRECTIONS)}")
    fn = CORRECTIONS[name]          # resolve on the driver (see batch fn)
    return terrain_ds.map_batches(
        lambda b: apply_correction_batch(b, fn, coeffs_by_raster, ctx),
        batch_format="pyarrow",
    )
