"""Evaluation-layer parity: metrics / rank / rose / histogram vs oracle."""

import warnings

import numpy as np
import pandas as pd
import pytest

from geoflow.context import CorrectionContext
from geoflow.oracle import kernels as ok
from geoflow.oracle.eval import oracle_merge_rank, oracle_metrics_table
from geoflow.pipelines.rank import (combine_vs_original, normalize_vs_original,
                                    rank_corrections)
from geoflow.sources import tiles as tsrc
from geoflow.stages.histogram import correlation_eval_ds
from geoflow.stages.metrics import METRIC_IDS, ORIG_KEY
from geoflow.stages.rose import densify, group_by_range, rose_diagram_ds
from geoflow.stages.terrain import derive_terrain

CTX = CorrectionContext()
H = W = 128
NB = 2
NAMES = ["COSINE-T", "C-correction", "SCS", "Minnaert", "VECA"]


@pytest.fixture(scope="module")
def fixture_raster():
    dem = tsrc.synth_dem(H, W, seed=7)
    bands = tsrc.synth_bands(dem, NB, seed=7, ctx=CTX)
    return dem, bands


@pytest.fixture(scope="module")
def tile_ds(fixture_raster, ray_session):
    import ray.data as rd
    dem, bands = fixture_raster
    return rd.from_arrow(tsrc.raster_to_tile_table(bands, dem, tile=48))


def test_rank_matches_oracle(tile_ds, fixture_raster):
    dem, bands = fixture_raster
    scores, metrics, normalized = rank_corrections(tile_ds, NAMES, CTX)
    exp_metrics = oracle_metrics_table(bands, dem, NAMES, CTX)

    # metric values: same formulas over differently-ordered pixel streams
    got = metrics.sort_index()
    exp = exp_metrics.sort_index()
    assert list(got.index) == list(exp.index)
    for m in METRIC_IDS:
        # r^2 suffers catastrophic cancellation for near-zero correlations;
        # engine and oracle differ only in pixel summation order.
        atol = 1e-6 if m == "determination_coefficient" else 1e-9
        np.testing.assert_allclose(got[m], exp[m], rtol=1e-5, atol=atol,
                                   err_msg=m)

    # normalize/rank on the ENGINE metric table must equal the oracle's
    # reference-idiom pandas math exactly
    exp_scores, exp_norm = oracle_merge_rank(got)
    eng_norm = normalized.sort_index()
    exp_norm = exp_norm.sort_index()
    assert np.allclose(eng_norm.fillna(-999), exp_norm.fillna(-999), rtol=1e-12)
    assert list(scores.index) == list(exp_scores.index)
    np.testing.assert_allclose(scores["Score"], exp_scores["Score"], rtol=1e-12)


def test_outlier_counts_exact(tile_ds, fixture_raster):
    dem, bands = fixture_raster
    _, metrics, _ = rank_corrections(tile_ds, ["SCS"], CTX)
    exp = oracle_metrics_table(bands, dem, ["SCS"], CTX)
    for m in ("outliers_threshold", "outliers_iqr"):
        assert (metrics[m].sort_index() == exp[m].sort_index()).all()
    # original has zero outliers vs its own min/max by construction
    assert (metrics.xs(ORIG_KEY)["outliers_threshold"] == 0).all()


def test_oracle_metrics_independent_of_registry(fixture_raster,
                                                monkeypatch):
    """The oracle scores with its own metric code: a wrong registry metric
    changes the engine's table but not the oracle's."""
    import geoflow.registry as reg

    dem, bands = fixture_raster
    before = oracle_metrics_table(bands, dem, ["SCS"], CTX)
    for mid in list(reg.METRICS):
        monkeypatch.setitem(reg.METRICS, mid, reg.MetricSpec(
            lambda values, orig_min, orig_max, luminance: -1.0))
    after = oracle_metrics_table(bands, dem, ["SCS"], CTX)
    pd.testing.assert_frame_equal(before, after, check_exact=True)
    assert (after != -1.0).all().all()


@pytest.mark.parametrize("blocks", [1, 6])
def test_rose_diagram_matches_fullarray(tile_ds, fixture_raster, blocks):
    dem, bands = fixture_raster
    got = rose_diagram_ds(tile_ds.repartition(blocks)).to_pandas()
    # full-array oracle (rose_diagram_eval.py:197-233 semantics)
    slope_deg = ok.zt_slope_degrees(dem).ravel()
    aspect_deg = ok.zt_aspect_degrees(dem).ravel()
    sbin = group_by_range(slope_deg, 3, 90.0)
    abin = group_by_range(aspect_deg, 36, 360.0)
    take = (slope_deg <= 90.0) & (aspect_deg <= 360.0)
    for b in range(NB):
        vals = bands[b].ravel()[take]
        df = pd.DataFrame({"s": sbin[take], "a": abin[take], "v": vals})
        exp = df.groupby(["s", "a"])["v"].mean()
        dense_got = densify(got, b)
        dense_exp = np.zeros_like(dense_got)
        for (s, a), v in exp.items():
            dense_exp[s, a] = v
        np.testing.assert_allclose(dense_got, dense_exp, rtol=1e-6)


@pytest.mark.parametrize("blocks", [1, 6])
def test_correlation_histogram_matches_fullarray(tile_ds, fixture_raster,
                                                 blocks):
    dem, bands = fixture_raster
    terrain = derive_terrain(tile_ds.repartition(blocks), CTX)
    got = correlation_eval_ds(terrain, bins=50).to_pandas()
    slope = ok.zt_slope_radians(dem)
    aspect = ok.zt_aspect_radians(dem)
    lum = ok.luminance(slope, aspect, CTX).astype(np.float32)
    for b in range(NB):
        mn, mx = float(bands[b].min()), float(bands[b].max())
        hist, _, _ = np.histogram2d(
            lum.ravel().astype(np.float64), bands[b].ravel().astype(np.float64),
            bins=50, range=[[0.0, 1.0], [mn, mx]])
        expected = hist.T.ravel().astype(np.int64)
        row = got[got["band"] == b].iloc[0]
        assert np.array_equal(np.asarray(row["hist"]), expected)
        i, s = np.polynomial.polynomial.polyfit(
            lum.ravel().astype(np.float64), bands[b].ravel().astype(np.float64), 1)
        assert row["intercept"] == pytest.approx(i, rel=1e-9)
        assert row["slope"] == pytest.approx(s, rel=1e-9)


def test_correlation_eval_holds_for_every_input(tile_ds, ray_session):
    """The fit does not depend on the blocking or the row order, a flat
    DEM (constant luminance) gets polyfit's finite answer, and tiles from
    two rasters are refused."""
    import pyarrow as pa
    import ray.data as rd

    def fits(ds):
        out = correlation_eval_ds(derive_terrain(ds, CTX), bins=20)
        return out.to_pandas().sort_values("band")[["intercept", "slope"]]

    base = fits(tile_ds.repartition(1))
    for ds in (tile_ds.repartition(4), tile_ds.repartition(8),
               tile_ds.random_shuffle(seed=3).repartition(4)):
        assert fits(ds).equals(base)

    dem = np.full((H, W), 300.0, np.float32)
    bands = tsrc.synth_bands(dem, NB, seed=7, ctx=CTX)
    got = fits(rd.from_arrow(tsrc.raster_to_tile_table(bands, dem, tile=48)))
    lum = ok.luminance(ok.zt_slope_radians(dem), ok.zt_aspect_radians(dem),
                       CTX).astype(np.float32).ravel().astype(np.float64)
    for b in range(NB):
        with warnings.catch_warnings():     # polyfit: RankWarning
            warnings.simplefilter("ignore")
            i, s = np.polynomial.polynomial.polyfit(
                lum, bands[b].ravel().astype(np.float64), 1)
        row = got.iloc[b]
        assert np.isfinite(row).all()
        assert row["intercept"] == pytest.approx(i, rel=1e-9)
        assert row["slope"] == pytest.approx(s, rel=1e-9)

    parts = []
    for rid, seed in (("north", 3), ("south", 4)):
        dem = tsrc.synth_dem(32, 32, seed=seed)
        parts.append(tsrc.raster_to_tile_table(
            tsrc.synth_bands(dem, 1, seed=seed, ctx=CTX), dem,
            raster_id=rid, tile=16))
    with pytest.raises(ValueError, match=r"\['north', 'south'\]"):
        fits(rd.from_arrow(pa.concat_tables(parts)))


def test_normalize_handcrafted():
    """Tiny handcrafted metric table: verify engine normalize == oracle
    on a case with good/bad/equal branches all present."""
    idx = pd.MultiIndex.from_product(
        [[ORIG_KEY, "A", "B"], [0]], names=["correction", "band"])
    metrics = pd.DataFrame(
        {m: [1.0, 2.0, 0.5] for m in METRIC_IDS}, index=idx)
    metrics["outliers_threshold"] = [0.0, 0.0, 3.0]  # equal branch for A
    combined = combine_vs_original(metrics)
    got = normalize_vs_original(combined, metrics.xs(ORIG_KEY))
    _, exp = oracle_merge_rank(metrics)
    assert np.allclose(got.fillna(-999).sort_index(),
                       exp.fillna(-999).sort_index(), rtol=1e-12)
