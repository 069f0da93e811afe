"""Zone-aware (classification-map) evaluation parity."""

import numpy as np
import pandas as pd
import pytest

from geoflow.context import CorrectionContext
from geoflow.oracle.eval import oracle_merge_rank, oracle_metrics_table
from geoflow.pipelines.rank import (compute_metrics_table, export_rank_report,
                                    rank_corrections)
from geoflow.sources import tiles as tsrc
from geoflow.stages.metrics import METRIC_IDS

CTX = CorrectionContext()
H = W = 96
NAMES = ["COSINE-T", "SCS", "Minnaert"]


@pytest.fixture(scope="module")
def zoned_fixture(ray_session):
    import ray.data as rd
    dem = tsrc.synth_dem(H, W, seed=5)
    bands = tsrc.synth_bands(dem, 2, seed=5, ctx=CTX)
    zones = tsrc.synth_zones(H, W, seed=5)
    ds = rd.from_arrow(tsrc.raster_to_tile_table(bands, dem, tile=32,
                                                 zones=zones))
    return ds, dem, bands, zones


def test_zonal_metrics_match_oracle(zoned_fixture):
    ds, dem, bands, zones = zoned_fixture
    got = compute_metrics_table(ds, NAMES, CTX).sort_index()
    exp = oracle_metrics_table(bands, dem, NAMES, CTX, zones=zones).sort_index()
    assert list(got.index) == list(exp.index)
    zone_vals = got.index.get_level_values(2).unique()
    assert set(zone_vals) == set(np.unique(zones))  # incl. rare zone 9
    for m in METRIC_IDS:
        atol = 1e-5 if m == "determination_coefficient" else 1e-9
        np.testing.assert_allclose(got[m], exp[m], rtol=1e-5, atol=atol,
                                   err_msg=m)


@pytest.mark.parametrize("zoned", [False, True])
def test_metrics_table_block_count_and_probe_form(zoned_fixture, zoned):
    """The engine's band tasks give the same table at 1, 4 and 8 blocks
    with the tile rows shuffled, whole-band and zoned, and the same table
    as the driver-side evaluator on pandas band groups of the wide table
    (the kernel probe's form)."""
    import pyarrow as pa
    import ray

    from geoflow.pipelines.correction import prepare_terrain
    from geoflow.pipelines.rank import _col, apply_all_wide_batch
    from geoflow.registry import CORRECTIONS
    from geoflow.stages.corrections import fit_corrections
    from geoflow.stages.metrics import metrics_for_band_group

    ds = zoned_fixture[0]
    if not zoned:
        ds = ds.drop_columns(["zone_ids"])
    tables = [compute_metrics_table(ds, NAMES, CTX)] + [
        compute_metrics_table(ds.random_shuffle(seed=n).repartition(n),
                              NAMES, CTX) for n in (4, 8)]
    assert all(t.equals(tables[0]) for t in tables[1:])

    terrain = prepare_terrain(ds, CTX)
    coeffs = fit_corrections(terrain, CTX)
    fns = [(n, CORRECTIONS[n]) for n in NAMES]
    table = pa.concat_tables(ray.get(terrain.to_arrow_refs()))
    wide = apply_all_wide_batch(table, fns, coeffs, CTX).to_pandas()
    evaluate = metrics_for_band_group([_col(n) for n in NAMES])
    probe = pd.concat([evaluate(g) for _, g in wide.groupby("band")])
    probe["correction"] = probe["correction"].replace(
        {_col(n): n for n in NAMES})
    keys = ["correction", "band"] + (["zone"] if zoned else [])
    assert probe.set_index(keys).sort_index().equals(tables[0])


def test_zonal_rank_per_zone(zoned_fixture):
    ds, dem, bands, zones = zoned_fixture
    ranks, _, _ = rank_corrections(ds, NAMES, CTX)
    assert list(ranks.index.names) == ["zone", "correction"]
    assert set(ranks.index.unique(level="zone")) == set(np.unique(zones))
    exp_metrics = oracle_metrics_table(bands, dem, NAMES, CTX, zones=zones)
    for zone in ranks.index.unique(level="zone"):
        scores = ranks.xs(zone)
        sub = exp_metrics.xs(zone, level=2)
        exp_scores, _ = oracle_merge_rank(sub)
        assert list(scores.index) == list(exp_scores.index), f"zone {zone}"
        np.testing.assert_allclose(scores["Score"], exp_scores["Score"],
                                   rtol=1e-6)


def test_export_rank_report(zoned_fixture, tmp_path):
    ds, *_ = zoned_fixture
    scores, metrics, normalized = rank_corrections(ds, NAMES, CTX)
    paths = export_rank_report(scores, metrics, normalized, str(tmp_path))
    import pandas as pd
    for p in paths:
        if p.endswith(".csv"):
            assert len(pd.read_csv(p)) > 0
    import zipfile
    xlsx = [p for p in paths if p.endswith(".xlsx")]
    assert len(xlsx) == 1
    with zipfile.ZipFile(xlsx[0]) as z:
        assert "xl/worksheets/sheet1.xml" in z.namelist()
    back = pd.read_parquet(tmp_path / "scores.parquet")
    assert list(back.columns) == ["zone", "correction", "Score"]
    assert list(zip(back["zone"], back["correction"])) == list(scores.index)


def test_fit_coefficients_repeat_per_blocking(zoned_fixture):
    """The fit's coefficients are ``==`` at 1, 4 and 8 blocks and in a
    shuffled tile order (the merge adds the per-tile moment rows in an
    order fixed by their values), and ``==`` to the fit each rank band
    task makes from its own tiles, luminance mean included."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from geoflow.pipelines.correction import prepare_terrain
    from geoflow.pipelines.rank import fit_band
    from geoflow.stages.corrections import fit_corrections

    ds = zoned_fixture[0]
    fits = [fit_corrections(prepare_terrain(ds.repartition(n), CTX), CTX)
            for n in (1, 4, 8)]
    fits.append(fit_corrections(
        prepare_terrain(ds.random_shuffle(seed=3).repartition(4), CTX), CTX))
    assert all(f == fits[0] for f in fits[1:])

    terrain = prepare_terrain(ds, CTX)
    table = pa.concat_tables(ray.get(terrain.to_arrow_refs()))
    (coeffs,) = fits[0].values()
    bands = sorted(set(table.column("band").to_pylist()))
    assert sorted(coeffs["bands"]) == bands
    for b in bands:
        group = table.filter(pc.equal(table.column("band"), b))
        (own,) = fit_band(group, CTX).values()
        assert own["bands"] == {b: coeffs["bands"][b]}, b
        assert own["luminance_mean"] == coeffs["luminance_mean"], b
        assert own["h0"] == coeffs["h0"]


def test_metrics_table_runs_one_execution(zoned_fixture, monkeypatch):
    """``compute_metrics_table`` is one lazy pipeline: read, terrain,
    band shuffle and band tasks run in one Ray Data execution."""
    from ray.data._internal.execution import streaming_executor as se

    runs = []
    execute = se.StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", counted)
    compute_metrics_table(zoned_fixture[0].repartition(4), NAMES, CTX)
    assert len(runs) == 1
