"""User-extension surface: custom corrections and metrics flow through
the distributed pipelines (reference plugin-API parity, SURVEY.md 2.7)."""

import numpy as np
import pytest

import geoflow.registry as reg
from geoflow.context import CorrectionContext
from geoflow.sources import tiles as tsrc

CTX = CorrectionContext()


@pytest.fixture()
def tile_ds(ray_session):
    import ray.data as rd
    dem = tsrc.synth_dem(64, 64, seed=2)
    bands = tsrc.synth_bands(dem, 2, seed=2, ctx=CTX)
    return rd.from_arrow(tsrc.raster_to_tile_table(bands, dem, tile=32))


def test_custom_correction_runs_distributed(tile_ds):
    from geoflow.pipelines.correction import run_correction

    name = "GAIN2-TEST"

    @reg.register_correction(name)
    def gain2(I, L, slope_rad, coeffs, band_idx, ctx):
        return (I * np.float32(2.0)).astype(np.float32)

    try:
        out, _ = run_correction(tile_ds, name, CTX)
        df = out.to_pandas()
        for row in df.itertuples(index=False):
            np.testing.assert_array_equal(
                np.asarray(row.corrected, np.float32),
                np.asarray(row.pixels, np.float32) * np.float32(2.0))
    finally:
        del reg.CORRECTIONS[name]


def test_custom_metric_flows_into_rank(tile_ds):
    from geoflow.pipelines.rank import rank_corrections

    mid = "range_test"

    @reg.register_metric(mid, is_reduction=True, weight=0.5)
    def _range(values, orig_min, orig_max, luminance):
        return float(np.max(values) - np.min(values))

    try:
        scores, metrics, normalized = rank_corrections(
            tile_ds, ["COSINE-T", "SCS"], CTX)
        assert mid in metrics.columns
        assert mid in normalized.columns
        assert (metrics[mid] > 0).all()
    finally:
        del reg.METRICS[mid]


def test_unknown_correction_message(tile_ds):
    from geoflow.stages.corrections import apply_correction_ds
    with pytest.raises(KeyError, match="registry"):
        apply_correction_ds(tile_ds, "NOPE", {})


def test_replaced_builtin_metric_is_honoured(tile_ds):
    """A re-registered built-in id is evaluated with the new function,
    not the shared-summary path; restoring the built-in restores it."""
    from geoflow.pipelines.rank import compute_metrics_table

    before = compute_metrics_table(tile_ds, ["SCS"], CTX)
    builtin = reg.METRICS["std_reduction"]

    @reg.register_metric("std_reduction")
    def _size(values, orig_min, orig_max, luminance):
        return values.size + 0.25

    try:
        replaced = compute_metrics_table(tile_ds, ["SCS"], CTX)
    finally:
        reg.METRICS["std_reduction"] = builtin
    assert list(replaced.columns) == list(before.columns)
    assert (replaced["std_reduction"] == 64 * 64 + 0.25).all()
    others = before.columns.drop("std_reduction")
    assert replaced[others].equals(before[others])
    assert compute_metrics_table(tile_ds, ["SCS"], CTX).equals(before)


def test_rank_rejects_multi_raster_input(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from geoflow.pipelines.rank import compute_metrics_table

    parts = []
    for rid, seed in (("north", 3), ("south", 4)):
        dem = tsrc.synth_dem(32, 32, seed=seed)
        bands = tsrc.synth_bands(dem, 1, seed=seed, ctx=CTX)
        parts.append(tsrc.raster_to_tile_table(bands, dem, raster_id=rid,
                                               tile=16))
    ds = rd.from_arrow(pa.concat_tables(parts))
    with pytest.raises(ValueError, match=r"\['north', 'south'\]"):
        compute_metrics_table(ds, ["SCS"], CTX)


# The query registry's keep list: the pipelines the north star names,
# plus focal_terrain_stats (terrain analysis beside the reference's).
KEEP = {
    "flagship_zonal_verified", "dedup_exact_docs", "url_dedup_pages",
    "crawl_frontier_docs", "warc_roundtrip_docs", "correction_band_stats",
    "rose_diagram_means", "correlation_fit", "multi_criteria_scores",
    "skyline_docs", "raster_zonal_cells", "raster_pages_cell_join_verified",
    "rasterized_polygons", "pip_polygon_docs", "polygon_metrics",
    "knn_haversine_docs", "nearest_site_docs", "idw_interpolation_docs",
    "zonal_salted_docs", "zonal_split_docs", "geo_zonal_docs",
    "top_doc_cells", "geohash_cells", "hilbert_cells",
    "bbox_cover_scan_docs", "bbox_join_docs", "focal_terrain_stats",
}


def test_driver_window_slots_carry_oracles():
    """The correctness driver hash-checks a 50-query prefix of
    ``__ray_entry__.queries()``; every slot of it must carry an oracle.
    ``queries()`` is the registry in registration order, and the
    registry is exactly the keep list."""
    import importlib.util
    import pathlib

    from geoflow.pipelines.queries import ORACLE_SQL, ORACLE_SQL_LAZY, QUERIES

    path = pathlib.Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    spec = importlib.util.spec_from_file_location("_entry", path)
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    names = list(entry.queries())
    assert names == list(QUERIES)
    assert set(QUERIES) == KEEP
    missing = [n for n in names
               if n not in ORACLE_SQL and n not in ORACLE_SQL_LAZY]
    assert not missing, missing
