"""Golden-oracle machinery: VALUES rendering round-trips through DuckDB,
the lazy SQL registry resolves for every raster query, and the focal
raster query and the raster<->page cell join match their SQL twins."""

import duckdb
import numpy as np


def test_values_sql_roundtrip():
    from geoflow.oracle.fixture_goldens import (golden_correlation_fit,
                                                values_sql)

    golden = golden_correlation_fit()
    back = duckdb.sql(values_sql(golden)).df()
    assert list(back.columns) == list(golden.columns)
    assert len(back) == len(golden)
    for c in golden.columns:
        g = golden[c].to_numpy()
        b = back[c].to_numpy()
        if g.dtype.kind == "f":
            assert (g == b).all()          # repr round-trip is exact
        else:
            assert (g.astype(object) == b.astype(object)).all()


def test_lazy_oracle_sql_resolves():
    from geoflow.pipelines.queries import ORACLE_SQL_LAZY, get_oracle_sql

    sqls = get_oracle_sql()
    for name in ("correction_band_stats", "rose_diagram_means",
                 "correlation_fit", "multi_criteria_scores",
                 "raster_zonal_cells"):
        assert name in ORACLE_SQL_LAZY
        assert "VALUES" in sqls[name]
        duckdb.sql(sqls[name]).df()        # parseable + executable


def test_focal_terrain_stats_matches_oracle_sql(ray_session):
    """The registry's focal query (tiled halo map over the closed-form
    DEM) equals its DuckDB twin (8-offset neighbor join over the same DEM
    written in SQL), row for row in any order."""
    from geoflow.pipelines.queries import QUERIES, get_oracle_sql

    got = QUERIES["focal_terrain_stats"]("unused").to_pandas()
    want = duckdb.sql(get_oracle_sql()["focal_terrain_stats"]).df()
    assert len(got) == 192 * 192
    cols = sorted(want.columns)
    assert sorted(got.columns) == cols
    got = got[cols].sort_values(["y", "x"], ignore_index=True)
    want = want[cols].sort_values(["y", "x"], ignore_index=True)
    assert (got.dtypes == np.int64).all() and (want.dtypes == np.int64).all()
    assert got.equals(want)


def test_raster_pages_cell_join_matches_oracle_sql(ray_session, sf_small):
    """The raster<->page cell join (the asserted raster side joined with
    the geocoded page zones by stages.zonal.join_zonal_with_pages)
    equals its DuckDB twin on sf_small, row for row in any order."""
    import pandas as pd

    from geoflow.pipelines.queries import ORACLE_SQL_LAZY, QUERIES

    name = "raster_pages_cell_join_verified"
    got = QUERIES[name](sf_small)
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_small}/documents.parquet')")
    want = con.sql(ORACLE_SQL_LAZY[name]()).df()
    assert len(got) > 0
    cols = sorted(want.columns)
    assert sorted(got.columns) == cols
    got = got[cols].sort_values(["band", "cell"], ignore_index=True)
    want = want[cols].sort_values(["band", "cell"], ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_default_ndv_lookup():
    """GDAL default-NDV table parity (osgeo_utils.gdal_calc
    DefaultNDVLookup; reference util/raster_calc.py:25,176)."""
    from geoflow.oracle.kernels import FLOAT32_NDV, default_ndv

    assert default_ndv(np.uint8) == 255
    assert default_ndv(np.int16) == -32768
    assert default_ndv(np.uint32) == 4294967293
    assert default_ndv(np.int32) == -2147483647
    assert default_ndv(np.float32) == FLOAT32_NDV == 3.402823466e38
    assert default_ndv(np.float64) == 1.7976931348623158e308


def test_golden_scores_shape():
    from geoflow.oracle.fixture_goldens import golden_multi_criteria_scores

    g = golden_multi_criteria_scores()
    assert len(g) == 11                    # all 11 corrections ranked
    assert (np.diff(g["rank"].to_numpy()) == 1).all()
