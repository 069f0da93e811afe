"""Real-raster ingestion seam: .asc reader + reference-fixture parity.

The reference ships exactly one raster fixture —
``/root/reference/test/tenbytenraster.asc`` (10x10 grid, rows 0..9,
DX=DY=10, NODATA -9999). Ingesting it through the engine's tile table
and deriving slope/aspect distributed gives a parity anchor with
ANALYTICALLY known values: every row is the ramp 0..9 eastward, so ZT
slope is atan(2/DX / 2) = atan(0.1) everywhere (COMPUTE_EDGES linear
extrapolation preserves the ramp at the borders) and aspect is 270
degrees (downslope due west) everywhere.
"""

import math
import os

import numpy as np
import pytest

from geoflow.sources.tiles import (asc_to_tile_table, read_asc_grid,
                                   tile_rows_to_raster)

_REF_ASC = "/root/reference/test/tenbytenraster.asc"


def test_read_asc_grid_headers_and_values(tmp_path):
    p = tmp_path / "g.asc"
    p.write_text("NCOLS 3\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\n"
                 "CELLSIZE 5\nNODATA_VALUE -9999\n"
                 "1 2 -9999\n4 5 6\n")
    arr, meta = read_asc_grid(str(p))
    assert arr.shape == (2, 3)
    assert arr[0, 2] == -9999
    assert meta["ewres"] == 5.0 and meta["nsres"] == -5.0
    assert meta["nodata_value"] == -9999.0


@pytest.mark.skipif(not os.path.exists(_REF_ASC),
                    reason="reference fixture not present")
def test_tenbytenraster_parity(ray_session):
    import ray.data as rd
    from geoflow.oracle import kernels as ok
    from geoflow.stages.terrain import derive_terrain

    table, meta = asc_to_tile_table(_REF_ASC, tile=4)
    arr, _ = read_asc_grid(_REF_ASC)
    assert meta["nodata_value"] == -9999.0
    assert not (arr == -9999).any()      # fixture has no NDV pixels
    assert table.num_rows == 9           # ceil(10/4)^2 tiles x 1 band

    out = derive_terrain(rd.from_arrow(table),
                         ewres=meta["ewres"], nsres=meta["nsres"]).to_pandas()
    slope = tile_rows_to_raster(out, "slope", 1, 10, 10)[0]
    aspect = tile_rows_to_raster(out, "aspect", 1, 10, 10)[0]

    # tiled/halo result == full-array oracle, bit for bit
    exp_slope = np.deg2rad(
        ok.zt_slope_degrees(arr, ewres=meta["ewres"], nsres=meta["nsres"]))
    exp_aspect = np.deg2rad(ok.zt_aspect_degrees(arr))
    assert (slope == exp_slope.astype(np.float32)).all()
    assert (aspect == exp_aspect.astype(np.float32)).all()

    # pinned analytic goldens: uniform eastward ramp 0..9 at 10m pixels
    assert np.allclose(slope, math.atan(0.1), atol=1e-6)
    assert np.allclose(np.rad2deg(aspect), 270.0, atol=1e-4)


def test_correct_cli_on_reference_degenerate_raster(ray_session, tmp_path):
    """The reference's own 10x10 .asc grid has flat terrain -> constant
    luminance -> a rank-deficient OLS fit. The fit must fall back to the
    minimum-norm solution (slope 0, intercept mean) instead of dividing
    by zero, and the correction must complete end to end."""
    import ray.data as rd
    from geoflow.pipelines.correction import run_correction
    from geoflow.sources.tiles import asc_to_tile_table

    # the reference grid as documented above, written locally
    p = tmp_path / "tenbytenraster.asc"
    p.write_text("NCOLS 10\nNROWS 10\nXLLCORNER 0\nYLLCORNER 0\n"
                 "DX 10\nDY 10\nNODATA_VALUE -9999\n"
                 + "0 1 2 3 4 5 6 7 8 9\n" * 10)
    tbl, _meta = asc_to_tile_table(str(p))
    corrected, coeffs = run_correction(rd.from_arrow(tbl), "C-correction")
    out = corrected.to_pandas()
    assert len(out) >= 1
    band0 = next(iter(coeffs.values()))["bands"][0]
    assert band0["ols_slope"] == 0.0
    assert band0["c"] == 0.0
    assert np.isfinite(band0["ols_intercept"])
