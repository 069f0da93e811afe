import numpy as np
import pandas as pd
import pytest

from geoflow.stages import cells as cellmod
from geoflow.stages.zonal import (RasterGeo, join_zonal_with_pages,
                                  raster_zonal_stats)
from geoflow.sources import tiles as tsrc


@pytest.fixture(scope="module")
def tile_ds(ray_session):
    import ray.data as rd
    dem = tsrc.synth_dem(128, 128, seed=3)
    bands = tsrc.synth_bands(dem, 2, seed=3)
    return rd.from_arrow(tsrc.raster_to_tile_table(bands, dem, tile=32)), bands


@pytest.mark.parametrize("blocks", [1, 6])
def test_raster_zonal_matches_bruteforce(tile_ds, blocks):
    ds, bands = tile_ds
    geo = RasterGeo(lat0=50.0, lon0=10.0, dlat=-0.02, dlon=0.02)
    got = raster_zonal_stats(ds.repartition(blocks), geo, res=7,
                             tile_size=32).to_pandas()

    # brute force: per-pixel cells over the full arrays
    h, w = bands.shape[1:]
    rows = 50.0 + np.arange(h) * -0.02
    cols = 10.0 + np.arange(w) * 0.02
    lat = np.repeat(rows, w)
    lon = np.tile(cols, h)
    cell = cellmod.cell_id(lat, lon, 7).astype(np.int64)
    for b in range(2):
        df = pd.DataFrame({"cell": cell, "v": bands[b].ravel().astype(np.float64)})
        exp = df.groupby("cell")["v"].agg(["sum", "size", "min", "max", "mean"])
        sub = got[got["band"] == b].set_index("cell").sort_index()
        assert list(sub.index) == list(exp.index)
        assert np.array_equal(sub["n_pixels"].to_numpy(), exp["size"].to_numpy())
        np.testing.assert_allclose(sub["mean_value"], exp["mean"], rtol=1e-12)
        np.testing.assert_allclose(sub["value_min"], exp["min"], rtol=0)
        np.testing.assert_allclose(sub["value_max"], exp["max"], rtol=0)


def test_join_zonal_with_pages(tile_ds):
    ds, _ = tile_ds
    geo = RasterGeo(lat0=42.0, lon0=-74.5, dlat=-0.02, dlon=0.02)
    rz = raster_zonal_stats(ds, geo, res=7, tile_size=32).to_pandas()
    # fake page zonal table covering the same area at res 5
    zones = np.unique(cellmod.cell_parent(
        rz["cell"].to_numpy().astype(np.uint64), 5)).astype(np.int64)
    pz = pd.DataFrame({"zone": zones, "n_pages": np.arange(len(zones)) + 1})
    j = join_zonal_with_pages(rz, pz, raster_res=7, page_res=5)
    assert len(j) == len(rz)           # every raster cell finds its zone
    assert (j["n_pages"] >= 1).all()
