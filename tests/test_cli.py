"""Job-submit CLI entrypoint (geoflow.cli)."""

import json

from geoflow.cli import main


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "flagship_zonal_verified" in out["queries"]
    assert out["duckdb_verified"] == out["queries"]


def test_cli_query(ray_session, capsys, sf_small):
    assert main(["query", "dedup_exact_docs", "--sf-dir", sf_small]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["rows"] >= 1


def test_cli_flagship_checkpointed_resume(ray_session, capsys, tmp_path):
    from geoflow.sources.pages import write_pages_parquet

    pages_dir = str(tmp_path / "pages")
    work = str(tmp_path / "work")
    write_pages_parquet(pages_dir, 400, num_blocks=4)

    argv = ["flagship", "--pages-dir", pages_dir, "--work-dir", work,
            "--shards", "4"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    n_shards = first["stages"]["enrich"]["processed"]
    assert n_shards >= 1
    assert first["stages"]["enrich"]["skipped"] == 0

    # identical rerun: every partition is a manifest hit
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert second["stages"]["enrich"]["processed"] == 0
    assert second["stages"]["enrich"]["skipped"] == n_shards
    assert second["stages"]["zonal"]["skipped"] == 1


def test_cli_correct_geotiff_roundtrip(ray_session, capsys, tmp_path):
    """Real-raster loop: GeoTIFF in -> distributed correction -> GeoTIFF
    out, corrected pixels matching the full-array oracle."""
    import numpy as np
    from geoflow.oracle import kernels as ok
    from geoflow.sources.geotiff import read_geotiff, write_geotiff
    from geoflow.sources.tiles import synth_dem

    dem = synth_dem(96, 96, seed=3)
    src = str(tmp_path / "dem.tif")
    out_dir = str(tmp_path / "corr")
    write_geotiff(src, dem, pixel_scale=(1.0, 1.0), tiepoint=(5.0, 50.0))
    assert main(["correct", "--raster", src, "--algorithm", "COSINE-T",
                 "--output", out_dir]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["geotiff"].endswith("corrected.tif")
    bands, meta = read_geotiff(res["geotiff"])
    assert bands.shape == (1, 96, 96)
    exp, _ = ok.correct_raster("COSINE-T", dem[None], dem)
    assert np.allclose(bands[0], np.nan_to_num(exp[0], nan=0.0),
                       atol=1e-4, equal_nan=True)


def test_cli_report_on_zoned_tiles(ray_session, capsys, tmp_path):
    """``report`` over a zoned tile table ranks per zone: the rank sheet
    carries a ``zone`` column beside correction and score."""
    import re
    import zipfile

    import pyarrow.parquet as pq
    from geoflow.oracle.kernels import CORRECTION_NAMES
    from geoflow.sources import tiles as tsrc

    dem = tsrc.synth_dem(64, 64, seed=4)
    bands = tsrc.synth_bands(dem, 1, seed=4)
    zones = tsrc.synth_zones(64, 64, seed=4)
    tiles_dir = tmp_path / "tiles"
    tiles_dir.mkdir()
    pq.write_table(tsrc.raster_to_tile_table(bands, dem, tile=32, zones=zones),
                   str(tiles_dir / "part-0.parquet"))
    out_dir = str(tmp_path / "rep")
    assert main(["report", "--tiles-dir", str(tiles_dir),
                 "--out-dir", out_dir]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["files"]["xlsx"] == 1
    with zipfile.ZipFile(f"{out_dir}/rank.xlsx") as z:
        sheet = z.read("xl/worksheets/sheet1.xml").decode()
    header = re.search(r'<row r="1">(.*?)</row>', sheet).group(1)
    assert re.findall(r"<t>(.*?)</t>", header) == ["zone", "correction",
                                                    "score"]
    n_zones = len(set(zones.ravel().tolist()))
    assert sheet.count("<row ") == 1 + n_zones * len(CORRECTION_NAMES)
