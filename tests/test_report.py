"""Report sinks: SVG rose, PNG correlation heatmap, minimal xlsx."""

import zipfile

import numpy as np
import pandas as pd

from geoflow.pipelines import report


def _rose_df():
    rows = []
    for band in (0, 1):
        for s in range(3):
            for a in range(0, 36, 3):
                rows.append({"band": band, "slope_bin": s, "aspect_bin": a,
                             "n_pixels": 10,
                             "mean_value": 50 + 10 * s + a * 0.5})
    return pd.DataFrame(rows)


def test_rose_svg(tmp_path):
    p = report.render_rose_svg(_rose_df(), 0, str(tmp_path / "rose.svg"))
    svg = open(p).read()
    assert svg.startswith("<svg")
    assert svg.count("<path") == 36     # one wedge per populated bin
    assert "band 0 rose diagram" in svg


def test_correlation_png(tmp_path, read_gray_png):
    rng = np.random.default_rng(5)
    hist = rng.integers(0, 500, size=(100, 100)).astype(np.int64)
    p = report.render_correlation_png(hist.ravel(),
                                      str(tmp_path / "corr.png"))
    img = read_gray_png(open(p, "rb").read())
    assert img.shape == (100, 100)
    # densest cell renders darkest, after the 180-degree rotation
    dens = np.unravel_index(np.argmax(hist), hist.shape)
    rot = (99 - dens[0], 99 - dens[1])
    assert img[rot[0], rot[1]] == img.min()


def test_xlsx_roundtrip(tmp_path):
    df = pd.DataFrame({"correction": ["COSINE-T", "VECA"],
                       "score": [1.25, -0.5], "rank": [1, 2]})
    p = report.write_xlsx(str(tmp_path / "r.xlsx"), {"scores": df})
    with zipfile.ZipFile(p) as z:
        names = set(z.namelist())
        assert "xl/workbook.xml" in names
        sheet = z.read("xl/worksheets/sheet1.xml").decode()
    assert "COSINE-T" in sheet and "1.25" in sheet
    # duckdb ships an excel reader — use it as an independent validator
    try:
        import duckdb
        got = duckdb.sql(f"SELECT * FROM read_xlsx('{p}')").df()
        assert list(got.columns) == ["correction", "score", "rank"]
        assert got["score"].tolist() == [1.25, -0.5]
    except Exception:
        pass   # extension unavailable offline — zip structure checked above


def test_full_report(tmp_path):
    corr = pd.DataFrame({
        "band": [0],
        "hist": [np.random.default_rng(1).integers(
            0, 9, size=10000).astype(np.int64)],
    })
    rank = pd.DataFrame({"correction": ["A", "B"], "score": [2.0, 1.0],
                         "rank": [1, 2]})
    out = report.render_full_report(str(tmp_path / "rep"), _rose_df(),
                                    corr, rank)
    assert len(out["rose_svg"]) == 2
    assert len(out["correlation_png"]) == 1
    assert len(out["xlsx"]) == 1


def test_correlation_geotiff_roundtrip(tmp_path):
    """Histogram -> GeoTIFF export matches the reference's raster write
    (correlation_eval.py:56-70 writes histogram[::-1, :]); reading the
    file back through the engine's own GeoTIFF reader recovers the
    flipped matrix exactly."""
    from geoflow.pipelines.report import write_histogram_geotiff
    from geoflow.sources.geotiff import read_geotiff

    rng = np.random.default_rng(6)
    hist = rng.integers(0, 500, size=(100, 100)).astype(np.int64)
    p = write_histogram_geotiff(hist, str(tmp_path / "corr.tif"))
    bands, meta = read_geotiff(p)
    assert bands.shape == (1, 100, 100)
    assert np.array_equal(bands[0], hist[::-1, :].astype(np.float32))
