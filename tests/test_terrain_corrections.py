"""Parity tests: distributed tiled execution vs the transcription oracle.

The oracle (geoflow.oracle.kernels) is the single-process numpy truth
transcribed from the reference; the engine must reproduce it through
tiling + halos + distributed fits (SURVEY.md section 5).
"""

import numpy as np
import pytest

from geoflow.context import CorrectionContext
from geoflow.oracle import kernels as ok
from geoflow.pipelines.correction import run_all_corrections, run_correction
from geoflow.sources import tiles as tsrc
from geoflow.stages.corrections import fit_corrections
from geoflow.stages.terrain import derive_terrain

CTX = CorrectionContext()
H = W = 160
NB = 3


@pytest.fixture(scope="module")
def fixture_raster():
    dem = tsrc.synth_dem(H, W, seed=42)
    bands = tsrc.synth_bands(dem, NB, seed=42, ctx=CTX)
    nodata = tsrc.synth_nodata(dem.shape, seed=42)
    return dem, bands, nodata


@pytest.fixture(scope="module")
def tile_ds(fixture_raster, ray_session):
    import ray.data as rd
    dem, bands, nodata = fixture_raster
    table = tsrc.raster_to_tile_table(bands, dem, tile=48, nodata=nodata)
    return rd.from_arrow(table)


def _reassemble(df, column, n_bands=NB, tile=48):
    out = np.full((n_bands, H, W), np.nan, dtype=np.float32)
    for row in df.itertuples(index=False):
        y0, x0 = row.tile_y * tile, row.tile_x * tile
        vals = np.asarray(getattr(row, column), dtype=np.float32)
        out[row.band, y0:y0 + row.height, x0:x0 + row.width] = \
            vals.reshape(row.height, row.width)
    assert not np.isnan(out).any()
    return out


def test_terrain_tiled_equals_oracle(tile_ds, fixture_raster):
    dem, _, _ = fixture_raster
    df = derive_terrain(tile_ds, CTX).to_pandas()
    got_slope = _reassemble(df, "slope")[0]
    got_aspect = _reassemble(df, "aspect")[0]
    got_lum = _reassemble(df, "luminance")[0]
    exp_slope = ok.zt_slope_radians(dem)
    exp_aspect = ok.zt_aspect_radians(dem)
    exp_lum = ok.luminance(exp_slope, exp_aspect, CTX).astype(np.float32)
    # bit parity: same formulas, halo must exactly reproduce full-array edges
    assert np.array_equal(got_slope, exp_slope)
    assert np.array_equal(got_aspect, exp_aspect)
    assert np.array_equal(got_lum, exp_lum)


def test_fit_parity(tile_ds, fixture_raster):
    dem, bands, _ = fixture_raster
    terrain = derive_terrain(tile_ds, CTX)
    got = fit_corrections(terrain, CTX)["synt0"]
    slope = ok.zt_slope_radians(dem)
    aspect = ok.zt_aspect_radians(dem)
    lum = ok.luminance(slope, aspect, CTX).astype(np.float32)
    exp = ok.fit_coefficients(bands, lum, slope, CTX)

    # float64 closed form vs float64 polyfit on the same float32 values
    lum64 = lum.astype(np.float64).ravel()
    for b in range(NB):
        bb = got["bands"][b]
        band64 = bands[b].astype(np.float64).ravel()
        mask = bands[b].ravel() > CTX.pixel_ignore_threshold
        i64, s64 = np.polynomial.polynomial.polyfit(lum64[mask], band64[mask], 1)
        assert bb["ols_intercept"] == pytest.approx(i64, rel=1e-9)
        assert bb["ols_slope"] == pytest.approx(s64, rel=1e-9)
        # vs the literal float32 oracle (reference runs float32 lstsq)
        assert bb["ols_intercept"] == pytest.approx(exp["bands"][b]["ols_intercept"], rel=1e-3)
        assert bb["ols_slope"] == pytest.approx(exp["bands"][b]["ols_slope"], rel=1e-3)
        assert bb["minnaert_k"] == pytest.approx(exp["bands"][b]["minnaert_k"], rel=1e-3)
        assert bb["band_mean"] == pytest.approx(exp["bands"][b]["band_mean"], rel=1e-5)
    assert got["luminance_mean"] == pytest.approx(exp["luminance_mean"], rel=1e-5)
    assert got["h0"] == exp["h0"]


@pytest.mark.parametrize("name", ok.CORRECTION_NAMES)
def test_apply_bitwise_with_oracle_coeffs(tile_ds, fixture_raster, name):
    """Engine tiles == oracle full-array bit-for-bit given the same coeffs."""
    dem, bands, nodata = fixture_raster
    slope = ok.zt_slope_radians(dem)
    aspect = ok.zt_aspect_radians(dem)
    lum = ok.luminance(slope, aspect, CTX).astype(np.float32)
    coeffs = ok.fit_coefficients(bands, lum, slope, CTX)
    expected, _ = ok.correct_raster(name, bands, dem, CTX, nodata=nodata,
                                    coeffs=coeffs)
    got_ds, _ = run_correction(tile_ds, name, CTX, coeffs={"synt0": coeffs})
    got = _reassemble(got_ds.to_pandas(), "corrected")
    ge, ee = got.ravel(), expected.ravel()
    both_nan = np.isnan(ge) & np.isnan(ee)
    assert np.array_equal(ge[~both_nan], ee[~both_nan]), name


def test_composed_close_to_oracle(tile_ds, fixture_raster):
    """Engine fit + apply ~= oracle fit + apply (float32 kernels, fits
    differ only by summation precision)."""
    dem, bands, nodata = fixture_raster
    names = ["C-correction", "SCS+C", "Minnaert", "VECA", "Teillet regression"]
    out, coeffs = run_all_corrections(tile_ds, names, CTX)
    for name in names:
        expected, _ = ok.correct_raster(name, bands, dem, CTX, nodata=nodata)
        got = _reassemble(out[name].to_pandas(), "corrected")
        ok_mask = np.isfinite(expected) & (np.abs(expected) < 1e30)
        np.testing.assert_allclose(got[ok_mask], expected[ok_mask],
                                   rtol=2e-3, atol=1e-2, err_msg=name)


def test_ndv_propagation(tile_ds, fixture_raster):
    dem, bands, nodata = fixture_raster
    got_ds, _ = run_correction(tile_ds, "COSINE-T", CTX)
    got = _reassemble(got_ds.to_pandas(), "corrected")
    for b in range(NB):
        assert np.all(got[b][nodata] == np.float32(ok.FLOAT32_NDV))
        assert not np.any(got[b][~nodata] == np.float32(ok.FLOAT32_NDV))


def test_unknown_correction_raises(tile_ds):
    from geoflow.stages.corrections import apply_correction_ds
    with pytest.raises(KeyError):
        apply_correction_ds(tile_ds, "NOPE", {})


def _float_bits(t):
    """``t`` with each float32 list column's values viewed as uint32, so
    ``Table.equals`` compares floats by their bits (NaN equals NaN)."""
    import pyarrow as pa

    cols = {}
    for name in t.column_names:
        arr = t.column(name).combine_chunks()
        if arr.type == pa.list_(pa.float32()):
            offsets = np.concatenate([[0], np.cumsum(
                arr.value_lengths().to_numpy())]).astype(np.int32)
            arr = pa.ListArray.from_arrays(
                pa.array(offsets),
                pa.array(arr.flatten().to_numpy().view(np.uint32)))
        cols[name] = arr
    return pa.table(cols)


def test_terrain_reuse_needs_bitwise_equal_tiles():
    """A batch derives each distinct tile once; a row reuses an earlier
    row's output only for equal ``height``, ``width`` and halo bytes, so
    every row comes out as it does alone: two band rows of one tile
    whose halos differ in one bit, a NaN halo (repeated, so it is
    reused), and two tiles with equal halo bytes but swapped shapes.
    All rows share one tile key, so a reuse keyed on the tile alone
    gives some row another row's terrain. Rows compare with their floats
    as bits, since ``Table.equals`` never finds a NaN equal to itself."""
    import pyarrow as pa

    from geoflow.stages.terrain import derive_terrain_batch

    dem = tsrc.synth_dem(16, 16, seed=3)
    table = tsrc.raster_to_tile_table(np.stack([dem, dem]), dem, tile=8)
    # one tile's band rows sit next to each other
    tiles = list(zip(table.column("tile_y").to_pylist(),
                     table.column("tile_x").to_pylist()))
    assert tiles[0::2] == tiles[1::2]
    halo = np.asarray(table.column("dem_halo")[0].as_py(), np.float32)
    flipped = halo.copy()
    flipped.view(np.uint32)[45] ^= 1 << 20
    nan_halo = halo.copy()
    nan_halo[33] = np.nan
    flat = np.linspace(0, 40, 40, dtype=np.float32)   # 4 x 10 or 10 x 4
    rows = [(8, 8, halo), (8, 8, flipped), (8, 8, halo), (8, 8, nan_halo),
            (8, 8, nan_halo), (2, 8, flat), (8, 2, flat), (2, 8, flat)]
    pixels = [np.ones(h * w, np.float32) for h, w, _ in rows]
    batch = pa.table({
        "raster_id": ["synt0"] * len(rows),
        "band": pa.array(range(len(rows)), pa.int32()),
        "tile_y": pa.array([0] * len(rows), pa.int32()),
        "tile_x": pa.array([0] * len(rows), pa.int32()),
        "height": pa.array([h for h, _, _ in rows], pa.int32()),
        "width": pa.array([w for _, w, _ in rows], pa.int32()),
        "pixels": pa.array(pixels, pa.list_(pa.float32())),
        "dem_halo": pa.array([r[2] for r in rows], pa.list_(pa.float32())),
    })
    out = derive_terrain_batch(batch, CTX)
    for i in range(len(rows)):
        alone = derive_terrain_batch(batch.slice(i, 1), CTX)
        assert _float_bits(out.slice(i, 1)).equals(_float_bits(alone)), i
    slope = out.column("slope").to_pylist()
    assert slope[0] == slope[2] and slope[0] != slope[1]
    assert np.isnan(slope[3]).any() and slope[5] != slope[6]


@pytest.mark.parametrize("name", ok.CORRECTION_NAMES)
def test_correction_is_elementwise_over_a_band(fixture_raster, name):
    """The rank calls each correction once on a whole band's flat arrays,
    where the per-tile pipeline calls it once per tile: one call over the
    band must equal the per-tile calls concatenated, bit for bit. Tile
    sizes are 1-999 px (not multiples of a SIMD width, and the tiles
    start at any offset of the band), with NaN pixels and pixels at or
    below ``pixel_ignore_threshold``."""
    from geoflow.registry import CORRECTIONS

    dem, bands, _ = fixture_raster
    slope = ok.zt_slope_radians(dem)
    lum = ok.luminance(slope, ok.zt_aspect_radians(dem), CTX).astype(
        np.float32)
    coeffs = ok.fit_coefficients(bands, lum, slope, CTX)
    fn = CORRECTIONS[name]
    rng = np.random.default_rng(11)
    for _ in range(20):
        sizes = rng.integers(1, 1000, rng.integers(1, 6))
        b = int(rng.integers(NB))
        px = rng.integers(0, H * W, sizes.sum())
        I, L, s = bands[b].ravel()[px], lum.ravel()[px], slope.ravel()[px]
        I[rng.random(I.size) < 0.05] = np.nan
        low = rng.random(I.size) < 0.05
        I[low] = rng.uniform(0, CTX.pixel_ignore_threshold, low.sum())
        I[rng.random(I.size) < 0.01] = CTX.pixel_ignore_threshold
        whole = np.asarray(fn(I, L, s, coeffs, b, CTX), np.float32)
        cuts = np.cumsum(sizes)[:-1]
        tiles = np.concatenate([
            np.asarray(fn(i, lt, st, coeffs, b, CTX), np.float32)
            for i, lt, st in zip(np.split(I, cuts), np.split(L, cuts),
                                 np.split(s, cuts))])
        assert np.array_equal(whole.view(np.uint32), tiles.view(np.uint32))
