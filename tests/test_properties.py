"""Property-based tests (hypothesis) for the pure kernels."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from geoflow.stages import cells
from geoflow.stages.extract import extract_text
from geoflow.stages.knn import haversine_km


@given(lat=st.floats(-89.999, 89.999), lon=st.floats(-180.0, 179.999),
       res=st.integers(0, 29))
@settings(max_examples=200, deadline=None)
def test_cell_contains_point(lat, lon, res):
    c = cells.cell_id(np.array([lat]), np.array([lon]), res)
    clat, clon = cells.cell_center(c)
    half_lat = 90.0 / (1 << res)
    half_lon = 180.0 / (1 << res)
    assert abs(clat[0] - lat) <= half_lat + 1e-9
    assert abs(clon[0] - lon) <= half_lon + 1e-9


@given(lat=st.floats(-89.0, 89.0), lon=st.floats(-179.999, 179.999),
       fine=st.integers(1, 29), coarse_off=st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_parent_consistency(lat, lon, fine, coarse_off):
    coarse = max(0, fine - coarse_off)
    la = np.array([lat])
    lo = np.array([lon])
    via_parent = cells.cell_parent(cells.cell_id(la, lo, fine), coarse)
    direct = cells.cell_id(la, lo, coarse)
    assert via_parent[0] == direct[0]


@given(st.text(max_size=500))
@settings(max_examples=150, deadline=None)
def test_extract_total_and_idempotent_shape(html_text):
    """Extractor never raises on arbitrary text and its output is
    whitespace-canonical (no leading/trailing/blank lines, single
    spaces)."""
    out = extract_text(html_text.encode("utf-8", "surrogatepass"))
    if out == "":
        return
    for line in out.split("\n"):
        assert line == line.strip()
        assert "  " not in line
        assert line != ""


@given(lat1=st.floats(-89, 89), lon1=st.floats(-180, 180),
       lat2=st.floats(-89, 89), lon2=st.floats(-180, 180))
@settings(max_examples=200, deadline=None)
def test_haversine_properties(lat1, lon1, lat2, lon2):
    d = float(haversine_km(lat1, lon1, lat2, lon2))
    assert 0 <= d <= 20016  # half circumference
    d2 = float(haversine_km(lat2, lon2, lat1, lon1))
    assert abs(d - d2) < 1e-6
    assert float(haversine_km(lat1, lon1, lat1, lon1)) < 1e-6


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_range_probe_matches_scan(seed):
    """searchsorted interval probe == linear interval scan, including
    values in gaps and outside all bands."""
    rng = np.random.default_rng(seed)
    edges = np.sort(rng.uniform(0, 100, 6))
    lows, highs = edges[[0, 2, 4]], edges[[1, 3, 5]]
    v = rng.uniform(-10, 110, 200)
    idx = np.searchsorted(lows, v, side="right") - 1
    ok = (idx >= 0) & (v < highs[np.clip(idx, 0, len(highs) - 1)])
    for j in range(len(v)):
        hit = [i for i in range(3) if lows[i] <= v[j] < highs[i]]
        assert ok[j] == bool(hit)
        if hit:
            assert idx[j] == hit[0]


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_png_roundtrip_random_shapes(read_gray_png, h, w, seed):
    from geoflow.pipelines.report import _encode_gray_png

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    assert (read_gray_png(_encode_gray_png(img)) == img).all()



def _metric_values(rng, n, kind, special):
    """float32 test values: ``kind`` shapes the distribution, ``special``
    plants a NaN or infinities at random positions."""
    if kind == "random":
        v = rng.normal(100.0, 30.0, n)
    elif kind == "constant":
        v = np.full(n, rng.normal(100.0, 30.0))
    elif kind == "tied":
        v = rng.choice(rng.normal(100.0, 30.0, 3), n)
    else:
        v = np.round(rng.normal(100.0, 30.0, n))
    v = v.astype(np.float32)
    pos = rng.permutation(n)
    if special == "nan":
        v[pos[0]] = np.nan
    elif special == "+inf":
        v[pos[0]] = np.inf
    elif special == "-inf":
        v[pos[0]] = -np.inf
    elif special == "both_inf":
        v[pos[0]] = -np.inf
        v[pos[-1]] = np.inf
    return v


_METRIC_INPUTS = dict(
    n=st.sampled_from([1, 2, 3, 4, 9, 10, 257, 1000]),
    kind=st.sampled_from(["random", "constant", "tied", "rounded"]),
    special=st.sampled_from([None, "nan", "+inf", "-inf", "both_inf"]),
    seed=st.integers(0, 10_000))


def _same(a, b) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


@given(**_METRIC_INPUTS)
@settings(max_examples=300, deadline=None)
def test_order_statistics_match_numpy(n, kind, special, seed):
    """Quartiles and median read off the sorted values equal numpy's
    partition-based percentile and median, value and dtype."""
    from geoflow.stages.metrics import _median, _quartiles

    v = _metric_values(np.random.default_rng(seed), n, kind, special)
    s = np.sort(v)
    with np.errstate(all="ignore"):
        got_q, exp_q = _quartiles(s), np.percentile(v, [25, 75])
        got_m, exp_m = _median(s), np.median(v)
    assert got_q.dtype == exp_q.dtype
    np.testing.assert_array_equal(got_q, exp_q)
    assert type(got_m) is type(exp_m)
    assert _same(got_m, exp_m)


@given(zoned=st.booleans(), **_METRIC_INPUTS)
@settings(max_examples=200, deadline=None)
def test_shared_summary_row_equals_registry_calls(zoned, n, kind, special,
                                                  seed):
    """Every metric the evaluator derives from the shared per-source
    summary equals a direct call of the registry function on the same
    slice, and the numpy-defined ones equal the oracle's formulas."""
    import pandas as pd

    import geoflow.registry as reg
    from geoflow.oracle.eval import _reference_metrics
    from geoflow.stages.metrics import (METRIC_IDS, ORIG_KEY, _zone_slices,
                                        metrics_for_band_group)

    rng = np.random.default_rng(seed)
    cols = {"pixels": _metric_values(rng, n, kind, special),
            "luminance": rng.random(n).astype(np.float32),
            "corr_x": _metric_values(rng, n, kind, special)}
    if zoned:
        cols["zone_ids"] = rng.integers(0, 3, n).astype(np.int32)
    cuts = np.sort(rng.integers(0, n + 1, 2))
    tiles = [{"band": 0, "tile_y": i // 2, "tile_x": i % 2,
              **{c: a[lo:hi] for c, a in cols.items()}}
             for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, n]))]
    g = pd.DataFrame([tiles[i] for i in rng.permutation(len(tiles))])
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # oracle's corrcoef
        got = metrics_for_band_group(["corr_x"])(g)
        order, slices = _zone_slices(cols.get("zone_ids"))
        flat = {c: a if order is None else a[order] for c, a in cols.items()}
        assert len(got) == 2 * len(slices)
        rows = iter(got.to_dict("records"))
        for zone, lo, hi in slices:
            zorig = flat["pixels"][lo:hi]
            omin, omax = float(zorig.min()), float(zorig.max())
            zlum = flat["luminance"][lo:hi]
            for name, col in ((ORIG_KEY, "pixels"), ("corr_x", "corr_x")):
                row = next(rows)
                assert (row["correction"], row.get("zone")) == (name, zone)
                vals = flat[col][lo:hi]
                ref = _reference_metrics(vals, omin, omax, zlum)
                for mid in METRIC_IDS:
                    direct = reg.METRICS[mid].fn(vals, omin, omax, zlum)
                    assert _same(row[mid], direct), mid
                    if mid != "determination_coefficient":
                        assert _same(direct, ref[mid]), mid

def test_merge_partials_bucket_parity(ray_session):
    """The one partials merge, at one bucket (coalesce) and at many
    (bucket exchange), over 1 and 8 blocks: counts, sums, minima and
    maxima equal pandas on integer and string keys, a repeated run gives
    the same float sums bit for bit, empty input gives 0 rows, and the
    same partial rows in any input order merge to an equal table."""
    import pandas as pd
    import ray.data as rd
    from geoflow.functions.agg import grouped_count_sum

    rng = np.random.default_rng(7)
    n = 6000
    df = pd.DataFrame({
        "a": rng.integers(0, 300, n),
        "b": rng.integers(0, 7, n),
        "v": rng.integers(-1000, 1000, n),
        "f": rng.normal(size=n),
    })
    key = ["a", "b"]

    def _run(ds, buckets):
        return grouped_count_sum(ds, key, ["v", "f"], min_cols=["v"],
                                 max_cols=["f"], buckets=buckets).to_pandas()

    for frame in (df, df.assign(a="k" + df["a"].astype(str))):
        exp = (frame.groupby(key).agg(n=("v", "size"), v_sum=("v", "sum"),
                                      f_sum=("f", "sum"), v_min=("v", "min"),
                                      f_max=("f", "max"))
               .reset_index())
        for blocks in (1, 8):
            ds = rd.from_pandas(frame).repartition(blocks).materialize()
            for buckets in (1, 5, 64):
                got = _run(ds, buckets)
                assert list(got.columns) == ["a", "b", "n", "v_sum", "f_sum",
                                             "v_min", "f_max"]
                got = got.sort_values(key).reset_index(drop=True)
                for c in ("a", "b", "n", "v_sum", "v_min", "f_max"):
                    assert got[c].tolist() == exp[c].tolist(), (blocks,
                                                                buckets, c)
                np.testing.assert_allclose(got["f_sum"], exp["f_sum"],
                                           rtol=1e-12, atol=1e-12)
                again = _run(ds, buckets).sort_values(key)
                assert again["f_sum"].tolist() == got["f_sum"].tolist()

    for buckets in (1, 5):
        assert len(_run(rd.from_pandas(df.iloc[:0]), buckets).index) == 0

    # in one task and through the one-bucket coalesce
    import pyarrow as pa
    from geoflow.functions.agg import (combine_partials, merge_partials,
                                       merge_partials_local)

    rows = pa.Table.from_pandas(df, preserve_index=False)
    parts = pa.concat_tables(
        combine_partials(rows.slice(i, n // 8), key, ["v", "f"], ["v"], ["f"])
        for i in range(0, n, n // 8))
    args = (key, ["v", "f"], "n", ["v"], ["f"])
    merged = merge_partials_local(parts, *args)
    for trial in range(3):
        shuffled = parts.take(rng.permutation(parts.num_rows))
        assert merge_partials_local(shuffled, *args).equals(merged), trial
        got = merge_partials(rd.from_arrow(shuffled).repartition(4), *args,
                             buckets=1).to_pandas()
        assert got.equals(merged.to_pandas()), trial
