"""Hierarchical covering compaction: reference parity + invariants."""

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from geoflow.stages.cells import lonlat_to_xy
from geoflow.stages.compaction import cell_counts, compact_cells
from geoflow.stages.geocode import geocode_doc_ids


def _reference(lat, lon, res):
    x, y = lonlat_to_xy(lat, lon, res)
    cells = dict(Counter(
        zip([res] * len(lat), x.astype(int), y.astype(int))))
    for f in range(res, 0, -1):
        quads: dict = {}
        for (r, cx, cy), v in list(cells.items()):
            if r == f:
                quads.setdefault((cx // 2, cy // 2), []).append((cx, cy, v))
        for (px, py), kids in quads.items():
            if len(kids) == 4:
                for cx, cy, _ in kids:
                    del cells[(f, cx, cy)]
                cells[(f - 1, px, py)] = sum(v for _, _, v in kids)
    return sorted((r, cx, cy, v) for (r, cx, cy), v in cells.items())


def _run(lat, lon, res):
    ids = np.arange(len(lat), dtype=np.int64)
    pts = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids), "lat": pa.array(lat),
        "lon": pa.array(lon)})).repartition(3)
    got = compact_cells(cell_counts(pts, res), res).to_pandas()
    return sorted(map(tuple,
                      got[["res", "x", "y", "n_docs"]]
                      .itertuples(index=False)))


def test_compaction_matches_reference_on_geocoded_points():
    lat, lon = geocode_doc_ids(np.arange(400, dtype=np.int64))
    assert _run(lat, lon, 9) == _reference(lat, lon, 9)


def test_full_quad_cascades_to_res_zero():
    # one point in each res-2 cell -> every quad complete everywhere
    # -> the whole covering collapses to the single res-0 cell
    n = 4
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    lon = (xs.ravel() + 0.5) / n * 360.0 - 180.0
    lat = 90.0 - (ys.ravel() + 0.5) / n * 180.0
    out = _run(lat, lon, 2)
    assert out == [(0, 0, 0, 16)]


def test_incomplete_quads_stay_fine():
    # 3 of 4 siblings occupied -> nothing promotes
    n = 4
    pts = [(0, 0), (1, 0), (0, 1)]
    lon = np.array([(x + 0.5) / n * 360.0 - 180.0 for x, _ in pts])
    lat = np.array([90.0 - (y + 0.5) / n * 180.0 for _, y in pts])
    out = _run(lat, lon, 2)
    assert out == [(2, 0, 0, 1), (2, 0, 1, 1), (2, 1, 0, 1)]


def test_weight_is_conserved():
    lat, lon = geocode_doc_ids(np.arange(300, dtype=np.int64))
    out = _run(lat, lon, 8)
    assert sum(v for _, _, _, v in out) == 300


def test_counts_partition_invariant():
    lat, lon = geocode_doc_ids(np.arange(200, dtype=np.int64))
    ids = np.arange(200, dtype=np.int64)
    t = pa.table({"doc_id": pa.array(ids), "lat": pa.array(lat),
                  "lon": pa.array(lon)})
    a = (cell_counts(rd.from_arrow(t), 7).to_pandas()
         .sort_values(["x", "y"]).reset_index(drop=True))
    b = (cell_counts(rd.from_arrow(t).repartition(9), 7).to_pandas()
         .sort_values(["x", "y"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


# ---------------------------------------------------------------------------
# focal_density shares the cell-analytics module
# ---------------------------------------------------------------------------

def test_focal_density_matches_dense_convolution():
    rng = np.random.default_rng(13)
    occ = rng.integers(0, 2, size=(12, 12)).astype(np.int64) * \
        rng.integers(1, 9, size=(12, 12))
    xs, ys = np.nonzero(occ)
    cells = rd.from_arrow(pa.table({
        "x": pa.array(xs.astype(np.int64)),
        "y": pa.array(ys.astype(np.int64)),
        "n_docs": pa.array(occ[xs, ys])})).repartition(3)
    from geoflow.stages.compaction import focal_density
    got = focal_density(cells).to_pandas()
    padded = np.pad(occ, 1)
    for r in got.itertuples():
        block = padded[r.x:r.x + 3, r.y:r.y + 3]
        assert r.focal_sum == block.sum(), (r.x, r.y)
        assert r.n_docs == occ[r.x, r.y]
    assert len(got) == len(xs)   # occupied cells only, no phantom fringe


def test_frontier_order_fair_interleave():
    import pandas as pd

    from geoflow.stages.crawl import frontier_order

    ids = np.arange(137, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids)})).repartition(4)
    got = (frontier_order(ds, num_domains=7).to_pandas()
           .sort_values("pos").reset_index(drop=True))
    assert got["pos"].tolist() == list(range(1, 138))
    # schedule order == lexicographic (round, domain, doc_id)
    key = list(zip(got["rnd"], got["domain_key"], got["doc_id"]))
    assert key == sorted(key)
    # per-domain: rounds are 0..k-1 in doc_id order
    for dom, g in got.groupby("domain_key"):
        g = g.sort_values("doc_id")
        assert g["rnd"].tolist() == list(range(len(g)))
        assert (g["doc_id"] % 7 == dom).all()
    # fairness: round r is only scheduled once every domain with >= r
    # urls has had its r-1 round (positions of round r all after r-1)
    assert (got.groupby("rnd")["pos"].min().diff().dropna() > 0).all()


def test_getis_ord_hotspot_ranks_dense_cells_highest():
    from geoflow.stages.compaction import cell_counts, getis_ord_hotspots
    from geoflow.stages.geocode import geocode_doc_ids

    ids = np.arange(500, dtype=np.int64)
    lat, lon = geocode_doc_ids(ids)
    pts = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids), "lat": pa.array(lat),
        "lon": pa.array(lon)})).repartition(3)
    got = getis_ord_hotspots(cell_counts(pts, 8), 8).to_pandas()

    # z reproduces the closed form computed straight from the counts
    occ = {(r.x, r.y): r.n_docs for r in got.itertuples()}
    n_cells = 256.0 * 256.0
    t = sum(occ.values())
    q = sum(v * v for v in occ.values())
    xbar = t / n_cells
    s = np.sqrt(q / n_cells - xbar * xbar)
    for r in got.sample(frac=0.2, random_state=0).itertuples():
        si = sum(occ.get((r.x + dx, r.y + dy), 0)
                 for dx in (-1, 0, 1) for dy in (-1, 0, 1))
        assert si == r.focal_sum
        wx = 3.0 - (r.x == 0) - (r.x == 255)
        wy = 3.0 - (r.y == 0) - (r.y == 255)
        w = wx * wy
        z = (si - xbar * w) / (s * np.sqrt(
            (n_cells * w - w * w) / (n_cells - 1.0)))
        assert abs(z - r.gi_z) < 5e-7
    # the three geocode hotspots dominate the very top of the z
    # ranking (edge cells with W=6 legitimately outrank interior
    # singletons further down — smaller windows inflate z)
    top = got.nlargest(3, "gi_z")
    assert (top["gi_z"] > got["gi_z"].median()).all()
    assert top["focal_sum"].min() >= 40


def test_cell_blob_labels_matches_flood_fill():
    from geoflow.stages.compaction import cell_blob_labels

    # hand-built occupancy: an L-blob, a diagonal-touching pair
    # (8-connectivity joins them), and an isolated singleton
    pts = [(1, 1), (1, 2), (2, 1),          # L blob
           (5, 5), (6, 6),                  # diagonal pair
           (9, 1)]                          # singleton
    cells = rd.from_arrow(pa.table({
        "x": pa.array([p[0] for p in pts], pa.int64()),
        "y": pa.array([p[1] for p in pts], pa.int64()),
        "n_docs": pa.array([1] * len(pts), pa.int64())})).repartition(2)
    got = cell_blob_labels(cells, 8).to_pandas()
    gm = {(r.x, r.y): r.blob for r in got.itertuples()}
    side = 256
    assert gm[(1, 1)] == gm[(1, 2)] == gm[(2, 1)] == 1 * side + 1
    assert gm[(5, 5)] == gm[(6, 6)] == 5 * side + 5
    assert gm[(9, 1)] == 9 * side + 1
    assert len(gm) == 6


def test_od_matrix_conserves_transitions():
    import pandas as pd

    from geoflow.stages.geocode import od_matrix

    rng = np.random.default_rng(21)
    n = 300
    eid = np.arange(n, dtype=np.int64)
    uid = rng.integers(0, 20, n).astype(np.int64)
    ts = pd.to_datetime(rng.integers(0, 5000, n), unit="s")
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(eid), "user_id": pa.array(uid),
        "ts": pa.array(ts)})).repartition(4)
    got = od_matrix(ds, res=6, num_buckets=8).to_pandas()
    n_users = len(np.unique(uid))
    assert got["n_moves"].sum() == n - n_users  # one leg per event, minus firsts
    assert (got["n_moves"] > 0).all()
