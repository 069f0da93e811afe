import numpy as np
import pandas as pd
import pytest

from geoflow.stages import knn, pip_join
from geoflow.stages.geocode import geocode_doc_ids


def test_knn_haversine_matches_bruteforce(ray_session):
    import ray.data as rd
    ids = np.arange(2000, dtype=np.int64)
    lat, lon = geocode_doc_ids(ids)
    points = pd.DataFrame({"id": ids, "lat": lat, "lon": lon})
    qids = np.arange(25, dtype=np.int64)
    qlat, qlon = geocode_doc_ids(qids + 100000)
    queries = rd.from_pandas(pd.DataFrame(
        {"query_id": qids, "lat": qlat, "lon": qlon}))
    out = knn.knn_haversine(queries, points, k=5, res=6).to_pandas()
    for q in range(25):
        d = knn.haversine_km(qlat[q], qlon[q], lat, lon)
        order = np.lexsort((ids, d))[:5]
        got = out[out["query_id"] == q].sort_values("rank")["neighbor_id"]
        assert got.tolist() == ids[order].tolist(), f"query {q}"
    # on this dense fixture every query is proven by a ring
    _, index = _pinned_knn(points, qlat, qlon, k=5, res=6)
    assert index.fallback_queries == 0


def _pinned_knn(points, qlat, qlon, k, res):
    """One HaversineKNN actor body called directly: (rows, index)."""
    import pyarrow as pa
    import ray
    index = knn.HaversineKNN(ray.put((points["id"].to_numpy(),
                                      points["lat"].to_numpy(),
                                      points["lon"].to_numpy())),
                             k=k, res=res)
    out = index(pa.table({"query_id": np.arange(len(qlat), dtype=np.int64),
                          "lat": np.asarray(qlat, dtype=np.float64),
                          "lon": np.asarray(qlon, dtype=np.float64)}))
    return out.to_pandas(), index


def _assert_bruteforce(out, points, qlat, qlon, k):
    """Every query's rows equal the brute-force (distance, id) top-min(k, N)."""
    ids = points["id"].to_numpy()
    for q in range(len(qlat)):
        d = knn.haversine_km(qlat[q], qlon[q], points["lat"].to_numpy(),
                             points["lon"].to_numpy())
        top = np.lexsort((ids, d))[:k]
        got = out[out["query_id"] == q].sort_values("rank")
        assert got["neighbor_id"].tolist() == ids[top].tolist(), f"query {q}"
        assert np.array_equal(got["distance_km"].to_numpy(), d[top])


def test_knn_haversine_nearest_outside_last_ring(ray_session):
    """res=7, k=1: the only point inside the widest ring box is 1824 km
    away; the true nearest sits just outside the box at 1101 km."""
    points = pd.DataFrame({"id": np.array([0, 1], dtype=np.int64),
                           "lat": [0.1, -9.8], "lon": [16.5, 0.1]})
    out, index = _pinned_knn(points, [0.1], [0.1], k=1, res=7)
    _assert_bruteforce(out, points, [0.1], [0.1], k=1)
    assert out["neighbor_id"].tolist() == [1]
    assert index.fallback_queries == 1


def test_knn_haversine_fewer_than_k_near_query(ray_session):
    """k=3 with one point within the widest ring box: all three rows."""
    points = pd.DataFrame({"id": np.array([0, 1, 2], dtype=np.int64),
                           "lat": [10.2, 40.0, -35.0],
                           "lon": [20.3, 100.0, -60.0]})
    out, _ = _pinned_knn(points, [10.0], [20.0], k=3, res=7)
    assert len(out) == 3
    _assert_bruteforce(out, points, [10.0], [20.0], k=3)


def test_knn_haversine_ties_break_on_id(ray_session):
    """Ten points at one spot, ids stored in descending order: k=3 must
    keep the three smallest ids, as brute force does."""
    points = pd.DataFrame({"id": np.arange(9, -1, -1, dtype=np.int64),
                           "lat": np.full(10, 48.0),
                           "lon": np.full(10, 11.0)})
    out, _ = _pinned_knn(points, [48.5], [11.5], k=3, res=7)
    _assert_bruteforce(out, points, [48.5], [11.5], k=3)


def test_knn_haversine_polar_queries(ray_session):
    """Near a pole, points far apart in longitude are close; queries
    between 85 and 89.9 degrees must still get the brute-force rows."""
    rng = np.random.default_rng(3)
    points = pd.DataFrame({"id": np.arange(3000, dtype=np.int64),
                           "lat": rng.uniform(75, 90, 3000),
                           "lon": rng.uniform(-180, 180, 3000)})
    qlat, qlon = rng.uniform(85, 89.9, 200), rng.uniform(-180, 180, 200)
    out, index = _pinned_knn(points, qlat, qlon, k=5, res=7)
    _assert_bruteforce(out, points, qlat, qlon, k=5)
    assert index.fallback_queries > 0


def test_pip_join_matches_bruteforce(ray_session):
    import ray.data as rd
    ids = np.arange(3000, dtype=np.int64)
    lat, lon = geocode_doc_ids(ids)
    points = pd.DataFrame({"id": ids, "lat": lat, "lon": lon})
    polys = pip_join.make_polygons(48, seed=11)
    expected = pip_join.pip_bruteforce(points, polys)
    got = pip_join.pip_join(rd.from_pandas(points), polys,
                            concurrency=2).to_pandas()
    got = got.sort_values(["id", "region_id"]).reset_index(drop=True)
    assert len(got) == len(expected)
    assert got["id"].tolist() == expected["id"].tolist()
    assert got["region_id"].tolist() == expected["region_id"].tolist()
    assert len(got) > 20  # polygons actually cover points


def test_point_in_ring_concave():
    # concave "C" shape: point in the notch is outside
    ring = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 3],
                     [3, 3], [3, 1], [0, 1]], dtype=float)
    lat = np.array([2.0, 0.5, 3.5])
    lon = np.array([1.0, 1.0, 1.0])
    inside = pip_join.point_in_ring(lat, lon, ring)
    assert inside.tolist() == [False, True, True]


def test_strtree_query_matches_bbox_scan():
    """STRtree batch point query == brute-force bbox containment scan,
    over random rect sets of many sizes (incl. the 1-rect edge)."""
    from geoflow.stages.pip_join import STRtree

    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 8, 9, 63, 200):
        lo = rng.uniform(0, 90, size=(n, 2))
        wh = rng.uniform(0.5, 15, size=(n, 2))
        boxes = np.column_stack([lo, lo + wh])     # x0,y0,x1,y1
        tree = STRtree(boxes)
        xs = rng.uniform(-5, 110, 500)
        ys = rng.uniform(-5, 110, 500)
        got = tree.query_points(xs, ys)
        for r in range(n):
            b = boxes[r]
            exp = np.nonzero((b[0] <= xs) & (xs <= b[2])
                             & (b[1] <= ys) & (ys <= b[3]))[0]
            have = np.sort(got.get(r, np.empty(0, dtype=np.int64)))
            assert (have == exp).all(), (n, r)


def test_pip_strtree_equals_brute(ray_session):
    import ray.data as rd
    from geoflow.stages.pip_join import (make_polygons, pip_bruteforce,
                                         pip_join)

    rng = np.random.default_rng(21)
    pts = pd.DataFrame({"id": np.arange(3000),
                        "lat": rng.uniform(-60, 70, 3000),
                        "lon": rng.uniform(-179, 179, 3000)})
    polys = make_polygons(48, seed=9)
    exp = pip_bruteforce(pts, polys)
    got = (pip_join(rd.from_pandas(pts), polys, concurrency=2).to_pandas()
           .sort_values(["id", "region_id"]).reset_index(drop=True))
    assert len(got) == len(exp)
    assert (got["id"].to_numpy() == exp["id"].to_numpy()).all()
    assert (got["region_id"].to_numpy() == exp["region_id"].to_numpy()).all()


# ---------------------------------------------------------------------------
# polygon_metrics: closed-form shapes + fixture consistency
# ---------------------------------------------------------------------------

def test_polygon_metrics_known_shapes():
    import pandas as pd
    import ray.data as rd

    from geoflow.stages.pip_join import polygon_metrics

    # unit square (CCW) and a 3-4-5 right triangle
    square = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    tri = [(0, 0), (3, 0), (0, 4), (0, 0)]
    rows = []
    for rid, ring in ((0, square), (1, tri)):
        for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
            rows.append((rid, float(x1), float(y1), float(x2), float(y2)))
    edges = pd.DataFrame(rows, columns=["region_id", "x1", "y1",
                                        "x2", "y2"])
    got = (polygon_metrics(rd.from_pandas(edges).repartition(3))
           .to_pandas().set_index("region_id").sort_index())
    assert got.loc[0, "area"] == 1.0
    assert got.loc[0, "perimeter"] == 4.0
    assert (got.loc[0, "centroid_x"], got.loc[0, "centroid_y"]) == (0.5, 0.5)
    assert got.loc[0, "n_vertices"] == 4
    assert got.loc[1, "area"] == 6.0
    assert got.loc[1, "perimeter"] == 12.0
    assert (got.loc[1, "centroid_x"],
            got.loc[1, "centroid_y"]) == (1.0, round(4 / 3, 6))


def test_polygon_metrics_fixture_positive_and_partition_invariant():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from geoflow.stages.pip_join import make_polygons, polygon_metrics

    rows = []
    for poly in make_polygons(16, seed=42).itertuples(index=False):
        ring = np.asarray(poly.ring, dtype=np.float64)
        if (ring[0] != ring[-1]).any():
            ring = np.vstack([ring, ring[0]])
        for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
            rows.append((int(poly.region_id), x1, y1, x2, y2))
    edges = pd.DataFrame(rows, columns=["region_id", "x1", "y1",
                                        "x2", "y2"])
    a = (polygon_metrics(rd.from_pandas(edges)).to_pandas()
         .sort_values("region_id").reset_index(drop=True))
    b = (polygon_metrics(rd.from_pandas(edges).repartition(7)).to_pandas()
         .sort_values("region_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert (a["area"] > 0).all()      # rings are CCW by construction
    assert (a["perimeter"] > 0).all()
    assert len(a) == 16
