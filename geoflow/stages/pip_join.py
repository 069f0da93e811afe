"""Point-in-polygon join: pinned spatial index in an actor pool.

North-rule operator ("STRtree point-in-polygon joins ... executed via
actor pools holding pinned spatial indexes"). No shapely in this
environment (SURVEY.md section 7.0), so the index is hand-rolled:

- index = a Sort-Tile-Recursive packed R-tree (``STRtree``) over the
  polygon bboxes, with shapely.STRtree's O(log n + candidates) query
  contract,
- candidate points per polygon come from one vectorized descent of the
  tree with the whole point batch, then an exact even-odd ray-casting
  test (vectorized numpy over those points x one polygon).

The polygon table is the SMALL side: it is ``ray.put`` once and pinned
per actor in ``__init__`` (``fn_constructor_kwargs``), never re-shipped
per batch. A point matching multiple (overlapping) polygons emits one
row per match, ordered by region_id — deterministic output.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import (bucket_count, combine_partials, merge_partials,
                             plan_estimate)


def point_in_ring(lat: np.ndarray, lon: np.ndarray,
                  ring: np.ndarray) -> np.ndarray:
    """Even-odd rule; ring is (n,2) [lon, lat], closed or open."""
    x, y = lon, lat
    rx, ry = ring[:, 0], ring[:, 1]
    if rx[0] != rx[-1] or ry[0] != ry[-1]:
        rx = np.append(rx, rx[0])
        ry = np.append(ry, ry[0])
    inside = np.zeros(len(x), dtype=bool)
    for i in range(len(rx) - 1):
        x1, y1, x2, y2 = rx[i], ry[i], rx[i + 1], ry[i + 1]
        cond = ((y1 > y) != (y2 > y))
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= cond & (x < xin)
    return inside


def make_polygons(n: int = 64, seed: int = 42) -> pd.DataFrame:
    """Deterministic synthetic polygon table (FIXTURES.md F4): convex
    fans + a few concave stars, with overlapping pairs."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        clat = rng.uniform(-55, 65)
        clon = rng.uniform(-175, 175)
        r = rng.uniform(1.0, 6.0)
        nv = int(rng.integers(4, 9))
        angles = np.sort(rng.uniform(0, 2 * np.pi, nv))
        radii = np.full(nv, r)
        if i % 5 == 0:   # concave star
            radii[::2] *= 0.45
        ring = np.stack([clon + radii * np.cos(angles),
                         clat + radii * np.sin(angles)], axis=1)
        if i % 7 == 0 and rows:   # overlap with the previous polygon
            prev = np.asarray(rows[-1]["ring"])
            ring = prev + rng.uniform(-0.5, 0.5, size=2)
        rows.append({"region_id": i, "name": f"region{i}", "ring": ring.tolist()})
    return pd.DataFrame(rows)


def pip_bruteforce(points: pd.DataFrame, polygons: pd.DataFrame) -> pd.DataFrame:
    """Oracle: test every point against every polygon."""
    out = []
    lat = points["lat"].to_numpy()
    lon = points["lon"].to_numpy()
    ids = points["id"].to_numpy()
    for poly in polygons.itertuples(index=False):
        ring = np.asarray(poly.ring, dtype=np.float64)
        hit = point_in_ring(lat, lon, ring)
        for pid in ids[hit]:
            out.append((pid, poly.region_id))
    df = pd.DataFrame(out, columns=["id", "region_id"])
    return df.sort_values(["id", "region_id"]).reset_index(drop=True)


class STRtree:
    """Sort-Tile-Recursive packed R-tree over polygon bboxes (the north
    rule's index, hand-rolled — no shapely in this environment).

    Bulk load (Leutenegger et al. STR): sort rects by center-x, cut
    into vertical slices of ~sqrt(n/cap) each, sort each slice by
    center-y, pack leaves of ``cap`` rects; repeat on the leaf bboxes
    until one root remains. Query descends only nodes whose bbox
    contains the point — O(log n + candidates), same contract as
    shapely.STRtree.query.
    """

    def __init__(self, bboxes: np.ndarray, cap: int = 8):
        # level 0 = the rects themselves; each upper level packs the
        # previous one; node = (bbox, slice of child indices)
        self.cap = cap
        self.rect_boxes = np.asarray(bboxes, dtype=np.float64)
        n = len(bboxes)
        self.levels: list[tuple[np.ndarray, list[np.ndarray]]] = []
        cur_boxes = np.asarray(bboxes, dtype=np.float64)
        cur_ids = [np.array([i]) for i in range(n)]   # ids into bboxes
        child_index = np.arange(n)
        while len(cur_boxes) > 1:
            order = np.argsort(
                (cur_boxes[:, 0] + cur_boxes[:, 2]) / 2, kind="stable")
            n_nodes = max(1, int(np.ceil(len(order) / cap)))
            n_slices = max(1, int(np.ceil(np.sqrt(n_nodes))))
            slice_sz = int(np.ceil(len(order) / n_slices))
            groups: list[np.ndarray] = []
            for s in range(0, len(order), slice_sz):
                sl = order[s:s + slice_sz]
                sl = sl[np.argsort(
                    (cur_boxes[sl, 1] + cur_boxes[sl, 3]) / 2,
                    kind="stable")]
                for g in range(0, len(sl), cap):
                    groups.append(sl[g:g + cap])
            boxes = np.array([
                [cur_boxes[g, 0].min(), cur_boxes[g, 1].min(),
                 cur_boxes[g, 2].max(), cur_boxes[g, 3].max()]
                for g in groups])
            self.levels.append((cur_boxes, [child_index[g] for g in groups]))
            cur_boxes = boxes
            child_index = np.arange(len(groups))
        self.root_box = cur_boxes[0] if len(cur_boxes) else None

    def query_point(self, x: float, y: float) -> np.ndarray:
        """Indices of rects whose bbox contains (x, y)."""
        hits = self.query_points(np.array([x]), np.array([y]))
        return np.array(sorted(hits), dtype=np.int64) if hits else \
            np.empty(0, dtype=np.int64)

    def query_points(self, xs: np.ndarray,
                     ys: np.ndarray) -> dict[int, np.ndarray]:
        """Batch query: rect index -> indices of points inside its bbox.

        Descends the tree with WHOLE point sets (vectorized mask per
        node), so the per-point cost is amortized numpy, not a Python
        loop per point.
        """
        out: dict[int, np.ndarray] = {}
        if len(xs) == 0 or len(self.rect_boxes) == 0:
            return out
        if not self.levels:                 # 1 rect: no packing happened
            b = self.rect_boxes[0]
            m = ((b[0] <= xs) & (xs <= b[2]) & (b[1] <= ys) & (ys <= b[3]))
            if m.any():
                out[0] = np.nonzero(m)[0]
            return out
        top = len(self.levels) - 1
        all_pts = np.arange(len(xs))
        stack = [(top, node, all_pts)
                 for node in range(len(self.levels[top][1]))]
        while stack:
            lvl, node, pts = stack.pop()
            boxes, children = self.levels[lvl]
            kids = children[node]
            px, py = xs[pts], ys[pts]
            for kid in kids:
                b = boxes[kid]
                m = (b[0] <= px) & (px <= b[2]) & (b[1] <= py) & (py <= b[3])
                if not m.any():
                    continue
                sub = pts[m]
                if lvl == 0:
                    prev = out.get(int(kid))
                    out[int(kid)] = sub if prev is None else \
                        np.concatenate([prev, sub])
                else:
                    stack.append((lvl - 1, int(kid), sub))
        return out


class PIPJoiner:
    """Actor-pool callable: points batch -> (id, region_id, name) matches.

    Pins one STR-packed R-tree over the polygon bboxes per actor.
    """

    def __init__(self, polygons_ref):
        import ray
        polygons = ray.get(polygons_ref)
        self.rings = [np.asarray(r, dtype=np.float64)
                      for r in polygons["ring"]]
        self.region_ids = polygons["region_id"].to_numpy()
        self.tree = STRtree(np.array([
            [r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max()]
            for r in self.rings]))
        self.names = polygons["name"].to_numpy()

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        ids = batch.column("id").to_numpy()
        out_id, out_region, out_name = [], [], []
        # bbox x=lon, y=lat; the tree returns only points inside each
        # polygon's closed bbox, and never an empty point set
        for poly_idx, pt_idx in self.tree.query_points(lon, lat).items():
            hit = point_in_ring(lat[pt_idx], lon[pt_idx], self.rings[poly_idx])
            matched = pt_idx[hit]
            out_id.extend(ids[matched].tolist())
            out_region.extend([self.region_ids[poly_idx]] * len(matched))
            out_name.extend([self.names[poly_idx]] * len(matched))
    # deterministic within-batch order: (id, region_id)
        if out_id:
            o = np.lexsort((np.array(out_region), np.array(out_id)))
        else:
            o = np.array([], dtype=int)
        return pa.table({
            "id": pa.array(np.asarray(out_id, dtype=np.int64)[o]),
            "region_id": pa.array(np.asarray(out_region, dtype=np.int64)[o]),
            "name": pa.array(np.asarray(out_name, dtype=object)[o]
                             if len(o) else [], pa.string()),
        })


def pip_join(points_ds, polygons: pd.DataFrame, concurrency: int = 4):
    """points_ds(id, lat, lon) |> PIP join against the polygon table."""
    import ray

    ref = ray.put(polygons)
    return points_ds.map_batches(
        PIPJoiner, batch_format="pyarrow",
        fn_constructor_kwargs=dict(polygons_ref=ref),
        concurrency=(1, concurrency), batch_size=4096,
    )


def polygon_metrics(edges_ds):
    """Vector-geometry measures per polygon from an EDGE-TUPLE layout:
    rows (region_id, x1, y1, x2, y2), closing edge included.

    Shoelace area, perimeter, and area-weighted centroid are all sums
    of per-edge terms, so the plan is embarrassingly parallel: numpy
    per-edge terms collapsed per batch by the shared Arrow combine,
    then the one partials merge (``functions.agg.merge_partials``) of
    slim per-region rows, then a final vectorized map derives
    (n_vertices, area, perimeter, centroid_x, centroid_y).

    SCALE: the edge-tuple layout is the point — a 10^9-edge polygon
    set streams through map_batches with per-region partials, and the
    exchange carries one slim row per (region x batch), never the
    geometry. Rings must be pre-closed (last edge -> first vertex),
    the same contract _pip_edges_sql renders for the PIP oracle.
    """
    terms = ["cross", "perim", "cx", "cy"]
    buckets = bucket_count(plan_estimate(edges_ds)[0])   # <= one per edge

    def _partials(b: pa.Table) -> pa.Table:
        x1, y1, x2, y2 = (b.column(c).to_numpy()
                          for c in ("x1", "y1", "x2", "y2"))
        cross = x1 * y2 - x2 * y1
        t = pa.table({
            "region_id": b.column("region_id"),
            "cross": cross,
            "perim": np.sqrt((x2 - x1) * (x2 - x1)
                             + (y2 - y1) * (y2 - y1)),
            "cx": (x1 + x2) * cross,
            "cy": (y1 + y2) * cross,
        })
        return combine_partials(t, ["region_id"], terms, buckets=buckets)

    agg = merge_partials(
        edges_ds.map_batches(_partials, batch_format="pyarrow"),
        ["region_id"], terms, "n_vertices", buckets=buckets)

    def _finish(b: pa.Table) -> pa.Table:
        cross = b.column("cross_sum").to_numpy()
        return pa.table({
            "region_id": pc.cast(b.column("region_id"), pa.int64()),
            "n_vertices": b.column("n_vertices"),
            "area": pa.array(np.round(cross / 2, 6)),
            "perimeter": pa.array(
                np.round(b.column("perim_sum").to_numpy(), 6)),
            "centroid_x": pa.array(np.round(
                b.column("cx_sum").to_numpy() / (3 * cross), 6)),
            "centroid_y": pa.array(np.round(
                b.column("cy_sum").to_numpy() / (3 * cross), 6)),
        })

    return agg.map_batches(_finish, batch_format="pyarrow")
