"""Spatial kNN: the pinned haversine index (north rule "kNN lookups
executed via actor pools holding pinned spatial indexes").

``knn_haversine`` is the one spatial kNN. Each actor pins the point
table sorted by quadtree cell (``HaversineKNN``); a query searches
expanding cell rings until a distance bound proves its k-th neighbor,
and scans every pinned point when no ring proves it. The result is
exactly the brute-force (distance, id) top-min(k, N) for every input.
Memory: 40 bytes per pinned point (ids, lat, lon read zero-copy from
the object store; sorted cell ids and their order on each actor heap).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import cells as cellmod

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    la1, lo1, la2, lo2 = map(np.radians, (lat1, lon1, lat2, lon2))
    dlat = la2 - la1
    dlon = lo2 - lo1
    a = np.sin(dlat / 2) ** 2 + np.cos(la1) * np.cos(la2) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


# Widest ring (in cells around the query's cell) searched before a query
# falls back to scanning every pinned point.
MAX_RING = 6


class HaversineKNN:
    """Actor-pool spatial kNN over a pinned, cell-sorted point index.

    Index: points sorted by cell id at ``res``. A query walks expanding
    neighbor rings (1 .. ``MAX_RING`` cells radius) until the k-th
    candidate distance is proven smaller than the distance to any point
    outside the searched box. A query no ring proves (fewer than k
    points within ``MAX_RING`` cells, or a k-th neighbor farther than
    the widest ring can prove) scans every pinned point instead;
    ``fallback_queries`` counts those. Exact haversine distances with a
    (distance, id) lexsort pick the neighbors, so each query gets
    exactly the brute-force top-min(k, N) rows.
    """

    def __init__(self, points_ref, k: int = 5, res: int = 7):
        import ray
        pts = ray.get(points_ref)          # (ids, lat, lon)
        self.ids, self.lat, self.lon = pts
        self.res = res
        self.k = k
        self.fallback_queries = 0
        cell = cellmod.cell_id(self.lat, self.lon, res)
        order = np.argsort(cell, kind="stable")
        self.cell_sorted = cell[order]
        self.order = order

    def _gather(self, x0: int, y0: int, ring: int) -> np.ndarray:
        n = 1 << self.res
        xs = (np.arange(x0 - ring, x0 + ring + 1) % n).astype(np.uint64)
        ys = np.clip(np.arange(y0 - ring, y0 + ring + 1), 0, n - 1).astype(np.uint64)
        gx, gy = np.meshgrid(xs, ys)
        ring_cells = np.unique(cellmod.xy_to_cell(gx.ravel(), gy.ravel(), self.res))
        lo = np.searchsorted(self.cell_sorted, ring_cells, side="left")
        hi = np.searchsorted(self.cell_sorted, ring_cells, side="right")
        return np.concatenate([self.order[a:b] for a, b in zip(lo, hi)])

    def _candidates(self, qlat: float, qlon: float) -> np.ndarray:
        """Expand rings until the k-th candidate distance is provably
        smaller than the distance to anything outside the searched box;
        all points when no ring proves it.

        Bound: a point outside a +-ring-cell box differs from the query
        by >= margin = (ring-1) cells in lat or in lon. A lat gap of
        dphi puts it >= R * dphi away. A lon gap of dlon puts it at
        least as far as the nearest point of the meridian dlon away,
        R * asin(cos(qlat) * sin(dlon)), or of the pole once dlon
        reaches 90 degrees.
        """
        n = 1 << self.res
        cell_h = np.radians(180.0 / n)
        cell_w = np.radians(360.0 / n)
        x, y = cellmod.lonlat_to_xy(np.array([qlat]), np.array([qlon]), self.res)
        x0, y0 = int(x[0]), int(y[0])
        for ring in range(1, MAX_RING + 1):
            idx = self._gather(x0, y0, ring)
            if len(idx) < self.k:
                continue
            d = haversine_km(qlat, qlon, self.lat[idx], self.lon[idx])
            dk = np.partition(d, self.k - 1)[self.k - 1]
            margin = ring - 1
            bound = EARTH_RADIUS_KM * margin * cell_h
            if 2 * ring + 1 < n:           # some longitudes lie outside
                dlon = min(np.pi / 2, margin * cell_w)
                bound = min(bound, EARTH_RADIUS_KM * np.arcsin(
                    np.cos(np.radians(qlat)) * np.sin(dlon)))
            if dk < bound:
                return idx
        self.fallback_queries += 1
        return np.arange(len(self.ids))

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch.column("query_id").to_numpy()
        qlat = batch.column("lat").to_numpy()
        qlon = batch.column("lon").to_numpy()
        out_q, out_n, out_d, out_r = [], [], [], []
        for qid, la, lo in zip(qids, qlat, qlon):
            idx = self._candidates(la, lo)
            k = min(self.k, len(idx))
            if k == 0:
                continue
            d = haversine_km(la, lo, self.lat[idx], self.lon[idx])
            # every candidate tied with the k-th distance competes on id
            near = np.nonzero(d <= np.partition(d, k - 1)[k - 1])[0]
            top = near[np.lexsort((self.ids[idx][near], d[near]))][:k]
            out_q.extend([qid] * k)
            out_n.extend(self.ids[idx][top].tolist())
            out_d.extend(d[top].tolist())
            out_r.extend(range(1, k + 1))
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "distance_km": pa.array(out_d, pa.float64()),
            "rank": pa.array(out_r, pa.int32()),
        })


def knn_haversine(queries_ds, points_df: pd.DataFrame, k: int = 5,
                  res: int = 7, concurrency: int = 4):
    """queries_ds(query_id, lat, lon) x points(id, lat, lon) -> top-k rows."""
    import ray

    ref = ray.put((points_df["id"].to_numpy(),
                   points_df["lat"].to_numpy(),
                   points_df["lon"].to_numpy()))
    return queries_ds.map_batches(
        HaversineKNN, batch_format="pyarrow",
        fn_constructor_kwargs=dict(points_ref=ref, k=k, res=res),
        concurrency=(1, concurrency), batch_size=512,
    )
