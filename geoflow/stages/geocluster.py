"""Grid-partitioned DBSCAN over geocoded document points.

Density clustering answers "which documents come from the same physical
hotspot" (data-center crawls, geo-tagged spam farms, city-level corpus
slices). This is a DETERMINISTIC DBSCAN variant — every tie is broken
by min-id — so a brute-force DuckDB replay hash-matches exactly:

- core point:   |{q : d2(p, q) <= eps^2}| >= min_pts   (self included)
- clusters:     connected components of core points under
                eps-adjacency, labeled by min doc_id (the same
                min-label semantics as functions.components.dup_components)
- border point: non-core with >= 1 core neighbor, labeled by the MIN
                cluster label among its core neighbors
- noise:        dropped from the output

Plan (all Ray Data, one neighbor shuffle):
1. each point is replicated to its 3x3 surrounding grid cells (cell
   side = eps, so any eps-neighbor pair shares a replica cell with the
   home copy of each endpoint EXACTLY once — |dlat| <= eps bounds the
   cell delta to +/-1);
2. one groupby on splitmix64(cell) % B buckets; inside a bucket a
   vectorized numpy broadcast per cell emits the ordered eps-pairs
   (home x candidate) — the standard bucket-keyed shuffle + per-bucket
   combine idiom used by the exact-dedup and join plans;
3. neighbor counts / core flags come from ONE groupby over the pair
   list; core-core edges feed dup_components (driver union-find under
   the 2M-edge guard, distributed min-label propagation above it);
   border labels are one bucketed join + groupby-min.

SCALE: pair volume is n * avg_degree (the irreducible DBSCAN cost),
never n^2 — density hotspots bound per-cell work by (points per
eps-cell)^2, and a cell hotter than that budget is exactly the input
skew.split_cells rebalances (same fixed-point splitting applies here
if a single eps-cell overflows a worker). Replication is 9x of a
24-byte projection, not of documents.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import _mix64

# composite cell key offsets: lat/eps and lon/eps stay well inside
# +/-2e8 for any eps >= 1e-6 degrees, so (cx+OFF)*SPAN+(cy+OFF) is an
# injective int64 encoding
_OFF = 1 << 29
_SPAN = 1 << 30


def _cell_key(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    return (cx + _OFF) * _SPAN + (cy + _OFF)


def dbscan_pairs(points_ds, eps: float, num_buckets: int = 32,
                 id_col: str = "doc_id"):
    """Ordered eps-neighbor pairs (pa, pb), pa != pb, d2 <= eps^2.

    Each unordered pair appears once per direction (pa's home cell
    holds pb's replica and vice versa). The distance predicate is
    written operand-for-operand as the SQL replay writes it
    ((dlat*dlat + dlon*dlon) <= eps*eps) so the float decisions are
    bit-identical."""
    eps2 = eps * eps

    def _replicate(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy().astype(np.int64)
        lat = b.column("lat").to_numpy()
        lon = b.column("lon").to_numpy()
        cx = np.floor(lat / eps).astype(np.int64)
        cy = np.floor(lon / eps).astype(np.int64)
        n = len(ids)
        outs_key, outs_home = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                outs_key.append(_cell_key(cx + dx, cy + dy))
                outs_home.append(np.full(
                    n, 1 if (dx == 0 and dy == 0) else 0, np.int8))
        rep = 9
        return pa.table({
            "_b": pa.array((_mix64(np.concatenate(outs_key))
                            % np.uint64(num_buckets)).astype(np.int64)),
            "_cell": pa.array(np.concatenate(outs_key), pa.int64()),
            id_col: pa.array(np.tile(ids, rep), pa.int64()),
            "lat": pa.array(np.tile(lat, rep)),
            "lon": pa.array(np.tile(lon, rep)),
            "_home": pa.array(np.concatenate(outs_home), pa.int8()),
        })

    def _pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        pas, pbs = [], []
        for _, g in df.groupby("_cell", sort=False):
            hm = g["_home"].to_numpy() == 1
            if not hm.any():
                continue
            ib = g[id_col].to_numpy()
            lb, gb = g["lat"].to_numpy(), g["lon"].to_numpy()
            ia, la, ga = ib[hm], lb[hm], gb[hm]
            dlat = la[:, None] - lb[None, :]
            dlon = ga[:, None] - gb[None, :]
            m = (dlat * dlat + dlon * dlon) <= eps2
            ai, bj = np.nonzero(m)
            pa_, pb_ = ia[ai], ib[bj]
            keep = pa_ != pb_
            pas.append(pa_[keep])
            pbs.append(pb_[keep])
        if not pas:
            return pd.DataFrame({"pa": pd.Series([], dtype=np.int64),
                                 "pb": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({"pa": np.concatenate(pas),
                             "pb": np.concatenate(pbs)})

    rep = points_ds.map_batches(_replicate, batch_format="pyarrow")
    return rep.groupby("_b").map_groups(_pairs_in_bucket,
                                        batch_format="pandas")


def grid_dbscan(points_ds, eps: float, min_pts: int,
                id_col: str = "doc_id", num_buckets: int = 32):
    """-> Dataset (doc_id, cluster, is_core[0/1]); noise excluded."""
    from ray.data.aggregate import Count, Max, Min

    from ..functions.joins import bucketed_hash_join
    from ..functions.components import dup_components

    pairs = dbscan_pairs(points_ds, eps, num_buckets=num_buckets,
                         id_col=id_col).materialize()

    def _core_flags(b: pa.Table) -> pa.Table:
        # in-map filter keeps the block schema typed even when NO point
        # is core (a filter(expr=...) over an empty result loses the
        # schema and breaks the downstream joins)
        ids = b.column("pa").to_numpy().astype(np.int64)
        keep = b.column("_c").to_numpy() + 1 >= min_pts
        n = int(keep.sum())
        return pa.table({"_cid": pa.array(ids[keep], pa.int64()),
                         "_core": pa.array(np.ones(n, np.int8))})

    cnt = pairs.groupby("pa").aggregate(Count(alias_name="_c"))
    core = cnt.map_batches(_core_flags,
                           batch_format="pyarrow").materialize()

    import ray.data as rd

    def _typed_empty():
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "is_core": pa.array([], pa.int64())}))

    # a fully-empty upstream loses its schema through groupbys/joins
    # (no blocks -> Unknown schema), so the two legitimately-empty
    # topologies exit early with typed results: no cores at all, and
    # cores without any neighbor pair (min_pts=1 singletons)
    if core.count() == 0:
        return _typed_empty()

    # rows of `pairs` whose CANDIDATE endpoint is core (inner join
    # against the pre-filtered core set — no null-padded left joins,
    # which upcast int flags per-bucket; see functions/joins.py notes)
    edges = bucketed_hash_join(pairs, core, "pb", "_cid",
                               num_buckets=num_buckets).materialize()
    # edges: (_key=pb[core], pa, _core=1)
    if edges.count() == 0:
        return core.map_batches(
            lambda b: pa.table({
                "doc_id": pc.cast(b.column("_cid"), pa.int64()),
                "cluster": pc.cast(b.column("_cid"), pa.int64()),
                "is_core": pa.array(np.ones(len(b), np.int64))}),
            batch_format="pyarrow")

    cc = bucketed_hash_join(
        edges.map_batches(
            lambda b: pa.table({"id_b": pc.cast(b.column("_key"), pa.int64()),
                                "id_a": pc.cast(b.column("pa"), pa.int64())}),
            batch_format="pyarrow"),
        core.map_batches(
            lambda b: pa.table({"_cid2": b.column("_cid"),
                                "_ca": b.column("_core")}),
            batch_format="pyarrow"),
        "id_a", "_cid2", num_buckets=num_buckets).map_batches(
        lambda b: pa.table({"id_a": pc.cast(b.column("_key"), pa.int64()),
                            "id_b": pc.cast(b.column("id_b"), pa.int64())}),
        batch_format="pyarrow")

    comp = dup_components(cc)  # (doc_id, component) for edge-bearing cores

    # singleton cores (no core neighbor) label themselves; union +
    # groupby-min keeps the same one-shuffle idiom
    comp_all = comp.map_batches(
        lambda b: pa.table({"_cid": pc.cast(b.column("doc_id"), pa.int64()),
                            "_lbl": pc.cast(b.column("component"),
                                            pa.int64())}),
        batch_format="pyarrow").union(
        core.map_batches(
            lambda b: pa.table({"_cid": b.column("_cid"),
                                "_lbl": b.column("_cid")}),
            batch_format="pyarrow"))
    comp_all = comp_all.groupby("_cid").aggregate(
        Min("_lbl", alias_name="cluster")).materialize()

    # min core-neighbor cluster for EVERY point adjacent to a core
    # (cores included — the merge below gives their own label priority)
    bl = bucketed_hash_join(
        edges.map_batches(
            lambda b: pa.table({"bid": pc.cast(b.column("pa"), pa.int64()),
                                "nbr": pc.cast(b.column("_key"), pa.int64())}),
            batch_format="pyarrow"),
        comp_all.map_batches(
            lambda b: pa.table({"_cid4": b.column("_cid"),
                                "cluster": b.column("cluster")}),
            batch_format="pyarrow"),
        "nbr", "_cid4", num_buckets=num_buckets).groupby("bid").aggregate(
        Min("cluster", alias_name="_bl"))

    # merge core labels over border labels WITHOUT a null-padded join:
    # sentinel-encoded union + one groupby (min core label, min border
    # label, max is_core), decoded vectorized
    sent = np.int64(2**62)

    def _emit_core(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table({
            "doc_id": b.column("_cid"),
            "_cc": pc.cast(b.column("cluster"), pa.int64()),
            "_cb": pa.array(np.full(n, sent)),
            "_isc": pa.array(np.ones(n, np.int64))})

    def _emit_border(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table({
            "doc_id": pc.cast(b.column("bid"), pa.int64()),
            "_cc": pa.array(np.full(n, sent)),
            "_cb": pc.cast(b.column("_bl"), pa.int64()),
            "_isc": pa.array(np.zeros(n, np.int64))})

    merged = comp_all.map_batches(_emit_core, batch_format="pyarrow").union(
        bl.map_batches(_emit_border, batch_format="pyarrow"))
    merged = merged.groupby("doc_id").aggregate(
        Min("_cc", alias_name="_cc"), Min("_cb", alias_name="_cb"),
        Max("_isc", alias_name="_isc"))

    def _decode(b: pa.Table) -> pa.Table:
        isc = b.column("_isc").to_numpy().astype(np.int64)
        cc_ = b.column("_cc").to_numpy()
        cb_ = b.column("_cb").to_numpy()
        return pa.table({
            "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            "cluster": pa.array(np.where(isc == 1, cc_, cb_), pa.int64()),
            "is_core": pa.array(isc)})

    return merged.map_batches(_decode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Per-cell convex hulls
# ---------------------------------------------------------------------------

def _monotone_chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain over INTEGER coordinates; returns indices
    of hull VERTICES only (strict turns — collinear boundary points are
    dropped). Integer cross products make the orientation predicate
    exact, so the chain agrees with the SQL Caratheodory oracle on
    every degenerate input (exact collinearity is COMMON here: the
    geocode map is affine in doc_id)."""
    n = len(x)
    if n <= 2:
        return np.arange(n)
    order = np.lexsort((y, x))

    def cross(o, a, b):
        return (x[a] - x[o]) * (y[b] - y[o]) - (y[a] - y[o]) * (x[b] - x[o])

    def half(idx):
        h = []
        for i in idx:
            while len(h) >= 2 and cross(h[-2], h[-1], i) <= 0:
                h.pop()
            h.append(i)
        return h

    lower = half(order)
    upper = half(order[::-1])
    return np.unique(np.array(lower[:-1] + upper[:-1], dtype=np.int64))


def cell_convex_hulls(pts_ds, nx: int = 8, ny: int = 8):
    """Convex hull VERTEX set of the point cloud inside every occupied
    (nx x ny) lon/lat grid cell, on the microdegree integer grid
    (ix = floor(lon*1e6 + 0.5), iy likewise) — snapping makes every
    geometric predicate exact int64 arithmetic, bit-reproducible
    against SQL regardless of expression order.

    Exact-coordinate duplicates collapse to the min doc_id first (a
    duplicated corner would otherwise be vertex-or-not ambiguous).
    Cells are independent — one groupby, then a vectorized monotone
    chain per cell group; hull output is ~O(log n) vertices per cell,
    so hot metro cells stay bounded.

    Output: (cell_x, cell_y, doc_id, ix, iy) — one row per vertex.
    """

    def _cells(b: pa.Table) -> pa.Table:
        lat = b.column("lat").to_numpy()
        lon = b.column("lon").to_numpy()
        cx = np.floor((lon + 180.0) / 360.0 * nx).astype(np.int64)
        cy = np.floor((90.0 - lat) / 180.0 * ny).astype(np.int64)
        ix = np.floor(lon * 1e6 + 0.5).astype(np.int64)
        iy = np.floor(lat * 1e6 + 0.5).astype(np.int64)
        return pa.table({"cell_x": pa.array(cx), "cell_y": pa.array(cy),
                         "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                         "ix": pa.array(ix), "iy": pa.array(iy)})

    def _hull(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        g = g.drop_duplicates(["ix", "iy"], keep="first")
        idx = _monotone_chain(g["ix"].to_numpy(), g["iy"].to_numpy())
        out = g.iloc[idx]
        return out[["cell_x", "cell_y", "doc_id", "ix", "iy"]]

    return pts_ds.map_batches(_cells, batch_format="pyarrow") \
        .groupby(["cell_x", "cell_y"]) \
        .map_groups(_hull, batch_format="pandas")
