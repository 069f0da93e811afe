"""Similarity search: cosine top-k over embeddings + spatial kNN.

Two operator families (north rule "kNN lookups executed via actor pools
holding pinned spatial indexes"; task brief "Similarity search"):

- ``CosineTopK``: actor-pool stage; each actor pins the unit-normalized
  corpus matrix from a ``ray.put`` handle ONCE in ``__init__`` and
  answers query batches with a blocked matmul + argpartition top-k.
  Baseline brute force; the IVF-style scale path is
  ``cosine_topk_ivf`` (coarse k-means buckets, probe best ones).
- ``knn_haversine``: the one spatial kNN. Each actor pins the point
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
import pyarrow.compute as pc

from . import cells as cellmod

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    la1, lo1, la2, lo2 = map(np.radians, (lat1, lon1, lat2, lon2))
    dlat = la2 - la1
    dlon = lo2 - lo1
    a = np.sin(dlat / 2) ** 2 + np.cos(la1) * np.cos(la2) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def normalized_matrix(df: pd.DataFrame, id_col: str, vec_col: str):
    ids = df[id_col].to_numpy()
    mat = np.vstack(df[vec_col].to_numpy()).astype(np.float64)
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    return ids, mat


def _empty_topk_table() -> pa.Table:
    return pa.table({
        "query_id": pa.array([], pa.int64()),
        "neighbor_id": pa.array([], pa.int64()),
        "cosine": pa.array([], pa.float64()),
        "rank": pa.array([], pa.int32()),
    })


def _topk_rows(qids: np.ndarray, sims: np.ndarray, cand_ids: np.ndarray,
               k: int) -> pa.Table:
    """Fully vectorized per-row top-k over a (B, N) sims matrix:
    argpartition along axis 1, then ONE global lexsort orders every
    row's k hits (similarity desc, id asc) — no per-query Python loop.
    Semantics match the former loop exactly, including -inf self-masked
    entries surfacing when k reaches N."""
    B = sims.shape[0]
    if k <= 0 or B == 0:
        return _empty_topk_table()
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]      # (B, k)
    vals = np.take_along_axis(sims, top, axis=1)
    nbr = cand_ids[top]
    rows = np.repeat(np.arange(B), k)
    # lexsort: primary row, then sim desc, then neighbor id asc
    order = np.lexsort((nbr.ravel(), -vals.ravel(), rows))
    return pa.table({
        "query_id": pa.array(np.asarray(qids, dtype=np.int64)[rows],
                             pa.int64()),
        "neighbor_id": pa.array(nbr.ravel()[order], pa.int64()),
        "cosine": pa.array(vals.ravel()[order], pa.float64()),
        "rank": pa.array(np.tile(np.arange(1, k + 1, dtype=np.int32), B),
                         pa.int32()),
    })


class CosineTopK:
    """Actor-pool callable: top-k cosine neighbors per query row.

    Construct with ``fn_constructor_kwargs=dict(corpus_ref=ray.put((ids,
    unit_matrix)), k=...)`` so every actor fetches the corpus from the
    object store once (zero-copy numpy view), not per batch.
    """

    def __init__(self, corpus_ref, k: int = 5, exclude_self: bool = True):
        import ray
        self.ids, self.mat = ray.get(corpus_ref)
        self.k = k
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch.column("query_id").to_numpy()
        if not len(qids):
            return _empty_topk_table()
        vecs = np.vstack([np.asarray(v, dtype=np.float64)
                          for v in batch.column("embedding").to_pylist()])
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        sims = vecs @ self.mat.T                      # (B, N)
        if self.exclude_self:
            sims[self.ids[None, :] == qids[:, None]] = -np.inf
        return _topk_rows(qids, sims, self.ids, min(self.k, sims.shape[1]))


# Above this corpus row count cosine_topk's brute-force broadcast (the
# whole corpus on the driver, then pinned per actor) auto-routes to the
# distributed IVF build — same contract as EMBEDDING_EXACT_ROW_LIMIT in
# stages/dedup.py. Tests monkeypatch it to force the scale path.
CORPUS_BROADCAST_ROW_LIMIT = 1_000_000


def cosine_topk(queries_ds, corpus_ds, k: int = 5,
                id_col: str = "vec_id", vec_col: str = "embedding",
                concurrency: int = 4, exclude_self: bool = True,
                nlist: int = 64):
    """Brute-force cosine top-k: broadcast corpus, actor-pool matmul.

    SIZE-GUARDED: corpora above ``CORPUS_BROADCAST_ROW_LIMIT`` rows
    never touch the driver — the call auto-routes to ``cosine_topk_ivf``
    with a FULL probe, which is exact (probing every bucket makes IVF a
    pure partition of the corpus; proven by
    test_ivf_distributed_build_full_probe_is_exact) so results are
    identical on both paths. Callers that can accept approximate results
    at scale should call ``cosine_topk_ivf`` with a small ``nprobe`` or
    ``cosine_topk_lsh`` (no corpus pin at all) directly."""
    import ray

    if corpus_ds.count() > CORPUS_BROADCAST_ROW_LIMIT:
        return cosine_topk_ivf(queries_ds, corpus_ds, k=k, id_col=id_col,
                               vec_col=vec_col, concurrency=concurrency,
                               exclude_self=exclude_self, nlist=nlist)

    corpus = corpus_ds.select_columns([id_col, vec_col]).to_pandas()
    ref = ray.put(normalized_matrix(corpus, id_col, vec_col))
    # rename via an Arrow map_batches (Dataset.rename_columns' Project op
    # fails on pandas-backed blocks in ray 2.49)
    q = queries_ds.map_batches(
        lambda b: pa.table({"query_id": b.column(id_col),
                            "embedding": b.column(vec_col)}),
        batch_format="pyarrow")
    # autoscaling pool (1, n): a fixed pool of n pinned actors can
    # reserve every CPU at low parallelism and starve the upstream read
    # tasks (observed deadlock at 4 CPUs); min=1 keeps the pipeline live
    return q.map_batches(
        CosineTopK, batch_format="pyarrow",
        fn_constructor_kwargs=dict(corpus_ref=ref, k=k,
                                   exclude_self=exclude_self),
        concurrency=(1, concurrency), batch_size=256,
    )


def cosine_topk_ivf(queries_ds, corpus_ds, k: int = 5,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    concurrency: int = 4, exclude_self: bool = True,
                    nlist: int = 64, nprobe: int | None = None):
    """IVF top-k with the DISTRIBUTED index build (nothing corpus-sized
    on the driver: k-means via map_batches partials, corpus blocks stay
    in the object store, actors assemble buckets worker-side).

    ``nprobe=None`` probes EVERY bucket — exact, equal to brute force —
    which is what the ``cosine_topk`` auto-route uses to keep results
    path-independent; pass a small ``nprobe`` for the approximate
    ~nprobe/nlist-of-the-scan trade. Note each actor still pins the
    assembled corpus worker-side; for a fully pin-free plan use
    ``cosine_topk_lsh``."""
    import ray

    index = build_ivf_index_distributed(corpus_ds, id_col, vec_col,
                                        nlist=nlist)
    if nprobe is None:
        nprobe = len(index[0])              # full probe = exact
    ref = ray.put(index)
    q = queries_ds.map_batches(
        lambda b: pa.table({"query_id": b.column(id_col),
                            "embedding": b.column(vec_col)}),
        batch_format="pyarrow")
    return q.map_batches(
        CosineTopKIVF, batch_format="pyarrow",
        fn_constructor_kwargs=dict(index_ref=ref, k=k, nprobe=nprobe,
                                   exclude_self=exclude_self),
        concurrency=(1, concurrency), batch_size=256,
    )


class CosineTopKIVF:
    """IVF variant: corpus pre-bucketed by coarse centroid; actors probe
    the ``nprobe`` nearest buckets only (the 100-TB path: each probe
    touches ~N*nprobe/nlist rows instead of N)."""

    def __init__(self, index_ref, k: int = 5, nprobe: int = 4,
                 exclude_self: bool = True):
        import ray
        # index = (centroids, [Arrow block refs]) from
        # build_ivf_index_distributed: the corpus blocks live in the
        # OBJECT STORE; each actor assembles its pinned buckets here,
        # once, worker-side (nothing corpus-sized ever touched the driver)
        self.centroids, block_refs = ray.get(index_ref)
        ids_parts, mat_parts, asg_parts = [], [], []
        for t in ray.get(list(block_refs)):
            if not len(t):
                continue
            ids_parts.append(t.column("id").to_numpy().astype(np.int64))
            mat_parts.append(_flat_matrix(t.column("vec")))
            asg_parts.append(t.column("bucket").to_numpy().astype(np.int64))
        ids = np.concatenate(ids_parts) if ids_parts \
            else np.empty(0, dtype=np.int64)
        mat = np.vstack(mat_parts) if mat_parts else np.empty((0, 0))
        asg = np.concatenate(asg_parts) if asg_parts \
            else np.empty(0, dtype=np.int64)
        self.bucket_ids = [ids[asg == c] for c in range(len(self.centroids))]
        self.bucket_mats = [mat[asg == c] for c in range(len(self.centroids))]
        self.k = k
        self.nprobe = nprobe
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch.column("query_id").to_numpy()
        if not len(qids):
            return _empty_topk_table()
        vecs = np.vstack([np.asarray(v, dtype=np.float64)
                          for v in batch.column("embedding").to_pylist()])
        vecs /= np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
        cent_sims = vecs @ self.centroids.T
        # queries sharing a probe set run ONE blocked matmul + the
        # vectorized top-k (clustered query workloads collapse to a
        # handful of groups; worst case = former per-query behavior)
        probes = np.sort(np.argpartition(-cent_sims, self.nprobe - 1,
                                         axis=1)[:, :self.nprobe], axis=1) \
            if self.nprobe < cent_sims.shape[1] \
            else np.tile(np.arange(cent_sims.shape[1]), (len(qids), 1))
        uniq, inv = np.unique(probes, axis=0, return_inverse=True)
        parts = []
        for u, pr in enumerate(uniq):
            qsel = np.nonzero(inv == u)[0]
            cand_ids = np.concatenate([self.bucket_ids[p] for p in pr])
            cand_mat = np.vstack([self.bucket_mats[p] for p in pr])
            sims = vecs[qsel] @ cand_mat.T
            if self.exclude_self:
                sims[cand_ids[None, :] == qids[qsel][:, None]] = -np.inf
            parts.append(_topk_rows(qids[qsel], sims, cand_ids,
                                    min(self.k, sims.shape[1])))
        return pa.concat_tables(parts)


def _flat_matrix(col) -> np.ndarray:
    """list<float> / tensor column -> (n, d) float64 (offset-aware)."""
    from .dedup import vec_column_matrix
    return vec_column_matrix(col)


def kmeans_fit_distributed(norm_ds, nlist: int = 16, iters: int = 8):
    """Distributed spherical k-means over a materialized Dataset of
    (id, vec UNIT rows): each iteration is one map_batches pass emitting
    per-centroid partial sums + counts (nlist x dim floats per BATCH,
    independent of N), reduced on the driver into new centroids. The
    driver holds only the (nlist, dim) centroid matrix — never the
    corpus (the round-2 IVF build's ``to_pandas()`` is gone).

    Init: first ``nlist`` rows (deterministic; ``limit`` reads one
    block, not the corpus)."""
    import ray

    seed_df = norm_ds.limit(nlist).to_pandas()
    cent = np.vstack(seed_df["vec"].to_numpy()).astype(np.float64)
    for _ in range(iters):
        cent_ref = ray.put(cent)

        def _partial(b: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            mat = _flat_matrix(b.column("vec"))
            if not len(mat):
                return pa.table({"c": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64()),
                                 "s": pa.array([], pa.list_(pa.float64()))})
            a = np.argmax(mat @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, a, mat)
            counts = np.bincount(a, minlength=len(c)).astype(np.int64)
            return pa.table({
                "c": pa.array(np.arange(len(c), dtype=np.int64)),
                "n": pa.array(counts),
                "s": pa.array(list(sums), pa.list_(pa.float64())),
            })

        # partials are nlist rows per batch — bounded, driver-safe
        p = norm_ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
        counts = np.zeros(len(cent), dtype=np.int64)
        sums = np.zeros_like(cent)
        np.add.at(counts, p["c"].to_numpy(), p["n"].to_numpy())
        np.add.at(sums, p["c"].to_numpy(), np.vstack(p["s"].to_numpy()))
        nz = counts > 0
        cent[nz] = sums[nz] / np.maximum(
            np.linalg.norm(sums[nz], axis=1, keepdims=True), 1e-12)
    return cent


def build_ivf_index_distributed(corpus_ds, id_col: str, vec_col: str,
                                nlist: int = 16, iters: int = 8):
    """IVF index without driver-side corpus materialization: distributed
    k-means fit, then one assignment pass whose (bucket, id, vec) Arrow
    blocks STAY in the object store (``to_arrow_refs``). Returns
    (centroids, block_refs) — pass through ``ray.put`` to
    ``CosineTopKIVF``, whose actors assemble their pinned buckets
    worker-side. The driver touches only (nlist x dim) centroids and a
    list of refs."""
    def _norm(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column(id_col), pa.int64()).to_numpy()
        mat = _flat_matrix(b.column(vec_col))
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        return pa.table({"id": pa.array(ids, pa.int64()),
                         "vec": pa.array(list(mat), pa.list_(pa.float64()))})

    norm = corpus_ds.map_batches(_norm, batch_format="pyarrow").materialize()
    cent = kmeans_fit_distributed(norm, nlist=nlist, iters=iters)

    import ray
    cent_ref = ray.put(cent)

    def _assign(b: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        mat = _flat_matrix(b.column("vec"))
        a = np.argmax(mat @ c.T, axis=1) if len(mat) \
            else np.empty(0, dtype=np.int64)
        return b.append_column("bucket", pa.array(a.astype(np.int64)))

    assigned = norm.map_batches(_assign, batch_format="pyarrow").materialize()
    return cent, assigned.to_arrow_refs()


# ---------------------------------------------------------------------------
# Spatial kNN (haversine, cell-bucketed candidates)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (shuffle path: corpus is never broadcast)
# ---------------------------------------------------------------------------

def _lsh_planes(num_tables: int, num_bits: int, dim: int,
                seed: int) -> np.ndarray:
    """Deterministic random hyperplanes, shape (tables, bits, dim)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((num_tables, num_bits, dim))


def _lsh_explode(side: int, id_col: str, vec_col: str, planes: np.ndarray):
    """map_batches fn: one output row per (input row, hash table) with a
    sign-bit bucket key. Vectors are unit-normalized here so the
    per-bucket scoring is a plain dot product."""
    num_tables, num_bits, _ = planes.shape
    weights = (1 << np.arange(num_bits)).astype(np.int64)

    def _f(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy().astype(np.int64)
        mat = np.vstack([np.asarray(v, dtype=np.float64)
                         for v in b.column(vec_col).to_pylist()])
        mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        n = len(ids)
        out_tab, out_bucket = [], []
        for t in range(num_tables):
            bits = (mat @ planes[t].T) > 0          # (n, bits)
            out_bucket.append(bits.astype(np.int64) @ weights)
            out_tab.append(np.full(n, t, dtype=np.int32))
        reps = num_tables
        return pa.table({
            "table": pa.array(np.concatenate(out_tab)),
            "bucket": pa.array(np.concatenate(out_bucket)),
            "_side": pa.array(np.full(n * reps, side, dtype=np.int8)),
            "item_id": pa.array(np.tile(ids, reps)),
            "vec": pa.array(list(np.tile(mat, (reps, 1))),
                            pa.list_(pa.float64())),
        })
    return _f


def cosine_topk_lsh(queries_ds, corpus_ds, k: int = 5,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    dim: int = 64, num_tables: int = 8, num_bits: int = 10,
                    seed: int = 23, exclude_self: bool = True):
    """Approximate cosine top-k via random-hyperplane LSH, fully
    distributed: NO side is broadcast (contrast ``cosine_topk`` /
    ``CosineTopKIVF``, which pin the corpus per actor). The scale path
    when the corpus itself is too large for any worker's heap:

    1. both sides explode into ``num_tables`` (table, sign-bucket) keys,
    2. ONE groupby co-locates each bucket's queries with its candidates
       (shuffle volume = rows x tables x vector bytes; bucket count
       ``2^num_bits`` bounds group size, raise bits for hotter data),
    3. per-group exact dot-product local top-k,
    4. a final small groupby on query_id merges across tables.

    Deterministic: fixed seed, (sim desc, id asc) tie-break.
    """
    planes = _lsh_planes(num_tables, num_bits, dim, seed)

    q = queries_ds.map_batches(
        _lsh_explode(0, id_col, vec_col, planes), batch_format="pyarrow")
    c = corpus_ds.map_batches(
        _lsh_explode(1, id_col, vec_col, planes), batch_format="pyarrow")

    def _bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["_side"] == 0]
        cs = g[g["_side"] == 1]
        if qs.empty or cs.empty:
            return pd.DataFrame({"query_id": pd.array([], dtype=np.int64),
                                 "neighbor_id": pd.array([], dtype=np.int64),
                                 "cosine": pd.array([], dtype=np.float64)})
        qm = np.vstack(qs["vec"].to_numpy())
        cm = np.vstack(cs["vec"].to_numpy())
        qids = qs["item_id"].to_numpy(dtype=np.int64)
        cids = cs["item_id"].to_numpy(dtype=np.int64)
        sims = qm @ cm.T                              # (nq, nc)
        rows_q, rows_n, rows_s = [], [], []
        for i in range(len(qids)):
            s = sims[i]
            mask = np.ones(len(cids), dtype=bool)
            if exclude_self:
                mask &= cids != qids[i]
            idx = np.nonzero(mask)[0]
            if not len(idx):
                continue
            kk = min(k, len(idx))
            top = idx[np.argpartition(-s[idx], kk - 1)[:kk]]
            rows_q.extend([qids[i]] * kk)
            rows_n.extend(cids[top].tolist())
            rows_s.extend(s[top].tolist())
        return pd.DataFrame({"query_id": rows_q, "neighbor_id": rows_n,
                             "cosine": rows_s})

    local = q.union(c).groupby(["table", "bucket"]).map_groups(
        _bucket_topk, batch_format="pandas")

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        # same (query, neighbor) pair may surface from several tables
        g = g.drop_duplicates(subset=["neighbor_id"])
        g = g.sort_values(["cosine", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int32)
        return g[["query_id", "neighbor_id", "cosine", "rank"]]

    return local.groupby("query_id").map_groups(_merge, batch_format="pandas")
