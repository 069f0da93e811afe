"""Distributed joins: broadcast (small side) and bucketed hash (both large).

Patterns per the Ray Data guidance (ray_guide "Joins and lookups"):

- small side -> broadcast: ``ray.put`` the lookup once, map over the big
  side (``broadcast_lookup`` — vectorized searchsorted probe, no Python
  loop, no shuffle).
- both sides large -> ONE-shuffle partitioned hash join: tag each side,
  union the two datasets under a common nullable schema, group by the
  key-hash bucket, and pandas-merge the two sides inside each group.
  Every row moves exactly once; bucket count bounds reducer memory and
  is derived from the input size estimate (``_auto_buckets``) unless
  pinned. Hot join keys can be pre-salted on the probe side with the
  same mechanism as geoflow.stages.skew (replicate the build rows per
  salt).

``bucketed_hash_join`` is the portable engine operator;
``Dataset.join`` exists in recent Ray but its semantics/layout are
version-dependent — the explicit form keeps behavior pinned.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _mix64(keys: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: mixes high bits into low bits so that a
    power-of-two bucket modulo sees the whole key, not just ``key mod
    2^k`` (a bare ``key * odd_const % 2^k`` is a bijection on the low k
    bits — key sets sharing low bits would collapse into one reducer)."""
    h = keys.astype(np.uint64, copy=True)
    h += np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _mix_cols(*cols) -> np.ndarray:
    """Combine int columns into one well-mixed uint64 (splitmix-style)."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        h ^= np.asarray(c).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15) \
            + (h << np.uint64(6)) + (h >> np.uint64(2))
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    return h


def estimate_size_bytes(ds) -> int | None:
    """Cheap size estimate from the logical plan's metadata — walks the
    DAG down to the datasource if needed and NEVER triggers execution
    (``Dataset.size_bytes()`` executes the plan when metadata is
    missing, which would double-run a lazy pipeline)."""
    try:
        dag = ds._logical_plan.dag
    except Exception:
        return None

    def _walk(op):
        try:
            m = op.infer_metadata()
            if m.size_bytes is not None:
                return m.size_bytes
        except Exception:
            pass
        sizes = [_walk(dep)
                 for dep in getattr(op, "input_dependencies", [])]
        sizes = [s for s in sizes if s]
        return sum(sizes) if sizes else None

    try:
        return _walk(dag)
    except Exception:
        return None


def _auto_buckets(left_ds, right_ds, target_bytes: int = 64 << 20,
                  lo: int = 16, hi: int = 4096) -> int:
    """Bucket count ~ total input bytes / 64 MiB, clamped to [16, 4096]
    and rounded up to a power of two: buckets bound reducer memory AND
    cap reducer parallelism, so both must scale with the input."""
    total = 0
    for ds in (left_ds, right_ds):
        sz = estimate_size_bytes(ds)
        total += sz or 0
    if total <= 0:
        return 64
    want = max(1, total // target_bytes)
    return int(min(hi, max(lo, 1 << int(want - 1).bit_length())))


def _tag_side(side: int, key_col: str, out_key: str, num_buckets: int,
              all_cols: list[str]):
    def _f(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).to_numpy().astype(np.int64)
        bucket = (_mix64(keys) % np.uint64(num_buckets)).astype(np.int32)
        cols = {
            out_key: pa.array(keys, pa.int64()),
            "_bucket": pa.array(bucket, pa.int32()),
            "_side": pa.array(np.full(len(keys), side, dtype=np.int8)),
        }
        for c in all_cols:
            if c in b.column_names:
                cols[c] = b.column(c)
            else:
                cols[c] = pa.nulls(len(keys))
        return pa.table(cols)
    return _f


def bucketed_hash_join(left_ds, right_ds, left_key: str, right_key: str,
                       num_buckets: int | None = None, how: str = "inner"):
    """Inner/left join of two large Datasets on int64 keys.

    Output columns: ``_key`` + all non-key columns of both sides.
    One groupby shuffle total; within each bucket group a pandas merge
    joins the two sides. ``num_buckets=None`` derives the bucket count
    from the input size estimate.
    """
    if num_buckets is None:
        num_buckets = _auto_buckets(left_ds, right_ds)
    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    left_cols = [c for c in left_schema.names if c != left_key]
    right_cols = [c for c in right_schema.names if c != right_key]
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"column collision: {overlap}")
    all_cols = left_cols + right_cols
    # target dtypes: the union pads the other side's columns with nulls,
    # which turns int columns float in pandas — restore after the merge.
    # A side may carry a PandasBlockSchema (e.g. the output of a
    # previous bucketed join feeding a chained one): its types are
    # numpy dtypes, mapped through from_numpy_dtype when possible.
    def _atype(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (TypeError, pa.ArrowNotImplementedError):
            return pa.null()

    arrow_types = {}
    for name, t in zip(left_schema.names, left_schema.types):
        arrow_types[name] = _atype(t)
    for name, t in zip(right_schema.names, right_schema.types):
        arrow_types[name] = _atype(t)
    int_cols = [c for c in all_cols
                if pa.types.is_integer(arrow_types.get(c, pa.null()))]

    tagged_left = left_ds.map_batches(
        _tag_side(0, left_key, "_key", num_buckets, all_cols),
        batch_format="pyarrow")
    tagged_right = right_ds.map_batches(
        _tag_side(1, right_key, "_key", num_buckets, all_cols),
        batch_format="pyarrow")
    unioned = tagged_left.union(tagged_right)

    def _join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lt = g[g["_side"] == 0][["_key"] + left_cols]
        rt = g[g["_side"] == 1][["_key"] + right_cols]
        out = lt.merge(rt, on="_key", how=how)
        for c in int_cols:
            if c in out.columns and out[c].notna().all():
                out[c] = out[c].astype(np.int64)
        return out

    return unioned.groupby("_bucket").map_groups(
        _join_bucket, batch_format="pandas")


def broadcast_lookup(ds, key_col: str, lookup_keys: np.ndarray,
                     lookup_values: np.ndarray, out_col: str,
                     drop_missing: bool = False):
    """Map a key column through a small broadcast lookup, vectorized.

    The (sorted-keys, values) arrays go into the object store ONCE via
    ``ray.put`` and every map task probes them with ``np.searchsorted``
    — no per-row Python, no O(rows) driver dict pickled into closures.
    Missing keys raise unless ``drop_missing`` (then rows are filtered).
    """
    import ray

    order = np.argsort(lookup_keys, kind="stable")
    sk = np.ascontiguousarray(np.asarray(lookup_keys)[order])
    sv = np.asarray(lookup_values)[order]
    ref = ray.put((sk, sv))

    def _probe(b: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        k = b.column(key_col).to_numpy().astype(keys.dtype, copy=False)
        idx = np.searchsorted(keys, k)
        idx_c = np.clip(idx, 0, len(keys) - 1)
        hit = keys[idx_c] == k
        if not hit.all():
            if drop_missing:
                b = b.filter(pa.array(hit))
                idx_c = idx_c[hit]
            else:
                missing = np.asarray(k)[~hit][:5]
                raise KeyError(f"lookup miss for keys {missing.tolist()}")
        return b.append_column(out_col, pa.array(vals[idx_c]))

    return ds.map_batches(_probe, batch_format="pyarrow")


def broadcast_semi_join(ds, key_col: str, keys: np.ndarray,
                        anti: bool = False):
    """Semi/anti join against a broadcast key set — ``np.isin`` on the
    key array per batch (vectorized), keyset shipped via ``ray.put``."""
    import ray

    ref = ray.put(np.sort(np.asarray(keys)))

    def _filter(b: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        k = b.column(key_col).to_numpy().astype(ks.dtype, copy=False)
        idx = np.searchsorted(ks, k)
        idx_c = np.clip(idx, 0, max(len(ks) - 1, 0))
        hit = (ks[idx_c] == k) if len(ks) else np.zeros(len(k), dtype=bool)
        return b.filter(pa.array(~hit if anti else hit))

    return ds.map_batches(_filter, batch_format="pyarrow")


def broadcast_asof_lookup(left_ds, right_df: "pd.DataFrame",
                          key: tuple[str, str], on: tuple[str, str],
                          right_cols: list[str], tiebreak: str):
    """Backward as-of against a BROADCAST right side — the size-guarded
    fast path of ``grouped_asof_join`` (same semantics: per left row the
    right row with max (right_on, tiebreak) s.t. key matches and
    right_on <= left_on; inner — misses drop).

    Zero shuffle: the right side is sorted ONCE by (key, on, tiebreak),
    encoded as ``key * (distinct_ts + 1) + ts_rank`` (order-preserving
    within the sort, so ONE vectorized ``searchsorted`` with
    side='right' lands on each probe's winning row — the tie group's
    last row IS the max-tiebreak match), and shipped via ``ray.put``.
    Every left batch probes it with two searchsorted calls and no
    per-row Python. Falls back is the caller's job (use
    ``grouped_asof_join`` above the broadcast limit or if the encode
    would overflow int64 — asserted here).
    """
    import ray

    left_key, right_key = key
    left_on, right_on = on
    r = right_df.sort_values([right_key, right_on, tiebreak],
                             kind="mergesort")
    rk = r[right_key].to_numpy(dtype=np.int64)
    rts = r[right_on].to_numpy(dtype="datetime64[us]").view("int64")
    uts = np.unique(rts)
    m = len(uts) + 1
    if len(rk) and int(rk.max()) >= (2 ** 63 - 1) // max(m, 1):
        raise OverflowError(
            "key * ts-rank encode exceeds int64 — use grouped_asof_join")
    enc_r = rk * m + (np.searchsorted(uts, rts) + 1)
    carried = {c: r[c].to_numpy() for c in right_cols}
    ref = ray.put((rk, enc_r, uts, carried))

    def _probe(b: pa.Table) -> pa.Table:
        rk_, enc_r_, uts_, carried_ = ray.get(ref)
        k = b.column(left_key).to_numpy().astype(np.int64)
        t = b.column(left_on).to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view("int64")
        t_rank = np.searchsorted(uts_, t, side="right")
        enc_l = k * (len(uts_) + 1) + t_rank
        idx = np.searchsorted(enc_r_, enc_l, side="right") - 1
        idx_c = np.clip(idx, 0, max(len(rk_) - 1, 0))
        hit = (idx >= 0) & (rk_[idx_c] == k) if len(rk_) \
            else np.zeros(len(k), dtype=bool)
        out = b.filter(pa.array(hit))
        sel = idx_c[hit]
        for c in right_cols:
            out = out.append_column(c, pa.array(carried_[c][sel]))
        return out

    return left_ds.map_batches(_probe, batch_format="pyarrow")


def grouped_asof_join(left_ds, right_ds, key: tuple[str, str],
                      on: tuple[str, str], left_cols: list[str],
                      right_cols: list[str], tiebreak: str,
                      num_buckets: int | None = None):
    """Distributed backward as-of join (Ray Data has no native one).

    For every left row, pick the single right row with the same key and
    the greatest ``right_on <= left_on`` (ties on ``right_on`` broken by
    the greatest ``tiebreak`` value, so the result is deterministic).
    Inner semantics: left rows with no match are dropped. ``right_on``
    IS preserved in the output when listed in ``right_cols`` (carried
    through a shadow column around pandas.merge_asof, which consumes the
    on-column).

    Same one-shuffle layout as ``bucketed_hash_join``: both sides are
    tagged with a key-hash bucket, unioned, and each bucket group runs a
    vectorized ``pandas.merge_asof(by=key)`` — per-key state never
    leaves a reducer, and the shuffle moves each row exactly once.
    Partitioning assumption: all rows of one key land in one bucket
    group (guaranteed by hashing the key itself).
    """
    if num_buckets is None:
        num_buckets = _auto_buckets(left_ds, right_ds)
    left_key, right_key = key
    left_on, right_on = on

    lcols = [c for c in left_cols if c not in (left_key,)]
    rcols = [c for c in right_cols if c not in (right_key,)]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"column collision: {overlap}")
    # match sentinel: a right-side constant that survives merge_asof as
    # NaN exactly when no right row matched (a data column could be
    # legitimately null on a matched row)
    all_cols = lcols + rcols + ["_rhit"]

    # normalize to Arrow blocks FIRST: pandas-block datasets report ext
    # dtypes (e.g. nullable Int64) as None in schema().types, which
    # would silently drop them from int_cols and fork _empty_out dtypes
    left_ds = left_ds.map_batches(lambda b: b, batch_format="pyarrow")
    right_ds = right_ds.map_batches(lambda b: b, batch_format="pyarrow")
    left_schema = left_ds.schema()
    right_schema = right_ds.schema()
    arrow_types = {}
    for name, t in zip(left_schema.names, left_schema.types):
        arrow_types[name] = t
    for name, t in zip(right_schema.names, right_schema.types):
        arrow_types[name] = t
    out_cols = ["_key"] + lcols + rcols
    int_cols = [c for c in lcols + rcols
                if pa.types.is_integer(arrow_types.get(c, pa.null()))]

    def _add_rhit(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_rhit", pa.array(np.ones(len(b), dtype=np.int8)))

    tagged_left = left_ds.map_batches(
        _tag_side(0, left_key, "_key", num_buckets, all_cols),
        batch_format="pyarrow")
    tagged_right = right_ds.map_batches(_add_rhit, batch_format="pyarrow") \
        .map_batches(
            _tag_side(1, right_key, "_key", num_buckets, all_cols),
            batch_format="pyarrow")
    unioned = tagged_left.union(tagged_right)

    def _empty_out() -> pd.DataFrame:
        # exact post-merge column set AND dtypes (a diverging empty-case
        # schema makes Ray log schema-mismatch warnings and upcasts ints)
        data = {}
        for c in out_cols:
            t = arrow_types.get(c)
            if c == "_key":
                data[c] = pd.Series(dtype=np.int64)
            elif t is not None and pa.types.is_integer(t):
                # nullable Int64 everywhere: a bucket whose matched right
                # rows carry a legitimately-null int must emit the SAME
                # block dtype as fully-populated buckets
                data[c] = pd.Series(dtype="Int64")
            elif t is not None and pa.types.is_timestamp(t):
                data[c] = pd.Series(dtype="datetime64[us]")
            elif t is not None and pa.types.is_string(t):
                data[c] = pd.Series(dtype=object)
            else:
                data[c] = pd.Series(dtype=np.float64)
        return pd.DataFrame(data)

    def _asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lt = g[g["_side"] == 0][["_key"] + lcols].sort_values(left_on)
        rt = (g[g["_side"] == 1][["_key"] + rcols + ["_rhit"]]
              .sort_values([right_on, tiebreak], kind="mergesort"))
        if lt.empty or rt.empty:
            return _empty_out()
        if right_on in rcols:
            rt = rt.assign(**{"_ron": rt[right_on]})
        rt = rt.rename(columns={right_on: left_on})
        out = pd.merge_asof(lt, rt, on=left_on, by="_key",
                            direction="backward")
        out = out[out["_rhit"].notna()]
        if right_on in rcols:
            out = out.rename(columns={"_ron": right_on})
        out = out[out_cols]
        # dtype decided ONCE from the Arrow schema, not per-bucket data:
        # nullable Int64 keeps block schemas identical whether or not a
        # bucket's matched rows contain a null integer (Arrow renders
        # both as nullable int64)
        for c in int_cols:
            if c in out.columns:
                out[c] = out[c].astype("Int64")
        return out

    return unioned.groupby("_bucket").map_groups(
        _asof_bucket, batch_format="pandas")


def broadcast_range_join(ds, value_col: str, bands: pd.DataFrame,
                         lo_col: str = "lo", hi_col: str = "hi",
                         label_col: str = "band"):
    """Non-equi range join against a small interval table (inner).

    Each row joins the band with ``lo <= value < hi``. The band table
    (sorted, non-overlapping, gaps allowed) is broadcast into the task
    closure as three numpy arrays and probed with ``np.searchsorted`` —
    O(log bands) per row, vectorized across the batch, zero shuffle.
    This is the engine's range-join pattern: the large side streams,
    the interval index rides along (`ray.put`-style broadcast; plain
    closure capture suffices at "table of bands" size).
    """
    b = bands.sort_values(lo_col).reset_index(drop=True)
    lows = b[lo_col].to_numpy(dtype=np.float64)
    highs = b[hi_col].to_numpy(dtype=np.float64)
    if (highs[:-1] > lows[1:]).any():
        raise ValueError("bands overlap")
    labels = b[label_col].to_numpy()

    def _probe(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy().astype(np.float64)
        idx = np.searchsorted(lows, v, side="right") - 1
        ok = (idx >= 0) & (v < highs[np.clip(idx, 0, len(highs) - 1)])
        batch = batch.filter(pa.array(ok))
        hit = labels[idx[ok]]
        return batch.append_column(label_col, pa.array(hit))

    return ds.map_batches(_probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Windowed interval-join aggregate: per left row, count/sum of right
# rows with the same key inside (left_on - window, left_on]
# ---------------------------------------------------------------------------

def _window_sum_core(kl, tl, kr, tr, sums: dict, window_us: int):
    """Vectorized range-aggregate core shared by the broadcast and
    bucketed plans: right side sorted once by (key, ts) and prefix-
    summed; each left row resolves to TWO searchsorted probes on the
    order-preserving ``key * (distinct_ts + 1) + ts_rank`` encode (the
    same encode as ``broadcast_asof_lookup``), so the joined rows are
    never materialized — count = hi - lo, sum = P[hi] - P[lo]."""
    order = np.lexsort((tr, kr))
    kr_s, tr_s = kr[order], tr[order]
    uts = np.unique(tr_s)
    m = len(uts) + 1
    lim = (2 ** 63 - 1) // max(m, 1)
    # Guard BOTH sides: a left key above the limit would silently wrap
    # in `kl * m + rank` and probe the wrong positions (there is no
    # post-probe key-equality recheck here, unlike broadcast_asof_lookup).
    if len(kr_s) and int(np.abs(kr_s).max()) >= lim:
        raise OverflowError("right key * ts-rank encode exceeds int64")
    if len(kl) and int(np.abs(kl).max()) >= lim:
        raise OverflowError(
            "left key * ts-rank encode exceeds int64 "
            "(route via the grouped/bucketed window-sum path)")
    enc_r = kr_s * m + (np.searchsorted(uts, tr_s) + 1)
    pref = {c: np.concatenate([[0], np.cumsum(v[order])])
            for c, v in sums.items()}
    rank_hi = np.searchsorted(uts, tl, side="right")
    rank_lo = np.searchsorted(uts, tl - window_us, side="right")
    hi = np.searchsorted(enc_r, kl * m + rank_hi, side="right")
    lo = np.searchsorted(enc_r, kl * m + rank_lo, side="right")
    count = hi - lo
    return count, {c: p[hi] - p[lo] for c, p in pref.items()}


def broadcast_window_sum(left_ds, right_df, key: tuple[str, str],
                         on: tuple[str, str], window_us: int,
                         sum_cols: list[str], count_alias: str = "n"):
    """Per left row: count + sums of BROADCAST right rows with the same
    key and ``right_on`` in ``(left_on - window, left_on]`` — the
    sliding-window non-equi join with the aggregate pushed INTO the
    join (no pair expansion: a user with 1000 orders in the window
    costs two binary searches, not 1000 output rows). Inner semantics:
    left rows with an empty window drop. Zero shuffle; the right side
    ships once via ``ray.put``. Size-guarding is the caller's job
    (``grouped_window_sum`` is the shuffle twin above the limit)."""
    import ray

    left_key, right_key = key
    left_on, right_on = on
    kr = right_df[right_key].to_numpy(dtype=np.int64)
    tr = right_df[right_on].to_numpy(dtype="datetime64[us]").view("int64")
    sums = {c: right_df[c].to_numpy(dtype=np.int64) for c in sum_cols}
    ref = ray.put((kr, tr, sums))

    def _probe(b: pa.Table) -> pa.Table:
        kr_, tr_, sums_ = ray.get(ref)
        kl = b.column(left_key).to_numpy().astype(np.int64)
        tl = b.column(left_on).to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view("int64")
        count, agg = _window_sum_core(kl, tl, kr_, tr_, sums_, window_us)
        hit = count > 0
        out = b.filter(pa.array(hit))
        out = out.append_column(count_alias,
                                pa.array(count[hit], pa.int64()))
        for c in sum_cols:
            out = out.append_column(f"{c}_sum",
                                    pa.array(agg[c][hit], pa.int64()))
        return out

    return left_ds.map_batches(_probe, batch_format="pyarrow")


def grouped_window_sum(left_ds, right_ds, key: tuple[str, str],
                       on: tuple[str, str], window_us: int,
                       left_id_col: str, sum_cols: list[str],
                       count_alias: str = "n",
                       num_buckets: int | None = None):
    """Shuffle twin of ``broadcast_window_sum`` for right sides above
    the broadcast budget: both sides tagged with a key-hash bucket,
    unioned slim, and each bucket group runs the same searchsorted /
    prefix-sum core — per-key state never leaves its reducer, each row
    moves exactly once, and the aggregate still never materializes the
    joined pairs. Partitioning assumption: all rows of one key land in
    one bucket group (guaranteed by hashing the key itself)."""
    if num_buckets is None:
        num_buckets = _auto_buckets(left_ds, right_ds)
    left_key, right_key = key
    left_on, right_on = on

    def _slim_left(b: pa.Table) -> pa.Table:
        k = b.column(left_key).to_numpy().astype(np.int64)
        t = b.column(left_on).to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view("int64")
        cols = {
            "_k": pa.array(k), "_t": pa.array(t),
            "_id": pc.cast(b.column(left_id_col), pa.int64()),
            "_side": pa.array(np.zeros(len(k), dtype=np.int8)),
        }
        for c in sum_cols:
            cols[c] = pa.array(np.zeros(len(k), dtype=np.int64))
        bk = (_mix64(k.astype(np.uint64)) % np.uint64(num_buckets))
        cols["_b"] = pa.array(bk.astype(np.int32))
        return pa.table(cols)

    def _slim_right(b: pa.Table) -> pa.Table:
        k = b.column(right_key).to_numpy().astype(np.int64)
        t = b.column(right_on).to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view("int64")
        cols = {
            "_k": pa.array(k), "_t": pa.array(t),
            "_id": pa.array(np.zeros(len(k), dtype=np.int64)),
            "_side": pa.array(np.ones(len(k), dtype=np.int8)),
        }
        for c in sum_cols:
            cols[c] = pc.cast(b.column(c), pa.int64())
        bk = (_mix64(k.astype(np.uint64)) % np.uint64(num_buckets))
        cols["_b"] = pa.array(bk.astype(np.int32))
        return pa.table(cols)

    unioned = (left_ds.map_batches(_slim_left, batch_format="pyarrow")
               .union(right_ds.map_batches(_slim_right,
                                           batch_format="pyarrow")))

    def _bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["_side"] == 0]
        right = g[g["_side"] == 1]
        if not len(left) or not len(right):
            return pd.DataFrame({
                left_id_col: pd.Series(dtype=np.int64),
                count_alias: pd.Series(dtype=np.int64),
                **{f"{c}_sum": pd.Series(dtype=np.int64)
                   for c in sum_cols}})
        sums = {c: right[c].to_numpy(dtype=np.int64) for c in sum_cols}
        count, agg = _window_sum_core(
            left["_k"].to_numpy(dtype=np.int64),
            left["_t"].to_numpy(dtype=np.int64),
            right["_k"].to_numpy(dtype=np.int64),
            right["_t"].to_numpy(dtype=np.int64), sums, window_us)
        hit = count > 0
        out = {left_id_col: left["_id"].to_numpy()[hit],
               count_alias: count[hit]}
        for c in sum_cols:
            out[f"{c}_sum"] = agg[c][hit]
        return pd.DataFrame(out)

    return unioned.groupby("_b").map_groups(_bucket, batch_format="pandas")
