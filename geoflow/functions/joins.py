"""Distributed join of two large Datasets: the bucketed hash join.

ONE-shuffle partitioned hash join: tag each side, union the two
datasets under one common schema (each side's missing columns padded
with typed nulls), group by the key-hash bucket, and pandas-merge the
two sides inside each group. Every row moves exactly once; the bucket
count bounds reducer memory and is derived from the input size
estimate (``_auto_buckets``) unless pinned.

``bucketed_hash_join`` is the portable engine operator;
``Dataset.join`` exists in recent Ray but its semantics/layout are
version-dependent — the explicit form keeps behavior pinned.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .agg import _mix64, plan_estimate


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


def _auto_buckets(left_ds, right_ds, target_bytes: int = 64 << 20,
                  lo: int = 16, hi: int = 4096) -> int:
    """Bucket count ~ total input bytes / 64 MiB, clamped to [16, 4096]
    and rounded up to a power of two: buckets bound reducer memory AND
    cap reducer parallelism, so both must scale with the input."""
    total = 0
    for ds in (left_ds, right_ds):
        total += plan_estimate(ds)[1] or 0
    if total <= 0:
        return 64
    want = max(1, total // target_bytes)
    return int(min(hi, max(lo, 1 << int(want - 1).bit_length())))


def _tag_side(side: int, key_col: str, out_key: str, num_buckets: int,
              all_cols: list[str], arrow_types: dict):
    """map_batches fn: one side's rows -> the join's common schema.
    Columns of the other side are padded with nulls of their target
    type, so both sides' blocks carry identical schemas in the union."""
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
                cols[c] = pa.nulls(len(keys), arrow_types[c])
        return pa.table(cols)
    return _f


def bucketed_hash_join(left_ds, right_ds, left_key: str, right_key: str,
                       num_buckets: int | None = None):
    """Inner join of two large Datasets on int64 keys.

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
    # target dtypes: the union pads each side's missing columns with
    # nulls of these types, and the nulls turn int columns float in
    # pandas — restore after the merge. A side may carry a
    # PandasBlockSchema (e.g. the output of a previous bucketed join
    # feeding a chained one): its types are numpy dtypes, mapped through
    # from_numpy_dtype when possible (an object column stays untyped).
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
        _tag_side(0, left_key, "_key", num_buckets, all_cols,
                  arrow_types),
        batch_format="pyarrow")
    tagged_right = right_ds.map_batches(
        _tag_side(1, right_key, "_key", num_buckets, all_cols,
                  arrow_types),
        batch_format="pyarrow")
    unioned = tagged_left.union(tagged_right)

    def _join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lt = g[g["_side"] == 0][["_key"] + left_cols]
        rt = g[g["_side"] == 1][["_key"] + right_cols]
        out = lt.merge(rt, on="_key")
        for c in int_cols:
            if c in out.columns and out[c].notna().all():
                out[c] = out[c].astype(np.int64)
        return out

    return unioned.groupby("_bucket").map_groups(
        _join_bucket, batch_format="pandas")
