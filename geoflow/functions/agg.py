"""Pre-aggregation (combiner) helpers for shuffle-light grouped reductions.

Pattern (SURVEY.md section 7.3, ray_guide "Aggregation at scale"): a bare
``groupby(key).aggregate(...)`` shuffles every row. For algebraic
aggregates (count/sum/min/max/mean) we first collapse each *batch* to one
row per key inside ``map_batches`` (a local combine, no shuffle), then
merge the partials per key. With B batches and K distinct keys per batch
the exchange moves O(B*K) rows instead of O(N); hot keys are safe because
partials for the same key combine associatively.

One plan serves every such reduction, pages and rasters alike:

- ``combine_partials`` is the per-table Arrow combine. Stages whose rows
  are not yet flat (raster tiles) call it from their own tile kernel
  after laying out per-pixel or per-tile key/value columns;
- ``partial_group_sums`` wraps it as a ``map_batches`` fn for flat rows;
- ``merge_partials`` is the one exchange and final merge over partials
  that already exist (``grouped_count_sum`` = the two composed); each
  of its merge tasks runs ``merge_partials_local``, which a task that
  holds all of a key's partials can call on its own.

Partials have the layout ``key_cols, {c}_sum, _n, {c}_min, {c}_max``,
plus the bucket column ``_b`` when the merge runs over more than one
bucket. The combine appends ``_b`` itself, so the exchange adds no map
operator of its own and the combine keeps its operator name.

The bucket count B comes from one rule, ``bucket_count``, over a row
count read from the logical plan (``plan_estimate``) on the driver,
before anything runs; the caller passes the same B to the combine and
to ``merge_partials``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

ROWS_PER_BUCKET = 100_000   # partial rows per merge task (see bucket_count)


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


def plan_estimate(ds) -> tuple[int | None, int | None]:
    """(rows, bytes) of a Dataset from its logical plan's metadata,
    e.g. the Parquet footers of a read, or the block metadata of a
    materialized Dataset. Walks the DAG down from the last operator:
    the first operator that knows a figure gives it, and an operator
    that does not sums its inputs' figures. NEVER triggers execution
    (``Dataset.count()`` / ``size_bytes()`` execute the plan when
    metadata is missing, which would double-run a lazy pipeline).
    A map that changes row counts is looked through, so for a row
    filter or a 1:1 map the rows are an upper bound; callers whose
    maps add rows bound them some other way."""
    def _walk(op, field: str):
        try:
            v = getattr(op.infer_metadata(), field)
        except Exception:    # an operator that cannot tell is unknown,
            v = None         # never a failed pipeline
        if v is not None:
            return v
        vals = [_walk(dep, field) for dep in op.input_dependencies]
        vals = [v for v in vals if v]
        return sum(vals) if vals else None

    dag = ds._logical_plan.dag
    return _walk(dag, "num_rows"), _walk(dag, "size_bytes")


def bucket_count(rows: int | None) -> int:
    """The exchange width rule: B = ceil(rows / ROWS_PER_BUCKET), and
    B = 1 at or below one bucket's worth or when the plan knows no row
    count. ``rows`` is an upper bound on the partial rows of the merge.

    Measured on the dedup step alone (``flagship.dedup_exact`` over slim
    enriched rows: url, cell, content hash, n_chars; 20% duplicates,
    4 blocks; 1-core host, 2 Ray slots), median seconds per pass over
    6-10 interleaved rounds:

    ==========  =====  =====  =====  =====
    rows        B = 1  B = 2  B = 4  B = 64
    ==========  =====  =====  =====  =====
    40,000      0.20   0.26   0.26   0.28
    100,000     0.33   0.37   0.37   0.41
    200,000     0.46   0.49          0.50
    400,000     1.35   0.87   0.80   0.79
    ==========  =====  =====  =====  =====

    At 4M rows (3 rounds) B = 1 took 13.3 s against 7.7 s at B = 64,
    and in a second run B = 40 took 5.8 s against 6.2 s at B = 64.

    Coalescing wins below ~200k rows and loses from ~300k, where the
    one merge task (sort, group-by, and the fused map after it) holds
    every row; above it, buckets of ~100k rows or fewer match B = 64.
    ROWS_PER_BUCKET = 100k is the largest bucket that does, so 4,000
    pages coalesce, 400k rows take B = 4 and 4M rows B = 40.
    """
    if not rows or rows <= ROWS_PER_BUCKET:
        return 1
    return -(-int(rows) // ROWS_PER_BUCKET)


def bucket_of(t: pa.Table, key_cols: list[str], buckets: int) -> pa.Array:
    """Bucket per row: a ``_mix64`` fold of ``pd.util.hash_array`` over
    the key columns, mod ``buckets``. ``hash_array`` hashes strings with
    a fixed key, so a key lands in the same bucket in every worker
    process (Python's ``hash()`` is salted per process). Null keys hash
    to 0, so a block's nulls cannot change the numpy dtype a key column
    hashes as."""
    h = np.zeros(t.num_rows, np.uint64)
    for c in key_cols:
        col = t.column(c)
        if col.null_count:
            valid = col.is_valid().to_numpy()
            part = np.zeros(t.num_rows, np.uint64)
            part[valid] = pd.util.hash_array(col.filter(valid).to_numpy())
        else:
            part = pd.util.hash_array(col.to_numpy())
        h = _mix64(h ^ part)
    return pa.array((h % np.uint64(buckets)).astype(np.int32))


def combine_partials(t: pa.Table, key_cols: list[str], sum_cols: list[str],
                     min_cols: list[str] | None = None,
                     max_cols: list[str] | None = None,
                     buckets: int = 1) -> pa.Table:
    """One table -> one partial row per key (Arrow C++ hash aggregate:
    an order of magnitude faster than a pandas groupby-agg at typical
    block sizes, no pandas round-trip). Single-threaded, so float sums
    run in row order and a reduction is reproducible bit for bit.
    ``buckets`` > 1 appends the bucket column ``_b`` that
    ``merge_partials(..., buckets=buckets)`` exchanges on."""
    min_cols = min_cols or []
    max_cols = max_cols or []
    specs = ([(c, "sum") for c in sum_cols]
             + [(c, "min") for c in min_cols]
             + [(c, "max") for c in max_cols]
             + [([], "count_all")])
    t = t.select(key_cols + sorted(set(sum_cols + min_cols + max_cols)))
    out = pa.TableGroupBy(t, key_cols, use_threads=False).aggregate(specs)
    cols = {k: out.column(k) for k in key_cols}
    for c in sum_cols:
        cols[f"{c}_sum"] = out.column(f"{c}_sum")
    cols["_n"] = out.column("count_all")
    for c in min_cols:
        cols[f"{c}_min"] = out.column(f"{c}_min")
    for c in max_cols:
        cols[f"{c}_max"] = out.column(f"{c}_max")
    if buckets > 1:
        cols["_b"] = bucket_of(out, key_cols, buckets)
    return pa.table(cols)


def partial_group_sums(key_cols: list[str], sum_cols: list[str],
                       min_cols: list[str] | None = None,
                       max_cols: list[str] | None = None,
                       buckets: int = 1):
    """Return a map_batches fn collapsing a batch to per-key partial rows."""
    def _combine(batch: pa.Table):
        if batch.num_rows == 0:      # post-shuffle zero-row blocks can
            return                   # carry an EMPTY schema — emit nothing
        yield combine_partials(batch, key_cols, sum_cols, min_cols, max_cols,
                               buckets)

    return _combine


def merge_partials_local(t: pa.Table, key_cols: list[str],
                         sum_cols: list[str], count_alias: str = "n",
                         min_cols: list[str] | None = None,
                         max_cols: list[str] | None = None) -> pa.Table:
    """The final merge of one table of partials -> key_cols,
    ``count_alias``, ``{c}_sum`` per sum col (plus ``{c}_min``/``{c}_max``
    when requested), one row per key in no promised order.

    It sorts the rows on the keys and then on every partial column, then
    runs one single-threaded Arrow group-by. A float sum therefore adds
    its partials in an order fixed by their values, not by the order in
    which the rows arrived: the same multiset of partial rows, in any
    input order, gives a ``Table.equals`` output. The group-by emits its
    groups out of key order, so a caller that needs an order sorts.
    ``merge_partials`` runs it in every merge task; a task that already
    holds all its partials calls it directly.
    """
    if t.num_rows == 0 and not t.num_columns:
        return t                     # empty-schema block from a coalesce
    min_cols = min_cols or []
    max_cols = max_cols or []
    outs = ([(count_alias, "_n", "sum")]
            + [(f"{c}_sum", f"{c}_sum", "sum") for c in sum_cols]
            + [(f"{c}_min", f"{c}_min", "min") for c in min_cols]
            + [(f"{c}_max", f"{c}_max", "max") for c in max_cols])
    parts = [p for _, p, _ in outs]
    t = t.select(key_cols + parts).sort_by(
        [(c, "ascending") for c in key_cols + parts])
    out = pa.TableGroupBy(t, key_cols, use_threads=False).aggregate(
        [(p, op) for _, p, op in outs])
    cols = {k: out.column(k) for k in key_cols}
    for name, p, op in outs:
        cols[name] = out.column(f"{p}_{op}")
    return pa.table(cols)


def merge_partials(partials, key_cols: list[str], sum_cols: list[str],
                   count_alias: str = "n",
                   min_cols: list[str] | None = None,
                   max_cols: list[str] | None = None, *, buckets: int):
    """Final merge of a Dataset of partials -> key_cols, ``count_alias``,
    ``{c}_sum`` per sum col (plus ``{c}_min``/``{c}_max`` when requested).

    ``buckets`` (B) sizes the one exchange. It is the B the combine
    used (``combine_partials(..., buckets=B)``), computed once on the
    driver: ``bucket_count`` over an upper bound on the partial rows,
    or 1 where the key space is bounded whatever the input size
    (zones, bands, bins).

    - B = 1 coalesces the partials to one block (no shuffle) and merges
      them in one task, so the output is ``merge_partials_local``'s
      over all of them. A sort shuffle would launch one mostly-empty
      reduce partition per input block, and below ROWS_PER_BUCKET rows
      the one task is faster.
    - B > 1 exchanges the partials on their bucket column ``_b``
      through ``groupby("_b").map_groups`` and merges each bucket in
      its own task, so no task holds more than about ROWS_PER_BUCKET
      rows. The exchange sorts B small integers instead of the keys,
      and each bucket is one vectorized Arrow pass (measured ~25x
      faster than Ray's per-key sort-aggregate at ~10^6 mostly-unique
      keys).

    Every task runs ``merge_partials_local``, so repeated runs over the
    same blocks give equal sums bit for bit.
    """
    def _merge(t: pa.Table) -> pa.Table:
        return merge_partials_local(t, key_cols, sum_cols, count_alias,
                                    min_cols, max_cols)

    if buckets == 1:
        return partials.repartition(1, shuffle=False).map_batches(
            _merge, batch_format="pyarrow", batch_size=None)
    return partials.groupby("_b").map_groups(_merge, batch_format="pyarrow")


def grouped_count_sum(ds, key_cols: list[str], sum_cols: list[str],
                      count_alias: str = "n",
                      min_cols: list[str] | None = None,
                      max_cols: list[str] | None = None,
                      buckets: int | None = None):
    """count + sums (+ mins/maxes) per key: the per-batch combine of flat
    rows followed by ``merge_partials``. ``buckets=None`` applies the
    rule to the plan's row estimate of ``ds``, which bounds the partial
    rows unless a map in ``ds`` adds rows. With no ``key_cols`` the
    output is one row over the whole Dataset."""
    if buckets is None:
        buckets = bucket_count(plan_estimate(ds)[0])
    partials = ds.map_batches(
        partial_group_sums(key_cols, sum_cols, min_cols, max_cols, buckets),
        batch_format="pyarrow")
    return merge_partials(partials, key_cols, sum_cols, count_alias,
                          min_cols, max_cols, buckets=buckets)

