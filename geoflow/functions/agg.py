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
  that already exist (``grouped_count_sum`` = the two composed).

Partials have the layout ``key_cols, {c}_sum, _n, {c}_min, {c}_max``,
plus the bucket column ``_b`` when the merge runs over more than one
bucket. The combine appends ``_b`` itself, so the exchange adds no map
operator of its own and the combine keeps its operator name.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .joins import _mix64, estimate_size_bytes

BUCKETS = 64    # default exchange width of merge_partials


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


def merge_partials(partials, key_cols: list[str], sum_cols: list[str],
                   count_alias: str = "n",
                   min_cols: list[str] | None = None,
                   max_cols: list[str] | None = None,
                   buckets: int = BUCKETS):
    """Final merge of a Dataset of partials -> key_cols, ``count_alias``,
    ``{c}_sum`` per sum col (plus ``{c}_min``/``{c}_max`` when requested).

    ``buckets`` (B) sizes the one exchange:

    - B = 1 coalesces the partials to one block (no shuffle) and merges
      them in one task; the output is sorted by the keys. Right when the
      key cardinality is bounded (zones, bands, sites): the partials are
      O(blocks x keys) slim rows, and a sort shuffle would launch one
      mostly-empty reduce partition per input block.
    - B > 1 exchanges the partials on their bucket column ``_b``, which
      the per-batch combine appended (``combine_partials(...,
      buckets=B)`` with the same B), through ``groupby("_b").map_groups``
      and merges each bucket in its own task. Right for keys that stay
      many after the per-batch combine: the exchange sorts B small
      integers instead of the keys, and each bucket is one vectorized
      Arrow pass (measured ~25x faster than Ray's per-key
      sort-aggregate at ~10^6 mostly-unique keys).

    Every task runs the same merge: sort the rows on the keys and then
    on every partial column, then one single-threaded Arrow group-by. A
    float sum therefore adds its partials in an order fixed by their
    values, not by which task finished first, so repeated runs over the
    same blocks give equal sums bit for bit.
    """
    min_cols = min_cols or []
    max_cols = max_cols or []
    outs = ([(count_alias, "_n", "sum")]
            + [(f"{c}_sum", f"{c}_sum", "sum") for c in sum_cols]
            + [(f"{c}_min", f"{c}_min", "min") for c in min_cols]
            + [(f"{c}_max", f"{c}_max", "max") for c in max_cols])
    parts = [p for _, p, _ in outs]

    def _merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 and not t.num_columns:
            return t                 # empty-schema block from a coalesce
        t = t.select(key_cols + parts).sort_by(
            [(c, "ascending") for c in key_cols + parts])
        out = pa.TableGroupBy(t, key_cols, use_threads=False).aggregate(
            [(p, op) for _, p, op in outs])
        cols = {k: out.column(k) for k in key_cols}
        for name, p, op in outs:
            cols[name] = out.column(f"{p}_{op}")
        return pa.table(cols)

    if buckets == 1:
        return partials.repartition(1, shuffle=False).map_batches(
            _merge, batch_format="pyarrow", batch_size=None)
    return partials.groupby("_b").map_groups(_merge, batch_format="pyarrow")


def grouped_count_sum(ds, key_cols: list[str], sum_cols: list[str],
                      count_alias: str = "n",
                      min_cols: list[str] | None = None,
                      max_cols: list[str] | None = None,
                      buckets: int = BUCKETS):
    """count + sums (+ mins/maxes) per key: the per-batch combine of flat
    rows followed by ``merge_partials``."""
    partials = ds.map_batches(
        partial_group_sums(key_cols, sum_cols, min_cols, max_cols, buckets),
        batch_format="pyarrow")
    return merge_partials(partials, key_cols, sum_cols, count_alias,
                          min_cols, max_cols, buckets)


def quantile_from_counts(values, counts, q: float) -> float:
    """Linear-interpolated quantile (numpy/DuckDB ``quantile_cont``
    semantics) from a (value -> count) histogram, without expanding it."""
    order = np.argsort(values)
    v = np.asarray(values, dtype=np.float64)[order]
    cum = np.cumsum(np.asarray(counts, dtype=np.int64)[order])
    n = int(cum[-1])
    h = (n - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, n - 1)
    x_lo = v[np.searchsorted(cum, lo, side="right")]
    x_hi = v[np.searchsorted(cum, hi, side="right")]
    return float(x_lo + (h - lo) * (x_hi - x_lo))


def grouped_exact_quantiles(ds, key_cols: list[str], value_col: str,
                            qs: dict[str, float],
                            count_alias: str = "n") -> pd.DataFrame:
    """EXACT grouped quantiles for a bounded-cardinality value column.

    Quantiles are holistic (a naive plan ships every row through the
    shuffle), but when the value domain is bounded (quantities, sizes,
    scores, binned floats) the distributed part reduces to an algebraic
    value-count histogram: per-batch combine on (key, value), a groupby
    over O(keys x distinct-values) partial rows, then an O(1) driver
    interpolation per group. Shuffle volume is independent of row count
    — the same plan holds at 10^12 rows.

    ``qs`` maps output column name -> quantile in [0, 1].
    """
    hist = grouped_count_sum(ds, key_cols + [value_col], [],
                             count_alias="_vc").to_pandas()
    rows = []
    for key, g in hist.groupby(key_cols, sort=True, observed=True):
        key = key if isinstance(key, tuple) else (key,)
        row = dict(zip(key_cols, key))
        row[count_alias] = int(g["_vc"].sum())
        for name, q in qs.items():
            row[name] = quantile_from_counts(
                g[value_col].to_numpy(), g["_vc"].to_numpy(), q)
        rows.append(row)
    return pd.DataFrame(rows)


def profile_columns(ds, cols: list[str]):
    """ANALYZE-style column statistics in ONE streaming pass: per
    column (row count, null count, min, max) via batch-level Arrow
    kernels reduced by a constant-key groupby — the stats catalog a
    planner prunes and sizes with (zone maps, join-side choice,
    bucket counts). Min/max are emitted as strings so one schema
    covers every column type; numeric columns stringify via repr of
    the Arrow scalar (deterministic).
    """
    import pyarrow.compute as pc

    def _partial(b: pa.Table) -> pa.Table:
        names, n, nn, mn, mx = [], [], [], [], []
        for c in cols:
            col = b.column(c)
            names.append(c)
            n.append(len(col))
            nn.append(col.null_count)
            valid = col.drop_null()
            if len(valid) == 0:
                mn.append(None)
                mx.append(None)
            else:
                mm = pc.min_max(valid)
                mn.append(str(mm["min"].as_py()))
                mx.append(str(mm["max"].as_py()))
        return pa.table({
            "column": pa.array(names, pa.string()),
            "_n": pa.array(n, pa.int64()),
            "_nn": pa.array(nn, pa.int64()),
            "_mn": pa.array(mn, pa.string()),
            "_mx": pa.array(mx, pa.string())})

    partials = ds.map_batches(_partial, batch_format="pyarrow")

    def _combine(g: pd.DataFrame) -> pd.DataFrame:
        # strings compare lexically; numeric columns need numeric
        # compare — recompare as float when every value parses
        vals_mn = [v for v in g["_mn"] if v is not None]
        vals_mx = [v for v in g["_mx"] if v is not None]

        def _best(vals, take_max):
            if not vals:
                return None
            try:
                xs = [float(v) for v in vals]
                i = int(np.argmax(xs) if take_max else np.argmin(xs))
                return vals[i]
            except ValueError:
                return max(vals) if take_max else min(vals)

        return pd.DataFrame([{
            "column": g["column"].iloc[0],
            "n_rows": int(g["_n"].sum()),
            "n_null": int(g["_nn"].sum()),
            "min_val": _best(vals_mn, False),
            "max_val": _best(vals_mx, True)}])

    return partials.groupby("column").map_groups(
        _combine, batch_format="pandas")


def nonempty_batches(ds, **kwargs):
    """``iter_batches(batch_format="pyarrow")`` with zero-row batches
    skipped. Ray's sort-based shuffle (groupby / sort / repartition)
    can emit zero-row blocks whose schema is EMPTY (no columns at
    all); indexing a column on such a batch raises KeyError, and only
    at some block-to-task placements (so only at some CPU counts)."""
    for b in ds.iter_batches(batch_format="pyarrow", **kwargs):
        if b.num_rows > 0:
            yield b


def skip_empty(fn, schema: pa.Schema):
    """Wrap a ``map_batches`` fn so zero-row input blocks (which after a
    shuffle may carry an EMPTY schema and so cannot be column-indexed)
    short-circuit to a typed empty table with the declared output
    schema. Declaring the schema also keeps every output block
    schema-identical, silencing Ray's "RefBundle with a different
    schema" warnings for the stage."""
    def _wrapped(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return schema.empty_table()
        return fn(b)
    return _wrapped


def iter_cap(state_ds, floor: int = 16) -> int:
    """Per-round block cap for iterative BSP loops, taken ONCE from the
    materialized initial state so it scales with the data (node-table
    blocks grow with corpus size) but stays constant across rounds."""
    return max(floor, state_ds.num_blocks())


def estimate_num_blocks(ds) -> int | None:
    """Cheap plan-time block-count estimate: input bytes divided by the
    context's target block size. Parquet reads report 1 plan-time block
    (file splitting is decided at execution), so byte size is the only
    honest pre-execution signal; used to decide whether a reduce needs
    an intermediate tree-merge level, where approximate is fine."""
    from ray.data import DataContext

    sz = estimate_size_bytes(ds)
    if sz is None:
        return None
    tgt = DataContext.get_current().target_max_block_size or (128 << 20)
    return max(1, -(-sz // tgt))


def tree_merge(partials, merge_fn, fanin: int, num_blocks_hint: int | None):
    """Insert intermediate merge levels between per-block partials and a
    terminal single-block reduce, so the final reduce's fan-in is
    bounded by ``fanin`` regardless of block count (at 10^6 input
    blocks a single coalesce/driver merge receives 10^6 partials; the
    tree keeps every task's input ~fanin partials).

    ``merge_fn`` must be associative over whole partial blocks (it maps
    one coalesced Arrow block of partials to one merged partial block).
    Levels repeat until the (estimated) block count is within fanin;
    exactness is preserved because each level applies the same
    deterministic merge the terminal reduce would.
    """
    fanin = max(2, fanin)            # fanin 1 would never converge
    nb = num_blocks_hint
    while nb is not None and nb > fanin:
        nb = max(1, -(-nb // fanin))
        partials = coalesce_blocks(partials, nb).map_batches(
            merge_fn, batch_format="pyarrow", batch_size=None)
    return partials


def coalesce_blocks(ds, num_blocks: int):
    """Cap block count between BSP rounds. Ray's sort-based shuffle
    emits one output block per input block, so an iterate that unions
    its own previous state compounds blocks geometrically (measured
    16 -> 48 -> 112 -> 240 -> 496 over 4 BFS rounds at sf0.001, with
    per-round wall time x2.5 each round from pure task-scheduling
    overhead). A no-shuffle coalescing repartition between rounds
    keeps per-round cost constant; it moves only the node-sized state
    table, never the edge table."""
    return ds.repartition(num_blocks, shuffle=False)
