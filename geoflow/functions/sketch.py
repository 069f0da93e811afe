"""Distributed sketches: HyperLogLog approximate distinct count.

The sketch pattern for web-scale cardinality: each batch collapses to a
fixed 2^p-byte register array (map_batches partial), registers merge by
elementwise max (associative and commutative, so combining is safe in
any order and under any partitioning), and the estimate is computed once
on the driver from the merged 4 KB array — a 10^12-row distinct count
moves O(batches x 4 KB), never rows. Standard HLL per Flajolet et al.
2007 with linear-counting small-range correction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def hll_registers(hashes: np.ndarray, p: int = 12) -> np.ndarray:
    """Register array (uint8, len 2^p) for a batch of uint64 hashes."""
    m = 1 << p
    h = hashes.astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad tail with 1s
    # rank = leading zeros of the remaining 64-p bits, + 1
    nbits = 64 - p
    rank = np.ones(len(h), dtype=np.uint8)
    probe = np.uint64(1) << np.uint64(63)
    zeros = np.zeros(len(h), dtype=np.uint8)
    live = np.ones(len(h), dtype=bool)
    for _ in range(nbits):
        bit = (rest & probe) != 0
        zeros[live & ~bit] += 1
        live &= ~bit
        if not live.any():
            break
        probe >>= np.uint64(1)
    rank = zeros + 1
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    est = _alpha(m) * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            return m * np.log(m / zeros)      # linear counting
    return float(est)


def approx_distinct(ds, hash_fn, p: int = 12) -> float:
    """Approximate distinct count of ``hash_fn(batch) -> uint64 array``.

    map_batches emits one register row per batch; the driver merges the
    tiny partials by elementwise max. Relative error ~1.04/sqrt(2^p)
    (~1.6% at p=12).
    """
    def _partial(batch: pa.Table) -> pa.Table:
        regs = hll_registers(hash_fn(batch), p)
        return pa.table({"regs": pa.array([regs], pa.list_(pa.uint8()))})

    from .agg import nonempty_batches, skip_empty
    _schema = pa.schema([("regs", pa.list_(pa.uint8()))])
    merged = np.zeros(1 << p, dtype=np.uint8)
    parts = ds.map_batches(skip_empty(_partial, _schema),
                           batch_format="pyarrow")
    for b in nonempty_batches(parts, batch_size=None):
        for r in b.column("regs").to_pylist():
            np.maximum(merged, np.asarray(r, dtype=np.uint8), out=merged)
    return hll_estimate(merged)


# ---------------------------------------------------------------------------
# Heavy hitters: space-saving candidates + exact recount (two passes)
# ---------------------------------------------------------------------------

def space_saving_counts(items, capacity: int) -> dict:
    """Metwally et al. space-saving summary of one partition's items.

    Guarantee used downstream: every item whose count in THIS partition
    exceeds n_partition / capacity is present in the summary.
    """
    counts: dict = {}
    for it in items:
        if it in counts:
            counts[it] += 1
        elif len(counts) < capacity:
            counts[it] = 1
        else:
            victim = min(counts, key=counts.get)
            counts[it] = counts.pop(victim) + 1
    return counts


def frequent_items_exact(ds, item_fn, phi: float = 0.005,
                         capacity: int | None = None):
    """EXACT heavy hitters (count >= phi * N) in two passes.

    Pass 1 runs a space-saving summary per batch (``capacity > 1/phi``,
    STRICTLY: space-saving only guarantees presence of items with batch
    count > n_batch / capacity, so capacity = floor(1/phi) + 1 makes
    count >= phi * n_batch imply count > n_batch / capacity) — by
    pigeonhole, any global phi-heavy item is phi-heavy in at least
    one batch, so the union of per-batch summaries is a SUPERSET of the
    true heavy hitters (bounded: capacity x batches rows, independent
    of N); the same pass carries each batch's item count, so the global
    N comes for free. Pass 2 broadcasts the candidate set and recounts
    EXACTLY with a vectorized membership filter + pre-aggregated
    groupby, then thresholds on the exact counts. Output is exact and
    deterministic — a plain ``GROUP BY ... HAVING count >= phi*N``
    replays it in SQL — while the full-cardinality item groupby (the
    thing that does not scale) never runs.

    ``item_fn(batch) -> sequence of string items``. Returns
    (DataFrame[item, n_occurrences], total_item_count).
    """
    import ray

    from ..functions.agg import grouped_count_sum

    capacity = capacity or max(64, int(np.floor(1.0 / phi)) + 1)
    _SENT = "\x00__total__"

    def _pass1(b: pa.Table) -> pa.Table:
        items = list(item_fn(b))
        cnt = space_saving_counts(items, capacity)
        return pa.table({
            "item": pa.array(list(cnt.keys()) + [_SENT], pa.string()),
            "_n": pa.array([0] * len(cnt) + [len(items)], pa.int64()),
        })

    summary = grouped_count_sum(
        ds.map_batches(_pass1, batch_format="pyarrow"),
        ["item"], ["_n"], count_alias="_rows").to_pandas()
    n_total = int(summary.loc[summary["item"] == _SENT, "_n_sum"].sum())
    candidates = np.array(
        sorted(summary.loc[summary["item"] != _SENT, "item"]), dtype=object)
    cand_ref = ray.put(candidates)

    def _pass2(b: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        items = np.asarray(list(item_fn(b)), dtype=object)
        kept = items[np.isin(items, cands)]
        return pa.table({"item": pa.array(kept.tolist(), pa.string())})

    agg = grouped_count_sum(
        ds.map_batches(_pass2, batch_format="pyarrow"),
        ["item"], [], count_alias="n_occurrences").to_pandas()
    out = agg[agg["n_occurrences"] >= phi * n_total]
    return (out.sort_values("item").reset_index(drop=True), n_total)


# ---------------------------------------------------------------------------
# KLL-style mergeable quantile sketch
# ---------------------------------------------------------------------------

class QuantileSketch:
    """Deterministic KLL-style quantile sketch (Karnin-Lang-Liberty
    2016, with the deterministic alternating compactor of the earlier
    Manku-Rajagopalan-Lindsay line): level i holds at most ``k`` values
    of weight 2^i; a full level sorts and keeps alternating elements
    (offset flips per compaction), pushing them one level up.

    Deterministic on purpose: any partitioning, any merge order of the
    same per-block sketches gives the same final sketch for the tests'
    fixed block layout, and there is no RNG to seed through Ray tasks.
    Worst-case rank error grows O(log(n/k)/k); the property test pins
    an empirical bound at 3/k on adversarial inputs.

    Size: O(k log(n/k)) doubles regardless of stream length — each
    batch collapses to one sketch row, sketches merge associatively,
    and a 10^12-row quantile query moves O(batches x k log n) doubles,
    never rows.
    """

    def __init__(self, k: int = 200):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self._flip: list[bool] = [False]

    def update(self, values: np.ndarray) -> "QuantileSketch":
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compact()
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        for i, lv in enumerate(other.levels):
            while len(self.levels) <= i:
                self.levels.append(np.empty(0, np.float64))
                self._flip.append(False)
            self.levels[i] = np.concatenate([self.levels[i], lv])
        self._compact()
        return self

    def _compact(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self.k:
                lv = np.sort(self.levels[i], kind="stable")
                # weight-exact: an odd element stays behind so 2 x kept
                # always equals the weight that left this level
                stay = np.empty(0, np.float64)
                if len(lv) % 2:
                    stay, lv = lv[-1:], lv[:-1]
                off = 1 if self._flip[i] else 0
                self._flip[i] = not self._flip[i]
                kept = lv[off::2]
                self.levels[i] = stay
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, np.float64))
                    self._flip.append(False)
                self.levels[i + 1] = np.concatenate(
                    [self.levels[i + 1], kept])
            i += 1

    def n(self) -> int:
        return int(sum(len(lv) << i for i, lv in enumerate(self.levels)))

    def quantiles(self, qs) -> np.ndarray:
        items = np.concatenate(self.levels) if any(
            len(lv) for lv in self.levels) else np.empty(0, np.float64)
        if not len(items):
            return np.full(len(list(qs)), np.nan)
        w = np.concatenate([
            np.full(len(lv), 1 << i, np.int64)
            for i, lv in enumerate(self.levels)])
        order = np.argsort(items, kind="stable")
        items, w = items[order], w[order]
        cw = np.cumsum(w)
        total = cw[-1]
        out = np.empty(len(list(qs)), np.float64)
        for j, q in enumerate(qs):
            target = q * total
            out[j] = items[np.searchsorted(cw, target, side="left").clip(
                0, len(items) - 1)]
        return out

    # --- Arrow (de)serialization for the map_batches partial pattern ---
    def to_row(self) -> pa.Table:
        flat = (np.concatenate(self.levels) if len(self.levels)
                else np.empty(0, np.float64))
        lens = [len(lv) for lv in self.levels]
        return pa.table({
            "vals": pa.array([flat], pa.list_(pa.float64())),
            "lens": pa.array([lens], pa.list_(pa.int64())),
        })

    @classmethod
    def from_rows(cls, table: pa.Table, k: int = 200) -> "QuantileSketch":
        out = cls(k)
        for vals, lens in zip(table.column("vals").to_pylist(),
                              table.column("lens").to_pylist()):
            other = cls(k)
            vals = np.asarray(vals, np.float64)
            pos = 0
            for ln in lens:
                other.levels.append(vals[pos:pos + ln])
                other._flip.append(False)
                pos += ln
            del other.levels[0], other._flip[0]
            if not other.levels:
                other.levels = [np.empty(0, np.float64)]
                other._flip = [False]
            out.merge(other)
        return out


def approx_quantiles(ds, col: str, qs, k: int = 200):
    """Approximate quantiles of a Dataset column: per-block sketches
    (one row each), streamed to the driver and merged — driver memory
    is one sketch, rows never leave the workers."""
    def _partial(b: pa.Table) -> pa.Table:
        sk = QuantileSketch(k)
        if b.num_rows:                        # post-shuffle zero-row
            sk.update(b.column(col).to_numpy(zero_copy_only=False))
        return sk.to_row()                    # empty sketch row is valid

    from .agg import nonempty_batches
    merged = QuantileSketch(k)
    for part in nonempty_batches(
            ds.map_batches(_partial, batch_format="pyarrow")):
        merged.merge(QuantileSketch.from_rows(part, k))
    return merged.quantiles(qs), merged.n()


# ---------------------------------------------------------------------------
# Count-Min sketch: mergeable per-block partial matrices
# ---------------------------------------------------------------------------

def _cms_token_hashes(items) -> np.ndarray:
    """One stable 64-bit hash per string item (blake2b-8); the per-row
    CMS hashes derive from it vectorized, so the Python loop here is
    the same single pass the tokenizer already makes."""
    import hashlib

    return np.array(
        [int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(),
                        "little") for s in items],
        dtype=np.uint64)


def cms_partial(h64: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, width) int64 count matrix for one batch's item hashes.

    Row d's hash is splitmix64(h ^ seed_d) % width — fixed seeds make
    the sketch deterministic, so partial matrices from any block
    layout merge by ELEMENTWISE SUM into the same global sketch.
    """
    from .joins import _mix64

    cms = np.zeros((depth, width), dtype=np.int64)
    for d in range(depth):
        idx = (_mix64(h64 ^ np.uint64((0xA076_1D64_78BD_642F * (d + 1)) & 0xFFFF_FFFF_FFFF_FFFF))
               % np.uint64(width)).astype(np.int64)
        np.add.at(cms[d], idx, 1)
    return cms


# Partial matrices fed to one CMS merge task; above this (estimated)
# block count intermediate elementwise-sum levels run before the driver
# merge so the driver never receives more than ~fanin matrices.
CMS_TREE_FANIN = 256


def cms_build(ds, item_fn, depth: int = 4, width: int = 16384,
              tree_fanin: int = CMS_TREE_FANIN,
              num_blocks_hint: int | None = None):
    """Distributed Count-Min sketch over ``item_fn(batch) -> [str]``.

    One map_batches pass emits a flattened (depth*width) partial per
    block plus its item count; partials merge by elementwise sum — the
    classic mergeable-sketch plan (HLL twin: ``approx_distinct``). The
    merged matrix is depth*width*8 bytes regardless of N. Above
    ``tree_fanin`` (estimated) partial blocks, intermediate map-side
    sum levels (``tree_merge``) bound the driver's fan-in — at 10^6
    blocks a flat driver merge would stream 10^6 half-MB matrices;
    the tree keeps it ~fanin. Integer sums commute, so the multi-level
    sketch is bit-identical to the flat one (pinned by test_sketch's
    forced-tree equality test).

    Returns (cms matrix, total item count N). Guarantees: for any item
    with true count c, estimate(c) >= c always, and
    estimate(c) <= c + 2N/width with probability 1 - 2^-depth.
    """
    from .agg import (estimate_num_blocks, nonempty_batches, skip_empty,
                      tree_merge)

    def _partial(b: pa.Table) -> pa.Table:
        items = list(item_fn(b))
        cms = cms_partial(_cms_token_hashes(items), depth, width)
        return pa.table({
            "cms": pa.array([cms.ravel()], pa.list_(pa.int64())),
            "_n": pa.array([len(items)], pa.int64()),
        })

    _schema = pa.schema([("cms", pa.list_(pa.int64())), ("_n", pa.int64())])

    def _sum_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return _schema.empty_table()
        flat = np.asarray(b.column("cms").combine_chunks().flatten(),
                          dtype=np.int64)
        mat = flat.reshape(b.num_rows, depth * width).sum(axis=0)
        n = int(np.sum(b.column("_n").to_numpy()))
        return pa.table({
            "cms": pa.array([mat], pa.list_(pa.int64())),
            "_n": pa.array([n], pa.int64()),
        })

    merged = np.zeros(depth * width, dtype=np.int64)
    n_total = 0
    parts = ds.map_batches(skip_empty(_partial, _schema),
                           batch_format="pyarrow", batch_size=None)
    if num_blocks_hint is None:
        num_blocks_hint = estimate_num_blocks(ds)
    parts = tree_merge(parts, _sum_block, tree_fanin, num_blocks_hint)
    for b in nonempty_batches(parts, batch_size=None):
        for row in b.column("cms").to_pylist():
            merged += np.asarray(row, dtype=np.int64)
        n_total += int(np.sum(b.column("_n").to_numpy()))
    return merged.reshape(depth, width), n_total


def cms_estimate(cms: np.ndarray, items) -> np.ndarray:
    """Point-query estimates (min over depth rows) for string items."""
    from .joins import _mix64

    depth, width = cms.shape
    h64 = _cms_token_hashes(items)
    est = np.full(h64.size, np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(depth):
        idx = (_mix64(h64 ^ np.uint64((0xA076_1D64_78BD_642F * (d + 1)) & 0xFFFF_FFFF_FFFF_FFFF))
               % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, cms[d, idx])
    return est
