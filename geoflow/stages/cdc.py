"""Content-defined chunking (CDC) dedup over document text.

Storage-level dedup primitive (LBFS/Venti lineage; the rolling hash is
a 32-bit buzhash — cyclic-polynomial hashing, Cohen 1997): a window-16
rolling hash over codepoints marks a chunk boundary wherever
``hash % 2^k == mask``, so identical substrings chunk identically no
matter where they sit in a document — cross-doc duplicated chunks then
fall out of ONE groupby over slim (h1, h2, len) rows.

Everything is integer-exact and replayed bit-for-bit in DuckDB:

- buzhash needs only XOR + rotations. ``rot32`` stays inside BIGINT
  (``(x * 2^r) % 2^32 + x // 2^(32-r)`` — the two terms cannot overlap),
  and the rolling window becomes a ``bit_xor`` window aggregate thanks
  to the rotation identity ``H_i = rot32(XOR_j rot32(T_j, -j), i)``.
- per-codepoint table values come from two LCG folds (max intermediate
  ~2^53) XOR-mixed, no 64-bit wraparound anywhere.
- chunk content hashes are dual polynomial folds mod two sub-2^31
  primes (the engine evaluates the closed power-sum form, the oracle
  the LTR ``list_reduce`` fold — mathematically identical); grouping on
  (h1, h2, len) makes accidental collisions vanishingly rare while
  keeping both sides deterministic.

Ray plan: one stateless streaming pass explodes docs into chunk-hash
rows (vectorized numpy per batch: prefix-XOR sliding window, reduceat
segment sums — no per-char Python), then the combiner-pattern groupby
counts copies. Shuffle traffic is one 28-byte row per CHUNK (~ bytes /
32), never the text. Min/max chunk-length gating (FastCDC-style) is a
local sequential scan the plan could add per batch; it is omitted here
because plain CDC keeps the oracle a pure window expression.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

W = 16          # rolling window (codepoints)
KBITS = 5       # boundary when H % 2^KBITS == MASK (avg chunk ~32)
MASK = 9
M32 = 1 << 32
P1, B1 = 2147483647, 31
P2, B2 = 2147483629, 48271


def _table_vals(cp: np.ndarray) -> np.ndarray:
    """Per-codepoint 32-bit table value (two LCG folds, XOR-mixed)."""
    a = (cp * 2654435761 + 40503) % M32
    b = (cp * 1103515245 + 12345) % M32
    return a ^ (b >> 16)


def _rot32(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    lo = x * (np.int64(1) << r) % M32
    hi = x >> (32 - r)
    return lo + hi


def chunk_rows(batch: pa.Table, id_col: str = "doc_id",
               text_col: str = "text") -> pa.Table:
    """One slim (h1, h2, chunk_len) row per CDC chunk of each doc."""
    texts = batch.column(text_col).to_pylist()
    h1s, h2s, lens = [], [], []
    # power tables sized to the longest doc in the batch
    maxlen = max((len(t or "") for t in texts), default=0) + 1
    pw1 = np.ones(maxlen, dtype=np.int64)
    pw2 = np.ones(maxlen, dtype=np.int64)
    for i in range(1, maxlen):
        pw1[i] = pw1[i - 1] * B1 % P1
        pw2[i] = pw2[i - 1] * B2 % P2
    for t in texts:
        if not t:
            continue
        cp = np.frombuffer(t.encode("utf-32-le"),
                           dtype=np.uint32).astype(np.int64)
        n = len(cp)
        pos = np.arange(n, dtype=np.int64)
        tv = _table_vals(cp)
        u = _rot32(tv, (32 - pos % 32) % 32)
        px = np.bitwise_xor.accumulate(u)
        x = px.copy()
        x[W:] = px[W:] ^ px[:-W]
        h = _rot32(x, pos % 32)
        boundary = (pos >= W - 1) & (h % (1 << KBITS) == MASK)
        ends = np.flatnonzero(boundary)
        if len(ends) == 0 or ends[-1] != n - 1:
            ends = np.append(ends, n - 1)
        starts = np.concatenate(([0], ends[:-1] + 1))
        # exponent of each char = chunk_end - pos (LTR fold closed form)
        end_per_char = np.repeat(ends, ends - starts + 1)
        exp = end_per_char - pos
        t1 = cp % P1 * pw1[exp] % P1
        t2 = cp % P2 * pw2[exp] % P2
        h1 = np.add.reduceat(t1, starts) % P1
        h2 = np.add.reduceat(t2, starts) % P2
        h1s.append(h1)
        h2s.append(h2)
        lens.append(ends - starts + 1)
    if not h1s:
        return pa.table({"h1": pa.array([], pa.int64()),
                         "h2": pa.array([], pa.int64()),
                         "chunk_len": pa.array([], pa.int64())})
    return pa.table({"h1": pa.array(np.concatenate(h1s), pa.int64()),
                     "h2": pa.array(np.concatenate(h2s), pa.int64()),
                     "chunk_len": pa.array(np.concatenate(lens),
                                           pa.int64())})


def cdc_dup_chunks(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Corpus-wide duplicated-chunk stats: (h1, h2, chunk_len, n_copies)
    for every chunk occurring >= 2 times."""
    from ..functions.agg import bucket_count, grouped_count_sum, plan_estimate

    rows = ds.map_batches(lambda b: chunk_rows(b, id_col, text_col),
                          batch_format="pyarrow")
    # one chunk row per text byte at most: the source's bytes bound them
    counts = grouped_count_sum(rows, ["h1", "h2", "chunk_len"], [],
                               count_alias="n_copies",
                               buckets=bucket_count(plan_estimate(ds)[1]))
    return counts.filter(expr="n_copies >= 2")


def cdc_oracle_sql(table: str = "documents") -> str:
    """Bit-exact DuckDB twin: buzhash via bit_xor window + rotation
    join table, chunk ids via a prefix sum of boundary flags, chunk
    hashes via LTR list_reduce folds."""
    p2rows = ", ".join(
        f"({r}, {1 << r}, {1 << (32 - r)})" for r in range(32))
    return f"""
WITH ch AS (
  SELECT doc_id, u.i - 1 AS pos, CAST(unicode(cs[u.i]) AS BIGINT) AS cp
  FROM (SELECT doc_id, string_split(text, '') AS cs FROM {table}
        WHERE len(text) > 0) t,
       unnest(range(1, len(cs) + 1)) u(i)
),
p2(r, lo, hi) AS (VALUES {p2rows}),
tt AS (
  SELECT doc_id, pos, cp,
         xor((cp * 2654435761 + 40503) % {M32},
             ((cp * 1103515245 + 12345) % {M32}) // 65536) AS tv
  FROM ch
),
uu AS (
  SELECT doc_id, pos, cp, (tt.tv * p2.lo) % {M32} + tt.tv // p2.hi AS u
  FROM tt JOIN p2 ON p2.r = (32 - pos % 32) % 32
),
win AS (
  SELECT doc_id, pos, cp,
         bit_xor(u) OVER (PARTITION BY doc_id ORDER BY pos
                          ROWS BETWEEN {W - 1} PRECEDING AND CURRENT ROW)
         AS xw
  FROM uu
),
hh AS (
  SELECT doc_id, pos, cp,
         CASE WHEN pos >= {W - 1} AND
              ((win.xw * p2.lo) % {M32} + win.xw // p2.hi)
              % {1 << KBITS} = {MASK}
              THEN 1 ELSE 0 END AS isb
  FROM win JOIN p2 ON p2.r = pos % 32
),
ck AS (
  SELECT doc_id, pos, cp,
         COALESCE(SUM(isb) OVER (PARTITION BY doc_id ORDER BY pos
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS cid
  FROM hh
),
chunks AS (
  SELECT doc_id, cid, COUNT(*) AS clen,
     list_reduce(list_prepend(CAST(0 AS BIGINT), list(cp ORDER BY pos)),
                 (a, c) -> (a * {B1} + c) % {P1}) AS h1,
     list_reduce(list_prepend(CAST(0 AS BIGINT), list(cp ORDER BY pos)),
                 (a, c) -> (a * {B2} + c) % {P2}) AS h2
  FROM ck GROUP BY doc_id, cid
)
SELECT h1, h2, CAST(clen AS BIGINT) AS chunk_len, COUNT(*) AS n_copies
FROM chunks GROUP BY 1, 2, 3 HAVING COUNT(*) >= 2"""
