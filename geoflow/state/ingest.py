"""Incremental corpus ingest: cross-run exact dedup against a
persisted, hash-partitioned seen-index (the continuous-crawl pattern).

A production corpus is not built in one run: every crawl snapshot must
be deduplicated against EVERYTHING already committed, without ever
loading the committed corpus. The index is append-only parquet,
partitioned by content-hash bucket::

    {work_dir}/seen/bucket=<b>/<shard_id>.parquet   (column: text_hash)

Plan (all distributed, nothing corpus-sized on the driver):

1. the new shard runs the flagship enrich + within-shard exact dedup
   (``flagship.dedup_exact``, whose exchange width follows the shard's
   row count);
2. winners are bucketed by ``hash_bucket``, which names the index's
   on-disk ``bucket=<b>`` partitions (its own fold of the hash, not the
   dedup's exchange bucket: the partition names must not change), and
   ONE ``groupby(bucket).map_groups`` pass filters novelty: each task
   reads ONLY its bucket's index partition (numpy ``isin`` against the
   committed hashes), so the per-task index slice is total_index /
   num_buckets — scale ``num_buckets`` with the committed corpus size
   (it fixes the on-disk layout, so it is chosen once per index);
3. the same task commits its bucket's novel hashes atomically
   (tmp + ``os.replace``) under the shard's name. Writes are
   IDEMPOTENT per (shard, bucket): a task retry or a full shard re-run
   overwrites the same file and — because a shard's own file is
   excluded from its seen-set — re-emits the identical novel rows
   (exactly-once semantics without a coordinator).

Reference anchor: the reference has no incremental lifecycle at all (a
failed band cancels the run, ``TopoCorrectionAlgorithm.py:92-95``);
this extends the lineage/checkpoint layer (``state.lineage``) the
north rule requires to multi-run corpus growth.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..pipelines.flagship import dedup_exact, enrich_pages


def hash_bucket(h: np.ndarray, num_buckets: int) -> np.ndarray:
    """Seen-index partition per 64-bit content hash (splitmix-style
    fold, then ``% num_buckets``), as int64. Committed indexes are laid
    out by these values, so the fold must never change."""
    u = h.astype(np.uint64)
    u = (u ^ (u >> np.uint64(31))) * np.uint64(0x9E3779B97F4A7C15)
    return ((u >> np.uint64(40)) % np.uint64(num_buckets)).astype(np.int64)


def incremental_ingest(pages_ds, work_dir: str, shard_id: str,
                       num_buckets: int = 16):
    """Ingest one crawl shard; return the Dataset of rows whose content
    hash has never been committed by ANY prior shard (first-wins by
    url within the shard, earlier shards win across runs).

    Enrich runs strict: a stored ``text`` that differs from its
    extraction fails the ingest with a ``byte-identity`` error."""
    if "/" in shard_id or shard_id.startswith("."):
        raise ValueError(f"invalid shard_id: {shard_id!r}")
    winners = dedup_exact(enrich_pages(pages_ds, strict=True, slim=True))

    def _tag(b: pa.Table) -> pa.Table:
        h = b.column("text_hash").to_numpy()
        return b.append_column(
            "_bk", pa.array(hash_bucket(h, num_buckets), pa.int64()))

    seen_root = os.path.join(work_dir, "seen")

    def _novel(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        b = int(g["_bk"].iloc[0])
        bdir = os.path.join(seen_root, f"bucket={b:05d}")
        os.makedirs(bdir, exist_ok=True)
        own = f"{shard_id}.parquet"
        committed = [f for f in os.listdir(bdir)
                     if f.endswith(".parquet") and f != own]
        if committed:
            seen_h = np.concatenate([
                pq.read_table(os.path.join(bdir, f),
                              columns=["text_hash"])
                .column("text_hash").to_numpy()
                for f in sorted(committed)])
            mask = ~np.isin(g["text_hash"].to_numpy(), seen_h)
        else:
            mask = np.ones(len(g), dtype=bool)
        novel = g[mask]
        # atomic, idempotent per-(shard, bucket) index commit
        tmp = os.path.join(bdir, f".{shard_id}.tmp.parquet")
        pq.write_table(
            pa.table({"text_hash": pa.array(
                novel["text_hash"].to_numpy(), pa.int64())}), tmp)
        os.replace(tmp, os.path.join(bdir, own))
        return novel.drop(columns=["_bk"])

    return (winners.map_batches(_tag, batch_format="pyarrow")
            .groupby("_bk")
            .map_groups(_novel, batch_format="pandas"))
