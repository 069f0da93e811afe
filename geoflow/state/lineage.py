"""Per-partition lineage records + checkpoint resume.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics". The reference has neither checkpointing nor retries
(a failed band cancels the whole run, ``TopoCorrectionAlgorithm.py:92-95``).

Model: a *stage* consumes a list of input partitions (parquet files or
shards) and produces one output directory per partition, written
atomically (tmp dir + rename) with a manifest line per finished
partition::

    {"partition": ..., "stage": ..., "input_digest": ...,
     "row_count": ..., "wall_ms": ..., "finished_at": ...}

Resume = re-list input partitions, skip those whose manifest line exists
AND whose input digest is unchanged, process only the rest (each shard
is its own Ray Data pipeline run; shards stream internally). A crashed
run leaves at most one unfinished tmp dir, which is ignored and
re-processed. This is exactly the "one output directory per input
shard, plus a small manifest" layout the Ray guide prescribes for
resumable batch pipelines.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass


MANIFEST = "_lineage.jsonl"


def partition_digest(paths: list[str]) -> str:
    """Cheap input fingerprint: names + sizes + nanosecond mtimes
    (content digest would re-read terabytes; size+mtime catches
    regenerated inputs, including a same-size rewrite within one
    second)."""
    h = hashlib.blake2b(digest_size=12)
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{os.path.basename(p)}:{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()


@dataclass
class StageRun:
    """Bookkeeping for one checkpointed stage execution."""

    stage: str
    out_dir: str

    def __post_init__(self):
        os.makedirs(self.out_dir, exist_ok=True)
        self.manifest_path = os.path.join(self.out_dir, MANIFEST)
        # read once: a resume over P partitions asks is_done P times
        self._done = self.completed()

    def completed(self) -> dict[str, dict]:
        """Parse the manifest file; the last line per partition wins."""
        done: dict[str, dict] = {}
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                for line in f:
                    if line.strip():
                        rec = json.loads(line)
                        done[rec["partition"]] = rec
        return done

    def partition_dir(self, partition: str) -> str:
        return os.path.join(self.out_dir, f"part={partition}")

    def is_done(self, partition: str, digest: str) -> bool:
        rec = self._done.get(partition)
        return (rec is not None and rec.get("input_digest") == digest
                and os.path.isdir(self.partition_dir(partition)))

    def record(self, partition: str, digest: str, row_count: int,
               wall_ms: float, metrics: dict | None = None):
        rec = {
            "partition": partition, "stage": self.stage,
            "input_digest": digest, "row_count": int(row_count),
            "wall_ms": round(wall_ms, 1), "finished_at": time.time(),
        }
        if metrics:
            rec["metrics"] = metrics
        with open(self.manifest_path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        self._done[partition] = rec


def run_partitioned_stage(stage_name: str, out_dir: str,
                          partitions: dict[str, list[str]],
                          pipeline_fn) -> dict:
    """Run ``pipeline_fn(ds) -> Dataset`` over each input partition with
    checkpoint resume.

    ``partitions``: {partition_id: [input parquet paths]}.
    Finished partitions (manifest hit + unchanged digest) are skipped.
    Each partition's output lands in ``out_dir/part=<id>/`` atomically.
    Returns {"processed": [...], "skipped": [...], "rows": total}.
    """
    import ray.data as rd

    run = StageRun(stage_name, out_dir)
    processed, skipped, total_rows = [], [], 0
    for pid, paths in sorted(partitions.items()):
        digest = partition_digest(paths)
        if run.is_done(pid, digest):
            skipped.append(pid)
            continue
        t0 = time.time()
        ds = pipeline_fn(rd.read_parquet(paths))
        part_dir = run.partition_dir(pid)
        tmp_dir = part_dir + ".tmp"
        import shutil
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(part_dir, ignore_errors=True)
        ds.write_parquet(tmp_dir)
        rows = rd.read_parquet(tmp_dir).count()
        os.rename(tmp_dir, part_dir)
        run.record(pid, digest, rows, (time.time() - t0) * 1000)
        processed.append(pid)
        total_rows += rows
    return {"processed": processed, "skipped": skipped, "rows": total_rows}


def input_partitions_from_dir(input_dir: str, shards: int = 8) -> dict[str, list[str]]:
    """Group a directory's parquet files into ``shards`` partitions."""
    files = sorted(
        os.path.join(input_dir, f) for f in os.listdir(input_dir)
        if f.endswith(".parquet"))
    out: dict[str, list[str]] = {}
    for i, f in enumerate(files):
        out.setdefault(f"{i % shards:04d}", []).append(f)
    return out
