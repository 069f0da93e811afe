"""Flagship web-page ingestion pipeline (the north-rule end-to-end path).

    pages (url, warc_ts, html, text, lang)
      -> extract text (byte-identity verified against the stored column)
      -> project away html immediately (wide binary never reaches a shuffle)
      -> geocode (deterministic) -> cell id (S2-style quadtree)
      -> exact dedup by content hash (hash-partitioned, first-wins by url)
      -> zonal aggregation per coarse cell (pre-aggregated combiner ->
         one-bucket merge)

Everything streams: the only materialized results are the tiny zonal
table and scalar invariant counters. Reference anchors: the zonal
aggregate generalizes the rose-diagram grouped means
(``processing_alg/topocorrection_eval/rose_diagram_eval.py:197-233``);
extraction byte-identity is the BASELINE.json ``input_hint`` invariant.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..functions.agg import (bucket_count, combine_partials, grouped_count_sum,
                             merge_partials, plan_estimate)
from ..stages import cells
from ..stages.extract import extract_text
from ..stages.geocode import geocode_urls

PAGE_CELL_RES = 12   # fine cell carried per page (~10 km grid step)
ZONE_CELL_RES = 5    # coarse zonal-aggregation cell


def text_hash64(texts) -> np.ndarray:
    """64-bit blake2b content hash per text (exact-dedup key).

    Returned as int64 (bit-reinterpreted): Ray's groupby/aggregate path
    converts key columns through Python ints and overflows C long on
    uint64 values >= 2^63, silently degrading blocks to pickled-object
    columns.
    """
    return np.fromiter(
        (int.from_bytes(hashlib.blake2b((t or "").encode("utf-8"),
                                        digest_size=8).digest(), "big")
         for t in texts),
        dtype=np.uint64, count=len(texts),
    ).view(np.int64)


def enrich_pages_batch(batch: pa.Table, cell_res: int = PAGE_CELL_RES,
                       strict: bool = False, slim: bool = False) -> pa.Table:
    """One fused pass: extract + verify + geocode + cell + content hash.

    Fusing these into a single Arrow batch transform means the pipeline
    reads each page's html exactly once and the (potentially MB-sized)
    binary column is dropped before any downstream exchange.

    Extraction is ``stages.extract.extract_text`` per row (null html
    extracts to ""). Whenever the batch carries a stored ``text``
    column, each row is compared with its extraction; the full output
    reports the result per row in ``text_ok``. ``strict=True`` turns
    the check into an in-pipeline assertion: any mismatching row fails
    the task with a ``byte-identity`` error (north-rule invariant
    enforcement). ``slim=True`` emits only the four columns dedup and
    zonal need (url, cell, text_hash, n_chars).
    """
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    extracted = [extract_text(h) if h is not None else "" for h in htmls]
    if "text" in batch.column_names:
        stored = batch.column("text").to_pylist()
        ok = np.fromiter((a == b for a, b in zip(extracted, stored)),
                         dtype=bool, count=len(extracted))
        if strict and not ok.all():
            bad = [u for u, o in zip(urls, ok) if not o][:5]
            raise ValueError(
                f"text-extraction byte-identity violated for "
                f"{int((~ok).sum())} rows; first urls: {bad}")
    else:
        ok = np.ones(len(extracted), dtype=bool)
    lat, lon = geocode_urls(urls)
    cell = cells.cell_id(lat, lon, cell_res)
    n_chars = pa.array(np.fromiter((len(t) for t in extracted),
                                   dtype=np.int64, count=len(extracted)))
    if slim:
        # flagship dedup/zonal need only these ~50 B/row: projecting the
        # extracted text away HERE (not one stage later) cuts the
        # object-store traffic between enrich and dedup by ~40x — at 32
        # concurrent writers the block-store bandwidth, not CPU, was the
        # stage's straggler (ds.stats: remote wall max ~1.7x UDF max)
        return pa.table({
            "url": batch.column("url"),
            "cell": pa.array(cell.astype(np.int64), pa.int64()),
            "text_hash": pa.array(text_hash64(extracted), pa.int64()),
            "n_chars": n_chars,
        })
    return pa.table({
        "url": batch.column("url"),
        "warc_ts": batch.column("warc_ts"),
        "lang": batch.column("lang"),
        "text": pa.array(extracted, pa.string()),
        "text_ok": pa.array(ok),
        "lat": pa.array(lat),
        "lon": pa.array(lon),
        # int64: cell ids fit (res <= 29 keeps the top bit clear) and
        # int64 keys stay on the fast Arrow path through groupby
        "cell": pa.array(cell.astype(np.int64), pa.int64()),
        "text_hash": pa.array(text_hash64(extracted), pa.int64()),
        "n_chars": n_chars,
    })


def enrich_pages(pages_ds, cell_res: int = PAGE_CELL_RES,
                 strict: bool = False, slim: bool = False):
    return pages_ds.map_batches(
        lambda b: enrich_pages_batch(b, cell_res, strict, slim),
        batch_format="pyarrow",
    )


def dedup_exact(enriched_ds):
    """First-wins exact dedup on the content hash (deterministic: min url).

    Shuffle-light shape: the batch-local Arrow combine over ``text_hash``
    (minimum url and n_chars, copy count) fuses with the enrich map and
    cuts exchanged rows when duplicates are block-local; then the one
    partials merge (``functions.agg.merge_partials``). Its width B is
    ``functions.agg.bucket_count`` over the plan's row estimate of
    ``enriched_ds`` (at most one partial per enriched row), taken on
    the driver before anything runs: below ROWS_PER_BUCKET rows the
    partials coalesce to one block and merge in one task, with no
    shuffle; above it they are exchanged on a bucket of the hash and
    each bucket merges in one Arrow pass. Keying the shuffle on a small
    bucket id instead of the raw 64-bit hash measured 3x faster end to
    end than ``groupby("text_hash").aggregate(Min, Min, Sum)`` at 10^6
    rows (Ray's sort comparator and per-unique-key aggregate paths are
    the cost; the bucket sort is nearly free).
    Winners' geocode/cell are re-derived from the url, which is cheaper
    than shuffling the full rows.
    """
    mins = ["url", "n_chars"]
    buckets = bucket_count(plan_estimate(enriched_ds)[0])

    def _local_combine(b: pa.Table) -> pa.Table:
        return combine_partials(b, ["text_hash"], [], mins, buckets=buckets)

    slim = enriched_ds.map_batches(_local_combine, batch_format="pyarrow")
    # NOTE: at 4,000 pages the rule gives B = 1, a coalesce of slim
    # before the merge. On a 1-core host that beat the 64-bucket sort
    # shuffle in 12 of 12 rounds (0.53 against 0.61 s per flagship
    # pass): the shuffle's per-partition tasks cost more than the
    # ~24 B/row it moves. Coalescing loses from ~300k rows, which is
    # why B grows past ROWS_PER_BUCKET (see bucket_count).
    winners = merge_partials(slim, ["text_hash"], [], "n_copies", mins,
                             buckets=buckets)

    def _rederive(batch: pa.Table) -> pa.Table:
        urls = batch.column("url_min").to_pylist()
        lat, lon = geocode_urls(urls)
        cell = cells.cell_id(lat, lon, PAGE_CELL_RES)
        return pa.table({
            "url": batch.column("url_min"),
            "text_hash": batch.column("text_hash"),
            "n_chars": batch.column("n_chars_min"),
            "n_copies": batch.column("n_copies"),
            "lat": pa.array(lat), "lon": pa.array(lon),
            "cell": pa.array(cell.astype(np.int64), pa.int64()),
        })

    return winners.map_batches(_rederive, batch_format="pyarrow")


def zonal_page_stats(enriched_ds, zone_res: int = ZONE_CELL_RES):
    """Pages per coarse cell + char-volume stats (combiner -> tiny shuffle)."""
    def _add_zone(batch: pa.Table) -> pa.Table:
        zone = cells.cell_parent(
            batch.column("cell").to_numpy().astype(np.uint64), zone_res)
        return batch.append_column(
            "zone", pa.array(zone.astype(np.int64), pa.int64()))

    zoned = enriched_ds.map_batches(_add_zone, batch_format="pyarrow")
    # coarse zones (<= 4^zone_res keys): one bucket
    return grouped_count_sum(zoned, ["zone"], ["n_chars"],
                             count_alias="n_pages", buckets=1)


def run_flagship_checkpointed(pages_dir: str, work_dir: str,
                              shards: int = 8) -> dict:
    """Flagship with per-stage checkpoint resume (north rule: "resumable
    from checkpoint with per-partition lineage + metrics").

    Three checkpointed stages, each atomic + manifest-tracked
    (geoflow.state.lineage):

    1. ``enrich`` — per input shard (embarrassingly parallel, so resume
       granularity is the shard); strict, so a stored ``text`` that
       differs from its extraction fails the run (``byte-identity``),
    2. ``dedup`` — global (the groupby crosses shards; one partition
       whose input digest covers every enrich output),
    3. ``zonal`` — over the dedup output.

    Re-running after a crash skips finished stages/shards; changing any
    input invalidates exactly the dependent partitions via digests.
    Returns the per-stage reports plus the zonal result path.
    """
    import os

    from ..state.lineage import (input_partitions_from_dir,
                                 run_partitioned_stage)

    def _files_under(root: str) -> list[str]:
        out = []
        for dirpath, _, files in os.walk(root):
            out += [os.path.join(dirpath, f) for f in files
                    if f.endswith(".parquet")]
        return sorted(out)

    parts = input_partitions_from_dir(pages_dir, shards)
    r1 = run_partitioned_stage(
        "enrich", f"{work_dir}/enrich", parts,
        lambda ds: enrich_pages(ds, strict=True))

    r2 = run_partitioned_stage(
        "dedup", f"{work_dir}/dedup",
        {"all": _files_under(f"{work_dir}/enrich")},
        dedup_exact)

    r3 = run_partitioned_stage(
        "zonal", f"{work_dir}/zonal",
        {"all": _files_under(f"{work_dir}/dedup")},
        zonal_page_stats)

    return {"enrich": r1, "dedup": r2, "zonal": r3,
            "zonal_dir": f"{work_dir}/zonal/part=all"}


def run_flagship(pages_ds):
    """pages -> enriched/deduped -> zonal stats Dataset (small result).

    Returns the zonal stats Dataset sorted by page count (descending).
    The text-extraction byte-identity invariant is enforced en route:
    ``strict=True`` makes any mismatching row fail its task loudly.
    """
    enriched = enrich_pages(pages_ds, strict=True, slim=True)
    deduped = dedup_exact(enriched)
    zonal = zonal_page_stats(deduped)
    return zonal.sort("n_pages", descending=True)
