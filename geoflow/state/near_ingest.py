"""Incremental cross-run NEAR-dup ingest: MinHash-LSH novelty against
a persisted, hash-partitioned band + shingle index.

Extends ``state.ingest`` (exact cross-run dedup) to near-duplicates:
every new crawl shard is checked against EVERYTHING already committed
without loading the committed corpus — the continuous-crawl pattern
for fuzzy dedup (MinHash-LSH as in Sennrich-era near-dup pipelines;
same statistics as ``stages.dedup.minhash_lsh_pairs``).

Index layout (append-only parquet, atomic per-(shard, bucket) files)::

    {work_dir}/nearidx/bands/bucket=<b>/<shard>.parquet
        (band_id, band_hash, ref_id)     b = mix(band_hash) % nb
    {work_dir}/nearidx/sh/bucket=<b>/<shard>.parquet
        (ref_id, sh: list<uint64>)       b = mix(ref_id)    % nb

Plan (nothing corpus-sized on the driver):

1. one pass over the shard computes distinct shingle hashes + MinHash
   signatures (vectorized ``reduceat``), then band rows explode.
2. CANDIDATES: shard band rows shuffle ONCE by band-hash bucket; each
   bucket task reads ONLY its committed band partition (index/nb rows)
   and joins on (band_id, band_hash) → (new_id, ref_id) pairs.
3. VERIFY: pairs pick up the new doc's shingle set via a bucketed hash
   join, then shuffle by ref-id bucket; each task reads ONLY its
   committed shingle partition and computes EXACT set Jaccard over the
   64-bit shingle hashes (blake2b-64 — collision odds ~n²/2⁶⁴; the
   DuckDB oracle works on shingle STRINGS and hash-matches, which
   checks this end to end at test scales).
4. dropped = shard docs with any match ≥ threshold (a shard-bounded id
   set broadcast into an anti-filter); the survivors' band + shingle
   rows commit idempotently (tmp + ``os.replace``, own file excluded
   from the seen-set) exactly like ``state.ingest``.

Within-shard near-dups are NOT collapsed here — compose
``minhash_lsh_pairs`` + ``dup_components`` before ingest when a shard
can self-duplicate. Scale ``num_buckets`` with index size; growing it
is a one-off parquet rewrite, as for the exact index.

Reference anchor: none (the reference has no lifecycle layer at all);
this is the fuzzy half of the multi-run corpus growth story.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..pipelines.flagship import hash_bucket
from ..stages.dedup import (
    _mod_p31, _perm_params, _shingle_hashes, explode_bands, _EMPTY_SIG,
)


def sig_shingle_batch(batch: pa.Table, id_col: str, text_col: str,
                      num_perm: int = 96, shingle_k: int = 3) -> pa.Table:
    """ids + minhash signature + DISTINCT shingle hashes per row.
    Same vectorized reduceat plan as ``minhash_batch`` but keeps the
    (deduplicated) shingle sets — the verify stage and the index need
    them. Distinctness does not change the signature (min over a set
    equals min over its multiset)."""
    a, b = _perm_params(num_perm)
    ids = batch.column(id_col)
    texts = batch.column(text_col).to_pylist()
    sh_list = [np.unique(_shingle_hashes(t, shingle_k)) for t in texts]
    lens = np.array([len(s) for s in sh_list], dtype=np.int64)
    sigs = np.full((num_perm, len(texts)), _EMPTY_SIG, dtype=np.uint64)
    nz = np.nonzero(lens > 0)[0]
    if len(nz):
        concat = _mod_p31(np.concatenate([sh_list[i] for i in nz]))
        bnd = np.concatenate(([0], np.cumsum(lens[nz])[:-1]))
        chunk = max(1, min(num_perm, (4 << 20) // max(len(concat), 1)))
        for lo in range(0, num_perm, chunk):
            hi = min(lo + chunk, num_perm)
            vals = _mod_p31(a[lo:hi, None] * concat[None, :]
                            + b[lo:hi, None])
            sigs[np.ix_(np.arange(lo, hi), nz)] = \
                np.minimum.reduceat(vals, bnd, axis=1)
    return pa.table({
        id_col: ids,
        "sig": pa.array(list(sigs.T), pa.list_(pa.uint64())),
        "sh": pa.array([s.tolist() for s in sh_list],
                       pa.list_(pa.uint64())),
    })


def _read_committed(bdir: str, own: str, columns: list[str]):
    """All committed parquet rows in one bucket dir, excluding the
    ingesting shard's own file (idempotent re-runs)."""
    import pyarrow.parquet as pq

    if not os.path.isdir(bdir):
        return None
    files = sorted(f for f in os.listdir(bdir)
                   if f.endswith(".parquet") and f != own)
    if not files:
        return None
    return pa.concat_tables([
        pq.read_table(os.path.join(bdir, f), columns=columns)
        for f in files])


def _atomic_write(bdir: str, shard_id: str, table: pa.Table) -> None:
    import pyarrow.parquet as pq

    os.makedirs(bdir, exist_ok=True)
    tmp = os.path.join(bdir, f".{shard_id}.tmp.parquet")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(bdir, f"{shard_id}.parquet"))


def incremental_near_ingest(docs_ds, work_dir: str, shard_id: str,
                            id_col: str = "doc_id",
                            text_col: str = "text",
                            jaccard_threshold: float = 0.5,
                            num_perm: int = 96, num_bands: int = 32,
                            shingle_k: int = 3, num_buckets: int = 8):
    """Ingest one shard; return the Dataset of shard rows that are NOT
    near-duplicates (exact shingle Jaccard >= threshold on an LSH band
    collision) of any previously committed document. Novel rows' band
    and shingle-set rows are committed to the index atomically and
    idempotently per (shard, bucket)."""
    import ray

    from ..functions.joins import bucketed_hash_join

    if "/" in shard_id or shard_id.startswith("."):
        raise ValueError(f"invalid shard_id: {shard_id!r}")
    bands_root = os.path.join(work_dir, "nearidx", "bands")
    sh_root = os.path.join(work_dir, "nearidx", "sh")
    own = f"{shard_id}.parquet"

    docs = docs_ds.map_batches(
        lambda b: b.select([id_col, text_col]),
        batch_format="pyarrow").materialize()
    feats = docs.map_batches(
        lambda b: sig_shingle_batch(b, id_col, text_col, num_perm,
                                    shingle_k),
        batch_format="pyarrow", batch_size=1024).materialize()
    bands = feats.map_batches(
        lambda b: explode_bands(b.select([id_col, "sig"]), id_col,
                                num_bands),
        batch_format="pyarrow")

    def _tag_bh(b: pa.Table) -> pa.Table:
        bk = hash_bucket(b.column("band_hash").to_numpy(), num_buckets)
        return b.append_column("_bk", pa.array(bk, pa.int64()))

    def _candidates(g: pd.DataFrame) -> pd.DataFrame:
        bk = int(g["_bk"].iloc[0])
        idx = _read_committed(
            os.path.join(bands_root, f"bucket={bk:05d}"), own,
            ["band_id", "band_hash", "ref_id"])
        if idx is None:
            return pd.DataFrame({"new_id": pd.Series([], dtype=np.int64),
                                 "ref_id": pd.Series([], dtype=np.int64)})
        m = g[[id_col, "band_id", "band_hash"]].merge(
            idx.to_pandas(), on=["band_id", "band_hash"], how="inner")
        out = m[[id_col, "ref_id"]].drop_duplicates()
        return out.rename(columns={id_col: "new_id"}).astype(np.int64)

    pairs = (bands.map_batches(_tag_bh, batch_format="pyarrow")
             .groupby("_bk").map_groups(_candidates,
                                        batch_format="pandas"))

    new_sh = feats.map_batches(
        lambda b: pa.table({"_nid": b.column(id_col),
                            "sh_new": b.column("sh")}),
        batch_format="pyarrow")
    with_sh = bucketed_hash_join(pairs, new_sh, "new_id", "_nid",
                                 num_buckets=num_buckets)
    with_sh = with_sh.map_batches(
        lambda b: b.rename_columns(
            ["new_id" if c == "_key" else c for c in b.column_names]),
        batch_format="pyarrow")

    def _tag_ref(b: pa.Table) -> pa.Table:
        rk = hash_bucket(b.column("ref_id").to_numpy(), num_buckets)
        return b.append_column("_rk", pa.array(rk, pa.int64()))

    def _verify(g: pd.DataFrame) -> pd.DataFrame:
        rk = int(g["_rk"].iloc[0])
        idx = _read_committed(
            os.path.join(sh_root, f"bucket={rk:05d}"), own,
            ["ref_id", "sh"])
        empty = pd.DataFrame({"new_id": pd.Series([], dtype=np.int64)})
        if idx is None:
            return empty
        ref_sh = {int(r): np.asarray(s, dtype=np.uint64)
                  for r, s in zip(idx.column("ref_id").to_pylist(),
                                  idx.column("sh").to_pylist())}
        hit = []
        for nid, rid, sn in zip(g["new_id"].to_numpy(),
                                g["ref_id"].to_numpy(), g["sh_new"]):
            rs = ref_sh.get(int(rid))
            if rs is None or len(rs) == 0:
                continue
            sn = np.asarray(sn, dtype=np.uint64)
            if len(sn) == 0:
                continue
            inter = len(np.intersect1d(sn, rs, assume_unique=True))
            if inter / (len(sn) + len(rs) - inter) >= jaccard_threshold:
                hit.append(int(nid))
        if not hit:
            return empty
        return pd.DataFrame({"new_id": np.unique(hit).astype(np.int64)})

    matches = (with_sh.map_batches(_tag_ref, batch_format="pyarrow")
               .groupby("_rk").map_groups(_verify, batch_format="pandas"))
    dropped = np.asarray(sorted(set(matches.unique("new_id") or [])),
                         dtype=np.int64)     # shard-bounded, never bigger
    dropped_ref = ray.put(dropped)

    def _novel_only(b: pa.Table, col: str) -> pa.Table:
        d = ray.get(dropped_ref)
        return b.filter(pa.array(
            ~np.isin(b.column(col).to_numpy().astype(np.int64), d)))

    # commit surviving band rows (by band-hash bucket) and shingle rows
    # (by ref-id bucket) — mirrors the exact index's idempotent shape
    def _commit_bands(g: pd.DataFrame) -> pd.DataFrame:
        bk = int(g["_bk"].iloc[0])
        _atomic_write(
            os.path.join(bands_root, f"bucket={bk:05d}"), shard_id,
            pa.table({
                "band_id": pa.array(g["band_id"].to_numpy(), pa.int32()),
                "band_hash": pa.array(
                    g["band_hash"].to_numpy().astype(np.uint64)),
                "ref_id": pa.array(g[id_col].to_numpy(), pa.int64()),
            }))
        return pd.DataFrame({"bucket": [bk], "rows": [len(g)]})

    def _commit_sh(g: pd.DataFrame) -> pd.DataFrame:
        rk = int(g["_rk"].iloc[0])
        _atomic_write(
            os.path.join(sh_root, f"bucket={rk:05d}"), shard_id,
            pa.table({
                "ref_id": pa.array(g[id_col].to_numpy(), pa.int64()),
                "sh": pa.array(list(g["sh"]), pa.list_(pa.uint64())),
            }))
        return pd.DataFrame({"bucket": [rk], "rows": [len(g)]})

    (bands.map_batches(lambda b: _novel_only(b, id_col),
                       batch_format="pyarrow")
     .map_batches(_tag_bh, batch_format="pyarrow")
     .groupby("_bk").map_groups(_commit_bands, batch_format="pandas")
     .materialize())
    (feats.map_batches(lambda b: _novel_only(b.select([id_col, "sh"]),
                                             id_col),
                       batch_format="pyarrow")
     .map_batches(lambda b: b.append_column("_rk", pa.array(
         hash_bucket(b.column(id_col).to_numpy(), num_buckets),
         pa.int64())), batch_format="pyarrow")
     .groupby("_rk").map_groups(_commit_sh, batch_format="pandas")
     .materialize())

    return docs.map_batches(lambda b: _novel_only(b, id_col),
                            batch_format="pyarrow")
