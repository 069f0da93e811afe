"""Crawl-side URL operators: canonicalization, URL-level dedup and the
politeness-aware frontier schedule.

- ``canonicalize_urls_batch`` + ``url_dedup``: URL canonicalization
  (scheme/host lowercase, tracking-param strip, trailing-slash and
  fragment strip) followed by a keep-first-crawl dedup grouped on the
  canonical URL. The min id and the count per canonical URL are an
  algebraic reduction, so the dedup is the flagship exact dedup's
  plan: a batch-local combine, then the one partials merge
  (``functions.agg.grouped_count_sum``). The merge moves slim
  (url, id) partial rows, never page bodies.
- ``frontier_order``: breadth-across-domains crawl schedule with the
  exact global position of every URL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import _mix64, grouped_count_sum

# Tracking params stripped by the canonicalizer (the usual suspects).
# The separator is CAPTURED (not lookbehind — RE2 has none) so a
# non-tracking param like href=... can never match via its ref= suffix.
_TRACKING_RE = r"(?P<sep>[?&])(utm_[a-z]+|fbclid|gclid|ref)=[^&#]*"


def canonicalize_urls_batch(batch: pa.Table,
                            url_col: str = "url") -> pa.Table:
    """Append ``canon_url``: scheme+host lowercased, ``#fragment``
    dropped, tracking params removed (with their separators), empty
    ``?`` remnants and trailing slashes stripped. All pyarrow.compute
    regex kernels — no per-row Python."""
    u = pc.cast(batch.column(url_col), pa.string())
    # drop fragment
    u = pc.replace_substring_regex(u, r"#.*$", "")
    # strip tracking params, keeping their leading separator
    u = pc.replace_substring_regex(u, _TRACKING_RE, r"\1")
    # collapse separator runs the removals left behind: '?&&a' -> '?a'
    u = pc.replace_substring_regex(u, r"(?P<kp>[?&])&+", r"\1")
    u = pc.replace_substring_regex(u, r"\?&", "?")
    # dangling '?' or '&' left after param removal
    u = pc.replace_substring_regex(u, r"[?&]+$", "")
    # lowercase scheme://host
    pref = pc.extract_regex(u, r"^(?P<p>[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)")
    pref_s = pc.struct_field(pref, "p")
    low = pc.utf8_lower(pref_s)
    rest = pc.replace_substring_regex(
        u, r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*", "")
    u = pc.binary_join_element_wise(
        pc.if_else(pc.is_valid(low), low, pa.scalar("", pa.string())),
        rest, "")
    # trailing slash (path only, keep the bare host form intact)
    u = pc.replace_substring_regex(u, r"(?P<keep>[^/])/$", r"\1")
    return batch.append_column("canon_url", u)


def url_dedup(ds, id_col: str = "doc_id", url_col: str = "url"):
    """Keep-first (min id) per canonical URL: canonicalize each batch,
    then one grouped min and count (``grouped_count_sum``).
    Output: (canon_url, doc_id winner, n_variants)."""
    def _slim(b: pa.Table) -> pa.Table:
        b = canonicalize_urls_batch(b, url_col)
        return pa.table({"canon_url": b.column("canon_url"),
                         id_col: pc.cast(b.column(id_col), pa.int64())})

    agg = grouped_count_sum(ds.map_batches(_slim, batch_format="pyarrow"),
                            ["canon_url"], [], count_alias="n_variants",
                            min_cols=[id_col])
    return agg.map_batches(
        lambda b: pa.table({"canon_url": b.column("canon_url"),
                            id_col: b.column(f"{id_col}_min"),
                            "n_variants": b.column("n_variants")}),
        batch_format="pyarrow")


def frontier_order(docs_ds, num_domains: int = 97, n_docs: int | None = None,
                   num_rank_buckets: int = 64, id_col: str = "doc_id"):
    """Politeness-aware crawl-frontier schedule: URLs interleave
    breadth-across-domains — round r takes each domain's r-th URL, and
    within a round domains go in key order. Output rows carry the
    EXACT global position, so an oracle can hash-check the order
    itself, not just membership.

    Two bucket-keyed passes, nothing doc-sized on the driver:
    1. per-domain rounds: domains co-locate via one hash-bucket
       groupby; inside a bucket one sort + a vectorized cumcount
       yields each doc's round; the schedule key
       (round * num_domains + domain) * n_docs + doc_id is a pure
       int64 whose order IS (round, domain, doc_id);
    2. global dense rank of the key: rank space splits into
       ``num_rank_buckets`` ranges — one tiny per-bucket count rollup
       gives the driver bucket OFFSETS (bucket-count rows only), then
       each bucket sorts locally and adds its offset.

    SCALE: pass 2's driver state is num_rank_buckets integers; skewed
    domains are impossible by construction (the key spreads every
    domain across rounds). At 10^12 URLs raise num_rank_buckets so a
    bucket stays task-sized.
    """
    if n_docs is None:
        n_docs = docs_ds.count()
    nb = 32

    def _dom(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy().astype(np.int64)
        dom = ids % num_domains
        return pa.table({
            "_b": pa.array((_mix64(dom) % np.uint64(nb)).astype(np.int64)),
            id_col: pa.array(ids), "domain_key": pa.array(dom),
        })

    def _rounds(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["domain_key", id_col], kind="mergesort")
        rnd = df.groupby("domain_key", sort=False).cumcount().to_numpy()
        ids = df[id_col].to_numpy()
        dom = df["domain_key"].to_numpy()
        key = (rnd * num_domains + dom) * n_docs + ids
        return pd.DataFrame({id_col: ids, "domain_key": dom,
                             "rnd": rnd.astype(np.int64),
                             "_key": key.astype(np.int64)})

    keyed = (docs_ds.map_batches(_dom, batch_format="pyarrow")
             .groupby("_b").map_groups(_rounds, batch_format="pandas")
             .materialize())

    max_key = (n_docs // num_domains + 1) * num_domains * n_docs + n_docs
    width = max(1, (max_key + num_rank_buckets) // num_rank_buckets)

    def _rb(b: pa.Table) -> pa.Table:
        k = b.column("_key").to_numpy()
        return b.append_column("_rb", pa.array(k // width, pa.int64()))

    tagged = keyed.map_batches(_rb, batch_format="pyarrow").materialize()
    # one row per rank bucket: a bounded key space, so one merge task
    counts = (grouped_count_sum(tagged, ["_rb"], [], count_alias="_c",
                                buckets=1)
              .to_pandas().sort_values("_rb"))
    offsets = dict(zip(counts["_rb"].astype(int),
                       np.concatenate([[0], counts["_c"].to_numpy()
                                       .cumsum()[:-1]]).astype(int)))

    def _pos(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("_key", kind="mergesort")
        off = offsets[int(df["_rb"].iloc[0])]
        df["pos"] = np.arange(1, len(df) + 1, dtype=np.int64) + off
        return df[[id_col, "domain_key", "rnd", "pos"]]

    return tagged.groupby("_rb").map_groups(_pos, batch_format="pandas")
