"""BM25 full-text ranking over a distributed inverted index.

Robertson-Sparck Jones BM25 (Okapi; Robertson et al., TREC-3) as a Ray
Data plan:

1. one streaming pass explodes documents into slim (doc, term, tf, dl)
   posting rows (Arrow hash aggregate per batch — no Python counting);
2. document frequencies come from a combiner-pattern groupby (shuffle
   is vocab x batches rows, never corpus-sized);
3. the query-term dictionary (term -> (q_id, df)) broadcasts via
   ``ray.put`` — query sets are tiny by nature; postings for NON-query
   terms are filtered out batch-side, so the scoring shuffle carries
   only matching (q_id, doc, partial score) rows;
4. per-query top-k is two-level: local top-k inside hash(doc) bucket
   groups, then a final merge over the O(buckets * k) survivors.

Float discipline: the score expression is written in the SAME operation
order as the DuckDB oracle (left-associative, see ``bm25_oracle_sql``
caller in pipelines/queries.py), both sides round to 6 decimals, and
ranking happens on the ROUNDED score with doc_id tie-break so a
last-ulp libm difference cannot reorder the top-k. Per-(query, doc)
sums span <= terms_per_query = 2 addends — float addition of two terms
is commutative, so aggregation order cannot matter.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

K1 = 1.2
B = 0.75


def tf_dl_rows(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(doc, term, tf, dl) posting rows for one batch (whitespace
    tokens, same '\\S+' semantics as textstats.tf_rows)."""
    ids = batch.column(id_col).to_numpy().astype(np.int64)
    texts = batch.column(text_col).to_pylist()
    toks_per_doc = [(t or "").split() for t in texts]
    lens = np.fromiter((len(t) for t in toks_per_doc), dtype=np.int64,
                       count=len(toks_per_doc))
    if lens.sum() == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64()),
                         "dl": pa.array([], pa.int64())})
    doc = np.repeat(ids, lens)
    dl_rep = np.repeat(lens, lens)
    t = pa.table({id_col: pa.array(doc, pa.int64()),
                  "term": pa.array([w for tk in toks_per_doc for w in tk],
                                   pa.string()),
                  "dl": pa.array(dl_rep, pa.int64())})
    out = pa.TableGroupBy(t, [id_col, "term", "dl"]) \
        .aggregate([([], "count_all")])
    return pa.table({id_col: out.column(id_col),
                     "term": out.column("term"),
                     "tf": out.column("count_all"),
                     "dl": out.column("dl")})


def corpus_stats(ds, text_col: str) -> tuple[int, int]:
    """(n_docs, total_tokens) via per-batch partials (one slim pass)."""

    def _p(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pylist()
        ntok = sum(len((t or "").split()) for t in texts)
        return pa.table({"nd": pa.array([len(texts)], pa.int64()),
                         "nt": pa.array([ntok], pa.int64())})

    parts = ds.map_batches(_p, batch_format="pyarrow").to_pandas()
    return int(parts["nd"].sum()), int(parts["nt"].sum())


def bm25_topk(ds, id_col: str = "doc_id", text_col: str = "text",
              n_queries: int = 3, terms_per_query: int = 2, k: int = 10,
              num_buckets: int = 32) -> pd.DataFrame:
    """Score the corpus against ``n_queries`` auto-derived queries (the
    top n*terms_per_query corpus terms by document frequency, DF-desc /
    term-asc, chunked in order) and return the per-query top-k.

    Returns (q_id, doc_id, score, rk) with score rounded to 6.
    """
    import ray

    from ..functions.agg import bucket_count, grouped_count_sum, plan_estimate
    from ..functions.joins import _mix_cols

    assert terms_per_query <= 2, \
        "score sums must stay 2-addend for order-free float aggregation"
    n_docs, n_tokens = corpus_stats(ds, text_col)
    avgdl = n_tokens * 1.0 / n_docs

    tf = ds.map_batches(lambda b: tf_dl_rows(b, id_col, text_col),
                        batch_format="pyarrow")
    # one (doc, term) row per token at most: the source's bytes bound them
    tf_buckets = bucket_count(plan_estimate(ds)[1])
    df_ds = grouped_count_sum(tf, ["term"], [], count_alias="df",
                              buckets=tf_buckets)
    n_qterms = n_queries * terms_per_query
    top_terms = df_ds.sort(["df", "term"], descending=[True, False]) \
        .limit(n_qterms).to_pandas()
    qdict = {t: (i // terms_per_query, int(d)) for i, (t, d) in
             enumerate(zip(top_terms["term"], top_terms["df"]))}
    qref = ray.put(qdict)

    def _score(b: pa.Table) -> pa.Table:
        qd = ray.get(qref)
        terms = b.column("term").to_pylist()
        hit = np.fromiter((t in qd for t in terms), dtype=bool,
                          count=len(terms))
        if not hit.any():
            return pa.table({"q_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "w": pa.array([], pa.float64())})
        idx = np.flatnonzero(hit)
        qids = np.fromiter((qd[terms[i]][0] for i in idx),
                           dtype=np.int64, count=len(idx))
        dfv = np.fromiter((qd[terms[i]][1] for i in idx),
                          dtype=np.float64, count=len(idx))
        tfv = b.column("tf").to_numpy()[idx].astype(np.float64)
        dlv = b.column("dl").to_numpy()[idx].astype(np.float64)
        # EXACT oracle operation order:
        #   ln(1 + (n - df + 0.5) / (df + 0.5))
        #     * tf * (K1 + 1) / (tf + K1 * (1 - B + B * dl / avgdl))
        idf = np.log(1.0 + (n_docs - dfv + 0.5) / (dfv + 0.5))
        w = idf * tfv * (K1 + 1.0) / \
            (tfv + K1 * ((1.0 - B) + (B * dlv) / avgdl))
        return pa.table({"q_id": pa.array(qids, pa.int64()),
                         id_col: pa.array(
                             b.column(id_col).to_numpy()[idx], pa.int64()),
                         "w": pa.array(w, pa.float64())})

    scored = tf.map_batches(_score, batch_format="pyarrow")
    sums = grouped_count_sum(scored, ["q_id", id_col], ["w"],
                             buckets=tf_buckets)

    def _tag(b: pa.Table) -> pa.Table:
        gb = (_mix_cols(b.column(id_col).to_numpy())
              % np.uint64(num_buckets)).astype(np.int32)
        return b.append_column("_gb", pa.array(gb))

    def _local_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["score"] = g["w_sum"].round(6)
        g = g.sort_values(["q_id", "score", id_col],
                          ascending=[True, False, True], kind="mergesort")
        g = g[g.groupby("q_id", sort=False).cumcount() < k]
        return g[["q_id", id_col, "score"]]

    local = sums.map_batches(_tag, batch_format="pyarrow") \
        .groupby("_gb").map_groups(_local_topk, batch_format="pandas") \
        .to_pandas()
    final = local.sort_values(["q_id", "score", id_col],
                              ascending=[True, False, True],
                              kind="mergesort")
    final["rk"] = final.groupby("q_id", sort=False).cumcount() + 1
    final = final[final["rk"] <= k].reset_index(drop=True)
    final["rk"] = final["rk"].astype(np.int64)
    return final[["q_id", id_col, "score", "rk"]]


def bm25_oracle_sql(table: str = "documents", id_col: str = "doc_id",
                    n_queries: int = 3, terms_per_query: int = 2,
                    k: int = 10) -> str:
    """DuckDB twin: same tokenization, same DF-ranked query derivation,
    same left-associative score expression, ranking on round(score, 6)
    with id tie-break."""
    nq = n_queries * terms_per_query
    return rf"""
WITH tok AS (
  SELECT {id_col}, unnest(regexp_extract_all(text, '\S+')) AS term
  FROM {table}
),
tf AS (SELECT {id_col}, term, count(*) AS tf FROM tok GROUP BY 1, 2),
dl AS (SELECT {id_col}, count(*) AS dl FROM tok GROUP BY 1),
stats AS (SELECT (SELECT count(*) FROM {table}) AS n,
                 (SELECT count(*) FROM tok) * 1.0 /
                 (SELECT count(*) FROM {table}) AS avgdl),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
qt AS (SELECT term, df,
              row_number() OVER (ORDER BY df DESC, term ASC) - 1 AS qrk
       FROM df),
qterms AS (SELECT term, df, CAST(qrk // {terms_per_query} AS BIGINT) AS q_id
           FROM qt WHERE qrk < {nq}),
sc AS (SELECT q.q_id, t.{id_col},
              SUM(ln(1 + (s.n - q.df + 0.5) / (q.df + 0.5))
                  * t.tf * ({K1} + 1)
                  / (t.tf + {K1} * (1 - {B} + {B} * d.dl / s.avgdl))) AS w
       FROM tf t
       JOIN qterms q USING (term)
       JOIN dl d USING ({id_col})
       CROSS JOIN stats s
       GROUP BY 1, 2),
rk AS (SELECT q_id, {id_col}, round(w, 6) AS score,
              row_number() OVER (PARTITION BY q_id
                                 ORDER BY round(w, 6) DESC,
                                          {id_col} ASC) AS rk
       FROM sc)
SELECT q_id, {id_col}, score, CAST(rk AS BIGINT) AS rk
FROM rk WHERE rk <= {k}"""


# ---------------------------------------------------------------------------
# Positional phrase search (exact n-gram queries over a positional index)
# ---------------------------------------------------------------------------

POS_BITS = 20   # positions < 2^20 per doc; key = doc_id * 2^20 + pos


def positional_postings(ds, phrases: list[str], id_col: str = "doc_id",
                        text_col: str = "text", carry: str = "lang"):
    """Slim (doc, carry, term, pos) postings restricted to the query
    phrases' vocabulary — the selectivity that makes a positional
    index usable at scale: non-query terms never leave the map task.
    Tokenization is the single-space split the SQL twin replays
    (string_split(text, ' ')); positions are 1-based."""
    import pyarrow.compute as pc

    vocab = pa.array(sorted({t for p in phrases for t in p.split(" ")}),
                     pa.string())

    def _post(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column(id_col), pa.int64())
        toks = pc.split_pattern(pc.cast(b.column(text_col), pa.string()),
                                " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)          # offset-aware (slices ok)
        parent = pc.list_parent_indices(toks).to_numpy()
        offs = toks.offsets.to_numpy().astype(np.int64)
        offs = offs - offs[0]                 # normalize sliced arrays
        # 1-based position within the doc
        pos = (np.arange(len(flat), dtype=np.int64)
               - np.repeat(offs[:-1], np.diff(offs)) + 1)
        m = pc.is_in(flat, value_set=vocab).to_numpy(
            zero_copy_only=False)
        carry_np = b.column(carry).combine_chunks().to_numpy(
            zero_copy_only=False) \
            if isinstance(b.column(carry), pa.ChunkedArray) \
            else b.column(carry).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids.to_numpy()[parent[m]], pa.int64()),
            carry: pa.array(carry_np[parent[m]]),
            "term": flat.filter(pa.array(m)),
            "pos": pa.array(pos[m], pa.int64())})

    return ds.map_batches(_post, batch_format="pyarrow")


def phrase_match_counts(postings, phrase: str, id_col: str = "doc_id",
                        carry: str = "lang"):
    """Occurrence rows of ``phrase`` (one per match, with doc + carry)
    via adjacency joins: every term of the phrase is keyed to the
    occurrence's START position (doc*2^POS_BITS + pos - i), so a
    k-term phrase is k-1 bucketed hash joins on ONE shared key.
    Assumes doc_id < 2^43."""
    import pyarrow.compute as pc

    from ..functions.joins import bucketed_hash_join

    terms = phrase.split(" ")

    def _subset(i: int, t: str, keep_carry: bool):
        def _f(b: pa.Table) -> pa.Table:
            m = pc.equal(b.column("term"), pa.scalar(t))
            s = b.filter(m)
            key = (s.column(id_col).to_numpy()
                   * np.int64(1 << POS_BITS)
                   + s.column("pos").to_numpy() - i)
            cols = {f"_k{i}": pa.array(key, pa.int64())}
            if keep_carry:
                cols[id_col] = s.column(id_col)
                cols[carry] = s.column(carry)
            return pa.table(cols)
        return _f

    cur = postings.map_batches(_subset(0, terms[0], True),
                               batch_format="pyarrow")
    left_key = "_k0"
    for i, t in enumerate(terms[1:], start=1):
        nxt = postings.map_batches(_subset(i, t, False),
                                   batch_format="pyarrow")
        cur = bucketed_hash_join(cur, nxt, left_key, f"_k{i}")
        left_key = "_key"

    return cur


def phrase_search(docs_ds, phrases: list[str], id_col: str = "doc_id",
                  text_col: str = "text", carry: str = "lang"):
    """Per-(phrase, carry) rollup: n_docs, n_matches and an exact
    doc-weighted checksum. Postings built once for all phrases."""
    import pandas as pd

    from ..functions.agg import grouped_count_sum

    postings = positional_postings(docs_ds, phrases, id_col, text_col,
                                   carry).materialize()
    outs = []
    for p in phrases:
        occ = phrase_match_counts(postings, p, id_col, carry)

        def _slim(b: pa.Table) -> pa.Table:
            return pa.table({id_col: b.column(id_col),
                             carry: b.column(carry)})

        per_doc = grouped_count_sum(
            occ.map_batches(_slim, batch_format="pyarrow"),
            [id_col, carry], [], count_alias="n")

        def _w(b: pa.Table) -> pa.Table:
            n = b.column("n").to_numpy().astype(np.int64)
            d = b.column(id_col).to_numpy().astype(np.int64)
            return pa.table({carry: b.column(carry),
                             "one": pa.array(np.ones(len(n), np.int64)),
                             "n": pa.array(n),
                             "ck": pa.array(d * n)})

        agg = grouped_count_sum(
            per_doc.map_batches(_w, batch_format="pyarrow"),
            [carry], ["one", "n", "ck"], count_alias="_g").to_pandas()
        agg.insert(0, "phrase", p)
        agg = agg.rename(columns={"one_sum": "n_docs",
                                  "n_sum": "n_matches",
                                  "ck_sum": "doc_checksum"})
        outs.append(agg[["phrase", carry, "n_docs", "n_matches",
                         "doc_checksum"]])
    out = pd.concat(outs, ignore_index=True)
    for c in ("n_docs", "n_matches", "doc_checksum"):
        out[c] = out[c].astype(np.int64)
    return out
