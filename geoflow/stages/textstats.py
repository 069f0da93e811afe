"""Text analysis over document tables: tokens, ratios, language ID,
quality scoring, fingerprints.

Training-data-pipeline operators (task brief "Text analysis") with no
reference counterpart; all hot paths are vectorized Arrow compute
kernels (RE2 under the hood) — no Python loop over rows except the
rolling-hash fingerprint, which is per-row by nature but O(len) with a
small constant.

Conventions chosen to be replayable in ANSI SQL (DuckDB oracle):
- token = maximal run of non-whitespace (``\\S+``),
- alpha/digit/space counts are ASCII-class regex counts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Tiny per-language stopword lists for the n-gram/stopword heuristic
# language identifier (public common stopwords).
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu", "den"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "que", "pour"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "que", "por"},
    "ru": {"и", "в", "не", "на", "что", "это", "с", "как", "по", "его"},
    "zh": set(),  # CJK handled by the script heuristic below
}


def token_count(text_col) -> pa.Array:
    """Whitespace tokenization count (== len(s.split()) for ASCII text)."""
    return pc.count_substring_regex(text_col, pattern=r"\S+")


def add_text_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append n_tokens / n_alpha / n_digit / n_space / text_len columns."""
    t = batch.column(text_col)
    batch = batch.append_column("n_tokens", token_count(t))
    batch = batch.append_column(
        "n_alpha", pc.count_substring_regex(t, pattern=r"[a-zA-Z]"))
    batch = batch.append_column(
        "n_digit", pc.count_substring_regex(t, pattern=r"[0-9]"))
    batch = batch.append_column(
        "n_space", pc.count_substring_regex(t, pattern=r" "))
    batch = batch.append_column("text_len", pc.utf8_length(t))
    return batch


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic quality features + a composite score per row.

    Features: alpha_ratio, digit_ratio, mean token length, tokens-per-
    char. Composite = alpha_ratio * (1 - digit_ratio) clipped; crude but
    deterministic and monotone in "looks like prose".
    """
    batch = add_text_stats(batch, text_col)
    ln = np.maximum(batch.column("text_len").to_numpy(), 1).astype(np.float64)
    alpha = batch.column("n_alpha").to_numpy() / ln
    digit = batch.column("n_digit").to_numpy() / ln
    ntok = np.maximum(batch.column("n_tokens").to_numpy(), 1)
    mean_tok_len = (ln - batch.column("n_space").to_numpy()) / ntok
    score = np.clip(alpha * (1.0 - digit), 0.0, 1.0)
    batch = batch.append_column("alpha_ratio", pa.array(alpha))
    batch = batch.append_column("digit_ratio", pa.array(digit))
    batch = batch.append_column("mean_token_len", pa.array(mean_tok_len))
    batch = batch.append_column("quality", pa.array(score))
    return batch


class LangId:
    """Stopword/script-heuristic language identifier (actor-pool stage).

    Callable-class form for ``map_batches(LangId, concurrency=N)``: the
    per-language token sets and compiled regexes are built once per
    actor in ``__init__`` (reference pattern: stateful setup amortized
    across batches), scoring is per batch.
    """

    def __init__(self):
        import re
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.cjk_re = re.compile(r"[一-鿿]")
        self.cyr_re = re.compile(r"[Ѐ-ӿ]")
        self.stop = {lang: frozenset(ws) for lang, ws in _STOPWORDS.items()}

    def predict_one(self, text: str) -> str:
        if not text:
            return "und"
        if self.cjk_re.search(text):
            return "zh"
        if self.cyr_re.search(text):
            return "ru"
        toks = [w.lower() for w in self.word_re.findall(text)]
        if not toks:
            return "und"
        best, best_hits = "en", -1
        for lang in ("en", "de", "fr", "es"):
            hits = sum(1 for w in toks if w in self.stop[lang])
            if hits > best_hits:
                best, best_hits = lang, hits
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        pred = pa.array([self.predict_one(t) for t in texts], pa.string())
        return batch.append_column("lang_pred", pred)


def fingerprint_batch(batch: pa.Table, text_col: str = "text",
                      window: int = 8) -> pa.Table:
    """Document fingerprint: min of rolling Rabin-Karp hashes over token
    windows (winnowing-style min-sampling, deterministic)."""
    B = 1000003
    MASK = (1 << 64) - 1
    texts = batch.column(text_col).to_pylist()
    fps = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        toks = (t or "").split()
        if not toks:
            fps[i] = 0
            continue
        hs = np.fromiter((hash_token(w) for w in toks), dtype=np.uint64)
        if len(hs) < window:
            acc = np.uint64(0)
            for h in hs:
                acc = np.uint64((int(acc) * B + int(h)) & MASK)
            fps[i] = acc
        else:
            # rolling polynomial hash over each window, take the min
            bw = pow(B, window - 1, 1 << 64)
            acc = 0
            for h in hs[:window].tolist():
                acc = (acc * B + int(h)) & MASK
            best = acc
            for j in range(window, len(hs)):
                acc = ((acc - int(hs[j - window]) * bw) * B + int(hs[j])) & MASK
                if acc < best:
                    best = acc
            fps[i] = best
    return batch.append_column("fingerprint", pa.array(fps, pa.uint64()))


def hash_token(tok: str) -> int:
    import hashlib
    return int.from_bytes(
        hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(), "big")


# --- SQL-replayable polynomial fingerprint (winnowing min over token
# windows, like fingerprint_batch, but with pure integer arithmetic the
# DuckDB oracle replays exactly; blake2 variant above is the
# stronger-hash alternative) ---

_FP_P = 2147483647        # 2^31 - 1: keeps every fold step inside int64
_FP_B_CHAR = 31
_FP_B_TOK = 1000003


def poly_token_hash(tok: str) -> int:
    acc = 0
    for ch in tok:
        acc = (acc * _FP_B_CHAR + ord(ch)) % _FP_P
    return acc


def fingerprint_poly_batch(batch: pa.Table, text_col: str = "text",
                           window: int = 8) -> pa.Table:
    """min over ``window``-token folds of per-token char-polynomial
    hashes; docs shorter than the window fold all tokens; empty -> 0."""
    texts = batch.column(text_col).to_pylist()
    pw = np.array([pow(_FP_B_TOK, window - 1 - k, _FP_P)
                   for k in range(window)], dtype=np.int64)
    fps = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = (t or "").split()
        if not toks:
            continue
        hs = np.fromiter((poly_token_hash(w) for w in toks),
                         dtype=np.int64, count=len(toks))
        if len(hs) < window:
            acc = 0
            for h in hs.tolist():
                acc = (acc * _FP_B_TOK + h) % _FP_P
            fps[i] = acc
        else:
            wins = np.lib.stride_tricks.sliding_window_view(hs, window)
            acc = np.zeros(len(wins), dtype=np.int64)
            for k in range(window):          # products < p^2 < 2^62
                acc = (acc + wins[:, k] * pw[k]) % _FP_P
            fps[i] = int(acc.min())
    return batch.append_column("fingerprint_poly",
                               pa.array(fps, pa.int64()))


# ---------------------------------------------------------------------------
# Fuzzy vocabulary join (edit-distance-1 pairs via deletion blocking)
# ---------------------------------------------------------------------------

FUZZY_MIN_DF = 5
FUZZY_MAX_LEN = 20


def _edit1(a: str, b: str) -> bool:
    """Exact levenshtein(a, b) == 1 (lengths within 1 by contract)."""
    la, lb = len(a), len(b)
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la < lb:
        a, b, la, lb = b, a, lb, la
    # la == lb + 1: b must be a one-deletion of a
    i = j = 0
    skipped = False
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif skipped:
            return False
        else:
            skipped = True
            i += 1
    return True


def tf_rows(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(doc, term, tf) rows for one batch — exact term frequencies via
    token explode + Arrow hash aggregate (no per-doc Python counting)."""
    ids = batch.column(id_col).to_numpy().astype(np.int64)
    texts = batch.column(text_col).to_pylist()
    toks_per_doc = [(t or "").split() for t in texts]
    lens = np.fromiter((len(t) for t in toks_per_doc), dtype=np.int64,
                       count=len(toks_per_doc))
    if lens.sum() == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    flat_terms = [w for toks in toks_per_doc for w in toks]
    doc = np.repeat(ids, lens)
    t = pa.table({id_col: pa.array(doc, pa.int64()),
                  "term": pa.array(flat_terms, pa.string())})
    out = pa.TableGroupBy(t, [id_col, "term"]).aggregate([([], "count_all")])
    return pa.table({id_col: out.column(id_col),
                     "term": out.column("term"),
                     "tf": out.column("count_all")})


def fuzzy_token_pairs(ds, text_col: str = "text",
                      min_df: int = FUZZY_MIN_DF,
                      max_len: int = FUZZY_MAX_LEN):
    """All vocabulary pairs at edit distance EXACTLY 1 (typo mining /
    data cleaning), via deletion-neighborhood blocking (Mor & Fraenkel
    1982 / FastSS): every term emits itself plus its one-char
    deletions as block keys; any distance-1 pair (deletion OR
    substitution) shares >= 1 key, so candidates come from ONE groupby
    over O(vocab x len) short key rows — never vocab^2. Exact verify
    inside the bucket; pairs dedup on (t1 < t2).

    Vocabulary = terms with df >= min_df and len <= max_len (both
    replayed by the oracle). Output: (t1, t2, df1, df2).
    """
    import pandas as pd

    from ..functions.agg import bucket_count, grouped_count_sum, plan_estimate

    tf = ds.map_batches(lambda b: tf_rows(b, "doc_id", text_col),
                        batch_format="pyarrow")
    # one (doc, term) row per token at most: the source's bytes bound them
    df_ds = grouped_count_sum(tf, ["term"], [], count_alias="df",
                              buckets=bucket_count(plan_estimate(ds)[1]))

    def _vocab_filter(b: pa.Table) -> pa.Table:
        terms = b.column("term").to_pylist()
        dfv = b.column("df").to_numpy()
        keep = np.fromiter(
            (len(t) <= max_len and d >= min_df
             for t, d in zip(terms, dfv)), dtype=bool, count=len(terms))
        return b.filter(pa.array(keep))

    vocab = df_ds.map_batches(_vocab_filter, batch_format="pyarrow")

    def _keys(b: pa.Table) -> pa.Table:
        terms = b.column("term").to_pylist()
        dfv = b.column("df").to_numpy()
        ks, ts, ds_ = [], [], []
        for t, d in zip(terms, dfv):
            ks.append(t)
            ts.append(t)
            ds_.append(d)
            for i in range(len(t)):
                ks.append(t[:i] + t[i + 1:])
                ts.append(t)
                ds_.append(d)
        return pa.table({"k": pa.array(ks, pa.string()),
                         "term": pa.array(ts, pa.string()),
                         "df": pa.array(ds_, pa.int64())})

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["k", "term"])
        rows = []
        for _, grp in g.groupby("k", sort=False):
            if len(grp) < 2:
                continue
            recs = list(grp[["term", "df"]].itertuples(index=False))
            for i in range(len(recs)):
                for j in range(i + 1, len(recs)):
                    a, b_ = recs[i], recs[j]
                    if a.term == b_.term:
                        continue
                    t1, t2 = sorted((a, b_), key=lambda r: r.term)
                    if abs(len(t1.term) - len(t2.term)) <= 1 and \
                            _edit1(t1.term, t2.term):
                        rows.append((t1.term, t2.term,
                                     int(t1.df), int(t2.df)))
        return pd.DataFrame(rows, columns=["t1", "t2", "df1", "df2"]) \
            .drop_duplicates()

    cand = vocab.map_batches(_keys, batch_format="pyarrow") \
        .groupby("k").map_groups(_pairs, batch_format="pandas")
    # cross-bucket dedup (a pair can share several keys)
    out = cand.to_pandas()
    if "t1" not in out.columns:
        out = pd.DataFrame({"t1": [], "t2": [], "df1": [], "df2": []})
    out = out.drop_duplicates().reset_index(drop=True)
    return out.astype({"df1": np.int64, "df2": np.int64})


def fuzzy_pairs_oracle_sql(table: str = "documents",
                           min_df: int = FUZZY_MIN_DF,
                           max_len: int = FUZZY_MAX_LEN) -> str:
    """DuckDB twin: SAME deletion blocking, then the builtin
    levenshtein() == 1 as an INDEPENDENT verifier of the engine's
    edit-distance code."""
    return rf"""
WITH tokd AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS toks FROM {table}
),
tokp AS (
  SELECT doc_id, u.i AS pos, toks[u.i] AS term
  FROM tokd, unnest(range(1, len(toks) + 1)) u(i)
),
tok AS (
  -- deterministic typo injection: docs with doc_id % 13 = 0 get one
  -- char deleted from their FIRST token (position doc_id//13 mod len)
  SELECT doc_id,
    CASE WHEN doc_id % 13 = 0 AND pos = 1 AND len(term) > 1
         THEN substr(term, 1,
                     CAST((doc_id // 13) % len(term) AS INTEGER))
              || substr(term,
                        CAST((doc_id // 13) % len(term) AS INTEGER) + 2)
         ELSE term END AS term
  FROM tokp
),
tf AS (SELECT doc_id, term FROM tok GROUP BY 1, 2),
vocab AS (
  SELECT term, count(*) AS df FROM tf GROUP BY 1
  HAVING count(*) >= {min_df} AND len(term) <= {max_len}
),
keys AS (
  SELECT term, df, term AS k FROM vocab
  UNION
  SELECT term, df,
         substr(term, 1, u.i - 1) || substr(term, u.i + 1) AS k
  FROM vocab, unnest(range(1, len(term) + 1)) u(i)
),
cand AS (
  SELECT DISTINCT a.term AS t1, b.term AS t2, a.df AS df1, b.df AS df2
  FROM keys a JOIN keys b ON a.k = b.k AND a.term < b.term
)
SELECT t1, t2, df1, df2 FROM cand WHERE levenshtein(t1, t2) = 1"""
