"""Deterministic Common-Crawl-style web-page table (the north-rule input).

Schema is exactly BASELINE.json ``input_hint``::

    url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string

Generation rules follow FIXTURES.md F1: url is unique per row index, html
is rendered from a small template grammar seeded by the url (titles,
paragraphs, lists, entities, comments, script/style noise), ``text`` is
the byte-exact output of the engine's extractor on ``html`` (the
generator calls geoflow.stages.extract.extract_text itself, making the
byte-identical-extraction invariant testable end to end), ``lang`` is a
Zipf-weighted choice keyed on the url hash.

Everything is a pure function of the row index, so generation is
embarrassingly parallel: ``pages_dataset`` builds the table as a Ray Data
pipeline (``ray.data.range -> map_batches``) and never materializes it on
the driver. A duplicate fraction re-emits earlier rows' content under new
urls so the exact-dedup operators have real work to do.
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa

from ..stages.extract import extract_text

_WORDS = (
    "data engine tile raster band pixel slope aspect terrain cell index "
    "join shuffle batch arrow stream page crawl web text token corpus "
    "model vector query spatial zonal mean regression correction luminance "
    "cosine minnaert scatter sun azimuth zenith mountain valley ridge "
    "river basin forest desert plain coast island cloud shadow light"
).split()

_LANGS = ["en", "de", "fr", "es", "ru", "zh"]
_LANG_CUM = np.cumsum([0.45, 0.20, 0.12, 0.10, 0.08, 0.05])

_BASE_TS_US = 1735689600000000  # 2025-01-01T00:00:00 UTC in microseconds


def page_url(i: int) -> str:
    return f"https://site{i % 999}.example/s{(i // 999) % 37}/page{i}"


def _sentence(rng: random.Random) -> str:
    n = rng.randint(4, 14)
    words = [rng.choice(_WORDS) for _ in range(n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _paragraph(rng: random.Random) -> str:
    return " ".join(_sentence(rng) for _ in range(rng.randint(1, 5)))


def render_html(i: int, content_seed: int) -> bytes:
    """Render one page's HTML from the template grammar (deterministic)."""
    rng = random.Random(content_seed)
    parts = [
        "<!DOCTYPE html><html><head>",
        f"<title>{_sentence(rng)[:-1]}</title>",
        '<style>body { font: 14px sans-serif; }</style>',
        '<script>var t = Date.now(); console.log("noise " + t);</script>',
        "</head><body>",
        f"<h1>{_sentence(rng)[:-1]} &amp; more</h1>",
        f"<!-- generated page {i} -->",
    ]
    for _ in range(rng.randint(2, 7)):
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(f"<p>{_paragraph(rng)}</p>")
        elif kind == 1:
            items = "".join(f"<li>{_sentence(rng)}</li>"
                            for _ in range(rng.randint(2, 5)))
            parts.append(f"<ul>{items}</ul>")
        elif kind == 2:
            parts.append(f"<div><span>{_sentence(rng)}</span> "
                         f"<em>&lt;{rng.choice(_WORDS)}&gt;</em></div>")
        else:
            parts.append(f"<blockquote>{_sentence(rng)} &quot;{rng.choice(_WORDS)}&quot;"
                         f" &#8212; anon</blockquote>")
    parts.append("<footer>&copy; 2025 example</footer></body></html>")
    return "".join(parts).encode("utf-8")


def make_pages_batch(batch: dict, duplicate_fraction: float = 0.1) -> pa.Table:
    """Row-index batch (from ray.data.range) -> page rows.

    ``duplicate_fraction`` of rows reuse the content seed of an earlier
    row (same html/text under a different url) to exercise dedup.
    """
    ids = np.asarray(batch["id"], dtype=np.int64)
    urls, htmls, texts, langs = [], [], [], []
    for i in ids.tolist():
        # deterministic content seed; duplicates borrow an earlier seed
        if duplicate_fraction > 0 and i > 10 and (i * 2654435761) % 1000 < duplicate_fraction * 1000:
            content_seed = (i % (max(1, i // 2))) * 7919 + 13
        else:
            content_seed = i * 7919 + 13
        url = page_url(i)
        h = render_html(i, content_seed)
        urls.append(url)
        htmls.append(h)
        texts.append(extract_text(h))
        r = random.Random(content_seed ^ 0xBEEF).random()
        langs.append(_LANGS[int(np.searchsorted(_LANG_CUM, r))])
    ts = pa.array(_BASE_TS_US + ids * 137_000_000, type=pa.timestamp("us"))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": ts,
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def pages_dataset(n_rows: int, duplicate_fraction: float = 0.1,
                  override_num_blocks: int | None = None):
    """Build the pages table as a streaming Ray Data pipeline."""
    import ray.data as rd

    ds = rd.range(n_rows, override_num_blocks=override_num_blocks)
    return ds.map_batches(
        lambda b: make_pages_batch(b, duplicate_fraction),
        batch_format="numpy",
        batch_size=2048,
    )


def write_pages_parquet(path: str, n_rows: int, duplicate_fraction: float = 0.1,
                        num_blocks: int | None = None) -> str:
    """Materialize a pages table to partitioned Parquet (bench/fixture cache)."""
    ds = pages_dataset(n_rows, duplicate_fraction, override_num_blocks=num_blocks)
    ds.write_parquet(path)
    return path


def wrap_documents_batch(batch: pa.Table) -> pa.Table:
    """documents rows (testdata: doc_id,text,lang,...) -> pages schema.

    Renders each document's text into an HTML template (title + one <p>
    per line + boilerplate noise) so the testdata ``documents`` table can
    feed the full web-page pipeline at any scale factor. Deterministic in
    doc_id; ``text`` is extract_text(html) by construction.
    """
    ids = batch.column("doc_id").to_numpy()
    doc_texts = batch.column("text").to_pylist()
    langs = batch.column("lang")
    urls, htmls, texts = [], [], []
    for i, body in zip(ids.tolist(), doc_texts):
        url = page_url(i)
        paras = "".join(
            f"<p>{ln}</p>" for ln in (body or "").split("\n") if ln.strip()
        )
        h = (
            f"<!DOCTYPE html><html><head><title>doc {i}</title>"
            '<script>window.x = 1;</script></head>'
            f"<body><h1>Document {i}</h1><!-- warc noise -->{paras}"
            "<footer>&copy; 2025</footer></body></html>"
        ).encode("utf-8")
        urls.append(url)
        htmls.append(h)
        texts.append(extract_text(h))
    ts = pa.array(_BASE_TS_US + ids * 137_000_000, type=pa.timestamp("us"))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": ts,
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": langs,
    })


def pages_from_documents(sf_dir: str):
    """Read testdata documents.parquet and lift it to the pages schema."""
    import ray.data as rd

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    return docs.map_batches(wrap_documents_batch, batch_format="pyarrow")
