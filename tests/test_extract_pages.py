import numpy as np
import pyarrow as pa

from geoflow.sources import pages
from geoflow.stages.extract import extract_text


def test_extract_basic_rules():
    html = (b"<html><head><title>T &amp; U</title>"
            b"<style>p {color: red}</style>"
            b"<script>var x = '<p>not text</p>';</script></head>"
            b"<body><h1>Head</h1><!-- hidden --><p>one  two\tthree</p>"
            b"<div><span>inline</span> <em>join</em></div></body></html>")
    out = extract_text(html)
    assert out == "T & U\nHead\none two three\ninline join"
    assert "not text" not in out
    assert "hidden" not in out


def test_extract_deterministic_and_entities():
    h = b"<p>&lt;tag&gt; &#8212; &quot;q&quot;</p>"
    assert extract_text(h) == extract_text(h) == '<tag> — "q"'


def test_generator_text_matches_extractor():
    batch = pages.make_pages_batch({"id": np.arange(200, dtype=np.int64)})
    htmls = batch.column("html").to_pylist()
    texts = batch.column("text").to_pylist()
    for h, t in zip(htmls, texts):
        assert extract_text(h) == t  # byte-identical invariant
    assert batch.schema.field("warc_ts").type == pa.timestamp("us")
    assert batch.schema.field("html").type == pa.binary()


def test_generator_has_duplicates_and_langs():
    batch = pages.make_pages_batch({"id": np.arange(2000, dtype=np.int64)})
    texts = batch.column("text").to_pylist()
    assert len(set(texts)) < len(texts)  # dup fraction > 0
    langs = set(batch.column("lang").to_pylist())
    assert langs <= {"en", "de", "fr", "es", "ru", "zh"}
    assert len(langs) >= 3


def test_pages_dataset_streams(ray_session):
    ds = pages.pages_dataset(500, override_num_blocks=4)
    assert ds.count() == 500
    sample = ds.take(3)
    assert {"url", "warc_ts", "html", "text", "lang"} <= set(sample[0].keys())


def test_pages_from_documents(sf_small):
    ds = pages.pages_from_documents(sf_small)
    row = ds.take(1)[0]
    assert row["url"].startswith("https://site")
    assert extract_text(row["html"]) == row["text"]


# Edge cases of the pinned rules; expected outputs are the recorded
# extract_text results (tag-name boundaries, unterminated tags, entity
# forms, unicode whitespace, invalid UTF-8).
ADVERSARIAL_CASES = [
    (b"", ""),
    (b"plain text no tags", "plain text no tags"),
    (b"<p>a</p><p>b</p>", "a\nb"),
    (b"<script>while(1){if(a<b)x();}</script>after", "after"),
    (b"<SCRIPT TYPE='x'>nested <b>tag</b></script >tail", "tail"),
    (b"<style a>b{c:d}</style\t>x", "x"),
    (b"<!-- c1 --><!-- <p>not a para</p> -->y", "y"),
    (b"<scripty>not script</scripty>ok", "not script ok"),  # tag-name boundary
    (b"<pre>kept as block</pre>", "kept as block"),
    (b"<px>inline unknown</px>", "inline unknown"),
    (b"a &amp; b &lt;c&gt; &#8212; &copy; &nbsp; &unknown; d",
     "a & b <c> \u2014 \u00a9 &unknown; d"),
    (b"&#10;entity newline", "entity newline"),
    ("unicode \u00a0\u2003 spaces\u2028and lines".encode(),
     "unicode spaces and lines"),
    (b"   \t \n\n  mixed \r\n ws \x0b x \x1c y  \n ", "mixed\nws x y"),
    (b"<div>a<br>b</div><ul><li>i1</li><li>i2</li></ul>", "a\nb\ni1\ni2"),
    (b"<script>no closer", "no closer"),
    (b"< not a tag", "< not a tag"),
    (b"<p attr='>'>odd quote</p>", "'>odd quote"),
    (b"\xff\xfe invalid utf8 <p>x</p>",       # decode errors=replace
     "\ufffd\ufffd invalid utf8\nx"),
    ("r\u00e9sum\u00e9 <p>caf\u00e9</p>".encode(), "r\u00e9sum\u00e9\ncaf\u00e9"),
]


def test_extract_text_adversarial_cases():
    for html, want in ADVERSARIAL_CASES:
        assert extract_text(html) == want, html
