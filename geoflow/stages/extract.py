"""Deterministic HTML -> text extraction (byte-identical per url).

North-rule requirement (BASELINE.json ``input_hint``): "per-row invariant
vs the reference: byte-identical extracted text per url". The fixture
generator (geoflow.sources.pages) runs this exact function to populate the
``text`` column, so parity is checked byte-for-byte in tests and can be
re-checked on any pipeline run.

Extraction is pure Python/stdlib with pinned rules (no
version-drifting HTML libraries):

1. drop <script>...</script>, <style>...</style> and <!-- comments -->,
2. block-level tags become newlines, all other tags become spaces,
3. HTML entities are decoded (``html.unescape``, stdlib, deterministic),
4. whitespace is canonicalized per line: runs of (unicode) whitespace
   collapse to one space, lines are stripped, empty lines dropped,
   lines joined by \\n.

The flagship enrich pass (``pipelines.flagship``) runs ``extract_text``
once per row, asserts it equals the stored ``text`` and projects the
html (binary) column away before any shuffle (SURVEY.md section 7.4
"wide binary rows").
"""

from __future__ import annotations

import html as _html
import re

# Tags treated as block-level (their boundaries become line breaks).
_BLOCK_TAGS = (
    "p|div|br|li|ul|ol|h1|h2|h3|h4|h5|h6|tr|table|article|section|header|"
    "footer|nav|blockquote|pre|hr|title|head|body|html|main|aside|figure|"
    "figcaption|dl|dt|dd|form|fieldset|address"
)

# Tag-name boundary: after the name, either '>' follows immediately or
# one non-name char (ASCII alnum/_ excluded) starts the attribute
# region. An explicit ASCII class, not ``\b``, whose word rules are
# unicode in Python re.
_TAGEND = r"(?:[^>a-zA-Z0-9_][^>]*)?>"
# HTML-spec whitespace before a closer's '>' (not ``\s*``, which also
# matches unicode spaces).
_HTWS = r"[\t\n\f\r ]*"

_P_DROP = (rf"(?is)<script{_TAGEND}.*?</script{_HTWS}>"
           rf"|<style{_TAGEND}.*?</style{_HTWS}>"
           r"|<!--.*?-->")
_P_BLOCK = rf"(?i)</?(?:{_BLOCK_TAGS}){_TAGEND}"
_P_TAG = r"<[^>]*>"

_RE_DROP = re.compile(_P_DROP)
_RE_BLOCK = re.compile(_P_BLOCK)
_RE_TAG = re.compile(_P_TAG)


def extract_text(html_bytes: bytes) -> str:
    """Extract canonical plain text from one HTML document (deterministic)."""
    raw = html_bytes.decode("utf-8", errors="replace")
    raw = _RE_DROP.sub(" ", raw)
    raw = _RE_BLOCK.sub("\n", raw)
    raw = _RE_TAG.sub(" ", raw)
    raw = _html.unescape(raw)
    lines = []
    for line in raw.split("\n"):
        parts = line.split()
        if parts:
            lines.append(" ".join(parts))
    return "\n".join(lines)

