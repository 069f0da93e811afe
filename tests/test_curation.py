"""Curation-side check that outlives the curation stages: per-document
term counts (textstats.tf_rows)."""

import pyarrow as pa

from geoflow.stages.textstats import tf_rows


def test_tf_rows_exact_counts():
    b = pa.table({
        "doc_id": pa.array([7, 8], pa.int64()),
        "text": pa.array(["a b a a c", ""]),
    })
    out = tf_rows(b, "doc_id", "text").to_pandas()
    got = {(r.doc_id, r.term): r.tf for r in out.itertuples()}
    assert got == {(7, "a"): 3, (7, "b"): 1, (7, "c"): 1}
