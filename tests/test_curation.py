"""Curation-side checks that outlive the curation stages: per-document
term counts (textstats.tf_rows) and the data-constraint audit query."""

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


def test_constraint_audit_detects_injected_violations(ray_session,
                                                      tmp_path):
    import pyarrow.parquet as pq

    from geoflow.pipelines.queries import QUERIES

    d = tmp_path
    # duplicate PK 7; lineitem orphans -> orderkeys 99 (x2 rows)
    pq.write_table(pa.table({"o_orderkey": pa.array(
        [1, 2, 3, 7, 7], pa.int64())}), d / "orders.parquet")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 2, 99, 99, 3], pa.int64()),
        "l_quantity": pa.array([5.0, 0.0, 51.0, 10.0, 10.0])}),
        d / "lineitem.parquet")
    pq.write_table(pa.table({
        "lang": pa.array(["en", "xx", None, "de"], pa.string())}),
        d / "documents.parquet")
    pq.write_table(pa.table({
        "value": pa.array([1.0, -2.0, None, 4.0])}),
        d / "events.parquet")

    out = QUERIES["constraint_audit"](str(d))
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    got = dict(zip(out["constraint_name"],
                   zip(out["n_checked"], out["n_violations"])))
    assert got["orders_pk_unique"] == (5, 1)
    assert got["lineitem_fk_orders"] == (5, 2)       # both 99-rows orphan
    assert got["documents_lang_domain"] == (4, 2)    # 'xx' and NULL
    assert got["events_value_nonnegative"] == (4, 2)  # -2.0 and NULL
    assert got["lineitem_quantity_range"] == (5, 2)  # 0.0 and 51.0
