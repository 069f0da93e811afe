"""URL canonicalization, URL-level dedup and the crawl-frontier
schedule (geoflow.stages.crawl)."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from geoflow.stages.crawl import canonicalize_urls_batch, url_dedup


def _tbl(**cols):
    return pa.table({k: pa.array(v) for k, v in cols.items()})


# --- URL canonicalization + dedup ----------------------------------------

def test_canonicalize_urls_cases():
    cases = {
        "HTTPS://Ex.COM/A/b?utm_source=x#f": "https://ex.com/A/b",
        "https://ex.com/a/": "https://ex.com/a",
        "https://ex.com/?utm_campaign=z": "https://ex.com",
        "https://ex.com/p?a=1&utm_medium=m&b=2": "https://ex.com/p?a=1&b=2",
        "https://ex.com/p?utm_a=1&utm_b=2": "https://ex.com/p",
        "https://ex.com/p?gclid=123&x=2": "https://ex.com/p?x=2",
        "https://ex.com/keep?x=2": "https://ex.com/keep?x=2",
        # href must NOT match via its ref= suffix (separator-anchored)
        "https://ex.com/p?href=1": "https://ex.com/p?href=1",
        "https://ex.com/p?a=1&utm_x=2&utm_y=3&b=4":
            "https://ex.com/p?a=1&b=4",
        "https://ex.com/p?ref=r&a=1": "https://ex.com/p?a=1",
    }
    b = _tbl(url=list(cases))
    got = canonicalize_urls_batch(b).column("canon_url").to_pylist()
    assert got == list(cases.values())
    # idempotence: canonical form is a fixed point
    again = canonicalize_urls_batch(_tbl(url=got))
    assert again.column("canon_url").to_pylist() == got


def test_url_dedup_winners(ray_session):
    import ray.data as rd
    urls = ["https://A.ex/p1#z", "https://a.ex/p1/", "https://a.ex/p1",
            "https://b.ex/q?utm_source=s", "https://b.ex/q"]
    ds = rd.from_arrow(_tbl(doc_id=np.arange(5, dtype=np.int64), url=urls))
    out = url_dedup(ds).to_pandas().set_index("canon_url")
    assert out.loc["https://a.ex/p1", "doc_id"] == 0
    assert out.loc["https://a.ex/p1", "n_variants"] == 3
    assert out.loc["https://b.ex/q", "n_variants"] == 2


# --- crawl frontier ------------------------------------------------------

def test_frontier_order_fair_interleave():
    import pandas as pd

    from geoflow.stages.crawl import frontier_order

    ids = np.arange(137, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids)})).repartition(4)
    got = (frontier_order(ds, num_domains=7).to_pandas()
           .sort_values("pos").reset_index(drop=True))
    assert got["pos"].tolist() == list(range(1, 138))
    # schedule order == lexicographic (round, domain, doc_id)
    key = list(zip(got["rnd"], got["domain_key"], got["doc_id"]))
    assert key == sorted(key)
    # per-domain: rounds are 0..k-1 in doc_id order
    for dom, g in got.groupby("domain_key"):
        g = g.sort_values("doc_id")
        assert g["rnd"].tolist() == list(range(len(g)))
        assert (g["doc_id"] % 7 == dom).all()
    # fairness: round r is only scheduled once every domain with >= r
    # urls has had its r-1 round (positions of round r all after r-1)
    assert (got.groupby("rnd")["pos"].min().diff().dropna() > 0).all()
