import numpy as np
import pandas as pd
import pytest

from geoflow.functions.components import dup_components, dup_components_driver


def _pairs():
    # clusters: {1,2,3,4} (chain), {10,11}, {20,21,22} (triangle), isolated none
    return pd.DataFrame({
        "id_a": [1, 2, 3, 10, 20, 20, 21],
        "id_b": [2, 3, 4, 11, 21, 22, 22],
    })


def test_union_find_components():
    out = dup_components_driver(_pairs()).set_index("doc_id")["component"]
    assert out[1] == out[2] == out[3] == out[4] == 1
    assert out[10] == out[11] == 10
    assert out[20] == out[21] == out[22] == 20


def test_distributed_min_label_matches_union_find(ray_session):
    import ray.data as rd
    pairs = _pairs()
    # driver_limit=0 forces the DISTRIBUTED propagation path
    got = dup_components(rd.from_pandas(pairs), driver_limit=0).to_pandas()
    exp = dup_components_driver(pairs)
    m = got.merge(exp, on="doc_id", suffixes=("", "_e"))
    assert len(m) == len(exp)
    assert (m["component"] == m["component_e"]).all()


def test_distributed_chain_multi_round(ray_session):
    import ray.data as rd
    # a chain 0-1-2-3-4 needs several propagation rounds to converge
    pairs = pd.DataFrame({"id_a": np.arange(4), "id_b": np.arange(1, 5)})
    got = dup_components(rd.from_pandas(pairs), max_iters=8,
                         driver_limit=0).to_pandas()
    assert (got["component"] == 0).all()
    assert len(got) == 5


def test_union_find_long_chain():
    # long chains are exact under union-find (driver path)
    pairs = pd.DataFrame({"id_a": np.arange(99), "id_b": np.arange(1, 100)})
    out = dup_components_driver(pairs)
    assert (out["component"] == 0).all() and len(out) == 100
