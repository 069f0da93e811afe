import numpy as np
import pandas as pd
import pytest

from geoflow.functions.joins import bucketed_hash_join


def test_bucketed_hash_join_matches_pandas(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(4)
    left = pd.DataFrame({"k": rng.integers(0, 50, 300),
                         "a": np.arange(300)})
    right = pd.DataFrame({"kk": rng.integers(0, 50, 400),
                          "b": np.arange(400) * 10})
    got = bucketed_hash_join(
        rd.from_pandas(left).repartition(4),
        rd.from_pandas(right).repartition(4),
        "k", "kk", num_buckets=8).to_pandas()
    exp = left.rename(columns={"k": "_key"}).merge(
        right.rename(columns={"kk": "_key"}), on="_key")
    assert len(got) == len(exp)
    gs = got.sort_values(["_key", "a", "b"]).reset_index(drop=True)
    es = exp.sort_values(["_key", "a", "b"]).reset_index(drop=True)
    assert (gs["_key"] == es["_key"]).all()
    assert (gs["a"] == es["a"]).all()
    assert (gs["b"] == es["b"]).all()
    assert gs["b"].dtype == np.int64     # dtype preserved through union


def test_join_column_collision_raises(ray_session):
    import ray.data as rd
    l = rd.from_pandas(pd.DataFrame({"k": [1], "x": [1]}))
    r = rd.from_pandas(pd.DataFrame({"kk": [1], "x": [2]}))
    with pytest.raises(ValueError, match="collision"):
        bucketed_hash_join(l, r, "k", "kk")


def test_tag_side_pads_with_target_types():
    """Both sides of the union carry one Arrow schema: the columns a side
    lacks are nulls of the other side's type, not untyped nulls."""
    import pyarrow as pa

    from geoflow.functions.joins import _tag_side

    types = {"k": pa.int64(), "name": pa.string(),
             "kk": pa.int64(), "price": pa.float64()}
    cols = ["name", "price"]
    left = _tag_side(0, "k", "_key", 4, cols, types)(
        pa.table({"k": pa.array([1, 2], pa.int64()),
                  "name": pa.array(["a", "b"])}))
    right = _tag_side(1, "kk", "_key", 4, cols, types)(
        pa.table({"kk": pa.array([2], pa.int64()),
                  "price": pa.array([1.5])}))
    assert left.schema == right.schema
    assert left.schema.field("price").type == pa.float64()
    assert right.schema.field("name").type == pa.string()
