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


def test_broadcast_lookup_and_semi_join(ray_session):
    import ray.data as rd
    from geoflow.functions.joins import broadcast_lookup, broadcast_semi_join
    df = pd.DataFrame({"k": [5, 3, 9, 3, 7], "v": range(5)})
    ds = rd.from_pandas(df)
    keys = np.array([3, 5, 7], dtype=np.int64)
    vals = np.array(["three", "five", "seven"], dtype=object)
    out = broadcast_lookup(ds, "k", keys, vals, "name",
                           drop_missing=True).to_pandas()
    assert out.sort_values("v")["name"].tolist() == [
        "five", "three", "three", "seven"]
    semi = broadcast_semi_join(ds, "k", np.array([3, 9])).to_pandas()
    assert sorted(semi["k"].tolist()) == [3, 3, 9]
    anti = broadcast_semi_join(ds, "k", np.array([3, 9]),
                               anti=True).to_pandas()
    assert sorted(anti["k"].tolist()) == [5, 7]
    import pytest as _pytest
    with _pytest.raises((KeyError, Exception)):
        broadcast_lookup(ds, "k", keys, vals, "name").to_pandas()


def test_attach_dim_shuffle_path_matches_broadcast(ray_session, monkeypatch):
    """Forcing BROADCAST_ROW_LIMIT=0 routes _attach_dim through the
    bucketed hash join; result must equal the broadcast path."""
    import ray.data as rd
    from geoflow.pipelines import queries as q
    df = pd.DataFrame({"fk": [2, 4, 2, 8, 6], "x": range(5)})
    keys = np.array([2, 4, 6, 8], dtype=np.int64)
    vals = np.array(["a", "b", "c", "d"], dtype=object)
    bc = q._attach_dim(rd.from_pandas(df), "fk", keys, vals,
                       "lbl").to_pandas()
    monkeypatch.setattr(q, "BROADCAST_ROW_LIMIT", 0)
    sh = q._attach_dim(rd.from_pandas(df), "fk", keys, vals,
                       "lbl").to_pandas()
    b = bc.sort_values(["x"]).reset_index(drop=True)
    s = sh.sort_values(["x"]).reset_index(drop=True)
    assert b["lbl"].tolist() == s["lbl"].tolist()
    assert (b["fk"].to_numpy().astype(np.int64)
            == s["fk"].to_numpy().astype(np.int64)).all()


def test_join_column_collision_raises(ray_session):
    import ray.data as rd
    l = rd.from_pandas(pd.DataFrame({"k": [1], "x": [1]}))
    r = rd.from_pandas(pd.DataFrame({"kk": [1], "x": [2]}))
    with pytest.raises(ValueError, match="collision"):
        bucketed_hash_join(l, r, "k", "kk")


def test_attach_customer_dim_dataset_path(ray_session, monkeypatch):
    """Above the broadcast limit the customer dim rides as a DATASET
    through the bucketed join — results must match the broadcast path."""
    from geoflow.pipelines import queries as q

    bc = q.QUERIES["orders_by_nation"]("/root/testdata/sf0.001").to_pandas()
    monkeypatch.setattr(q, "BROADCAST_ROW_LIMIT", 0)
    ds = q.QUERIES["orders_by_nation"]("/root/testdata/sf0.001").to_pandas()
    b = bc.sort_values("n_name").reset_index(drop=True)
    s = ds.sort_values("n_name").reset_index(drop=True)
    assert b["n_name"].tolist() == s["n_name"].tolist()
    assert (b["n_orders"].to_numpy() == s["n_orders"].to_numpy()).all()
    assert (b["total_cents"].to_numpy() == s["total_cents"].to_numpy()).all()
