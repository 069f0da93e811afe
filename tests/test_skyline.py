"""Pareto skyline: randomized brute-force parity (local + distributed),
duplicate co-survival, partition invariance."""

import numpy as np
import pandas as pd
import ray.data as rd

from geoflow.stages.skyline import _local_skyline, pareto_skyline


def brute(df):
    keep = []
    for i, p in df.iterrows():
        dom = ((df.g == p.g) & (df.x >= p.x) & (df.y >= p.y) &
               ((df.x > p.x) | (df.y > p.y))).any()
        if not dom:
            keep.append(p["id"])
    return set(keep)


def test_local_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        df = pd.DataFrame({"g": rng.integers(0, 3, n),
                           "x": rng.integers(0, 9, n).astype(np.int64),
                           "y": rng.integers(0, 9, n).astype(np.int64),
                           "id": np.arange(n)})
        assert set(_local_skyline(df, "x", "y", "g")["id"]) == brute(df)


def test_distributed_matches_and_partition_invariant():
    rng = np.random.default_rng(6)
    n = 500
    df = pd.DataFrame({"g": rng.integers(0, 4, n),
                       "x": rng.integers(0, 40, n).astype(np.int64),
                       "y": rng.integers(0, 40, n).astype(np.int64),
                       "id": np.arange(n, dtype=np.int64)})
    want = brute(df)
    for parts in (1, 3, 16):
        ds = rd.from_pandas(df).repartition(parts)
        got = pareto_skyline(ds, "g", "x", "y", "id").to_pandas()
        assert set(got["id"]) == want, parts


def test_duplicates_co_survive():
    df = pd.DataFrame({"g": [0, 0, 0, 0],
                       "x": [5, 5, 3, 1], "y": [5, 5, 9, 1],
                       "id": [1, 2, 3, 4]})
    got = set(_local_skyline(df, "x", "y", "g")["id"])
    assert got == {1, 2, 3}
