"""Exact grouped quantiles vs brute-force oracles."""

import numpy as np
import pandas as pd

from geoflow.functions.agg import grouped_exact_quantiles, quantile_from_counts


def test_quantile_from_counts_matches_numpy():
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 40, 5000)
    uniq, counts = np.unique(vals, return_counts=True)
    for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
        got = quantile_from_counts(uniq, counts, q)
        exp = float(np.percentile(vals, q * 100))  # linear interpolation
        assert abs(got - exp) < 1e-12, (q, got, exp)


def test_grouped_exact_quantiles_matches_numpy(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], 4000),
        "v": rng.integers(1, 51, 4000).astype(float),
    })
    out = grouped_exact_quantiles(
        rd.from_pandas(df).repartition(5), ["g"], "v",
        {"q25": 0.25, "median": 0.5, "p99": 0.99})
    for _, row in out.iterrows():
        sub = df[df["g"] == row["g"]]["v"]
        assert row["n"] == len(sub)
        assert abs(row["median"] - np.percentile(sub, 50)) < 1e-12
        assert abs(row["q25"] - np.percentile(sub, 25)) < 1e-12
        assert abs(row["p99"] - np.percentile(sub, 99)) < 1e-12
