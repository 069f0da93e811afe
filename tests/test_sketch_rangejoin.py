"""HLL, quantile and space-saving sketches vs exact oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from geoflow.functions.sketch import hll_estimate, hll_registers


def _mix(k: np.ndarray) -> np.ndarray:
    h = (k.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)) \
        * np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(31)
    h *= np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(29))


@pytest.mark.parametrize("n", [300, 20_000, 400_000])
def test_hll_accuracy_single_process(n):
    regs = hll_registers(_mix(np.arange(n)), p=12)
    est = hll_estimate(regs)
    assert abs(est - n) / n < 0.05, (est, n)


def test_hll_merge_associative():
    a = hll_registers(_mix(np.arange(0, 5000)), p=10)
    b = hll_registers(_mix(np.arange(3000, 9000)), p=10)
    merged = np.maximum(a, b)
    whole = hll_registers(_mix(np.arange(0, 9000)), p=10)
    assert (merged == whole).all()     # max-merge == one-shot registers


def test_hll_distributed_matches_exact(ray_session):
    import ray.data as rd
    from geoflow.functions.sketch import approx_distinct

    def _hash(b):
        # local def: cloudpickle ships it by value (test modules are not
        # importable inside Ray workers)
        h = (b.column("k").to_numpy().astype(np.uint64)
             + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(31)
        h *= np.uint64(0x94D049BB133111EB)
        return h ^ (h >> np.uint64(29))

    vals = np.concatenate([np.arange(8000), np.arange(4000)])  # dups
    ds = rd.from_pandas(pd.DataFrame({"k": vals})).repartition(6)
    est = approx_distinct(ds, _hash, p=12)
    assert abs(est - 8000) / 8000 < 0.05


def test_space_saving_superset_guarantee():
    """Any item with count > n/capacity must be in the summary."""
    from geoflow.functions.sketch import space_saving_counts

    rng = np.random.default_rng(4)
    items = list(rng.choice([f"t{i}" for i in range(500)], 5000,
                            p=np.r_[np.full(5, 0.1), np.full(495, 0.5 / 495)]))
    cap = 20
    summary = space_saving_counts(items, cap)
    import collections
    true = collections.Counter(items)
    for it, c in true.items():
        if c > len(items) / cap:
            assert it in summary, it


def test_frequent_items_exact_matches_counter(ray_session):
    import collections

    import pyarrow as pa
    import ray.data as rd
    from geoflow.functions.sketch import frequent_items_exact

    rng = np.random.default_rng(8)
    vocab = [f"w{i}" for i in range(200)]
    p = np.r_[np.full(4, 0.15), np.full(196, 0.4 / 196)]
    texts = [" ".join(rng.choice(vocab, 50, p=p)) for _ in range(200)]
    ds = rd.from_items([{"text": t} for t in texts]).repartition(8)

    def _tokens(b: pa.Table):
        out = []
        for t in b.column("text").to_pylist():
            out.extend(t.split())
        return out

    got, n = frequent_items_exact(ds, _tokens, phi=0.01)
    true = collections.Counter(" ".join(texts).split())
    assert n == sum(true.values())
    exp = {w: c for w, c in true.items() if c >= 0.01 * n}
    assert dict(zip(got["item"], got["n_occurrences"])) == exp


def test_frequent_items_exact_boundary_phi(ray_session):
    """Adversarial pigeonhole boundary: an item whose frequency is EXACTLY
    phi * n in every batch. With capacity = ceil(1/phi) (the old, non-strict
    bound) space-saving may evict it from every per-batch summary; the
    strict capacity = floor(1/phi) + 1 guarantees it survives pass 1."""
    import pyarrow as pa
    import ray.data as rd
    from geoflow.functions.sketch import frequent_items_exact

    phi = 0.25                       # capacity must be > 4, i.e. 5
    # batch of 8 tokens: target appears exactly 2x (= phi * 8); six
    # distinct fillers rotate per batch so they can steal summary slots
    batches = []
    for i in range(6):
        f = [f"f{i}_{j}" for j in range(6)]
        # interleave so fillers are counted before the target's 2nd hit
        batches.append({"text": " ".join(
            [f[0], f[1], "hot", f[2], f[3], f[4], f[5], "hot"])})
    ds = rd.from_items(batches).repartition(6)

    def _tokens(b: pa.Table):
        out = []
        for t in b.column("text").to_pylist():
            out.extend(t.split())
        return out

    # capacity=5 is exactly floor(1/phi) + 1 — the strict default formula
    # without the 64-slot floor that would mask the boundary at this phi
    got, n = frequent_items_exact(ds, _tokens, phi=phi, capacity=5)
    assert n == 48
    res = dict(zip(got["item"], got["n_occurrences"]))
    assert res.get("hot") == 12      # 12 >= phi * 48 = 12: exactly on the bar


def test_quantile_sketch_bound_and_merge_paths(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from geoflow.functions.sketch import QuantileSketch, approx_quantiles

    rng = np.random.default_rng(5)
    cases = {
        "uniform": rng.random(150_000),
        "sorted": np.arange(150_000, dtype=float),
        "zipf-ties": rng.zipf(1.3, 150_000).astype(float),
    }
    for name, data in cases.items():
        sk = QuantileSketch(200)
        for i in range(0, len(data), 4096):
            sk.update(data[i:i + 4096])
        assert sk.n() == len(data)
        xs = np.sort(data)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99):
            est = sk.quantiles([q])[0]
            lo = np.searchsorted(xs, est, "left") / len(xs)
            hi = np.searchsorted(xs, est, "right") / len(xs)
            err = 0.0 if lo <= q <= hi else min(abs(q - lo), abs(q - hi))
            assert err <= 3.0 / 200, (name, q, err)

    # one-shot vs merged-partials agree within the same bound, and the
    # Dataset path round-trips the Arrow serialization
    data = cases["uniform"]
    ds = rd.from_arrow(pa.table({"x": data})).repartition(16)
    qs = [0.1, 0.5, 0.95]
    vals, n = approx_quantiles(ds, "x", qs, k=200)
    assert n == len(data)
    xs = np.sort(data)
    for q, est in zip(qs, vals):
        lo = np.searchsorted(xs, est, "left") / len(xs)
        hi = np.searchsorted(xs, est, "right") / len(xs)
        err = 0.0 if lo <= q <= hi else min(abs(q - lo), abs(q - hi))
        assert err <= 3.0 / 200, (q, err)
