"""Connected components over an (id_a, id_b) edge list.

Caller: grid DBSCAN (``stages.geocluster``) links core points within
eps.
``dup_components`` labels each id with the minimum id of its component:
union-find on the driver for small edge sets, distributed min-label
propagation above ``driver_limit`` edges.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


# ---------------------------------------------------------------------------
# Duplicate clusters: connected components over near-dup pairs
# ---------------------------------------------------------------------------

def dup_components_driver(pairs: pd.DataFrame) -> pd.DataFrame:
    """Union-find on the driver — valid when the candidate PAIR set is
    provably small (it is: pairs are post-LSH, post-verification).
    -> rows (doc_id, component) with component = min id of the cluster."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
    ids = sorted(set(pairs["id_a"]) | set(pairs["id_b"]))
    return pd.DataFrame({"doc_id": ids,
                         "component": [find(i) for i in ids]})


def dup_components(pairs_ds, max_iters: int = 10,
                   driver_limit: int = 2_000_000):
    """Connected components over near-dup pairs.

    The input is the POST-LSH, POST-VERIFICATION pair set — an
    aggregate bounded by the true duplicate structure, not by corpus
    size. Below ``driver_limit`` edges the driver union-find is both
    exact and orders of magnitude cheaper than iterated distributed
    joins (each propagation round costs several full Ray executions of
    fixed overhead); above it, distributed min-label propagation takes
    over. Only edge (id) rows ever reach the driver — never texts or
    signatures.
    """
    n_edges = pairs_ds.count()
    if n_edges <= driver_limit:
        import ray.data as rd
        pairs = pairs_ds.to_pandas()
        if len(pairs) == 0:
            return rd.from_arrow(pa.table({
                "doc_id": pa.array([], pa.int64()),
                "component": pa.array([], pa.int64())}))
        return rd.from_pandas(dup_components_driver(pairs))
    return _dup_components_distributed(pairs_ds, max_iters)


def _dup_components_distributed(pairs_ds, max_iters: int = 10):
    """Distributed min-label propagation (the 10^12-doc path).

    Each round: every node sends its current label across its edges,
    then keeps the min of what it heard (groupby(id).min(label)). A
    chain of length L converges in <= L rounds; LSH dup clusters are
    shallow (near-cliques), so a handful of rounds suffices. One
    bucketed join + one groupby per round; stops early when the global
    label sum is unchanged.
    """
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    from .agg import coalesce_blocks, iter_cap
    from .joins import bucketed_hash_join

    def _edges_both(b: pa.Table) -> pa.Table:
        a = b.column("id_a").to_numpy()
        c = b.column("id_b").to_numpy()
        return pa.table({
            "src": pa.array(np.concatenate([a, c]), pa.int64()),
            "dst": pa.array(np.concatenate([c, a]), pa.int64()),
        })

    edges = pairs_ds.map_batches(_edges_both, batch_format="pyarrow")
    edges = edges.materialize()
    labels = edges.groupby("src").aggregate(
        Min("dst", alias_name="_m")).map_batches(
        lambda b: pa.table({
            "id": b.column("src"),
            "label": pa.array(
                np.minimum(b.column("src").to_numpy(),
                           b.column("_m").to_numpy()), pa.int64()),
        }), batch_format="pyarrow").materialize()
    cap = iter_cap(labels)

    prev_sum = None
    for _ in range(max_iters):
        cur = labels.aggregate(Sum("label"))["sum(label)"]
        if cur == prev_sum:
            break
        prev_sum = cur
        heard = bucketed_hash_join(
            edges, labels.map_batches(
                lambda b: pa.table({"id2": b.column("id"),
                                    "label": b.column("label")}),
                batch_format="pyarrow"),
            "src", "id2", num_buckets=16)
        # heard: (_key=src, dst, label-of-src); nodes keep min over
        # their own label and everything they heard
        candidates = heard.map_batches(
            lambda b: pa.table({"id": b.column("dst"),
                                "label": b.column("label")}),
            batch_format="pyarrow").union(labels)
        # coalesce between rounds: the sort shuffle emits one block per
        # input block, so label blocks would compound geometrically
        # round-over-round (see functions.agg.coalesce_blocks)
        labels = coalesce_blocks(
            candidates.groupby("id").aggregate(
                Min("label", alias_name="label")), cap).materialize()
    return labels.map_batches(
        lambda b: pa.table({"doc_id": b.column("id"),
                            "component": b.column("label")}),
        batch_format="pyarrow")
