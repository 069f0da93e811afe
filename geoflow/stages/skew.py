"""Explicit skew handling: salted aggregation + split-cell rebalancing.

North-rule requirement: "Skew from dense cells is handled by explicit
salted repartitioning and split-cell rebalancing". Web-page density per
cell is Zipfian (the geocoder injects 3 hot clusters holding ~30% of
rows — FIXTURES.md F1), so a naive ``groupby(cell)`` sends a third of
the dataset to three reducers.

Two mechanisms, both preserving exact aggregate semantics:

- ``salted_grouped_count_sum``: stage 1 merges by (key, salt) with
  salt = row_hash % num_salts — hot keys fan out across buckets —
  then stage 2 re-merges the per-salt partials by key alone. Both
  stages are the one partials merge (``functions.agg.merge_partials``);
  correct for any algebraic aggregate (sum/count/min/max partials
  re-combine).
- ``split_hot_cells``: cells whose row count exceeds ``cap`` are
  re-assigned to their children at a finer resolution (descend until
  under cap or max_res); emits a (cell -> effective_cell) mapping so
  group sizes are bounded for holistic per-group work (exact medians,
  kNN bucket builds). The parent/child bit arithmetic of the quadtree
  ids (geoflow.stages.cells) makes the descent free of geometry work.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import cells as cellmod
from ..functions.agg import (bucket_count, bucket_of, combine_partials,
                             grouped_count_sum, merge_partials, plan_estimate)


def add_salt(batch: pa.Table, key_col: str, num_salts: int) -> pa.Table:
    """Deterministic per-row salt (hash of key + row position mix)."""
    keys = batch.column(key_col).to_numpy().astype(np.int64, copy=False)
    idx = np.arange(len(keys), dtype=np.int64)
    mixed = (keys * 0x9E3779B97F4A7C15 + idx * 0xC2B2AE3D27D4EB4F)
    salt = (mixed % num_salts).astype(np.int32)
    return batch.append_column("_salt", pa.array(salt, pa.int32()))


def salted_grouped_count_sum(ds, key_col: str, sum_cols: list[str],
                             num_salts: int = 16,
                             count_alias: str = "n"):
    """Two-stage salted aggregate: exact sums/counts under heavy skew.
    Stage 1's output (one row per key and salt, count as ``_n``) is
    itself a partials table, so stage 2 is the same merge over the key
    alone, re-bucketed on it."""
    salted = [key_col, "_salt"]
    # both stages' partials are at most one per input row
    buckets = bucket_count(plan_estimate(ds)[0])

    def _salted_partials(b: pa.Table) -> pa.Table:
        return combine_partials(add_salt(b, key_col, num_salts), salted,
                                sum_cols, buckets=buckets)

    def _by_key(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or buckets == 1:
            return t
        return t.drop_columns(["_salt"]).append_column(
            "_b", bucket_of(t, [key_col], buckets))

    stage1 = merge_partials(
        ds.map_batches(_salted_partials, batch_format="pyarrow"),
        salted, sum_cols, "_n", buckets=buckets)
    return merge_partials(stage1.map_batches(_by_key, batch_format="pyarrow"),
                          [key_col], sum_cols, count_alias, buckets=buckets)


def cell_counts(ds, cell_col: str = "cell") -> pd.DataFrame:
    """Per-cell row counts via batch-combined partials (small result);
    empty input gives an empty frame that still has both columns."""
    return grouped_count_sum(ds, [cell_col], [], count_alias="n"
                             ).to_pandas().reindex(columns=[cell_col, "n"])


def compute_split_plan(counts: pd.DataFrame, cap: int,
                       cell_col: str = "cell") -> dict[int, int]:
    """{hot_cell: levels_to_descend} so expected child load <= cap.

    Assumes roughly uniform spread across children per level (worst-case
    hot spots descend further on the next iteration; callers can re-plan
    iteratively). Descent depth = ceil(log4(count / cap)).
    """
    plan: dict[int, int] = {}
    hot = counts[counts["n"] > cap]
    for r in hot.itertuples(index=False):
        levels = int(np.ceil(np.log(getattr(r, "n") / cap) / np.log(4)))
        plan[int(getattr(r, cell_col))] = max(1, levels)
    return plan


def apply_split_plan(batch: pa.Table, plan: dict[int, int],
                     lat_col: str = "lat", lon_col: str = "lon",
                     cell_col: str = "cell",
                     out_col: str = "effective_cell") -> pa.Table:
    """Re-encode rows of hot cells at a finer resolution (per plan)."""
    cell = batch.column(cell_col).to_numpy().astype(np.uint64)
    lat = batch.column(lat_col).to_numpy()
    lon = batch.column(lon_col).to_numpy()
    res = cellmod.cell_res(cell)
    eff = cell.copy()
    if plan:
        plan_keys = np.fromiter(plan.keys(), dtype=np.int64)
        plan_lvls = np.fromiter(plan.values(), dtype=np.int64)
        order = np.argsort(plan_keys)
        plan_keys, plan_lvls = plan_keys[order], plan_lvls[order]
        pos = np.searchsorted(plan_keys, cell.view(np.int64))
        pos = np.clip(pos, 0, len(plan_keys) - 1)
        is_hot = plan_keys[pos] == cell.view(np.int64)
        for lvl in np.unique(plan_lvls[pos[is_hot]]) if is_hot.any() else []:
            sel = is_hot & (plan_lvls[pos] == lvl)
            new_res = np.minimum(res[sel] + lvl, cellmod.MAX_RES)
            # all selected rows share a resolution in practice; re-encode
            for rr in np.unique(new_res):
                s2 = sel.copy()
                s2[sel] = new_res == rr
                eff[s2] = cellmod.cell_id(lat[s2], lon[s2], int(rr))
    return batch.append_column(
        out_col, pa.array(eff.astype(np.int64), pa.int64()))


def rebalanced_cells(ds, cap: int, cell_col: str = "cell",
                     max_rounds: int = 8):
    """Split-cell rebalance iterated to a FIXED POINT: re-count, re-plan
    and descend again until every effective cell holds <= cap rows (or
    the resolution/round limit is reached). Handles point clusters
    denser than any single split level — e.g. the geocoder's 0.5-degree
    hot discs inside 11-degree res-5 cells, where one descent lands the
    whole cluster in one child. Each round costs one combiner pass
    (cell_counts) + one map; plans are driver-side dicts of HOT cells
    only.

    Returns (dataset with ``effective_cell``, merged plan dict,
    rounds_used).
    """
    merged: dict[int, int] = {}
    col = cell_col
    rounds = 0
    for _ in range(max_rounds):
        counts = cell_counts(ds, col)
        if counts.empty or counts["n"].max() <= cap:
            break
        plan = compute_split_plan(counts, cap, col)
        if not plan:
            break
        rounds += 1
        merged.update(plan)

        def _apply(b: pa.Table, plan=plan, col=col) -> pa.Table:
            out = apply_split_plan(b, plan, cell_col=col,
                                   out_col="_eff_next")
            if "effective_cell" in out.column_names:
                out = out.drop_columns(["effective_cell"])
            names = ["effective_cell" if c == "_eff_next" else c
                     for c in out.column_names]
            return out.rename_columns(names)

        # materialize per round: cell_counts re-executes the lineage
        # otherwise, turning round k into k full input passes
        ds = ds.map_batches(_apply, batch_format="pyarrow").materialize()
        col = "effective_cell"
    if col == cell_col:      # no split needed: mirror the contract
        ds = ds.map_batches(
            lambda b: b.append_column(
                "effective_cell", b.column(cell_col)),
            batch_format="pyarrow")
    return ds, merged, rounds
