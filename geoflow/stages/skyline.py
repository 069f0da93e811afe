"""Pareto skyline (dominance analytics) over two maximized criteria.

A row survives iff no other row of its group is at least as good on
both criteria and strictly better on one; identical points co-survive.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _local_skyline(df: pd.DataFrame, xcol: str, ycol: str,
                   group: str) -> pd.DataFrame:
    """Per-group 2-D skyline (maximize both). A row survives iff its y
    equals its x-block's max AND that max strictly exceeds the best y
    among all strictly-larger-x blocks; equal-(x, y) duplicates all
    survive (identical points do not dominate each other)."""
    out = []
    for _, g in df.groupby(group, sort=False):
        g = g.sort_values([xcol, ycol], ascending=False, kind="mergesort")
        blocks = g.groupby(xcol, sort=False)[ycol].max()
        prev = blocks.cummax().shift(1, fill_value=np.iinfo(np.int64).min)
        keep_block = blocks > prev
        bmax = g[xcol].map(blocks)
        kb = g[xcol].map(keep_block)
        out.append(g[(g[ycol] == bmax) & kb])
    return pd.concat(out) if out else df.iloc[:0]


def pareto_skyline(ds, group: str, xcol: str, ycol: str, id_col: str):
    """Distributed 2-D skyline per group (maximize x and y).

    Two-phase: per-batch local skylines prune dominated rows early
    (the skyline of a union IS the skyline of the per-part skylines),
    then one final pass over the tiny survivor set. Shuffle carries
    only survivors — O(skyline) rows, ~log n for independent dims.
    """

    def _local(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        return pa.Table.from_pandas(
            _local_skyline(df, xcol, ycol, group), preserve_index=False)

    survivors = ds.map_batches(_local, batch_format="pyarrow")
    final = survivors.repartition(1).map_batches(_local,
                                                 batch_format="pyarrow")
    return final.select_columns([group, id_col, xcol, ycol])
