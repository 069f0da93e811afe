"""Hierarchical covering compaction (the H3 ``compact_cells`` analog).

Given the set of occupied quad-cells at a fine resolution, repeatedly
replace any COMPLETE sibling quad (all 4 children occupied) by its
parent, carrying the summed weight — producing the minimal
mixed-resolution covering of the same occupancy. This is the standard
way to ship a spatial footprint (coverage maps, geofence sets, crawl
frontiers) at a fraction of the fine-level cell count: dense hotspots
collapse to coarse cells, sparse fringe stays fine.

The computation is a bottom-up fixed-round fold over the CELL SET
(never the corpus): after the initial per-cell count groupby, every
round groups the current finest-resolution cells by parent
(one groupby of a set that only shrinks), promotes complete quads
(count == 4 -> parent row with summed weight), and passes everything
else through. ``res`` rounds always suffice (each round retires one
level), and the rule is pure integer set logic — the DuckDB replay
chains one CTE per level with (x // 2, y // 2) parent arithmetic and
hash-matches exactly.

Cells are carried as (res, x, y) integer triples (x east, y south,
matching stages.cells.lonlat_to_xy) so the oracle needs no Morton
bit-twiddling; the packed key used for shuffles is
((res << 29) | x) << 29 | y, injective for res <= 15.

SCALE: the corpus is touched once (the count groupby, prunable to the
id column). Rounds shuffle only occupied-cell rows — bounded by the
footprint, sublinear in corpus size — and each round's groupby key is
the parent cell, so hotspot quads co-locate exactly where the work
is. A skewed parent (impossible: fan-in is 4) never overloads a
reducer; this is the rare wide op with a HARD per-group bound.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_SHIFT = np.int64(29)


def _pack(res: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (((res.astype(np.int64) << _SHIFT) | x.astype(np.int64))
            << _SHIFT) | y.astype(np.int64)


def cell_counts(points_ds, res: int, lat_col: str = "lat",
                lon_col: str = "lon"):
    """(res, x, y, n_docs) occupancy at a single fine resolution —
    ONE corpus groupby over packed int64 keys."""
    from ray.data.aggregate import Sum

    from .cells import lonlat_to_xy

    if not 0 <= res <= 15:
        raise ValueError("res must be in [0, 15] for packed keys")

    def _assign(b: pa.Table) -> pa.Table:
        lat = b.column(lat_col).to_numpy()
        lon = b.column(lon_col).to_numpy()
        x, y = lonlat_to_xy(lat, lon, res)
        r = np.full(len(lat), res, np.int64)
        return pa.table({
            "_k": pa.array(_pack(r, x.astype(np.int64),
                                 y.astype(np.int64))),
            "_n": pa.array(np.ones(len(lat), np.int64))})

    agg = points_ds.map_batches(_assign, batch_format="pyarrow").groupby(
        "_k").aggregate(Sum("_n", alias_name="n_docs"))
    return agg.map_batches(_unpack, batch_format="pyarrow")


def _unpack(b: pa.Table) -> pa.Table:
    k = b.column("_k").to_numpy().astype(np.int64)
    mask = np.int64((1 << 29) - 1)
    return pa.table({
        "res": pa.array((k >> (2 * _SHIFT)) & mask, pa.int64()),
        "x": pa.array((k >> _SHIFT) & mask, pa.int64()),
        "y": pa.array(k & mask, pa.int64()),
        "n_docs": pc.cast(b.column("n_docs"), pa.int64())})


def compact_cells(cells_ds, res: int):
    """Bottom-up compaction of a (res, x, y, n_docs) covering: ``res``
    rounds, each ONE groupby of the current cell set by parent quad;
    complete quads (4 present children at the round's finest level)
    promote to the parent with summed weight, everything else passes
    through unchanged."""

    from ..functions.agg import _mix64

    num_buckets = 16

    def _round(finest: int):
        def _fold(df: pd.DataFrame) -> pd.DataFrame:
            cur = df[df["res"] == finest]
            rest = df[df["res"] != finest]
            parts = [rest[["res", "x", "y", "n_docs"]]]
            if len(cur):
                cur = cur.assign(px=cur["x"] // 2, py=cur["y"] // 2)
                stat = (cur.groupby(["px", "py"], sort=False)
                        .agg(k=("res", "size"), s=("n_docs", "sum"))
                        .reset_index())
                full = stat[stat["k"] == 4]
                parts.append(pd.DataFrame({
                    "res": np.full(len(full), finest - 1, np.int64),
                    "x": full["px"].to_numpy(np.int64),
                    "y": full["py"].to_numpy(np.int64),
                    "n_docs": full["s"].to_numpy(np.int64)}))
                merged = cur.merge(stat[["px", "py", "k"]],
                                   on=["px", "py"], how="left")
                parts.append(merged[merged["k"] < 4]
                             [["res", "x", "y", "n_docs"]])
            out = pd.concat(parts, ignore_index=True)
            return out[["res", "x", "y", "n_docs"]].astype(np.int64)

        return _fold

    def _tag(finest: int):
        def _f(b: pa.Table) -> pa.Table:
            res_ = b.column("res").to_numpy().astype(np.int64)
            x = b.column("x").to_numpy().astype(np.int64)
            y = b.column("y").to_numpy().astype(np.int64)
            # bucket by the PARENT quad at the round's finest level so
            # complete quads co-locate; coarser cells ride their own key
            key = np.where(res_ == finest,
                           _pack(np.full(len(x), finest - 1, np.int64),
                                 x >> 1, y >> 1),
                           _pack(res_, x, y))
            bkt = (_mix64(key) % np.uint64(num_buckets)).astype(np.int64)
            return b.append_column("_b", pa.array(bkt, pa.int64()))
        return _f

    # fixed round count, one consumer per round -> keep the whole chain
    # LAZY: all `res` groupbys stream in a single Ray execution (unlike
    # dup_components, no per-round convergence check needs a barrier)
    cur = cells_ds
    for finest in range(res, 0, -1):
        cur = (cur.map_batches(_tag(finest), batch_format="pyarrow")
               .groupby("_b")
               .map_groups(_round(finest), batch_format="pandas"))
    return cur


def focal_density(cells_ds):
    """Sparse focal (3x3 kernel) density over an occupied-cell table
    (x, y, n_docs): each cell's focal_sum is the total count in its
    3x3 neighborhood (self included), with absent neighbors counting
    zero — the grid kernel-density primitive, computed WITHOUT
    materializing the dense grid.

    ONE groupby shuffle via the union-of-emissions idiom: every
    occupied cell scatters its count to its 9 neighbor keys (contrib
    rows) plus one self-marker row; groupby(key) sums both columns and
    keeps only keys whose self-marker is positive (occupied cells) —
    phantom keys from the dilated fringe drop inside the same pass, no
    join needed.

    SCALE: 9x replication of 24-byte rows over the OCCUPIED set
    (footprint-bounded); the kernel radius generalizes by emitting
    (2k+1)^2 offsets. Same shape as geocluster's replication but
    aggregate-only, so per-group cost is O(fan-in) with fan-in <= 9.
    """
    from ray.data.aggregate import Sum

    def _scatter(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        n = b.column("n_docs").to_numpy().astype(np.int64)
        m = len(x)
        keys, contrib, selfn = [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                keys.append(_pack(np.zeros(m, np.int64), x + dx + 1,
                                  y + dy + 1))
                contrib.append(n)
                selfn.append(np.zeros(m, np.int64))
        keys.append(_pack(np.zeros(m, np.int64), x + 1, y + 1))
        contrib.append(np.zeros(m, np.int64))
        selfn.append(n)
        return pa.table({
            "_k": pa.array(np.concatenate(keys)),
            "_c": pa.array(np.concatenate(contrib)),
            "_s": pa.array(np.concatenate(selfn))})

    agg = cells_ds.map_batches(_scatter, batch_format="pyarrow").groupby(
        "_k").aggregate(Sum("_c", alias_name="focal_sum"),
                        Sum("_s", alias_name="n_docs"))

    def _finish(b: pa.Table) -> pa.Table:
        k = b.column("_k").to_numpy().astype(np.int64)
        n = b.column("n_docs").to_numpy().astype(np.int64)
        keep = n > 0
        mask = np.int64((1 << 29) - 1)
        return pa.table({
            "x": pa.array(((k[keep] >> _SHIFT) & mask) - 1, pa.int64()),
            "y": pa.array((k[keep] & mask) - 1, pa.int64()),
            "n_docs": pa.array(n[keep]),
            "focal_sum": pa.array(
                b.column("focal_sum").to_numpy().astype(np.int64)[keep])})

    return agg.map_batches(_finish, batch_format="pyarrow")


def getis_ord_hotspots(cells_ds, res: int):
    """Getis-Ord Gi* hotspot z-scores over the res-``res`` grid: for
    each OCCUPIED cell, how extreme its 3x3 focal sum is against the
    full-grid null (all 4^res cells, absent = 0) — the standard
    hotspot-detection statistic of spatial analysis.

        Gi*(i) = (S_i - Xbar * W_i)
                 / (S * sqrt((n * W_i - W_i^2) / (n - 1)))

    with S_i the boundary-truncated 3x3 focal sum (focal_density),
    W_i the window's true cell count (edges have < 9 neighbors),
    n = 4^res, Xbar = T/n and S the population std from the two grid
    moments T = sum(counts), Q = sum(counts^2).

    Distribution: T and Q are ONE tiny aggregate over the occupied-
    cell set (two scalars to the driver); the focal pass is the
    single-shuffle scatter; the z map is stateless. Both engine and
    the SQL replay derive every float from the same integers in the
    same operation order, and outputs round to 6 decimals.
    """
    from ray.data.aggregate import Sum

    side = 1 << res
    n_cells = float(side * side)

    def _sq(b: pa.Table) -> pa.Table:
        n = b.column("n_docs").to_numpy().astype(np.int64)
        return pa.table({"_t": pa.array(n), "_q": pa.array(n * n)})

    mom = cells_ds.map_batches(_sq, batch_format="pyarrow").aggregate(
        Sum("_t"), Sum("_q"))
    t, q = int(mom["sum(_t)"]), int(mom["sum(_q)"])
    xbar = t / n_cells
    s = np.sqrt(q / n_cells - xbar * xbar)

    focal = focal_density(cells_ds)

    def _z(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        si = b.column("focal_sum").to_numpy().astype(np.float64)
        wx = 3.0 - (x == 0) - (x == side - 1)
        wy = 3.0 - (y == 0) - (y == side - 1)
        w = wx * wy
        denom = s * np.sqrt((n_cells * w - w * w) / (n_cells - 1.0))
        z = (si - xbar * w) / denom
        return pa.table({
            "x": pa.array(x), "y": pa.array(y),
            "n_docs": b.column("n_docs"),
            "focal_sum": b.column("focal_sum"),
            "gi_z": pa.array(np.round(z, 6))})

    return focal.map_batches(_z, batch_format="pyarrow")


def cell_blob_labels(cells_ds, res: int, num_buckets: int = 16):
    """Raster connected-component (blob) labeling over the occupied-
    cell set with 8-connectivity — the classic image/raster CCL
    operator, run sparse: adjacency edges come from ONE bucketed join
    of the 8-offset scatter against the occupied set, components from
    dup_components (min-label; driver union-find under the edge guard,
    distributed propagation above), singletons label themselves via
    the union + groupby-min idiom. Output (x, y, blob) with blob = the
    component's minimum packed id (x * 2^res + y).

    SCALE: edges are bounded by 8 x occupied cells; everything is
    footprint-sized. Labels are stable across partitionings and
    re-runs (pure min-id semantics).
    """
    from ray.data.aggregate import Min

    from ..functions.joins import bucketed_hash_join
    from ..functions.components import dup_components

    side = np.int64(1 << res)

    def _ids(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        return pa.table({"_cell": pa.array(x * side + y),
                         "x": pa.array(x), "y": pa.array(y)})

    occ = cells_ds.map_batches(_ids, batch_format="pyarrow").materialize()

    def _scatter(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        keys, src = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                keys.append((x + dx) * side + (y + dy))
                src.append(x * side + y)
        return pa.table({"_nbr": pa.array(np.concatenate(keys)),
                         "_src": pa.array(np.concatenate(src))})

    scattered = occ.map_batches(_scatter, batch_format="pyarrow")
    edges = bucketed_hash_join(
        scattered,
        occ.map_batches(lambda b: pa.table({"_c2": b.column("_cell")}),
                        batch_format="pyarrow"),
        "_nbr", "_c2", num_buckets=num_buckets)
    # (_key = neighbor id [occupied], _src) -> undirected edge pair
    pairs = edges.map_batches(
        lambda b: pa.table({"id_a": pc.cast(b.column("_src"), pa.int64()),
                            "id_b": pc.cast(b.column("_key"), pa.int64())}),
        batch_format="pyarrow")
    comp = dup_components(pairs)

    lbl = comp.map_batches(
        lambda b: pa.table({"_cell": pc.cast(b.column("doc_id"), pa.int64()),
                            "_lbl": pc.cast(b.column("component"),
                                            pa.int64())}),
        batch_format="pyarrow").union(
        occ.map_batches(lambda b: pa.table({"_cell": b.column("_cell"),
                                            "_lbl": b.column("_cell")}),
                        batch_format="pyarrow"))
    lbl = lbl.groupby("_cell").aggregate(Min("_lbl", alias_name="blob"))

    def _finish(b: pa.Table) -> pa.Table:
        c = b.column("_cell").to_numpy().astype(np.int64)
        return pa.table({
            "x": pa.array(c // side), "y": pa.array(c % side),
            "blob": pc.cast(b.column("blob"), pa.int64())})

    return lbl.map_batches(_finish, batch_format="pyarrow")


def moran_i(cells_ds):
    """Global Moran's I spatial autocorrelation over the occupied-cell
    table (x, y, n_docs), 8-neighbor binary weights between OCCUPIED
    cells:

        I = (n / W) * (sum_i z_i * sum_{j in N(i)} z_j) / (sum_i z_i^2)

    computed EXACTLY: with n cells and S = sum(counts), the scaled
    deviation zt_i = n*count_i - S is an integer, every per-cell
    product zt_i * nbr_sum_i is int64, and the final reductions run in
    arbitrary-precision Python ints over the occupied-cell rows (grid-
    bounded, <= 4^res — the same driver-smallness contract as the Gi*
    moments). Only the single closing division is float, identically
    placed in the SQL twin.

    Distribution: two scalar aggregates (n, S) + one focal-style
    scatter shuffle (z and a link counter to the 8 neighbor keys, a
    marker on the self key; occupied gating drops phantom fringe keys
    in the same groupby). Returns (n, w_links, num, den, moran_i).
    """
    from ray.data.aggregate import Count, Sum

    mom = cells_ds.map_batches(
        lambda b: pa.table({"_x": pa.compute.cast(b.column("n_docs"),
                                                  pa.int64())}),
        batch_format="pyarrow").aggregate(Count(), Sum("_x"))
    n = int(mom["count()"])
    s = int(mom["sum(_x)"])

    def _scatter(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        zt = n * b.column("n_docs").to_numpy().astype(np.int64) - s
        m = len(x)
        keys, zc, wc, zs, mk = [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                keys.append(_pack(np.zeros(m, np.int64), x + dx + 1,
                                  y + dy + 1))
                zc.append(zt)
                wc.append(np.ones(m, np.int64))
                zs.append(np.zeros(m, np.int64))
                mk.append(np.zeros(m, np.int64))
        keys.append(_pack(np.zeros(m, np.int64), x + 1, y + 1))
        zc.append(np.zeros(m, np.int64))
        wc.append(np.zeros(m, np.int64))
        zs.append(zt)
        mk.append(np.ones(m, np.int64))
        return pa.table({
            "_k": pa.array(np.concatenate(keys)),
            "_zc": pa.array(np.concatenate(zc)),
            "_wc": pa.array(np.concatenate(wc)),
            "_zs": pa.array(np.concatenate(zs)),
            "_m": pa.array(np.concatenate(mk))})

    from ray.data.aggregate import Sum as _Sum

    agg = cells_ds.map_batches(_scatter, batch_format="pyarrow") \
        .groupby("_k").aggregate(_Sum("_zc", alias_name="nz"),
                                 _Sum("_wc", alias_name="w"),
                                 _Sum("_zs", alias_name="z"),
                                 _Sum("_m", alias_name="m"))

    rows = agg.to_pandas()
    rows = rows[rows["m"] > 0]
    # exact big-int reduction over the grid-bounded occupied set
    num = sum(int(a) * int(b) for a, b in zip(rows["z"], rows["nz"]))
    den = sum(int(a) * int(a) for a in rows["z"])
    w_links = int(rows["w"].sum())
    moran = float("nan") if w_links == 0 or den == 0 \
        else (n * num) / (w_links * den)
    return {"n_cells": n, "w_links": w_links,
            "moran_num": num, "moran_den": den, "moran_i": moran}


def geary_c(cells_ds):
    """Global Geary's C spatial autocorrelation over the occupied-cell
    table (x, y, n_docs), 8-neighbor binary weights between OCCUPIED
    cells — Moran's I's local-contrast sibling (C < 1 clustered,
    C > 1 dispersed):

        C = ((n-1) / (2W)) * (sum_{i~j} (x_i - x_j)^2)
                           / (sum_i (x_i - xbar)^2)

    computed EXACTLY with the same scaled-deviation trick as
    ``moran_i``: zt_i = n*x_i - S is an integer and the pair sum
    over ordered neighbor pairs decomposes per receiving cell j as

        sum_{i in N(j)} zt_i^2 + deg_j*zt_j^2 - 2*zt_j*nz_j

    so ONE focal scatter (carrying zt, zt^2 and a link counter)
    plus the marker-gated groupby provides every term; the closing
    reductions run in arbitrary-precision Python ints over the
    grid-bounded occupied-cell rows (the moran/Gi* smallness
    contract). The n^2 scaling of both numerator and denominator
    cancels, so C uses the zt sums directly. Returns
    (n_cells, w_links, num, den, geary_c).
    """
    from ray.data.aggregate import Count, Sum

    mom = cells_ds.map_batches(
        lambda b: pa.table({"_x": pa.compute.cast(b.column("n_docs"),
                                                  pa.int64())}),
        batch_format="pyarrow").aggregate(Count(), Sum("_x"))
    n = int(mom["count()"])
    s = int(mom["sum(_x)"])

    def _scatter(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy().astype(np.int64)
        y = b.column("y").to_numpy().astype(np.int64)
        zt = n * b.column("n_docs").to_numpy().astype(np.int64) - s
        amax = int(np.abs(zt).max()) if len(zt) else 0
        if amax > 3037000499:          # isqrt(2^63 - 1)
            # zt*zt would wrap silently in numpy int64 (the closing
            # reductions use Python ints, but the scattered squares
            # must already be exact) — fail loudly instead
            raise OverflowError(
                f"geary_c moment overflow: |n*x - S| = {amax} exceeds "
                "int64 square headroom; rescale the cell counts")
        m = len(x)
        keys, zc, z2c, wc, zs, mk = [], [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                keys.append(_pack(np.zeros(m, np.int64), x + dx + 1,
                                  y + dy + 1))
                zc.append(zt)
                z2c.append(zt * zt)
                wc.append(np.ones(m, np.int64))
                zs.append(np.zeros(m, np.int64))
                mk.append(np.zeros(m, np.int64))
        keys.append(_pack(np.zeros(m, np.int64), x + 1, y + 1))
        zc.append(np.zeros(m, np.int64))
        z2c.append(np.zeros(m, np.int64))
        wc.append(np.zeros(m, np.int64))
        zs.append(zt)
        mk.append(np.ones(m, np.int64))
        return pa.table({
            "_k": pa.array(np.concatenate(keys)),
            "_zc": pa.array(np.concatenate(zc)),
            "_z2c": pa.array(np.concatenate(z2c)),
            "_wc": pa.array(np.concatenate(wc)),
            "_zs": pa.array(np.concatenate(zs)),
            "_m": pa.array(np.concatenate(mk))})

    from ray.data.aggregate import Sum as _Sum

    agg = cells_ds.map_batches(_scatter, batch_format="pyarrow") \
        .groupby("_k").aggregate(_Sum("_zc", alias_name="nz"),
                                 _Sum("_z2c", alias_name="nz2"),
                                 _Sum("_wc", alias_name="w"),
                                 _Sum("_zs", alias_name="z"),
                                 _Sum("_m", alias_name="m"))

    rows = agg.to_pandas()
    rows = rows[rows["m"] > 0]
    num = sum(int(q2) + int(w) * int(z) * int(z) - 2 * int(z) * int(nz)
              for q2, w, z, nz in zip(rows["nz2"], rows["w"],
                                      rows["z"], rows["nz"]))
    den = sum(int(a) * int(a) for a in rows["z"])
    w_links = int(rows["w"].sum())
    c = float("nan") if w_links == 0 or den == 0 \
        else ((n - 1) * num) / (2 * w_links * den)
    return {"n_cells": n, "w_links": w_links,
            "geary_num": num, "geary_den": den, "geary_c": c}
