"""Raster overview pyramid (gdaladdo/COG-style reduced-resolution
levels) over the tile table.

Level k holds one cell per 2^k x 2^k block of the base raster, carrying
the EXACT integer SUM (and implicitly count) of its base pixels — the
mean is sum/4^k, but sums keep every level bit-exact and mergeable.

Ray plan per level: (1) a stateless in-tile 2x2 pooling map (tile dims
halve), then (2) ONE regroup shuffle keyed on (tile_y//2, tile_x//2)
that assembles four half-tiles back into a full-size tile via
map_groups. Each level's data volume shrinks 4x, so the whole pyramid
costs ~1.33x one base pass — the standard overview-build bound. Tiles
stay fixed-size across levels, which is what keeps the per-task batch
shape stable on a cluster.

Requires base dims divisible by 2^levels (pad the edge tiles upstream
otherwise — the synthetic fixtures are aligned)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _pool_batch(batch: pa.Table) -> pa.Table:
    """2x2 in-tile pooling: sums column halves in each dimension."""
    from .terrain import _rows_as_arrays

    hs = batch.column("height").to_numpy()
    ws = batch.column("width").to_numpy()
    sums = _rows_as_arrays(batch.column("psum"))
    pooled = []
    for h, w, s in zip(hs, ws, sums):
        h, w = int(h), int(w)
        a = np.asarray(s, dtype=np.int64).reshape(h, w)
        p = a[0::2, 0::2] + a[0::2, 1::2] + a[1::2, 0::2] + a[1::2, 1::2]
        pooled.append(p.ravel())
    return pa.table({
        "tile_y": batch.column("tile_y"),
        "tile_x": batch.column("tile_x"),
        "height": pa.array((hs // 2).astype(np.int32), pa.int32()),
        "width": pa.array((ws // 2).astype(np.int32), pa.int32()),
        "psum": pa.array(pooled, pa.list_(pa.int64()))})


def _regroup(g: pd.DataFrame) -> pd.DataFrame:
    """Assemble up to 4 half-size sibling tiles into one parent tile."""
    h = int(g["height"].max())
    w = int(g["width"].max())
    pty = int(g["tile_y"].min()) // 2
    ptx = int(g["tile_x"].min()) // 2
    full = np.zeros((2 * h, 2 * w), dtype=np.int64)
    have_h = h
    have_w = w
    for r in g.itertuples(index=False):
        qy, qx = int(r.tile_y) % 2, int(r.tile_x) % 2
        a = np.asarray(r.psum, dtype=np.int64).reshape(int(r.height),
                                                       int(r.width))
        full[qy * h:qy * h + a.shape[0], qx * w:qx * w + a.shape[1]] = a
        have_h = max(have_h, qy * h + a.shape[0])
        have_w = max(have_w, qx * w + a.shape[1])
    full = full[:have_h, :have_w]
    # plain Python list => Arrow list<int64> (an ndarray cell would
    # become Ray's tensor extension type, unreadable by the pooling map)
    return pd.DataFrame({
        "tile_y": [pty], "tile_x": [ptx],
        "height": np.array([full.shape[0]], dtype=np.int32),
        "width": np.array([full.shape[1]], dtype=np.int32),
        "psum": [full.ravel().tolist()]})


def base_sums(tiles_ds):
    """Base level-0 (tile_y, tile_x, height, width, psum) from the tile
    table's integer DEM (band-0 rows)."""
    from .terrain import _rows_as_arrays

    def _b(batch: pa.Table) -> pa.Table:
        halos = _rows_as_arrays(batch.column("dem_halo"))
        hs = batch.column("height").to_numpy()
        ws = batch.column("width").to_numpy()
        out = []
        for h, w, halo in zip(hs, ws, halos):
            out.append(np.rint(np.asarray(halo))
                       .astype(np.int64).reshape(h + 2, w + 2)[1:-1, 1:-1]
                       .ravel())
        return pa.table({
            "tile_y": batch.column("tile_y"),
            "tile_x": batch.column("tile_x"),
            "height": batch.column("height"),
            "width": batch.column("width"),
            "psum": pa.array(out, pa.list_(pa.int64()))})

    return tiles_ds.filter(lambda r: r["band"] == 0) \
        .map_batches(_b, batch_format="pyarrow")


def build_pyramid(tiles_ds, levels: int, tile: int = 64):
    """Return {level: Dataset of pyramid tiles}, level 1..levels."""
    cur = base_sums(tiles_ds)
    out = {}
    for lv in range(1, levels + 1):
        pooled = cur.map_batches(_pool_batch, batch_format="pyarrow")
        # regroup 2x2 sibling tiles into full-size parents
        cur = pooled.map_batches(
            lambda b: b.append_column(
                "_gy", pa.array(b.column("tile_y").to_numpy() // 2)
            ).append_column(
                "_gx", pa.array(b.column("tile_x").to_numpy() // 2)),
            batch_format="pyarrow") \
            .groupby(["_gy", "_gx"]) \
            .map_groups(_regroup, batch_format="pandas")
        out[lv] = cur
    return out


def pyramid_cells(level_ds, level: int, tile: int = 64):
    """Explode one pyramid level into (y, x, pix_sum) rows."""

    def _e(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for r in g.itertuples(index=False):
            h, w = int(r.height), int(r.width)
            a = np.asarray(r.psum, dtype=np.int64).reshape(h, w)
            # non-edge tiles are exactly `tile` by construction, so
            # the origin is index * nominal size (edge = remainder)
            y0 = int(r.tile_y) * tile
            x0 = int(r.tile_x) * tile
            gy, gx = np.mgrid[y0:y0 + h, x0:x0 + w]
            rows.append(pd.DataFrame({
                "y": gy.ravel().astype(np.int64),
                "x": gx.ravel().astype(np.int64),
                "pix_sum": a.ravel()}))
        return pd.concat(rows, ignore_index=True)

    return level_ds.map_batches(_e, batch_format="pandas")


# ---------------------------------------------------------------------------
# Histogram equalization (global-CDF contrast remap)
# ---------------------------------------------------------------------------

def equalize_histogram(tiles_ds, levels: int = 256):
    """Classic histogram equalization of the integer DEM band:
    ``eq(v) = (cdf(v) - cdf_min) * (levels-1) // (N - cdf_min)`` — all
    integer, bit-exact against the SQL window-cumsum twin.

    Plan: ONE combiner-pattern groupby builds the value histogram
    (distinct-value-sized, tiny vs pixels), the sorted (value, cdf)
    table broadcasts via ``ray.put``, then a stateless searchsorted
    remap per tile. Returns the (level, n_pixels) histogram of the
    equalized raster.
    """
    import ray

    from ..functions.agg import bucket_count, grouped_count_sum, plan_estimate
    from .terrain import _rows_as_arrays

    def _vals(batch: pa.Table) -> pa.Table:
        halos = _rows_as_arrays(batch.column("dem_halo"))
        hs = batch.column("height").to_numpy()
        ws = batch.column("width").to_numpy()
        out = []
        for h, w, halo in zip(hs, ws, halos):
            out.append(np.rint(np.asarray(halo)).astype(np.int64)
                       .reshape(h + 2, w + 2)[1:-1, 1:-1].ravel())
        v = np.concatenate(out) if out else np.array([], np.int64)
        u, c = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(u), "n": pa.array(c)})

    base = tiles_ds.filter(lambda r: r["band"] == 0)
    # one value row per pixel at most: the tiles' bytes bound them
    hist = grouped_count_sum(
        base.map_batches(_vals, batch_format="pyarrow"),
        ["v"], ["n"], buckets=bucket_count(plan_estimate(base)[1])
    ).to_pandas().sort_values("v")
    vals = hist["v"].to_numpy()
    cdf = np.cumsum(hist["n_sum"].to_numpy())
    n_total = int(cdf[-1])
    cdf_min = int(cdf[0])
    eq_of_val = ((cdf - cdf_min) * (levels - 1)
                 // max(n_total - cdf_min, 1)).astype(np.int64)
    lut = ray.put((vals, eq_of_val))

    def _remap(batch: pa.Table) -> pa.Table:
        v_sorted, eq = ray.get(lut) if not isinstance(lut, tuple) else lut
        halos = _rows_as_arrays(batch.column("dem_halo"))
        hs = batch.column("height").to_numpy()
        ws = batch.column("width").to_numpy()
        parts = []
        for h, w, halo in zip(hs, ws, halos):
            px = np.rint(np.asarray(halo)).astype(np.int64) \
                .reshape(h + 2, w + 2)[1:-1, 1:-1].ravel()
            parts.append(eq[np.searchsorted(v_sorted, px)])
        e = np.concatenate(parts) if parts else np.array([], np.int64)
        u, c = np.unique(e, return_counts=True)
        return pa.table({"level": pa.array(u), "n": pa.array(c)})

    out = grouped_count_sum(
        base.map_batches(_remap, batch_format="pyarrow"),
        ["level"], ["n"], buckets=1).to_pandas()     # <= levels keys
    out = out.rename(columns={"n_sum": "n_pixels"})
    return out[["level", "n_pixels"]].astype(np.int64)


def equalize_oracle_sql(dem_cte: str, levels: int = 256) -> str:
    """SQL twin: histogram + window cumsum CDF + integer remap."""
    return f"""{dem_cte},
hist AS (SELECT dem AS v, COUNT(*) AS n FROM cells GROUP BY dem),
cdf AS (
  SELECT v, SUM(n) OVER (ORDER BY v) AS c FROM hist
),
bounds AS (SELECT MIN(c) AS cmin, MAX(c) AS ctot FROM cdf),
remap AS (
  SELECT h.v,
         (d.c - b.cmin) * {levels - 1} // GREATEST(b.ctot - b.cmin, 1)
           AS level,
         h.n
  FROM hist h JOIN cdf d USING (v) CROSS JOIN bounds b
)
SELECT CAST(level AS BIGINT) AS level,
       CAST(SUM(n) AS BIGINT) AS n_pixels
FROM remap GROUP BY 1"""


# ---------------------------------------------------------------------------
# Bilinear 2x upsample (the interpolating inverse of the overview pool)
# ---------------------------------------------------------------------------


def upsample_bilinear_2x(tiles_ds, height: int, width: int,
                         tile: int = 64, block: int = 32):
    """2x bilinear upsample in EXACT integers: output pixel (gy, gx)
    samples source (gy+0.5)/2 - 0.5, whose 2x2 neighborhood weights
    are always (9, 3, 3, 1)/16 — so ``out16 = 16 * bilinear`` is an
    integer combination. Raster-boundary samples clamp (replicate
    edge), the standard resampler convention.

    Stateless per-tile map: the 1-px halo already holds every source
    neighbor an output pixel needs; boundary tiles overwrite their
    extrapolated halo ring with the clamped copy first. Output is
    pre-aggregated to per-(block x block) sums of out16 — per-pixel
    rows never exist.

    Returns (by, bx, n_pix, out16_sum) rows; ``block`` must divide
    2*tile so tile outputs align with the block grid.
    """
    if (2 * tile) % block:
        raise ValueError("block must divide 2*tile")

    def _f(b: pa.Table) -> pa.Table:
        from .terrain import _rows_as_arrays

        hs = b.column("height").to_numpy()
        ws = b.column("width").to_numpy()
        tys = b.column("tile_y").to_numpy()
        txs = b.column("tile_x").to_numpy()
        halos = _rows_as_arrays(b.column("dem_halo"))
        by_o, bx_o, n_o, s_o = [], [], [], []
        for i in range(len(hs)):
            h, w = int(hs[i]), int(ws[i])
            y0, x0 = int(tys[i]) * tile, int(txs[i]) * tile
            p = halos[i].reshape(h + 2, w + 2).astype(np.int64)
            # raster-boundary halo is extrapolated -> replace w/ clamp
            if y0 == 0:
                p[0, :] = p[1, :]
            if y0 + h == height:
                p[h + 1, :] = p[h, :]
            if x0 == 0:
                p[:, 0] = p[:, 1]
            if x0 + w == width:
                p[:, w + 1] = p[:, w]
            z = p[1:h + 1, 1:w + 1]
            out = np.empty((2 * h, 2 * w), dtype=np.int64)
            for dy in (0, 1):
                oy = 2 * dy - 1
                zy = p[1 + oy:h + 1 + oy, 1:w + 1]
                for dx in (0, 1):
                    ox = 2 * dx - 1
                    zx = p[1:h + 1, 1 + ox:w + 1 + ox]
                    zxy = p[1 + oy:h + 1 + oy, 1 + ox:w + 1 + ox]
                    out[dy::2, dx::2] = 9 * z + 3 * zy + 3 * zx + zxy
            # per-block partial sums (tile origin is block-aligned)
            oh, ow = 2 * h, 2 * w
            if oh % block or ow % block:
                raise ValueError(
                    "ragged tile output not block-aligned; choose "
                    "block dividing 2x the edge tile dims")
            nby, nbx = oh // block, ow // block
            s = out.reshape(nby, block, nbx, block).sum(axis=(1, 3))
            cnt = np.full((nby, nbx), block * block, dtype=np.int64)
            gy0 = 2 * y0 // block
            gx0 = 2 * x0 // block
            for yy in range(nby):
                for xx in range(nbx):
                    by_o.append(gy0 + yy)
                    bx_o.append(gx0 + xx)
                    n_o.append(int(cnt[yy, xx]))
                    s_o.append(int(s[yy, xx]))
        return pa.table({
            "by": pa.array(by_o, pa.int64()),
            "bx": pa.array(bx_o, pa.int64()),
            "n_pix": pa.array(n_o, pa.int64()),
            "out16_sum": pa.array(s_o, pa.int64())})

    return tiles_ds.map_batches(_f, batch_format="pyarrow")


def elevation_profile(tiles_ds, sid: np.ndarray, yc: np.ndarray,
                      xc: np.ndarray, fy256: np.ndarray,
                      fx256: np.ndarray, tile: int = 64):
    """Terrain transect: EXACT integer bilinear elevation at sample
    points with 1/256-rational coordinates — elev65536 = 65536 x the
    interpolated value, from the 2x2 gather

        (256-fy)(256-fx) v00 + (256-fy)fx v01
        + fy(256-fx) v10 + fy fx v11.

    The sample table (route transects are tiny — hundreds of points)
    rides into each task's closure; every TILE emits weighted partial
    rows only for the corner pixels it OWNS (pixel ownership is
    unique, so ONE grouped sum per sample id reassembles the exact
    value — no halo dependence, no tile-straddle special case).
    SCALE: per-tile work is O(samples) vectorized masks; shuffle
    volume is <= 4 rows per sample, independent of raster size.
    Returns (sample_id, elev65536).
    """
    from ray.data.aggregate import Sum

    sid = sid.astype(np.int64)
    yc = yc.astype(np.int64)
    xc = xc.astype(np.int64)
    fy = fy256.astype(np.int64)
    fx = fx256.astype(np.int64)

    def _emit(b: pa.Table) -> pa.Table:
        from .terrain import _rows_as_arrays

        hs = b.column("height").to_numpy()
        ws = b.column("width").to_numpy()
        tys = b.column("tile_y").to_numpy()
        txs = b.column("tile_x").to_numpy()
        halos = _rows_as_arrays(b.column("dem_halo"))
        out_sid, out_part = [], []
        for i in range(len(hs)):
            h, w = int(hs[i]), int(ws[i])
            y0, x0 = int(tys[i]) * tile, int(txs[i]) * tile
            z = halos[i].reshape(h + 2, w + 2).astype(np.int64)[
                1:h + 1, 1:w + 1]
            for dy in (0, 1):
                wy = np.where(dy == 0, 256 - fy, fy)
                py = yc + dy
                for dx in (0, 1):
                    wx = np.where(dx == 0, 256 - fx, fx)
                    px = xc + dx
                    m = ((py >= y0) & (py < y0 + h)
                         & (px >= x0) & (px < x0 + w))
                    if not m.any():
                        continue
                    vals = z[py[m] - y0, px[m] - x0]
                    out_sid.append(sid[m])
                    out_part.append(wy[m] * wx[m] * vals)
        if not out_sid:
            return pa.table({"sample_id": pa.array([], pa.int64()),
                             "_p": pa.array([], pa.int64())})
        return pa.table({
            "sample_id": pa.array(np.concatenate(out_sid), pa.int64()),
            "_p": pa.array(np.concatenate(out_part), pa.int64())})

    agg = tiles_ds.map_batches(_emit, batch_format="pyarrow") \
        .groupby("sample_id").aggregate(Sum("_p", alias_name="e"))
    return agg.map_batches(
        lambda b: pa.table({
            "sample_id": pc.cast(b.column("sample_id"), pa.int64()),
            "elev65536": pc.cast(b.column("e"), pa.int64())}),
        batch_format="pyarrow")
