"""S2-style hierarchical cell encoding (uint64 Z-order quadtree).

North-rule component ("H3/S2 cell encoding assigning every geocoded web
page and raster tile to a cell", BASELINE.json:6) — no reference
counterpart; the reference's closest analogue is the per-pixel integer
group-id raster used for zonal evaluation
(``processing_alg/topocorrection_eval/eval.py:128-141``).

Design (public knowledge: S2 geometry's hierarchical cell ids /
Z-order-curve quadtrees): the world rectangle lon in [-180,180),
lat in [-90,90] is quantized at resolution ``res`` (0..29) into a
2^res x 2^res grid; cell id packs the resolution (6 bits) and the Morton
interleave of (x, y) (2*res bits) into one uint64::

    cell = (res << 58) | morton(x, y)

Properties used by the engine:
- parent/child are bit shifts (split-cell rebalancing descends one level),
- ids at one resolution sort in Z-order (nearby cells share prefixes, so
  range-partitioning by cell id keeps spatial locality),
- neighbor lookup decodes (x, y), steps +-1 (lon wraps, lat clamps).

All functions are vectorized numpy over uint64 and are safe to call
inside ``map_batches`` on Arrow columns.
"""

from __future__ import annotations

import numpy as np

MAX_RES = 29
_RES_SHIFT = np.uint64(58)
_MORTON_MASK = (np.uint64(1) << _RES_SHIFT) - np.uint64(1)


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Spread the low 29 bits of each uint64 so bit i moves to bit 2*i."""
    v = v.astype(np.uint64, copy=True)
    v &= np.uint64(0x1FFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact_bits(v: np.ndarray) -> np.ndarray:
    """Inverse of _spread_bits: gather even bits down to the low 29 bits."""
    v = v.astype(np.uint64, copy=True)
    v &= np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def lonlat_to_xy(lat, lon, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantize lon/lat to integer grid coords at ``res`` (x east, y south)."""
    if not 0 <= res <= MAX_RES:
        raise ValueError(f"res must be in [0, {MAX_RES}], got {res}")
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    n = np.uint64(1) << np.uint64(res)
    fx = (lon + 180.0) / 360.0
    fy = (90.0 - lat) / 180.0
    nf = float(1 << res)
    x = np.clip(np.floor(fx * nf), 0, nf - 1).astype(np.uint64)
    y = np.clip(np.floor(fy * nf), 0, nf - 1).astype(np.uint64)
    del n
    return x, y


def cell_id(lat, lon, res: int) -> np.ndarray:
    """Encode lat/lon arrays to uint64 cell ids at resolution ``res``."""
    x, y = lonlat_to_xy(lat, lon, res)
    return xy_to_cell(x, y, res)


def xy_to_cell(x: np.ndarray, y: np.ndarray, res: int) -> np.ndarray:
    morton = _spread_bits(x) | (_spread_bits(y) << np.uint64(1))
    return (np.uint64(res) << _RES_SHIFT) | morton


def cell_res(cell: np.ndarray) -> np.ndarray:
    return (np.asarray(cell, dtype=np.uint64) >> _RES_SHIFT).astype(np.int64)


def cell_to_xy(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = np.asarray(cell, dtype=np.uint64) & _MORTON_MASK
    return _compact_bits(c), _compact_bits(c >> np.uint64(1))


def cell_parent(cell: np.ndarray, parent_res: int) -> np.ndarray:
    """Ancestor cell at a coarser resolution (vectorized; per-element res)."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = cell_res(cell)
    if np.any(res < parent_res):
        raise ValueError("parent_res must be <= cell resolution")
    shift = (2 * (res - parent_res)).astype(np.uint64)
    morton = (cell & _MORTON_MASK) >> shift
    return (np.uint64(parent_res) << _RES_SHIFT) | morton


def cell_children(cell: int) -> np.ndarray:
    """The 4 children of a scalar cell one level finer."""
    cell = np.uint64(cell)
    res = int(cell >> _RES_SHIFT)
    if res >= MAX_RES:
        raise ValueError("cell already at max resolution")
    base = (cell & _MORTON_MASK) << np.uint64(2)
    kids = base + np.arange(4, dtype=np.uint64)
    return (np.uint64(res + 1) << _RES_SHIFT) | kids


def cell_center(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) of each cell's center."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = cell_res(cell)
    x, y = cell_to_xy(cell)
    nf = (np.uint64(1) << res.astype(np.uint64)).astype(np.float64)
    lon = (x.astype(np.float64) + 0.5) / nf * 360.0 - 180.0
    lat = 90.0 - (y.astype(np.float64) + 0.5) / nf * 180.0
    return lat, lon


def cell_neighbors(cell: np.ndarray, include_self: bool = True) -> np.ndarray:
    """The 3x3 ring of cells around each input cell, shape (n, 9) or (n, 8).

    Longitude wraps; latitude clamps at the poles (the clamped neighbor
    duplicates the cell itself, which is harmless for candidate
    generation — callers dedupe). Used by kNN candidate rings.
    """
    cell = np.asarray(cell, dtype=np.uint64)
    res = cell_res(cell)
    if cell.size and not np.all(res == res.flat[0]):
        raise ValueError("cell_neighbors requires uniform resolution")
    r = int(res.flat[0]) if cell.size else 0
    n = np.int64(1 << r)
    x, y = cell_to_xy(cell)
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    offsets = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
               if include_self or (dx, dy) != (0, 0)]
    out = np.empty((cell.size, len(offsets)), dtype=np.uint64)
    for j, (dx, dy) in enumerate(offsets):
        nx = (x + dx) % n                       # lon wraps
        ny = np.clip(y + dy, 0, n - 1)          # lat clamps
        out[:, j] = xy_to_cell(nx.astype(np.uint64), ny.astype(np.uint64), r)
    return out


# ---------------------------------------------------------------------------
# Geohash (base-32 interleaved cell strings)
# ---------------------------------------------------------------------------

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"


def geohash_encode(lat: np.ndarray, lon: np.ndarray,
                   precision: int = 7) -> np.ndarray:
    """Standard geohash strings (Niemeyer base-32, lon bit first).

    Computed the integer way: the 5p interleaved bits ARE the binary
    digits of the floor-scaled lon/lat indices (bisection with
    half-open intervals == integer floor), so the whole encode is two
    floor-scalings + one Morton spread + a table lookup, vectorized —
    and exactly replayable in SQL with the same 5-bit spread table the
    Morton cell join already uses. Returns an |S{p} byte array.
    """
    nlon = (5 * precision + 1) // 2
    nlat = 5 * precision - nlon
    bx = np.floor((np.asarray(lon, dtype=np.float64) + 180.0)
                  / 360.0 * float(1 << nlon)).astype(np.int64)
    by = np.floor((np.asarray(lat, dtype=np.float64) + 90.0)
                  / 180.0 * float(1 << nlat)).astype(np.int64)
    bx = np.clip(bx, 0, (1 << nlon) - 1).astype(np.uint64)
    by = np.clip(by, 0, (1 << nlat) - 1).astype(np.uint64)
    # the MSB is always a lon bit; alternation therefore puts lon on
    # even bit positions (from the LSB) when the total 5p is odd, and
    # on odd positions when it is even
    if (5 * precision) % 2 == 1:
        ib = _spread_bits(bx) | (_spread_bits(by) << np.uint64(1))
    else:
        ib = _spread_bits(by) | (_spread_bits(bx) << np.uint64(1))
    alpha = np.frombuffer(GEOHASH_ALPHABET.encode(), dtype=np.uint8)
    total = 5 * precision
    codes = np.empty((len(bx), precision), dtype=np.uint8)
    for k in range(precision):
        shift = np.uint64(total - 5 * (k + 1))
        codes[:, k] = alpha[((ib >> shift)
                             & np.uint64(31)).astype(np.int64)]
    return np.ascontiguousarray(codes).view(f"S{precision}").ravel()


def geohash_spread_sql_fragment() -> str:
    """SQL helper CTE: sp(v, s) spreads a 5-bit value to even bits
    (shared idiom with the Morton cell join oracle)."""
    vals = ", ".join(
        f"({v}, {int(_spread_bits(np.array([v], dtype=np.uint64))[0])})"
        for v in range(32))
    return f"sp(v, s) AS (VALUES {vals})"


# ---------------------------------------------------------------------------
# Hilbert curve (state-dependent rotations — locality-preserving order
# with no long diagonal jumps, unlike the Morton/geohash interleave)
# ---------------------------------------------------------------------------


def hilbert_xy_to_d(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """Hilbert index of (x, y) on a 2^order x 2^order grid, vectorized.

    The textbook iterative form (one rotate/flip per bit level, MSB
    down): per level s = 2^k the quadrant digit is (3*rx) XOR ry and
    the frame is re-oriented before descending. Level count is
    ``order`` — replayable bit-for-bit in SQL as a linear chain of
    CTEs (``hilbert_sql_levels``)."""
    x = np.asarray(x, dtype=np.int64).copy()
    y = np.asarray(y, dtype=np.int64).copy()
    d = np.zeros(len(x), dtype=np.int64)
    s = 1 << (order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate the sub-square: only when ry == 0, flipping when rx == 1
        m = ry == 0
        fl = m & (rx == 1)
        x[fl] = s - 1 - x[fl]
        y[fl] = s - 1 - y[fl]
        tx = x[m].copy()
        x[m] = y[m]
        y[m] = tx
        s >>= 1
    return d


def hilbert_d_to_xy(d: np.ndarray, order: int) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Inverse transform (LSB up), for round-trip/adjacency tests."""
    d = np.asarray(d, dtype=np.int64)
    x = np.zeros(len(d), dtype=np.int64)
    y = np.zeros(len(d), dtype=np.int64)
    t = d.copy()
    s = 1
    while s < (1 << order):
        rx = (t // 2) & 1
        ry = (t ^ rx) & 1
        m = ry == 0
        fl = m & (rx == 1)
        x[fl] = s - 1 - x[fl]
        y[fl] = s - 1 - y[fl]
        tx = x[m].copy()
        x[m] = y[m]
        y[m] = tx
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def hilbert_sql_levels(order: int, src: str,
                       x_col: str = "cx", y_col: str = "cy",
                       carry: str = "doc_id") -> str:
    """SQL CTE chain replaying hilbert_xy_to_d level by level.

    Emits ``h0 .. h{order}`` where ``h{order}(carry.., hd)`` holds the
    final index; each level references only its predecessor (linear
    chain — no exponential re-inlining risk). XOR of the two one-bit
    flags is spelled arithmetically ((a + b) % 2 on 3*rx's low bit,
    rx on its high bit) so the fragment stays ANSI-portable."""
    parts = [f"h0 AS (SELECT {carry}, CAST({x_col} AS BIGINT) AS x,"
             f" CAST({y_col} AS BIGINT) AS y,"
             f" CAST(0 AS BIGINT) AS hd FROM {src})"]
    for i in range(order):
        s = 1 << (order - 1 - i)
        # digit = (3*rx) XOR ry with rx,ry in {0,1}:
        #   rx=0 -> ry ; rx=1 -> 3 - ry   (since 3 = 0b11 flips the low bit)
        parts.append(f"""h{i + 1} AS (
  SELECT {carry},
    CASE WHEN (y // {s}) % 2 = 1 THEN x
         WHEN (x // {s}) % 2 = 1 THEN {s} - 1 - (y % {s})
         ELSE y % {s} END AS x,
    CASE WHEN (y // {s}) % 2 = 1 THEN y
         WHEN (x // {s}) % 2 = 1 THEN {s} - 1 - (x % {s})
         ELSE x % {s} END AS y,
    hd + {s * s} * (CASE WHEN (x // {s}) % 2 = 0 THEN (y // {s}) % 2
                         ELSE 3 - ((y // {s}) % 2) END) AS hd
  FROM h{i})""")
    return ",\n".join(parts)
