"""Deterministic geocoding of synthetic web pages / documents.

North-rule plumbing: every geocoded page gets (lat, lon) and then a cell
id (geoflow.stages.cells). There is no reference counterpart — the
reference's rasters come georeferenced (``util/qgis_utils.py:81-95``
validates CRS/extent); for the synthetic Common-Crawl-style table the
coordinates are derived deterministically from the key so oracles can
reproduce them.

Two geocoders:

- ``geocode_doc_ids``: pure 32-bit integer arithmetic on ``doc_id``
  (Knuth multiplicative hashing) — expressible in ANSI SQL, so the
  DuckDB oracle in ``__ray_entry__.oracle_sql`` replays it exactly
  (same double-precision op order => bit-identical lat/lon).
- ``geocode_urls``: FNV-1a over url bytes (string keys; checked against
  fixtures in pytest, not SQL).

Both inject hot clusters (a deterministic ~30% of rows collapse into 3
small discs) so cell distribution is Zipf-ish and the skew machinery
(salting / split-cell rebalancing) is actually exercised (FIXTURES.md F1).
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(4294967296)  # 2**32
_KNUTH = np.uint64(2654435761)
_KNUTH2 = np.uint64(2246822519)

# Hot-cluster centers (lat, lon) — deterministic skew injection.
HOT_CLUSTERS = ((40.7, -74.0), (51.5, -0.1), (35.7, 139.7))
HOT_RADIUS_DEG = 0.5


def _h32(v: np.ndarray, mult: np.uint64, add: int) -> np.ndarray:
    v = v.astype(np.uint64) * mult + np.uint64(add)
    return (v % _M32).astype(np.float64)


def geocode_doc_ids(doc_id) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) from integer ids; SQL-replayable (see oracle_sql)."""
    ids = np.asarray(doc_id, dtype=np.int64)
    h1 = _h32(ids, _KNUTH, 17)
    h2 = _h32(ids, _KNUTH2, 101)
    lat = h1 / 4294967296.0 * 130.0 - 60.0     # [-60, 70)
    lon = h2 / 4294967296.0 * 360.0 - 180.0    # [-180, 180)
    # ~30% of rows snap into 3 hot discs: cluster = id % 10 (0,1,2 hot)
    sel = ids % 10
    for ci, (clat, clon) in enumerate(HOT_CLUSTERS):
        m = sel == ci
        lat = np.where(m, clat + (h1 / 4294967296.0 - 0.5) * HOT_RADIUS_DEG, lat)
        lon = np.where(m, clon + (h2 / 4294967296.0 - 0.5) * HOT_RADIUS_DEG, lon)
    return lat, lon


def url_hash64(urls) -> np.ndarray:
    """blake2b-64 per url (deterministic string hash, uint64; C-speed —
    a pure-Python per-byte hash was the enrich-stage hot spot)."""
    import hashlib

    return np.fromiter(
        (int.from_bytes(
            hashlib.blake2b(u.encode("utf-8"), digest_size=8).digest(), "big")
         for u in urls),
        dtype=np.uint64, count=len(urls),
    )


def geocode_urls(urls) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) from url strings via blake2b (fixture-checked)."""
    h = url_hash64(list(urls))
    h1 = (h & np.uint64(0xFFFFFFFF)).astype(np.float64)
    h2 = (h >> np.uint64(32)).astype(np.float64)
    lat = h1 / 4294967296.0 * 130.0 - 60.0
    lon = h2 / 4294967296.0 * 360.0 - 180.0
    sel = (h % np.uint64(10)).astype(np.int64)
    for ci, (clat, clon) in enumerate(HOT_CLUSTERS):
        m = sel == ci
        lat = np.where(m, clat + (h1 / 4294967296.0 - 0.5) * HOT_RADIUS_DEG, lat)
        lon = np.where(m, clon + (h2 / 4294967296.0 - 0.5) * HOT_RADIUS_DEG, lon)
    return lat, lon


def travel_stats(events_ds, num_buckets: int = 32):
    """Per-user movement rollup over a geocoded event stream: legs are
    consecutive events in (ts, event_id) order; output (user_id,
    n_legs, total_km, max_leg_km), users with < 2 events dropped.

    ONE bucket-keyed shuffle (splitmix64(user_id) % B — all rows of a
    user co-locate), then a fully vectorized per-bucket pass: one sort
    by (user, ts, event_id), shifted-array haversine over every row
    with a same-user predecessor, one pandas groupby-agg. No per-user
    Python loop; the trig runs once over the whole bucket.

    SCALE: leg computation is inherently per-user-sequential, so the
    partitioning key IS user_id. Hot users (bounded by events-per-user,
    not corpus size) stay within a worker's batch; a pathological
    single-user stream would be split by ts range with per-boundary
    stitch legs.
    """
    import pandas as pd
    import pyarrow as pa

    from ..functions.agg import _mix64
    from .knn import haversine_km

    def _tag(b: pa.Table) -> pa.Table:
        ids = b.column("event_id").to_numpy().astype(np.int64)
        uid = b.column("user_id").to_numpy().astype(np.int64)
        lat, lon = geocode_doc_ids(ids)
        return pa.table({
            "_b": pa.array((_mix64(uid) % np.uint64(num_buckets))
                           .astype(np.int64)),
            "user_id": pa.array(uid),
            "ts": b.column("ts"),
            "event_id": pa.array(ids),
            "lat": pa.array(lat), "lon": pa.array(lon),
        })

    def _bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        lat = df["lat"].to_numpy()
        lon = df["lon"].to_numpy()
        uid = df["user_id"].to_numpy()
        same = np.zeros(len(df), dtype=bool)
        if len(df) > 1:
            same[1:] = uid[1:] == uid[:-1]
        if not same.any():
            return pd.DataFrame({
                "user_id": pd.Series([], dtype=np.int64),
                "n_legs": pd.Series([], dtype=np.int64),
                "total_km": pd.Series([], dtype=np.float64),
                "max_leg_km": pd.Series([], dtype=np.float64)})
        i = np.flatnonzero(same)
        km = haversine_km(lat[i - 1], lon[i - 1], lat[i], lon[i])
        legs = pd.DataFrame({"user_id": uid[i], "km": km})
        out = legs.groupby("user_id", sort=False)["km"].agg(
            n_legs="count", total_km="sum", max_leg_km="max")
        out = out.reset_index()
        out["n_legs"] = out["n_legs"].astype(np.int64)
        out["total_km"] = out["total_km"].round(3)
        out["max_leg_km"] = out["max_leg_km"].round(3)
        return out

    return (events_ds.map_batches(_tag, batch_format="pyarrow")
            .groupby("_b").map_groups(_bucket, batch_format="pandas"))


def od_matrix(events_ds, res: int = 6, num_buckets: int = 32):
    """Origin-destination matrix over the geocoded event stream: count
    per-user transitions between consecutive events' grid cells (res-
    ``res``), in (ts, event_id) order — the classic movement-analytics
    rollup (where do users go next?).

    Same partitioning as travel_stats (ONE user-keyed bucket shuffle,
    whole-bucket vectorized pass: sort, shift, cell-assign, combine),
    then the one partials merge (``functions.agg.merge_partials``) over
    (from_x, from_y, to_x, to_y).
    Self-transitions (same cell) are kept — they are the dwell signal.

    SCALE: transition rows == event rows minus users; the final
    groupby's key space is bounded by the OD support (occupied cell
    pairs), so the wide step is footprint-sized. Hot users are bounded
    by events-per-user exactly as in travel_stats.
    """
    import pandas as pd
    import pyarrow as pa

    from ..functions.agg import (_mix64, bucket_count, combine_partials,
                                 merge_partials, plan_estimate)
    from .cells import lonlat_to_xy

    keys = ["from_x", "from_y", "to_x", "to_y"]
    # one transition per event at most: the events bound the partials
    buckets = bucket_count(plan_estimate(events_ds)[0])

    def _tag(b: pa.Table) -> pa.Table:
        ids = b.column("event_id").to_numpy().astype(np.int64)
        uid = b.column("user_id").to_numpy().astype(np.int64)
        lat, lon = geocode_doc_ids(ids)
        x, y = lonlat_to_xy(lat, lon, res)
        return pa.table({
            "_b": pa.array((_mix64(uid) % np.uint64(num_buckets))
                           .astype(np.int64)),
            "user_id": pa.array(uid), "ts": b.column("ts"),
            "event_id": pa.array(ids),
            "cx": pa.array(x.astype(np.int64)),
            "cy": pa.array(y.astype(np.int64)),
        })

    def _bucket(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        uid = df["user_id"].to_numpy()
        cx = df["cx"].to_numpy()
        cy = df["cy"].to_numpy()
        same = np.zeros(len(df), dtype=bool)
        if len(df) > 1:
            same[1:] = uid[1:] == uid[:-1]
        i = np.flatnonzero(same)
        moves = pa.table(dict(zip(keys, (cx[i - 1], cy[i - 1], cx[i], cy[i]))))
        return combine_partials(moves, keys, [], buckets=buckets)

    partial = (events_ds.map_batches(_tag, batch_format="pyarrow")
               .groupby("_b").map_groups(_bucket, batch_format="pandas"))
    return merge_partials(partial, keys, [], "n_moves", buckets=buckets)


def stay_points(events_ds, radius_km: float = 60.0,
                num_buckets: int = 32):
    """Stay-point detection (Li et al. 2008, run-based variant): per
    user, maximal runs of consecutive events (in (ts, event_id) order)
    whose successive legs are all < radius_km apart; runs of >= 2
    events are stays.

    Same ONE user-keyed bucket shuffle as travel_stats, then a fully
    vectorized per-bucket pass: sort, shifted-array haversine, island
    ids by cumulative sum of run breaks (gaps-and-islands), one pandas
    groupby. Centroid sums stay EXACT via microdegree integer coords;
    only the leg-length threshold touches floats (same-operation-order
    trig as the SQL oracle).

    Output: (user_id, start_event_id, n_events, dur_s,
    sum_ilat, sum_ilon) per stay.
    """
    import pandas as pd
    import pyarrow as pa

    from ..functions.agg import _mix64
    from .knn import haversine_km

    def _tag(b: pa.Table) -> pa.Table:
        ids = b.column("event_id").to_numpy().astype(np.int64)
        uid = b.column("user_id").to_numpy().astype(np.int64)
        lat, lon = geocode_doc_ids(ids)
        return pa.table({
            "_b": pa.array((_mix64(uid) % np.uint64(num_buckets))
                           .astype(np.int64)),
            "user_id": pa.array(uid),
            "ts": b.column("ts"),
            "event_id": pa.array(ids),
            "lat": pa.array(lat), "lon": pa.array(lon),
        })

    empty = pd.DataFrame({
        "user_id": pd.Series([], dtype=np.int64),
        "start_event_id": pd.Series([], dtype=np.int64),
        "n_events": pd.Series([], dtype=np.int64),
        "dur_s": pd.Series([], dtype=np.int64),
        "sum_ilat": pd.Series([], dtype=np.int64),
        "sum_ilon": pd.Series([], dtype=np.int64)})

    def _bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return empty.copy()
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        lat = df["lat"].to_numpy()
        lon = df["lon"].to_numpy()
        uid = df["user_id"].to_numpy()
        newrun = np.ones(len(df), dtype=np.int64)
        if len(df) > 1:
            same = uid[1:] == uid[:-1]
            km = haversine_km(lat[:-1], lon[:-1], lat[1:], lon[1:])
            newrun[1:] = np.where(same & (km < radius_km), 0, 1)
        df["_isl"] = np.cumsum(newrun)
        df["_ilat"] = np.floor(lat * 1e6 + 0.5).astype(np.int64)
        df["_ilon"] = np.floor(lon * 1e6 + 0.5).astype(np.int64)
        g = df.groupby("_isl", sort=False)
        out = g.agg(user_id=("user_id", "first"),
                    start_event_id=("event_id", "first"),
                    n_events=("event_id", "size"),
                    ts_min=("ts", "min"), ts_max=("ts", "max"),
                    sum_ilat=("_ilat", "sum"), sum_ilon=("_ilon", "sum"))
        out = out[out["n_events"] >= 2]
        if not len(out):
            return empty.copy()
        out["dur_s"] = ((out["ts_max"] - out["ts_min"])
                        // pd.Timedelta("1s")).astype(np.int64)
        out = out.reset_index(drop=True)
        return out[["user_id", "start_event_id", "n_events", "dur_s",
                    "sum_ilat", "sum_ilon"]]

    return events_ds.map_batches(_tag, batch_format="pyarrow") \
        .groupby("_b").map_groups(_bucket, batch_format="pandas")


# ---------------------------------------------------------------------------
# Corridor query: points within a radius of a polyline
# ---------------------------------------------------------------------------

def corridor_segments(step_deg: int = 18) -> list[tuple[int, int, int, int]]:
    """Deterministic route (NYC -> London -> Tokyo waypoints) as
    centidegree integer segments, each subdivided to <= step_deg so
    every cross-multiplied distance comparison stays inside int64."""
    way = [(-7400, 4070), (-10, 5150), (13970, 3570)]
    segs = []
    for (x0, y0), (x1, y1) in zip(way, way[1:]):
        n = max(1, int(np.ceil(max(abs(x1 - x0), abs(y1 - y0))
                               / (step_deg * 100))))
        for i in range(n):
            ax = x0 + (x1 - x0) * i // n
            ay = y0 + (y1 - y0) * i // n
            bx = x0 + (x1 - x0) * (i + 1) // n
            by = y0 + (y1 - y0) * (i + 1) // n
            segs.append((ax, ay, bx, by))
    return segs


def corridor_hits(pts_ds, radius_cd: int = 800):
    """Docs within ``radius_cd`` centidegrees of the route polyline.

    EXACT integer point-to-segment test per (point, segment):
    endpoint cases compare squared distances directly; the interior
    case cross-multiplies (|AP|^2 * |AB|^2 - dot^2 <= r^2 * |AB|^2) so
    no division or sqrt ever happens — bit-identical to the SQL twin.
    Segments broadcast in the closure (a handful of literals); the
    scan is one stateless vectorized pass, zero shuffles.

    Output: (doc_id, n_seg_hits, first_seg) for docs with >= 1 hit.
    """
    import pyarrow as pa

    segs = np.array(corridor_segments(), dtype=np.int64)
    r2 = np.int64(radius_cd) ** 2

    def _scan(b: pa.Table) -> pa.Table:
        lat = b.column("lat").to_numpy()
        lon = b.column("lon").to_numpy()
        px = np.floor(lon * 100.0 + 0.5).astype(np.int64)
        py = np.floor(lat * 100.0 + 0.5).astype(np.int64)
        nhits = np.zeros(len(px), dtype=np.int64)
        first = np.full(len(px), -1, dtype=np.int64)
        for si, (ax, ay, bx, by) in enumerate(segs):
            apx, apy = px - ax, py - ay
            abx, aby = bx - ax, by - ay
            ab2 = abx * abx + aby * aby
            dot = apx * abx + apy * aby
            ap2 = apx * apx + apy * apy
            bp2 = (px - bx) ** 2 + (py - by) ** 2
            inside = np.where(
                dot <= 0, ap2 <= r2,
                np.where(dot >= ab2, bp2 <= r2,
                         ap2 * ab2 - dot * dot <= r2 * ab2))
            first = np.where(inside & (first < 0), si, first)
            nhits += inside.astype(np.int64)
        keep = nhits > 0
        return pa.table({
            "doc_id": pa.array(
                b.column("doc_id").to_numpy()[keep].astype(np.int64)),
            "n_seg_hits": pa.array(nhits[keep]),
            "first_seg": pa.array(first[keep])})

    return pts_ds.map_batches(_scan, batch_format="pyarrow")


def corridor_sql(radius_cd: int = 800) -> str:
    """SQL twin fragment: VALUES segments + the same integer test.
    Expects a ``geo(doc_id, lat, lon)`` CTE in scope."""
    rows = ", ".join(
        f"({i}, CAST({a} AS BIGINT), CAST({b} AS BIGINT), "
        f"CAST({c} AS BIGINT), CAST({d} AS BIGINT))"
        for i, (a, b, c, d) in enumerate(corridor_segments()))
    r2 = f"CAST({radius_cd * radius_cd} AS BIGINT)"

    return f"""
segs(si, ax, ay, bx, by) AS (VALUES {rows}),
ipts AS (
  SELECT doc_id,
         CAST(floor(lon * 100.0 + 0.5) AS BIGINT) AS px,
         CAST(floor(lat * 100.0 + 0.5) AS BIGINT) AS py
  FROM geo
),
hits AS (
  SELECT p.doc_id, s.si
  FROM ipts p CROSS JOIN segs s
  WHERE CASE
    WHEN (p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay)
         <= 0
    THEN (p.px - s.ax) * (p.px - s.ax) + (p.py - s.ay) * (p.py - s.ay)
         <= {r2}
    WHEN (p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay)
         >= (s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay)
    THEN (p.px - s.bx) * (p.px - s.bx) + (p.py - s.by) * (p.py - s.by)
         <= {r2}
    ELSE ((p.px - s.ax) * (p.px - s.ax) + (p.py - s.ay) * (p.py - s.ay))
         * ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
         - ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
           * ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
         <= {r2} * ((s.bx - s.ax) * (s.bx - s.ax)
                    + (s.by - s.ay) * (s.by - s.ay))
    END
)
SELECT doc_id, count(*) AS n_seg_hits,
       CAST(min(si) AS BIGINT) AS first_seg
FROM hits GROUP BY doc_id"""


# ---------------------------------------------------------------------------
# Map matching: snap points to the nearest route segment, EXACT integers
# ---------------------------------------------------------------------------

# Patrol route around the NYC event cluster: every leg is a Pythagorean
# (300,400)/(500,0)-style vector of SQUARED LENGTH exactly 250000 cd^2,
# so all interior-case distances share ONE denominator |AB|^2 and the
# cross-segment argmin reduces to comparing int64 numerators — no
# rationals, no floats, no overflow (nums <= ~2.6e9 * 2.5e5 = 6.5e14).
MATCH_AB2 = 250_000


def match_segments() -> list[tuple[int, int, int, int]]:
    verts = [(-7600, 3900)]
    for dx, dy in [(500, 0), (300, 400), (-400, 300), (-500, 0),
                   (0, -500), (300, -400)]:
        x, y = verts[-1]
        verts.append((x + dx, y + dy))
    segs = []
    for (ax, ay), (bx, by) in zip(verts, verts[1:]):
        assert (bx - ax) ** 2 + (by - ay) ** 2 == MATCH_AB2
        segs.append((ax, ay, bx, by))
    return segs


def snap_to_route(pts_ds, id_col: str = "event_id",
                  carry: str = "user_id"):
    """(id, carry, seg) — nearest route segment per point, ties to the
    lowest segment id. Distance ranking is EXACT: every candidate is
    the integer numerator of dist^2 over the shared denominator
    MATCH_AB2 (endpoint cases scaled up by MATCH_AB2). Segments ride
    the closure (a handful of ints); one stateless vectorized pass."""
    import pyarrow as pa

    segs = np.array(match_segments(), dtype=np.int64)

    def _scan(b: pa.Table) -> pa.Table:
        lat = b.column("lat").to_numpy()
        lon = b.column("lon").to_numpy()
        px = np.floor(lon * 100.0 + 0.5).astype(np.int64)
        py = np.floor(lat * 100.0 + 0.5).astype(np.int64)
        nums = np.empty((len(px), len(segs)), dtype=np.int64)
        for si, (ax, ay, bx, by) in enumerate(segs):
            apx, apy = px - ax, py - ay
            abx, aby = bx - ax, by - ay
            dot = apx * abx + apy * aby
            ap2 = apx * apx + apy * apy
            bp2 = (px - bx) ** 2 + (py - by) ** 2
            nums[:, si] = np.where(
                dot <= 0, ap2 * MATCH_AB2,
                np.where(dot >= MATCH_AB2, bp2 * MATCH_AB2,
                         ap2 * MATCH_AB2 - dot * dot))
        best = np.argmin(nums, axis=1).astype(np.int64)
        return pa.table({
            id_col: pa.array(b.column(id_col).to_numpy()
                             .astype(np.int64)),
            carry: pa.array(b.column(carry).to_numpy()
                            .astype(np.int64)),
            "seg": pa.array(best)})

    return pts_ds.map_batches(_scan, batch_format="pyarrow")


def snap_route_sql() -> str:
    """Oracle fragment: seg VALUES + the same integer numerator argmin
    (expects an ``egeo`` CTE with event_id, user_id, lat, lon)."""
    rows = ", ".join(f"({i}, {ax}, {ay}, {bx}, {by})"
                     for i, (ax, ay, bx, by)
                     in enumerate(match_segments()))
    return f"""
segs(seg, ax, ay, bx, by) AS (VALUES {rows}),
pts AS (
  SELECT event_id, user_id,
         CAST(floor(lon * 100.0 + 0.5) AS BIGINT) AS px,
         CAST(floor(lat * 100.0 + 0.5) AS BIGINT) AS py
  FROM egeo
),
cand AS (
  SELECT p.event_id, p.user_id, s.seg,
    CASE WHEN (p.px - s.ax) * (s.bx - s.ax)
              + (p.py - s.ay) * (s.by - s.ay) <= 0
         THEN ((p.px - s.ax) * (p.px - s.ax)
               + (p.py - s.ay) * (p.py - s.ay)) * {MATCH_AB2}
         WHEN (p.px - s.ax) * (s.bx - s.ax)
              + (p.py - s.ay) * (s.by - s.ay) >= {MATCH_AB2}
         THEN ((p.px - s.bx) * (p.px - s.bx)
               + (p.py - s.by) * (p.py - s.by)) * {MATCH_AB2}
         ELSE ((p.px - s.ax) * (p.px - s.ax)
               + (p.py - s.ay) * (p.py - s.ay)) * {MATCH_AB2}
              - ((p.px - s.ax) * (s.bx - s.ax)
                 + (p.py - s.ay) * (s.by - s.ay))
                * ((p.px - s.ax) * (s.bx - s.ax)
                   + (p.py - s.ay) * (s.by - s.ay))
         END AS num
  FROM pts p CROSS JOIN segs s
),
snapped AS (
  SELECT event_id, user_id, seg,
         row_number() OVER (PARTITION BY event_id
                            ORDER BY num ASC, seg ASC) AS rn
  FROM cand
)
"""
