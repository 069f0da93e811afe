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
