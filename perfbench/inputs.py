"""Seeded input generators and the on-disk input cache.

Every input is a pure function of ``(workload, seed, sizes)``. Inputs are
written once per key under ``<checkout>/.perfbench/cache`` (atomic
tmp-dir + rename) together with the reference result computed from them,
so a second run with the same seed skips generation. The pipelines only
ever see the files written here.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

KEEP_ENTRIES = 8          # cache entries kept per workload (newest first)


def cache_entry(cache_root: str, workload: str, seed: int, sizes: dict,
                build) -> tuple[str, float]:
    """Return ``(entry_dir, build_seconds)``; builds the entry on a miss.

    ``build(tmp_dir)`` writes the inputs and the reference into tmp_dir.
    """
    key = hashlib.blake2b(json.dumps([workload, seed, sizes], sort_keys=True)
                          .encode(), digest_size=6).hexdigest()
    entry = os.path.join(cache_root, f"{workload}-s{seed}-{key}")
    if os.path.exists(os.path.join(entry, "_DONE")):
        os.utime(entry)
        return entry, 0.0
    t0 = time.perf_counter()
    tmp = entry + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(entry, ignore_errors=True)
    os.rename(tmp, entry)
    _prune(cache_root, workload)
    return entry, time.perf_counter() - t0


def _prune(cache_root: str, workload: str) -> None:
    entries = [os.path.join(cache_root, d) for d in os.listdir(cache_root)
               if d.startswith(workload + "-s") and not d.endswith(".tmp")]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[KEEP_ENTRIES:]:
        shutil.rmtree(old, ignore_errors=True)


def write_files(table: pa.Table, out_dir: str, n_files: int) -> None:
    """Split ``table`` row-wise into ``n_files`` Parquet files."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for i in range(n_files):
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]),
                       os.path.join(out_dir, f"part-{i:04d}.parquet"))


# ---------------------------------------------------------------------------
# Web pages (pages_flagship, pages_checkpointed)
# ---------------------------------------------------------------------------

_LANGS = np.array(["en", "de", "fr", "es", "ru", "zh"])
_LANG_P = np.array([0.45, 0.20, 0.12, 0.10, 0.08, 0.05])


def pages_table(seed: int, n_rows: int, dup_frac: float) -> pa.Table:
    """Common-Crawl-style pages ``(url, warc_ts, html, text, lang)``.

    ``dup_frac`` of the rows copy the content of a uniformly chosen
    earlier row under their own url (the html differs only in a comment,
    the extracted text is byte-identical). Urls carry the seed, so the
    url-hash geocoder puts a different ~30% of the rows into its three
    hot discs on every seed. ``text`` is the extractor's output on
    ``html``, which is what the byte-identity check compares against.
    """
    from geoflow.sources.pages import render_html
    from geoflow.stages.extract import extract_text

    rng = np.random.default_rng(seed)
    content = rng.integers(1, 2**62, size=n_rows)
    dup = rng.random(n_rows) < dup_frac
    dup[0] = False
    src = (rng.random(n_rows) * np.arange(n_rows)).astype(np.int64)
    for i in np.flatnonzero(dup):
        content[i] = content[src[i]]
    site = rng.integers(0, 997, size=n_rows)
    urls = [f"https://site{s}.example/b{seed}/p{i}"
            for i, s in enumerate(site.tolist())]
    htmls, texts = [], []
    text_of: dict[int, str] = {}
    for i, c in enumerate(content.tolist()):
        h = render_html(i, c)
        htmls.append(h)
        t = text_of.get(c)
        if t is None:
            t = text_of[c] = extract_text(h)
        texts.append(t)
    langs = _LANGS[np.searchsorted(np.cumsum(_LANG_P), rng.random(n_rows))]
    ts = 1735689600000000 + rng.integers(0, 86400 * 365, n_rows) * 1_000_000
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs.tolist(), pa.string()),
    })


# ---------------------------------------------------------------------------
# Raster (raster_rank, spatial_join zonal side)
# ---------------------------------------------------------------------------

def raster_arrays(seed: int, size: int, n_bands: int):
    """Seeded ``(dem, bands)``: Gaussian-hill DEM + illumination-correlated
    bands (the repo's synthetic raster family)."""
    from geoflow.sources.tiles import synth_bands, synth_dem

    dem = synth_dem(size, size, seed=seed)
    return dem, synth_bands(dem, n_bands, seed=seed)


def tile_table(dem: np.ndarray, bands: np.ndarray, tile: int) -> pa.Table:
    from geoflow.sources.tiles import raster_to_tile_table

    return raster_to_tile_table(bands, dem, tile=tile)


# ---------------------------------------------------------------------------
# Points and queries (spatial_join)
# ---------------------------------------------------------------------------

def points_frame(seed: int, n_points: int) -> pd.DataFrame:
    """Geocoded page urls: ``(id, lat, lon)``, ~30% in the hot discs."""
    from geoflow.stages.geocode import geocode_urls

    urls = [f"https://site{i % 997}.example/g{seed}/p{i}"
            for i in range(n_points)]
    lat, lon = geocode_urls(urls)
    return pd.DataFrame({"id": np.arange(n_points, dtype=np.int64),
                         "lat": lat, "lon": lon})


def queries_frame(seed: int, n_queries: int) -> pd.DataFrame:
    """kNN queries: half inside the hot discs, half uniform over the
    geocoder's latitude band."""
    from geoflow.stages.geocode import HOT_CLUSTERS, HOT_RADIUS_DEG

    rng = np.random.default_rng(seed + 1)
    n_hot = n_queries // 2
    centers = np.asarray(HOT_CLUSTERS)[rng.integers(0, len(HOT_CLUSTERS),
                                                    n_hot)]
    hot = centers + (rng.random((n_hot, 2)) - 0.5) * HOT_RADIUS_DEG
    n_uni = n_queries - n_hot
    uni = np.stack([rng.uniform(-60.0, 70.0, n_uni),
                    rng.uniform(-180.0, 180.0, n_uni)], axis=1)
    both = np.concatenate([hot, uni])[rng.permutation(n_queries)]
    return pd.DataFrame({"query_id": np.arange(n_queries, dtype=np.int64),
                         "lat": both[:, 0], "lon": both[:, 1]})
