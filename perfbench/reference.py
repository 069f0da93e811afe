"""Reference results computed without the Ray Data engine path, and the
checks that compare a pass's output against them.

Each ``check_*`` returns a list of human-readable problems; an empty list
means the pass output is correct.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

SCORE_RTOL = 1e-4     # oracle tolerance used by the multi_criteria_scores query
SCORE_ATOL = 1e-4


# ---------------------------------------------------------------------------
# Pages: dedup by stored text -> geocode -> cell -> zone counts
# ---------------------------------------------------------------------------

def zonal_reference(pages_dir: str) -> pd.DataFrame:
    """DuckDB over the stored ``text`` column: one winner (min url) per
    distinct text, geocoded and counted per coarse zone."""
    import duckdb

    from geoflow.pipelines.flagship import PAGE_CELL_RES, ZONE_CELL_RES
    from geoflow.stages import cells
    from geoflow.stages.geocode import geocode_urls

    con = duckdb.connect()
    try:
        win = con.execute(
            "SELECT min(url) AS url, length(text) AS n_chars "
            "FROM read_parquet(?) GROUP BY text",
            [f"{pages_dir}/*.parquet"]).fetch_df()
    finally:
        con.close()
    lat, lon = geocode_urls(win["url"].tolist())
    fine = cells.cell_id(lat, lon, PAGE_CELL_RES)
    win["zone"] = cells.cell_parent(fine, ZONE_CELL_RES).astype(np.int64)
    out = win.groupby("zone").agg(n_pages=("url", "size"),
                                  n_chars_sum=("n_chars", "sum"))
    return out.reset_index().sort_values("zone").reset_index(drop=True)


def check_zonal(got: pd.DataFrame, ref: pd.DataFrame) -> list[str]:
    cols = ["zone", "n_pages", "n_chars_sum"]
    missing = [c for c in cols if c not in got.columns]
    if missing:
        return [f"zonal result lacks columns {missing}"]
    g = got[cols].astype("int64").sort_values("zone").reset_index(drop=True)
    r = ref[cols].astype("int64")
    if len(g) != len(r):
        return [f"zonal rows {len(g)} != reference {len(r)}"]
    bad = (g.to_numpy() != r.to_numpy()).any(axis=1)
    if bad.any():
        return [f"{int(bad.sum())} zonal rows differ, first zone "
                f"{int(r['zone'][np.argmax(bad)])}"]
    return []


# ---------------------------------------------------------------------------
# Raster: the oracle's multi-criteria rank
# ---------------------------------------------------------------------------

def rank_reference(dem: np.ndarray, bands: np.ndarray) -> pd.DataFrame:
    """``geoflow.oracle.eval``: full-array metrics of every correction,
    merged and ranked in the reference's own pandas idiom."""
    from geoflow.oracle.eval import oracle_merge_rank, oracle_metrics_table

    scores, _ = oracle_merge_rank(oracle_metrics_table(bands, dem))
    return scores.reset_index().rename(
        columns={scores.index.name or "index": "correction"})


def check_rank(got: pd.DataFrame, ref: pd.DataFrame) -> list[str]:
    """Scores within the oracle tolerance, and the order equal up to
    swaps of scores that tie within that tolerance."""
    eng = got.reset_index()
    eng.columns = ["correction", "Score"]
    ref_score = dict(zip(ref["correction"], ref["Score"]))
    if sorted(eng["correction"]) != sorted(ref_score):
        return ["ranked corrections differ from the oracle's"]
    problems = []
    ref_sorted = ref["Score"].to_numpy()
    for pos, (name, score) in enumerate(zip(eng["correction"], eng["Score"])):
        want = ref_score[name]
        if not np.isclose(score, want, rtol=SCORE_RTOL, atol=SCORE_ATOL):
            problems.append(f"{name}: score {score!r} != oracle {want!r}")
        if not np.isclose(want, ref_sorted[pos], rtol=SCORE_RTOL,
                          atol=SCORE_ATOL):
            problems.append(f"{name} ranked {pos + 1}, oracle ranks it "
                            f"elsewhere")
    return problems


# ---------------------------------------------------------------------------
# Spatial: PIP, kNN, raster zonal join
# ---------------------------------------------------------------------------

def pip_reference(points: pd.DataFrame, polygons: pd.DataFrame) -> pd.DataFrame:
    from geoflow.stages.pip_join import pip_bruteforce

    return pip_bruteforce(points, polygons)


def check_pip(got: pd.DataFrame, ref: pd.DataFrame) -> list[str]:
    g = got[["id", "region_id"]].astype("int64").sort_values(
        ["id", "region_id"]).to_numpy()
    r = ref[["id", "region_id"]].astype("int64").to_numpy()
    if g.shape != r.shape or (g != r).any():
        return [f"PIP matches {len(g)} differ from brute force ({len(r)})"]
    return []


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    from geoflow.stages.knn import EARTH_RADIUS_KM

    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2)
         * np.sin(np.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def knn_reference(points: pd.DataFrame, queries: pd.DataFrame, k: int,
                  n_sample: int) -> pd.DataFrame:
    """Brute force over the first ``n_sample`` queries: every point's
    distance, top ``k`` by (distance, id)."""
    ids = points["id"].to_numpy()
    lat, lon = points["lat"].to_numpy(), points["lon"].to_numpy()
    rows = []
    for q in queries.head(n_sample).itertuples(index=False):
        d = haversine_km(q.lat, q.lon, lat, lon)
        top = np.lexsort((ids, d))[:k]
        rows += [(q.query_id, int(ids[j]), float(d[j]), r + 1)
                 for r, j in enumerate(top)]
    return pd.DataFrame(rows, columns=["query_id", "neighbor_id",
                                       "distance_km", "rank"])


def check_knn(got: pd.DataFrame, ref: pd.DataFrame, n_queries: int,
              k: int) -> list[str]:
    if len(got) != n_queries * k:
        return [f"kNN returned {len(got)} rows, want {n_queries * k}"]
    g = got.merge(ref, on=["query_id", "rank"], suffixes=("", "_ref"))
    if len(g) != len(ref):
        return [f"kNN sample rows {len(g)} != reference {len(ref)}"]
    wrong = g["neighbor_id"].to_numpy() != g["neighbor_id_ref"].to_numpy()
    far = ~np.isclose(g["distance_km"], g["distance_km_ref"], rtol=1e-9,
                      atol=1e-9)
    if wrong.any() or far.any():
        return [f"kNN: {int(wrong.sum())} neighbors and {int(far.sum())} "
                f"distances differ from brute force"]
    return []


def raster_zonal_reference(bands: np.ndarray, geo, res: int) -> pd.DataFrame:
    """Full-array per-(band, cell) pixel counts and value sums."""
    from geoflow.stages import cells

    n_bands, h, w = bands.shape
    lat, lon = geo.pixel_lonlat(0, 0, h, w)
    cell = cells.cell_id(lat, lon, res).astype(np.int64)
    uniq, inv = np.unique(cell, return_inverse=True)
    n = np.bincount(inv, minlength=len(uniq))
    parts = []
    for b in range(n_bands):
        s = np.bincount(inv, weights=bands[b].ravel().astype(np.float64),
                        minlength=len(uniq))
        parts.append(pd.DataFrame({"band": b, "cell": uniq, "n_pixels": n,
                                   "value_sum": s}))
    return pd.concat(parts, ignore_index=True)


def point_zone_reference(points: pd.DataFrame, zone_res: int) -> pd.DataFrame:
    from geoflow.stages import cells

    zone = cells.cell_id(points["lat"].to_numpy(), points["lon"].to_numpy(),
                         zone_res).astype(np.int64)
    z, n = np.unique(zone, return_counts=True)
    return pd.DataFrame({"zone": z, "n_pages": n})


def join_reference(rz: pd.DataFrame, pz: pd.DataFrame, raster_res: int,
                   zone_res: int) -> pd.DataFrame:
    """Raster cells and point zones matched at the coarser resolution."""
    from geoflow.stages import cells

    res = min(raster_res, zone_res)
    r = rz.assign(join_cell=cells.cell_parent(
        rz["cell"].to_numpy().astype(np.uint64), res).astype(np.int64))
    p = pz.assign(join_cell=cells.cell_parent(
        pz["zone"].to_numpy().astype(np.uint64), res).astype(np.int64))
    return r.merge(p[["join_cell", "n_pages"]], on="join_cell")


def check_zonal_join(got: pd.DataFrame, ref: pd.DataFrame) -> list[str]:
    keys = ["band", "cell", "join_cell"]
    g = got.sort_values(keys).reset_index(drop=True)
    r = ref.sort_values(keys).reset_index(drop=True)
    if len(g) != len(r) or len(r) == 0:
        return [f"zonal join rows {len(g)} != reference {len(r)}"]
    exact = ["band", "cell", "join_cell", "n_pixels", "n_pages"]
    if (g[exact].astype("int64").to_numpy()
            != r[exact].astype("int64").to_numpy()).any():
        return ["zonal join keys or counts differ from the full-array sums"]
    if not np.allclose(g["value_sum"], r["value_sum"], rtol=1e-9):
        return ["zonal join value sums differ from the full-array sums"]
    return []
