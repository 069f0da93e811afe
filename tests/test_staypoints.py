"""Stay-point detection: pandas reference parity + run-boundary edge
cases (exact microdegree centroid sums, truncated durations)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from geoflow.stages.geocode import geocode_doc_ids, stay_points
from geoflow.stages.knn import haversine_km


def reference(ev: pd.DataFrame, radius_km=60.0):
    rows = []
    for uid, g in ev.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        lat, lon = geocode_doc_ids(g["event_id"].to_numpy())
        run = [0]
        runs = []
        for i in range(1, len(g)):
            km = haversine_km(np.array([lat[i - 1]]), np.array([lon[i - 1]]),
                              np.array([lat[i]]), np.array([lon[i]]))[0]
            if km < radius_km:
                run.append(i)
            else:
                runs.append(run)
                run = [i]
        runs.append(run)
        for r in runs:
            if len(r) < 2:
                continue
            ts = g["ts"].iloc[r]
            il = np.floor(lat[r] * 1e6 + 0.5).astype(np.int64)
            io = np.floor(lon[r] * 1e6 + 0.5).astype(np.int64)
            rows.append((uid, int(g["event_id"].iloc[r[0]]), len(r),
                         int((ts.max() - ts.min()) // pd.Timedelta("1s")),
                         int(il.sum()), int(io.sum())))
    return pd.DataFrame(rows, columns=[
        "user_id", "start_event_id", "n_events", "dur_s",
        "sum_ilat", "sum_ilon"])


def test_matches_reference_on_testdata():
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["event_id", "ts", "user_id"])
    got = stay_points(rd.from_pandas(ev).repartition(4)).to_pandas()
    want = reference(ev)
    key = ["user_id", "start_event_id"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_single_event_users_and_no_stays():
    # craft ids whose geocodes are far apart (sel >= 3 scatter branch)
    ev = pd.DataFrame({
        "event_id": [3, 13, 23, 33],
        "user_id": [1, 1, 2, 3],
        "ts": pd.to_datetime(["2024-01-01", "2024-01-02",
                              "2024-01-01", "2024-01-01"]),
    })
    got = stay_points(rd.from_pandas(ev)).to_pandas()
    want = reference(ev)
    assert len(got) == len(want)


def test_od_matrix_conserves_transitions():
    import pandas as pd

    from geoflow.stages.geocode import od_matrix

    rng = np.random.default_rng(21)
    n = 300
    eid = np.arange(n, dtype=np.int64)
    uid = rng.integers(0, 20, n).astype(np.int64)
    ts = pd.to_datetime(rng.integers(0, 5000, n), unit="s")
    ds = rd.from_arrow(pa.table({
        "event_id": pa.array(eid), "user_id": pa.array(uid),
        "ts": pa.array(ts)})).repartition(4)
    got = od_matrix(ds, res=6, num_buckets=8).to_pandas()
    n_users = len(np.unique(uid))
    assert got["n_moves"].sum() == n - n_users  # one leg per event, minus firsts
    assert (got["n_moves"] > 0).all()
