"""Event-time windows over the ordered-log model (events table).

Ray Data has no native event-time windowing (ray_guide "Streaming-shaped
workloads"); windows are expressed as groupbys over derived window keys
(tumbling/sliding — pure column arithmetic, perfectly parallel) or as
per-key ``map_groups`` over ts-sorted groups (session windows, which
need gap detection and therefore ordering within the key).

All three are deterministic: ties on ts are broken by event_id, and the
SQL-oracle formulations in the query suite replay the same semantics
with window functions (gaps-and-islands for sessions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _ts_us(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype("datetime64[us]").view("int64")


def tumbling_window_key(batch: pa.Table, ts_col: str = "ts",
                        width_s: int = 3600,
                        out_col: str = "window_start") -> pa.Table:
    us = _ts_us(batch.column(ts_col))
    key = us // (width_s * 1_000_000)
    return batch.append_column(out_col, pa.array(key, pa.int64()))


def sliding_window_explode(batch: pa.Table, ts_col: str = "ts",
                           width_s: int = 3600, step_s: int = 900) -> pa.Table:
    """Each event joins every window containing it (width/step copies)."""
    if width_s % step_s:
        raise ValueError("width must be a multiple of step")
    k = width_s // step_s
    us = _ts_us(batch.column(ts_col))
    base = us // (step_s * 1_000_000)
    parts = []
    for j in range(k):
        t = batch.append_column("window_id",
                                pa.array(base - j, pa.int64()))
        parts.append(t)
    return pa.concat_tables(parts)


def session_windows(events_ds, gap_s: int = 1800,
                    key_col: str = "user_id", ts_col: str = "ts",
                    value_col: str = "value"):
    """Per-key session windows (gap > gap_s starts a new session).

    -> rows (key, session_id (1-based in ts order), n_events,
    session_start, session_end, value_sum). groupby(key).map_groups over
    ts-sorted groups; user counts are bounded, so groups stay small.
    """
    gap_us = gap_s * 1_000_000

    def _sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col, "event_id"])
        us = g[ts_col].to_numpy().astype("datetime64[us]").view("int64")
        new_session = np.ones(len(g), dtype=np.int64)
        new_session[1:] = (np.diff(us) > gap_us).astype(np.int64)
        sid = np.cumsum(new_session)
        g = g.assign(session_id=sid)
        out = g.groupby("session_id").agg(
            n_events=("event_id", "size"),
            session_start=(ts_col, "min"),
            session_end=(ts_col, "max"),
            value_sum=(value_col, "sum"),
        ).reset_index()
        out.insert(0, key_col, g[key_col].iloc[0])
        return out

    return events_ds.groupby(key_col).map_groups(
        _sessions, batch_format="pandas")


def lag_delta(events_ds, key_col: str = "user_id", ts_col: str = "ts",
              id_col: str = "event_id", value_col: str = "value",
              num_buckets: int = 64):
    """Analytic window function LAG: per key, ordered by (ts, id), the
    delta of the scaled-integer value vs the previous row — rows with no
    predecessor are dropped (SQL ``WHERE lag(...) IS NOT NULL``).

    Distributed with the engine's one-shuffle bucket pattern: keys hash
    into ``num_buckets`` groups (ALL rows of one key co-locate), each
    group sorts once and computes every key's diffs in two vectorized
    passes (mergesort + groupby.diff). Values ride as exact integers
    (round(value * 100)) so the oracle replay has no float-tie risk.

    Output: (event_id, user_id/key, delta_e2:int64).
    """
    from ..functions.joins import _mix_cols

    def _prep(b: pa.Table) -> pa.Table:
        v = np.round(b.column(value_col).to_numpy() * 100).astype(np.int64)
        keys = b.column(key_col).to_numpy().astype(np.int64)
        gb = (_mix_cols(keys) % np.uint64(num_buckets)).astype(np.int32)
        return pa.table({
            id_col: pa.array(b.column(id_col).to_numpy().astype(np.int64),
                             pa.int64()),
            key_col: pa.array(keys, pa.int64()),
            "_ts": pa.array(_ts_us(b.column(ts_col)), pa.int64()),
            "_v_e2": pa.array(v, pa.int64()),
            "_gb": pa.array(gb),
        })

    def _delta(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "_ts", id_col], kind="mergesort")
        prev = g.groupby(key_col, sort=False)["_v_e2"].shift(1)
        keep = prev.notna()
        return pd.DataFrame({
            id_col: g.loc[keep, id_col].to_numpy(),
            key_col: g.loc[keep, key_col].to_numpy(),
            "delta_e2": (g.loc[keep, "_v_e2"]
                         - prev[keep]).astype(np.int64).to_numpy(),
        })

    return events_ds.map_batches(_prep, batch_format="pyarrow") \
        .groupby("_gb").map_groups(_delta, batch_format="pandas")


def resample_ffill(events_ds, key_col: str = "user_id",
                   ts_col: str = "ts", value_col: str = "value",
                   step_us: int = 86_400_000_000,
                   num_buckets: int = 32):
    """Regular-grid resample with forward fill (last observation
    carried forward): per key, one grid point at every multiple of
    ``step_us`` strictly after the key's first event and at or before
    its last, valued by the latest event at-or-before the grid point
    (ties on ts broken by highest event_id, matching the SQL window
    rank's ts DESC, event_id DESC).

    Rows (key, step index, last_value). One hash-bucket shuffle, then
    per bucket the grid is materialized arithmetically (cumsum-offset
    arange — no per-key Python) and filled by ONE backward merge_asof.
    Grid size is (span / step) per key — choose step so key-grids stay
    bounded; events never leave their bucket.
    """
    import pandas as pd

    from ..functions.joins import _mix64

    def _bucket(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).to_numpy().astype(np.int64)
        return b.append_column(
            "_b", pa.array((_mix64(keys) % np.uint64(num_buckets))
                           .astype(np.int32)))

    def _fill(g: pd.DataFrame) -> pd.DataFrame:
        us = g[ts_col].to_numpy().astype("datetime64[us]").view("int64")
        ev = pd.DataFrame({key_col: g[key_col].to_numpy(), "_t": us,
                           "_v": g[value_col].to_numpy(),
                           "_e": g["event_id"].to_numpy()})
        ev = ev.sort_values([key_col, "_t", "_e"],
                            kind="stable")
        b = ev.groupby(key_col, as_index=False).agg(
            mn=("_t", "min"), mx=("_t", "max"))
        d0 = b["mn"].to_numpy() // step_us + 1
        dn = b["mx"].to_numpy() // step_us
        cnt = np.maximum(dn - d0 + 1, 0)
        if cnt.sum() == 0:
            return pd.DataFrame({key_col: np.array([], np.int64),
                                 "step": np.array([], np.int64),
                                 "last_value": np.array([], np.float64)})
        keys_rep = np.repeat(b[key_col].to_numpy(), cnt)
        offs = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        day = (np.arange(cnt.sum()) - np.repeat(offs, cnt)
               + np.repeat(d0, cnt))
        grid = pd.DataFrame({key_col: keys_rep, "_gt": day * step_us,
                             "step": day}).sort_values("_gt",
                                                       kind="stable")
        ev2 = ev.sort_values(["_t", "_e"], kind="stable")
        m = pd.merge_asof(grid, ev2[[key_col, "_t", "_v"]],
                          left_on="_gt", right_on="_t", by=key_col,
                          direction="backward",
                          allow_exact_matches=True)
        out = pd.DataFrame({key_col: m[key_col].astype(np.int64),
                            "step": m["step"].astype(np.int64),
                            "last_value": m["_v"].astype(np.float64)})
        return out.reset_index(drop=True)

    return (events_ds.map_batches(_bucket, batch_format="pyarrow")
            .groupby("_b").map_groups(_fill, batch_format="pandas"))


def retention_cohorts(events_ds, num_buckets: int = 32):
    """Cohort retention analysis — THE standard product-analytics
    rollup: cohort a user by their first active day, then count how
    many of each cohort's users are active again N days later.
    Output: (cohort_day, offset_days, n_users), n_users = exact
    DISTINCT users of cohort ``cohort_day`` active at day
    cohort_day + offset_days (offset 0 row = cohort size).

    Distribution shape: per-batch (user, day) dedup slims the stream
    to at most one row per user-day per batch, then ONE user-keyed
    bucket shuffle (splitmix64(user) % B) co-locates each user's days;
    the per-bucket pass dedups exactly, takes per-user min via one
    sort + cummin-free grouped transform, and pre-counts
    (cohort, offset) locally. Users are disjoint across buckets, so
    the final tiny groupby SUM of the per-bucket counts is the exact
    distinct-user count — the classic count-distinct-via-ownership
    plan (no distinct aggregate ever runs on the wide stream).

    SCALE: the shuffle carries (bucket, user, day) int64 triples
    (~24 B per user-day, already batch-deduped); the final combine's
    key space is O(active-day span^2 / 2) — tiny. Hot users cost one
    extra row per active day, bounded by the calendar, not the corpus.
    """
    from ..functions.agg import grouped_count_sum
    from ..functions.joins import _mix64

    def _tag(b: pa.Table) -> pa.Table:
        uid = b.column("user_id").to_numpy().astype(np.int64)
        day = (b.column("ts").to_numpy().view("int64")
               // 86_400_000_000).astype(np.int64)
        key = np.stack([uid, day], axis=1)
        key = np.unique(key, axis=0)          # batch-local dedup
        uid, day = key[:, 0], key[:, 1]
        return pa.table({
            "_b": pa.array((_mix64(uid) % np.uint64(num_buckets))
                           .astype(np.int64)),
            "user_id": pa.array(uid),
            "day": pa.array(day),
        })

    def _cohort(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["user_id", "day"])
        cohort = df.groupby("user_id")["day"].transform("min")
        out = pd.DataFrame({
            "cohort_day": cohort.to_numpy(),
            "offset_days": df["day"].to_numpy() - cohort.to_numpy(),
        })
        cnt = (out.groupby(["cohort_day", "offset_days"], sort=False)
               .size().reset_index(name="u"))
        cnt["u"] = cnt["u"].astype(np.int64)
        return cnt

    parts = (events_ds.map_batches(_tag, batch_format="pyarrow")
             .groupby("_b").map_groups(_cohort, batch_format="pandas"))
    agg = grouped_count_sum(parts, ["cohort_day", "offset_days"], ["u"])
    return agg.map_batches(
        lambda b: pa.table({
            "cohort_day": b.column("cohort_day"),
            "offset_days": b.column("offset_days"),
            "n_users": pa.compute.cast(b.column("u_sum"), pa.int64()),
        }), batch_format="pyarrow")
