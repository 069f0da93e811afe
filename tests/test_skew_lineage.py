import json
import os

import numpy as np
import pandas as pd
import pytest

from geoflow.pipelines.flagship import enrich_pages, zonal_page_stats
from geoflow.sources.pages import pages_dataset
from geoflow.stages import skew
from geoflow.state import lineage


def _enriched(n=3000, res=None):
    kwargs = {} if res is None else {"cell_res": res}
    return enrich_pages(pages_dataset(n, override_num_blocks=8), **kwargs)


def test_salted_agg_matches_plain(ray_session):
    ds = _enriched().materialize()
    salted = skew.salted_grouped_count_sum(
        ds, "cell", ["n_chars"], num_salts=8, count_alias="n").to_pandas()
    plain = (ds.to_pandas().groupby("cell")
             .agg(n=("url", "size"), n_chars_sum=("n_chars", "sum"))
             .reset_index())
    m = salted.merge(plain, on="cell", suffixes=("", "_exp"))
    assert len(m) == len(plain) == len(salted)
    assert (m["n"] == m["n_exp"]).all()
    assert (m["n_chars_sum"] == m["n_chars_sum_exp"]).all()


def test_split_cell_rebalance(ray_session):
    # coarse cells (res 8 ~ 1.4 deg) concentrate each hot cluster into
    # one cell, so the Zipf skew actually exceeds the cap
    ds = _enriched(4000, res=8).materialize()
    cap = 50
    out, plan, _ = skew.rebalanced_cells(ds, cap, max_rounds=1)
    assert plan, "hot clusters must trigger splits"
    df = out.to_pandas()
    eff_counts = df.groupby("effective_cell").size()
    before = df.groupby("cell").size()
    # splitting strictly reduces the worst group
    assert eff_counts.max() < before.max()
    # non-hot cells unchanged
    cold = before[before <= cap].index
    assert set(cold) <= set(df[df["cell"].isin(cold)]["effective_cell"])
    # every split row's effective cell is a descendant of its cell
    hot_rows = df[df["cell"].isin(plan.keys())]
    from geoflow.stages import cells as cellmod
    eff = hot_rows["effective_cell"].to_numpy().astype(np.uint64)
    orig = hot_rows["cell"].to_numpy().astype(np.uint64)
    orig_res = cellmod.cell_res(orig)
    for r in np.unique(orig_res):
        sel = orig_res == r
        parents = cellmod.cell_parent(eff[sel], int(r))
        assert np.array_equal(parents, orig[sel])


def test_flagship_checkpointed_resume(ray_session, tmp_path):
    import ray.data as rd
    from geoflow.pipelines.flagship import run_flagship_checkpointed

    pages_dir = str(tmp_path / "pages")
    pages_dataset(600, override_num_blocks=4).write_parquet(pages_dir)
    work = str(tmp_path / "work")

    r1 = run_flagship_checkpointed(pages_dir, work, shards=4)
    assert len(r1["enrich"]["processed"]) >= 1   # shard count = files found
    assert r1["dedup"]["processed"] == ["all"]
    zonal = rd.read_parquet(r1["zonal_dir"]).to_pandas()
    assert len(zonal) > 0 and zonal["n_pages"].sum() == r1["dedup"]["rows"]

    # full resume: every stage skips
    r2 = run_flagship_checkpointed(pages_dir, work, shards=4)
    assert not r2["enrich"]["processed"]
    assert r2["dedup"]["skipped"] == ["all"]
    assert r2["zonal"]["skipped"] == ["all"]

    # zonal output matches the non-checkpointed pipeline
    direct = zonal_page_stats(
        flagship_dedup(enrich_pages(pages_dataset(600, override_num_blocks=4)))
    ).to_pandas()
    m = zonal.merge(direct, on="zone", suffixes=("", "_d"))
    assert len(m) == len(direct) == len(zonal)
    assert (m["n_pages"] == m["n_pages_d"]).all()


from geoflow.pipelines.flagship import dedup_exact as flagship_dedup


def test_lineage_resume(ray_session, tmp_path):
    import ray.data as rd

    src = tmp_path / "input"
    src.mkdir()
    for i in range(4):
        pd.DataFrame({"x": np.arange(10) + i * 10}).to_parquet(
            src / f"f{i}.parquet")

    parts = lineage.input_partitions_from_dir(str(src), shards=2)
    assert len(parts) == 2
    calls = []

    def pipeline(ds):
        calls.append(1)
        return ds.map_batches(lambda b: b, batch_format="pyarrow")

    out_dir = str(tmp_path / "stage1")
    r1 = lineage.run_partitioned_stage("stage1", out_dir, parts, pipeline)
    assert sorted(r1["processed"]) == sorted(parts) and not r1["skipped"]
    assert r1["rows"] == 40
    n_calls = len(calls)

    # resume: nothing re-runs
    r2 = lineage.run_partitioned_stage("stage1", out_dir, parts, pipeline)
    assert not r2["processed"] and sorted(r2["skipped"]) == sorted(parts)
    assert len(calls) == n_calls

    # invalidate one partition's input -> only it re-runs
    f0 = src / "f0.parquet"
    pd.DataFrame({"x": np.arange(12)}).to_parquet(f0)
    os.utime(f0, (1e9, 1e9))
    r3 = lineage.run_partitioned_stage("stage1", out_dir, parts, pipeline)
    assert len(r3["processed"]) == 1 and len(r3["skipped"]) == 1

    # manifest carries lineage records
    with open(os.path.join(out_dir, lineage.MANIFEST)) as f:
        recs = [json.loads(l) for l in f if l.strip()]
    assert all({"partition", "stage", "input_digest", "row_count",
                "wall_ms"} <= set(r) for r in recs)


def test_resume_reads_manifest_once(tmp_path, monkeypatch):
    """A StageRun parses its manifest once: recorded partitions are done
    without a re-read, and resuming N finished partitions is one parse,
    not one per partition."""
    reads = []
    real = lineage.StageRun.completed
    monkeypatch.setattr(lineage.StageRun, "completed",
                        lambda self: reads.append(1) or real(self))

    parts = {}
    run = lineage.StageRun("stage1", str(tmp_path / "out"))
    for i in range(12):
        f = tmp_path / f"f{i}.parquet"
        f.write_bytes(b"x" * i)
        pid = f"{i:04d}"
        parts[pid] = [str(f)]
        os.makedirs(run.partition_dir(pid))
        run.record(pid, lineage.partition_digest([str(f)]), i, 1.0)
    assert all(run.is_done(pid, lineage.partition_digest(paths))
               for pid, paths in parts.items())
    assert len(reads) == 1

    def pipeline(ds):
        raise AssertionError("a finished partition was re-run")

    r = lineage.run_partitioned_stage("stage1", str(tmp_path / "out"),
                                      parts, pipeline)
    assert sorted(r["skipped"]) == sorted(parts) and not r["processed"]
    assert len(reads) == 2


def test_partition_digest_sees_same_second_rewrite(tmp_path):
    """A same-size rewrite of an input inside one wall-clock second must
    change the digest; otherwise resume skips it and keeps stale output."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    def write(x):       # plain, uncompressed: equal size for any values
        pq.write_table(pa.table({"x": x}), f, compression="none",
                       use_dictionary=False, write_statistics=False)

    f = tmp_path / "f.parquet"
    second_ns = 1_700_000_000 * 10**9
    write(np.arange(100))
    os.utime(f, ns=(second_ns + 100_000_000,) * 2)
    size, before = f.stat().st_size, lineage.partition_digest([str(f)])

    write(np.arange(100) + 7)
    os.utime(f, ns=(second_ns + 600_000_000,) * 2)
    assert f.stat().st_size == size
    assert lineage.partition_digest([str(f)]) != before


def test_iterative_rebalance_bounds_concentrated_cluster(ray_session):
    """A point cluster much smaller than the child cell defeats the
    one-round split (everything lands in one child); the iterative
    rebalance must still reach groups <= cap."""
    import pyarrow as pa
    import ray.data as rd
    from geoflow.stages import cells as cellmod
    from geoflow.stages.skew import rebalanced_cells

    rng = np.random.default_rng(6)
    # 2000 points inside a 0.2-degree disc: a res-5 cell is ~11 degrees
    lat = 40.0 + rng.uniform(-0.1, 0.1, 2000)
    lon = -70.0 + rng.uniform(-0.1, 0.1, 2000)
    cell = cellmod.cell_id(lat, lon, 5).astype(np.int64)
    ds = rd.from_arrow(pa.table({
        "cell": pa.array(cell, pa.int64()),
        "lat": pa.array(lat), "lon": pa.array(lon)}))

    one_round, plan1, _ = rebalanced_cells(ds, cap=50, max_rounds=1)
    df1 = one_round.to_pandas()
    assert df1.groupby("effective_cell").size().max() > 50  # defeated

    eff, plan, rounds = rebalanced_cells(ds, cap=50)
    df = eff.to_pandas()
    sizes = df.groupby("effective_cell").size()
    assert sizes.max() <= 50
    assert rounds >= 2
    assert len(df) == 2000                    # no rows lost
    # every effective cell is a descendant of the original hot cell
    res = cellmod.cell_res(df["effective_cell"].to_numpy().astype(np.uint64))
    assert (res >= 5).all()
