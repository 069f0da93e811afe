"""Benchmark harness (driver contract).

Default: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) in one Ray session with
``num_cpus = int($RAY_GRAFT_CPUS or 32)`` and prints ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
     "pages_rows": N, "pages_rows_per_sec": N}

Headline = the flagship web-page pipeline (read cached Parquet pages ->
extract+verify -> geocode -> cell -> exact dedup -> zonal aggregate).
Inputs are synthesized deterministically ONCE into /tmp caches (pages
from the north-rule ``input_hint`` schema; a tiled multiband raster for
the correction pipeline) so timed runs measure pipeline compute, not
input generation, and both ``--scaling`` levels see identical bytes.

``--scaling``: runs this script twice in FRESH processes
(RAY_GRAFT_CPUS=8 then 32), reports both throughputs and the scaling
efficiency (rows/s at 32) / (4 x rows/s at 8) — the sandbox evidence for
the north rule's N -> 4N criterion (BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CACHE_ROOT = "/tmp/geoflow_bench/v7"
PAGES_PER_DOC = 384         # pages table = documents x this factor
                            # (sized so the 32-CPU flagship runs >20 s:
                            # at shorter walls Ray's fixed scheduling/
                            # shuffle-setup costs dominate the wide level
                            # and the scaling ratio measures overhead,
                            # not compute)
BODY_REPEATS = 6            # paragraph inflation: realistic page sizes
RASTER_SIZE = 1024          # bench raster: RASTER_SIZE^2 px x 4 bands


def _sf_token(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir)) or "sf"


def ensure_pages_cache(sf_dir: str) -> tuple[str, int]:
    """Deterministic pages parquet derived from the sf documents table.

    Each document is lifted to the pages schema under PAGES_PER_DOC
    distinct urls (deterministic content tweak per replica), so the
    pages table scales with sf and contains exact duplicates for dedup.
    """
    import pyarrow as pa
    import ray.data as rd

    from geoflow.sources.pages import _BASE_TS_US, page_url
    from geoflow.stages.extract import extract_text

    path = f"{CACHE_ROOT}/pages_{_sf_token(sf_dir)}"
    marker = f"{path}/_DONE"
    if os.path.exists(marker):
        with open(marker) as f:
            return path, int(f.read().strip())

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])

    def _expand(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy()
        texts = b.column("text").to_pylist()
        langs = b.column("lang").to_pylist()
        urls, htmls, outs, outl, ts = [], [], [], [], []
        for i, body, lang in zip(ids.tolist(), texts, langs):
            lines = [ln for ln in (body or "").split("\n") if ln.strip()]
            paras = "".join(f"<p>{ln} (rev {k})</p>"
                            for k in range(BODY_REPEATS) for ln in lines)
            for r in range(PAGES_PER_DOC):
                gid = i * PAGES_PER_DOC + r
                # every 5th replica is an exact dup of replica 0's content
                tag = 0 if r % 5 == 0 else r
                h = (f"<!DOCTYPE html><html><head><title>doc {i} v{tag}"
                     f"</title><script>var x={tag};</script></head>"
                     f"<body><h1>Document {i} rev {tag}</h1>"
                     f"<!-- noise -->{paras}<footer>&copy; 2025</footer>"
                     "</body></html>").encode()
                urls.append(page_url(gid))
                htmls.append(h)
                outs.append(extract_text(h))
                outl.append(lang)
                ts.append(_BASE_TS_US + gid * 137_000_000)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(outs, pa.string()),
            "lang": pa.array(outl, pa.string()),
        })

    pages = docs.map_batches(_expand, batch_format="pyarrow", batch_size=64)
    tmp = path + ".tmp"
    subprocess.run(["rm", "-rf", tmp, path], check=True)
    # deterministic row shuffle -> 128 byte-balanced files: doc-contiguous
    # layout left one file 5x the mean (long docs cluster), and that file's
    # read+extract task was the straggler bounding the whole wide level;
    # 128 files ALSO lets the bench read use override_num_blocks == file
    # count — Ray's fast whole-file scan path (its block-splitting scan
    # measured 3x the decode CPU of one-task-per-file)
    pages.random_shuffle(seed=0).repartition(128).write_parquet(tmp)
    n = rd.read_parquet(tmp).count()
    os.rename(tmp, path)
    with open(marker, "w") as f:
        f.write(str(n))
    return path, n


def ensure_raster_cache() -> str:
    """Deterministic bench raster (tile table parquet)."""
    import ray.data as rd

    from geoflow.sources import tiles as tsrc

    path = f"{CACHE_ROOT}/raster_{RASTER_SIZE}"
    if os.path.exists(f"{path}/_DONE"):
        return path
    dem = tsrc.synth_dem(RASTER_SIZE, RASTER_SIZE, seed=42)
    bands = tsrc.synth_bands(dem, 4, seed=42)
    table = tsrc.raster_to_tile_table(bands, dem, tile=256)
    tmp = path + ".tmp"
    subprocess.run(["rm", "-rf", tmp, path], check=True)
    rd.from_arrow(table).repartition(32).write_parquet(tmp)
    os.rename(tmp, path)
    with open(f"{path}/_DONE", "w") as f:
        f.write("ok")
    return path


def bench_flagship(pages_path: str) -> float:
    import ray.data as rd

    from geoflow.pipelines.flagship import (dedup_exact, enrich_pages,
                                            zonal_page_stats)

    t0 = time.time()
    # CPU-independent 128 blocks == cache file count: identical across
    # parallelism levels (scaling compares compute, not partitioning),
    # one whole file per read task (Ray's fast scan path), byte-balanced
    # by the cache build's row shuffle so no read/extract straggler
    pages = rd.read_parquet(pages_path, override_num_blocks=128)
    zonal = zonal_page_stats(
        dedup_exact(enrich_pages(pages, slim=True))).to_pandas()
    assert len(zonal) > 0
    return time.time() - t0


def bench_corrections(raster_path: str) -> float:
    import ray.data as rd

    from geoflow.pipelines.correction import run_all_corrections

    t0 = time.time()
    tiles = rd.read_parquet(raster_path)
    out, _ = run_all_corrections(
        tiles, names=["COSINE-T", "C-correction", "SCS+C", "Minnaert", "VECA"])
    # consume: small grouped reduction per corrected dataset
    for name, ds in out.items():
        assert ds.count() > 0
    return time.time() - t0


def bench_queries(sf_dir: str) -> dict[str, float]:
    from geoflow.pipelines.queries import QUERIES

    names = ["dedup_exact_docs", "geo_zonal_docs", "nearest_site_docs"]
    times = {}
    for name in names:
        t0 = time.time()
        res = QUERIES[name](sf_dir)
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        times[name] = round(time.time() - t0, 3)
    return times


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # push-based sort shuffle: measured ~25% lower all-to-all fixed cost
    # than the pull-based default on the dedup groupby at this scale
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    pages_path, n_pages = ensure_pages_cache(SF_DIR)
    raster_path = ensure_raster_cache()

    # untimed warmup: spin up the worker pool (python import cost per
    # worker process) and the OS page cache, so both scaling levels
    # measure pipeline compute rather than one-time process startup
    import ray.data as rd

    def _warm(b):
        import geoflow.pipelines.flagship  # noqa: F401  (worker imports)
        import geoflow.stages.corrections  # noqa: F401
        return b

    rd.range(NUM_CPUS * 8, override_num_blocks=NUM_CPUS * 8).map_batches(
        _warm, batch_size=1).count()
    rd.read_parquet(pages_path).count()

    t_flag = bench_flagship(pages_path)
    if os.environ.get("GRAFT_FLAGSHIP_ONLY"):
        # steady-state throughput: repeat in-session and keep the
        # fastest — run 1 still pays one-time costs (worker/actor spin
        # up for this specific stage chain) that a long-running cluster
        # job amortizes away. GRAFT_FLAGSHIP_REPEATS controls the
        # in-session repeat count (default 2 = one extra run); a higher
        # count tightens the min-estimator against host jitter on this
        # shared VM at the cost of a longer trial.
        # GRAFT_FLAGSHIP_SUM_PASSES=k (default 1) instead times k
        # CONSECUTIVE passes as one region and reports the per-pass
        # MEAN: at 32 CPUs a single pass is ~10 s, so ±2 s of shared-VM
        # jitter reads as 20-40% trial spread, while a ~45 s region
        # (k=4) absorbs it the same way the 8-CPU level's naturally
        # longer passes do. The mean-of-k estimator measures SUSTAINED
        # throughput (>= the min estimator), used symmetrically at both
        # scaling levels; the first in-session run stays untimed warmup.
        reps = max(1, int(os.environ.get("GRAFT_FLAGSHIP_REPEATS", "2")))
        passes = max(1, int(os.environ.get("GRAFT_FLAGSHIP_SUM_PASSES", "1")))
        if passes > 1:
            meas = []
            for _ in range(reps):
                meas.append(sum(bench_flagship(pages_path)
                                for _ in range(passes)) / passes)
            t_flag = min(meas)
        else:
            for _ in range(reps - 1):
                t_flag = min(t_flag, bench_flagship(pages_path))
        ray.shutdown()
        return {"metric": "flagship only", "value": round(t_flag, 3),
                "unit": "sec", "queries": {"flagship_pages": round(t_flag, 3)},
                "sf": _sf_token(SF_DIR), "num_cpus": NUM_CPUS,
                "pages_rows": n_pages,
                "pages_rows_per_sec": round(n_pages / t_flag, 1)}
    t_corr = bench_corrections(raster_path)
    queries = bench_queries(SF_DIR)
    queries["flagship_pages"] = round(t_flag, 3)
    queries["corrections_raster"] = round(t_corr, 3)

    headline = round(t_flag + t_corr + sum(
        v for k, v in queries.items()
        if k not in ("flagship_pages", "corrections_raster")), 3)
    result = {
        "metric": "geoflow headline pipelines (flagship pages + 5 corrections"
                  " + 8 queries) wall time",
        "value": headline,
        "unit": "sec",
        "queries": queries,
        "sf": _sf_token(SF_DIR),
        "num_cpus": NUM_CPUS,
        "pages_rows": n_pages,
        "pages_rows_per_sec": round(n_pages / t_flag, 1),
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Fresh processes at 8 and 32 CPUs on identical input (the sandbox
    evidence for the north rule's N -> 4N cluster criterion).

    - The 8-CPU level is pinned to 8 PHYSICAL cores with ``taskset``:
      ``ray.init(num_cpus=8)`` alone only throttles scheduling slots, so
      its 8 concurrent workers would burst across all 32 cores and
      inflate low-level throughput (measured: 22k rows/s unpinned vs
      ~17k pinned), understating true scaling efficiency.
    - Trials are INTERLEAVED (8, 32, 8, 32, ...) and each level keeps
      its fastest run: single-trial wall time on this shared VM varies
      ~30% and drifts over minutes, so running all of one level first
      would bias the comparison toward whichever ran in the quiet
      window.
    """
    import shutil
    import statistics

    have_taskset = shutil.which("taskset") is not None
    trials = int(os.environ.get("GRAFT_SCALING_TRIALS", "3"))

    def physical_core_pin(n: int) -> str | None:
        """First n DISTINCT physical cores from lscpu topology (cpus 0-7
        may be SMT siblings of 4 cores on hyperthreaded hosts, which
        would overstate the low level's hardware)."""
        try:
            out = subprocess.run(["lscpu", "-p=CPU,CORE"], check=True,
                                 capture_output=True, text=True).stdout
        except Exception:
            return "0-7"
        seen: dict[str, str] = {}
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            cpu, core = line.split(",")[:2]
            seen.setdefault(core, cpu)
        cpus = sorted(int(c) for c in list(seen.values())[:n])
        return ",".join(str(c) for c in cpus) if len(cpus) >= n else "0-7"

    def run_once(ncpu: int, pin: str | None, warm: bool = False) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=SF_DIR,
                   GRAFT_FLAGSHIP_ONLY="1")
        if warm:  # single in-session run is enough to warm caches
            env["GRAFT_FLAGSHIP_REPEATS"] = "1"
            env["GRAFT_FLAGSHIP_SUM_PASSES"] = "1"
        cmd = [sys.executable, os.path.abspath(__file__)]
        if pin and have_taskset:
            cmd = ["taskset", "-c", pin] + cmd
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        return json.loads(out.stdout.strip().splitlines()[-1])

    def faster(a: dict | None, b: dict) -> dict:
        if a is None or (b["queries"]["flagship_pages"]
                         < a["queries"]["flagship_pages"]):
            return b
        return a

    pin = physical_core_pin(8)
    lo = hi = None
    lo_times, hi_times = [], []
    # Untimed throwaway trial per level before the timed interleave:
    # the first minutes of a scaling session consistently measure
    # slower at BOTH levels (OS page cache for the 2 GB input, /dev/shm
    # object-store pages, VM frequency/credit ramp) — a decay that
    # otherwise lands entirely in the early timed trials and inflates
    # spread. GRAFT_SCALING_WARMUP=0 disables.
    if int(os.environ.get("GRAFT_SCALING_WARMUP", "1")):
        run_once(8, pin, warm=True)
        run_once(32, None, warm=True)
    for _ in range(trials):
        r = run_once(8, pin)
        lo_times.append(r["queries"]["flagship_pages"])
        lo = faster(lo, r)
        r = run_once(32, None)
        hi_times.append(r["queries"]["flagship_pages"])
        hi = faster(hi, r)
    tput_lo = lo["pages_rows"] / lo["queries"]["flagship_pages"]
    tput_hi = hi["pages_rows"] / hi["queries"]["flagship_pages"]
    eff = (tput_hi / tput_lo) / (32 / 8)
    med_lo = statistics.median(lo_times)
    med_hi = statistics.median(hi_times)
    eff_med = ((lo["pages_rows"] / med_hi)
               / (lo["pages_rows"] / med_lo)) / (32 / 8)
    # Paired per-trial efficiency: trial i's 8- and 32-CPU runs are
    # adjacent in time (interleaved), so a host-noise burst that slows
    # one slows both and CANCELS in the ratio — the spread of these is
    # the measurement's real stability, while raw trial-time spread
    # also absorbs whole-host bursts (observed: the same trial index
    # slow at BOTH levels).
    paired = [round((l / h) / (32 / 8), 3)
              for l, h in zip(lo_times, hi_times)]
    pmed = statistics.median(paired)
    return {
        "metric": "flagship throughput scaling 8 -> 32 CPUs",
        "rows": lo["pages_rows"],
        "sec_8cpu": lo["queries"]["flagship_pages"],
        "sec_32cpu": hi["queries"]["flagship_pages"],
        "sec_8cpu_median": round(med_lo, 3),
        "sec_32cpu_median": round(med_hi, 3),
        "rows_per_sec_8cpu": round(tput_lo, 1),
        "rows_per_sec_32cpu": round(tput_hi, 1),
        "scaling_efficiency": round(eff, 3),
        "scaling_efficiency_median": round(eff_med, 3),
        "paired_trial_efficiencies": paired,
        "paired_efficiency_median": round(pmed, 3),
        "paired_efficiency_spread": round(
            (max(paired) - min(paired)) / pmed, 3),
        "trials_8cpu": [round(t, 2) for t in lo_times],
        "trials_32cpu": [round(t, 2) for t in hi_times],
        "spread_8cpu": round((max(lo_times) - min(lo_times)) / med_lo, 3),
        "spread_32cpu": round((max(hi_times) - min(hi_times)) / med_hi, 3),
        "trials_per_level": trials,
        "repeats_per_trial": max(
            1, int(os.environ.get("GRAFT_FLAGSHIP_REPEATS", "2"))),
        "sum_passes_per_repeat": max(
            1, int(os.environ.get("GRAFT_FLAGSHIP_SUM_PASSES", "1"))),
        "warmup_trials": int(os.environ.get("GRAFT_SCALING_WARMUP", "1")),
        "low_level_core_pinned": have_taskset,
        "pin_set": pin if have_taskset else None,
        "sf": _sf_token(SF_DIR),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
