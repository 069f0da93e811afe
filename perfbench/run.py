"""geoflow benchmark: four seeded one-core workloads, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the repository root; it reads and writes only inside the
checkout (inputs, Ray's session files and traces go under ``.perfbench/``
and ``.rt/``). Workload sizes, the Ray session settings and the layers
each workload loads are in ``perfbench/spec.json``.

``--trace 0`` prints the end-to-end metrics: ``rows_per_s`` (input rows
per second of the median timed pass), ``setup_s`` (process start to the
first timed pass, minus one-time input generation: the median of
``setup_repeats`` cold setups, each a fresh Ray session + input open +
warm-up pass) and ``peak_rss_mb`` (peak resident memory of the driver
plus its Ray workers during the timed passes). Failed passes (exception,
timeout, or output differing from the reference) are counted in
``failed`` against ``attempted``.

``--trace 1`` alternates untraced and traced passes, then runs the
kernel probe, prints the per-layer metrics and writes every span, the
operator stats and the counts to ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# import this directory's modules as the ``perfbench`` package only
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.curdir) != HERE]
STATE = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0          # the whole run must end within 180 s
STOP_RESERVE_S = 15.0        # kept free for shutting the session down
SOCKET_PATH_MAX = 107        # AF_UNIX limit Ray checks its socket paths against
SESSION_SUFFIX = 62          # "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _geoflow_importable() -> bool:
    if not os.path.isfile(os.path.join(ROOT, "geoflow", "__init__.py")):
        _log(f"no geoflow package under {ROOT}: run from a full checkout")
        return False
    sys.path.insert(0, ROOT)
    try:
        import geoflow
    except ImportError as exc:
        _log(f"cannot import geoflow: {exc}")
        return False
    return os.path.dirname(os.path.abspath(geoflow.__file__)) == \
        os.path.join(ROOT, "geoflow")


class Session:
    """One local Ray session; ``stop`` shuts it down and waits for every
    process it started to end."""

    def __init__(self, cfg: dict):
        import ray
        from ray.data import DataContext

        kwargs = {}
        temp = os.path.join(ROOT, ".rt")
        if len(temp) + SESSION_SUFFIX <= SOCKET_PATH_MAX:
            os.makedirs(temp, exist_ok=True)
            kwargs["_temp_dir"] = temp
        else:
            _log("checkout path too long for Ray's socket files; "
                 "using Ray's default temp dir")
        ray.init(address="local", num_cpus=cfg["num_cpus"],
                 object_store_memory=cfg["object_store_mb"] << 20,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, **kwargs)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def stop(self) -> None:
        import ray

        from perfbench.tracing import descendants, stop_tree

        pids = descendants()
        ray.shutdown()
        stop_tree(pids)


class Wedged(Exception):
    """A pass timed out; the session may still hold its slots."""


class Tally:
    """Attempted and failed passes; a pass may not run past ``end_at``."""

    def __init__(self, timeout: float, end_at: float | None = None):
        self.timeout = timeout
        self.end_at = (_START + RUN_LIMIT_S - STOP_RESERVE_S
                       if end_at is None else end_at)
        self.attempted = 0
        self.failed = 0

    def run(self, fn, check):
        """One pass with timeout and check; returns (seconds, output) or
        None when the pass failed."""
        from perfbench.tracing import PassTimeout, deadline

        remaining = self.end_at - time.perf_counter()
        if remaining <= 1.0:
            raise Wedged("run time limit reached")
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with deadline(min(self.timeout, remaining)):
                out = fn()
            dt = time.perf_counter() - t0
            problems = check(out)
        except PassTimeout as exc:
            self.failed += 1
            _log(f"pass {self.attempted}: {exc}")
            raise Wedged(str(exc)) from None
        except Exception:
            self.failed += 1
            _log(f"pass {self.attempted} raised:\n{traceback.format_exc()}")
            return None
        if problems:
            self.failed += 1
            _log(f"pass {self.attempted} wrong: {'; '.join(problems[:5])}")
            return None
        return dt, out


def _import_layers() -> None:
    """Import every geoflow module the workloads use, so each setup
    repeat pays the same (session) costs."""
    import geoflow.functions.agg  # noqa: F401
    import geoflow.oracle.eval  # noqa: F401
    import geoflow.pipelines.flagship  # noqa: F401
    import geoflow.pipelines.rank  # noqa: F401
    import geoflow.stages.knn  # noqa: F401
    import geoflow.stages.pip_join  # noqa: F401
    import geoflow.stages.zonal  # noqa: F401
    import geoflow.state.lineage  # noqa: F401


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.inputs import cache_entry
    from perfbench.tracing import PeakRss
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    scfg, cfg = spec["session"], spec["workloads"][name]
    work_dir = os.path.join(STATE, "work", name)
    os.makedirs(work_dir, exist_ok=True)
    wl = WORKLOADS[name](cfg, work_dir)
    _import_layers()

    t0 = time.perf_counter()
    entry, built_s = cache_entry(os.path.join(STATE, "cache"), name, seed,
                                 cfg["sizes"], lambda d: wl.build(d, seed))
    gen_s = time.perf_counter() - t0
    _log(f"{name} seed {seed}: inputs {'built in %.2f s' % built_s if built_s else 'cached'}")
    pre_s = time.perf_counter() - _START - gen_s

    tally = Tally(scfg["pass_timeout_s"])
    rss = PeakRss()
    session = None
    setups, plain, traced, traced_ids = [], [], [], []
    tracer = probe_counts = None
    try:
        for i in range(1 if trace else scfg["setup_repeats"]):
            if session is not None:
                session.stop()
            t = time.perf_counter()
            session = Session(scfg)
            wl.open(entry)
            tally.run(wl.run_pass, wl.check)               # warm-up pass
            setups.append(time.perf_counter() - t)
        end = time.perf_counter() + seconds
        if not trace:
            with rss.active():
                while True:
                    r = tally.run(wl.run_pass, wl.check)
                    if r:
                        plain.append(r[0])
                    if time.perf_counter() >= end:
                        break
        else:
            from perfbench.probe import kernel_probe
            from perfbench.tracing import Tracer

            tracer = Tracer()

            def traced_pass():
                with tracer.span("pass"):
                    return wl.traced_pass(tracer)

            i = 0
            while True:
                r = tally.run(wl.run_pass, wl.check)
                if r:
                    plain.append(r[0])
                tracer.pass_id = i
                r = tally.run(traced_pass, wl.check)
                if r:
                    traced.append(r[0])
                    traced_ids.append(i)
                    wl.after_trace(tracer)
                i += 1
                if time.perf_counter() >= end:
                    break
            tracer.pass_id = "extra"
            with tracer.span("extra"):
                tally.run(lambda: wl.trace_extra(tracer), lambda p: p)
            tracer.pass_id = "probe"
            with tracer.span("probe"):
                probe_counts = kernel_probe(tracer, work_dir)
    except Wedged as exc:
        _log(f"stopping early: {exc}")
    finally:
        if session is not None:
            session.stop()
        rss.close()

    good = plain if not trace else traced
    result = {"correct": tally.failed == 0 and bool(good),
              "attempted": max(1, tally.attempted), "failed": tally.failed}
    rows_per_s = wl.rows / _median(plain) if plain else 0.0
    if not trace:
        result["metrics"] = {
            "rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
            "setup_s": {"value": pre_s + _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss.peak / 2**20, "unit": "MB"},
        }
        _log(f"{name}: passes {[round(p, 3) for p in plain]} s, "
             f"setups {[round(s, 2) for s in setups]} s, pre {pre_s:.2f} s")
        return result
    from perfbench.report import layer_metrics, write_trace

    metrics = {}
    if tracer is not None and traced_ids and probe_counts is not None:
        metrics = layer_metrics(tracer, traced_ids, wl.counts, probe_counts,
                                plain, traced)
        path = write_trace(os.path.join(STATE, "traces"), name, seed, tracer,
                           wl.counts, probe_counts, metrics)
        _log(f"trace written to {path}")
    else:
        result["correct"] = False
    result["metrics"] = metrics
    return result


def run_all(seed: int, seconds: float, trace: int) -> dict:
    with open(os.path.join(HERE, "spec.json")) as f:
        names = list(json.load(f)["workloads"])
    out = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        out[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines \
            else {"correct": False, "returncode": proc.returncode}
        for line in lines[:-1]:
            print(line)
    return out


def _print_metrics(name: str, result: dict) -> None:
    for metric, v in result.get("metrics", {}).items():
        print(f"{name:<20} {metric:<32} {v['value']:>16.6g} {v['unit']}")
    print(f"{name:<20} {'failed_frac':<32} "
          f"{result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']}/{result['attempted']} passes)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _geoflow_importable():
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.trace)
        for name, res in results.items():
            if "metrics" in res:
                _print_metrics(name, res)
        print(json.dumps(results))
        return 0 if all(r.get("correct") for r in results.values()) else 1
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from "
             f"{sorted(WORKLOADS)} or all")
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    _print_metrics(args.workload, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
