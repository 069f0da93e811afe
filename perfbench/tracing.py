"""In-memory spans, layer wrappers, Ray Data operator stats and process
memory, all observed from outside the geoflow package.

A span records ``name, start, end, parent, pass``. Spans nest on one
thread, so a span's self time is its duration minus the durations of its
direct children. Layers are traced by temporarily replacing a public
function on its module with a wrapper that opens a span, calls the
original and, when the result is a lazy ``ray.data.Dataset``,
materializes it inside the span (the layer boundary) and records the
operator stats of that execution.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import threading
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._seen_stats: set[int] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "pass": self.pass_id, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child[s["id"]] for s in self.spans]

    def busy(self, pass_ids) -> dict[str, float]:
        """Median over ``pass_ids`` of each span name's per-pass self time."""
        per = defaultdict(lambda: defaultdict(float))
        for s, t in zip(self.spans, self.self_times()):
            per[s["name"]][s["pass"]] += t
        return {name: statistics.median(by_pass.get(p, 0.0) for p in pass_ids)
                for name, by_pass in per.items()}

    def record_stats(self, layer: str, ds) -> None:
        """Operator stats of ``ds``'s executions not recorded before."""
        try:
            node = ds._plan.stats()
        except Exception:       # internal API: stats are best effort
            return
        todo = [node]
        while todo:
            st = todo.pop()
            todo.extend(st.parents or [])
            if id(st) in self._seen_stats:
                continue
            self._seen_stats.add(id(st))
            extra = st.extra_metrics or {}
            try:
                summaries = st.to_summary().operators_stats
            except Exception:
                summaries = []
            for op in summaries:
                self.ops.append({
                    "pass": self.pass_id, "layer": layer,
                    "op": op.operator_name,
                    "wall_s": (op.wall_time or {}).get("sum", 0.0),
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "rows": (op.output_num_rows or {}).get("sum", 0),
                    "bytes": (op.output_size_bytes or {}).get("sum", 0),
                })
            if summaries:
                self.ops[-1].update(
                    tasks=extra.get("num_tasks_finished", 0) or 0,
                    spilled=extra.get("obj_store_mem_spilled", 0) or 0,
                    obj_store_used=extra.get("obj_store_mem_used", 0) or 0)

    def op_rows(self, pass_id, layer: str, suffix: str) -> int:
        return sum(o["rows"] for o in self.ops
                   if o["pass"] == pass_id and o["layer"] == layer
                   and o["op"].endswith(suffix))


def _is_dataset(x) -> bool:
    from ray.data import Dataset

    return isinstance(x, Dataset)


@contextlib.contextmanager
def layers(tracer: Tracer, targets):
    """Wrap ``(module, attr, layer[, arg_layer])`` targets for the block.

    ``arg_layer`` materializes the first positional Dataset argument in
    its own span before the call: it traces a stage built inline by the
    caller and handed to the wrapped function.
    """
    saved = []
    for mod, attr, layer, *rest in targets:
        orig = getattr(mod, attr)
        saved.append((mod, attr, orig))
        setattr(mod, attr, _wrap(tracer, orig, layer,
                                 rest[0] if rest else None))
    try:
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _wrap(tracer: Tracer, fn, layer: str, arg_layer: str | None):
    def wrapper(*args, **kwargs):
        if arg_layer and args and _is_dataset(args[0]):
            with tracer.span(arg_layer):
                first = args[0].materialize()
                tracer.record_stats(arg_layer, first)
            args = (first,) + args[1:]
        with tracer.span(layer):
            out = fn(*args, **kwargs)
            if _is_dataset(out):
                out = out.materialize()
                tracer.record_stats(layer, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# Pass timeout
# ---------------------------------------------------------------------------

class PassTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise PassTimeout in the main thread after ``seconds``."""
    def _fire(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# Processes and memory (psutil is not available: read /proc)
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode(errors="replace")
    except OSError:
        return None


def _proc_table() -> dict[int, int]:
    """pid -> parent pid for every live process."""
    out = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            stat = _read(f"/proc/{d}/stat")
            if stat:
                # the command name may contain spaces: split after ')'
                fields = stat[stat.rfind(")") + 2:].split()
                if fields[0] != "Z":
                    out[int(d)] = int(fields[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    children = defaultdict(list)
    for pid, ppid in _proc_table().items():
        children[ppid].append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    statm = _read(f"/proc/{pid}/statm")
    return int(statm.split()[1]) * _PAGE if statm else 0


def _is_ray_worker(pid: int) -> bool:
    cmd = _read(f"/proc/{pid}/cmdline")
    return bool(cmd) and cmd.startswith("ray::")


def tree_rss_bytes() -> int:
    """Resident bytes of this process plus its Ray worker processes."""
    return _rss_bytes(os.getpid()) + sum(
        _rss_bytes(p) for p in descendants() if _is_ray_worker(p))


class PeakRss:
    """Samples ``tree_rss_bytes`` every ``period`` s while active.

    The sampler thread only reads /proc; it generates no load.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        self.peak = 0
        self._active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(self.period):
            if self._active.is_set():
                self.peak = max(self.peak, tree_rss_bytes())

    @contextlib.contextmanager
    def active(self):
        self._active.set()
        try:
            yield
        finally:
            self.peak = max(self.peak, tree_rss_bytes())
            self._active.clear()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until every pid has exited; returns the ones still alive."""
    end = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < end:
        live = _proc_table()
        alive = [p for p in alive if p in live]
        if alive:
            time.sleep(0.05)
    return alive


def stop_tree(pids: list[int], timeout: float = 10.0) -> None:
    """Wait for ``pids`` to exit, then SIGKILL and reap stragglers."""
    for p in wait_gone(pids, timeout):
        with contextlib.suppress(ProcessLookupError):
            os.kill(p, signal.SIGKILL)
    wait_gone(pids, 5.0)
