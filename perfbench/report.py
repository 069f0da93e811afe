"""Per-layer metrics from a traced run, and the trace file.

Conventions (see also spec.json):

- ``<layer>.busy_s``: self time of the layer's spans, median over the
  traced passes, plus the layer's kernel-probe span. On a workload that
  idles the layer only the probe remains, so the figure never reads 0.
- kernel rates (``*_per_s``): the probe's fixed sample divided by the
  probe span; they compare across workloads and move only when the
  kernel itself changes.
- counts come from the last traced pass and repeat exactly for a seed.
"""

from __future__ import annotations

import json
import os
import statistics


def _durations(tracer, pass_ids) -> dict[str, float]:
    per: dict[str, dict] = {}
    for s in tracer.spans:
        per.setdefault(s["name"], {}).setdefault(s["pass"], 0.0)
        per[s["name"]][s["pass"]] += s["end"] - s["start"]
    return {n: statistics.median(d.get(p, 0.0) for p in pass_ids)
            for n, d in per.items()}


def layer_metrics(tracer, traced_ids, counts: dict, probe_counts: dict,
                  plain: list[float], traced: list[float]) -> dict:
    busy = tracer.busy(traced_ids)
    probe = tracer.busy(["probe"])
    extra = tracer.busy(["extra"])
    total = _durations(tracer, traced_ids)
    once = [_durations(tracer, [p]) for p in ("extra", "probe")]
    c = {**probe_counts, **counts}
    last = traced_ids[-1]
    ops = [o for o in tracer.ops if o["pass"] == last]
    held: dict[str, int] = {}
    for o in ops:
        held[o["layer"]] = held.get(o["layer"], 0) + o.get("obj_store_used", 0)

    def b(name):
        return (busy.get(name, 0.0) + extra.get(name, 0.0)
                + probe.get(name, 0.0))

    def rate(count_key, span):
        return probe_counts[count_key] / probe[span]

    m = {
        "sources.read_s": (busy.get("sources", 0.0), "s"),
        "sources.bytes_read": (c.get("sources.bytes_read", 0), "bytes"),
        "sources.rows": (c.get("sources.rows", 0), "rows"),
        "extract.busy_s": (b("extract"), "s"),
        "extract.rows": (c.get("extract.rows", 0), "rows"),
        "extract.rows_per_s": (rate("probe.pages", "extract"), "rows/s"),
        "extract.mismatch_rows": (c.get("extract.mismatch_rows", 0)
                                  + probe_counts["probe.mismatch_rows"],
                                  "rows"),
        "geocode.rows_per_s": (rate("probe.pages", "geocode"), "rows/s"),
        "cells.rows_per_s": (rate("probe.pages", "cells"), "rows/s"),
        "enrich.busy_s": (b("enrich"), "s"),
        "enrich.out_bytes": (c.get("enrich.out_bytes", 0), "bytes"),
        "dedup.busy_s": (b("dedup"), "s"),
        "dedup.in_rows": (c.get("dedup.in_rows", 0), "rows"),
        "dedup.shuffle_rows": (c.get("dedup.shuffle_rows", 0), "rows"),
        "dedup.combine_ratio": (c.get("dedup.combine_ratio", 0.0), "ratio"),
        "dedup.out_rows": (c.get("dedup.out_rows", 0), "rows"),
        "zonal_pages.busy_s": (b("zonal_pages"), "s"),
        "zonal_pages.partial_rows": (c.get("zonal_pages.partial_rows", 0),
                                     "rows"),
        "lineage.write_s": (b("lineage"), "s"),
        "lineage.resume_s": (total.get("lineage.resume", 0.0) + sum(
            d.get("lineage.resume", 0.0) for d in once), "s"),
        "lineage.bytes_written": (c.get("lineage.bytes_written", 0), "bytes"),
        "lineage.partitions_processed": (
            c.get("lineage.partitions_processed", 0), "count"),
        "lineage.partitions_skipped": (
            c.get("lineage.partitions_skipped", 0), "count"),
        "terrain.busy_s": (b("terrain"), "s"),
        "terrain.pixels_per_s": (rate("probe.pixels", "terrain"), "px/s"),
        "fit.busy_s": (b("fit"), "s"),
        "apply.busy_s": (b("apply"), "s"),
        "apply.pixels_per_s": (rate("probe.apply_pixels", "apply"), "px/s"),
        "apply.bytes": (c.get("apply.bytes", 0), "bytes"),
        "metrics.busy_s": (b("metrics"), "s"),
        "metrics.group_bytes": (c.get("metrics.group_bytes", 0), "bytes"),
        "zonal_raster.busy_s": (b("zonal_raster"), "s"),
        "zonal_raster.partial_rows": (c.get("zonal_raster.partial_rows", 0),
                                      "rows"),
        "zonal_raster.pixels_per_s": (rate("probe.pixels", "zonal_raster"),
                                      "px/s"),
        "pip.index_build_s": (probe["pip.index"], "s"),
        "pip.busy_s": (b("pip"), "s"),
        "pip.candidates_per_point": (c["pip.candidates_per_point"], "ratio"),
        "pip.hit_ratio": (c["pip.hit_ratio"], "ratio"),
        "knn.index_build_s": (probe["knn.index"], "s"),
        "knn.busy_s": (b("knn"), "s"),
        "knn.queries_per_s": (rate("probe.queries", "knn"), "queries/s"),
        "exec.tasks": (sum(o.get("tasks", 0) for o in ops), "count"),
        "exec.object_store_peak_mb": (max(held.values(), default=0) / 2**20,
                                      "MB"),
        "exec.spilled_mb": (sum(o.get("spilled", 0) for o in ops) / 2**20,
                            "MB"),
        "exec.op_wall_s": (sum(o["wall_s"] for o in ops), "s"),
        "exec.op_cpu_s": (sum(o["cpu_s"] for o in ops), "s"),
        "trace.overhead_frac": (1.0 - statistics.median(plain)
                                / statistics.median(traced), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_trace(out_dir: str, workload: str, seed: int, tracer,
                counts: dict, probe_counts: dict, metrics: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
    self_s = tracer.self_times()
    spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0,
              "self": st} for s, st in zip(tracer.spans, self_s)]
    path = os.path.join(out_dir, f"{workload}-s{seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "spans": spans,
                   "ops": tracer.ops, "counts": {**probe_counts, **counts},
                   "metrics": metrics}, f, indent=1, default=float)
    return path
