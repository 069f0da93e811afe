"""The four workloads: inputs + reference, one timed pass, its check, and
the traced form of the pass that materializes at layer boundaries.

A workload object lives in one Ray session: ``open`` runs after
``ray.init`` and prepares lazy datasets over the cached input files;
``run_pass`` executes the public geoflow pipeline once and returns its
output; ``check`` compares that output with the reference.
"""

from __future__ import annotations

import gc
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs, reference
from .tracing import layers


def _n_rows(path: str) -> int:
    return sum(pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
               for f in sorted(os.listdir(path)) if f.endswith(".parquet"))


def _bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _entry_seed(entry: str) -> int:
    """The seed in a cache entry name ``<workload>-s<seed>-<key>``."""
    return int(os.path.basename(entry).rsplit("-", 1)[0].rsplit("-s", 1)[1])


def _materialize(tracer, layer: str, ds):
    with tracer.span(layer):
        out = ds.materialize()
        tracer.record_stats(layer, out)
    return out


class Workload:
    name = ""

    def __init__(self, cfg: dict, work_dir: str):
        self.cfg = cfg
        self.work_dir = work_dir
        self.counts: dict[str, float] = {}

    def sizes(self) -> dict:
        return self.cfg["sizes"]

    def after_trace(self, tracer) -> None:
        """Counts and driver-side kernel timings taken after a traced pass."""

    def trace_extra(self, tracer) -> list[str]:
        """Traced work run once after the traced passes; returns problems."""
        return []


# ---------------------------------------------------------------------------
# pages_flagship
# ---------------------------------------------------------------------------

class PagesFlagship(Workload):
    name = "pages_flagship"

    def build(self, out: str, seed: int) -> None:
        s = self.sizes()
        table = inputs.pages_table(seed, s["pages"], s["dup_frac"])
        inputs.write_files(table, f"{out}/pages", s["files"])
        reference.zonal_reference(f"{out}/pages").to_parquet(
            f"{out}/ref_zonal.parquet")

    def open(self, entry: str) -> None:
        import ray.data as rd

        self.entry = entry
        self.pages_dir = f"{entry}/pages"
        self.ref = pd.read_parquet(f"{entry}/ref_zonal.parquet")
        self.rows = _n_rows(self.pages_dir)
        self.ds = rd.read_parquet(self.pages_dir,
                                  override_num_blocks=self.sizes()["files"])

    def run_pass(self):
        from geoflow.pipelines.flagship import run_flagship

        return run_flagship(self.ds).to_pandas()

    def check(self, out) -> list[str]:
        return reference.check_zonal(out, self.ref)

    def _flagship_targets(self):
        from geoflow.pipelines import flagship

        return [(flagship, "enrich_pages", "enrich"),
                (flagship, "dedup_exact", "dedup"),
                (flagship, "zonal_page_stats", "zonal_pages")]

    def traced_pass(self, tracer):
        from geoflow.pipelines.flagship import run_flagship

        pages = _materialize(tracer, "sources", self.ds)
        with layers(tracer, self._flagship_targets()):
            return run_flagship(pages).to_pandas()

    def after_trace(self, tracer) -> None:
        self._page_kernels(tracer)
        self._dedup_counts(tracer)

    def trace_extra(self, tracer) -> list[str]:
        """One traced checkpointed run (from empty, crash, resume) over
        this input, so the lineage layer is measured on real stages."""
        ck = PagesCheckpointed({"sizes": self.cfg["checkpoint"]},
                               self.work_dir)
        ck.open(self.entry)
        problems = ck.check(ck.traced_pass(tracer))
        self.counts.update({k: v for k, v in ck.counts.items()
                            if k.startswith("lineage.")})
        return problems

    def _page_kernels(self, tracer) -> None:
        """Single-process rates of the per-row kernels over this input."""
        from geoflow.stages import cells
        from geoflow.stages.extract import extract_text
        from geoflow.stages.geocode import geocode_urls

        table = pq.read_table(self.pages_dir)
        htmls = table.column("html").to_pylist()
        with tracer.span("extract"):
            texts = [extract_text(h) for h in htmls]
        stored = table.column("text").to_pylist()
        urls = table.column("url").to_pylist()
        with tracer.span("geocode"):
            lat, lon = geocode_urls(urls)
        with tracer.span("cells"):
            cells.cell_id(lat, lon, 12)
        self.counts.update({
            "extract.rows": len(texts),
            "extract.mismatch_rows": sum(a != b for a, b in zip(texts, stored)),
            "geocode.rows": len(urls), "cells.rows": len(urls),
            "sources.rows": table.num_rows,
            "sources.bytes_read": _bytes_under(self.pages_dir),
        })

    def _dedup_counts(self, tracer) -> None:
        p = tracer.pass_id
        in_rows = self.counts["sources.rows"]
        shuffle = tracer.op_rows(p, "dedup", "_local_combine)")
        self.counts.update({
            "dedup.in_rows": in_rows,
            "dedup.shuffle_rows": shuffle,
            "dedup.combine_ratio": shuffle / in_rows if in_rows else 0.0,
            "dedup.out_rows": tracer.op_rows(p, "dedup", "_rederive)"),
            "zonal_pages.partial_rows": tracer.op_rows(p, "zonal_pages",
                                                       "_combine)"),
            "enrich.out_bytes": sum(o["bytes"] for o in tracer.ops
                                    if o["pass"] == p
                                    and o["layer"] == "enrich"),
        })


# ---------------------------------------------------------------------------
# pages_checkpointed
# ---------------------------------------------------------------------------

class PagesCheckpointed(PagesFlagship):
    """From-empty checkpointed run, then a crash-style invalidation of one
    enrich partition and the resume; one pass covers both runs."""

    name = "pages_checkpointed"

    def open(self, entry: str) -> None:
        self.pages_dir = f"{entry}/pages"
        self.ref = pd.read_parquet(f"{entry}/ref_zonal.parquet")
        self.rows = _n_rows(self.pages_dir)
        self.run_dir = os.path.join(self.work_dir, "checkpoint")

    def _crash(self) -> None:
        """Leave one enrich partition as a crash mid-write would: output
        moved back to ``.tmp`` and no manifest line."""
        from geoflow.state.lineage import MANIFEST

        part = self.cfg["sizes"]["crash_partition"]
        stage = os.path.join(self.run_dir, "enrich")
        os.rename(os.path.join(stage, f"part={part}"),
                  os.path.join(stage, f"part={part}.tmp"))
        manifest = os.path.join(stage, MANIFEST)
        with open(manifest) as f:
            keep = [ln for ln in f if json.loads(ln)["partition"] != part]
        with open(manifest, "w") as f:
            f.writelines(keep)

    def _run(self) -> dict:
        from geoflow.pipelines.flagship import run_flagship_checkpointed

        rep = run_flagship_checkpointed(self.pages_dir, self.run_dir,
                                        shards=self.sizes()["shards"])
        rep["zonal"]["table"] = pd.read_parquet(rep["zonal_dir"])
        return rep

    def run_pass(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        full = self._run()
        self._crash()
        return {"full": full, "resumed": self._run()}

    def check(self, out) -> list[str]:
        s = self.sizes()
        problems = (reference.check_zonal(out["full"]["zonal"]["table"],
                                          self.ref)
                    + reference.check_zonal(out["resumed"]["zonal"]["table"],
                                            self.ref))
        enrich = out["resumed"]["enrich"]
        if (enrich["processed"] != [s["crash_partition"]]
                or len(enrich["skipped"]) != s["shards"] - 1):
            problems.append(f"resume reprocessed {enrich['processed']}, "
                            f"want only {s['crash_partition']}")
        if len(out["full"]["enrich"]["processed"]) != s["shards"]:
            problems.append("from-empty run skipped enrich partitions")
        return problems

    def traced_pass(self, tracer):
        import ray.data as rd

        from geoflow.state import lineage

        _materialize(tracer, "sources", rd.read_parquet(self.pages_dir))
        targets = self._flagship_targets() + [
            (lineage, "run_partitioned_stage", "lineage")]
        with layers(tracer, targets):
            with tracer.span("lineage.full"):
                shutil.rmtree(self.run_dir, ignore_errors=True)
                full = self._run()
            written = _bytes_under(self.run_dir)
            self._crash()
            with tracer.span("lineage.resume"):
                resumed = self._run()
        stages = {k: resumed[k] for k in ("enrich", "dedup", "zonal")}
        self.counts.update({
            "lineage.bytes_written": written + sum(
                _bytes_under(os.path.join(self.run_dir, k, f"part={p}"))
                for k, r in stages.items() for p in r["processed"]),
            "lineage.partitions_processed": sum(
                len(r["processed"]) for r in stages.values()),
            "lineage.partitions_skipped": sum(
                len(r["skipped"]) for r in stages.values()),
        })
        return {"full": full, "resumed": resumed}


# ---------------------------------------------------------------------------
# raster_rank
# ---------------------------------------------------------------------------

class RasterRank(Workload):
    name = "raster_rank"

    def build(self, out: str, seed: int) -> None:
        s = self.sizes()
        dem, bands = inputs.raster_arrays(seed, s["size"], s["bands"])
        table = inputs.tile_table(dem, bands, s["tile"])
        inputs.write_files(table, f"{out}/tiles", s["files"])
        reference.rank_reference(dem, bands).to_parquet(
            f"{out}/ref_rank.parquet")

    def open(self, entry: str) -> None:
        import ray.data as rd

        s = self.sizes()
        self.entry = entry
        self.tiles_dir = f"{entry}/tiles"
        self.ref = pd.read_parquet(f"{entry}/ref_rank.parquet")
        self.rows = s["bands"] * s["size"] * s["size"]
        self.ds = rd.read_parquet(self.tiles_dir,
                                  override_num_blocks=s["files"])

    def run_pass(self):
        from geoflow.pipelines.rank import rank_corrections

        scores, _, _ = rank_corrections(self.ds)
        return scores

    def check(self, out) -> list[str]:
        return reference.check_rank(out, self.ref)

    def traced_pass(self, tracer):
        from geoflow.pipelines import rank
        from geoflow.stages.corrections import CORRECTION_NAMES

        tiles = _materialize(tracer, "sources", self.ds)
        targets = [(rank, "prepare_terrain", "terrain"),
                   (rank, "fit_corrections", "fit"),
                   (rank, "evaluate_corrections_ds", "metrics", "apply"),
                   (rank, "combine_vs_original", "rank"),
                   (rank, "normalize_vs_original", "rank")]
        with layers(tracer, targets):
            scores, _, _ = rank.rank_corrections(tiles)
        s = self.sizes()
        apply_bytes = self.rows * len(CORRECTION_NAMES) * 4
        self.counts.update({
            "sources.rows": self.rows,
            "sources.bytes_read": _bytes_under(self.tiles_dir),
            "apply.bytes": apply_bytes,
            "metrics.group_bytes": apply_bytes // s["bands"],
        })
        return scores

    def trace_extra(self, tracer) -> list[str]:
        """One traced spatial_join pass on this seed, so the join layers
        are measured on their real actor-pool stages."""
        sj = SpatialJoin({"sizes": self.cfg["spatial"]}, self.work_dir)
        seed = _entry_seed(self.entry)
        entry, _ = inputs.cache_entry(os.path.dirname(self.entry),
                                      sj.name, seed, sj.sizes(),
                                      lambda d: sj.build(d, seed))
        sj.open(entry)
        problems = sj.check(sj.traced_pass(tracer))
        sj.after_trace(tracer)
        self.counts.update(sj.counts)
        return problems


# ---------------------------------------------------------------------------
# spatial_join
# ---------------------------------------------------------------------------

ZONE_RES = 5


def _zone_batch(batch: pa.Table) -> pa.Table:
    from geoflow.stages import cells

    zone = cells.cell_id(batch.column("lat").to_numpy(),
                         batch.column("lon").to_numpy(), ZONE_RES)
    return pa.table({"zone": pa.array(zone.astype(np.int64), pa.int64())})


class SpatialJoin(Workload):
    name = "spatial_join"

    def _geo(self):
        from geoflow.stages.zonal import RasterGeo

        g = self.sizes()["raster_geo"]
        return RasterGeo(lat0=g[0], lon0=g[1], dlat=g[2], dlon=g[3])

    def build(self, out: str, seed: int) -> None:
        from geoflow.stages.pip_join import make_polygons

        s = self.sizes()
        points = inputs.points_frame(seed, s["points"])
        queries = inputs.queries_frame(seed, s["queries"])
        inputs.write_files(pa.Table.from_pandas(points, preserve_index=False),
                           f"{out}/points", s["files"])
        inputs.write_files(pa.Table.from_pandas(queries, preserve_index=False),
                           f"{out}/queries", s["files"])
        dem, bands = inputs.raster_arrays(seed, s["raster_size"],
                                          s["raster_bands"])
        inputs.write_files(inputs.tile_table(dem, bands, s["tile"]),
                           f"{out}/tiles", s["files"])
        polygons = make_polygons(s["polygons"], seed=seed)
        reference.pip_reference(points, polygons).to_parquet(
            f"{out}/ref_pip.parquet")
        reference.knn_reference(points, queries, s["k"],
                                s["knn_sample"]).to_parquet(
            f"{out}/ref_knn.parquet")
        rz = reference.raster_zonal_reference(bands, self._geo(),
                                              s["raster_res"])
        pz = reference.point_zone_reference(points, ZONE_RES)
        reference.join_reference(rz, pz, s["raster_res"], ZONE_RES) \
            .to_parquet(f"{out}/ref_join.parquet")

    def open(self, entry: str) -> None:
        import ray.data as rd

        from geoflow.stages.pip_join import make_polygons

        s = self.sizes()
        self.entry = entry
        self.polygons = make_polygons(s["polygons"], seed=_entry_seed(entry))
        self.points_df = pd.read_parquet(f"{entry}/points")
        self.refs = {k: pd.read_parquet(f"{entry}/ref_{k}.parquet")
                     for k in ("pip", "knn", "join")}
        self.rows = s["points"] + s["queries"]
        n = s["files"]
        self.points = rd.read_parquet(f"{entry}/points", override_num_blocks=n)
        self.queries = rd.read_parquet(f"{entry}/queries",
                                       override_num_blocks=n)
        self.tiles = rd.read_parquet(f"{entry}/tiles", override_num_blocks=n)

    def _stages(self, points, queries, tiles):
        from geoflow.functions.agg import grouped_count_sum
        from geoflow.stages.knn import knn_haversine
        from geoflow.stages.pip_join import pip_join
        from geoflow.stages.zonal import raster_zonal_stats

        s = self.sizes()
        # the two actor-pool stages are kept apart, so the first pool's
        # actor has exited before the second pool asks for its slot
        return {
            "pip": lambda: pip_join(points, self.polygons, concurrency=1),
            "zonal_raster": lambda: raster_zonal_stats(
                tiles, self._geo(), res=s["raster_res"],
                tile_size=s["tile"]),
            "zonal_pages": lambda: grouped_count_sum(
                points.map_batches(_zone_batch, batch_format="pyarrow"),
                ["zone"], [], count_alias="n_pages"),
            "knn": lambda: knn_haversine(queries, self.points_df, k=s["k"],
                                         res=s["knn_res"], concurrency=1),
        }

    def _join(self, out: dict) -> dict:
        from geoflow.stages.zonal import join_zonal_with_pages

        out["join"] = join_zonal_with_pages(
            out.pop("zonal_raster"), out.pop("zonal_pages"),
            self.sizes()["raster_res"], ZONE_RES)
        return out

    def run_pass(self):
        out = {}
        for k, make in self._stages(self.points, self.queries,
                                    self.tiles).items():
            out[k] = make().to_pandas()
            # a finished actor pool keeps its actor (and CPU slot) until
            # the driver's collector breaks a reference cycle; on two
            # slots the next actor stage then stalls for ~16 s
            gc.collect()
        return self._join(out)

    def check(self, out) -> list[str]:
        s = self.sizes()
        return (reference.check_pip(out["pip"], self.refs["pip"])
                + reference.check_knn(out["knn"], self.refs["knn"],
                                      s["queries"], s["k"])
                + reference.check_zonal_join(out["join"], self.refs["join"]))

    def traced_pass(self, tracer):
        points = _materialize(tracer, "sources", self.points)
        queries = _materialize(tracer, "sources", self.queries)
        tiles = _materialize(tracer, "sources", self.tiles)
        out = {}
        for layer, make in self._stages(points, queries, tiles).items():
            ds = _materialize(tracer, layer, make())
            out[layer] = ds.to_pandas()
            del ds
            gc.collect()
        with tracer.span("zonal_join"):
            return self._join(out)

    def after_trace(self, tracer) -> None:
        from .probe import pip_counts

        self.counts.update(pip_counts(self.points_df, self.polygons))
        dirs = [f"{self.entry}/{d}" for d in ("points", "queries", "tiles")]
        self.counts.update({
            "sources.rows": sum(_n_rows(d) for d in dirs),
            "sources.bytes_read": sum(_bytes_under(d) for d in dirs),
            "zonal_raster.partial_rows": tracer.op_rows(
                tracer.pass_id, "zonal_raster", "<lambda>)"),
            "zonal_pages.partial_rows": tracer.op_rows(
                tracer.pass_id, "zonal_pages", "_combine)"),
        })


WORKLOADS = {w.name: w for w in (PagesFlagship, PagesCheckpointed,
                                 RasterRank, SpatialJoin)}
