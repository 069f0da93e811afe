"""Kernel probe: the public per-batch kernels of every layer, timed in the
driver on fixed, seed-independent samples.

Every traced run executes the same probe, so the kernel rates it yields
are comparable across workloads and move only when a kernel changes.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

from . import inputs

SAMPLE_PAGES = 512
SAMPLE_RASTER = 128         # px per side, 2 bands, 64-px tiles
SAMPLE_POINTS = 4096
SAMPLE_QUERIES = 256


def kernel_probe(tracer, work_dir: str) -> dict:
    """Run every kernel once under a span named after its layer; returns
    the work counts the rates are computed from."""
    import ray

    from geoflow.context import DEFAULT_CONTEXT as ctx
    from geoflow.functions.agg import partial_group_sums
    from geoflow.oracle import kernels as ok
    from geoflow.pipelines.flagship import enrich_pages_batch, text_hash64
    from geoflow.pipelines.rank import _col, apply_all_wide_batch
    from geoflow.registry import CORRECTIONS
    from geoflow.stages import cells
    from geoflow.stages.corrections import (CORRECTION_NAMES,
                                            apply_correction_batch,
                                            fit_moments_batch)
    from geoflow.stages.extract import extract_text
    from geoflow.stages.geocode import geocode_urls
    from geoflow.stages.knn import HaversineKNN
    from geoflow.stages.metrics import metrics_for_band_group
    from geoflow.stages.pip_join import PIPJoiner, make_polygons
    from geoflow.stages.terrain import derive_terrain_batch
    from geoflow.stages.zonal import RasterGeo, zonal_partials_batch
    from geoflow.state.lineage import StageRun

    counts: dict[str, float] = {}

    # pages kernels
    pages = inputs.pages_table(0, SAMPLE_PAGES, 0.2)
    htmls = pages.column("html").to_pylist()
    urls = pages.column("url").to_pylist()
    with tracer.span("extract"):
        texts = [extract_text(h) for h in htmls]
    counts["probe.mismatch_rows"] = sum(
        a != b for a, b in zip(texts, pages.column("text").to_pylist()))
    with tracer.span("geocode"):
        lat, lon = geocode_urls(urls)
    with tracer.span("cells"):
        cell = cells.cell_id(lat, lon, 12)
    with tracer.span("dedup"):
        text_hash64(texts)
    with tracer.span("enrich"):
        enrich_pages_batch(pages, strict=True, slim=True)
    zoned = pa.table({"zone": cells.cell_parent(cell, 5).astype(np.int64),
                      "n_chars": [len(t) for t in texts]})
    with tracer.span("zonal_pages"):
        list(partial_group_sums(["zone"], ["n_chars"])(zoned))
    counts["probe.pages"] = SAMPLE_PAGES

    # raster kernels
    dem, bands = inputs.raster_arrays(0, SAMPLE_RASTER, 2)
    tiles = inputs.tile_table(dem, bands, 64)
    pixels = bands.size
    with tracer.span("terrain"):
        terrain = derive_terrain_batch(tiles, ctx)
    with tracer.span("fit"):
        fit_moments_batch(terrain, ctx)
    slope = ok.zt_slope_radians(dem)
    lum = ok.luminance(slope, ok.zt_aspect_radians(dem), ctx)
    coeffs = {"synt0": ok.fit_coefficients(bands, lum.astype(np.float32),
                                           slope, ctx)}
    with tracer.span("apply"):
        for name in CORRECTION_NAMES:
            apply_correction_batch(terrain, CORRECTIONS[name], coeffs, ctx)
    fns = [(n, CORRECTIONS[n]) for n in CORRECTION_NAMES]
    wide = apply_all_wide_batch(terrain, fns, coeffs, ctx).to_pandas()
    evaluate = metrics_for_band_group([_col(n) for n in CORRECTION_NAMES])
    with tracer.span("metrics"):
        for _, group in wide.groupby("band"):
            evaluate(group)
    geo = RasterGeo()
    with tracer.span("zonal_raster"):
        zonal_partials_batch(tiles, geo, 9, 64)
    counts.update({"probe.pixels": pixels,
                   "probe.apply_pixels": pixels * len(CORRECTION_NAMES)})

    # join kernels
    pts = inputs.points_frame(0, SAMPLE_POINTS)
    qs = inputs.queries_frame(0, SAMPLE_QUERIES)
    polygons = make_polygons(64, seed=0)
    poly_ref = ray.put(polygons)
    with tracer.span("pip.index"):
        joiner = PIPJoiner(poly_ref)
    with tracer.span("pip"):
        joiner(pa.Table.from_pandas(pts, preserve_index=False))
    pts_ref = ray.put((pts["id"].to_numpy(), pts["lat"].to_numpy(),
                       pts["lon"].to_numpy()))
    with tracer.span("knn.index"):
        knn = HaversineKNN(pts_ref, k=5, res=7)
    with tracer.span("knn"):
        knn(pa.Table.from_pandas(qs, preserve_index=False))
    counts["probe.queries"] = SAMPLE_QUERIES
    counts.update(pip_counts(pts, polygons))

    # lineage bookkeeping
    lineage_dir = os.path.join(work_dir, "probe_lineage")
    shutil.rmtree(lineage_dir, ignore_errors=True)
    with tracer.span("lineage"):
        run = StageRun("probe", lineage_dir)
        for i in range(8):
            os.makedirs(run.partition_dir(f"{i:04d}"))
            run.record(f"{i:04d}", "digest", 1, 1.0)
    with tracer.span("lineage.resume"):
        [run.is_done(f"{i:04d}", "digest") for i in range(8)]
    shutil.rmtree(lineage_dir, ignore_errors=True)
    return counts


def pip_counts(points: pd.DataFrame, polygons: pd.DataFrame) -> dict:
    """Candidates per point from the public ``STRtree.query_points`` and
    the share of candidates that are true matches."""
    from geoflow.stages.pip_join import STRtree, pip_bruteforce

    rings = [np.asarray(r, dtype=np.float64) for r in polygons["ring"]]
    boxes = np.array([[r[:, 0].min(), r[:, 1].min(), r[:, 0].max(),
                       r[:, 1].max()] for r in rings])
    hits = STRtree(boxes).query_points(points["lon"].to_numpy(),
                                       points["lat"].to_numpy())
    candidates = sum(len(v) for v in hits.values())
    matches = len(pip_bruteforce(points, polygons))
    return {"pip.candidates_per_point": candidates / max(1, len(points)),
            "pip.hit_ratio": matches / candidates if candidates else 0.0}
