"""Cluster job entrypoint (north rule: "run via ray job submit on a
fixed-size multi-node Ray cluster").

Usage (on a cluster)::

    ray job submit --working-dir . -- python -m geoflow.cli flagship \
        --pages-dir s3://bucket/pages --work-dir s3://bucket/work
    ray job submit --working-dir . -- python -m geoflow.cli query \
        dedup_exact_docs --sf-dir /data/sf1 --output /data/out

and locally (sandbox evidence) the same commands run against
``RAY_ADDRESS=local``. This module OWNS a Ray session when run as a
script (guarded — inside a submitted job Ray is already initialised);
the library itself never calls ``ray.init``.

Subcommands:

- ``flagship``  — the checkpointed flagship pipeline (enrich -> exact
  dedup -> zonal), resumable via per-partition lineage manifests; rerun
  the identical command after a failure and finished shards are skipped.
- ``query``     — any entry from the driver query suite, optionally
  written as partitioned Parquet.
- ``list``      — the available query names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _ensure_ray(num_cpus: int | None) -> None:
    import ray

    if ray.is_initialized():
        return
    kwargs: dict = {"include_dashboard": False,
                    "ignore_reinit_error": True}
    if num_cpus is not None:
        kwargs["num_cpus"] = num_cpus
    # inside `ray job submit` RAY_ADDRESS points at the cluster;
    # standalone it is "local" in this sandbox
    ray.init(address=os.environ.get("RAY_ADDRESS", "local"), **kwargs)


def _write_result(result, output: str | None) -> int:
    """Write a Dataset/DataFrame result; return its row count."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as papq
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        if output:
            result = result.materialize()
            result.write_parquet(output)
        return result.count()
    df = result.to_pandas() if isinstance(result, pa.Table) else result
    if output:
        os.makedirs(output, exist_ok=True)
        papq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                         f"{output}/part-0.parquet")
    return len(df)


def cmd_flagship(args) -> dict:
    from geoflow.pipelines.flagship import (run_flagship,
                                            run_flagship_checkpointed)
    from geoflow.sources.pages import pages_from_documents

    t0 = time.perf_counter()
    if args.pages_dir:
        if not args.work_dir:
            raise SystemExit("--work-dir is required with --pages-dir")
        report = run_flagship_checkpointed(
            args.pages_dir, args.work_dir, shards=args.shards)
        out = {"mode": "checkpointed", "zonal_dir": report["zonal_dir"],
               "stages": {k: {"processed": len(v["processed"]),
                              "skipped": len(v["skipped"]),
                              "rows": v["rows"]}
                          for k, v in report.items() if isinstance(v, dict)}}
    else:
        zonal = run_flagship(pages_from_documents(args.sf_dir))
        rows = _write_result(zonal, args.output)
        out = {"mode": "direct", "rows": rows}
    out["wall_s"] = round(time.perf_counter() - t0, 3)
    return out


def cmd_query(args) -> dict:
    from geoflow.pipelines.queries import QUERIES

    if args.name not in QUERIES:
        raise SystemExit(f"unknown query {args.name!r}; "
                         f"see `python -m geoflow.cli list`")
    t0 = time.perf_counter()
    rows = _write_result(QUERIES[args.name](args.sf_dir), args.output)
    return {"query": args.name, "rows": rows,
            "wall_s": round(time.perf_counter() - t0, 3)}


def cmd_list(_args) -> dict:
    from geoflow.pipelines.queries import ORACLE_SQL, ORACLE_SQL_LAZY, QUERIES

    return {"queries": sorted(QUERIES),
            "duckdb_verified": sorted(set(ORACLE_SQL) | set(ORACLE_SQL_LAZY))}


def cmd_correct(args) -> dict:
    """The reference's primary entry point (terraform_topocorrection) as
    a cluster job: ingest a real raster (GeoTIFF / .asc / tile-table
    parquet), run one correction distributed, write corrected tiles as
    partitioned parquet and (for driver-sized rasters) a GeoTIFF."""
    import numpy as np
    import ray.data as rd

    from geoflow.pipelines.correction import run_correction
    from geoflow.sources.geotiff import geotiff_to_tile_table, write_geotiff
    from geoflow.sources.tiles import asc_to_tile_table, tile_rows_to_raster

    t0 = time.perf_counter()
    meta: dict = {}
    if args.raster.endswith((".tif", ".tiff")):
        table, meta = geotiff_to_tile_table(args.raster, tile=args.tile)
        tiles = rd.from_arrow(table)
    elif args.raster.endswith(".asc"):
        table, meta = asc_to_tile_table(args.raster, tile=args.tile)
        tiles = rd.from_arrow(table)
    else:
        tiles = rd.read_parquet(args.raster)

    corrected, coeffs = run_correction(tiles, args.algorithm)
    os.makedirs(args.output, exist_ok=True)
    corrected = corrected.materialize()
    corrected.write_parquet(f"{args.output}/tiles")
    out = {"algorithm": args.algorithm, "rows": corrected.count(),
           "tiles_dir": f"{args.output}/tiles"}
    if meta and out["rows"] * args.tile * args.tile < 2e8:
        df = corrected.to_pandas()
        n_bands = int(df["band"].max()) + 1
        h = int(meta.get("height",
                         (df["tile_y"].max() + 1) * args.tile))
        w = int(meta.get("width", (df["tile_x"].max() + 1) * args.tile))
        arr = tile_rows_to_raster(df, "corrected", n_bands, h, w)
        tif = f"{args.output}/corrected.tif"
        write_geotiff(tif, np.nan_to_num(arr, nan=0.0),
                      pixel_scale=(meta.get("ewres", 1.0),
                                   -meta.get("nsres", -1.0)),
                      tiepoint=(meta.get("lon0", 0.0),
                                meta.get("lat0", 0.0)))
        out["geotiff"] = tif
    out["wall_s"] = round(time.perf_counter() - t0, 3)
    return out


def cmd_report(args) -> dict:
    """Render the full evaluation report (rose SVGs, correlation PNGs,
    rank xlsx) from the distributed pipelines over a tiled raster."""
    from geoflow.pipelines.queries import _fixture_tiles
    from geoflow.pipelines.rank import rank_corrections
    from geoflow.pipelines.report import render_full_report
    from geoflow.stages.histogram import correlation_eval_ds
    from geoflow.stages.rose import rose_diagram_ds
    from geoflow.stages.terrain import derive_terrain

    import ray.data as rd

    t0 = time.perf_counter()
    if args.tiles_dir:
        tiles = rd.read_parquet(args.tiles_dir)
    else:
        tiles = _fixture_tiles()
    rose = rose_diagram_ds(tiles).to_pandas()
    corr = correlation_eval_ds(derive_terrain(tiles)).to_pandas()
    scores, _, _ = rank_corrections(tiles)
    rank_df = scores.reset_index().rename(columns={"Score": "score"})
    out = render_full_report(args.out_dir, rose, corr, rank_df)
    return {"out_dir": args.out_dir,
            "files": {k: len(v) for k, v in out.items()},
            "wall_s": round(time.perf_counter() - t0, 3)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="geoflow",
                                description=__doc__.split("\n")[0])
    p.add_argument("--num-cpus", type=int, default=None,
                   help="only honored when this process owns ray.init")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("flagship", help="flagship web-page pipeline")
    f.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    f.add_argument("--pages-dir", default=None,
                   help="pages-schema parquet dir -> checkpointed run")
    f.add_argument("--work-dir", default=None,
                   help="checkpoint/lineage root (with --pages-dir)")
    f.add_argument("--shards", type=int, default=8)
    f.add_argument("--output", default=None)
    f.set_defaults(fn=cmd_flagship)

    q = sub.add_parser("query", help="run one driver-suite query")
    q.add_argument("name")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    q.add_argument("--output", default=None)
    q.set_defaults(fn=cmd_query)

    l = sub.add_parser("list", help="list query names")
    l.set_defaults(fn=cmd_list)

    c = sub.add_parser("correct", help="topographic correction of a raster")
    c.add_argument("--raster", required=True,
                   help=".tif / .asc file or tile-table parquet dir")
    c.add_argument("--algorithm", default="SCS+C")
    c.add_argument("--tile", type=int, default=64)
    c.add_argument("--output", default="/tmp/geoflow_corrected")
    c.set_defaults(fn=cmd_correct)

    r = sub.add_parser("report", help="render rose/correlation/rank report")
    r.add_argument("--tiles-dir", default=None,
                   help="tile-table parquet dir (default: synthetic fixture)")
    r.add_argument("--out-dir", default="/tmp/geoflow_report")
    r.set_defaults(fn=cmd_report)

    args = p.parse_args(argv)
    if args.cmd != "list":
        _ensure_ray(args.num_cpus)
    print(json.dumps(args.fn(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
