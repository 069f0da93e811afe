"""Clustered parquet layout + zone-map-pruned reads.

"Prune at the read" as a first-class, resumable OUTPUT format rather
than a property the input happens to have: ``write_clustered`` range-
partitions a Dataset by an int64 column into one parquet file per
range bucket (atomic tmp+rename per file, so a failed run reruns only
missing partitions), and records a manifest of per-partition zone maps
(true min/max per file). ``read_pruned`` consults the manifest and
opens ONLY the files whose [min, max] overlaps the requested range —
at 100 TB this is the difference between touching range/width files
and touching all of them — then applies the exact residual filter
in-stream (zone maps admit, never decide).

The bucket function is a pure integer function of (value, global min,
width), so any re-run, any partitioning and any cluster size produces
byte-identical files, and a DuckDB replay of a range scan over the
ORIGINAL table hash-matches the pruned read end to end.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa


def write_clustered(ds, col: str, out_dir: str,
                    num_partitions: int = 16) -> dict:
    """Range-partition ``ds`` by int64 ``col`` into ``num_partitions``
    parquet files under ``out_dir`` and write a zone-map manifest.
    Returns the manifest dict."""
    from ..functions.agg import grouped_count_sum

    # the global range: a grouped reduction over no key columns
    stats = grouped_count_sum(ds, [], [], min_cols=[col], max_cols=[col],
                              buckets=1).take(1)[0]
    lo, hi = int(stats[f"{col}_min"]), int(stats[f"{col}_max"])
    width = max(1, (hi - lo + num_partitions) // num_partitions)

    def _tag(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy().astype(np.int64)
        return b.append_column(
            "_part", pa.array((v - lo) // width, pa.int64()))

    os.makedirs(out_dir, exist_ok=True)

    def _write(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        p = int(g["_part"].iloc[0])
        t = pa.Table.from_pandas(g.drop(columns=["_part"]),
                                 preserve_index=False)
        tmp = os.path.join(out_dir, f".part-{p:05d}.tmp.parquet")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(out_dir, f"part-{p:05d}.parquet"))
        v = g[col].to_numpy()
        return pd.DataFrame({"part": [p], "rows": [len(g)],
                             "vmin": [int(v.min())],
                             "vmax": [int(v.max())]})

    zones = (ds.map_batches(_tag, batch_format="pyarrow")
             .groupby("_part").map_groups(_write, batch_format="pandas")
             .to_pandas())
    manifest = {
        "col": col, "lo": lo, "width": width,
        "partitions": sorted(
            ({"part": int(r.part), "file": f"part-{int(r.part):05d}.parquet",
              "rows": int(r.rows), "min": int(r.vmin), "max": int(r.vmax)}
             for r in zones.itertuples()), key=lambda d: d["part"]),
    }
    tmp = os.path.join(out_dir, ".manifest.tmp.json")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(out_dir, "_manifest.json"))
    return manifest


def read_pruned(out_dir: str, lo: int, hi: int):
    """Dataset of rows with manifest-col value in [lo, hi]: zone maps
    select the overlapping files, the residual filter runs in-stream.
    Returns (dataset, stats) with files_total/files_read/rows_admitted
    so callers can log() the pruning ratio."""
    import ray.data as rd

    with open(os.path.join(out_dir, "_manifest.json")) as f:
        man = json.load(f)
    col = man["col"]
    hit = [p for p in man["partitions"]
           if p["min"] <= hi and p["max"] >= lo]
    stats = {"files_total": len(man["partitions"]),
             "files_read": len(hit),
             "rows_admitted": sum(p["rows"] for p in hit)}
    if not hit:
        return None, stats

    ds = rd.read_parquet([os.path.join(out_dir, p["file"]) for p in hit])

    def _residual(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy().astype(np.int64)
        return b.filter(pa.array((v >= lo) & (v <= hi)))

    return ds.map_batches(_residual, batch_format="pyarrow"), stats
