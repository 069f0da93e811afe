"""Driver-style validation: run every queries() entry and compare with
its oracle_sql() via DuckDB (row count + column names + order-insensitive
value hash). Mirrors what the graft driver does at sf0.01.

Usage: python tools/validate_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

# the checkout this script lives in (Ray workers import geoflow from the
# working directory, so run it from that checkout's root)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    try:
        import ray.data as rd
        if isinstance(result, rd.Dataset):
            return result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    """Order-insensitive: sort columns by name, round floats, sort rows."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(8)
        df[c] = df[c].astype(str)
    if len(df) == 0:
        rows = []
    else:
        rows = sorted(df.apply("|".join, axis=1).tolist())
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ROOT)
    import __ray_entry__ as e

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:
            failures.append(name)
            print(f"FAIL  {name}: query raised {type(exc).__name__}: {exc}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            failures.append(name)
            print(f"FAIL  {name}: {len(got)} rows ({dt:.1f}s), no oracle")
            continue
        exp = con.sql(oracles[name]).df()
        ok_rows = len(got) == len(exp)
        ok_cols = sorted(got.columns) == sorted(exp.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(exp)
        status = "OK   " if (ok_rows and ok_cols and ok_hash) else "FAIL "
        if status.startswith("FAIL"):
            failures.append(name)
        print(f"{status} {name}: rows {len(got)}/{len(exp)} cols={ok_cols} "
              f"hash={ok_hash} ({dt:.1f}s)")
        if not ok_hash and ok_rows and ok_cols:
            m = got.merge(exp, on=[c for c in got.columns
                                   if got[c].dtype.kind not in "f"],
                          how="outer", indicator=True, suffixes=("_got", "_exp"))
            bad = m[m["_merge"] != "both"]
            print(bad.head(6).to_string())
    print("\nFAILURES:" if failures else "\nALL OK", ", ".join(failures))
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
