"""The partials exchange is sized from the plan's row estimate.

``functions.agg.bucket_count`` is the one rule for the width B of every
partials merge, over a row count that ``functions.agg.plan_estimate``
reads from the logical plan without running it. These tests pin the
estimate (footer counts, nothing executed), the rule at both ends, the
absence of constant widths in ``geoflow/``, and the flagship plan that
the rule gives at 400 pages: no sort shuffle but the final one.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

import geoflow
from geoflow.functions.agg import ROWS_PER_BUCKET, bucket_count, plan_estimate

_ROOT = Path(geoflow.__file__).parent


def test_row_estimate_reads_footers_and_runs_nothing(ray_session, tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"x": np.arange(2000) + 2000 * i}),
                       src / f"part-{i}.parquet", row_group_size=500)
    marker = tmp_path / "ran"

    def _boom(b: pa.Table) -> pa.Table:
        marker.touch()
        raise RuntimeError("the row estimate executed the plan")

    ds = rd.read_parquet(str(src)).map_batches(_boom, batch_format="pyarrow")
    rows, nbytes = plan_estimate(ds)
    assert rows == 4000
    assert nbytes and nbytes > 0
    assert not marker.exists()


def test_rule_coalesces_small_inputs_and_widens_large_ones():
    assert bucket_count(4000) == 1
    assert bucket_count(None) == 1
    assert bucket_count(0) == 1
    assert bucket_count(ROWS_PER_BUCKET) == 1
    assert bucket_count(ROWS_PER_BUCKET + 1) == 2
    assert bucket_count(40 * ROWS_PER_BUCKET) == 40


def _constant_widths(source: str):
    """Integer-literal exchange widths > 1 (``buckets=64``, a
    ``buckets`` parameter defaulting to one) and any ``BUCKETS``."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.keyword) and node.arg == "buckets"
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
                and node.value.value > 1):
            yield node.value.lineno, f"buckets={node.value.value}"
        elif isinstance(node, ast.arguments):
            args = node.posonlyargs + node.args
            pairs = list(zip(args[len(args) - len(node.defaults):],
                             node.defaults))
            pairs += [(a, d) for a, d in zip(node.kwonlyargs,
                                             node.kw_defaults) if d]
            for a, d in pairs:
                if (a.arg == "buckets" and isinstance(d, ast.Constant)
                        and isinstance(d.value, int) and d.value > 1):
                    yield d.lineno, f"buckets: int = {d.value}"
        elif ((isinstance(node, ast.Name) and node.id == "BUCKETS")
              or (isinstance(node, ast.Attribute)
                  and node.attr == "BUCKETS")):
            yield node.lineno, "BUCKETS"
        elif isinstance(node, ast.ImportFrom):
            if any(a.name == "BUCKETS" for a in node.names):
                yield node.lineno, "import BUCKETS"


def test_no_constant_exchange_width_in_geoflow():
    found = [f"{p.relative_to(_ROOT)}:{line}: {what}"
             for p in sorted(_ROOT.rglob("*.py"))
             for line, what in _constant_widths(p.read_text())]
    assert not found, "\n".join(found)


def test_width_guard_sees_constants():
    src = ("from geoflow.functions.agg import BUCKETS\n"
           "merge_partials(p, k, s, buckets=64)\n"
           "def f(ds, buckets: int = 16): pass\n"
           "grouped_count_sum(ds, k, s, buckets=agg.BUCKETS)\n"
           "grouped_count_sum(ds, k, s, buckets=1)\n")
    assert sorted(line for line, _ in _constant_widths(src)) == [1, 2, 3, 4]


def test_flagship_at_400_pages_has_no_dedup_shuffle(ray_session):
    from geoflow.pipelines.flagship import run_flagship
    from geoflow.sources.pages import pages_dataset

    out = run_flagship(pages_dataset(400, override_num_blocks=4)).materialize()
    ops = re.findall(r"^Operator \d+ ([^:]+):", out.stats(), re.M)
    assert [o for o in ops if "Sort" in o] == ["Sort"]
    assert ops[-1] == "Sort"
    df = out.to_pandas()
    # row-hash digest of the zonal table; a 64-bucket exchange gives
    # the same one on this input (the width must not change results)
    assert len(df) == 211
    assert int(pd.util.hash_pandas_object(
        df, index=False).sum()) == 10114489279009434349
