"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in geoflow) calls ``ray.init`` / ``ray.shutdown``.

- ``entry()``: flagship web-page pipeline (extract -> geocode -> cell ->
  exact dedup -> zonal aggregate) over sf0.001 documents lifted to the
  Common-Crawl-style pages schema.
- ``queries()``: one callable per implemented operator/pipeline
  (SURVEY.md section 2 + the training-data ops) over ``sf_dir``.
- ``oracle_sql()``: DuckDB-equivalent SQL for every entry (identical
  column names; floats rounded identically on both sides — see
  geoflow/pipelines/queries.py docstring).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:               # make geoflow importable for driver
    sys.path.insert(0, _REPO)           # and for Ray worker deserialization


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from geoflow.pipelines.flagship import run_flagship
    from geoflow.sources.pages import pages_from_documents

    out = run_flagship(pages_from_documents("/root/testdata/sf0.001"))
    return out.map_batches(
        lambda b: b.set_column(b.column_names.index("zone"), "zone",
                               pc.cast(b.column("zone"), pa.int64())),
        batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    """All registered pipelines in registration order; every one carries
    an oracle in ``oracle_sql()``."""
    from geoflow.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from geoflow.pipelines.queries import get_oracle_sql

    return get_oracle_sql()
