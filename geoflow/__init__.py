"""geoflow — a Ray-Data-native spatial-join + tiling engine.

Built from scratch (not a port) with the query/data-processing capabilities
of the reference QGIS plugin ``tigrulya-exe/terraform`` (read-only copy at
/root/reference), recast as ``ray.data.Dataset`` pipelines:

- per-tile ``map_batches`` kernels over zero-copy Arrow batches for the 11
  topographic-correction algorithms, the slope/aspect/illumination model and
  the 7 evaluation metrics (reference: ``processing_alg/topocorrection/*``,
  ``processing_alg/topocorrection_eval/metrics.py``),
- H3/S2-style hierarchical cell encoding, point-in-polygon joins, kNN
  lookups and raster<->vector zonal aggregation (north-rule additions),
- a Common-Crawl-style web-page ingestion pipeline (url, warc_ts, html,
  text, lang) with deterministic byte-identical text extraction,
- exact dedup, lineage + checkpoint resume.

No module in this package calls ``ray.init`` / ``ray.shutdown``; sessions
are owned by the caller (driver, tests, bench.py).
"""

__version__ = "0.1.0"
