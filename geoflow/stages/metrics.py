"""The 7 evaluation metrics + distributed evaluation over corrections.

Transcribed metric semantics (reference
``processing_alg/topocorrection_eval/metrics.py:81-206``):

| id                         | evaluate(values)                         |
|----------------------------|------------------------------------------|
| std_reduction              | np.std(values)                           |
| cv_reduction               | np.std/np.mean                           |
| iqr_reduction              | P75 - P25 (np.percentile linear interp)  |
| relative_median_difference | np.median (combine: -abs(corr - orig))   |
| outliers_threshold         | count outside [orig_min, orig_max]       |
| outliers_iqr               | count outside [Q1-IQR, Q3+IQR]           |
| determination_coefficient  | r^2 of OLS values ~ luminance            |

``determination_coefficient`` uses the closed-form Pearson r (the
standard formula behind scipy.stats.linregress, metrics.py:193-195;
scipy is not available in this environment -- SURVEY.md section 7.0).

Evaluation shape: ``per_band`` is the band step of every whole-band
raster evaluation (the rank here, the correlation eval in
``stages.histogram``): the band columns coalesce into one block, with
no shuffle, and one task hands each band's tiles, in (tile_y, tile_x)
order, to a per-band function. The rank's per-band function
(``geoflow.pipelines.rank.evaluate_corrections_ds``, in the rank's one
Ray Data job) fits the band from its own tiles, flattens the band's
columns once, applies every correction to the whole band and hands the
flat arrays to ``array_evaluator``, which computes every registered
metric for the original and all corrections. Exact
medians/percentiles come from the whole band held in one task (the
reference holds full bands in the driver, multi_criteria_eval.py:128);
the fixed tile order keeps floating reductions deterministic.
``metrics_for_band_group`` flattens a wide band group (Arrow or pandas)
the same way and calls the same evaluator.

One summary per (zone, source) serves all seven built-ins
(``SourceSummary``): one ``np.sort`` of the values gives the quartiles
and the median as order statistics, with ``np.percentile``'s linear
interpolation and ``np.median``'s mean of the middle pair; a NaN in the
values sorts last and makes all three NaN, as in numpy. ``np.std`` is
taken once for std and cv, and the float64 luminance cast and its sums
once per zone for every source's r^2. One sort buffer and two float64
r^2 buffers per band serve all its sources. The outlier counts compare
the unsorted values elementwise. A metric id whose registry function is no
longer the built-in (``geoflow.registry.BUILTIN_METRICS``) -- a
replaced built-in or a user metric -- is called on the raw
``(values, orig_min, orig_max, luminance)`` instead. The built-in
registry functions build the same summary, so a direct call and the
evaluator share one code path and agree bit for bit.

Zones follow the reference's optional classification map
(``eval.py:128-141``): tiles that carry ``zone_ids`` are evaluated per
zone; tiles without it are one zone covering the band, and the output
then has no ``zone`` column.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

METRIC_IDS = [
    "std_reduction", "cv_reduction", "iqr_reduction",
    "relative_median_difference", "outliers_threshold", "outliers_iqr",
    "determination_coefficient",
]

ORIG_KEY = "__orig__"


def metric_ids() -> list[str]:
    """Current metric registry order (includes user-registered metrics;
    geoflow.registry.register_metric)."""
    from ..registry import METRICS
    return list(METRICS)


_QUARTILES = np.array([25, 75]) / 100


def _quartiles(s: np.ndarray) -> np.ndarray:
    """``np.percentile(v, [25, 75])`` read off ``s = np.sort(v)``.

    The same steps as numpy's ``linear`` method: float64 virtual indices
    ``(n - 1) * q``, the float32 neighbour difference, the two-sided lerp
    in float64, and the last element (a NaN sorts there) copied over the
    result when it is NaN.
    """
    n = s.size
    vi = (n - 1) * _QUARTILES
    lo = np.floor(vi)
    hi = lo + 1
    top = vi >= n - 1
    lo[top] = hi[top] = -1
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    t = vi - lo
    a, b = s[lo], s[hi]
    d = np.subtract(b, a)
    out = np.add(a, d * t)
    np.subtract(b, d * (1 - t), out=out, where=t >= 0.5, casting="unsafe",
                dtype=np.float64)
    if np.isnan(s[-1]):
        out[:] = s[-1]
    return out


def _median(s: np.ndarray):
    """``np.median(v)`` read off ``s = np.sort(v)``: the mean of the middle
    one or two elements, NaN when the input holds a NaN."""
    k = s.size // 2
    m = np.mean(s[k - 1 + s.size % 2:k + 1])
    return s[-1] if np.isnan(s[-1]) else m


class ZoneLuminance:
    """One zone's luminance as float64 with its sums, shared by every
    source evaluated on the zone."""

    def __init__(self, luminance: np.ndarray):
        self.luminance = luminance

    @cached_property
    def x(self) -> np.ndarray:
        return self.luminance.astype(np.float64)

    @cached_property
    def sums(self):
        """(sx, sxx)"""
        return self.x.sum(), (self.x * self.x).sum()


class SourceSummary:
    """The reductions the built-in metrics share for one (zone, source).

    Each is computed on first use and kept: one ``np.sort`` serves the
    quartiles and the median, one ``np.std`` serves std and cv, and the
    luminance side of r^2 comes from the zone's ``ZoneLuminance``.
    ``bufs`` is (sort, y, prod): the arrays the sort and the r^2 sums
    write into, each at least ``values.size`` long, ``sort`` of the
    values' dtype and the other two float64 (fresh ones by default). The
    values come out the same bit for bit; a summary must be used up
    before another one writes into the same buffers.
    """

    def __init__(self, values: np.ndarray, orig_min: float, orig_max: float,
                 lum: ZoneLuminance, bufs: tuple | None = None):
        self.values = values
        self.orig_min, self.orig_max = orig_min, orig_max
        self.lum = lum
        self.bufs = ((np.empty_like(values), np.empty(values.shape),
                      np.empty(values.shape)) if bufs is None
                     else tuple(b[:values.size] for b in bufs))

    @cached_property
    def sorted(self) -> np.ndarray:
        s = self.bufs[0]
        np.copyto(s, self.values)
        s.sort()
        return s

    @cached_property
    def quartiles(self) -> np.ndarray:
        return _quartiles(self.sorted)

    @cached_property
    def median(self):
        return _median(self.sorted)

    @cached_property
    def std(self):
        return np.std(self.values)

    @cached_property
    def sums(self):
        """(sy, syy, sxy) with x the zone's luminance, all float64."""
        _, y, prod = self.bufs
        np.copyto(y, self.values)
        sy = y.sum()
        syy = np.multiply(y, y, out=prod).sum()
        return sy, syy, np.multiply(self.lum.x, y, out=prod).sum()


def _std(s: SourceSummary) -> float:                # metrics.py:81-91
    return float(s.std)


def _cv(s: SourceSummary) -> float:                 # metrics.py:94-104
    return float(s.std / np.mean(s.values))


def _iqr(s: SourceSummary) -> float:                # metrics.py:107-123
    q1, q3 = s.quartiles
    return float(q3 - q1)


def _relative_median(s: SourceSummary) -> float:    # metrics.py:126-140
    return float(s.median)


def _outliers_threshold(s: SourceSummary) -> float:  # metrics.py:151-165
    v = s.values
    return float(np.count_nonzero(
        np.logical_or(s.orig_min > v, v > s.orig_max)))


def _outliers_iqr(s: SourceSummary) -> float:       # metrics.py:168-181
    q1, q3 = s.quartiles
    lo, hi = q1 - (q3 - q1), q3 + (q3 - q1)
    v = s.values
    return float(np.count_nonzero(np.logical_or(lo > v, v > hi)))


def _r2(s: SourceSummary) -> float:                 # metrics.py:184-195
    """r^2 of the OLS fit values ~ luminance (scipy.stats.linregress
    semantics), from float64 sums."""
    n = s.values.size
    sx, sxx = s.lum.sums
    sy, syy, sxy = s.sums
    num = n * sxy - sx * sy
    den = (n * sxx - sx * sx) * (n * syy - sy * sy)
    if den <= 0:
        return 0.0
    r = num / np.sqrt(den)
    return float(r * r)


# summary -> value of each built-in metric, in METRIC_IDS order
FROM_SUMMARY = dict(zip(METRIC_IDS, [
    _std, _cv, _iqr, _relative_median, _outliers_threshold, _outliers_iqr,
    _r2]))


def _metric_snapshot():
    """Registry snapshot taken ON THE DRIVER so user-registered metrics
    travel into worker processes via the pickled closure: [(id, fn,
    summary fn)], the summary fn set only while ``fn`` is still the
    built-in registered under ``id``."""
    from ..registry import BUILTIN_METRICS, METRICS
    return [(mid, spec.fn, FROM_SUMMARY[mid]
             if spec.fn is BUILTIN_METRICS.get(mid) else None)
            for mid, spec in METRICS.items()]


def _zone_slices(zones: np.ndarray | None):
    """Pixel order and [(zone, start, stop)] slices of one band.

    With per-pixel ``zones`` the pixels are grouped by one stable
    argsort, so each zone's pixels keep their boolean-mask order; without
    them the band is one zone (``None``), evaluated on views.
    """
    if zones is None:
        return None, [(None, 0, None)]
    order = np.argsort(zones, kind="stable")
    ids, starts = np.unique(zones[order], return_index=True)
    stops = np.append(starts[1:], zones.size)
    return order, list(zip(ids.tolist(), starts, stops))


def tile_order(table: pa.Table) -> pa.Table:
    """Tile rows sorted by (band, tile_y, tile_x): each band is one run
    of rows whose list columns flatten in tile order."""
    return table.take(pc.sort_indices(table, [
        ("band", "ascending"), ("tile_y", "ascending"),
        ("tile_x", "ascending")]))


def flat(col: pa.ChunkedArray) -> np.ndarray:
    """A list column's values concatenated in row order."""
    return pc.list_flatten(col).to_numpy()


def per_band(ds, cols: list[str], fn):
    """The band step: tile Dataset -> the concatenated ``fn(band, group)``
    frames, one call per band, in one Ray Data task.

    Keeps ``raster_id``, ``band``, ``tile_y``, ``tile_x`` and whichever of
    ``cols`` each batch has, coalesces them into one block (no shuffle)
    and hands ``fn`` each band's tiles as one Arrow table in
    ``tile_order``, so ``flat`` gives the whole band in a fixed pixel
    order however the input was blocked. Tiles from two rasters would
    pool their pixels, so they are refused, naming the raster ids."""
    keep = ["raster_id", "band", "tile_y", "tile_x", *cols]

    def band_columns(batch: pa.Table) -> pa.Table:
        # per batch, not ``select_columns``: whether an optional column
        # is there would otherwise take the lazy input's schema, which
        # runs it
        return batch.select([c for c in keep if c in batch.column_names])

    def every_band(batch: pa.Table):
        # a generator, so that a refused input reaches the caller as its
        # ValueError, not wrapped in Ray's UserCodeException
        rids = pc.unique(batch.column("raster_id")).to_pylist()
        if len(rids) > 1:
            raise ValueError("band step input must hold one raster, got "
                             f"raster ids {sorted(rids)}")
        tiles = tile_order(batch)
        bands = tiles.column("band").to_numpy()
        cuts = np.flatnonzero(np.diff(bands)) + 1
        yield pd.concat([fn(int(bands[lo]), tiles.slice(lo, hi - lo))
                         for lo, hi in zip([0, *cuts], [*cuts, bands.size])],
                        ignore_index=True)

    return (ds.map_batches(band_columns, batch_format="pyarrow")
            .repartition(1, shuffle=False)
            .map_batches(every_band, batch_format="pyarrow", batch_size=None))


def array_evaluator():
    """-> ``evaluate(band, luminance, original, corrected, zones=None)``,
    the evaluator over one band's flat arrays: ``luminance``,
    ``original`` pixels and per-pixel ``zones`` as 1-D arrays in one
    pixel order, ``corrected`` as [(name, values)] in that order.

    Emits one row per (source, zone), ``__orig__`` first, with every
    registered metric; the ``zone`` column appears only for zoned input.
    Each zone's min, max and luminance come from that zone (reference
    ``eval.py:173-179``, ``multi_criteria_eval.py:123-133``). One sort
    buffer and two float64 buffers, allocated once per call, serve every
    source of the band. The registry snapshot is taken when this is
    called, ON THE DRIVER.
    """
    specs = _metric_snapshot()
    ids = [mid for mid, _, _ in specs]

    def evaluate(band: int, luminance: np.ndarray, original: np.ndarray,
                 corrected: list, zones: np.ndarray | None = None
                 ) -> pd.DataFrame:
        sources = [(ORIG_KEY, original)] + list(corrected)
        order, slices = _zone_slices(zones)
        if order is not None:
            luminance = luminance[order]
            sources = [(name, v[order]) for name, v in sources]
        orig = sources[0][1]
        bufs = (np.empty_like(orig), np.empty(orig.size), np.empty(orig.size))
        rows = []
        for zone, lo, hi in slices:
            zlum, zorig = luminance[lo:hi], orig[lo:hi]
            omin, omax = float(zorig.min()), float(zorig.max())
            zone_lum = ZoneLuminance(zlum)
            for name, vals in sources:
                v = vals[lo:hi]
                summary = SourceSummary(
                    v, omin, omax, zone_lum,
                    bufs if v.dtype == orig.dtype else None)
                rows.append({"correction": name, "band": band, "zone": zone,
                             **{mid: (from_summary(summary) if from_summary
                                      else fn(v, omin, omax, zlum))
                                for mid, fn, from_summary in specs}})
        keys = ["correction", "band"] + (["zone"] if order is not None else [])
        return pd.DataFrame(rows)[keys + ids]
    return evaluate


def metrics_for_band_group(correction_cols: list[str]):
    """map_groups fn over a per-band group of wide tile rows.

    Expects columns: band, tile_y, tile_x, pixels (original), luminance,
    one column per correction name in ``correction_cols`` and optionally
    ``zone_ids``, as an Arrow table (a pandas group is converted once).
    Flattens the group in tile order and runs ``array_evaluator`` on it.
    """
    evaluate = array_evaluator()

    def _eval(g: pa.Table | pd.DataFrame) -> pd.DataFrame:
        if isinstance(g, pd.DataFrame):
            g = pa.Table.from_pandas(g, preserve_index=False)
        g = tile_order(g)
        zones = (flat(g.column("zone_ids"))
                 if "zone_ids" in g.column_names else None)
        return evaluate(int(g.column("band")[0].as_py()),
                        flat(g.column("luminance")), flat(g.column("pixels")),
                        [(c, flat(g.column(c))) for c in correction_cols],
                        zones)
    return _eval
