"""Raster tile table: synthesis + full-array <-> tile-row conversion.

Data model (SURVEY.md section 1.3): a multi-band raster is a Dataset of
tile rows::

    raster_id:string, band:int32, band_name:string,
    tile_y:int32, tile_x:int32, height:int32, width:int32,
    pixels:list<float32>          # row-major h*w band values
    dem_halo:list<float32>        # (h+2)*(w+2) DEM incl. 1-px halo
    nodata:list<bool>             # optional per-pixel NDV mask

The 1-pixel DEM halo bakes the neighbor context needed by the
Zevenbergen-Thorne slope/aspect stencil into the row, so terrain
derivation is a stateless ``map_batches`` with no tile-neighbor join.
At the raster boundary the halo is linear-extrapolated (``2*edge -
inner``, numpy's odd reflection), matching gdaldem's COMPUTE_EDGES
interpolation (reference runs gdal:slope/aspect with COMPUTE_EDGES=True,
``processing_alg/execution_context.py:193-262``).

The DEM halo is carried per band row (duplication factor = band count).
Trade-off documented for scale: B is small (4-12 for satellite imagery)
and the duplication buys join-free terrain kernels; the alternative — a
separate DEM dataset joined on (tile_y, tile_x) — is an all-to-all
exchange per pipeline run.

Synthesis follows FIXTURES.md F2: smooth Gaussian-hill DEM, band values
correlated with the illumination model so regression-based corrections
have well-conditioned fits, ~3% of pixels forced below the ignore
threshold, optional nodata speckle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..context import CorrectionContext, DEFAULT_CONTEXT

DEFAULT_TILE = 64


def synth_dem(height: int = 320, width: int = 320, seed: int = 42) -> np.ndarray:
    """Smooth synthetic terrain: 2-D Gaussians + gentle ramp, 0..2000 m."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width]
    dem = 0.4 * x + 0.25 * y  # gentle ramp
    for _ in range(8):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        sy, sx = rng.uniform(height / 12, height / 4), rng.uniform(width / 12, width / 4)
        amp = rng.uniform(200, 900)
        dem = dem + amp * np.exp(-(((y - cy) / sy) ** 2 + ((x - cx) / sx) ** 2))
    dem = dem - dem.min()
    dem = dem / dem.max() * 2000.0
    return dem.astype(np.float32)


def synth_bands(dem: np.ndarray, n_bands: int = 4, seed: int = 42,
                ctx: CorrectionContext = DEFAULT_CONTEXT,
                below_threshold_frac: float = 0.03) -> np.ndarray:
    """Reflectance-like bands correlated with the illumination model."""
    from ..oracle import kernels as ok

    rng = np.random.default_rng(seed + 1)
    slope = ok.zt_slope_radians(dem)
    aspect = ok.zt_aspect_radians(dem)
    lum = ok.luminance(slope, aspect, ctx)
    h, w = dem.shape
    yy, xx = np.mgrid[0:h, 0:w]
    albedo = 0.55 + 0.35 * np.sin(xx / w * 4.1) * np.cos(yy / h * 3.3)
    bands = np.empty((n_bands, h, w), dtype=np.float32)
    for b in range(n_bands):
        gain = 80.0 + 15.0 * b
        noise = rng.normal(0, 1.5, size=dem.shape)
        vals = gain * lum.astype(np.float64) * albedo + 30.0 + noise
        low = rng.random(dem.shape) < below_threshold_frac
        vals = np.where(low, rng.uniform(0.0, ctx.pixel_ignore_threshold, dem.shape), vals)
        bands[b] = vals.astype(np.float32)
    return bands


def synth_nodata(shape, seed: int = 42, frac: float = 0.005) -> np.ndarray:
    rng = np.random.default_rng(seed + 7)
    return rng.random(shape) < frac


def synth_zones(height: int, width: int, seed: int = 42) -> np.ndarray:
    """Classification map (FIXTURES.md F3): 4 contiguous blobs + one rare
    id confined to a single tile-sized patch (exercises small groups).
    Mirrors the reference's CLASSIFICATION_MAP (eval.py:128-141)."""
    rng = np.random.default_rng(seed + 13)
    y, x = np.mgrid[0:height, 0:width]
    zones = np.full((height, width), 1, dtype=np.int32)
    centers = [(height * 0.25, width * 0.3, 2), (height * 0.7, width * 0.2, 3),
               (height * 0.5, width * 0.75, 4)]
    for cy, cx, zid in centers:
        r = min(height, width) * rng.uniform(0.15, 0.3)
        zones[((y - cy) ** 2 + (x - cx) ** 2) < r * r] = zid
    zones[2:10, 2:10] = 9   # rare id, single small patch
    return zones


def halo_pad(dem: np.ndarray) -> np.ndarray:
    """Pad the full DEM by 1 px with linear extrapolation (odd reflect)."""
    return np.pad(dem.astype(np.float64), 1, mode="reflect", reflect_type="odd")


def tile_grid(height: int, width: int, tile: int):
    """Yield (tile_y, tile_x, y0, x0, h, w) covering the raster (ragged edges)."""
    for ty, y0 in enumerate(range(0, height, tile)):
        for tx, x0 in enumerate(range(0, width, tile)):
            yield ty, tx, y0, x0, min(tile, height - y0), min(tile, width - x0)


def raster_to_tile_table(bands: np.ndarray, dem: np.ndarray,
                         raster_id: str = "synt0",
                         tile: int = DEFAULT_TILE,
                         nodata: np.ndarray | None = None,
                         zones: np.ndarray | None = None,
                         band_names: list[str] | None = None) -> pa.Table:
    """Convert (B,H,W) band stack + (H,W) DEM into the tile-row table.

    ``zones`` (optional, (H,W) int32) carries the classification map as
    a per-pixel ``zone_ids`` column (reference CLASSIFICATION_MAP).
    """
    n_bands, height, width = bands.shape
    band_names = band_names or [f"B{b + 1:02d}" for b in range(n_bands)]
    padded = halo_pad(dem).astype(np.float32)
    cols: dict[str, list] = {k: [] for k in (
        "raster_id", "band", "band_name", "tile_y", "tile_x",
        "height", "width", "pixels", "dem_halo", "nodata", "zone_ids")}
    for ty, tx, y0, x0, h, w in tile_grid(height, width, tile):
        hal = padded[y0:y0 + h + 2, x0:x0 + w + 2].ravel()
        nd = (nodata[y0:y0 + h, x0:x0 + w].ravel()
              if nodata is not None else np.zeros(h * w, dtype=bool))
        zn = (zones[y0:y0 + h, x0:x0 + w].ravel()
              if zones is not None else None)
        for b in range(n_bands):
            cols["raster_id"].append(raster_id)
            cols["band"].append(b)
            cols["band_name"].append(band_names[b])
            cols["tile_y"].append(ty)
            cols["tile_x"].append(tx)
            cols["height"].append(h)
            cols["width"].append(w)
            cols["pixels"].append(bands[b, y0:y0 + h, x0:x0 + w].ravel())
            cols["dem_halo"].append(hal)
            cols["nodata"].append(nd)
            cols["zone_ids"].append(zn)
    out = {
        "raster_id": pa.array(cols["raster_id"], pa.string()),
        "band": pa.array(cols["band"], pa.int32()),
        "band_name": pa.array(cols["band_name"], pa.string()),
        "tile_y": pa.array(cols["tile_y"], pa.int32()),
        "tile_x": pa.array(cols["tile_x"], pa.int32()),
        "height": pa.array(cols["height"], pa.int32()),
        "width": pa.array(cols["width"], pa.int32()),
        "pixels": pa.array([p for p in cols["pixels"]], pa.list_(pa.float32())),
        "dem_halo": pa.array([p for p in cols["dem_halo"]], pa.list_(pa.float32())),
        "nodata": pa.array([p.tolist() for p in cols["nodata"]], pa.list_(pa.bool_())),
    }
    if zones is not None:
        out["zone_ids"] = pa.array([z for z in cols["zone_ids"]],
                                   pa.list_(pa.int32()))
    return pa.table(out)


def tile_rows_to_raster(df, column: str, n_bands: int,
                        height: int, width: int) -> np.ndarray:
    """Reassemble a (B,H,W) array from tile rows (pandas DataFrame)."""
    out = np.full((n_bands, height, width), np.nan, dtype=np.float32)
    tile_h = int(df["height"].max())
    tile_w = int(df["width"].max())
    for row in df.itertuples(index=False):
        y0 = row.tile_y * tile_h
        x0 = row.tile_x * tile_w
        vals = np.asarray(getattr(row, column), dtype=np.float32)
        out[row.band, y0:y0 + row.height, x0:x0 + row.width] = \
            vals.reshape(row.height, row.width)
    return out


def read_asc_grid(path: str) -> tuple[np.ndarray, dict]:
    """Read an Arc/Info ASCII grid (.asc) — the real-raster ingestion
    seam (no GDAL in this environment; rasterio/GDAL can be slotted in
    behind the same tile-table contract via ``raster_to_tile_table``).

    Handles NCOLS/NROWS, XLLCENTER|XLLCORNER / YLLCENTER|YLLCORNER,
    CELLSIZE or DX/DY, and NODATA_VALUE (reference fixture:
    ``test/tenbytenraster.asc`` — NODATA -9999 on line 7). Returns
    (float32 array row-major north-up, header dict with lowercase keys
    incl. ``ewres``/``nsres`` in GDAL convention).
    """
    headers: dict[str, float] = {}
    data_rows: list[np.ndarray] = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if (len(parts) == 2 and key[0].isalpha()
                    and not data_rows):
                try:
                    headers[key] = float(parts[1])
                    continue
                except ValueError:
                    continue
            try:
                data_rows.append(np.array(parts, dtype=np.float64))
            except ValueError:
                continue   # trailing non-numeric lines (CRS notes etc.)
    arr = np.vstack(data_rows).astype(np.float32)
    ncols = int(headers.get("ncols", arr.shape[1]))
    nrows = int(headers.get("nrows", arr.shape[0]))
    if arr.shape != (nrows, ncols):
        raise ValueError(f"asc grid shape {arr.shape} != header "
                         f"({nrows}, {ncols})")
    cell = headers.get("cellsize")
    headers["ewres"] = headers.get("dx", cell or 1.0)
    headers["nsres"] = -headers.get("dy", cell or 1.0)
    return arr, headers


def asc_to_tile_table(path: str, tile: int = DEFAULT_TILE,
                      raster_id: str | None = None) -> tuple[pa.Table, dict]:
    """.asc grid -> engine tile table (grid doubles as its own DEM).

    The NODATA mask rides along as the ``nodata`` column; terrain
    kernels receive the raw values (GDAL's behavior with
    COMPUTE_EDGES when NDV pixels are absent from the stencil)."""
    import os

    arr, meta = read_asc_grid(path)
    rid = raster_id or os.path.splitext(os.path.basename(path))[0]
    ndv = meta.get("nodata_value")
    nodata = (arr == np.float32(ndv)) if ndv is not None else None
    table = raster_to_tile_table(arr[None, ...], arr, raster_id=rid,
                                 tile=tile, nodata=nodata)
    return table, meta

