"""GeoTIFF ingestion seam: reader vs hand-built byte layouts + round-trip
through the tile table and distributed terrain stage."""

import struct
import zlib

import numpy as np
import pytest

from geoflow.sources.geotiff import (geotiff_to_tile_table, read_geotiff,
                                     write_geotiff)


def _handmade_tiff(arr: np.ndarray, big_endian: bool = False,
                   tiled: bool = False, compress: bool = False) -> bytes:
    """Build TIFF bytes by hand (independent of write_geotiff) so the
    reader is tested against the spec, not against our own writer."""
    bo = ">" if big_endian else "<"
    h, w = arr.shape
    arr = arr.astype(f"{bo}f4")
    if tiled:
        tw = th = 16
        chunks = []
        for y0 in range(0, h, th):
            for x0 in range(0, w, tw):
                t = np.zeros((th, tw), dtype=f"{bo}f4")
                hh, ww = min(th, h - y0), min(tw, w - x0)
                t[:hh, :ww] = arr[y0:y0 + hh, x0:x0 + ww]
                chunks.append(t.tobytes())
    else:
        chunks = [arr.tobytes()]
    if compress:
        chunks = [zlib.compress(c) for c in chunks]

    tags = [
        (256, 4, [w]), (257, 4, [h]), (258, 3, [32]),
        (259, 3, [8 if compress else 1]), (262, 3, [1]),
        (277, 3, [1]), (339, 3, [3]),
    ]
    if tiled:
        tags += [(322, 4, [16]), (323, 4, [16])]
    else:
        tags += [(278, 4, [h])]
    # chunk offsets/counts appended after layout below
    n_chunks = len(chunks)
    off_tag = 324 if tiled else 273
    cnt_tag = 325 if tiled else 279
    tags += [(off_tag, 4, [0] * n_chunks), (cnt_tag, 4, [0] * n_chunks)]
    tags += [(33550, 12, [2.0, 3.0, 0.0]),
             (33922, 12, [0.0, 0.0, 0.0, 10.5, 48.25, 0.0])]
    tags.sort(key=lambda t: t[0])

    n = len(tags)
    ifd_off = 8
    data_off = ifd_off + 2 + 12 * n + 4
    sizes = {3: 2, 4: 4, 12: 8}
    blob = b""
    rendered = []
    chunk_offsets_pos = None
    for tag, ftype, vals in tags:
        size = sizes[ftype] * len(vals)
        fmt = {3: "H", 4: "I", 12: "d"}[ftype]
        raw = b"".join(struct.pack(bo + fmt, v) for v in vals)
        if size <= 4:
            rendered.append((tag, ftype, len(vals), raw.ljust(4, b"\x00")))
        else:
            if tag == off_tag:
                chunk_offsets_pos = data_off
            rendered.append((tag, ftype, len(vals),
                             struct.pack(bo + "I", data_off)))
            blob += raw
            data_off += size
    chunk_start = data_off
    offs, pos = [], chunk_start
    for c in chunks:
        offs.append(pos)
        pos += len(c)
    # patch offsets/counts into the blob
    blob = bytearray(blob)
    for tag, ftype, vals in tags:
        pass
    out = bytearray()
    out += (b"MM" if big_endian else b"II")
    out += struct.pack(bo + "HI", 42, ifd_off)
    out += struct.pack(bo + "H", n)
    for tag, ftype, count, payload4 in rendered:
        if tag == off_tag and count == 1:
            payload4 = struct.pack(bo + "I", offs[0])
        if tag == cnt_tag and count == 1:
            payload4 = struct.pack(bo + "I", len(chunks[0]))
        out += struct.pack(bo + "HHI", tag, ftype, count) + payload4
    out += struct.pack(bo + "I", 0)
    blob = bytearray(blob)
    # rewrite multi-chunk offset/count arrays inside the blob
    cursor = 0
    for tag, ftype, vals in tags:
        size = sizes[ftype] * len(vals)
        if size <= 4:
            continue
        if tag == off_tag:
            raw = b"".join(struct.pack(bo + "I", o) for o in offs)
            blob[cursor:cursor + size] = raw
        if tag == cnt_tag:
            raw = b"".join(struct.pack(bo + "I", len(c)) for c in chunks)
            blob[cursor:cursor + size] = raw
        cursor += size
    out += bytes(blob)
    for c in chunks:
        out += c
    return bytes(out)


@pytest.mark.parametrize("big_endian", [False, True])
@pytest.mark.parametrize("tiled", [False, True])
@pytest.mark.parametrize("compress", [False, True])
def test_read_handmade_layouts(tmp_path, big_endian, tiled, compress):
    rng = np.random.default_rng(3)
    arr = rng.normal(100, 20, size=(25, 30)).astype(np.float32)
    p = tmp_path / "t.tif"
    p.write_bytes(_handmade_tiff(arr, big_endian, tiled, compress))
    bands, meta = read_geotiff(str(p))
    assert bands.shape == (1, 25, 30)
    assert (bands[0] == arr).all()
    assert meta["ewres"] == 2.0 and meta["nsres"] == -3.0
    assert meta["lon0"] == 10.5 and meta["lat0"] == 48.25


def test_write_read_roundtrip_multiband(tmp_path):
    rng = np.random.default_rng(5)
    bands = rng.normal(50, 10, size=(3, 40, 33)).astype(np.float32)
    p = str(tmp_path / "mb.tif")
    write_geotiff(p, bands, pixel_scale=(0.5, 0.5),
                  tiepoint=(5.0, 53.0), nodata=-9999.0)
    back, meta = read_geotiff(p)
    assert back.shape == (3, 40, 33)
    assert (back == bands).all()
    assert meta["nodata_value"] == -9999.0
    assert meta["ewres"] == 0.5 and meta["nsres"] == -0.5


def test_geotiff_tile_table_terrain_parity(tmp_path, ray_session):
    """GeoTIFF -> tile table -> distributed slope == full-array oracle."""
    import ray.data as rd
    from geoflow.oracle import kernels as ok
    from geoflow.sources.tiles import synth_dem, tile_rows_to_raster
    from geoflow.stages.terrain import derive_terrain

    dem = synth_dem(48, 48, seed=7)
    p = str(tmp_path / "dem.tif")
    write_geotiff(p, dem, pixel_scale=(10.0, 10.0))
    table, meta = geotiff_to_tile_table(p, tile=16)
    out = derive_terrain(rd.from_arrow(table),
                         ewres=meta["ewres"], nsres=meta["nsres"]).to_pandas()
    slope = tile_rows_to_raster(out, "slope", 1, 48, 48)[0]
    exp = np.deg2rad(ok.zt_slope_degrees(dem, ewres=10.0, nsres=-10.0)
                     ).astype(np.float32)
    assert (slope == exp).all()
