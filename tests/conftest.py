import os
import struct
import zlib

import numpy as np
import pytest
import ray

os.environ.setdefault("RAY_DEDUP_LOGS", "0")


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    """One Ray session for the whole pytest run (4 CPUs, local)."""
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


SF_SMALL = "/root/testdata/sf0.001"
SF_MED = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def sf_small():
    return SF_SMALL


def _read_gray_png(data: bytes) -> np.ndarray:
    """8-bit grayscale PNG bytes -> (H, W) uint8, stdlib only. Checks the
    signature and every chunk CRC, requires IHDR colour type 0 and a
    filter byte of 0 on every scanline."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, ihdr, idat = 8, None, b""
    while pos < len(data):
        (n,) = struct.unpack(">I", data[pos:pos + 4])
        typ, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + n]
        (crc,) = struct.unpack(">I", data[pos + 8 + n:pos + 12 + n])
        assert crc == zlib.crc32(typ + body), typ
        if typ == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif typ == b"IDAT":
            idat += body
        pos += 12 + n
    w, h, depth, ctype, _comp, _filt, interlace = ihdr
    assert (depth, ctype, interlace) == (8, 0, 0)
    rows = np.frombuffer(zlib.decompress(idat), np.uint8).reshape(h, w + 1)
    assert (rows[:, 0] == 0).all()          # filter type 0 on every row
    return rows[:, 1:].copy()


@pytest.fixture(scope="session")
def read_gray_png():
    """The test-local grayscale PNG reader (session-scoped so hypothesis
    tests can use it)."""
    return _read_gray_png
