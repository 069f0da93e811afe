"""Baseline JPEG codec (stages/jpeg.py): round-trips across the
supported configurations, spec-mechanics edge cases, and the
ahash-dedup pipeline over JPEG payloads via the sniffing Codec."""

import numpy as np
import pyarrow as pa
import pytest

from geoflow.stages.jpeg import decode_jpeg, encode_jpeg
from geoflow.stages.multimodal import Codec, ahash64


def _gradient_rgb(h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack([
        np.minimum(yy * 4, 255),
        np.minimum(xx * 3, 255),
        np.minimum((yy + xx) * 2, 255),
    ], axis=2).astype(np.uint8)


@pytest.mark.parametrize("subsample", [False, True])
@pytest.mark.parametrize("shape", [(48, 64), (45, 61), (8, 8), (7, 5)])
def test_roundtrip_rgb(subsample, shape):
    img = _gradient_rgb(*shape)
    data = encode_jpeg(img, quality=95, subsample=subsample)
    dec = decode_jpeg(data)
    assert dec.shape == img.shape
    err = np.abs(dec.astype(int) - img.astype(int))
    # smooth content at q95: tight bound even through 4:2:0 resampling
    assert err.max() <= (8 if subsample else 4), err.max()
    assert err.mean() <= 2.0


def test_roundtrip_gray():
    h, w = 40, 56
    yy, xx = np.mgrid[0:h, 0:w]
    g = np.minimum(yy * 3 + xx * 2, 255).astype(np.uint8)
    dec = decode_jpeg(encode_jpeg(g, quality=95))
    assert dec.shape == (h, w, 1)
    assert np.abs(dec[:, :, 0].astype(int) - g.astype(int)).max() <= 4


def test_restart_markers_roundtrip():
    img = _gradient_rgb(48, 64)
    plain = decode_jpeg(encode_jpeg(img, quality=95))
    rst = decode_jpeg(encode_jpeg(img, quality=95, restart_interval=3))
    # restart markers change the container, not the decoded pixels
    assert np.array_equal(plain, rst)


def test_quality_monotone():
    img = _gradient_rgb(48, 48)
    errs = []
    for q in (30, 60, 95):
        dec = decode_jpeg(encode_jpeg(img, quality=q))
        errs.append(float(np.abs(dec.astype(int) - img.astype(int)).mean()))
    assert errs[0] >= errs[1] >= errs[2]


def test_ff_byte_stuffing_in_stream():
    # saturated white blocks drive the entropy coder toward 0xFF bytes
    # (EOB + pad bits); the stuffed stream must still parse
    img = np.full((32, 32, 3), 255, np.uint8)
    dec = decode_jpeg(encode_jpeg(img, quality=95))
    assert np.abs(dec.astype(int) - 255).max() <= 2


def test_progressive_rejected():
    img = _gradient_rgb(16, 16)
    data = bytearray(encode_jpeg(img))
    i = data.find(b"\xff\xc0")
    data[i + 1] = 0xC2                     # flip SOF0 -> SOF2
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(data))


def test_encoder_emits_sof0_before_any_other_ffc0():
    """media_decode_error_stats turns its fixture JPEGs progressive by
    splicing SOF2 over the first ``FF C0`` in encode_jpeg's output, so
    that first match must be the SOF0 marker for every fixture image."""
    for i in range(31):
        img = ((np.arange(64, dtype=np.int64) * (i + 7)) % 256) \
            .astype(np.uint8).reshape(8, 8)[..., None].repeat(3, axis=2)
        data = encode_jpeg(img, quality=90)
        at = 2                                  # walk segments after SOI
        while data[at + 1] != 0xC0:
            assert data[at] == 0xFF and data[at + 1] != 0xDA, i
            at += 2 + int.from_bytes(data[at + 2:at + 4], "big")
        assert data.find(b"\xff\xc0") == at, i


def test_codec_sniffs_jpeg():
    img = _gradient_rgb(24, 24)
    dec = Codec().decode_image(encode_jpeg(img, quality=95))
    assert dec.shape == (24, 24, 3)


def test_ahash_dedup_over_jpeg_payloads(ray_session):
    """Near-identical images encoded as JPEG land in the same exact
    ahash group; a structurally different image stays out."""
    import json

    import ray.data as rd

    from geoflow.stages.multimodal import image_ahash_dup_groups

    base = _gradient_rgb(64, 64)
    variant = base.copy()
    variant[0, 0] = variant[0, 0] ^ 1      # one-LSB perturbation
    other = 255 - base                      # inverted: different hash
    payloads = [encode_jpeg(base, quality=95),
                encode_jpeg(variant, quality=95),
                encode_jpeg(other, quality=95)]
    tbl = pa.table({
        "media_id": pa.array([0, 1, 2], pa.int64()),
        "kind": pa.array(["image"] * 3, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta": pa.array([json.dumps({"width": 64, "height": 64,
                                      "channels": 3})] * 3, pa.string()),
    })
    groups = image_ahash_dup_groups(rd.from_arrow(tbl)).to_pandas()
    assert len(groups) == 1
    assert groups.iloc[0]["rep_id"] == 0
    assert groups.iloc[0]["n_images"] == 2
    # and the grouping agrees with hashing the decoded pixels directly
    h = [ahash64(decode_jpeg(p).mean(axis=2).astype(np.uint8))
         for p in payloads]
    assert h[0] == h[1] != h[2]
