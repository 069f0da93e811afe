"""Report sinks: rose-diagram SVG, correlation-histogram PNG, xlsx export.

Engine counterparts of the reference's render/export layer — the last
uncovered SURVEY.md §2 sinks:

- polar rose plots  (ref ``rose_diagram_eval.py:113-194``),
- correlation histogram images (ref ``plot_correlation_eval.py:36-123``,
  GeoTIFF histogram export ``correlation_eval.py:56-70``),
- xlsx metric workbook (ref ``multi_criteria_eval.py:231-265``).

All sinks are DRIVER-SIDE over aggregate-sized inputs (the distributed
pipelines reduce first; rendering never touches row-scale data) and
dependency-free: SVG is emitted as text, PNG is one grayscale image
written with stdlib zlib (``_encode_gray_png``), and xlsx is the
minimal OOXML package written with stdlib zipfile — no matplotlib /
openpyxl in this environment.
"""

from __future__ import annotations

import math
import struct
import zipfile
import zlib
from xml.sax.saxutils import escape

import numpy as np
import pandas as pd

_PALETTE = ["#4878a8", "#d07030", "#58a058", "#b05060", "#8868b0",
            "#a09048", "#489890", "#c06890"]


def render_rose_svg(rose_df: pd.DataFrame, band: int, path: str,
                    aspect_groups: int = 36, size: int = 480) -> str:
    """Polar rose: one wedge per aspect bin, radius ~ mean value, one
    colored series per slope bin (ref rose_diagram_eval.py:113-194
    renders the same grouped means as matplotlib polar bars)."""
    d = rose_df[rose_df["band"] == band]
    cx = cy = size / 2
    rmax = size * 0.42
    vmax = float(d["mean_value"].max()) if len(d) else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for frac in (0.25, 0.5, 0.75, 1.0):    # radial grid
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{rmax * frac:.1f}" '
                     'fill="none" stroke="#ddd"/>')
    wedge = 2 * math.pi / aspect_groups
    for r in d.itertuples(index=False):
        radius = rmax * (float(r.mean_value) / vmax if vmax else 0)
        # compass convention: aspect 0 = north, clockwise
        a0 = -math.pi / 2 + r.aspect_bin * wedge
        a1 = a0 + wedge
        x0, y0 = cx + radius * math.cos(a0), cy + radius * math.sin(a0)
        x1, y1 = cx + radius * math.cos(a1), cy + radius * math.sin(a1)
        color = _PALETTE[int(r.slope_bin) % len(_PALETTE)]
        parts.append(
            f'<path d="M{cx:.1f},{cy:.1f} L{x0:.1f},{y0:.1f} '
            f'A{radius:.1f},{radius:.1f} 0 0 1 {x1:.1f},{y1:.1f} Z" '
            f'fill="{color}" fill-opacity="0.55" stroke="{color}"/>')
    parts.append(f'<text x="8" y="16" font-family="sans-serif" '
                 f'font-size="13">band {band} rose diagram</text>')
    parts.append("</svg>")
    svg = "\n".join(parts)
    with open(path, "w") as f:
        f.write(svg)
    return path


def _encode_gray_png(gray: np.ndarray) -> bytes:
    """(H, W) uint8 -> 8-bit grayscale PNG bytes (IHDR colour type 0,
    filter-0 scanlines, one zlib IDAT chunk)."""
    h, w = gray.shape

    def chunk(typ: bytes, payload: bytes) -> bytes:
        return (len(payload).to_bytes(4, "big") + typ + payload
                + zlib.crc32(typ + payload).to_bytes(4, "big"))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + gray[y].tobytes() for y in range(h))
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


def render_correlation_png(hist: np.ndarray, path: str) -> str:
    """2-D histogram -> log-scaled grayscale PNG (ref writes the
    transposed histogram as a GeoTIFF rotated 180°,
    correlation_eval.py:56-70; the rotation is reproduced)."""
    h = np.asarray(hist, dtype=np.float64)
    if h.ndim == 1:
        n = int(round(math.sqrt(h.size)))
        h = h.reshape(n, n)
    img = np.log1p(h)
    mx = img.max() or 1.0
    gray = (255 * (1.0 - img / mx)).astype(np.uint8)   # dark = dense
    gray = gray[::-1, ::-1]                            # the 180° rotation
    with open(path, "wb") as f:
        f.write(_encode_gray_png(np.ascontiguousarray(gray)))
    return path


def write_histogram_geotiff(hist: np.ndarray, path: str) -> str:
    """2-D histogram -> single-band float32 GeoTIFF, vertically flipped
    exactly like the reference's correlation export
    (correlation_eval.py:56-70: ``band.WriteArray(histogram[::-1, :])``
    — the comment there says "rotate 180°" but the code flips rows
    only; the flip, not the comment, is what we reproduce). Pairs with
    ``render_correlation_png`` as the reference's native raster target
    for the correlation evaluation."""
    from ..sources.geotiff import write_geotiff

    h = np.asarray(hist, dtype=np.float64)
    if h.ndim == 1:
        n = int(round(math.sqrt(h.size)))
        h = h.reshape(n, n)
    return write_geotiff(path, h[::-1, :].astype(np.float32))


def write_xlsx(path: str, sheets: dict[str, pd.DataFrame]) -> str:
    """Minimal OOXML workbook (inline strings; one worksheet per entry) —
    the reference's metric export target (multi_criteria_eval.py:231-265)
    without an openpyxl dependency."""
    def col_name(i: int) -> str:
        out = ""
        i += 1
        while i:
            i, r = divmod(i - 1, 26)
            out = chr(65 + r) + out
        return out

    def sheet_xml(df: pd.DataFrame) -> str:
        rows = []
        header = "".join(
            f'<c r="{col_name(j)}1" t="inlineStr"><is><t>'
            f"{escape(str(c))}</t></is></c>"
            for j, c in enumerate(df.columns))
        rows.append(f'<row r="1">{header}</row>')
        for i, tup in enumerate(df.itertuples(index=False), start=2):
            cells = []
            for j, v in enumerate(tup):
                ref = f"{col_name(j)}{i}"
                if isinstance(v, (int, float, np.integer, np.floating)) \
                        and not isinstance(v, bool) and pd.notna(v):
                    cells.append(f'<c r="{ref}"><v>{v}</v></c>')
                else:
                    cells.append(f'<c r="{ref}" t="inlineStr"><is><t>'
                                 f"{escape(str(v))}</t></is></c>")
            rows.append(f'<row r="{i}">{"".join(cells)}</row>')
        return ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                '<worksheet xmlns="http://schemas.openxmlformats.org/'
                'spreadsheetml/2006/main"><sheetData>'
                + "".join(rows) + "</sheetData></worksheet>")

    names = list(sheets)
    ct = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
          '<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
          'content-types">'
          '<Default Extension="rels" ContentType="application/vnd.'
          'openxmlformats-package.relationships+xml"/>'
          '<Default Extension="xml" ContentType="application/xml"/>'
          '<Override PartName="/xl/workbook.xml" ContentType="application/'
          'vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
          + "".join(
              f'<Override PartName="/xl/worksheets/sheet{i + 1}.xml" '
              'ContentType="application/vnd.openxmlformats-officedocument.'
              'spreadsheetml.worksheet+xml"/>' for i in range(len(names)))
          + "</Types>")
    root_rels = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                 '<Relationships xmlns="http://schemas.openxmlformats.org/'
                 'package/2006/relationships">'
                 '<Relationship Id="rId1" Type="http://schemas.'
                 'openxmlformats.org/officeDocument/2006/relationships/'
                 'officeDocument" Target="xl/workbook.xml"/></Relationships>')
    wb = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
          '<workbook xmlns="http://schemas.openxmlformats.org/'
          'spreadsheetml/2006/main" xmlns:r="http://schemas.'
          'openxmlformats.org/officeDocument/2006/relationships"><sheets>'
          + "".join(
              f'<sheet name="{escape(n)[:31]}" sheetId="{i + 1}" '
              f'r:id="rId{i + 1}"/>' for i, n in enumerate(names))
          + "</sheets></workbook>")
    wb_rels = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
               '<Relationships xmlns="http://schemas.openxmlformats.org/'
               'package/2006/relationships">'
               + "".join(
                   f'<Relationship Id="rId{i + 1}" Type="http://schemas.'
                   'openxmlformats.org/officeDocument/2006/relationships/'
                   f'worksheet" Target="worksheets/sheet{i + 1}.xml"/>'
                   for i in range(len(names)))
               + "</Relationships>")
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr("[Content_Types].xml", ct)
        z.writestr("_rels/.rels", root_rels)
        z.writestr("xl/workbook.xml", wb)
        z.writestr("xl/_rels/workbook.xml.rels", wb_rels)
        for i, n in enumerate(names):
            z.writestr(f"xl/worksheets/sheet{i + 1}.xml",
                       sheet_xml(sheets[n]))
    return path


def render_full_report(out_dir: str, rose_df: pd.DataFrame,
                       corr_df: pd.DataFrame,
                       rank_df: pd.DataFrame) -> dict[str, list[str]]:
    """One-call report: rose SVG per band, correlation PNG per band,
    xlsx workbook of the rank table. All inputs are the small grouped
    results of the distributed pipelines."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    out: dict[str, list[str]] = {"rose_svg": [], "correlation_png": [],
                                 "xlsx": []}
    for band in sorted(rose_df["band"].unique()):
        out["rose_svg"].append(render_rose_svg(
            rose_df, int(band), f"{out_dir}/rose_band{band}.svg"))
    out["correlation_tif"] = []
    for r in corr_df.itertuples(index=False):
        out["correlation_png"].append(render_correlation_png(
            np.asarray(r.hist), f"{out_dir}/correlation_band{r.band}.png"))
        out["correlation_tif"].append(write_histogram_geotiff(
            np.asarray(r.hist), f"{out_dir}/correlation_band{r.band}.tif"))
    out["xlsx"].append(write_xlsx(f"{out_dir}/rank.xlsx",
                                  {"scores": rank_df}))
    return out
