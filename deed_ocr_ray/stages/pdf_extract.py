"""Deterministic PDF layout-parse branch.

From-scratch minimal PDF text extractor (no PDF library exists in this
environment): recovers page objects, orders them by the ``/Kids`` array,
decodes (optionally Flate-compressed) content streams, and reconstructs
text from ``Tj`` / ``TJ`` show operators — the pdfminer-style
region-ordering analogue of the reference's page rasterize + per-page
OCR loop (deed_ocr/utils/pdf_converter.py:28-68 rasterizer;
deed_ocr/ocr/vision_ocr.py:208-276 per-page OCR fold).

Semantics carried over:
  * per-page fault absorption: an unparsable page contributes an empty
    page, never an exception (deed_ocr/workflow.py:262-282);
  * page texts are assembled with ``--- Page {n} ---`` separators
    (deed_ocr/workflow.py:220-221 convention);
  * zero recoverable pages from a ``%PDF`` payload -> error row with
    ``error_type="pdf_parse_error"`` (the retry_needed analogue).

Line texts are normalized via ``normalize_inline`` and pages contain only
single newlines between non-empty lines, so the assembled document is a
fixed point of ``normalize_text`` and span offsets stay valid.
"""

from __future__ import annotations

import re
import zlib
from typing import Dict, List, Optional, Tuple

import pyarrow as pa

from ..functions.normalize import normalize_inline

OBJ_RE = re.compile(rb"(\d+)\s+\d+\s+obj\b(.*?)endobj", re.S)
PAGE_TYPE_RE = re.compile(rb"/Type\s*/Page\b")
PAGES_TYPE_RE = re.compile(rb"/Type\s*/Pages\b")
KIDS_RE = re.compile(rb"/Kids\s*\[((?:\s*\d+\s+\d+\s+R)*)\s*\]")
KID_REF_RE = re.compile(rb"(\d+)\s+\d+\s+R")
CONTENTS_RE = re.compile(rb"/Contents\s+(\d+)\s+\d+\s+R")
FLATE_RE = re.compile(rb"/Filter\s*/FlateDecode")
STREAM_RE = re.compile(rb"stream\r?\n(.*?)(?:\r?\n)?endstream", re.S)

BT_ET_RE = re.compile(rb"BT(.*?)ET", re.S)
# ( .. ) Tj | [ .. ] TJ | Td/TD/T* (line advance, operands captured for
# geometry) | Tm (text matrix: e,f = absolute origin) | Tf (font size) |
# TL (leading). The TEXT path ignores the Tm/Tf/TL alternatives, so its
# output is byte-identical to the pre-geometry parser (golden-frozen).
SHOW_RE = re.compile(
    rb"\((?P<tj>(?:[^()\\]|\\.)*)\)\s*(?:Tj|')"
    rb"|\[(?P<tjarr>(?:\((?:[^()\\]|\\.)*\)|[^\]\(])*)\]\s*TJ"
    rb"|(?:(?P<tdx>-?[\d.]+)\s+(?P<tdy>-?[\d.]+)\s+)?(?P<mv>T\*|Td|TD)"
    rb"|(?:-?[\d.]+\s+){4}(?P<tmx>-?[\d.]+)\s+(?P<tmy>-?[\d.]+)\s+Tm"
    rb"|/\w+\s+(?P<tf>[\d.]+)\s+Tf"
    rb"|(?P<tl>-?[\d.]+)\s+TL",
    re.S,
)
MEDIABOX_RE = re.compile(
    rb"/MediaBox\s*\[\s*(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+)\s*\]"
)
IN_ARRAY_STR_RE = re.compile(rb"\(((?:[^()\\]|\\.)*)\)")

_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\x0c",
    b"(": b"(", b")": b")", b"\\": b"\\",
}
_ESC_RE = re.compile(rb"\\([0-7]{1,3}|.)", re.S)


def _unescape_pdf_string(raw: bytes) -> str:
    def sub(m: "re.Match[bytes]") -> bytes:
        g = m.group(1)
        if g.isdigit() and all(c in b"01234567" for c in g):
            return bytes([int(g, 8) & 0xFF])
        return _ESCAPES.get(g, g)

    return _ESC_RE.sub(sub, raw).decode("latin-1", errors="replace")


def _stream_text(data: bytes) -> str:
    """Reconstruct text from one content stream's BT..ET show operators.

    A ``Td``/``TD``/``T*`` between show ops starts a new line; strings
    within one ``TJ`` array concatenate (kerning numbers ignored).
    """
    lines: List[str] = []
    cur: List[str] = []
    pending_newline = False
    for block in BT_ET_RE.finditer(data):
        for m in SHOW_RE.finditer(block.group(1)):
            if m.group("mv") is not None:  # Td / TD / T*
                pending_newline = True
                continue
            if m.group("tj") is None and m.group("tjarr") is None:
                continue  # Tm/Tf/TL: geometry-only, no text effect
            if pending_newline and cur:
                lines.append("".join(cur))
                cur = []
            pending_newline = False
            if m.group("tj") is not None:  # (..) Tj
                cur.append(_unescape_pdf_string(m.group("tj")))
            else:  # [ .. ] TJ
                for s in IN_ARRAY_STR_RE.finditer(m.group("tjarr")):
                    cur.append(_unescape_pdf_string(s.group(1)))
    if cur:
        lines.append("".join(cur))
    return "\n".join(lines)


def parse_pdf_pages(raw: bytes) -> Tuple[List[str], int]:
    """Extract ordered per-page texts from PDF bytes.

    Returns ``(page_texts, n_pages_declared)``. Total function: any input
    yields a (possibly empty) list. Page texts are normalized per line;
    empty lines dropped.
    """
    objs: Dict[int, bytes] = {}
    for m in OBJ_RE.finditer(raw):
        try:
            objs[int(m.group(1))] = m.group(2)
        except ValueError:  # pragma: no cover
            continue

    page_ids: List[int] = []
    declared = 0
    for oid, body in objs.items():
        if PAGES_TYPE_RE.search(body):
            km = KIDS_RE.search(body)
            if km:
                page_ids = [int(r.group(1)) for r in KID_REF_RE.finditer(km.group(1))]
            cm = re.search(rb"/Count\s+(\d+)", body)
            if cm:
                declared = int(cm.group(1))
            break
    if not page_ids:  # fallback: /Page objects in id order (tolerance)
        page_ids = sorted(
            oid for oid, body in objs.items()
            if PAGE_TYPE_RE.search(body) and not PAGES_TYPE_RE.search(body)
        )

    texts: List[str] = []
    for pid in page_ids:
        texts.append(_page_text(objs, pid))
    return texts, declared or len(texts)


def _page_stream(objs: Dict[int, bytes], page_oid: int) -> Optional[bytes]:
    """Decoded content-stream bytes of one page, or None on any fault."""
    body = objs.get(page_oid)
    if body is None:
        return None
    cm = CONTENTS_RE.search(body)
    if cm is None:
        return None
    cobj = objs.get(int(cm.group(1)))
    if cobj is None:
        return None
    sm = STREAM_RE.search(cobj)
    if sm is None:
        return None
    data = sm.group(1)
    if FLATE_RE.search(cobj):
        try:
            data = zlib.decompress(data)
        except zlib.error:
            return None
    return data


def _page_text(objs: Dict[int, bytes], page_oid: int) -> str:
    """Text of one page; absorbs every per-page failure into ''. """
    data = _page_stream(objs, page_oid)
    if data is None:
        return ""
    raw_text = _stream_text(data)
    lines = [normalize_inline(ln) for ln in raw_text.split("\n")]
    return "\n".join(ln for ln in lines if ln)


# ----------------------------------------------------- layout hierarchy (M6)
#
# The reference's detailed OCR emits page→block→paragraph→word→symbol
# with per-node confidences AND bboxes plus per-page width/height
# (deed_ocr/ocr/vision_ocr.py:292-342 hierarchy, 296-300 page dims;
# deed_ocr/models/layout.py:9-27 bbox=[x1,y1,x2,y2]). The deterministic
# parser analogue: page→block (one BT..ET text object)→line→word nested
# structs. Model confidences don't exist here, so each node carries a
# deterministic character-class confidence (alnum ratio, averaged
# upward). Geometry: line ORIGINS are exact (tracked from the content
# stream's Td/TD/T*/Tm operands and the Tf font size); word/line
# EXTENTS are estimated with a fixed 0.5 em advance per char (embedded
# font metrics are out of scope), so bboxes are [x1, baseline_y,
# x2, baseline_y + size] in PDF user space (y up). Swap `_word_conf`
# for a model score and the advance for real metrics when they exist.

BBOX_TYPE = pa.list_(pa.float64(), 4)  # [x1, y1, x2, y2], PDF user space
LAYOUT_WORD_TYPE = pa.struct([
    ("text", pa.string()), ("conf", pa.float64()), ("bbox", BBOX_TYPE),
])
LAYOUT_LINE_TYPE = pa.struct([
    ("text", pa.string()), ("conf", pa.float64()), ("bbox", BBOX_TYPE),
    ("words", pa.list_(LAYOUT_WORD_TYPE)),
])
LAYOUT_BLOCK_TYPE = pa.struct([
    ("text", pa.string()), ("conf", pa.float64()), ("bbox", BBOX_TYPE),
    ("lines", pa.list_(LAYOUT_LINE_TYPE)),
])
LAYOUT_PAGE_TYPE = pa.struct([
    ("page_number", pa.int32()), ("n_blocks", pa.int32()),
    ("width", pa.float64()), ("height", pa.float64()),
    ("blocks", pa.list_(LAYOUT_BLOCK_TYPE)),
])
LAYOUT_TYPE = pa.list_(LAYOUT_PAGE_TYPE)

_EM_ADVANCE = 0.5       # estimated glyph advance, fraction of font size
_DEFAULT_SIZE = 12.0
_DEFAULT_PAGE = (612.0, 792.0)  # US Letter, the /MediaBox fallback


def _word_conf(w: str) -> float:
    return round(sum(c.isalnum() for c in w) / len(w), 3) if w else 0.0


def _stream_layout(data: bytes) -> List[List[Dict]]:
    """Per-BT..ET-block normalized lines WITH geometry. Unlike
    :func:`_stream_text` (which lets show strings join across text
    objects — the canonical TEXT path, frozen by goldens), the layout
    view flushes at every block boundary: a BT..ET object IS the block
    node. Each line dict carries ``text`` (normalized), ``x``/``y``
    (exact origin at its first show op) and ``size`` (current Tf font
    size). Font size and leading persist across BT blocks (graphics
    state); the origin resets at BT (text matrix reset)."""
    blocks: List[List[Dict]] = []
    size = _DEFAULT_SIZE
    leading = 0.0
    for block in BT_ET_RE.finditer(data):
        x = y = 0.0
        lines: List[Dict] = []
        cur: List[str] = []
        origin = (0.0, 0.0, size)
        pending = False

        def flush() -> None:
            nonlocal cur
            if cur:
                lines.append({"raw": "".join(cur),
                              "x": origin[0], "y": origin[1],
                              "size": origin[2]})
                cur = []

        for m in SHOW_RE.finditer(block.group(1)):
            if m.group("mv") is not None:  # Td / TD / T*
                pending = True
                op = m.group("mv")
                if op == b"T*":
                    y -= leading
                else:
                    try:
                        tx = float(m.group("tdx") or 0.0)
                        ty = float(m.group("tdy") or 0.0)
                    except ValueError:
                        tx = ty = 0.0
                    if op == b"TD":
                        leading = -ty
                    x += tx
                    y += ty
                continue
            if m.group("tmx") is not None:  # Tm: absolute origin
                pending = True
                try:
                    x, y = float(m.group("tmx")), float(m.group("tmy"))
                except ValueError:
                    pass
                continue
            if m.group("tf") is not None:
                try:
                    size = float(m.group("tf"))
                except ValueError:
                    pass
                continue
            if m.group("tl") is not None:
                try:
                    leading = float(m.group("tl"))
                except ValueError:
                    pass
                continue
            if pending and cur:
                flush()
            pending = False
            if not cur:
                origin = (x, y, size)
            if m.group("tj") is not None:
                cur.append(_unescape_pdf_string(m.group("tj")))
            else:
                for s in IN_ARRAY_STR_RE.finditer(m.group("tjarr")):
                    cur.append(_unescape_pdf_string(s.group(1)))
        flush()
        norm = [
            {"text": normalize_inline(ln["raw"]), "x": ln["x"], "y": ln["y"],
             "size": ln["size"]}
            for ln in lines
        ]
        norm = [ln for ln in norm if ln["text"]]
        if norm:
            blocks.append(norm)
    return blocks


def parse_pdf_layout(raw: bytes) -> List[Dict]:
    """Nested layout hierarchy from PDF bytes: one dict per page
    (``page_number``, ``n_blocks``, ``width``/``height`` from the
    page's /MediaBox, ``blocks`` → ``lines`` → ``words``, every node
    with ``text``, ``conf`` and ``bbox`` — exact line origins from the
    content stream, extents estimated at 0.5 em/char). Total function:
    any input yields a (possibly empty) list; an unparsable page yields
    a page node with zero blocks — per-page fault absorption like
    :func:`parse_pdf_pages`."""
    objs: Dict[int, bytes] = {}
    for m in OBJ_RE.finditer(raw):
        try:
            objs[int(m.group(1))] = m.group(2)
        except ValueError:  # pragma: no cover
            continue
    page_ids: List[int] = []
    for oid, body in objs.items():
        if PAGES_TYPE_RE.search(body):
            km = KIDS_RE.search(body)
            if km:
                page_ids = [int(r.group(1)) for r in KID_REF_RE.finditer(km.group(1))]
            break
    if not page_ids:
        page_ids = sorted(
            oid for oid, body in objs.items()
            if PAGE_TYPE_RE.search(body) and not PAGES_TYPE_RE.search(body)
        )

    pages: List[Dict] = []
    for pno, pid in enumerate(page_ids, start=1):
        body = objs.get(pid, b"")
        mb = MEDIABOX_RE.search(body)
        if mb:
            x1, y1, x2, y2 = (float(mb.group(i)) for i in range(1, 5))
            page_w, page_h = x2 - x1, y2 - y1
        else:
            page_w, page_h = _DEFAULT_PAGE
        data = _page_stream(objs, pid)
        block_lines = _stream_layout(data) if data is not None else []
        blocks = []
        for lines in block_lines:
            line_nodes = []
            for ln in lines:
                adv = _EM_ADVANCE * ln["size"]
                y0, y1b = ln["y"], ln["y"] + ln["size"]
                words = []
                cpos = 0  # chars before this word in the normalized line
                for w in ln["text"].split():
                    wx1 = round(ln["x"] + adv * cpos, 2)
                    wx2 = round(wx1 + adv * len(w), 2)
                    words.append({"text": w, "conf": _word_conf(w),
                                  "bbox": [wx1, y0, wx2, y1b]})
                    cpos += len(w) + 1  # the single joining space
                line_conf = (
                    round(sum(w["conf"] for w in words) / len(words), 3)
                    if words else 0.0
                )
                lx2 = words[-1]["bbox"][2] if words else round(ln["x"], 2)
                line_nodes.append({
                    "text": ln["text"], "conf": line_conf,
                    "bbox": [round(ln["x"], 2), y0, lx2, y1b],
                    "words": words,
                })
            block_conf = (
                round(sum(l["conf"] for l in line_nodes) / len(line_nodes), 3)
                if line_nodes else 0.0
            )
            bxs = [l["bbox"] for l in line_nodes]
            block_bbox = [min(b[0] for b in bxs), min(b[1] for b in bxs),
                          max(b[2] for b in bxs), max(b[3] for b in bxs)] \
                if bxs else [0.0, 0.0, 0.0, 0.0]
            blocks.append({
                "text": "\n".join(l["text"] for l in line_nodes),
                "conf": block_conf,
                "bbox": block_bbox,
                "lines": line_nodes,
            })
        pages.append({
            "page_number": pno,
            "n_blocks": len(blocks),
            "width": page_w,
            "height": page_h,
            "blocks": blocks,
        })
    return pages


class PdfLayoutStage:
    """Batch stage: pages table in → layout hierarchy out.

    ``flatten=False`` emits one row per input PDF with the full nested
    ``layout`` column (:data:`LAYOUT_TYPE` — the vision_ocr.py:292-342
    structure analogue). ``flatten=True`` explodes to one row per WORD
    (url, page_number, block_idx, line_idx, word_idx, word, word_conf,
    line_conf, block_conf, x1, y1, x2, y2, page_width, page_height) —
    the SQL-friendly projection with the word bbox and page dims.
    Non-PDF rows are dropped (this stage is the pdf-branch detail view;
    the dispatching Extractor remains the canonical path)."""

    def __init__(self, flatten: bool = True) -> None:
        self.flatten = flatten

    def __call__(self, t: pa.Table) -> pa.Table:
        urls: List[str] = []
        layouts: List[List[Dict]] = []
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            if html is None or not bytes(html).startswith(b"%PDF"):
                continue
            urls.append(url)
            layouts.append(parse_pdf_layout(bytes(html)))
        if not self.flatten:
            return pa.table({
                "url": pa.array(urls, type=pa.string()),
                "layout": pa.array(layouts, type=LAYOUT_TYPE),
            })
        cols: Dict[str, List] = {k: [] for k in (
            "url", "page_number", "block_idx", "line_idx", "word_idx",
            "word", "word_conf", "line_conf", "block_conf",
            "x1", "y1", "x2", "y2", "page_width", "page_height")}
        for url, pages in zip(urls, layouts):
            for page in pages:
                for bi, block in enumerate(page["blocks"]):
                    for li, line in enumerate(block["lines"]):
                        for wi, word in enumerate(line["words"]):
                            cols["url"].append(url)
                            cols["page_number"].append(page["page_number"])
                            cols["block_idx"].append(bi)
                            cols["line_idx"].append(li)
                            cols["word_idx"].append(wi)
                            cols["word"].append(word["text"])
                            cols["word_conf"].append(word["conf"])
                            cols["line_conf"].append(line["conf"])
                            cols["block_conf"].append(block["conf"])
                            cols["x1"].append(word["bbox"][0])
                            cols["y1"].append(word["bbox"][1])
                            cols["x2"].append(word["bbox"][2])
                            cols["y2"].append(word["bbox"][3])
                            cols["page_width"].append(page["width"])
                            cols["page_height"].append(page["height"])
        return pa.table({
            "url": pa.array(cols["url"], type=pa.string()),
            "page_number": pa.array(cols["page_number"], type=pa.int32()),
            "block_idx": pa.array(cols["block_idx"], type=pa.int32()),
            "line_idx": pa.array(cols["line_idx"], type=pa.int32()),
            "word_idx": pa.array(cols["word_idx"], type=pa.int32()),
            "word": pa.array(cols["word"], type=pa.string()),
            "word_conf": pa.array(cols["word_conf"], type=pa.float64()),
            "line_conf": pa.array(cols["line_conf"], type=pa.float64()),
            "block_conf": pa.array(cols["block_conf"], type=pa.float64()),
            "x1": pa.array(cols["x1"], type=pa.float64()),
            "y1": pa.array(cols["y1"], type=pa.float64()),
            "x2": pa.array(cols["x2"], type=pa.float64()),
            "y2": pa.array(cols["y2"], type=pa.float64()),
            "page_width": pa.array(cols["page_width"], type=pa.float64()),
            "page_height": pa.array(cols["page_height"], type=pa.float64()),
        })


def assemble_pages(page_texts: List[str]) -> Tuple[str, List[Tuple[str, int, int, float]]]:
    """Join page texts with the reference's ``--- Page {n} ---`` headers
    (deed_ocr/workflow.py:220-221) and emit one char-span per page
    covering that page's body text in the assembled string."""
    parts: List[str] = []
    spans: List[Tuple[str, int, int, float]] = []
    pos = 0
    for i, ptext in enumerate(page_texts, start=1):
        header = f"--- Page {i} ---"
        block = header + ("\n" + ptext if ptext else "")
        if parts:
            pos += 2  # the "\n\n" joiner
        body_start = pos + len(header) + (1 if ptext else 0)
        spans.append(("page", body_start, body_start + len(ptext), 1.0))
        parts.append(block)
        pos += len(block)
    return "\n\n".join(parts), spans
