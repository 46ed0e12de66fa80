"""The dispatching extraction stage — one stateless ``map_batches`` callable.

The reference constructs one engine per workflow and reuses it for every
page/doc (deed_ocr/ocr/gemini_ocr.py:28-46, deed_ocr/workflow.py:59-63).
Here everything heavy — compiled patterns, stop-word tables — is built
at module import, so an ``Extractor`` instance carries only its
configuration (partition map, payload cap). The pipeline passes the
instance to ``Dataset.map_batches(Extractor(...))``, which Ray runs as a
plain task stage fused with the parquet read; ``__call__`` runs per
Arrow batch.

Both payload branches live in one dispatching stage keyed on
``payload_kind`` (the reference's ``--ocr-engine`` dispatch,
deed_ocr/cli.py:60-65), so each input block is read once and the heavy
``html`` binary column never crosses a stage boundary.

Every row-level failure is absorbed into a ``status="error"`` row —
never a task failure (deed_ocr/workflow.py:262-282 semantics); Ray task
retries therefore cannot duplicate or reorder work.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import pyarrow as pa

from ..functions.errors import classify_exception
from ..functions.normalize import dedup_preserve_order, fixpoint_normalize
from ..functions.regex_fields import (
    OIL_MINERAL_GATE,
    RE_OIL_MINERAL,
    RE_RESERVE,
    RESERVE_GATE,
    _SENTENCE_SPLIT,
    extract_field_spans,
    keyword_sentences,
    suppress_near_dups,
)
from ..functions.sniff import JUNK_REPLACEMENT_RATIO, decode_html, sniff_kind
from ..functions.stopwords import stopwords_for
from ..schema import EXTRACTED_SCHEMA, FIELDS_TYPE, SPAN_TYPE
from .html_extract import extract_blocks
from .pdf_extract import assemble_pages, parse_pdf_pages

_ALL_KEYWORD_GATES = RESERVE_GATE + OIL_MINERAL_GATE

_EMPTY_FIELDS: Dict[str, Any] = {
    "title": "",
    "legal_description_block": [],
    "trs": [],
    "reserve_retain": [],
    "oil_mineral": [],
}


def _assemble_blocks(
    kept: List[Tuple[str, str, float]]
) -> Tuple[str, List[Tuple[str, int, int, float]], str]:
    """Join kept blocks with ``\\n\\n``; emit per-block spans and the
    first heading (the ``title`` field)."""
    spans: List[Tuple[str, int, int, float]] = []
    parts: List[str] = []
    title = ""
    pos = 0
    for kind, text, score in kept:
        if parts:
            pos += 2
        spans.append((kind, pos, pos + len(text), score))
        if kind == "heading" and not title:
            title = text
        parts.append(text)
        pos += len(text)
    return "\n\n".join(parts), spans, title


def extract_row(
    html: Optional[bytes], text: Optional[str], lang: Optional[str],
    branches: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Extract one row. Total function — absorbs all failures.

    ``branches`` optionally overrides the payload-kind dispatch table
    (see ``BRANCHES``)."""
    kind = sniff_kind(html, text)
    try:
        return _extract_row_inner(kind, html, text, lang, branches)
    except Exception as exc:  # absorb: error row, never a task failure
        return {
            "payload_kind": kind,
            "extracted_text": "",
            "spans": [],
            "fields": dict(_EMPTY_FIELDS),
            "n_blocks": 0,
            "n_kept": 0,
            "status": "error",
            "error_type": classify_exception(exc),
        }


# Branch signature: (html, text, lang) ->
#   (body, branch_spans, title, n_blocks, n_kept) | error-row dict.
# -----------------------------------------------------------------------

def _branch_text(html: Optional[bytes], text: Optional[str], lang: Optional[str]):
    body = fixpoint_normalize(text or "")
    spans = [("text", 0, len(body), 1.0)] if body else []
    n = 1 if body else 0
    return body, spans, "", n, n


def _branch_pdf(html: Optional[bytes], text: Optional[str], lang: Optional[str]):
    page_texts, _declared = parse_pdf_pages(html or b"")
    if not any(page_texts):
        # zero recoverable text from a %PDF payload -> error row
        # (total-failure fallback semantics, workflow_vision.py:199-216)
        return _error_row("pdf", "pdf_parse_error")
    body, spans = assemble_pages(page_texts)
    body = fixpoint_normalize(body)
    return body, spans, "", len(page_texts), sum(1 for p in page_texts if p)


def _branch_html(html: Optional[bytes], text: Optional[str], lang: Optional[str]):
    doc, bad_ratio = decode_html(html or b"")
    if bad_ratio > JUNK_REPLACEMENT_RATIO:
        return _error_row("html", "decode_error")
    kept, n_blocks = extract_blocks(doc, stopwords_for(lang or ""))
    body, spans, title = _assemble_blocks(kept)
    return body, spans, title, n_blocks, len(kept)


# The X1 extension surface: payload_kind -> branch callable. The
# reference dispatches extraction engines the same way
# (``--ocr-engine`` registry, deed_ocr/cli.py:60-65; factories
# gemini_ocr.py:820-841 / vision_ocr.py:357-370). Pass an override map
# to ``Extractor(branches=...)`` / ``extract_row(..., branches=...)`` to
# plug in a different extractor for a payload kind.
BRANCHES: Dict[str, Any] = {
    "text": _branch_text,
    "pdf": _branch_pdf,
    "html": _branch_html,
}


def _extract_row_inner(
    kind: str, html: Optional[bytes], text: Optional[str], lang: Optional[str],
    branches: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    if kind == "empty":
        return {
            "payload_kind": kind,
            "extracted_text": "",
            "spans": [],
            "fields": dict(_EMPTY_FIELDS),
            "n_blocks": 0,
            "n_kept": 0,
            "status": "ok",
            "error_type": "",
        }

    table = branches or BRANCHES
    res = table[kind](html, text, lang)
    if isinstance(res, dict):  # branch-level error row
        return res
    body, branch_spans, title, n_blocks, n_kept = res

    tl = body.lower()  # one lowercase pass shared by every gate below
    field_spans = extract_field_spans(body, tl)
    fields = _build_fields(body, field_spans, title, tl)
    return {
        "payload_kind": kind,
        "extracted_text": body,
        "spans": branch_spans + field_spans,
        "fields": fields,
        "n_blocks": n_blocks,
        "n_kept": n_kept,
        "status": "ok",
        "error_type": "",
    }


def _error_row(kind: str, error_type: str) -> Dict[str, Any]:
    return {
        "payload_kind": kind,
        "extracted_text": "",
        "spans": [],
        "fields": dict(_EMPTY_FIELDS),
        "n_blocks": 0,
        "n_kept": 0,
        "status": "error",
        "error_type": error_type,
    }


def _build_fields(
    body: str, field_spans: List[Tuple[str, int, int, float]], title: str,
    tl: Optional[str] = None,
) -> Dict[str, Any]:
    """Typed fields struct from spans: exact dedup (D1,
    workflow.py:600-616) then near-dup suppression (D2,
    extractors/llm.py:167-193) for the legal-description list."""
    legal: List[Tuple[str, float]] = []
    trs: List[str] = []
    seen = set()
    for kind, s, e, score in field_spans:
        t = body[s:e]
        if kind == "trs":
            trs.append(t)
        elif t not in seen:
            seen.add(t)
            legal.append((t, score))
    legal = suppress_near_dups(legal)
    if tl is None:
        tl = body.lower()
    # substring gates first (memchr-speed over the shared lowercase
    # body); the sentence split is computed at most once and shared
    parts = None
    for g in _ALL_KEYWORD_GATES:
        if g in tl:
            parts = _SENTENCE_SPLIT.split(body)
            break
    return {
        "title": title,
        "legal_description_block": [t for t, _ in legal],
        "trs": dedup_preserve_order(trs),
        "reserve_retain": dedup_preserve_order(
            keyword_sentences(body, RE_RESERVE, RESERVE_GATE, tl, parts)),
        "oil_mineral": dedup_preserve_order(
            keyword_sentences(body, RE_OIL_MINERAL, OIL_MINERAL_GATE, tl, parts)),
    }


class Extractor:
    """Stateless batch extractor: ``pa.Table`` in -> ``pa.Table`` out.

    ``path_to_part`` maps input file path -> checkpoint partition id
    (rows carry ``part_id`` so the extraction job's part writer lays
    output out per input shard group — the resume unit). Every input
    row yields exactly one output row, error rows included; the job
    counts a partition complete by that.
    ``max_payload_bytes`` routes absurd payloads to ``oversize`` error
    rows instead of stalling a worker (skew guard).
    """

    def __init__(
        self,
        path_to_part: Optional[Dict[str, int]] = None,
        max_payload_bytes: int = 256 * 1024 * 1024,
        branches: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path_to_part = path_to_part or {}
        self.max_payload_bytes = max_payload_bytes
        self.branches = branches

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        htmls = batch.column("html").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        if "path" in batch.column_names:
            paths = batch.column("path").to_pylist()
            part_ids = [self.path_to_part.get(p, 0) for p in paths]
        else:
            part_ids = [0] * n

        cols: Dict[str, List[Any]] = {
            "payload_kind": [], "extracted_text": [], "spans": [],
            "fields": [], "n_blocks": [], "n_kept": [], "n_chars": [],
            "status": [], "error_type": [], "extract_us": [],
        }
        for i in range(n):
            t0 = time.perf_counter_ns()
            h = htmls[i]
            if h is not None and len(h) > self.max_payload_bytes:
                row = _error_row(sniff_kind(h, texts[i]), "oversize")
            else:
                row = extract_row(h, texts[i], langs[i], self.branches)
            us = (time.perf_counter_ns() - t0) // 1000
            cols["payload_kind"].append(row["payload_kind"])
            cols["extracted_text"].append(row["extracted_text"])
            cols["spans"].append(
                [{"kind": k, "start": s, "end": e, "score": sc} for k, s, e, sc in row["spans"]]
            )
            cols["fields"].append(row["fields"])
            cols["n_blocks"].append(row["n_blocks"])
            cols["n_kept"].append(row["n_kept"])
            cols["n_chars"].append(len(row["extracted_text"]))
            cols["status"].append(row["status"])
            cols["error_type"].append(row["error_type"])
            cols["extract_us"].append(us)

        arrays = [
            batch.column("url").cast(pa.string()),
            batch.column("warc_ts").cast(pa.timestamp("us")),
            batch.column("lang").cast(pa.string()),
            pa.array(cols["payload_kind"], type=pa.string()),
            pa.array(cols["extracted_text"], type=pa.large_string()),
            pa.array(cols["spans"], type=pa.list_(SPAN_TYPE)),
            pa.array(cols["fields"], type=FIELDS_TYPE),
            pa.array(cols["n_blocks"], type=pa.int32()),
            pa.array(cols["n_kept"], type=pa.int32()),
            pa.array(cols["n_chars"], type=pa.int64()),
            pa.array(cols["status"], type=pa.string()),
            pa.array(cols["error_type"], type=pa.string()),
            pa.array(cols["extract_us"], type=pa.int64()),
            pa.array(part_ids, type=pa.int32()),
        ]
        return pa.Table.from_arrays(arrays, schema=EXTRACTED_SCHEMA)


def extract_table(batch: pa.Table) -> pa.Table:
    """Stateless functional form (unit tests, tiny inputs)."""
    return Extractor()(batch)
