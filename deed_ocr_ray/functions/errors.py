"""Row-level error classification.

Analogue of the reference's exception→category classifier
(deed_ocr/workflow.py:65-110 ``_handle_api_error``, duplicated in
deed_ocr/workflow_vision.py:69-117, deed_ocr/ocr/gemini_ocr.py:48-101,
deed_ocr/ocr/vision_ocr.py:48-96 — here unified once). The reference's
categories are network/API-shaped; ours are extraction-shaped, but the
semantics carried over are: every failure maps to a closed category with
a retryable bit, failures are absorbed into error *rows* (never job
failures — deed_ocr/workflow.py:262-282), and the category drives the
resume/retry decision.
"""

from __future__ import annotations

# category -> retry_recommended
ERROR_TYPES = {
    "decode_error": False,       # payload bytes are not text in any declared encoding
    "html_parse_error": False,   # tokenizer blew up (should be ~never; tokenizer is total)
    "pdf_parse_error": False,    # no page could be recovered from a %PDF payload
    "oversize": True,            # payload above the configured hard cap (re-run with bigger cap)
    "unknown": True,             # unexpected exception absorbed from an extractor branch
}


def classify_exception(exc: BaseException) -> str:
    """Map an absorbed exception to a closed error_type category."""
    name = type(exc).__name__.lower()
    msg = str(exc).lower()
    if "unicode" in name or "decode" in msg:
        return "decode_error"
    if "pdf" in msg:
        return "pdf_parse_error"
    if "memory" in name or "oversize" in msg:
        return "oversize"
    return "unknown"
