"""Vectorized tokenize / explode / n-gram kernels shared by the text
pipelines.

Every text pipeline that explodes documents into (doc, token) or
(doc, n-gram) rows uses these Arrow-kernel helpers instead of a Python
``for row in batch`` loop — token explode is the single biggest
row-amplification step in the engine, and at corpus scale the
difference between a C-level scan and a Python loop over every token.

Two tokenizations, matching the two oracle contracts exactly:

- :func:`split_space` — ``text.strip().split(" ")``, bit-identical to
  DuckDB ``string_split(trim(text), ' ')`` (empty text yields one
  empty-string token on both sides).
- :func:`explode_ws` — ``text.split()`` (whitespace runs, no empty
  tokens), i.e. the word-count tokenizer.

Reference analogue: deed-ocr tokenizes page text for field scans one
document at a time (`deed_ocr/extractors/regex.py:27-53`); here the
same work is a columnar kernel over whole Arrow batches.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _plain(col) -> pa.Array:
    """Collapse a (possibly chunked) column to one contiguous Array."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):  # zero chunks
            return pa.array([], type=col.type)
    return col


def split_space(col) -> pa.Array:
    """Per row: ``text.strip().split(" ")`` as a ``list<string>``.

    Verified element-wise identical to the Python expression (including
    consecutive-space empties and ``""`` -> ``[""]``).
    """
    return _plain(pc.split_pattern(pc.utf8_trim_whitespace(_plain(col)), " "))


def explode_space(col) -> Tuple[pa.Array, pa.Array, np.ndarray]:
    """Explode with ``strip().split(" ")`` semantics.

    Returns ``(flat_tokens, parent_row_indices, tokens_per_row)``;
    ``pc.take(other_col, parent)`` stamps any per-row attribute onto
    the token rows.
    """
    toks = split_space(col)
    flat = _plain(pc.list_flatten(toks))
    parent = _plain(pc.list_parent_indices(toks))
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    return flat, parent, lens


def explode_ws(col) -> Tuple[pa.Array, pa.Array]:
    """Explode with ``text.split()`` semantics (whitespace runs, no
    empty tokens; all-whitespace rows contribute nothing).

    Returns ``(flat_tokens, parent_row_indices)``.
    """
    toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(_plain(col)))
    flat = _plain(pc.list_flatten(toks))
    parent = _plain(pc.list_parent_indices(toks))
    # after trim, the only empty token is the lone one an empty/blank
    # row produces — drop it to match split()'s empty list
    mask = pc.not_equal(flat, "")
    return flat.filter(mask), parent.filter(mask)


def grouped_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def ngram_windows(col, n: int) -> Tuple[np.ndarray, np.ndarray, pa.Array]:
    """All sliding ``n``-token windows per row, space-joined.

    Tokenization is :func:`split_space`. Returns ``(parent_row_indices,
    window_start_j, ngram_strings)`` — the vectorized equivalent of::

        toks = text.strip().split(" ")
        for j in range(len(toks) - n + 1):
            yield j, " ".join(toks[j:j + n])

    Window text is assembled with ``n`` C-level takes over the flat
    token array plus one ``binary_join_element_wise`` — no Python-level
    string work.
    """
    return ngram_windows_from_tokens(split_space(col), n)


def ngram_windows_from_tokens(toks: pa.Array, n: int) -> Tuple[np.ndarray, np.ndarray, pa.Array]:
    """:func:`ngram_windows` over an already-split ``list<string>``."""
    flat = _plain(pc.list_flatten(toks))
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    nwin = np.maximum(lens - n + 1, 0)
    offsets = np.cumsum(lens) - lens           # first-token index per row
    j = grouped_arange(nwin)
    base = np.repeat(offsets, nwin) + j
    parent = np.repeat(np.arange(len(lens), dtype=np.int64), nwin)
    if len(base) == 0:
        return parent, j, pa.array([], type=pa.string())
    if n == 1:
        ng = pc.take(flat, pa.array(base))
    else:
        cols = [pc.take(flat, pa.array(base + k)) for k in range(n)]
        ng = pc.binary_join_element_wise(*cols, " ")
    return parent, j, _plain(ng)
