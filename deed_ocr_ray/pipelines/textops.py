"""Text-analysis operators over the ``documents`` table.

Corpus-scale generalizations of the reference's per-document text
functions (normalization M8 workflow.py:340-354; char-count metrics F5
vision_ocr.py:232,262; keyword gates layout.py:105,125) plus the
training-data-pipeline staples: token counting, quality scoring,
language ID, content fingerprinting.

All stages are single-pass ``map_batches`` transforms (no shuffle);
integer-exact derived metrics (ppm ratios via integer floor-division)
so results are bit-deterministic and match the DuckDB oracles exactly.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.normalize import normalize_text
from ..functions.stopwords import STOPWORDS
from ..sources.pages import read_pq
from .exchange import keyed_aggregate, ordered_offsets

_PUNCT_RE = re.compile(r"[.!?,;:]")
_LANGS = sorted(STOPWORDS)  # deterministic candidate order


def q_doc_normalize(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc normalization (the M8 contract applied corpus-wide).
    Columns: doc_id, norm_text, norm_chars."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk
        from ..functions.normalize import WATERMARKS

        # Arrow replay of normalize_text: ordered literal watermark
        # replaces, one-pass newline collapse, space collapse, strip.
        # RE2's \s and re's \s agree on this corpus (ASCII whitespace
        # only) — the DuckDB oracle is already RE2 and hash-matches.
        x = tk._plain(t["text"]).cast(pa.string())
        for wm in WATERMARKS:
            x = pc.replace_substring(x, wm, "")
        x = pc.replace_substring_regex(x, r"\n\s*\n\s*\n", "\n\n")
        x = pc.replace_substring_regex(x, " +", " ")
        x = pc.utf8_trim_whitespace(x)
        return pa.table({
            "doc_id": t["doc_id"],
            "norm_text": x,
            "norm_chars": pc.utf8_length(x).cast(pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


Q_NORMALIZE_SQL = r"""
SELECT doc_id,
       trim(regexp_replace(regexp_replace(
            replace(replace(replace(text,
                'UNOFFICIAL COPY', ''),
                'UNOFFICIAL COPY UNOFFICIAL COPY', ''),
                'UNO', ''),
            '\n\s*\n\s*\n', chr(10)||chr(10), 'g'),
            ' +', ' ', 'g')) AS norm_text,
       length(trim(regexp_replace(regexp_replace(
            replace(replace(replace(text,
                'UNOFFICIAL COPY', ''),
                'UNOFFICIAL COPY UNOFFICIAL COPY', ''),
                'UNO', ''),
            '\n\s*\n\s*\n', chr(10)||chr(10), 'g'),
            ' +', ' ', 'g'))) AS norm_chars
FROM documents
"""


def _ws_token_counts(col: pa.Array) -> "np.ndarray":
    """``len(x.split())`` per row, vectorized (blank rows count 0)."""
    import numpy as np

    trimmed = pc.utf8_trim_whitespace(col)
    lens = pc.list_value_length(pc.utf8_split_whitespace(trimmed)) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    blank = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    return np.where(blank, 0, lens)


def q_token_count(sf_dir: str) -> "ray.data.Dataset":
    """Whitespace token count per doc. Columns: doc_id, n_tokens."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        n = _ws_token_counts(tk._plain(t["text"]))
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pa.array(n, type=pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow")


Q_TOKEN_COUNT_SQL = r"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
FROM documents
"""


def q_quality_score(sf_dir: str) -> "ray.data.Dataset":
    """Quality signals per doc, integer-exact: char count, word count,
    punctuation parts-per-million, mean word length in milli-chars.
    Columns: doc_id, chars, words, punct_ppm, mean_word_milli."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions import tokens as tk

        col = tk._plain(t["text"])
        c = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = _ws_token_counts(col)
        p = pc.count_substring_regex(col, _PUNCT_RE.pattern) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        nonspace = c - pc.count_substring(col, " ") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ppm = np.where(c > 0, (p * 1_000_000) // np.maximum(c, 1), 0)
        mwm = np.where(w > 0, (nonspace * 1000) // np.maximum(w, 1), 0)
        return pa.table({
            "doc_id": t["doc_id"],
            "chars": pa.array(c, type=pa.int64()),
            "words": pa.array(w, type=pa.int64()),
            "punct_ppm": pa.array(ppm, type=pa.int64()),
            "mean_word_milli": pa.array(mwm, type=pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


Q_QUALITY_SQL = r"""
SELECT doc_id,
       length(text) AS chars,
       CASE WHEN trim(text)='' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS words,
       CASE WHEN length(text)=0 THEN 0
            ELSE (length(regexp_replace(text, '[^.!?,;:]', '', 'g')) * 1000000)
                 // length(text) END AS punct_ppm,
       CASE WHEN trim(text)='' THEN 0
            ELSE (length(replace(text, ' ', '')) * 1000)
                 // len(regexp_split_to_array(trim(text), '\s+')) END AS mean_word_milli
FROM documents
"""


def q_fingerprint(sf_dir: str) -> "ray.data.Dataset":
    """Content fingerprint (md5 of text). Columns: doc_id, fp."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        fps = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"], "fp": pa.array(fps, type=pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


Q_FINGERPRINT_SQL = "SELECT doc_id, md5(text) AS fp FROM documents"


class LangId:
    """Language-ID stage: stop-word hit voting over the built-in tables
    (the language-gate operator run in reverse). State (per-language
    Arrow value-sets for the C-level ``is_in`` probes) built once per
    worker instance — the A1 pattern."""

    def __init__(self) -> None:
        self.tables: Dict[str, frozenset] = {k: STOPWORDS[k] for k in _LANGS}
        self.value_sets = {
            k: pa.array(sorted(STOPWORDS[k]), type=pa.string()) for k in _LANGS
        }

    def predict(self, text: str) -> str:
        """Scalar reference (pinned by tests); the batch path below must
        agree exactly."""
        words = text.lower().split()
        if not words:
            return "unknown"
        best_lang, best_hits = "unknown", 0
        for lang in _LANGS:  # fixed order -> deterministic tie-break
            tbl = self.tables[lang]
            hits = sum(1 for w in words if w in tbl)
            if hits > best_hits:
                best_lang, best_hits = lang, hits
        return best_lang

    def __call__(self, t: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions import tokens as tk

        n = t.num_rows
        flat, parent = tk.explode_ws(pc.utf8_lower(tk._plain(t["text"])))
        par = parent.to_numpy(zero_copy_only=False).astype(np.int64)
        best_hits = np.zeros(n, dtype=np.int64)
        best_idx = np.full(n, -1, dtype=np.int64)  # -1 = "unknown"
        for i, lang in enumerate(_LANGS):  # fixed order, strict > — the
            # exact tie-break of the scalar reference
            hits = np.bincount(
                par[pc.is_in(flat, value_set=self.value_sets[lang])
                    .to_numpy(zero_copy_only=False)],
                minlength=n).astype(np.int64)
            win = hits > best_hits
            best_hits[win] = hits[win]
            best_idx[win] = i
        lut = np.array(["unknown"] + list(_LANGS), dtype=object)
        pred = lut[best_idx + 1]
        agree = pred == np.asarray(t["lang"].to_pylist(), dtype=object)
        return pa.table({
            "doc_id": t["doc_id"],
            "pred_lang": pa.array(pred, type=pa.string()),
            "agrees": pa.array(agree, type=pa.bool_()),
        })


def q_lang_id(sf_dir: str) -> "ray.data.Dataset":
    """Heuristic language ID vs the labeled ``lang`` column.
    Columns: doc_id, pred_lang, agrees. Oracle: ``lang_id_sql`` —
    the heuristic is a deterministic stop-word hit vote, so DuckDB
    replays it exactly from an inlined VALUES table of the frozen
    stop-word lists."""
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "lang"])
    # task-pool instance: the stopword tables are module constants, so
    # per-task state is trivial (short-stage actor pools pay ~3 s of
    # startup for nothing — NOTES.md)
    return ds.map_batches(LangId(), batch_format="pyarrow")


def lang_id_sql() -> str:
    """DuckDB replay of :func:`q_lang_id`: duplicate-counting stop-word
    hits per (doc, lang) from the same frozen tables, winner = max
    hits with the scalar path's ascending-lang strict-greater
    tie-break (row_number ORDER BY n DESC, lang ASC), zero-hit and
    blank docs -> 'unknown'."""
    rows = ", ".join(
        f"('{lang}', '{w}')"
        for lang in _LANGS for w in sorted(STOPWORDS[lang])
    )
    return rf"""
WITH sw(lang, w) AS (VALUES {rows}),
words AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(lower(text)), '\s+')) AS w
  FROM documents WHERE trim(text) <> ''
),
hits AS (
  SELECT d.doc_id, s.lang, count(*) AS n
  FROM words d JOIN sw s ON s.w = d.w GROUP BY 1, 2
),
best AS (
  SELECT doc_id, lang FROM (
    SELECT doc_id, lang,
           row_number() OVER (PARTITION BY doc_id
                              ORDER BY n DESC, lang ASC) AS rn
    FROM hits) WHERE rn = 1
)
SELECT d.doc_id,
       COALESCE(b.lang, 'unknown') AS pred_lang,
       COALESCE(b.lang, 'unknown') = d.lang AS agrees
FROM documents d LEFT JOIN best b USING (doc_id)
"""


Q_LANG_ID_SQL = lang_id_sql()


# BPE-ish pre-tokenizer (GPT-2-style segment classes, ASCII-simplified
# so the Python and DuckDB/RE2 engines match byte-for-byte): runs of
# letters, runs of digits, runs of other non-space, each with an
# optional leading space.
_BPE_RE = re.compile(r" ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+")
_BPE_PATTERN_SQL = " ?[A-Za-z]+| ?[0-9]+| ?[^\\sA-Za-z0-9]+"


def q_token_count_bpe(sf_dir: str) -> "ray.data.Dataset":
    """BPE-style pre-token count per doc (the token-budget estimator a
    training pipeline runs before packing). Columns: doc_id, n_bpe."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        # RE2 alternation is leftmost-first like Python re, so the
        # non-overlapping match COUNT is identical
        n = pc.count_substring_regex(tk._plain(t["text"]), _BPE_RE.pattern)
        return pa.table({"doc_id": t["doc_id"],
                         "n_bpe": n.cast(pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow")


Q_TOKEN_COUNT_BPE_SQL = f"""
SELECT doc_id,
       len(regexp_extract_all(text, '{_BPE_PATTERN_SQL}')) AS n_bpe
FROM documents
"""


# Winnowing fingerprint constants (rolling polynomial hash over char
# k-grams, minimum per sliding window — Schleimer/Wilkerson/Aiken's
# winnowing scheme, public algorithm).
_WINNOW_K = 8
_WINNOW_W = 16
_WINNOW_BASE = 257
_WINNOW_MOD = (1 << 61) - 1


def winnow_fingerprints(text: str) -> List[int]:
    """Sorted distinct winnowed fingerprints of ``text``."""
    n = len(text)
    if n < _WINNOW_K:
        return []
    import numpy as np

    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # byte-level k-grams of the utf-8 encoding (deterministic across
    # platforms; multi-byte chars just widen the effective window)
    m = len(codes) - _WINNOW_K + 1
    if m <= 0:
        return []
    h = np.zeros(m, dtype=np.uint64)
    for i in range(_WINNOW_K):  # k is a small constant: 8 vector passes
        h = (h * np.uint64(_WINNOW_BASE) + codes[i : i + m]) % np.uint64(_WINNOW_MOD)
    if m <= _WINNOW_W:
        return sorted({int(h.min())})
    from numpy.lib.stride_tricks import sliding_window_view

    mins = sliding_window_view(h, _WINNOW_W).min(axis=1)
    return sorted(set(int(x) for x in mins))


def q_fingerprint_rolling(sf_dir: str) -> "ray.data.Dataset":
    """Winnowing fingerprint summary per doc: count of selected
    fingerprints and the minimum one (stable content signature robust to
    local edits). Columns: doc_id, n_fps, min_fp. (No SQL oracle:
    algorithmic sketch.)"""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        n_fps, min_fp = [], []
        for x in t["text"].to_pylist():
            fps = winnow_fingerprints(x)
            n_fps.append(len(fps))
            min_fp.append(fps[0] if fps else 0)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_fps": pa.array(n_fps, type=pa.int64()),
            "min_fp": pa.array(min_fp, type=pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def fingerprint_rolling_sql() -> str:
    """DuckDB replay of :func:`q_fingerprint_rolling`: the rolling
    polynomial hash INCLUDING its uint64 wraparound (HUGEINT arithmetic
    with an explicit mod 2^64 before the prime mod — numpy's uint64
    ``h*257+c`` wraps before ``% MOD``, and that wrap is part of the
    frozen semantics), window-16 running min, distinct count + min per
    doc. Valid while text is ASCII (the operator hashes UTF-8 BYTES,
    the SQL hashes codepoints — identical on the fixture corpus)."""
    two64 = 1 << 64
    expr = "CAST(0 AS HUGEINT)"
    for j in range(_WINNOW_K):
        expr = (f"(((({expr}) * {_WINNOW_BASE} + "
                f"ord(substr(text, i + {j}, 1))) % {two64}) % {_WINNOW_MOD})")
    return f"""
WITH d AS (SELECT doc_id, text, length(text) AS L FROM documents),
g AS (
  SELECT doc_id, i, L - {_WINNOW_K - 1} AS m, {expr} AS h
  FROM d, LATERAL (SELECT unnest(range(1, L - {_WINNOW_K - 2})) AS i) t
  WHERE L >= {_WINNOW_K}
),
wm AS (
  SELECT doc_id, m, i,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND {_WINNOW_W - 1} FOLLOWING)
         AS wmin
  FROM g
),
sel AS (
  SELECT doc_id, wmin AS fp FROM wm
  WHERE m > {_WINNOW_W} AND i <= m - {_WINNOW_W - 1}
  UNION ALL
  SELECT doc_id, min(h) AS fp FROM g WHERE m <= {_WINNOW_W} GROUP BY doc_id
),
fps AS (SELECT DISTINCT doc_id, fp FROM sel),
agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fps,
               CAST(min(fp) AS BIGINT) AS min_fp
        FROM fps GROUP BY doc_id)
SELECT dd.doc_id, COALESCE(a.n_fps, 0) AS n_fps,
       COALESCE(a.min_fp, 0) AS min_fp
FROM documents dd LEFT JOIN agg a USING (doc_id)
"""


Q_FINGERPRINT_ROLLING_SQL = fingerprint_rolling_sql()


def q_top_terms(sf_dir: str, k: int = 20) -> "ray.data.Dataset":
    """Global top-k terms by count — the canonical wordcount: one
    keyed aggregate, whose per-batch combiner shrinks the shuffle to
    distinct terms per block. Deterministic tie-break (cnt desc, term
    asc). Columns: term, cnt."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def terms(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        flat, _ = tk.explode_ws(t["text"])
        return pa.table({"term": flat.cast(pa.string())})

    agg = keyed_aggregate(ds.map_batches(terms, batch_format="pyarrow"),
                          "term", {"cnt": (None, "count_all")})
    return agg.sort(["cnt", "term"], descending=[True, False]).limit(k)


Q_TOP_TERMS_SQL = r"""
SELECT term, CAST(COUNT(*) AS BIGINT) AS cnt FROM (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS term
  FROM documents WHERE trim(text) <> ''
) GROUP BY term ORDER BY CAST(COUNT(*) AS BIGINT) DESC, term ASC LIMIT 20
"""


def q_doc_sample(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic 5% sample by key hash (doc_id mod 20 == 3) — the
    reproducible-sampling operator (``random_sample`` is not
    deterministic across runs). Columns: doc_id, n_chars."""
    import pyarrow.compute as pc

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "n_chars"])

    def fn(t: pa.Table) -> pa.Table:
        # doc_id % 20 == 3 via integer ops (Arrow has no modulo kernel)
        mask = pc.equal(
            pc.subtract(t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 20), 20)), 3
        )
        return t.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


Q_DOC_SAMPLE_SQL = "SELECT doc_id, n_chars FROM documents WHERE doc_id % 20 = 3"


def _line_dup_counts(col) -> tuple:
    """``(n_lines, n_dup_lines)`` per row for ``x.split("\\n")``,
    vectorized via polars list kernels (C-speed per-row distinct)."""
    import numpy as np
    import polars as pl

    from ..functions import tokens as tk

    s = pl.Series("t", pl.from_arrow(tk._plain(col))).str.split("\n")
    n_lines = s.list.len().to_numpy().astype(np.int64)
    n_uniq = s.list.n_unique().to_numpy().astype(np.int64)
    return n_lines, n_lines - n_uniq


def q_line_repetition(sf_dir: str) -> "ray.data.Dataset":
    """Gopher-style repetition signal: duplicate-line counts per doc
    (high duplicate-line fraction flags boilerplate/spam for corpus
    filtering). Columns: doc_id, n_lines, n_dup_lines."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        n_lines, n_dup = _line_dup_counts(t["text"])
        return pa.table({
            "doc_id": t["doc_id"],
            "n_lines": pa.array(n_lines, type=pa.int64()),
            "n_dup_lines": pa.array(n_dup, type=pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


Q_LINE_REPETITION_SQL = """
SELECT doc_id,
       len(str_split(text, chr(10))) AS n_lines,
       len(str_split(text, chr(10)))
         - len(list_distinct(str_split(text, chr(10)))) AS n_dup_lines
FROM documents
"""


def q_compress_ratio(sf_dir: str) -> "ray.data.Dataset":
    """Compression-ratio quality signal (zlib level 6): highly
    compressible text is repetitive boilerplate — the classic cheap
    stand-in for n-gram repetition filters. Integer parts-per-thousand.
    Columns: doc_id, compressed_permille. (No SQL oracle: zlib is not
    available in SQL; deterministic across runs for a pinned zlib.)"""
    import zlib

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        vals = []
        for x in t["text"].to_pylist():
            raw = x.encode("utf-8")
            vals.append((len(zlib.compress(raw, 6)) * 1000) // len(raw) if raw else 0)
        return pa.table({
            "doc_id": t["doc_id"],
            "compressed_permille": pa.array(vals, type=pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


# Corpus-filter thresholds (frozen; Gopher-rule-style composition)
FILTER_MIN_WORDS = 30
FILTER_MAX_WORDS = 5000
FILTER_MAX_DUP_LINE_FRAC_PERMILLE = 300
FILTER_MIN_MEAN_WORD_MILLI = 3000
FILTER_MAX_MEAN_WORD_MILLI = 12000


def q_corpus_filter(sf_dir: str) -> "ray.data.Dataset":
    """The composed corpus-cleaning pipeline: keep documents passing all
    quality gates (word-count band, duplicate-line fraction, mean word
    length band) — one single-pass map computing every signal at once,
    integer-exact. Columns: doc_id, words, n_dup_lines."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions import tokens as tk

        col = tk._plain(t["text"])
        w = _ws_token_counts(col)
        n_lines, dup = _line_dup_counts(col)
        c = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        nonspace = c - pc.count_substring(col, " ") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        mwm = (nonspace * 1000) // np.maximum(w, 1)
        keep = (
            (FILTER_MIN_WORDS <= w) & (w <= FILTER_MAX_WORDS)
            & ((dup * 1000) // n_lines <= FILTER_MAX_DUP_LINE_FRAC_PERMILLE)
            & (FILTER_MIN_MEAN_WORD_MILLI <= mwm)
            & (mwm <= FILTER_MAX_MEAN_WORD_MILLI)
        )
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(dids[keep], type=pa.int64()),
            "words": pa.array(w[keep], type=pa.int64()),
            "n_dup_lines": pa.array(dup[keep], type=pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


Q_CORPUS_FILTER_SQL = rf"""
WITH sig AS (
  SELECT doc_id,
         CASE WHEN trim(text)='' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS words,
         len(str_split(text, chr(10))) AS n_lines,
         len(str_split(text, chr(10)))
           - len(list_distinct(str_split(text, chr(10)))) AS n_dup_lines,
         length(replace(text, ' ', '')) AS nonspace
  FROM documents
)
SELECT doc_id, words, n_dup_lines FROM sig
WHERE words BETWEEN {FILTER_MIN_WORDS} AND {FILTER_MAX_WORDS}
  AND (n_dup_lines * 1000) // n_lines <= {FILTER_MAX_DUP_LINE_FRAC_PERMILLE}
  AND (nonspace * 1000) // words
      BETWEEN {FILTER_MIN_MEAN_WORD_MILLI} AND {FILTER_MAX_MEAN_WORD_MILLI}
"""


def q_posting_pairs(sf_dir: str, min_len: int = 6) -> "ray.data.Dataset":
    """Inverted-index posting pairs: distinct (term, doc_id) for long
    terms (length >= ``min_len`` bounds the vocabulary; default 6
    so the sf testdata contributes several distinct terms, not just
    its lone 8-char word). The keyed aggregate's per-batch combiner
    shrinks the exchange to unique pairs per block — the index-build
    shuffle shape (at scale, write the output partitioned by term hash
    for serving). Columns: term, doc_id."""
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        flat, parent = tk.explode_ws(t["text"])
        keep = pc.greater_equal(pc.utf8_length(flat), min_len)
        flat, parent = flat.filter(keep), parent.filter(keep)
        dids = pc.take(t["doc_id"].combine_chunks(), parent)
        return pa.table({"term": flat.cast(pa.string()),
                         "doc_id": dids.cast(pa.int64())})

    uniq = keyed_aggregate(ds.map_batches(pairs, batch_format="pyarrow"),
                           ["term", "doc_id"], {"n": (None, "count_all")})
    return uniq.drop_columns(["n"])


def posting_pairs_sql(min_len: int = 6) -> str:
    """Oracle SQL for ``q_posting_pairs`` at the same ``min_len`` —
    parameters interpolate here so operator and oracle cannot desync."""
    return rf"""
SELECT DISTINCT term, doc_id FROM (
  SELECT unnest(regexp_split_to_array(trim(text), '\s+')) AS term, doc_id
  FROM documents WHERE trim(text) <> ''
) WHERE length(term) >= {int(min_len)}
"""


Q_POSTING_PAIRS_SQL = posting_pairs_sql()


def q_bigram_counts(sf_dir: str, k: int = 50) -> "ray.data.Dataset":
    """Top-``k`` word bigrams by count — the n-gram LM count table (the
    training-data analogue of wordcount one order up), one keyed
    aggregate; deterministic tie-break (cnt desc, bigram asc).
    Columns: bigram, cnt."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def bigrams(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        # split() tokenization; a blank row trims to one empty token,
        # which yields zero 2-windows — exactly split()'s no-bigrams
        toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(tk._plain(t["text"])))
        _, _, bg = tk.ngram_windows_from_tokens(toks, 2)
        return pa.table({"bigram": bg.cast(pa.string())})

    agg = keyed_aggregate(ds.map_batches(bigrams, batch_format="pyarrow"),
                          "bigram", {"cnt": (None, "count_all")})
    return agg.sort(["cnt", "bigram"], descending=[True, False]).limit(k)


def bigram_counts_sql(k: int = 50) -> str:
    """Oracle SQL for ``q_bigram_counts`` at the same ``k``."""
    return rf"""
WITH toks AS (
  SELECT regexp_split_to_array(trim(text), '\s+') AS a
  FROM documents WHERE trim(text) <> ''
)
SELECT bigram, CAST(COUNT(*) AS BIGINT) AS cnt FROM (
  SELECT unnest([a[i] || ' ' || a[i+1] for i in generate_series(1, len(a)-1)])
      AS bigram
  FROM toks WHERE len(a) >= 2
)
GROUP BY 1
ORDER BY cnt DESC, bigram ASC
LIMIT {int(k)}
"""


Q_BIGRAM_COUNTS_SQL = bigram_counts_sql()


def q_url_canon(sf_dir: str) -> "ray.data.Dataset":
    """URL canonicalization over deterministic messy URLs synthesized
    from the documents table (the sf tables carry no url column; the
    SAME synthesis runs in the oracle, so the canonicalizer itself is
    what the hash verifies). One vectorized map — no shuffle; at corpus
    scale this is the key-maker stage in front of url dedup.
    Columns: doc_id, url, canon_url."""
    from ..functions.urlnorm import canonicalize_url

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "lang"])

    def canon(t: pa.Table) -> pa.Table:
        urls = []
        for did, src, lang in zip(t["doc_id"].to_pylist(),
                                  t["source"].to_pylist(),
                                  t["lang"].to_pylist()):
            u = f"HTTPS://WWW.{src}.Example.COM:443/Docs/{did}"
            u += f"/?utm_source=feed&ref={lang}" if did % 3 == 0 else "/"
            if did % 5 == 0:
                u += "#section-2"
            urls.append(u)
        return pa.table({
            "doc_id": t["doc_id"],
            "url": pa.array(urls, type=pa.string()),
            "canon_url": pa.array([canonicalize_url(u) for u in urls],
                                  type=pa.string()),
        })

    return ds.map_batches(canon, batch_format="pyarrow")


Q_URL_CANON_SQL = r"""
WITH raw AS (
  SELECT doc_id,
    'HTTPS://WWW.' || source || '.Example.COM:443/Docs/' || CAST(doc_id AS VARCHAR) ||
    CASE WHEN doc_id % 3 = 0 THEN '/?utm_source=feed&ref=' || lang ELSE '/' END ||
    CASE WHEN doc_id % 5 = 0 THEN '#section-2' ELSE '' END AS url
  FROM documents
),
s1 AS (SELECT doc_id, url, regexp_replace(url, '#.*$', '') AS u FROM raw),
s2 AS (
  SELECT doc_id, url,
    lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 1)) AS sch,
    CASE WHEN lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 1)) = 'http://'
         THEN regexp_replace(lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 2)),
                             ':80$', '')
         ELSE regexp_replace(lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 2)),
                             ':443$', '')
    END AS host,
    regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 3) AS tail
  FROM s1
),
s3 AS (
  SELECT doc_id, url, sch, host,
    regexp_replace(regexp_replace(
        regexp_replace(tail, '[?&]utm_[a-z_]+=[^&#]*', '', 'g'),
        '\?&+', '?', 'g'), '^([^?&]*)&+', '\1?') AS pre
  FROM s2
),
s4 AS (
  -- trailing ?/ run strips to fixpoint (matches urlnorm._TRAIL_RUN);
  -- a tail that was nothing but the run keeps its root slash
  SELECT doc_id, url, sch, host, pre,
         regexp_replace(pre, '[?/]+$', '') AS stripped
  FROM s3
)
SELECT doc_id, url,
       sch || host ||
       CASE WHEN stripped = '' AND pre LIKE '/%' THEN '/' ELSE stripped END
       AS canon_url
FROM s4
"""


def q_canon_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Canonical-URL dedup: docs carrying VARIANT urls of the same page
    (default-port, utm params, fragment, trailing slash — one variant
    per doc_id % 4) collapse onto one canonical url; first doc wins
    (min doc_id, the D1 order). The duplicates exist only AFTER
    canonicalization — the composition this operator demonstrates.
    Only (canon_url, doc_id) crosses the shuffle.
    Columns: canon_url, rep_doc_id, n_dupes."""
    from ..functions.urlnorm import canonicalize_url

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "lang"])

    def canon(t: pa.Table) -> pa.Table:
        out = []
        for did, src, lang in zip(t["doc_id"].to_pylist(),
                                  t["source"].to_pylist(),
                                  t["lang"].to_pylist()):
            base = f"HTTPS://WWW.{src}.Example.COM"
            v = did % 4
            if v == 0:
                u = f"{base}:443/{lang}"
            elif v == 1:
                u = f"{base}/{lang}?utm_campaign=x"
            elif v == 2:
                u = f"{base}/{lang}#frag"
            else:
                u = f"{base}/{lang}/"
            out.append(canonicalize_url(u))
        return pa.table({
            "canon_url": pa.array(out, type=pa.string()),
            "doc_id": t["doc_id"],
        })

    pairs = ds.map_batches(canon, batch_format="pyarrow")
    return keyed_aggregate(pairs, "canon_url",
                           {"rep_doc_id": ("doc_id", "min"),
                            "n_dupes": (None, "count_all")})


Q_CANON_DEDUP_SQL = r"""
WITH raw AS (
  SELECT doc_id,
    'HTTPS://WWW.' || source || '.Example.COM' ||
    CASE doc_id % 4
      WHEN 0 THEN ':443/' || lang
      WHEN 1 THEN '/' || lang || '?utm_campaign=x'
      WHEN 2 THEN '/' || lang || '#frag'
      ELSE '/' || lang || '/'
    END AS url
  FROM documents
),
s1 AS (SELECT doc_id, regexp_replace(url, '#.*$', '') AS u FROM raw),
s2 AS (
  SELECT doc_id,
    lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 1)) AS sch,
    CASE WHEN lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 1)) = 'http://'
         THEN regexp_replace(lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 2)),
                             ':80$', '')
         ELSE regexp_replace(lower(regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 2)),
                             ':443$', '')
    END AS host,
    regexp_extract(u, '(?i)^(https?://)([^/?#]*)(.*)$', 3) AS tail
  FROM s1
),
s3 AS (
  SELECT doc_id, sch, host,
    regexp_replace(regexp_replace(
        regexp_replace(tail, '[?&]utm_[a-z_]+=[^&#]*', '', 'g'),
        '\?&+', '?', 'g'), '^([^?&]*)&+', '\1?') AS pre
  FROM s2
),
s4 AS (
  -- trailing ?/ run strips to fixpoint (matches urlnorm._TRAIL_RUN);
  -- a tail that was nothing but the run keeps its root slash
  SELECT doc_id, sch, host, pre,
         regexp_replace(pre, '[?/]+$', '') AS stripped
  FROM s3
)
SELECT sch || host ||
       CASE WHEN stripped = '' AND pre LIKE '/%' THEN '/' ELSE stripped END
       AS canon_url,
       MIN(doc_id) AS rep_doc_id, COUNT(*) AS n_dupes
FROM s4 GROUP BY 1
"""


# ------------------------------------------------ vocab id assignment

def q_vocab_ids(sf_dir: str) -> "ray.data.Dataset":
    """Global DENSE vocabulary-id assignment: every distinct token gets
    a consecutive id ordered by (count desc, term asc) — the
    tokenizer-vocab builder, and the engine's global ordered
    ENUMERATION primitive (zipWithIndex). Distributed shape: keyed
    (term, n) aggregate → :func:`exchange.ordered_offsets` (one global
    sort; per-block row counts from block metadata fold on the driver,
    and each block stamps ``offset + arange`` without another exchange).
    Columns: term, n, vocab_id."""
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def terms(t: pa.Table) -> pa.Table:
        # single-space split of trimmed text: identical to the oracle's
        # string_split(trim(text), ' ') (the remove_dup_ngrams contract);
        # empty/blank docs contribute nothing (the `if s` guard) — drop
        # the empty token their trim+split produces
        from ..functions import tokens as tk

        trimmed = pc.utf8_trim_whitespace(tk._plain(t["text"]))
        nonblank = trimmed.filter(pc.not_equal(trimmed, ""))
        flat = tk._plain(pc.list_flatten(pc.split_pattern(nonblank, " ")))
        return pa.table({"term": flat.cast(pa.string())})

    counts = keyed_aggregate(ds.map_batches(terms, batch_format="pyarrow"),
                             "term", {"n": (None, "count_all")})
    return ordered_offsets(counts, ["n", "term"], "vocab_id",
                           descending=[True, False])


Q_VOCAB_IDS_SQL = r"""
WITH toks AS (
  SELECT unnest(string_split(trim(text), ' ')) AS term
  FROM documents WHERE trim(text) <> ''
),
tc AS (SELECT term, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1)
SELECT term, n,
       CAST(row_number() OVER (ORDER BY n DESC, term ASC) - 1 AS BIGINT)
       AS vocab_id
FROM tc
"""
