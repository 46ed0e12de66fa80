"""Corpus-curation operators: deterministic train/val/test splits, PII
redaction, per-domain stats, length histograms, exact-integer TF-IDF
term stats.

The round-3 widening of the training-data operator family (driver
brief): everything a curation pass runs between extraction and packing.
Every operator here is a single vectorized ``map_batches`` or a
partial-aggregate → slim groupby — no all-to-all beyond the final
keyed aggregate — and every one has a value-hash DuckDB oracle
(synthesized inputs are generated IDENTICALLY in SQL, the
``url_canon`` pattern, so the operator itself is what the hash
verifies).

Reference analogues: the split/filter/annotate steps of
deed_ocr/workflow.py's per-document pass (classify → annotate →
emit), generalized to corpus scale.
"""

from __future__ import annotations

import hashlib
import re
from typing import List

import numpy as np
import pyarrow as pa
import ray.data
from ..sources.pages import read_pq
from .exchange import gather, keyed_aggregate, keyed_exchange, ordered_offsets

# ------------------------------------------------- stratified hash split

def _split_bucket(doc_id: int) -> int:
    """Deterministic 0-99 bucket: first 8 hex chars of md5(str(doc_id)).
    Bit-identical to DuckDB ``('0x'||substr(md5(x),1,8))::UBIGINT % 100``."""
    return int(hashlib.md5(str(doc_id).encode()).hexdigest()[:8], 16) % 100


def q_stratified_split(sf_dir: str, test_pct: int = 5, val_pct: int = 5) -> "ray.data.Dataset":
    """Deterministic train/val/test assignment by content-independent
    hash bucket — the reproducible split every training-data pipeline
    needs (stable under re-runs, insensitive to row order, no RNG
    state). Stateless map, no shuffle.
    Columns: doc_id, bucket, split."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        buckets = [_split_bucket(i) for i in ids]
        splits = [
            "test" if b < test_pct else ("val" if b < test_pct + val_pct else "train")
            for b in buckets
        ]
        return pa.table({
            "doc_id": t["doc_id"],
            "bucket": pa.array(buckets, type=pa.int64()),
            "split": pa.array(splits, type=pa.string()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_split_sql(test_pct: int = 5, val_pct: int = 5) -> str:
    return f"""
SELECT doc_id,
       CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100
            AS BIGINT) AS bucket,
       CASE WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100
                 < {int(test_pct)} THEN 'test'
            WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100
                 < {int(test_pct) + int(val_pct)} THEN 'val'
            ELSE 'train' END AS split
FROM documents
"""


Q_STRATIFIED_SPLIT_SQL = stratified_split_sql()


def q_split_stats(sf_dir: str, test_pct: int = 5, val_pct: int = 5) -> "ray.data.Dataset":
    """Stratification check: docs per (lang, split) — how balanced the
    hash split is across language strata: one keyed (lang, split)
    count. Columns: lang, split, n_docs."""
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang"])

    def splits(t: pa.Table) -> pa.Table:
        def split(b: int) -> str:
            return "test" if b < test_pct else ("val" if b < test_pct + val_pct else "train")

        return pa.table({"lang": t["lang"], "split": pa.array(
            [split(_split_bucket(i)) for i in t["doc_id"].to_pylist()],
            type=pa.string())})

    return keyed_aggregate(ds.map_batches(splits, batch_format="pyarrow"),
                           ["lang", "split"], {"n_docs": (None, "count_all")})


def split_stats_sql(test_pct: int = 5, val_pct: int = 5) -> str:
    return f"""
SELECT lang,
       CASE WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100
                 < {int(test_pct)} THEN 'test'
            WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100
                 < {int(test_pct) + int(val_pct)} THEN 'val'
            ELSE 'train' END AS split,
       CAST(COUNT(*) AS BIGINT) AS n_docs
FROM documents GROUP BY 1, 2
"""


Q_SPLIT_STATS_SQL = split_stats_sql()


# --------------------------------------------------------- PII redaction

# RE2-safe patterns (no backrefs/lookaheads), identical semantics in
# Python re and DuckDB regexp_* — emails first, then phones.
EMAIL_PAT = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_PAT = r"\b\d{3}-\d{3}-\d{4}\b"
_EMAIL_RE = re.compile(EMAIL_PAT)
_PHONE_RE = re.compile(PHONE_PAT)


def redact_pii(text: str) -> tuple:
    """``(clean_text, n_emails, n_phones)`` — emails then phones
    replaced with typed placeholders."""
    clean, n_emails = _EMAIL_RE.subn("<EMAIL>", text)
    clean, n_phones = _PHONE_RE.subn("<PHONE>", clean)
    return clean, n_emails, n_phones


def q_pii_redact(sf_dir: str) -> "ray.data.Dataset":
    """PII scrub over deterministic PII-bearing docs (the sf tables
    carry no contact strings, so email/phone suffixes are synthesized
    from doc_id — IDENTICALLY in the oracle, so the redaction kernel is
    what the hash verifies). One vectorized map, no shuffle; at corpus
    scale this is a pre-release compliance pass.
    Columns: doc_id, n_emails, n_phones, clean_text."""
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scrub(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..functions import tokens as tk

        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = lambda a: pc.cast(pa.array(a), pa.string())  # noqa: E731
        email_sfx = pc.if_else(
            pa.array(dids % 2 == 0),
            pc.binary_join_element_wise(
                " Contact user", s(dids), "@mail", s(dids % 7),
                ".example.org now.", ""),
            "")
        phone_sfx = pc.if_else(
            pa.array(dids % 3 == 0),
            pc.binary_join_element_wise(
                " Call 555-", s(100 + dids % 900), "-", s(1000 + dids % 9000),
                ".", ""),
            "")
        full = pc.binary_join_element_wise(
            tk._plain(t["text"]).cast(pa.string()), email_sfx, phone_sfx, "")
        n_e = pc.count_substring_regex(full, EMAIL_PAT)
        clean = pc.replace_substring_regex(full, EMAIL_PAT, "<EMAIL>")
        n_p = pc.count_substring_regex(clean, PHONE_PAT)
        clean = pc.replace_substring_regex(clean, PHONE_PAT, "<PHONE>")
        return pa.table({
            "doc_id": t["doc_id"],
            "n_emails": n_e.cast(pa.int64()),
            "n_phones": n_p.cast(pa.int64()),
            "clean_text": clean,
        })

    return ds.map_batches(scrub, batch_format="pyarrow")


Q_PII_REDACT_SQL = rf"""
WITH raw AS (
  SELECT doc_id,
    text ||
    CASE WHEN doc_id % 2 = 0
         THEN ' Contact user' || doc_id || '@mail' || (doc_id % 7) ||
              '.example.org now.' ELSE '' END ||
    CASE WHEN doc_id % 3 = 0
         THEN ' Call 555-' || (100 + doc_id % 900) || '-' ||
              (1000 + doc_id % 9000) || '.' ELSE '' END AS full_text
  FROM documents
)
SELECT doc_id,
  CAST(length(regexp_extract_all(full_text, '{EMAIL_PAT}')) AS BIGINT) AS n_emails,
  CAST(length(regexp_extract_all(
      regexp_replace(full_text, '{EMAIL_PAT}', '<EMAIL>', 'g'),
      '{PHONE_PAT}')) AS BIGINT) AS n_phones,
  regexp_replace(
      regexp_replace(full_text, '{EMAIL_PAT}', '<EMAIL>', 'g'),
      '{PHONE_PAT}', '<PHONE>', 'g') AS clean_text
FROM raw
"""


# -------------------------------------------------------- domain rollup

def q_domain_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-domain corpus stats (domain synthesized from ``source`` the
    same way the url_canon family does — IDENTICAL synthesis in the
    oracle), one keyed aggregate; text column is never read
    (``n_chars`` is in the table).
    Columns: domain, n_docs, total_chars, avg_chars."""
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["source", "n_chars"])

    def domains(t: pa.Table) -> pa.Table:
        return pa.table({"domain": pa.array(
            [f"www.{src}.example.com" for src in t["source"].to_pylist()],
            type=pa.string()), "n_chars": t["n_chars"]})

    agg = keyed_aggregate(ds.map_batches(domains, batch_format="pyarrow"),
                          "domain", {"n_docs": (None, "count_all"),
                                     "total_chars": ("n_chars", "sum")})

    def finish(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n_docs"].to_pylist(), dtype=np.float64)
        c = np.asarray(t["total_chars"].to_pylist(), dtype=np.float64)
        avg = np.divide(c, n, out=np.zeros_like(c), where=n > 0)
        return pa.table({
            "domain": t["domain"],
            "n_docs": t["n_docs"],
            "total_chars": t["total_chars"],
            "avg_chars": pa.array(avg, type=pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


Q_DOMAIN_STATS_SQL = """
SELECT 'www.' || source || '.example.com' AS domain,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       CAST(SUM(n_chars) AS DOUBLE) / COUNT(*) AS avg_chars
FROM documents GROUP BY 1
"""


# ---------------------------------------------------- length histogram

def q_length_histogram(sf_dir: str) -> "ray.data.Dataset":
    """Power-of-two document-length histogram — the size-distribution
    profile a curation pass reads before choosing batch/window sizes.
    Integer-exact bucketing (bit_length, no float log); one keyed
    aggregate. Columns: bucket, lo_chars, hi_chars, n_docs,
    total_chars."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["n_chars"])

    def buckets(t: pa.Table) -> pa.Table:
        return pa.table({"bucket": pa.array(
            [max(int(n), 1).bit_length() for n in t["n_chars"].to_pylist()],
            type=pa.int64()), "n_chars": t["n_chars"]})

    agg = keyed_aggregate(ds.map_batches(buckets, batch_format="pyarrow"),
                          "bucket", {"n_docs": (None, "count_all"),
                                     "total_chars": ("n_chars", "sum")})

    def finish(t: pa.Table) -> pa.Table:
        b = t["bucket"].to_pylist()
        return pa.table({
            "bucket": t["bucket"],
            "lo_chars": pa.array([1 << (x - 1) for x in b], type=pa.int64()),
            "hi_chars": pa.array([(1 << x) - 1 for x in b], type=pa.int64()),
            "n_docs": t["n_docs"],
            "total_chars": t["total_chars"],
        })

    return agg.map_batches(finish, batch_format="pyarrow")


Q_LENGTH_HISTOGRAM_SQL = """
SELECT bucket,
       CAST(1 << (bucket - 1) AS BIGINT) AS lo_chars,
       CAST((1 << bucket) - 1 AS BIGINT) AS hi_chars,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM (
  SELECT CAST(length(bin(GREATEST(n_chars, 1))) AS BIGINT) AS bucket, n_chars
  FROM documents
) GROUP BY 1
"""


# -------------------------------------- exact-integer TF-IDF term stats

def q_term_stats(sf_dir: str, min_len: int = 7, k: int = 50) -> "ray.data.Dataset":
    """Document frequency + term frequency for long terms, with the
    corpus size — the exact-INTEGER components of TF-IDF (idf =
    log(n_docs/df) is one float away, computed client-side; keeping the
    operator integer-exact makes it oracle-hashable). Each doc is one
    row, so per-batch (term, doc) rows are globally distinct: df is a
    count and tf a sum in ONE keyed aggregate, and one
    ``exchange.gather`` keeps the top ``k`` by (df desc, term asc).
    Columns: term, df, tf, n_docs."""
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    n_docs = ds.count()

    def pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..functions import tokens as tk

        flat, parent = tk.explode_ws(t["text"])
        keep = pc.greater_equal(pc.utf8_length(flat), min_len)
        flat, parent = flat.filter(keep), parent.filter(keep)
        # per-row (= per-doc) term counts via Arrow group_by: the row
        # index discriminates docs within the batch
        g = (pa.table({"i": parent, "term": flat.cast(pa.string())})
             .group_by(["i", "term"], use_threads=False)
             .aggregate([([], "count_all")]))
        return pa.table({
            "term": g["term"],
            "cnt": g["count_all"].cast(pa.int64()),
        })

    agg = keyed_aggregate(ds.map_batches(pairs, batch_format="pyarrow"),
                          "term", {"df": (None, "count_all"), "tf": ("cnt", "sum")})

    def top_terms(t: pa.Table) -> pa.Table:
        top = t.sort_by([("df", "descending"), ("term", "ascending")]).slice(0, k)
        return top.append_column(
            "n_docs", pa.array([n_docs] * top.num_rows, type=pa.int64()))

    return gather(agg, top_terms)


def term_stats_sql(min_len: int = 7, k: int = 50) -> str:
    return rf"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS term
  FROM documents WHERE trim(text) <> ''
),
f AS (
  SELECT term, doc_id, COUNT(*) AS cnt FROM toks
  WHERE length(term) >= {int(min_len)} GROUP BY 1, 2
)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df, CAST(SUM(cnt) AS BIGINT) AS tf,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM documents) AS n_docs
FROM f GROUP BY term
ORDER BY df DESC, term ASC LIMIT {int(k)}
"""


Q_TERM_STATS_SQL = term_stats_sql()


# -------------------------------------- deterministic stratified sample

def q_stratified_sample(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """Fixed-size deterministic sample PER STRATUM (language): the k
    docs with the smallest ``md5(doc_id)`` in each lang — the
    reproducible per-group sampler (companion to ``stratified_split``,
    which partitions ALL docs; this picks a bounded audit/eval set per
    stratum, stable under re-runs and row order).

    Grouped-top-k shape: each batch keeps only its local k smallest
    (lang, h) rows (combiner — the exchange carries at most
    k × strata × blocks slim rows, never the corpus), then one slim
    ``keyed_exchange`` on ``lang`` resolves the global per-stratum top-k
    (one sort per partition, ``cumcount`` ranks). Ties are impossible
    (md5 over distinct ids), but doc_id breaks them deterministically
    anyway, matching the oracle's ORDER BY.
    Columns: lang, doc_id, h, rk.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang"])

    def topk(g) -> pa.Table:
        # the k smallest (h, doc_id) per lang, ranked from 1
        g = g.sort_values(["lang", "h", "doc_id"])
        rk = g.groupby("lang", sort=False, dropna=False).cumcount().to_numpy() + 1
        g, rk = g[rk <= k], rk[rk <= k]
        return pa.table({
            "lang": pa.array(g["lang"].tolist(), type=pa.string()),
            "doc_id": pa.array(g["doc_id"].to_numpy(), type=pa.int64()),
            "h": pa.array(g["h"].tolist(), type=pa.string()),
            "rk": pa.array(rk, type=pa.int64()),
        })

    def local_topk(t: pa.Table) -> pa.Table:
        df = t.select(["lang", "doc_id"]).to_pandas()
        df["h"] = [hashlib.md5(str(i).encode()).hexdigest() for i in df["doc_id"]]
        return topk(df)

    return keyed_exchange(ds.map_batches(local_topk, batch_format="pyarrow"),
                          "lang", topk)


def stratified_sample_sql(k: int = 10) -> str:
    return f"""
SELECT lang, doc_id, h, CAST(rk AS BIGINT) AS rk FROM (
  SELECT lang, doc_id, md5(CAST(doc_id AS VARCHAR)) AS h,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rk
  FROM documents
) WHERE rk <= {int(k)}
"""


Q_STRATIFIED_SAMPLE_SQL = stratified_sample_sql()


# ------------------------------------------- source mixture resampling

def _mixture_weight_pct(source: str) -> int:
    """Deterministic per-source keep weight in percent (25/50/75/100).

    Stands in for the weights table a mixture config would supply; a
    pure function of the source name so the DuckDB oracle can derive
    the identical value: ``25 * ((CAST(substr(source, 4) AS INT) % 4) + 1)``
    for the testdata's ``src<N>`` names (unknown names keep 100%).
    """
    try:
        return 25 * ((int(source[3:]) % 4) + 1)
    except (ValueError, IndexError):
        return 100


def q_source_mixture(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic weighted downsampling to a target source MIXTURE —
    the resampling pass that rebalances a crawl toward the training
    mixture (e.g. upweight books, downweight low-quality web). A doc is
    kept iff its content-independent hash bucket (md5(doc_id) % 100,
    the [[q_stratified_split]] bucket) falls below its source's keep
    weight, so the sample is stable under re-runs and row order and
    needs NO global state.

    Two stages, canonical broadcast shape: (1) a slim distinct-source
    pass (one keyed count of the sources) feeds the driver the handful
    of sources, which builds the weight dict and ``ray.put``s it ONCE;
    (2) a stateless vectorized probe keeps/drops each row against the
    broadcast dict. At 100 TB the weights table is a few hundred rows —
    broadcast, never a shuffle join.
    Columns: doc_id, source, bucket, weight_pct.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])

    distinct = keyed_aggregate(ds, "source", {"n": (None, "count_all")}).take_all()
    weights = {r["source"]: _mixture_weight_pct(r["source"]) for r in distinct}
    w_ref = ray.put(weights)

    def probe(t: pa.Table) -> pa.Table:
        w = ray.get(w_ref)
        ids = t["doc_id"].to_pylist()
        srcs = t["source"].to_pylist()
        buckets = np.fromiter((_split_bucket(i) for i in ids),
                              dtype=np.int64, count=len(ids))
        pct = np.fromiter((w.get(s, 100) for s in srcs),
                          dtype=np.int64, count=len(srcs))
        keep = buckets < pct
        return pa.table({
            "doc_id": pa.array(np.asarray(ids, dtype=np.int64)[keep], type=pa.int64()),
            "source": pa.array([s for s, k in zip(srcs, keep) if k], type=pa.string()),
            "bucket": pa.array(buckets[keep], type=pa.int64()),
            "weight_pct": pa.array(pct[keep], type=pa.int64()),
        })

    return ds.map_batches(probe, batch_format="pyarrow")


Q_SOURCE_MIXTURE_SQL = """
SELECT doc_id, source,
       CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100
            AS BIGINT) AS bucket,
       CAST(25 * ((CAST(substr(source, 4) AS INT) % 4) + 1) AS BIGINT) AS weight_pct
FROM documents
WHERE ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100
      < 25 * ((CAST(substr(source, 4) AS INT) % 4) + 1)
"""


# --------------------------------------------- token-budget selection

TOKEN_BUDGET = 25_000


def q_token_budget(sf_dir: str, budget: int = TOKEN_BUDGET) -> "ray.data.Dataset":
    """Select the cleanest docs until a global TOKEN BUDGET is spent —
    the "take the best N billion tokens" subsetting step of a training
    run. Docs are ordered by (punct_ppm asc, doc_id) — the integer
    quality signal of [[q_quality_score]] — and kept while the running
    token total (ws tokens, inclusive) stays within ``budget``.

    The global prefix sum is :func:`exchange.ordered_offsets` over the
    SLIM (doc_id, words, punct_ppm) table (text never leaves the first
    stage): one sort, per-block word totals folded on the driver, exact
    per-row running totals stamped block-locally, then a filter. No
    stage holds more than a block; the driver sees one number per block.
    Columns: doc_id, words, punct_ppm, cum_tokens.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def measure(t: pa.Table) -> pa.Table:
        from deed_ocr_ray.pipelines.textops import _PUNCT_RE

        words = []
        ppm = []
        for x in t["text"].to_pylist():
            c = len(x)
            words.append(len(x.split()))
            p = len(_PUNCT_RE.findall(x))
            ppm.append((p * 1_000_000) // c if c else 0)
        return pa.table({
            "doc_id": t["doc_id"],
            "words": pa.array(words, type=pa.int64()),
            "punct_ppm": pa.array(ppm, type=pa.int64()),
        })

    ranked = ordered_offsets(ds.map_batches(measure, batch_format="pyarrow"),
                             ["punct_ppm", "doc_id"], "cum_tokens", weight="words")

    def within_budget(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # the running total includes each doc's own words
        t = t.set_column(3, "cum_tokens", pc.add(t["cum_tokens"], t["words"]))
        return t.filter(pc.less_equal(t["cum_tokens"], budget))

    return ranked.map_batches(within_budget, batch_size=None, batch_format="pyarrow")


def token_budget_sql(budget: int = TOKEN_BUDGET) -> str:
    return rf"""
WITH q AS (
  SELECT doc_id,
         CASE WHEN trim(text)='' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS words,
         CASE WHEN length(text)=0 THEN 0
              ELSE (length(regexp_replace(text, '[^.!?,;:]', '', 'g')) * 1000000)
                   // length(text) END AS punct_ppm
  FROM documents
),
w AS (
  SELECT doc_id, words, punct_ppm,
         SUM(words) OVER (ORDER BY punct_ppm, doc_id
                          ROWS UNBOUNDED PRECEDING) AS cum
  FROM q
)
SELECT doc_id, words, punct_ppm, CAST(cum AS BIGINT) AS cum_tokens
FROM w WHERE cum <= {int(budget)}
"""


Q_TOKEN_BUDGET_SQL = token_budget_sql()


# -------------------------------------- benchmark decontamination

DECON_N = 8          # n-gram length of the overlap test
BENCH_MOD = 40       # doc_id % BENCH_MOD == 0 stands in for the benchmark set


def q_decontaminate(sf_dir: str, n: int = DECON_N,
                    bench_mod: int = BENCH_MOD) -> "ray.data.Dataset":
    """Benchmark DECONTAMINATION — flag training docs sharing any
    ``n``-gram with a held-out benchmark set (the standard test-set
    leakage scan, cf. GPT-3 App. C / PaLM's 8-gram overlap rule). The
    benchmark here is the deterministic subset ``doc_id % bench_mod ==
    0``; a real run would read it from its own table.

    Broadcast shape, NOT a shuffle: the benchmark is fixed-size and
    small by definition, so its distinct n-grams are collected once,
    ``ray.put`` once, and every corpus batch probes the broadcast
    frozenset locally (C-speed set probe per doc, one pass). Contrast
    with [[q_dup_ngram_coverage]], which must co-locate grams because
    BOTH sides are corpus-scale. Tokenization is single-space split of
    the trimmed text, bit-identical to the oracle's ``string_split``.

    Columns (non-benchmark docs only): doc_id, n_grams (distinct),
    n_overlap (distinct grams also in the benchmark), contaminated.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def bench_grams(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..functions import tokens as tk

        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = tk._plain(t["text"]).filter(pa.array(dids % bench_mod == 0))
        _, _, ng = tk.ngram_windows(texts, n)
        return pa.table({"ng": pc.unique(ng).cast(pa.string())})

    # benchmark side: small by definition -> driver distinct + one
    # broadcast of the Arrow value-set (zero-copy in the object store)
    bench = set()
    for b in ds.map_batches(bench_grams, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        bench.update(b["ng"].to_pylist())
    bench_ref = ray.put(pa.array(sorted(bench), type=pa.string()))

    def probe(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..functions import tokens as tk
        from .broadcast import cached_get

        bench_arr = cached_get(bench_ref)
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = dids % bench_mod != 0
        texts = tk._plain(t["text"]).filter(pa.array(keep))
        dnb = dids[keep]
        parent, _, ng = tk.ngram_windows(texts, n)
        # distinct grams per doc, then per-doc counts via bincount —
        # zero-window docs still emit a (0, 0) row
        u = (pa.table({"p": pa.array(parent), "ng": ng})
             .group_by(["p", "ng"], use_threads=False).aggregate([]))
        p = u["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        over = pc.is_in(u["ng"], value_set=bench_arr).to_numpy(zero_copy_only=False)
        n_grams = np.bincount(p, minlength=len(dnb)).astype(np.int64)
        n_over = np.bincount(p[over], minlength=len(dnb)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(dnb, type=pa.int64()),
            "n_grams": pa.array(n_grams, type=pa.int64()),
            "n_overlap": pa.array(n_over, type=pa.int64()),
            "contaminated": pa.array(n_over > 0, type=pa.bool_()),
        })

    return ds.map_batches(probe, batch_format="pyarrow")


def decontaminate_sql(n: int = DECON_N, bench_mod: int = BENCH_MOD) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, string_split(trim(text), ' ') AS arr FROM documents
),
grams AS (
  SELECT DISTINCT doc_id,
         array_to_string(list_slice(arr, u.j + 1, u.j + {int(n)}), ' ') AS ng
  FROM toks, LATERAL (SELECT unnest(range(len(arr) - {int(n)} + 1)) AS j) u
),
bench AS (SELECT DISTINCT ng FROM grams WHERE doc_id % {int(bench_mod)} = 0),
ngc AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams
        FROM grams WHERE doc_id % {int(bench_mod)} <> 0 GROUP BY 1),
ov AS (SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_overlap
       FROM grams g JOIN bench USING (ng)
       WHERE g.doc_id % {int(bench_mod)} <> 0 GROUP BY 1)
SELECT t.doc_id,
       COALESCE(ngc.n_grams, 0) AS n_grams,
       COALESCE(ov.n_overlap, 0) AS n_overlap,
       COALESCE(ov.n_overlap, 0) > 0 AS contaminated
FROM toks t
LEFT JOIN ngc USING (doc_id) LEFT JOIN ov USING (doc_id)
WHERE t.doc_id % {int(bench_mod)} <> 0
"""


Q_DECONTAMINATE_SQL = decontaminate_sql()


# ------------------------------------------------------ snapshot diff

DIFF_DROP_MOD = 13     # docs removed in snapshot B
DIFF_EDIT_MOD = 7      # docs whose text changed in snapshot B
DIFF_ADD_MOD = 11      # docs with a NEW derived doc in snapshot B
# Added docs in snapshot B get key -(doc_id) - 1: real doc_ids are
# non-negative, so the synthetic keys can never alias a real doc no
# matter how large the corpus grows (a fixed +1e6 offset would collide
# once doc_ids reach 1M, and the Max-fold operator and the FULL OUTER
# JOIN oracle diverge differently on aliased keys).


def q_snapshot_diff(sf_dir: str) -> "ray.data.Dataset":
    """Dataset-versioning diff between two corpus snapshots: which docs
    were added / removed / changed between crawl A and crawl B — the
    incremental-refresh primitive (re-process only the delta, not the
    100 TB). Snapshot B is derived DETERMINISTICALLY from the documents
    table (drop ``doc_id % 13 == 0``, upper-case ``% 7 == 0``, add a
    ``-doc_id-1``-keyed variant for ``% 11 == 0``) so the oracle
    constructs the identical pair of snapshots in SQL.

    Scale shape: ONE read emits both sides' slim (doc_id, fp) rows from
    the same batch — the text is hashed in place and never crosses the
    exchange; one groupby folds the two sides (string-max over
    side-tagged fp columns, '' as the absent sentinel) and a vectorized
    classify keeps only the delta rows. Columns: doc_id, change
    ('added' | 'removed' | 'changed').
    """
    import hashlib as _hl

    import pyarrow.compute as pc

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def emit_sides(t: pa.Table) -> pa.Table:
        ids: List[int] = []; a_fp: List[str] = []; b_fp: List[str] = []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            fp = _hl.md5(txt.encode()).hexdigest()
            ids.append(did); a_fp.append(fp); b_fp.append("")
            if did % DIFF_DROP_MOD != 0:
                bt = txt.upper() if did % DIFF_EDIT_MOD == 0 else txt
                ids.append(did); a_fp.append("")
                b_fp.append(_hl.md5(bt.encode()).hexdigest())
            if did % DIFF_ADD_MOD == 0:
                ids.append(-did - 1); a_fp.append("")
                b_fp.append(_hl.md5((txt + " v2").encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "a_fp": pa.array(a_fp, type=pa.string()),
            "b_fp": pa.array(b_fp, type=pa.string()),
        })

    agg = keyed_aggregate(ds.map_batches(emit_sides, batch_format="pyarrow"),
                          "doc_id", {"a_fp": ("a_fp", "max"), "b_fp": ("b_fp", "max")})

    def classify(t: pa.Table) -> pa.Table:
        a = t["a_fp"]; b = t["b_fp"]
        has_a = pc.not_equal(a, "")
        has_b = pc.not_equal(b, "")
        change = pc.if_else(
            pc.invert(has_a), pa.scalar("added"),
            pc.if_else(pc.invert(has_b), pa.scalar("removed"),
                       pc.if_else(pc.not_equal(a, b), pa.scalar("changed"),
                                  pa.scalar("unchanged"))))
        out = pa.table({"doc_id": t["doc_id"], "change": change})
        return out.filter(pc.not_equal(change, "unchanged"))

    return agg.map_batches(classify, batch_format="pyarrow")


Q_SNAPSHOT_DIFF_SQL = f"""
WITH a AS (SELECT doc_id, md5(text) AS fp FROM documents),
b AS (
  SELECT doc_id,
         md5(CASE WHEN doc_id % {DIFF_EDIT_MOD} = 0 THEN upper(text)
                  ELSE text END) AS fp
  FROM documents WHERE doc_id % {DIFF_DROP_MOD} <> 0
  UNION ALL
  SELECT -doc_id - 1, md5(text || ' v2')
  FROM documents WHERE doc_id % {DIFF_ADD_MOD} = 0
)
SELECT doc_id, change FROM (
  SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
         CASE WHEN a.doc_id IS NULL THEN 'added'
              WHEN b.doc_id IS NULL THEN 'removed'
              WHEN a.fp <> b.fp THEN 'changed'
              ELSE 'unchanged' END AS change
  FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
) WHERE change <> 'unchanged'
"""


# ------------------------------------------------------ delta apply (CDC)

def q_delta_apply(sf_dir: str) -> "ray.data.Dataset":
    """Incremental-refresh APPLY — the companion to ``q_snapshot_diff``:
    reconstruct snapshot B by applying the change stream (deletes,
    edits, inserts — derived with the same deterministic rules) onto
    corpus A, without re-reading anything beyond one pass. The CDC
    primitive a 100-TB corpus needs to avoid reprocessing the world on
    every crawl refresh.

    Scale shape: ONE read emits A rows and delta rows side-tagged from
    the same batch (text crosses the exchange once); one
    ``keyed_exchange`` on ``doc_id`` co-locates each doc's rows; a
    vectorized highest-side-wins resolve applies delete > upsert > keep.
    Columns: doc_id, text.
    """
    import pandas as pd

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def emit(t: pa.Table) -> pa.Table:
        ids: List[int] = []; texts: List[str] = []; sides: List[int] = []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ids.append(did); texts.append(txt); sides.append(0)  # A row
            if did % DIFF_DROP_MOD == 0:
                ids.append(did); texts.append(""); sides.append(2)  # delete
            elif did % DIFF_EDIT_MOD == 0:
                ids.append(did); texts.append(txt.upper()); sides.append(1)
            if did % DIFF_ADD_MOD == 0:
                ids.append(-did - 1); texts.append(txt + " v2"); sides.append(1)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "side": pa.array(sides, type=pa.int8()),
        })

    def resolve(g: pd.DataFrame) -> pa.Table:
        # highest side wins per doc: delete(2) > upsert(1) > A(0)
        g = g.sort_values(["doc_id", "side"], ascending=[True, False],
                          kind="mergesort")
        g = g[~g.duplicated("doc_id", keep="first")]
        g = g[g["side"] != 2]  # deletes vanish from B
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(), type=pa.int64()),
            "text": pa.array(g["text"].tolist(), type=pa.string()),
        })

    return keyed_exchange(ds.map_batches(emit, batch_format="pyarrow"),
                          "doc_id", resolve)


Q_DELTA_APPLY_SQL = f"""
SELECT doc_id,
       CASE WHEN doc_id % {DIFF_EDIT_MOD} = 0 THEN upper(text)
            ELSE text END AS text
FROM documents WHERE doc_id % {DIFF_DROP_MOD} <> 0
UNION ALL
SELECT -doc_id - 1, text || ' v2'
FROM documents WHERE doc_id % {DIFF_ADD_MOD} = 0
"""
