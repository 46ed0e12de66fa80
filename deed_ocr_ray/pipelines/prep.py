"""The composed training-data prep pipeline: the "run every pipeline
they run today" flagship that chains the engine's stages end-to-end —

    pages ──extract──> ok rows ──quality filter──> exact dedup (first
    capture wins) ──> token counts ──> packed training windows

Every stage is one of the engine's existing primitives: the extraction
actor stage, vectorized Arrow filters, the coarse-partitioned dedup
exchange (fingerprints only — text never crosses it), and the ordered
scan (``exchange.ordered_offsets``) for window packing.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.pages import read_pq
from .corpus import pages_corpus_for
from .exchange import keyed_exchange
from .extract_pipeline import extract_dataset
from .packing import WINDOW_TOKENS, pack_tokens
from ..sources.pages import read_pages

MIN_TOKENS = 10


def q_training_prep(sf_dir: str) -> "ray.data.Dataset":
    """Full prep chain over the synthesized pages corpus. Returns one
    row per surviving document: url, warc_ts, n_tokens, start_tok,
    window_id. Reads the extraction checkpoint parquet — downstream
    jobs consume the extraction run's checkpointed output, not a
    re-extraction — which also gives the chain a value-hash DuckDB
    oracle (``training_prep_sql``: the full dedup+packing replay over
    the same artifact)."""
    from .corpus import extracted_corpus_for

    extracted = read_pq(extracted_corpus_for(sf_dir),
                        columns=["url", "warc_ts", "status",
                                 "extracted_text"])

    # ok rows -> (fp, url, warc_ts, n_tokens): fingerprint + token
    # count computed in the SAME pass; only slim columns continue.
    def slim(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["status"], "ok")
        t = t.filter(keep)
        fps, toks = [], []
        for x in t["extracted_text"].to_pylist():
            fps.append(hashlib.md5(x.encode("utf-8")).hexdigest())
            toks.append(len(x.split()))
        out = pa.table({
            "fp": pa.array(fps, type=pa.string()),
            "url": t["url"].cast(pa.string()),
            "warc_ts": t["warc_ts"].cast(pa.timestamp("us")),
            "n_tokens": pa.array(toks, type=pa.int64()),
        })
        return out.filter(pc.greater_equal(out["n_tokens"], MIN_TOKENS))

    slimmed = extracted.map_batches(slim, batch_format="pyarrow")

    # exact dedup, first capture wins by (warc_ts, url): keyed exchange
    # on fp, vectorized in-partition resolution.
    def first_per_fp(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["fp", "warc_ts", "url"]).drop_duplicates("fp", keep="first")
        return pa.table({
            "url": pa.array(g["url"].tolist(), type=pa.string()),
            "warc_ts": pa.Array.from_pandas(g["warc_ts"], type=pa.timestamp("us")),
            "n_tokens": pa.array(g["n_tokens"].to_numpy(), type=pa.int64()),
        })

    # window packing in (url, warc_ts) order — the FULL key: duplicate
    # urls with different content both survive dedup
    return pack_tokens(keyed_exchange(slimmed, "fp", first_per_fp),
                       ["url", "warc_ts"])


def training_prep_sql(sf_dir: str) -> str:
    """DuckDB replay of :func:`q_training_prep` over the extraction
    checkpoint parquet (the same /tmp artifact the query reads): ok
    filter, whitespace token count, MIN_TOKENS gate, md5 exact dedup
    with first-capture-wins by (warc_ts, url), then the global
    (url, warc_ts)-ordered exclusive prefix sum and window ids."""
    from .corpus import extracted_corpus_for

    ckpt = extracted_corpus_for(sf_dir)
    return rf"""
WITH ok AS (
  SELECT url, warc_ts, md5(extracted_text) AS fp,
         CASE WHEN trim(extracted_text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(extracted_text), '\s+'))
         END AS n_tokens
  FROM read_parquet('{ckpt}/*.parquet')
  WHERE status = 'ok'
),
f AS (SELECT * FROM ok WHERE n_tokens >= {MIN_TOKENS}),
u AS (
  SELECT url, warc_ts, n_tokens FROM (
    SELECT *, row_number() OVER (PARTITION BY fp
                                 ORDER BY warc_ts, url) AS rn
    FROM f) WHERE rn = 1
),
s AS (
  SELECT url, warc_ts, n_tokens,
         COALESCE(SUM(n_tokens) OVER (
             ORDER BY url, warc_ts
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
         AS start_tok
  FROM u
)
SELECT url, warc_ts, n_tokens, CAST(start_tok AS BIGINT) AS start_tok,
       CAST(start_tok // {WINDOW_TOKENS} AS BIGINT) AS window_id
FROM s
"""


# -------------------------------------- cross-doc paragraph dedup (C4)

def q_paragraph_dedup(sf_dir: str) -> "ray.data.Dataset":
    """C4-style cross-document paragraph dedup over the corpus's WET
    text column — the pre-extracted text a Common-Crawl-style input
    ships alongside the raw HTML, which is exactly what the original
    C4 pipeline deduplicated. Same operator as
    :func:`q_paragraph_dedup_extracted` (shared
    ``paragraph_dedup_dataset``), but the input is SQL-visible, so
    this entry carries a full DuckDB value-hash oracle
    (``paragraph_dedup_sql``). Columns: url, warc_ts, clean_text,
    n_blocks, n_dropped."""
    from ..sources.pages import read_pages as _rp

    corpus = pages_corpus_for(sf_dir)
    pages = _rp(corpus, columns=["url", "warc_ts", "text"])

    def as_extracted(t: pa.Table) -> pa.Table:
        return pa.table({
            "url": t["url"].cast(pa.string()),
            "warc_ts": t["warc_ts"].cast(pa.timestamp("us")),
            "status": pa.array(["ok"] * t.num_rows, type=pa.string()),
            "extracted_text": t["text"].cast(pa.string()),
        })

    return paragraph_dedup_dataset(
        pages.map_batches(as_extracted, batch_format="pyarrow"))


def paragraph_dedup_sql(corpus: str) -> str:
    """DuckDB replay of :func:`q_paragraph_dedup` over the corpus
    parquet: explode text into \\n\\n blocks with ordinals, keep the
    (url, warc_ts, idx)-min row per distinct block value (md5 equality
    == string equality absent collisions), re-aggregate in block
    order. Docs whose every block loses vanish (C4 semantics)."""
    nl2 = "chr(10)||chr(10)"
    return f"""
WITH docs AS (
  SELECT url, warc_ts, string_split(text, {nl2}) AS blks
  FROM read_parquet('{corpus}/*.parquet')
  WHERE text IS NOT NULL AND text <> ''
),
blocks AS (
  SELECT url, warc_ts,
         unnest(blks) AS blk,
         generate_subscripts(blks, 1) - 1 AS idx,
         len(blks) AS tot
  FROM docs
),
kept AS (
  SELECT * FROM (
    SELECT url, warc_ts, blk, idx, tot,
           row_number() OVER (PARTITION BY blk
                              ORDER BY url, warc_ts, idx) AS rn
    FROM blocks
  ) WHERE rn = 1
)
SELECT url, warc_ts,
       string_agg(blk, {nl2} ORDER BY idx) AS clean_text,
       CAST(count(*) AS BIGINT) AS n_blocks,
       CAST(any_value(tot) - count(*) AS BIGINT) AS n_dropped
FROM kept GROUP BY url, warc_ts
"""


def q_paragraph_dedup_extracted(sf_dir: str) -> "ray.data.Dataset":
    """C4-style cross-document PARAGRAPH dedup over the extracted
    corpus: every block (extracted_text is blocks joined by "\\n\\n")
    is fingerprinted; corpus-wide duplicate blocks keep only the FIRST
    occurrence by (url, block_idx) and are dropped everywhere else
    (the C4/Gopher exact line-dedup rule — kills cross-site
    boilerplate the per-page classifier can't see). Docs are then
    reassembled in original block order.

    Shape (round 4): block TEXT crosses exactly ONE exchange. The
    winner-resolution shuffle (co-locate copies by fp) carries only
    slim (part, fp, url, warc_ts, idx) rows; it emits the DROP list —
    the losing (url, warc_ts, idx) keys, a minority at corpus scale —
    which returns to co-partition with a re-exploded text stream on a
    doc-hash key, where a vectorized anti-join + reassembly runs per
    partition. The extracted ok-text is pinned once in the (spillable)
    object store so both passes read the same rows without re-running
    extraction — the single-cluster equivalent of running this over
    the extraction job's checkpointed output parquet.
    Columns: url, warc_ts, clean_text, n_blocks, n_dropped.
    Doc identity is (url, warc_ts): the corpus carries duplicate urls
    with distinct capture timestamps by design.

    Input is the extraction CHECKPOINT parquet
    (:func:`corpus.extracted_corpus_for` — downstream jobs read the
    extraction run's checkpointed output, they don't re-run the
    extractor), which also gives this entry a value-hash DuckDB
    oracle: ``paragraph_dedup_extracted_sql`` replays the dedup over
    the same checkpoint."""
    from .corpus import extracted_corpus_for

    ckpt = extracted_corpus_for(sf_dir)
    extracted = read_pq(ckpt, columns=["url", "warc_ts", "status",
                                       "extracted_text"])
    return paragraph_dedup_dataset(extracted)


def paragraph_dedup_extracted_sql(sf_dir: str) -> str:
    """DuckDB replay of :func:`q_paragraph_dedup_extracted` over the
    extraction checkpoint parquet (same artifact the query reads —
    the :func:`pages_corpus_for` cache-and-replay pattern one level
    up). Verifies the full dedup/reassembly stage on the real
    extracted text; extraction itself is pinned by the frozen-golden
    byte-identity pytests."""
    from .corpus import extracted_corpus_for

    ckpt = extracted_corpus_for(sf_dir)
    nl2 = "chr(10)||chr(10)"
    return f"""
WITH docs AS (
  SELECT url, warc_ts, string_split(extracted_text, {nl2}) AS blks
  FROM read_parquet('{ckpt}/*.parquet')
  WHERE status = 'ok' AND extracted_text <> ''
),
blocks AS (
  SELECT url, warc_ts,
         unnest(blks) AS blk,
         generate_subscripts(blks, 1) - 1 AS idx,
         len(blks) AS tot
  FROM docs
),
kept AS (
  SELECT * FROM (
    SELECT url, warc_ts, blk, idx, tot,
           row_number() OVER (PARTITION BY blk
                              ORDER BY url, warc_ts, idx) AS rn
    FROM blocks
  ) WHERE rn = 1
)
SELECT url, warc_ts,
       string_agg(blk, {nl2} ORDER BY idx) AS clean_text,
       CAST(count(*) AS BIGINT) AS n_blocks,
       CAST(any_value(tot) - count(*) AS BIGINT) AS n_dropped
FROM kept GROUP BY url, warc_ts
"""


def _para_shuffle_parts(n_docs: int) -> int:
    """Hash-shuffle aggregator count for the paragraph-dedup
    exchanges, sized by input (each partition is one aggregator ACTOR
    plus one rebuild call: a fixed 64 on a tiny input pays seconds of
    actor startup and can starve a low-CPU host into the single-plan
    multi-shuffle deadlock — NOTES.md landmine; at cluster scale this
    grows with the corpus)."""
    return max(1, min(64, n_docs // 8192 + 1))

_PD_EMPTY_DROPS = pa.table({
    "url": pa.array([], type=pa.string()),
    "warc_ts": pa.array([], type=pa.timestamp("us")),
    "idx": pa.array([], type=pa.int64()),
})

_PD_EMPTY_OUT = pa.table({
    "url": pa.array([], type=pa.string()),
    "warc_ts": pa.array([], type=pa.timestamp("us")),
    "clean_text": pa.array([], type=pa.string()),
    "n_blocks": pa.array([], type=pa.int64()),
    "n_dropped": pa.array([], type=pa.int64()),
})


def paragraph_dedup_dataset(extracted: "ray.data.Dataset") -> "ray.data.Dataset":
    def ok_slim(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.equal(t["status"], "ok"),
                             pc.not_equal(t["extracted_text"], "")))
        return pa.table({
            "url": t["url"].cast(pa.string()),
            "warc_ts": t["warc_ts"].cast(pa.timestamp("us")),
            "extracted_text": t["extracted_text"].cast(pa.string()),
        })

    # the ONE full-corpus pin: both passes below branch from these
    # blocks instead of re-running extraction (object store, spillable)
    ok = extracted.map_batches(ok_slim, batch_format="pyarrow").materialize()
    # key-based repartition needs the hash-shuffle strategy; Dataset
    # contexts are per-lineage copies of the global DataContext, so
    # this scopes to THIS operator's plan only
    from ray.data.context import ShuffleStrategy
    ok.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    n_parts = _para_shuffle_parts(ok.count())

    # ---- pass A (slim): fingerprints only through the fp exchange
    def explode_keys(t: pa.Table) -> pa.Table:
        fps, urls, tss, idxs = [], [], [], []
        for url, ts, txt in zip(t["url"].to_pylist(),
                                t["warc_ts"].to_pylist(),
                                t["extracted_text"].to_pylist()):
            for i, blk in enumerate(txt.split("\n\n")):
                fps.append(hashlib.md5(blk.encode("utf-8")).hexdigest())
                urls.append(url)
                tss.append(ts)
                idxs.append(i)
        return pa.table({
            "fp": pa.array(fps, type=pa.string()),
            # (url, warc_ts) is the doc key: the corpus has duplicate
            # urls (differing warc_ts) by design
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(tss, type=pa.timestamp("us")),
            "idx": pa.array(idxs, type=pa.int64()),
        })

    def losers(g: pd.DataFrame) -> pa.Table:
        # winner = the (url, warc_ts, idx)-min row per fp; emit ONLY
        # the losing keys (the minority), vectorized: sort then
        # duplicated-after-first (deterministic total order). Handles
        # MANY fps per call: one call per hash partition, not per key.
        if g.empty:
            return _PD_EMPTY_DROPS
        g = g.sort_values(["fp", "url", "warc_ts", "idx"], kind="mergesort")
        out = g[g.duplicated("fp", keep="first")]
        if out.empty:
            return _PD_EMPTY_DROPS
        return pa.table({
            "url": pa.array(out["url"].tolist(), type=pa.string()),
            "warc_ts": pa.Array.from_pandas(out["warc_ts"],
                                            type=pa.timestamp("us")),
            "idx": pa.array(out["idx"].to_numpy(), type=pa.int64()),
        })

    # hash-repartition on fp co-locates copies directly (no derived
    # coarse-key column, no global sort) and the whole-partition
    # map_batches returns TYPED empty tables on empty partitions —
    # unlike groupby().map_groups, whose empty-block path yields a
    # schemaless bundle (the "RefBundle with a different schema"
    # warning in earlier rounds)
    # the drop list is slim (losing keys only): materializing it is a
    # bounded barrier that keeps the two hash exchanges in SEPARATE
    # plans (two shuffles' aggregator pools in one streaming plan
    # deadlock at low CPU counts — NOTES.md landmine)
    drops = (ok.map_batches(explode_keys, batch_format="pyarrow")
             .repartition(n_parts, keys=["fp"], sort=True)
             .map_batches(losers, batch_format="pandas", batch_size=None)
             .materialize())

    # ---- pass B: text + drop tags co-partitioned on the doc key —
    # the single exchange the block text crosses
    def explode_blocks(t: pa.Table) -> pa.Table:
        urls, tss, idxs, tots, texts = [], [], [], [], []
        for url, ts, txt in zip(t["url"].to_pylist(),
                                t["warc_ts"].to_pylist(),
                                t["extracted_text"].to_pylist()):
            blocks = txt.split("\n\n")
            for i, blk in enumerate(blocks):
                urls.append(url)
                tss.append(ts)
                idxs.append(i)
                # per-doc block total rides every row so the reassembly
                # reports true drop counts even when trailing blocks drop
                tots.append(len(blocks))
                texts.append(blk)
        return pa.table({
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(tss, type=pa.timestamp("us")),
            "idx": pa.array(idxs, type=pa.int64()),
            "tot": pa.array(tots, type=pa.int64()),
            "block": pa.array(texts, type=pa.string()),
            "drop": pa.array([0] * len(urls), type=pa.int8()),
        })

    def tag_drops(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "url": t["url"].cast(pa.string()),
            "warc_ts": t["warc_ts"].cast(pa.timestamp("us")),
            "idx": t["idx"].cast(pa.int64()),
            "tot": pa.array([0] * n, type=pa.int64()),
            "block": pa.array([""] * n, type=pa.string()),
            "drop": pa.array([1] * n, type=pa.int8()),
        })

    merged = ok.map_batches(explode_blocks, batch_format="pyarrow").union(
        drops.map_batches(tag_drops, batch_format="pyarrow"))

    def rebuild_part(g: pd.DataFrame) -> pa.Table:
        if g.empty:
            return _PD_EMPTY_OUT
        d = g[g["drop"] == 1]
        t = g[g["drop"] == 0]
        if len(d):
            t = t.merge(d[["url", "warc_ts", "idx"]].drop_duplicates(),
                        on=["url", "warc_ts", "idx"], how="left",
                        indicator=True)
            t = t[t["_merge"] == "left_only"]
        if t.empty:
            return _PD_EMPTY_OUT
        t = t.sort_values(["url", "warc_ts", "idx"])
        agg = t.groupby(["url", "warc_ts"], sort=False).agg(
            clean_text=("block", "\n\n".join),
            n_blocks=("block", "size"),
            tot=("tot", "first"),
        ).reset_index()
        return pa.table({
            "url": pa.array(agg["url"].tolist(), type=pa.string()),
            "warc_ts": pa.Array.from_pandas(agg["warc_ts"],
                                            type=pa.timestamp("us")),
            "clean_text": pa.array(agg["clean_text"].tolist(),
                                   type=pa.string()),
            "n_blocks": pa.array(
                agg["n_blocks"].to_numpy().astype(np.int64),
                type=pa.int64()),
            "n_dropped": pa.array(
                (agg["tot"] - agg["n_blocks"]).to_numpy().astype(np.int64),
                type=pa.int64()),
        })

    # docs whose every block was a duplicate vanish from the output
    # entirely (C4 semantics: nothing left to train on). Hash
    # repartition on the doc key co-locates a doc's blocks with its
    # drop keys; one vectorized rebuild call per partition.
    return (merged.repartition(n_parts, keys=["url", "warc_ts"], sort=True)
            .map_batches(rebuild_part, batch_format="pandas",
                         batch_size=None))
