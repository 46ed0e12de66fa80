"""Sequence packing + distributed prefix sum + iterative clustering.

Training-data operators built on patterns Ray Data has no primitive for:

* ``q_pack_windows`` — greedy contiguous packing of documents into
  fixed-size token windows, i.e. a GLOBAL running sum of token counts
  in ``doc_id`` order: :func:`exchange.ordered_offsets` (one sort, one
  number per block folded on the driver, no second exchange) gives
  every doc its start token; the window id is that over the window
  size. ``q_seeded_shuffle`` and ``q_interleave_sources`` number rows
  in a total order the same way.

* ``q_kmeans`` — Lloyd's iterations driver-orchestrated over
  ``map_batches``: centroids are broadcast each round, every block emits
  per-cluster partial sums (k x dim, tiny), the driver reduces and
  updates. Deterministic: centroids init from the k lowest vec_ids,
  fixed iteration count, float64 throughout.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ..sources.pages import read_pq
from .exchange import keyed_aggregate, ordered_offsets

WINDOW_TOKENS = 512


def pack_tokens(ds: "ray.data.Dataset", by) -> "ray.data.Dataset":
    """``ds`` (with an int64 ``n_tokens`` column) packed in ``by`` order
    into WINDOW_TOKENS-token windows: appends each row's global token
    start offset ``start_tok`` and ``window_id = start_tok //
    WINDOW_TOKENS`` (contiguous-fill semantics)."""
    packed = ordered_offsets(ds, by, "start_tok", weight="n_tokens")

    def window(t: pa.Table) -> pa.Table:
        return t.append_column("window_id", pa.array(
            t["start_tok"].to_numpy() // WINDOW_TOKENS, type=pa.int64()))

    return packed.map_batches(window, batch_size=None, batch_format="pyarrow")


def q_pack_windows(sf_dir: str) -> "ray.data.Dataset":
    """Pack docs (ordered by doc_id) into WINDOW_TOKENS-token windows:
    each doc gets its global token start offset and a window id
    (start_tok // WINDOW_TOKENS — contiguous-fill semantics).
    Columns: doc_id, n_tokens, start_tok, window_id."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def count(t: pa.Table) -> pa.Table:
        toks = [len(x.split()) for x in t["text"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(toks, type=pa.int64()),
        })

    # only the slim (doc_id, n_tokens) rows enter the sort; the heavy
    # text column never leaves the first map
    return pack_tokens(ds.map_batches(count, batch_format="pyarrow"), "doc_id")


Q_PACK_WINDOWS_SQL = rf"""
WITH counted AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
  FROM documents
)
SELECT doc_id, n_tokens,
       CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS start_tok,
       CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
            // {WINDOW_TOKENS} AS BIGINT) AS window_id
FROM counted
"""


K_CLUSTERS = 8
KMEANS_ITERS = 5


def q_kmeans(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic Lloyd's k-means over the embeddings table
    (K_CLUSTERS clusters, KMEANS_ITERS fixed iterations, centroids
    seeded from the k lowest vec_ids). Returns final assignments.
    Columns: vec_id, cluster. (No SQL oracle: iterative algorithm —
    rows-only check.)"""
    from .similarity import head_rows_by_key

    ds = read_pq(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    # deterministic init: the k lowest vec_ids, selected distributed
    # (no whole-table read on the driver — k rows land here)
    seed_df = head_rows_by_key(ds, "vec_id", K_CLUSTERS)
    centroids = np.array(seed_df["embedding"].tolist(), dtype=np.float64)

    def partials_fn(cref):
        def fn(t: pa.Table) -> pa.Table:
            c = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
            m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
            d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            k, dim = c.shape
            sums = np.zeros((k, dim)); counts = np.zeros(k, dtype=np.int64)
            for j in range(k):
                sel = assign == j
                counts[j] = int(sel.sum())
                if counts[j]:
                    sums[j] = m[sel].sum(axis=0)
            return pa.table({
                "cluster": pa.array(np.arange(k), type=pa.int64()),
                "count": pa.array(counts, type=pa.int64()),
                "sum": pa.array(list(sums), type=pa.list_(pa.float64())),
            })
        return fn

    for _ in range(KMEANS_ITERS):
        cref = ray.put(centroids)
        parts = ds.map_batches(partials_fn(cref), batch_format="pyarrow").take_all()
        k, dim = centroids.shape
        sums = np.zeros((k, dim)); counts = np.zeros(k, dtype=np.int64)
        for r in parts:
            sums[r["cluster"]] += np.asarray(r["sum"])
            counts[r["cluster"]] += r["count"]
        nz = counts > 0
        centroids = centroids.copy()
        centroids[nz] = sums[nz] / counts[nz, None]

    cref = ray.put(centroids)

    def assign_fn(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        d = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return pa.table({
            "vec_id": t["vec_id"],
            "cluster": pa.array(d.argmin(axis=1), type=pa.int64()),
        })

    return ds.map_batches(assign_fn, batch_format="pyarrow")


# ------------------------------------------- sliding-window chunking

CHUNK_TOKENS = 64
CHUNK_OVERLAP = 16


def q_chunk_windows(sf_dir: str, chunk: int = CHUNK_TOKENS,
                    overlap: int = CHUNK_OVERLAP) -> "ray.data.Dataset":
    """Explode each document into fixed-size token chunks with overlap —
    the doc→chunk fan-out every embedding/RAG indexing pipeline runs
    before vectorizing. HF-tokenizer ``return_overflowing_tokens``
    semantics: chunks start at multiples of ``stride = chunk - overlap``
    while the start is inside the doc; the last chunk may be short.
    Empty docs emit no chunks.

    Pure flat-map, NO shuffle: the document text enters exactly once
    and each output row carries only its own slice, so at corpus scale
    this runs at read bandwidth. Tokenization is whitespace split of
    the trimmed text, identical to DuckDB
    ``regexp_split_to_array(trim(text), '\\s+')`` (the `pack_windows`
    convention).
    Columns: doc_id, chunk_idx, start_tok, chunk_tokens, chunk_text.
    """
    stride = chunk - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk")
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        ids: List[int] = []; idxs: List[int] = []; starts: List[int] = []
        ntoks: List[int] = []; texts: List[str] = []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = (txt or "").split()
            nt = len(toks)
            for ci, s in enumerate(range(0, nt, stride)):
                piece = toks[s:s + chunk]
                ids.append(did); idxs.append(ci); starts.append(s)
                ntoks.append(len(piece)); texts.append(" ".join(piece))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "chunk_idx": pa.array(idxs, type=pa.int64()),
            "start_tok": pa.array(starts, type=pa.int64()),
            "chunk_tokens": pa.array(ntoks, type=pa.int64()),
            "chunk_text": pa.array(texts, type=pa.string()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def chunk_windows_sql(chunk: int = CHUNK_TOKENS,
                      overlap: int = CHUNK_OVERLAP) -> str:
    """Oracle interpolates the SAME chunk/overlap the operator uses, so
    non-default arguments cannot desync operator and oracle."""
    stride = int(chunk) - int(overlap)
    return rf"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []
              ELSE regexp_split_to_array(trim(text), '\s+') END AS tok
  FROM documents
), n AS (
  SELECT doc_id, tok, len(tok) AS nt FROM toks
), ex AS (
  SELECT doc_id, tok, nt,
         unnest(generate_series(0, CAST(floor((nt - 1) / {stride}.0) AS BIGINT))) AS gs
  FROM n WHERE nt > 0
)
SELECT doc_id,
       CAST(gs AS BIGINT) AS chunk_idx,
       CAST(gs * {stride} AS BIGINT) AS start_tok,
       CAST(least({int(chunk)}, nt - gs * {stride}) AS BIGINT) AS chunk_tokens,
       array_to_string(tok[gs * {stride} + 1 : gs * {stride} + {int(chunk)}], ' ')
           AS chunk_text
FROM ex
"""


Q_CHUNK_WINDOWS_SQL = chunk_windows_sql()


# ------------------------------------------ deterministic seeded shuffle

SHUFFLE_SEED = 42


def q_seeded_shuffle(sf_dir: str, seed: int = SHUFFLE_SEED) -> "ray.data.Dataset":
    """Deterministic global training shuffle: every doc gets a
    content-independent pseudo-random key ``md5(seed || ':' || doc_id)``
    and its exact GLOBAL position in the shuffled order — reproducible
    across runs and cluster sizes (no RNG state, no
    ``random_shuffle()`` nondeterminism), so a resumed training job
    sees the same epoch order.

    Scale shape: only the slim (doc_id, 32-byte key) rows enter the
    range sort — the one unavoidable all-to-all, identical in cost to
    any global shuffle — and :func:`exchange.ordered_offsets` numbers
    them from per-block counts folded on the driver; no second
    shuffle, no row data through the driver.
    Columns: doc_id, shuffle_key, pos.
    """
    import hashlib

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        keys = [hashlib.md5(f"{seed}:{i}".encode()).hexdigest() for i in ids]
        return pa.table({
            "doc_id": t["doc_id"],
            "shuffle_key": pa.array(keys, type=pa.string()),
        })

    return ordered_offsets(ds.map_batches(key, batch_format="pyarrow"),
                           ["shuffle_key", "doc_id"], "pos")


def seeded_shuffle_sql(seed: int = SHUFFLE_SEED) -> str:
    return f"""
SELECT doc_id,
       md5('{int(seed)}:' || CAST(doc_id AS VARCHAR)) AS shuffle_key,
       CAST(ROW_NUMBER() OVER (
            ORDER BY md5('{int(seed)}:' || CAST(doc_id AS VARCHAR)), doc_id) - 1
            AS BIGINT) AS pos
FROM documents
"""


Q_SEEDED_SHUFFLE_SQL = seeded_shuffle_sql()


# ------------------------------------------ source-interleaved epoch order

def q_interleave_sources(sf_dir: str, seed: int = SHUFFLE_SEED) -> "ray.data.Dataset":
    """Source-balanced epoch order: shuffle WITHIN each source
    deterministically (md5 rank), then interleave sources round-robin —
    position = global rank by (within-source rank, source). With equal
    source sizes every consecutive window of the epoch carries every
    source once; skewed sources simply run out early (proportional
    front-loading), matching how mixture schedulers spread a small
    high-quality source across the epoch instead of clumping it.

    Scale shape: two :func:`exchange.ordered_offsets` scans over slim
    (doc_id, source, 32-byte key) rows — the heavyweight text never
    moves. The first numbers rows in (source, skey, doc_id) order; one
    keyed min per source (a handful of rows, broadcast) turns that into
    the within-source rank. The second numbers rows in (rn, source,
    doc_id) order. Columns: doc_id, source, rn, pos.
    """
    import hashlib

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source"])

    def key(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table({
            "doc_id": t["doc_id"],
            "source": t["source"],
            "skey": pa.array(
                [hashlib.md5(f"{seed}:{i}".encode()).hexdigest() for i in ids],
                type=pa.string()),
        })

    # global row number in (source, skey, doc_id) order; a source's rows
    # are contiguous there, so the within-source rank is that number
    # minus the source's first one (a handful of sources: broadcast)
    by_src = ordered_offsets(ds.map_batches(key, batch_format="pyarrow"),
                             ["source", "skey", "doc_id"], "rn")
    first = keyed_aggregate(by_src, "source", {"first": ("rn", "min")}).take_all()
    first_ref = ray.put({r["source"]: r["first"] for r in first})

    def within_source(t: pa.Table) -> pa.Table:
        first = ray.get(first_ref)
        start = np.fromiter((first[s] for s in t["source"].to_pylist()),
                            dtype=np.int64, count=t.num_rows)
        rn = t["rn"].to_numpy() - start
        return pa.table({"doc_id": t["doc_id"], "source": t["source"],
                         "rn": pa.array(rn, type=pa.int64())})

    return ordered_offsets(
        by_src.map_batches(within_source, batch_size=None, batch_format="pyarrow"),
        ["rn", "source", "doc_id"], "pos")


def interleave_sources_sql(seed: int = SHUFFLE_SEED) -> str:
    return f"""
WITH k AS (
  SELECT doc_id, source,
         md5('{int(seed)}:' || CAST(doc_id AS VARCHAR)) AS skey
  FROM documents
), r AS (
  SELECT doc_id, source,
         CAST(ROW_NUMBER() OVER (PARTITION BY source
              ORDER BY skey, doc_id) - 1 AS BIGINT) AS rn
  FROM k
)
SELECT doc_id, source, rn,
       CAST(ROW_NUMBER() OVER (ORDER BY rn, source, doc_id) - 1 AS BIGINT) AS pos
FROM r
"""


Q_INTERLEAVE_SOURCES_SQL = interleave_sources_sql()
