"""Deduplication operators: exact, MinHash+LSH, SimHash, pairwise Jaccard.

Corpus-scale generalizations of the reference's in-row dedup semantics
(D1 order-preserving exact dedup workflow.py:600-616; D2 similarity-
ranked near-dup suppression extractors/llm.py:167-193) to cross-row
operators, built shuffle-consciously:

* exact dedup hashes content inside ``map_batches`` and shuffles only
  ``(fp, doc_id)`` pairs — the text never crosses the exchange;
* MinHash+LSH explodes each doc into ``n_bands`` tiny band rows, one
  ``exchange.keyed_exchange`` on ``band_hash`` co-locates every bucket
  (colliding docs resolve vectorized inside each partition), and
  candidate verification is TWO ``exchange.keyed_join``s of the slim
  pair list against the distributed signature table (doc_a then
  doc_b) — no per-doc state ever lands on the driver, so the shape
  survives corpora where signatures alone are terabytes;
* oversized LSH buckets (hot boilerplate keys) are skipped by the
  quadratic guard AND surface as overflow rows — recall loss is
  observable (``q_lsh_overflow``), never silent;
* SimHash emits one 64-bit signature per doc (4×16-bit band blocking
  gives Hamming≤3 candidates without an O(n²) scan); token hashing is
  batch-vectorized with a per-actor token cache (blake2b once per
  distinct token, bit accumulation via one fancy-index add);
* pairwise char-Jaccard uses ``keyed_join`` (co-partitioned) and
  reproduces DuckDB's byte-set ``jaccard()`` exactly, so the oracle
  matches bit-for-bit.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ..sources.pages import read_pq
from .exchange import (gather, keyed_aggregate, keyed_exchange, keyed_join,
                       total)

# ------------------------------------------------------------- exact dedup

def q_exact_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Exact-duplicate groups by md5(text): representative = min doc_id
    (cross-row D1: first-occurrence-wins under a deterministic order).
    Columns: fp, rep_doc_id, n_copies."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        hashes = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        return pa.table({"fp": pa.array(hashes, type=pa.string()), "doc_id": t["doc_id"]})

    pairs = ds.map_batches(fp, batch_format="pyarrow")
    return keyed_aggregate(pairs, "fp", {"rep_doc_id": ("doc_id", "min"),
                                         "n_copies": (None, "count_all")})


Q_EXACT_DEDUP_SQL = """
SELECT md5(text) AS fp, MIN(doc_id) AS rep_doc_id, COUNT(*) AS n_copies
FROM documents GROUP BY 1
"""


# ----------------------------------------------------------- minhash + LSH

N_PERM = 64
N_BANDS = 16
ROWS_PER_BAND = N_PERM // N_BANDS
_rng = np.random.RandomState(0xC0FFEE)
# Multiply-shift universal hashing with FULL-WIDTH uint64 wraparound:
# sig_j = min_s (a_j * h(s) + b_j mod 2^64). The wraparound is what makes
# each permutation non-monotone. (A first cut used (a*h+b) mod 2^61-1
# with a < 2^29, h < 2^32 to stay overflow-free — but then a*h+b can
# NEVER wrap, the map is monotone in h, every permutation selects the
# same minimum shingle, and MinHash degenerates to "equal min shingle
# => identical signature"; caught by q_minhash_validate.)
_PERM_A = (_rng.randint(0, 1 << 62, size=N_PERM).astype(np.uint64) << np.uint64(1)) | np.uint64(1)  # odd
_PERM_B = _rng.randint(0, 1 << 62, size=N_PERM).astype(np.uint64)
_FNV = np.uint32(16777619)


def _token_hashes(text: str) -> np.ndarray:
    """32-bit hashes of whitespace tokens (zlib.crc32: C-speed,
    deterministic, platform-stable)."""
    import zlib

    toks = text.split()
    if not toks:
        return np.zeros(1, dtype=np.uint32)
    return np.fromiter(
        (zlib.crc32(t.encode("utf-8")) for t in toks), dtype=np.uint32, count=len(toks)
    )


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Distinct 32-bit hashes of word k-shingles. Word shingles (not
    char shingles) keep LSH buckets selective on natural-language-like
    text — char 5-grams collide on shared vocabulary alone and blow up
    bucket sizes quadratically."""
    th = _token_hashes(text)
    if len(th) < k:
        win = th[None, :]
        pows = _FNV ** np.arange(len(th) - 1, -1, -1, dtype=np.uint32)
    else:
        win = np.lib.stride_tricks.sliding_window_view(th, k)
        pows = _FNV ** np.arange(k - 1, -1, -1, dtype=np.uint32)
    with np.errstate(over="ignore"):
        h = (win * pows[None, :]).sum(axis=1, dtype=np.uint32)
    return np.unique(h)  # shingle SET semantics


def minhash_signature(text: str) -> np.ndarray:
    """64-perm MinHash signature (uint64[64]), vectorized:
    sig_j = min_s (a_j * h(s) + b_j mod 2^64) — multiply-shift family,
    wraparound intended (see _PERM_A note)."""
    h = _shingle_hashes(text).astype(np.uint64)
    with np.errstate(over="ignore"):
        vals = _PERM_A[:, None] * h[None, :] + _PERM_B[:, None]
    return vals.min(axis=1)


def _sig_table(t: pa.Table) -> pa.Table:
    """(doc_id, sig) rows: signature as a 512-byte binary blob — a
    primitive column that rides the joins untouched and decodes
    zero-copy with ``np.frombuffer``."""
    ids = t["doc_id"]
    sigs = [minhash_signature(x).tobytes() for x in t["text"].to_pylist()]
    return pa.table({
        "doc_id": ids,
        "sig": pa.array(sigs, type=pa.binary()),
    })


def minhash_sigs(sf_dir: str) -> "ray.data.Dataset":
    """The distributed signature table (doc_id, sig[binary 512 B]).
    Stays a Dataset end-to-end — blocks live in the object store (and
    spill), NEVER on the driver; the sf-independent building block for
    LSH banding and join-based candidate verification."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_sig_table, batch_format="pyarrow")


def _explode_bands(t: pa.Table) -> pa.Table:
    """Band rows from signature rows. Emits one SLIM row per
    (doc, band): (band_id, band_hash, doc_id) — 20 B/row, plus the
    exchange's 4 B part id. Signatures do NOT ride the shuffle (a 512 B
    sig repeated across 16 band rows made the exchange 300x heavier
    than the keys).

    The exchange is COARSE: ``keyed_exchange`` on ``band_hash`` folds
    each partition once and resolves the exact buckets vectorized
    inside it. One call per exact (band_id, band_hash) bucket instead —
    ~16 buckets/doc, all size 1, each paying a pandas-DataFrame
    construction — measured 34 s for 5k docs."""
    doc_ids: List[int] = []
    band_ids: List[int] = []
    band_hashes: List[int] = []
    for did, blob in zip(t["doc_id"].to_pylist(), t["sig"].to_pylist()):
        sig = np.frombuffer(blob, dtype=np.uint64)
        for b in range(N_BANDS):
            chunk = sig[b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
            bh = int.from_bytes(
                hashlib.blake2b(chunk.tobytes(), digest_size=8).digest(), "big"
            ) >> 1  # fits int64
            doc_ids.append(did)
            band_ids.append(b)
            band_hashes.append(bh)
    return pa.table({
        "band_id": pa.array(band_ids, type=pa.int32()),
        "band_hash": pa.array(band_hashes, type=pa.int64()),
        "doc_id": pa.array(doc_ids, type=pa.int64()),
    })


MAX_BUCKET = 64  # skip degenerate buckets (boilerplate collisions); the
                 # skipped buckets are emitted as overflow sentinel rows
                 # (doc_a=-1, doc_b=bucket size) so the recall hole is
                 # observable — q_lsh_overflow aggregates them.


def _bucket_pairs(g: pd.DataFrame, max_bucket: int = MAX_BUCKET) -> pa.Table:
    """Candidate pairs for ALL exact (band_id, band_hash) buckets inside
    one coarse shuffle partition. Buckets larger than ``max_bucket`` are
    not scanned (quadratic guard — the skew-cap analogue for hot keys);
    each skipped bucket emits one OVERFLOW sentinel row
    ``(doc_a=-1, doc_b=bucket_size)`` instead of vanishing silently.
    Singleton buckets (the overwhelming majority) are dropped by one
    vectorized duplicated() mask before any per-bucket work."""
    rows = []
    dup = g.duplicated(["band_id", "band_hash"], keep=False)
    for _, sub in g[dup].groupby(["band_id", "band_hash"], sort=False):
        if len(sub) > max_bucket:
            rows.append((-1, int(len(sub))))
            continue
        docs = sorted(set(sub["doc_id"]))
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                rows.append((int(docs[i]), int(docs[j])))
    # typed output even when EMPTY: an empty object-dtype DataFrame
    # yields a null-typed Arrow block, and mixed block schemas push the
    # downstream shuffle onto a slow unification path (measured 23 s ->
    # 2 s on the pair-dedup groupby).
    return pa.table({
        "doc_a": pa.array([r[0] for r in rows], type=pa.int64()),
        "doc_b": pa.array([r[1] for r in rows], type=pa.int64()),
    })


def _candidate_pairs(
    sigs: "ray.data.Dataset", max_bucket: int = MAX_BUCKET
) -> "ray.data.Dataset":
    """Deduped LSH candidate pairs (plus overflow sentinels, doc_a=-1)
    from a signature Dataset. Overflow sentinel rows ride the same
    pair-dedup groupby — each distinct (bucket=-1, size) pair collapses,
    so the counts downstream are per-distinct-bucket-size; the overflow
    AGGREGATE keeps the true bucket count via the groupby's Count."""
    bands = sigs.map_batches(_explode_bands, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pa.Table:
        return _bucket_pairs(g, max_bucket)

    pairs = keyed_exchange(bands, "band_hash", bucket_pairs)
    # a pair can surface from several bands -> exact dedup on the slim
    # pair rows; n_bands doubles as the overflow-bucket count for the
    # (-1, size) sentinel keys
    return keyed_aggregate(pairs, ["doc_a", "doc_b"],
                           {"n_bands": (None, "count_all")})


def _est_jaccard_from_sigs(t: pa.Table) -> pa.Table:
    """est_jaccard = fraction of equal MinHash coordinates, vectorized
    over the joined (sig_a, sig_b) blob columns."""
    a = np.frombuffer(b"".join(t["sig_a"].to_pylist()), dtype=np.uint64).reshape(-1, N_PERM)
    b = np.frombuffer(b"".join(t["sig_b"].to_pylist()), dtype=np.uint64).reshape(-1, N_PERM)
    est = (a == b).mean(axis=1) if len(t) else np.zeros(0)
    return pa.table({
        "doc_a": t["doc_a"],
        "doc_b": t["doc_b"],
        "est_jaccard": pa.array(est, type=pa.float64()),
    })


def _join_pairs_with(
    pairs: "ray.data.Dataset",
    side_table: "ray.data.Dataset",
    value_col: str,
) -> "ray.data.Dataset":
    """Join (doc_a, doc_b, ...) pairs against a per-doc table twice —
    once on doc_a, once on doc_b — renaming ``value_col`` to
    ``{value_col}_a`` / ``{value_col}_b``. Both are co-partitioned
    ``keyed_join``s: the per-doc table never lands on the driver."""
    def rename(key: str, suffix: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({key: t["doc_id"], f"{value_col}{suffix}": t[value_col]})
        return fn

    sa = side_table.map_batches(rename("doc_a", "_a"), batch_format="pyarrow")
    sb = side_table.map_batches(rename("doc_b", "_b"), batch_format="pyarrow")
    return keyed_join(keyed_join(pairs, sa, "doc_a"), sb, "doc_b")


def q_minhash_pairs(sf_dir: str, min_est: float = 0.5) -> "ray.data.Dataset":
    """MinHash-LSH near-duplicate pairs (est. Jaccard >= ``min_est``).
    Candidate verification is TWO ``keyed_join``s of the slim
    pair list against the signature Dataset (doc_a then doc_b) — the
    512 B/doc signature store never lands on the driver, so this shape
    holds when signatures alone are terabytes.
    Columns: doc_a, doc_b, est_jaccard. (No SQL oracle: sketch-based.)"""
    # materialize the COMPACT per-doc table (512 B/doc) once so its
    # three consumers (banding + the two join sides) don't re-run the
    # text scan; blocks stay in the (spillable) object store — this is
    # reuse, not driver-side collection. At corpus scales beyond object
    # store + spill, checkpoint it to parquet instead.
    sigs = minhash_sigs(sf_dir).materialize()
    cand = _candidate_pairs(sigs).drop_columns(["n_bands"])
    cand = cand.filter(expr="doc_a >= 0")  # drop overflow sentinels
    joined = _join_pairs_with(cand, sigs, "sig")
    verified = joined.map_batches(_est_jaccard_from_sigs, batch_format="pyarrow")
    return verified.map_batches(
        lambda t: t.filter(pc.greater_equal(t["est_jaccard"], min_est)),
        batch_format="pyarrow",
    )


MINHASH_CKPT_VERSION = 1


def minhash_pairs_ckpt_for(sf_dir: str, min_est: float = 0.5) -> str:
    """Near-dup pair-list CHECKPOINT parquet for the sf corpus
    (cached under /tmp, the :func:`corpus.pages_corpus_for`
    cache-and-replay pattern): the clustering/keeper stages consume
    the dedup job's verified pair output — on a cluster they read its
    checkpointed parquet, not a re-run of the sketch scan — and their
    DuckDB oracles replay connected components over the same
    artifact."""
    import os

    import pyarrow.parquet as pq_

    from .corpus import CACHE_ROOT

    name = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    # key on the input table's shape too, so two corpora that happen to
    # share a dir basename (crafted test fixtures) can never collide
    docs = os.path.join(sf_dir, "documents.parquet")
    n = pq_.ParquetFile(docs).metadata.num_rows
    sz = os.path.getsize(docs)
    out = os.path.join(
        CACHE_ROOT,
        f"{name}_{n}_{sz}_minhash_pairs_m{int(min_est * 1000)}"
        f"_v{MINHASH_CKPT_VERSION}",
    )
    marker = os.path.join(out, "_COMPLETE")
    if os.path.exists(marker):
        return out
    import shutil

    if os.path.isdir(out):
        shutil.rmtree(out)
    q_minhash_pairs(sf_dir, min_est=min_est).write_parquet(out)
    with open(marker, "w") as f:
        f.write("ok")
    return out


def _cc_label_ctes(pairs_glob: str, iters: int = 12) -> str:
    """Unrolled min-label-propagation CTEs over a (doc_a, doc_b) pair
    list — the DuckDB replay of :func:`q_neardup_clusters`' distributed
    loop (identical recurrence ``l_{k+1}(n) = min(l_k(n), min_{m in
    N(n)} l_k(m))``, same initial fold ``l_0 = min(node, min
    neighbour)``, same ``iters`` cap — so the result matches the
    operator bit-for-bit, converged or capped)."""
    ctes = [f"""edges AS MATERIALIZED (
  SELECT doc_a AS node, doc_b AS nbr FROM read_parquet('{pairs_glob}')
  UNION ALL
  SELECT doc_b AS node, doc_a AS nbr FROM read_parquet('{pairs_glob}')
),
l0 AS MATERIALIZED (
  SELECT node, LEAST(node, MIN(nbr)) AS label FROM edges GROUP BY node
)"""]
    for k in range(1, iters + 1):
        ctes.append(f"""l{k} AS MATERIALIZED (
  SELECT l.node, LEAST(l.label, MIN(n.label)) AS label
  FROM l{k - 1} l
  JOIN edges e ON e.node = l.node
  JOIN l{k - 1} n ON n.node = e.nbr
  GROUP BY l.node, l.label
)""")
    return ",\n".join(ctes)


def neardup_clusters_sql(sf_dir: str, min_est: float = 0.5,
                         iters: int = 12) -> str:
    """DuckDB replay of :func:`q_neardup_clusters` over the pair-list
    checkpoint parquet."""
    pairs_glob = minhash_pairs_ckpt_for(sf_dir, min_est) + "/*.parquet"
    return f"""
WITH {_cc_label_ctes(pairs_glob, iters)}
SELECT node AS doc_id, label AS rep_id FROM l{iters}
"""


def cluster_keep_best_sql(sf_dir: str, min_est: float = 0.5,
                          iters: int = 12) -> str:
    """DuckDB replay of :func:`q_cluster_keep_best`: components from
    the pair-list checkpoint, keeper = longest doc (ties: min doc_id)
    per component."""
    pairs_glob = minhash_pairs_ckpt_for(sf_dir, min_est) + "/*.parquet"
    return f"""
WITH {_cc_label_ctes(pairs_glob, iters)},
cc AS (SELECT node AS doc_id, label AS rep_id FROM l{iters}),
ranked AS (
  SELECT cc.doc_id, cc.rep_id, d.n_chars,
         row_number() OVER (PARTITION BY cc.rep_id
                            ORDER BY d.n_chars DESC, cc.doc_id ASC) AS rn
  FROM cc JOIN documents d ON d.doc_id = cc.doc_id
)
SELECT doc_id, rep_id, n_chars, rn = 1 AS keep FROM ranked
"""


def _overflow_summary(over: "ray.data.Dataset", count_col: str) -> "ray.data.Dataset":
    """Collapse overflow sentinel rows ``(doc_a=-1, doc_b=size,
    count_col=count of buckets with that size)`` into the one-row
    observability summary shared by :func:`q_lsh_overflow` and
    :func:`q_simhash_overflow`, zeros when there is none. ``over``
    runs once."""
    def slots(t: pa.Table) -> pa.Table:
        return t.append_column("slots", pc.multiply(
            t["doc_b"].cast(pa.int64()), t[count_col].cast(pa.int64())))

    agg = total(over.map_batches(slots, batch_format="pyarrow"),
                {"nb": (count_col, "sum"), "mx": ("doc_b", "max"),
                 "sl": ("slots", "sum")})
    return ray.data.from_items([{
        "n_overflow_buckets": agg["nb"] or 0,
        "max_bucket_size": agg["mx"] or 0,
        "dropped_doc_slots": agg["sl"] or 0,
    }])


def q_lsh_overflow(sf_dir: str, max_bucket: int = MAX_BUCKET) -> "ray.data.Dataset":
    """Observability for the LSH quadratic guard: how many buckets were
    skipped as oversized (> ``max_bucket``), the largest bucket seen,
    and how many doc slots those buckets held (upper bound on lost
    collision opportunities). Exactly one output row, zeros when
    nothing overflowed. Columns: n_overflow_buckets, max_bucket_size,
    dropped_doc_slots. (No SQL oracle: sketch internals.)"""
    over = _candidate_pairs(minhash_sigs(sf_dir), max_bucket=max_bucket).filter(
        expr="doc_a < 0")  # tiny (one row per overflowed bucket size)
    return _overflow_summary(over, count_col="n_bands")


# ------------------------------------------------------------------ simhash

def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (blake2b token hashes).
    Scalar reference implementation — the batch path
    (:class:`SimHashBatch`) must agree bit-for-bit (property-tested)."""
    acc = np.zeros(64, dtype=np.int64)
    for tok in text.split():
        h = int.from_bytes(hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(), "big")
        bits = np.unpackbits(np.frombuffer(h.to_bytes(8, "big"), dtype=np.uint8))
        acc += bits.astype(np.int64) * 2 - 1
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << (63 - i)
    return out


_BIT_WEIGHTS = (np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64))  # MSB-first


class SimHashBatch:
    """Vectorized batch SimHash with a per-instance token-hash cache.

    blake2b runs ONCE per distinct token across the instance's lifetime;
    per batch the work is one vectorized unpackbits over the distinct-
    token hash array and one fancy-index ``np.add.at`` accumulation —
    the matmul-style bit-count path (vs. the scalar loop: ≥10x).
    Bit-identical to :func:`simhash64`."""

    def __init__(self, cache_cap: int = 1 << 20) -> None:
        self.cache: Dict[str, int] = {}
        self.cache_cap = cache_cap

    def signatures(self, texts: List[str]) -> np.ndarray:
        tok_lists = [t.split() for t in texts]
        flat: List[str] = [tok for toks in tok_lists for tok in toks]
        if not flat:
            return np.zeros(len(texts), dtype=np.uint64)
        doc_idx = np.repeat(
            np.arange(len(texts)), [len(toks) for toks in tok_lists]
        )
        # distinct tokens this batch; hash only the cache misses
        uniq: Dict[str, int] = {}
        tok_idx = np.empty(len(flat), dtype=np.int64)
        for i, tok in enumerate(flat):
            j = uniq.get(tok)
            if j is None:
                j = len(uniq)
                uniq[tok] = j
            tok_idx[i] = j
        hashes = np.empty(len(uniq), dtype=np.uint64)
        cache = self.cache
        for tok, j in uniq.items():
            h = cache.get(tok)
            if h is None:
                h = int.from_bytes(
                    hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(), "big"
                )
                if len(cache) < self.cache_cap:
                    cache[tok] = h
            hashes[j] = h
        # ±1 bit matrix for the distinct tokens (MSB-first — matches
        # np.unpackbits of the big-endian bytes in the scalar path)
        bits = np.unpackbits(hashes[:, None].astype(">u8").view(np.uint8), axis=1)
        bitmat = bits.astype(np.int64) * 2 - 1  # (n_uniq, 64)
        acc = np.zeros((len(texts), 64), dtype=np.int64)
        np.add.at(acc, doc_idx, bitmat[tok_idx])
        # bit (63-i) set iff acc[:, i] > 0; disjoint bits -> sum == OR
        return ((acc > 0).astype(np.uint64) * _BIT_WEIGHTS[None, :]).sum(
            axis=1, dtype=np.uint64
        )

    def __call__(self, t: pa.Table) -> pa.Table:
        sigs = self.signatures(t["text"].to_pylist())
        return pa.table({
            "doc_id": t["doc_id"],
            "simhash": pa.array(sigs.astype(np.int64)),  # two's complement
        })


# Module-level singletons: SimHash runs as a TASK-pool map (scales to
# every CPU with no actor-ramp latency); Ray reuses worker processes,
# so the module-level instance's token cache persists across batches on
# each worker — actor-style state without the actor pool.
_SIMHASH = SimHashBatch()


def _simhash_fn(t: pa.Table) -> pa.Table:
    return _SIMHASH(t)


def q_simhash(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc 64-bit SimHash (as int64, two's complement).
    Columns: doc_id, simhash. (No SQL oracle: sketch-based.)"""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_simhash_fn, batch_format="pyarrow")


class _SimHashBands(SimHashBatch):
    """Band-exploded SimHash rows for 4×16-bit blocking."""

    def __call__(self, t: pa.Table) -> pa.Table:
        sigs = self.signatures(t["text"].to_pylist())
        n = len(sigs)
        doc_ids = np.repeat(np.asarray(t["doc_id"].to_pylist(), dtype=np.int64), 4)
        band_ids = np.tile(np.arange(4, dtype=np.int32), n)
        shifts = (np.uint64(16) * band_ids.astype(np.uint64))
        band_vals = ((np.repeat(sigs, 4) >> shifts) & np.uint64(0xFFFF)).astype(np.int32)
        return pa.table({
            "band_id": pa.array(band_ids),
            "band_val": pa.array(band_vals),
            "doc_id": pa.array(doc_ids),
            "simhash": pa.array(np.repeat(sigs.astype(np.int64), 4)),
        })


_SIMHASH_BANDS = _SimHashBands()


def _simhash_bands_fn(t: pa.Table) -> pa.Table:
    return _SIMHASH_BANDS(t)


def _simhash_candidates(
    sf_dir: str, max_hamming: int = 3, max_bucket: int = MAX_BUCKET
) -> "ray.data.Dataset":
    """Banded SimHash candidates with the same quadratic guard as
    ``_bucket_pairs``: band buckets larger than ``max_bucket`` are not
    scanned (boilerplate / all-empty texts all hash to one signature
    and would otherwise blow up O(n²) inside one partition's fold);
    each skipped bucket emits an OVERFLOW sentinel row
    ``(doc_a=-1, doc_b=bucket_size, hamming=0)``. The pair-dedup
    groupby's Count doubles as the per-size overflow-bucket count
    (``n_buckets``), mirroring ``_candidate_pairs``."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(g: pd.DataFrame) -> pa.Table:
        # coarse-partition group; resolve exact buckets vectorized
        # (see _explode_bands docstring for why not groupby the exact key)
        rows = []
        dup = g.duplicated(["band_id", "band_val"], keep=False)
        for _, sub in g[dup].groupby(["band_id", "band_val"], sort=False):
            if len(sub) > max_bucket:
                rows.append((-1, int(len(sub)), 0))
                continue
            docs = sorted(zip(sub["doc_id"], sub["simhash"]), key=lambda x: x[0])
            for i in range(len(docs)):
                for j in range(i + 1, len(docs)):
                    a, ha = docs[i]
                    b, hb = docs[j]
                    d = bin((int(ha) ^ int(hb)) & ((1 << 64) - 1)).count("1")
                    if d <= max_hamming:
                        rows.append((int(a), int(b), d))
        return pa.table({  # typed even when empty (see _bucket_pairs)
            "doc_a": pa.array([r[0] for r in rows], type=pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], type=pa.int64()),
            "hamming": pa.array([r[2] for r in rows], type=pa.int64()),
        })

    exploded = ds.map_batches(_simhash_bands_fn, batch_format="pyarrow")
    cand = keyed_exchange(exploded, "band_val", pairs)
    # a pair can share several bands: dedup, keeping its min distance
    return keyed_aggregate(cand, ["doc_a", "doc_b"],
                           {"hamming": ("hamming", "min"),
                            "n_buckets": (None, "count_all")})


def q_simhash_near_pairs(
    sf_dir: str, max_hamming: int = 3, max_bucket: int = MAX_BUCKET
) -> "ray.data.Dataset":
    """SimHash near-dup pairs via 4×16-bit band blocking (any pair with
    Hamming distance <= 3 shares at least one exact 16-bit band).
    Buckets above ``max_bucket`` are skipped, observably — see
    :func:`q_simhash_overflow`. Columns: doc_a, doc_b, hamming.
    (No SQL oracle.)"""
    cand = _simhash_candidates(sf_dir, max_hamming=max_hamming,
                               max_bucket=max_bucket)
    return cand.filter(expr="doc_a >= 0").drop_columns(["n_buckets"])


def q_simhash_overflow(sf_dir: str, max_bucket: int = MAX_BUCKET) -> "ray.data.Dataset":
    """Observability for the SimHash pair guard (sibling of
    :func:`q_lsh_overflow`): how many band buckets were skipped as
    oversized, the largest bucket seen, and the doc slots they held.
    One row, zeros when nothing overflowed. Columns:
    n_overflow_buckets, max_bucket_size, dropped_doc_slots.
    (No SQL oracle: sketch internals.)"""
    over = _simhash_candidates(sf_dir, max_bucket=max_bucket).filter(
        expr="doc_a < 0")  # tiny (one row per distinct overflowed bucket size)
    return _overflow_summary(over, count_col="n_buckets")


# --------------------------------------------- pairwise jaccard (join demo)

def duckdb_jaccard(a: str, b: str) -> float:
    """DuckDB ``jaccard()`` semantics exactly: similarity of the sets of
    BYTES of the UTF-8 encodings (case-sensitive). Exact doubles: the
    division of two small ints is bit-identical in both engines."""
    sa, sb = set(a.encode("utf-8")), set(b.encode("utf-8"))
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def q_jaccard_adjacent(sf_dir: str) -> "ray.data.Dataset":
    """Char-set Jaccard between each doc and doc_id+1 via a
    co-partitioned ``keyed_join`` (the both-sides-large join path).
    Columns: doc_id, jacc."""
    left = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    right = left.map_batches(
        lambda t: pa.table({
            "next_id": pa.compute.add(t["doc_id"], 1),
            "text_b": t["text"],
        }),
        batch_format="pyarrow",
    )
    joined = keyed_join(left, right, "doc_id", right_on="next_id")

    def jac(t: pa.Table) -> pa.Table:
        vals = [duckdb_jaccard(a, b)
                for a, b in zip(t["text"].to_pylist(), t["text_b"].to_pylist())]
        return pa.table({"doc_id": t["doc_id"],
                         "jacc": pa.array(vals, type=pa.float64())})

    return joined.map_batches(jac, batch_format="pyarrow")


Q_JACCARD_ADJ_SQL = """
SELECT b.doc_id AS doc_id, jaccard(b.text, a.text) AS jacc
FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 1
"""


# ------------------------------------------------------- HyperLogLog sketch

HLL_P = 12  # 2^12 registers -> ~1.6% standard error


def _hll_registers(ids: np.ndarray) -> np.ndarray:
    """Register array for a batch of 64-bit-hashed ids (vectorized)."""
    # splitmix64-style avalanche (public constant mixing)
    x = ids.astype(np.uint64)
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x ^= x >> np.uint64(30); x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27); x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    bucket = (x >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = x << np.uint64(HLL_P)  # remaining 64-p bits, left-aligned
    # rank = leading zeros of rest + 1 (capped)
    rank = np.ones(len(x), dtype=np.uint8)
    cur = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        rank[mask] += np.uint8(shift)
        cur[mask] = cur[mask] << np.uint64(shift)
    regs = np.zeros(1 << HLL_P, dtype=np.uint8)
    np.maximum.at(regs, bucket, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Raw HLL estimate with the standard small-range (linear counting)
    correction — the original Flajolet et al. formulas."""
    m = float(len(regs))
    inv = np.power(2.0, -regs.astype(np.float64)).sum()
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / inv
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return e


def q_hll_users(sf_dir: str) -> "ray.data.Dataset":
    """Approximate distinct user count over events via a mergeable
    HyperLogLog: each batch emits its 4 KiB register array; partial
    sketches max-merge in a REDUCE TASK (``exchange.gather`` over 4 KiB
    rows — at cluster scale, add intermediate levels for a tree
    reduce). Nothing touches the driver; the operator emits its
    estimate only — the estimate-vs-exact audit lives in the test suite
    (``tests/test_ops.py``), not inside the operator.
    Columns: estimate, nonzero_registers, n_registers. (No SQL oracle:
    sketch.)"""
    ds = read_pq(f"{sf_dir}/events.parquet", columns=["user_id"])

    def sketch(t: pa.Table) -> pa.Table:
        regs = _hll_registers(t["user_id"].to_numpy().astype(np.uint64))
        return pa.table({"regs": pa.array([regs.tobytes()], type=pa.binary())})

    def merge(t: pa.Table) -> pa.Table:
        merged = np.zeros(1 << HLL_P, dtype=np.uint8)
        for blob in t["regs"].to_pylist():
            np.maximum(merged, np.frombuffer(blob, dtype=np.uint8), out=merged)
        return pa.table({
            "estimate": pa.array([int(round(hll_estimate(merged)))], type=pa.int64()),
            "nonzero_registers": pa.array([int((merged > 0).sum())], type=pa.int64()),
            "n_registers": pa.array([1 << HLL_P], type=pa.int64()),
        })

    return gather(ds.map_batches(sketch, batch_format="pyarrow"), merge)


# ----------------------------------------------- minhash estimate validation

def _shingle_table(t: pa.Table) -> pa.Table:
    """(doc_id, sh) rows: the distinct word-shingle hash set as a binary
    blob (uint32 array bytes) — join-safe, zero-copy decode."""
    return pa.table({
        "doc_id": t["doc_id"],
        "sh": pa.array(
            [_shingle_hashes(x).tobytes() for x in t["text"].to_pylist()],
            type=pa.binary()),
    })


def q_minhash_validate(sf_dir: str) -> "ray.data.Dataset":
    """For every MinHash-LSH pair, compute the EXACT word-shingle
    Jaccard alongside the signature estimate (the sketch-quality audit a
    production dedup pipeline ships with). Shingle sets reach the pairs
    via the same two ``keyed_join``s as the signatures — no
    driver-side store of any per-doc state. Columns: doc_a, doc_b,
    est_jaccard, exact_jaccard. (No SQL oracle: sketch internals.)"""
    pairs = q_minhash_pairs(sf_dir)
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # materialized for the same reason as the sig table in
    # q_minhash_pairs: two join sides, one text scan
    sh = ds.map_batches(_shingle_table, batch_format="pyarrow").materialize()
    joined = _join_pairs_with(pairs, sh, "sh")

    def exact(t: pa.Table) -> pa.Table:
        ex = []
        for ba, bb in zip(t["sh_a"].to_pylist(), t["sh_b"].to_pylist()):
            sa = frozenset(np.frombuffer(ba, dtype=np.uint32).tolist())
            sb = frozenset(np.frombuffer(bb, dtype=np.uint32).tolist())
            u = len(sa | sb)
            ex.append(len(sa & sb) / u if u else 0.0)
        return pa.table({
            "doc_a": t["doc_a"],
            "doc_b": t["doc_b"],
            "est_jaccard": t["est_jaccard"],
            "exact_jaccard": pa.array(ex, type=pa.float64()),
        })

    return joined.map_batches(exact, batch_format="pyarrow")


# ------------------------------------------- near-dup cluster resolution

_EMPTY_CLUSTERS = pa.table({
    "doc_id": pa.array([], type=pa.int64()),
    "rep_id": pa.array([], type=pa.int64()),
})


def q_neardup_clusters(
    sf_dir: str, min_est: float = 0.5, max_iters: int = 12
) -> "ray.data.Dataset":
    """Connected components over the MinHash near-dup pair graph via
    iterative min-label propagation — the step that turns a PAIR list
    into a DEDUP DECISION (keep ``rep_id`` = min doc_id per component,
    drop the rest; the corpus-scale completion of the reference's
    in-row near-dup suppression, deed_ocr/extractors/llm.py:167-193).

    Shape: the pair graph is tiny relative to the corpus (only
    verified near-dup pairs), but the loop still runs DISTRIBUTED —
    symmetric edge list, ``keyed_join`` of labels to edges,
    min-groupby per node — so it holds when the pair list alone is
    billions of rows.
    Labels only ever decrease, so ``Sum(label)`` is a monotone
    convergence witness: one scalar per iteration reaches the driver.
    Terminates at the fixpoint or after ``max_iters`` sweeps (component
    DIAMETER bounds the needed sweeps; near-dup clusters are dense, so
    a handful suffices — and the cap is observable via the
    ``converged`` column). Columns: doc_id, rep_id.

    Input is the verified pair list's CHECKPOINT parquet
    (:func:`minhash_pairs_ckpt_for` — the clustering job reads the
    dedup job's checkpointed output), which also gives this entry a
    value-hash DuckDB oracle (``neardup_clusters_sql``: the identical
    min-label recurrence unrolled over the same artifact; component
    semantics additionally pytest-verified against an in-process
    union-find)."""
    pairs = read_pq(minhash_pairs_ckpt_for(sf_dir, min_est),
                    columns=["doc_a", "doc_b"])

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t["doc_a"].combine_chunks()
        b = t["doc_b"].combine_chunks()
        return pa.table({
            "node": pa.concat_arrays([a.cast(pa.int64()), b.cast(pa.int64())]),
            "nbr": pa.concat_arrays([b.cast(pa.int64()), a.cast(pa.int64())]),
        })

    # every sweep joins against the edge list: run it once
    edges = pairs.map_batches(symmetrize, batch_format="pyarrow").materialize()
    if not edges.count():
        return ray.data.from_arrow(_EMPTY_CLUSTERS)

    # initial labels: each node's min neighbour (sweep 0 folded in)
    labels = keyed_aggregate(edges, "node", {"label": ("nbr", "min")})
    labels = labels.map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "label": pc.min_element_wise(t["node"], t["label"]),
        }),
        batch_format="pyarrow",
    ).materialize()
    prev_sum = total(labels, {"s": ("label", "sum")})["s"]

    for _ in range(max_iters):
        # neighbour messages: every edge forwards its node's label
        msgs = keyed_join(edges, labels, "node").map_batches(
            lambda t: pa.table({"node": t["nbr"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        # materialized once for the convergence sum and the next sweep
        labels = keyed_aggregate(labels.union(msgs), "node",
                                 {"label": ("label", "min")})
        cur_sum = total(labels, {"s": ("label", "sum")})["s"]
        if cur_sum == prev_sum:  # monotone fixpoint reached
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "rep_id": t["label"]}),
        batch_format="pyarrow",
    )


# -------------------------------------- cluster representative keeper

_EMPTY_KEEP = pa.table({
    "doc_id": pa.array([], type=pa.int64()),
    "rep_id": pa.array([], type=pa.int64()),
    "n_chars": pa.array([], type=pa.int64()),
    "keep": pa.array([], type=pa.bool_()),
})


def q_cluster_keep_best(sf_dir: str, min_est: float = 0.5,
                        cutoff: int | None = None) -> "ray.data.Dataset":
    """Pick the KEEPER in every near-dup cluster — the ranked dedup
    decision (SURVEY D2 "near-dup with ranking") that completes
    [[q_neardup_clusters]]'s component labels: within each component,
    keep the longest document (``n_chars``; ties broken by min
    ``doc_id``), drop the rest. This is the corpus-scale form of the
    reference's keep-richest near-dup suppression
    (deed_ocr/extractors/llm.py:167-193 keeps the higher-confidence
    member of each near-identical pair).

    Shape: cluster labels are a tiny slice of the corpus (only docs
    with a verified near-dup), so ONE size-dispatched join attaches
    ``n_chars`` (the payload never moves — the documents read is
    pruned to two int columns), then a groupby on ``rep_id`` ranks
    members vectorized per cluster partition. Docs outside any
    cluster are implicitly kept (absent from the output).
    Columns: doc_id, rep_id, n_chars, keep.
    (No SQL oracle: input clusters are MinHash-sketch-derived; the
    keep rule itself is pytest-verified on a crafted fixture.)"""
    from .broadcast import cached_get
    from .relational import BROADCAST_ROWS_CUTOFF

    clusters = q_neardup_clusters(sf_dir, min_est=min_est)
    clusters = clusters.map_batches(
        lambda t: t.select(["doc_id", "rep_id"]),
        batch_format="pyarrow").materialize()
    n_cl = clusters.count()
    if n_cl == 0:
        return ray.data.from_arrow(_EMPTY_KEEP)

    docs = read_pq(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])
    if cutoff is None:
        cutoff = BROADCAST_ROWS_CUTOFF
    if n_cl <= cutoff:
        # size-dispatched (the attach_dim pattern): the cluster map is
        # the small side — broadcast it once and probe the pruned
        # documents stream in place of the co-partitioned join
        import ray as _ray

        cl = clusters.to_pandas()
        ref = _ray.put(pd.Series(cl["rep_id"].to_numpy(),
                                 index=cl["doc_id"].to_numpy()))

        def probe(t: pa.Table) -> pa.Table:
            s = cached_get(ref)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            idx = s.index.get_indexer(ids)
            hit = idx >= 0
            return pa.table({
                "doc_id": pa.array(ids[hit], type=pa.int64()),
                "rep_id": pa.array(s.to_numpy()[idx[hit]], type=pa.int64()),
                "n_chars": pa.array(
                    t["n_chars"].to_numpy(zero_copy_only=False)[hit],
                    type=pa.int64()),
            })

        joined = docs.map_batches(probe, batch_format="pyarrow")
    else:  # distributed join path, pinned via cutoff=0 in tests
        joined = keyed_join(clusters, docs, "doc_id")

    def decide(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["rep_id", "n_chars", "doc_id"],
                          ascending=[True, False, True])
        keep = g.groupby("rep_id", sort=False).cumcount().to_numpy() == 0
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(), type=pa.int64()),
            "rep_id": pa.array(g["rep_id"].to_numpy(), type=pa.int64()),
            "n_chars": pa.array(g["n_chars"].to_numpy(), type=pa.int64()),
            "keep": pa.array(keep, type=pa.bool_()),
        })

    return keyed_exchange(joined, "rep_id", decide)


# --------------------------------------------- fuzzy (edit-distance) join

FUZZY_MAX_DIST = 2
FUZZY_MAX_BLOCK = 8_000   # per-host pair-scan cap (O(n²) guard): a host
                          # beyond this emits an observable overflow
                          # sentinel instead of scanning — the
                          # MAX_BUCKET/MAX_LABEL_DOCS convention.
                          # Raised 2k->8k in r5: the banded numpy DP
                          # below is ~2 orders cheaper per pair than
                          # the old per-pair Python DP.
FUZZY_PAIR_CHUNK = 200_000  # pairs per numpy DP chunk (bounds the
                            # char-matrix working set to ~2×chunk×Lmax×4B)
FUZZY_MAX_PAIRS = 10_000_000  # per-host candidate-pair cap AFTER the
                              # length prefilter (bounds index memory
                              # on same-length-heavy hosts) — exceeded
                              # hosts emit the same overflow sentinel


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute = 1), the
    classic two-row DP — semantics identical to DuckDB ``levenshtein``
    so the oracle hashes exactly."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _codes_matrix(strs: list) -> np.ndarray:
    """(n, Lmax) uint32 codepoint matrix, zero-padded — one C-level
    view of the fixed-width numpy unicode buffer, no per-char loop."""
    u = np.array(strs, dtype="U")          # fixed-width U<Lmax>
    lmax = u.dtype.itemsize // 4
    if lmax == 0:                          # all-empty strings
        return np.zeros((len(strs), 0), dtype=np.uint32)
    return u.view(np.uint32).reshape(len(strs), lmax)


def banded_lev_many(
    codes: np.ndarray, lens: np.ndarray,
    ia: np.ndarray, ib: np.ndarray, k: int,
) -> np.ndarray:
    """Unit-cost edit distance for MANY string pairs at once, banded at
    ``k`` and saturating at ``k + 1`` (meaning "> k") — the vectorized
    replacement for calling :func:`levenshtein` per pair.

    ``codes``/``lens`` describe the distinct strings (codepoint matrix
    + true lengths); ``ia``/``ib`` index the pairs. Classic diagonal
    band ``dp[i][i+d-k]`` for ``d in 0..2k``; each DP step is numpy
    over all still-alive pairs, dead pairs (band min > k) drop out of
    the scan, and each pair's answer is captured at ``i == len(a)``.
    Exact for every pair with ``|len(a)-len(b)| <= k`` (callers
    prefilter the rest — they can never be within ``k``)."""
    p = len(ia)
    INF = np.int32(k + 1)
    out = np.full(p, INF, dtype=np.int32)
    if p == 0:
        return out
    La, Lb = lens[ia], lens[ib]
    W = 2 * k + 1
    band = np.full((p, W), INF, dtype=np.int32)
    band[:, k:] = np.arange(k + 1, dtype=np.int32)  # dp[0][j] = j
    done = La == 0                                  # dist("", b) = len(b)
    out[done] = np.minimum(Lb[done], INF)
    alive = np.flatnonzero(~done)
    A, B = codes[ia], codes[ib]
    lbmax = B.shape[1]
    i = 0
    while alive.size:
        i += 1
        prev = band[alive]
        sub_a = A[alive]
        sub_b = B[alive]
        new = np.full_like(prev, INF)
        for d in range(W):
            j = i + d - k
            if j < 0:
                continue
            if j == 0:
                new[:, d] = min(i, int(INF))
                continue
            if j - 1 < lbmax:
                cost = (sub_a[:, i - 1] != sub_b[:, j - 1]).astype(np.int32)
            else:
                cost = np.int32(1)
            best = prev[:, d] + cost                      # dp[i-1][j-1]
            if d + 1 < W:
                np.minimum(best, prev[:, d + 1] + 1, out=best)   # dp[i-1][j]
            if d >= 1:
                np.minimum(best, new[:, d - 1] + 1, out=best)    # dp[i][j-1]
            new[:, d] = np.minimum(best, INF)
        band[alive] = new
        la = La[alive]
        fin = la == i
        if fin.any():
            rows = alive[fin]
            out[rows] = band[rows, Lb[rows] - i + k]
        keep = ~fin & (new.min(axis=1) < INF)
        alive = alive[keep]
    return out


def q_fuzzy_url_pairs(
    sf_dir: str, max_dist: int = FUZZY_MAX_DIST,
    max_block: int = FUZZY_MAX_BLOCK,
    max_pairs: int = FUZZY_MAX_PAIRS,
) -> "ray.data.Dataset":
    """Fuzzy SIMILARITY JOIN with blocking: within-host url pairs at
    edit distance <= ``max_dist`` — the typo/variant-url detector and
    the string-fuzzy-join primitive: block on a cheap equality key,
    scan pairs only inside a block. Per-batch distinct shrinks the
    exchange to unique urls; the per-host scan length-prefilters
    (|len(a)-len(b)| > max_dist can never match) before the DP; hosts
    larger than ``max_block`` emit an observable overflow sentinel
    (dist = -1) instead of an O(n²) scan.
    Columns: url_a, url_b, dist."""
    from .linkgraph import host_of_url
    from ..sources.pages import read_pages
    from .corpus import pages_corpus_for

    corpus = pages_corpus_for(sf_dir)
    ds = read_pages(corpus, columns=["url"])

    def distinct_hosted(t: pa.Table) -> pa.Table:
        urls = sorted(set(t["url"].to_pylist()))
        return pa.table({
            "host": pa.array([host_of_url(u) for u in urls],
                             type=pa.string()),
            "url": pa.array(urls, type=pa.string()),
        })

    def pairs(g: pd.DataFrame) -> pa.Table:
        overflow = pa.table({
            "url_a": pa.array([g["host"].iloc[0]], type=pa.string()),
            "url_b": pa.array(["OVERFLOW"], type=pa.string()),
            "dist": pa.array([-1], type=pa.int64()),
        })
        urls = sorted(set(g["url"].tolist()))
        n = len(urls)
        if n > max_block:
            return overflow
        codes = _codes_matrix(urls)
        lens = np.array([len(u) for u in urls], dtype=np.int64)
        # candidate pairs via the exact length prefilter, built from
        # length-sorted windows — only |len diff| <= k pairs are ever
        # materialized (never the n²/2 index matrix)
        order = np.argsort(lens, kind="stable").astype(np.int32)
        sl = lens[order]
        hi = np.searchsorted(sl, sl + max_dist, side="right")
        cnt = hi - np.arange(n) - 1
        total = int(cnt.sum())
        if total > max_pairs:
            return overflow
        starts = np.cumsum(cnt) - cnt
        ii_s = np.repeat(np.arange(n, dtype=np.int32), cnt)
        jj_s = (np.arange(total, dtype=np.int64)
                - np.repeat(starts, cnt) + ii_s + 1).astype(np.int32)
        ii, jj = order[ii_s], order[jj_s]
        # urls is lexicographically sorted, so index order IS url
        # order: emit (min, max) to satisfy the url_a < url_b contract
        ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
        out_a: List[str] = []; out_b: List[str] = []; out_d: List[int] = []
        uarr = np.array(urls, dtype=object)
        for s in range(0, len(ii), FUZZY_PAIR_CHUNK):
            ia, ib = ii[s:s + FUZZY_PAIR_CHUNK], jj[s:s + FUZZY_PAIR_CHUNK]
            d = banded_lev_many(codes, lens, ia, ib, max_dist)
            hit = d <= max_dist
            out_a.extend(uarr[ia[hit]].tolist())
            out_b.extend(uarr[ib[hit]].tolist())
            out_d.extend(d[hit].tolist())
        return pa.table({
            "url_a": pa.array(out_a, type=pa.string()),
            "url_b": pa.array(out_b, type=pa.string()),
            "dist": pa.array(out_d, type=pa.int64()),
        })

    def per_host(df: pd.DataFrame) -> pa.Table:
        return pa.concat_tables(
            [pairs(g) for _, g in df.groupby("host", sort=False)])

    return keyed_exchange(ds.map_batches(distinct_hosted, batch_format="pyarrow"),
                          "host", per_host)


def fuzzy_url_pairs_sql(corpus: str, max_dist: int = FUZZY_MAX_DIST) -> str:
    """DuckDB replay over the corpus parquet (same host expression as
    the link-graph oracles). Valid while every host is under
    FUZZY_MAX_BLOCK urls — true for the gate corpus; the overflow path
    is pinned by a pytest instead."""
    host = ("lower(split_part(split_part(split_part(split_part("
            "split_part(url, '://', 2), '/', 1), '?', 1), '#', 1),"
            " ':', 1))")
    return f"""
WITH u AS (SELECT DISTINCT url FROM read_parquet('{corpus}/*.parquet')),
h AS (SELECT url, {host} AS host FROM u)
SELECT a.url AS url_a, b.url AS url_b,
       CAST(levenshtein(a.url, b.url) AS BIGINT) AS dist
FROM h a JOIN h b ON a.host = b.host AND a.url < b.url
WHERE levenshtein(a.url, b.url) <= {int(max_dist)}
"""
