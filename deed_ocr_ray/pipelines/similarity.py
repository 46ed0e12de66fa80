"""Similarity search over the ``embeddings`` table (list<float> column).

Brute-force cosine top-k as the exact baseline and a label-partitioned
(IVF-style) variant as the scale path. Shuffle-conscious shape:

* the query matrix is tiny and is broadcast to every batch task (at
  cluster scale: ``ray.put`` once, ``ray.get`` in actor ``__init__``);
* each batch computes cosines vectorized (numpy float64 matmul) and
  emits only its LOCAL top-k per query — the global shuffle then moves
  ``k × n_queries`` rows per batch, not the full corpus;
* final exact top-k per query via one ``exchange.keyed_exchange`` on
  ``query_id``: each partition sorts once and keeps ``head(k)`` per
  query.

All cosine math is float64 end-to-end, which is bit-identical to
DuckDB's ``list_cosine_similarity`` on ``DOUBLE[]`` — so the oracle
matches exactly (verified: identical doubles).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ..sources.pages import read_pq
from .exchange import keyed_exchange, top_k

K_NEIGHBORS = 10
N_QUERIES = 5


def _emb_matrix(col) -> np.ndarray:
    """(n, d) float64 matrix from a ``list<float>`` column.
    ``list_flatten`` + ``to_numpy`` is zero-copy off the Arrow buffer;
    the only copy is the float32->float64 cast the math needs (exact,
    so results are unchanged vs the old ``to_pylist`` path)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    flat = pc.list_flatten(col)
    d = len(flat) // n
    return flat.to_numpy(zero_copy_only=False).astype(np.float64).reshape(n, d)


def _load_queries(sf_dir: str, n: int = N_QUERIES) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First ``n`` vectors by vec_id as the query set (deterministic),
    selected distributed by ``exchange.top_k``: only ``n`` rows reach
    the driver."""
    ds = read_pq(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])
    df = top_k(ds, "vec_id", n).to_pandas()
    q = np.array(df["embedding"].tolist(), dtype=np.float64)
    qid = np.array(df["vec_id"].tolist(), dtype=np.int64)
    qlab = np.array(df["label"].tolist(), dtype=np.int64)
    return q, qid, qlab


import os

_COS_CHUNK = int(os.environ.get("DEED_COS_CHUNK", "512"))
# corpus rows per temporary: bounds the O(q·chunk·dim) cumsum scratch
# regardless of batch size (env-overridable for A/B perf attribution;
# chunking along n changes no per-element arithmetic)


def _cosine_block(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """cos(q_i, m_j) in float64, bit-matching DuckDB's
    ``list_cosine_similarity`` on DOUBLE[]: sequential accumulation
    (cumsum order, not BLAS pairwise) and ``dot/(sqrt(na)*sqrt(nb))``.
    Verified element-exact against DuckDB on every non-self pair.
    The corpus axis is processed in ``_COS_CHUNK`` slices so the
    (q, n, dim) scratch never exceeds (q, chunk, dim) doubles —
    chunking along n changes no per-element arithmetic."""
    qn = np.sqrt(np.cumsum(q * q, axis=1)[:, -1])
    mn = np.sqrt(np.cumsum(m * m, axis=1)[:, -1])
    out = np.empty((q.shape[0], m.shape[0]), dtype=np.float64)
    for s in range(0, m.shape[0], _COS_CHUNK):
        mm = m[s : s + _COS_CHUNK]
        prod = q[:, None, :] * mm[None, :, :]
        out[:, s : s + _COS_CHUNK] = np.cumsum(prod, axis=2)[:, :, -1]
    return out / (qn[:, None] * mn[None, :])


class TopKScorer:
    """Per-batch cosine vs the query matrix, local top-k. Passed to
    ``map_batches`` as an INSTANCE (task pool): the query matrix is a
    few KiB, so shipping it in the task closure beats paying the
    short-stage actor-pool startup tax (NOTES.md)."""

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray, k: int,
                 exclude_self: bool = True) -> None:
        self.q = queries
        self.qid = query_ids
        self.k = k
        self.exclude_self = exclude_self

    def __call__(self, t: pa.Table) -> pa.Table:
        vec_ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _emb_matrix(t["embedding"])
        cos = _cosine_block(self.q, m)
        out_q: List[int] = []
        out_n: List[int] = []
        out_c: List[float] = []
        k = min(self.k, m.shape[0])
        for i, qid in enumerate(self.qid):
            row = cos[i]
            mask = vec_ids != qid if self.exclude_self else np.ones_like(vec_ids, bool)
            cand = np.where(mask)[0]
            if len(cand) == 0:
                continue
            # deterministic: sort by (-cos, vec_id)
            order = cand[np.lexsort((vec_ids[cand], -row[cand]))][:k]
            out_q.extend([int(qid)] * len(order))
            out_n.extend(int(v) for v in vec_ids[order])
            out_c.extend(float(c) for c in row[order])
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "cos": pa.array(out_c, type=pa.float64()),
        })


def _global_topk(g: pd.DataFrame, k: int = K_NEIGHBORS) -> pa.Table:
    """Exact top-k (cos desc, neighbor_id asc) of every query in one
    partition of the local top-k rows."""
    g = g.sort_values(["query_id", "cos", "neighbor_id"],
                      ascending=[True, False, True])
    g = g.groupby("query_id", sort=False).head(k)
    return pa.Table.from_pandas(g[["query_id", "neighbor_id", "cos"]],
                                preserve_index=False).replace_schema_metadata()


def q_knn_cosine(sf_dir: str) -> "ray.data.Dataset":
    """Exact brute-force cosine top-10 for the first 5 vec_ids.
    Columns: query_id, neighbor_id, cos."""
    q, qid, _ = _load_queries(sf_dir)
    ds = read_pq(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    local = ds.map_batches(
        TopKScorer(queries=q, query_ids=qid, k=K_NEIGHBORS),
        batch_format="pyarrow",
    )
    return keyed_exchange(local, "query_id", _global_topk)


Q_KNN_SQL = f"""
WITH q AS (
    SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv
    FROM embeddings ORDER BY vec_id LIMIT {N_QUERIES}
),
scored AS (
    SELECT q.query_id, e.vec_id AS neighbor_id,
           list_cosine_similarity(q.qv, e.embedding::DOUBLE[]) AS cos
    FROM q, embeddings e
    WHERE e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, cos
FROM (
    SELECT *, row_number() OVER (PARTITION BY query_id
                                 ORDER BY cos DESC, neighbor_id ASC) AS rn
    FROM scored
) WHERE rn <= {K_NEIGHBORS}
"""


def q_knn_ivf(sf_dir: str) -> "ray.data.Dataset":
    """IVF-style pruned k-NN: probe only the query's own ``label``
    partition (the coarse quantizer stand-in). At scale this is the
    shuffle-free path: partitions are read selectively instead of
    scanning the corpus. Columns: query_id, neighbor_id, cos."""
    q, qid, qlab = _load_queries(sf_dir)
    ds = read_pq(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])

    class IvfScorer(TopKScorer):
        def __init__(self) -> None:
            super().__init__(q, qid, K_NEIGHBORS)
            self.qlab = qlab

        def __call__(self, t: pa.Table) -> pa.Table:
            labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
            vec_ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = _emb_matrix(t["embedding"])
            out_q, out_n, out_c = [], [], []
            for i, (qid_i, ql) in enumerate(zip(self.qid, self.qlab)):
                sel = np.where((labels == ql) & (vec_ids != qid_i))[0]
                if len(sel) == 0:
                    continue
                row = _cosine_block(self.q[i : i + 1], m[sel])[0]
                order = np.lexsort((vec_ids[sel], -row))[: self.k]
                out_q.extend([int(qid_i)] * len(order))
                out_n.extend(int(v) for v in vec_ids[sel][order])
                out_c.extend(float(c) for c in row[order])
            return pa.table({
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cos": pa.array(out_c, type=pa.float64()),
            })

    local = ds.map_batches(IvfScorer(), batch_format="pyarrow")
    return keyed_exchange(local, "query_id", _global_topk)


Q_KNN_IVF_SQL = f"""
WITH q AS (
    SELECT vec_id AS query_id, embedding::DOUBLE[] AS qv, label
    FROM embeddings ORDER BY vec_id LIMIT {N_QUERIES}
),
scored AS (
    SELECT q.query_id, e.vec_id AS neighbor_id,
           list_cosine_similarity(q.qv, e.embedding::DOUBLE[]) AS cos
    FROM q JOIN embeddings e ON e.label = q.label
    WHERE e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, cos
FROM (
    SELECT *, row_number() OVER (PARTITION BY query_id
                                 ORDER BY cos DESC, neighbor_id ASC) AS rn
    FROM scored
) WHERE rn <= {K_NEIGHBORS}
"""


LSH_BITS = 4  # sign-hash width -> 2^4 = 16 buckets


def _lsh_bucket(m: np.ndarray) -> np.ndarray:
    """Random-hyperplane LSH bucket with the coordinate axes as the
    hyperplane family (embeddings carry no preferred orientation, so
    axis signs are as good as seeded Gaussians — and, unlike a random
    matrix, the DuckDB oracle can recompute them exactly). Bucket =
    the sign bits of the first ``LSH_BITS`` coordinates."""
    bits = (m[:, :LSH_BITS] >= 0.0).astype(np.int64)
    return bits @ (1 << np.arange(LSH_BITS, dtype=np.int64))


def q_knn_lsh(sf_dir: str) -> "ray.data.Dataset":
    """LSH-bucketed approximate k-NN — the second scale path next to
    IVF (brief: "an IVF or LSH-bucketed variant"): candidates are only
    scored within the query's sign-hash bucket, so each batch scans
    ~1/2^LSH_BITS of its rows and the exchange still moves only local
    top-k rows. At cluster scale the corpus is hash-partitioned by
    bucket and only the probed buckets are read.
    Columns: query_id, neighbor_id, cos."""
    q, qid, _ = _load_queries(sf_dir)
    qb = _lsh_bucket(q)
    ds = read_pq(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    class LshScorer(TopKScorer):
        def __init__(self) -> None:
            super().__init__(q, qid, K_NEIGHBORS)
            self.qb = qb

        def __call__(self, t: pa.Table) -> pa.Table:
            vec_ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = _emb_matrix(t["embedding"])
            mb = _lsh_bucket(m) if m.size else np.zeros(0, dtype=np.int64)
            out_q, out_n, out_c = [], [], []
            for i, (qid_i, qb_i) in enumerate(zip(self.qid, self.qb)):
                sel = np.where((mb == qb_i) & (vec_ids != qid_i))[0]
                if len(sel) == 0:
                    continue
                row = _cosine_block(self.q[i : i + 1], m[sel])[0]
                order = np.lexsort((vec_ids[sel], -row))[: self.k]
                out_q.extend([int(qid_i)] * len(order))
                out_n.extend(int(v) for v in vec_ids[sel][order])
                out_c.extend(float(c) for c in row[order])
            return pa.table({
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cos": pa.array(out_c, type=pa.float64()),
            })

    local = ds.map_batches(LshScorer(), batch_format="pyarrow")
    return keyed_exchange(local, "query_id", _global_topk)


def _lsh_bucket_sql(col: str) -> str:
    return " + ".join(
        f"{1 << b}*(CASE WHEN {col}[{b + 1}] >= 0 THEN 1 ELSE 0 END)"
        for b in range(LSH_BITS))


Q_KNN_LSH_SQL = f"""
WITH b AS (
    SELECT vec_id, embedding::DOUBLE[] AS v,
           {_lsh_bucket_sql("embedding")} AS bucket
    FROM embeddings
),
q AS (
    SELECT vec_id AS query_id, v AS qv, bucket
    FROM b ORDER BY vec_id LIMIT {N_QUERIES}
),
scored AS (
    SELECT q.query_id, e.vec_id AS neighbor_id,
           list_cosine_similarity(q.qv, e.v) AS cos
    FROM q JOIN b e ON e.bucket = q.bucket
    WHERE e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, cos
FROM (
    SELECT *, row_number() OVER (PARTITION BY query_id
                                 ORDER BY cos DESC, neighbor_id ASC) AS rn
    FROM scored
) WHERE rn <= {K_NEIGHBORS}
"""


MAX_LABEL_DOCS = 20_000   # hard compute cap: a label group beyond this is
                          # NOT all-pairs-scanned (O(n²) on a hot label);
                          # it emits an overflow sentinel row instead —
                          # the skew guard mirroring dedup.MAX_BUCKET.
_PAIR_CHUNK = 2048        # sub-block edge: pair scratch is bounded by
                          # chunk² + chunk·dim regardless of group size


def q_embedding_neardup(
    sf_dir: str, min_cos: float = 0.90, max_label_docs: int = MAX_LABEL_DOCS,
    pair_chunk: int = _PAIR_CHUNK,
) -> "ray.data.Dataset":
    """Embedding-cosine near-duplicate detection, label-blocked (pairs
    are only searched within a label partition — the LSH-bucket analogue
    for dense vectors). Emits every within-label pair with
    cos >= ``min_cos`` PLUS each label's single closest pair (so the
    result is never empty and the operator's output schema is stable).

    Skew guards: the within-label scan runs in ``pair_chunk`` ×
    ``pair_chunk`` sub-blocks (memory bounded for any group size), and
    a label larger than ``max_label_docs`` is not scanned at all — it
    emits one OVERFLOW sentinel row ``(label, vec_a=-1,
    vec_b=group_size, cos=0, is_above_threshold=False)`` so the skipped
    work is observable, never silent.
    Columns: label, vec_a, vec_b, cos, is_above_threshold.
    Oracle: ``embedding_neardup_sql`` — within a label block the scan
    is EXHAUSTIVE and the cosine is the DuckDB-bit-identical float64
    path, so as long as no label exceeds ``max_label_docs`` (true for
    the gate fixture; the overflow path is pytest-pinned) DuckDB
    replays it exactly, including the closest-pair fallback row and
    its first-in-(vec_a, vec_b)-order tie-break."""
    ds = read_pq(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding", "label"])

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({
            "label": pd.Series([], dtype="int64"),
            "vec_a": pd.Series([], dtype="int64"),
            "vec_b": pd.Series([], dtype="int64"),
            "cos": pd.Series([], dtype="float64"),
            "is_above_threshold": pd.Series([], dtype="bool"),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        label = int(g["label"].iloc[0])
        ids = np.asarray(g["vec_id"], dtype=np.int64)
        if len(ids) < 2:
            return _empty()
        if len(ids) > max_label_docs:  # hot-label guard: observable skip
            return pd.DataFrame({
                "label": np.array([label], dtype=np.int64),
                "vec_a": np.array([-1], dtype=np.int64),
                "vec_b": np.array([len(ids)], dtype=np.int64),
                "cos": np.array([0.0]),
                "is_above_threshold": np.array([False]),
            })
        m = np.array(list(g["embedding"]), dtype=np.float64)
        order = np.argsort(ids)
        ids, m = ids[order], m[order]
        out_a: list = []
        out_b: list = []
        out_c: list = []
        best_val = -np.inf
        best_pair = (0, 0, 0.0)
        n = len(ids)
        for si in range(0, n, pair_chunk):
            mi = m[si : si + pair_chunk]
            for sj in range(si, n, pair_chunk):
                cos = _cosine_block(mi, m[sj : sj + pair_chunk])
                if si == sj:  # strict upper triangle within the diagonal block
                    ii, jj = np.triu_indices(cos.shape[0], k=1, m=cos.shape[1])
                else:
                    ii, jj = np.indices(cos.shape).reshape(2, -1)
                vals = cos[ii, jj]
                if len(vals) == 0:
                    continue
                keep = vals >= min_cos
                out_a.append(ids[si + ii[keep]])
                out_b.append(ids[sj + jj[keep]])
                out_c.append(vals[keep])
                k = int(np.argmax(vals))
                if vals[k] > best_val:
                    best_val = float(vals[k])
                    best_pair = (int(ids[si + ii[k]]), int(ids[sj + jj[k]]), best_val)
        a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
        c = np.concatenate(out_c) if out_c else np.array([], dtype=np.float64)
        if best_val < min_cos:  # closest pair always reported
            a = np.append(a, best_pair[0])
            b = np.append(b, best_pair[1])
            c = np.append(c, best_pair[2])
        order = np.lexsort((b, a))  # deterministic (vec_a, vec_b) order
        a, b, c = a[order], b[order], c[order]
        return pd.DataFrame({
            "label": np.full(len(a), label, dtype=np.int64),
            "vec_a": a.astype(np.int64),
            "vec_b": b.astype(np.int64),
            "cos": c,
            "is_above_threshold": c >= min_cos,
        })

    def per_label(df: pd.DataFrame) -> pa.Table:
        # no pandas metadata: Ray fails to hash schemas that carry it
        # ("Failed to hash the schemas" in the workers' logs)
        return pa.Table.from_pandas(
            pd.concat([pairs(g) for _, g in df.groupby("label", sort=False)]),
            preserve_index=False).replace_schema_metadata()

    return keyed_exchange(ds, "label", per_label)


def embedding_neardup_sql(min_cos: float = 0.90) -> str:
    """DuckDB replay of :func:`q_embedding_neardup` (see its docstring
    for the validity condition)."""
    return f"""
WITH e AS (SELECT vec_id, CAST(label AS BIGINT) AS label,
                  embedding::DOUBLE[] AS v FROM embeddings),
p AS (
  SELECT a.label, a.vec_id AS vec_a, b.vec_id AS vec_b,
         list_cosine_similarity(a.v, b.v) AS cos
  FROM e a JOIN e b ON a.label = b.label AND a.vec_id < b.vec_id
),
r AS (SELECT label, vec_a, vec_b, cos,
             row_number() OVER (PARTITION BY label
                                ORDER BY cos DESC, vec_a ASC, vec_b ASC) AS rn,
             max(cos) OVER (PARTITION BY label) AS mx
      FROM p)
SELECT label, vec_a, vec_b, cos, cos >= {min_cos!r} AS is_above_threshold
FROM r WHERE cos >= {min_cos!r} OR (rn = 1 AND mx < {min_cos!r})
"""


Q_EMBEDDING_NEARDUP_SQL = embedding_neardup_sql()


# --------------------------------------------------- distributed PCA

PCA_COMPONENTS = 4


def pca_fit(sf_dir: str, k: int = PCA_COMPONENTS):
    """Fit PCA over the embeddings table with ONE streaming pass of
    mergeable moment partials: each block emits (count, sum-vector,
    gram-matrix sum) — d + d² floats (32 KiB at d=64) regardless of
    block size — and the driver folds them into the covariance and runs
    the d×d eigendecomposition locally (d is small; the corpus is not).
    Deterministic: float64 throughout, components sign-fixed so each
    one's largest-|coefficient| entry is positive.

    Returns (mean, components[k, d], explained_variance_ratio[k]).
    """
    ds = read_pq(f"{sf_dir}/embeddings.parquet",
                               columns=["embedding"])

    def partials(t: pa.Table) -> pa.Table:
        m = _emb_matrix(t["embedding"])
        if m.size == 0:
            m = np.zeros((0, 1))
        return pa.table({
            "n": pa.array([m.shape[0]], type=pa.int64()),
            "s": pa.array([m.sum(axis=0)], type=pa.list_(pa.float64())),
            "g": pa.array([(m.T @ m).ravel()], type=pa.list_(pa.float64())),
        })

    rows = [r for r in ds.map_batches(partials, batch_format="pyarrow").take_all()
            if r["n"] > 0]
    n = sum(r["n"] for r in rows)
    if n < 2:
        # covariance needs >= 2 samples (the n-1 divisor); match the
        # explicit n_edges==0 / n_docs==0 guards of sibling operators
        raise ValueError(f"pca_fit needs >= 2 embeddings, got {n}")
    d = len(rows[0]["s"])
    s = np.zeros(d); g = np.zeros((d, d))
    for r in rows:
        s += np.asarray(r["s"])
        g += np.asarray(r["g"]).reshape(d, d)
    mean = s / n
    cov = (g - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(evals)[::-1][:k]
    comps = evecs[:, order].T                   # [k, d]
    # deterministic sign: largest-|coeff| entry of each component > 0
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    ratio = evals[order] / evals.sum()
    return mean, comps, ratio


def q_pca_project(sf_dir: str, k: int = PCA_COMPONENTS) -> "ray.data.Dataset":
    """Project every embedding onto the top-k principal components of
    the corpus — the dimensionality-reduction pass before clustering /
    visualization / cheap ANN. Fit is one partial-moment pass
    (``pca_fit``); the (mean, components) pair is broadcast once via
    ``ray.put`` and the projection pass is a single vectorized
    ``map_batches`` matmul. Columns: vec_id, label, pc0..pc{k-1}.
    (No SQL oracle: eigendecomposition — rows-only check; exactness vs
    single-machine numpy PCA asserted in tests.) The last float bits
    follow the read's block count: ``pca_fit`` sums one moment partial
    per block, and how many blocks a read gives depends on the table's
    file count and the cluster's CPUs (:func:`read_pq`), so the values'
    hash can change with the CPU count while the rows do not."""
    mean, comps, _ = pca_fit(sf_dir, k)
    ref = ray.put((mean, comps))

    ds = read_pq(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "label", "embedding"])

    def project(t: pa.Table) -> pa.Table:
        mu, c = ray.get(ref)
        m = _emb_matrix(t["embedding"])
        proj = (m - mu) @ c.T if m.size else np.zeros((0, c.shape[0]))
        cols = {"vec_id": t["vec_id"], "label": t["label"]}
        for i in range(c.shape[0]):
            cols[f"pc{i}"] = pa.array(proj[:, i], type=pa.float64())
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")
