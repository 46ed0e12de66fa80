"""Probabilistic-filter operators: Bloom-filter semi-join and
count-min-sketch heavy hitters.

Round-3 widening #3 — the two classic sketch shapes the existing
family (HLL ``dedup.q_hll_users``, log-histogram quantiles
``windows.q_price_quantile_sketch``) doesn't cover:

- a Bloom filter used the way a distributed engine uses it: as a
  *semi-join prefilter* that prunes the fact-table stream before the
  only shuffle, with an EXACT verification pass after it so the final
  answer is value-hash identical to the plain semi-join SQL (false
  positives are removed, never reach the output);
- a count-min sketch for heavy hitters over unbounded key domains,
  mergeable per-batch partials + candidate stream, estimate-vs-exact
  audited in the test suite (the HLL pattern).

Merge topology note (shared with the HLL/quantile sketches): partials
reduce via ``exchange.gather`` — one reduce task, nothing on the
driver except the finished constant-size sketch; at cluster scale add
intermediate levels for a tree reduce.

Reference analogue: the confidence-gated keep/drop prefilters of
deed_ocr/extractors/llm.py:120-166 (cheap gate first, exact check
after), generalized to keyed streams.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ..sources.pages import read_pq
from .exchange import gather, keyed_aggregate, keyed_exchange, keyed_join

# ----------------------------------------------------------- bloom core

BLOOM_BITS_LOG2 = 20          # 2^20 bits = 128 KiB per partial
BLOOM_K = 5                   # hash probes per key
_BLOOM_M = np.uint64(1 << BLOOM_BITS_LOG2)
# splitmix64 increments: k independent hash streams from one 64-bit key
_BLOOM_SEEDS = [np.uint64(0x9E3779B97F4A7C15 * (i + 1) & 0xFFFFFFFFFFFFFFFF)
                for i in range(BLOOM_K)]


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public constant mixing), vectorized."""
    x ^= x >> np.uint64(30); x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27); x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _bloom_positions(keys: np.ndarray) -> list:
    """k bit positions per key (each a vector aligned with ``keys``)."""
    base = keys.astype(np.uint64)
    return [( _mix64(base + s) % _BLOOM_M).astype(np.int64) for s in _BLOOM_SEEDS]


def bloom_from_keys(keys: np.ndarray) -> np.ndarray:
    """Bit array (uint8, 2^bits/8 bytes) with all keys inserted."""
    bits = np.zeros((1 << BLOOM_BITS_LOG2) >> 3, dtype=np.uint8)
    for pos in _bloom_positions(keys):
        np.bitwise_or.at(bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    return bits


def bloom_contains(bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorized membership mask (true ⇒ maybe-present)."""
    mask = np.ones(len(keys), dtype=bool)
    for pos in _bloom_positions(keys):
        mask &= (bits[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
    return mask


# ----------------------------------------------------- bloom semi-join

SEMI_PRICE_THR = 400_000.0


def _bloom_probe_fn(bloom_ref):
    """Task-pool Bloom probe: ``ray.get`` of the broadcast bit array is
    a local object-store hit after the first task per worker (an actor
    pool here cost 3.6 s vs 0.7 s task-pool on a warm 32-CPU session —
    the NOTES.md short-stage rule)."""
    import ray as _ray

    def probe(t: pa.Table) -> pa.Table:
        bits = _ray.get(bloom_ref)
        keys = t["l_orderkey"].to_numpy()
        return t.filter(pa.array(bloom_contains(bits, keys)))

    return probe


def q_bloom_semijoin(sf_dir: str, thr: float = SEMI_PRICE_THR) -> "ray.data.Dataset":
    """Lineitem rollup restricted to HIGH-VALUE orders (o_totalprice >
    ``thr``) — a distributed semi-join executed the scale-correct way:

    1. build-side scan emits constant-size partial Bloom filters (128
       KiB bit arrays), OR-merged in one reduce task; the finished
       filter is broadcast via ``ray.put`` (sketch-sized, not
       key-set-sized — the point of a Bloom filter);
    2. the fact stream is pruned by vectorized Bloom probes BEFORE any
       exchange — at corpus scale this is the difference between
       shuffling every lineitem and shuffling the qualifying few
       percent;
    3. survivors are verified by an exact ``keyed_join`` against the
       qualifying order keys (``o_orderkey`` is unique, so the inner
       join is the semi-join) — Bloom false positives find no match
       and drop here, so the output is value-hash EXACT (the oracle is
       the plain semi-join, no approximation).

    Columns: l_returnflag, n_items, cents.
    """

    import ray as _ray

    keys_ds = read_pq(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])

    def partial_bloom(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sel = t.filter(pc.greater(t["o_totalprice"], thr))
        bits = bloom_from_keys(sel["o_orderkey"].to_numpy())
        return pa.table({"bits": pa.array([bits.tobytes()], type=pa.binary())})

    def or_merge(t: pa.Table) -> pa.Table:
        merged = np.zeros((1 << BLOOM_BITS_LOG2) >> 3, dtype=np.uint8)
        for blob in t["bits"].to_pylist():
            np.bitwise_or(merged, np.frombuffer(blob, dtype=np.uint8), out=merged)
        return pa.table({"bits": pa.array([merged.tobytes()], type=pa.binary())})

    merged = gather(keys_ds.map_batches(partial_bloom, batch_format="pyarrow"),
                    or_merge).take_all()
    # driver holds only the finished 128 KiB sketch — constant size at
    # any corpus scale (this is NOT a key-set materialization)
    bloom_ref = _ray.put(np.frombuffer(merged[0]["bits"], dtype=np.uint8))

    def exact_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater(t["o_totalprice"], thr)).select(["o_orderkey"])

    def survivor_rows(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100 + 0.5
        ).astype(np.int64)
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_returnflag": t["l_returnflag"].cast(pa.string()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    fact = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice"])
    survivors = fact.map_batches(
        _bloom_probe_fn(bloom_ref), batch_format="pyarrow",
    ).map_batches(survivor_rows, batch_format="pyarrow")
    build = keys_ds.map_batches(exact_keys, batch_format="pyarrow")

    return keyed_aggregate(keyed_join(survivors, build, "l_orderkey", "o_orderkey"),
                           "l_returnflag",
                           {"n_items": (None, "count_all"),
                            "cents": ("cents", "sum")})


def bloom_semijoin_sql(thr: float = SEMI_PRICE_THR) -> str:
    return f"""
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS cents
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_totalprice > {float(thr)})
GROUP BY l_returnflag
"""


Q_BLOOM_SEMIJOIN_SQL = bloom_semijoin_sql()


# -------------------------------------------- count-min heavy hitters

CMS_D = 4                     # hash rows
CMS_W = 8192                  # counters per row (256 KiB per partial)
_CMS_SEEDS = [np.uint64(0xD1B54A32D192ED03 * (i + 1) & 0xFFFFFFFFFFFFFFFF)
              for i in range(CMS_D)]
CMS_LOCAL_CANDIDATES = 64     # per-batch candidate top-m


def _term_hash(terms: list) -> np.ndarray:
    """Deterministic 64-bit term hashes (process-seed-free)."""
    return pd.util.hash_array(np.asarray(terms, dtype=object)).astype(np.uint64)


def cms_update(counts: np.ndarray, hashes: np.ndarray, weights: np.ndarray) -> None:
    """Add ``weights`` into a (d, w) count-min matrix, vectorized."""
    for i, s in enumerate(_CMS_SEEDS):
        pos = (_mix64(hashes + s) % np.uint64(CMS_W)).astype(np.int64)
        np.add.at(counts[i], pos, weights)


def cms_estimate(counts: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Point-query estimates: min over the d rows (classic CMS upper
    bound — never underestimates)."""
    est = np.full(len(hashes), np.iinfo(np.int64).max, dtype=np.int64)
    for i, s in enumerate(_CMS_SEEDS):
        pos = (_mix64(hashes + s) % np.uint64(CMS_W)).astype(np.int64)
        np.minimum(est, counts[i][pos], out=est)
    return est


def q_heavy_hitters(sf_dir: str, k: int = 20) -> "ray.data.Dataset":
    """Approximate top-k terms by count via a MERGEABLE count-min
    sketch: each batch emits (a) its (4×8192) int64 partial sketch and
    (b) its local top-``CMS_LOCAL_CANDIDATES`` candidate terms (any
    global heavy hitter is a local heavy hitter in at least one batch
    at this margin); sketches sum-merge and candidates dedup in ONE
    reduce task, which estimates each candidate from the merged sketch
    and keeps the top k (est desc, term asc). Estimates are upper
    bounds (est >= true count, within eps·N whp) — the
    estimate-vs-exact audit lives in ``tests/test_sketches.py``,
    mirroring the HLL pattern. Columns: term, est_cnt.
    (No SQL oracle: sketch.)"""

    import collections

    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        c: collections.Counter = collections.Counter()
        for x in t["text"].to_pylist():
            c.update(x.split())
        terms = list(c.keys())
        weights = np.array([c[w] for w in terms], dtype=np.int64)
        counts = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        if terms:
            cms_update(counts, _term_hash(terms), weights)
        cand = [w for w, _ in c.most_common(CMS_LOCAL_CANDIDATES)]
        return pa.table({
            "kind": pa.array(["cms"] + ["cand"] * len(cand), type=pa.string()),
            "blob": pa.array([counts.tobytes()] + [b""] * len(cand), type=pa.binary()),
            "term": pa.array([""] + cand, type=pa.string()),
        })

    def merge(t: pa.Table) -> pa.Table:
        counts = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        cands: set = set()
        for kind, blob, term in zip(t["kind"].to_pylist(),
                                    t["blob"].to_pylist(),
                                    t["term"].to_pylist()):
            if kind == "cms":
                counts += np.frombuffer(blob, dtype=np.int64).reshape(CMS_D, CMS_W)
            else:
                cands.add(term)
        terms = sorted(cands)
        est = cms_estimate(counts, _term_hash(terms)) if terms else np.array([], dtype=np.int64)
        order = sorted(range(len(terms)), key=lambda i: (-int(est[i]), terms[i]))[:k]
        return pa.table({
            "term": pa.array([terms[i] for i in order], type=pa.string()),
            "est_cnt": pa.array([int(est[i]) for i in order], type=pa.int64()),
        })

    return gather(ds.map_batches(partial, batch_format="pyarrow"), merge)


# ------------------------------------------- grouped HLL (per-day DAU)

def q_dau_hll(sf_dir: str) -> "ray.data.Dataset":
    """GROUPED HyperLogLog: approximate distinct users PER DAY — the
    grouped variant of the global sketch ``dedup.q_hll_users`` and the
    constant-memory stand-in for exact ``relational.q_daily_active_users``
    (COUNT(DISTINCT) per group shuffles every (day, user) pair; this
    shuffles one 4 KiB register blob per (day, batch) partial, a
    constant per group regardless of user count — at 100 TB that is
    the difference between an all-to-all of the user column and a few
    MB of sketches).

    Per-batch: one register array per day seen, keyed rows of
    ``(day, regs_blob)``. One slim ``keyed_exchange`` on ``day``
    merges each day's blobs with one element-wise max reduce per
    partition and estimates. The
    estimate-vs-exact audit lives in ``tests/test_sketches.py`` (the
    sketch-audit rule).
    Columns: day, est_users.
    """

    from deed_ocr_ray.pipelines.dedup import _hll_registers, hll_estimate

    ds = read_pq(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy().astype("datetime64[D]")
        users = t["user_id"].to_numpy()
        days, blobs = [], []
        for d in np.unique(day):
            regs = _hll_registers(users[day == d].astype(np.uint64))
            days.append(str(d))
            blobs.append(regs.tobytes())
        return pa.table({
            "day": pa.array(days, type=pa.string()),
            "regs": pa.array(blobs, type=pa.binary()),
        })

    def merge(g: pd.DataFrame) -> pa.Table:
        # one register row per partial, max-reduced over each day's rows
        g = g.sort_values("day", kind="mergesort")
        day = g["day"].to_numpy()
        first = np.flatnonzero(np.r_[True, day[1:] != day[:-1]])
        regs = np.frombuffer(b"".join(g["regs"]), dtype=np.uint8).reshape(len(g), -1)
        return pa.table({
            "day": pa.array(day[first].tolist(), type=pa.string()),
            "est_users": pa.array([int(round(hll_estimate(r)))
                                   for r in np.maximum.reduceat(regs, first)],
                                  type=pa.int64()),
        })

    return keyed_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                          "day", merge)
