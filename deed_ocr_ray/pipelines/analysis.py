"""Corpus-analysis operators: duplicate-n-gram span coverage (Lee et
al. / Dolma-style), per-document TF-IDF top-k, lag-window event gaps,
multi-grain ROLLUP revenue, and one-pass distributed correlation.

Round-3 widening #2 of the training-data operator family. Design
rules:

- shuffles are COARSE: ``exchange.keyed_exchange`` (or, where one
  stream mixes doc-id and n-gram keys, ``exchange.part_ids`` per piece
  and ``exchange.part_exchange``) with vectorized resolution inside
  each partition — never one UDF call per key;
- float outputs are produced by the SAME single IEEE op tree on both
  the Ray side and the DuckDB oracle (``ln``/``sqrt``/``*``/``/`` are
  bit-identical between glibc libm and DuckDB on this platform —
  verified empirically), so every operator here is value-hash checked;
- integer components stay integers end-to-end.

Reference analogues: the near-dup suppression and annotate/score steps
of deed_ocr/extractors/llm.py:167-193 and deed_ocr/workflow.py's
per-document pass, generalized to corpus-wide signals.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ..sources.pages import read_pq
from .exchange import (PARTS, gather, keyed_aggregate, keyed_exchange,
                       keyed_join, ordered_offsets, part_exchange, part_ids)


# ------------------------------------- duplicate n-gram span coverage

def q_dup_ngram_coverage(sf_dir: str, n: int = 5, min_count: int = 2) -> "ray.data.Dataset":
    """Corpus-wide duplicate n-gram coverage per document — the exact
    span-level dedup signal of Lee et al. ("Deduplicating Training Data
    Makes Language Models Better") / Dolma's dedupe pass: an n-gram is
    *duplicate* if it occurs >= ``min_count`` times anywhere in the
    corpus; a document's coverage is the fraction of its token
    positions inside at least one duplicate n-gram.

    Two coarse shuffles, no join, nothing on the driver:

    1. explode each doc to slim ``(doc_id, j, ngram)`` start rows and
       shuffle on ``hash(ngram) % P`` — every occurrence of an n-gram
       co-locates, so the in-partition vectorized count IS the global
       count; starts of non-duplicate n-grams are dropped right there
       (at corpus scale this discards the overwhelming majority of
       rows before the second exchange);
    2. shuffle survivors on ``doc_id % P`` and compute the interval
       union |∪ [j, j+n)| per doc with a sorted-diff scan (no
       per-position expansion).

    A per-doc sentinel row (``j = -1``) carries ``(doc_id, n_tokens)``
    through both shuffles so docs with zero duplicate spans still emit
    a row. Tokenization is single-space split of the trimmed text,
    bit-identical to DuckDB ``string_split(trim(text), ' ')``.

    Columns: doc_id, n_tokens, n_dup_tokens, dup_frac.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        toks = tk.split_space(t["text"])
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        parent, j, ng = tk.ngram_windows_from_tokens(toks, n)
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # sentinels first (one per doc, j=-1 carrying n_tokens), then
        # all window rows; downstream groups/sorts, order is free.
        # real rows shuffle by n-gram; sentinels by doc id (spreads the
        # one-row-per-doc stream instead of hot-spotting partition of "")
        win_dids = dids[parent]
        return pa.table({
            "doc_id": pa.array(np.concatenate([dids, win_dids]), type=pa.int64()),
            "j": pa.array(np.concatenate([np.full(len(dids), -1, dtype=np.int64), j]),
                          type=pa.int64()),
            "ng": pa.concat_arrays([pa.nulls(len(dids), pa.string()).fill_null(""),
                                    ng.cast(pa.string())]),
            "n_tokens": pa.array(
                np.concatenate([lens.astype(np.int64),
                                np.zeros(len(j), dtype=np.int64)]),
                type=pa.int64()),
            "part": pa.array(
                np.concatenate([part_ids(pa.array(dids), PARTS),
                                part_ids(ng, PARTS)]),
                type=pa.int32()),
        })

    def count_filter(g: pd.DataFrame) -> pa.Table:
        real = g["j"].to_numpy() >= 0
        ng = g["ng"]
        # global count per n-gram == in-partition count (co-located)
        cnt = ng[real].map(ng[real].value_counts())
        keep = real.copy()
        keep[real] = (cnt >= min_count).to_numpy()
        out = g[keep | ~real]
        return pa.table({
            "doc_id": pa.array(out["doc_id"].to_numpy(), type=pa.int64()),
            "j": pa.array(out["j"].to_numpy(), type=pa.int64()),
            "n_tokens": pa.array(out["n_tokens"].to_numpy(), type=pa.int64()),
        })

    def coverage(g: pd.DataFrame) -> pa.Table:
        sent = g[g["j"] < 0]
        real = g[g["j"] >= 0].sort_values(["doc_id", "j"])
        d = real["doc_id"].to_numpy()
        j = real["j"].to_numpy()
        covered = {}
        if len(d):
            first = np.empty(len(d), dtype=bool)
            first[0] = True
            first[1:] = d[1:] != d[:-1]
            contrib = np.empty(len(d), dtype=np.int64)
            contrib[1:] = np.minimum(j[1:] - j[:-1], n)
            contrib[first] = n  # first start in each doc covers n tokens
            sums = np.add.reduceat(contrib, np.flatnonzero(first))
            covered = dict(zip(d[first].tolist(), sums.tolist()))
        doc = sent["doc_id"].to_numpy()
        n_tok = sent["n_tokens"].to_numpy()
        n_dup = np.array([covered.get(i, 0) for i in doc.tolist()], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(doc, type=pa.int64()),
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "n_dup_tokens": pa.array(n_dup, type=pa.int64()),
            # single IEEE division — identical to the oracle's `x*1.0/y`
            "dup_frac": pa.array(n_dup.astype(np.float64) / n_tok.astype(np.float64),
                                 type=pa.float64()),
        })

    deduped = part_exchange(ds.map_batches(explode, batch_format="pyarrow"),
                            count_filter)
    return keyed_exchange(deduped, "doc_id", coverage)


def dup_ngram_coverage_sql(n: int = 5, min_count: int = 2) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, string_split(trim(text), ' ') AS arr FROM documents
),
starts AS (
  SELECT doc_id, u.j, array_to_string(list_slice(arr, u.j + 1, u.j + {int(n)}), ' ') AS ng
  FROM toks, LATERAL (SELECT unnest(range(len(arr) - {int(n)} + 1)) AS j) u
),
cnt AS (SELECT ng, COUNT(*) AS c FROM starts GROUP BY ng),
dup AS (SELECT s.doc_id, s.j FROM starts s JOIN cnt USING (ng) WHERE c >= {int(min_count)}),
cov AS (
  SELECT doc_id, COUNT(DISTINCT j + o.o) AS nc
  FROM dup, LATERAL (SELECT unnest(range({int(n)})) AS o) o GROUP BY doc_id
)
SELECT t.doc_id,
       CAST(len(t.arr) AS BIGINT) AS n_tokens,
       CAST(COALESCE(cov.nc, 0) AS BIGINT) AS n_dup_tokens,
       COALESCE(cov.nc, 0) * 1.0 / len(t.arr) AS dup_frac
FROM toks t LEFT JOIN cov USING (doc_id)
"""


Q_DUP_NGRAM_COVERAGE_SQL = dup_ngram_coverage_sql()


# ------------------------------------------------ per-doc TF-IDF top-k

def q_tfidf_topk(sf_dir: str, k: int = 5) -> "ray.data.Dataset":
    """Top-k terms per document by TF-IDF (``tf * ln(n_docs/df)``) —
    the per-document keyword extractor companion to ``q_term_stats``'s
    corpus-level integer components.

    Shape: per-batch per-doc term counts (combiner) → shuffle on
    ``hash(term) % P`` (df = in-partition row count per term, attached
    vectorized — no join) → shuffle on ``doc_id % P`` → in-partition
    top-k rank. The float score is ONE ``ln`` + ONE multiply, the same
    op tree as the oracle's ``tf * ln(CAST(n AS DOUBLE)/df)``, so the
    result is value-hash exact. Ties rank by term ascending.

    Columns: doc_id, term, tf, df, score, rk.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    n_docs = ds.count()

    def pairs(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        flat, parent = tk.explode_ws(t["text"])
        dids = pc.take(t["doc_id"].combine_chunks(), parent)
        g = (pa.table({"doc_id": dids.cast(pa.int64()), "term": flat.cast(pa.string())})
             .group_by(["doc_id", "term"], use_threads=False)
             .aggregate([([], "count_all")]))
        return pa.table({
            "doc_id": g["doc_id"],
            "term": g["term"],
            "tf": g["count_all"].cast(pa.int64()),
        })

    def attach_df(g: pd.DataFrame) -> pa.Table:
        # one (doc, term) row per doc ⇒ rows-per-term == document freq;
        # the rows leave tagged with their doc_id part, ready for the
        # second exchange (no separate tagging pass over them)
        df = g["term"].map(g["term"].value_counts())
        doc = pa.array(g["doc_id"].to_numpy(), type=pa.int64())
        return pa.table({
            "part": pa.array(part_ids(doc, PARTS), type=pa.int32()),
            "doc_id": doc,
            "term": pa.array(g["term"].tolist(), type=pa.string()),
            "tf": pa.array(g["tf"].to_numpy(), type=pa.int64()),
            "df": pa.array(df.to_numpy(), type=pa.int64()),
        })

    def topk(g: pd.DataFrame) -> pa.Table:
        # ln per DISTINCT df (few values), then one vector multiply —
        # bit-identical to the oracle's scalar op tree
        ln = {int(v): math.log(n_docs / int(v)) for v in g["df"].unique()}
        score = g["tf"].to_numpy().astype(np.float64) * np.array(
            [ln[int(v)] for v in g["df"].to_numpy()])
        t = g.assign(score=score).sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True])
        rk = t.groupby("doc_id", sort=False).cumcount() + 1
        t = t.assign(rk=rk)[rk <= k]
        return pa.table({
            "doc_id": pa.array(t["doc_id"].to_numpy(), type=pa.int64()),
            "term": pa.array(t["term"].tolist(), type=pa.string()),
            "tf": pa.array(t["tf"].to_numpy(), type=pa.int64()),
            "df": pa.array(t["df"].to_numpy(), type=pa.int64()),
            "score": pa.array(t["score"].to_numpy(), type=pa.float64()),
            "rk": pa.array(t["rk"].to_numpy(), type=pa.int64()),
        })

    with_df = keyed_exchange(ds.map_batches(pairs, batch_format="pyarrow"),
                             "term", attach_df)
    return part_exchange(with_df, topk)


def tfidf_topk_sql(k: int = 5) -> str:
    return rf"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(trim(text), '\s+')) AS term
  FROM documents WHERE trim(text) <> ''
),
f AS (SELECT doc_id, term, COUNT(*) AS tf FROM toks GROUP BY 1, 2),
d AS (SELECT term, COUNT(*) AS df FROM f GROUP BY 1),
s AS (
  SELECT f.doc_id, f.term, f.tf, d.df,
         f.tf * ln(CAST((SELECT COUNT(*) FROM documents) AS DOUBLE) / d.df) AS score
  FROM f JOIN d USING (term)
),
r AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, term ASC) AS rk
  FROM s
)
SELECT doc_id, term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
       score, CAST(rk AS BIGINT) AS rk
FROM r WHERE rk <= {int(k)}
"""


Q_TFIDF_TOPK_SQL = tfidf_topk_sql()


# ------------------------------------------------- lag-window event gaps

def q_event_gaps(sf_dir: str) -> "ray.data.Dataset":
    """Per-user inter-event gap (LAG window function family): for every
    event with a predecessor by the same user, the exact microseconds
    since that predecessor. Coarse shuffle on ``user_id % P``, one
    in-partition vectorized sort + diff (ordering ties broken by
    event_id, matching the oracle's ``ORDER BY ts, event_id``). First
    events per user are excluded on both sides (no NULL-vs-NaN hash
    ambiguity). Columns: event_id, user_id, gap_us.
    """

    ds = read_pq(f"{sf_dir}/events.parquet",
                               columns=["event_id", "user_id", "ts"])

    def gaps(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy()
        e = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        same = np.empty(len(g), dtype=bool)
        if len(g):
            same[0] = False
            same[1:] = u[1:] == u[:-1]
        gap = np.empty(len(g), dtype=np.int64)
        if len(g):
            gap[1:] = e[1:] - e[:-1]
        out_ids = g["event_id"].to_numpy()[same]
        return pa.table({
            "event_id": pa.array(out_ids, type=pa.int64()),
            "user_id": pa.array(u[same], type=pa.int64()),
            "gap_us": pa.array(gap[same], type=pa.int64()),
        })

    return keyed_exchange(ds, "user_id", gaps)


Q_EVENT_GAPS_SQL = """
SELECT event_id, user_id, CAST(e - prev_e AS BIGINT) AS gap_us FROM (
  SELECT event_id, user_id, epoch_us(ts) AS e,
         LAG(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_e
  FROM events
) WHERE prev_e IS NOT NULL
"""


# ---------------------------------------------- multi-grain ROLLUP

def _fine_region_nation_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Shared finest-grain aggregate for the multi-grain revenue ops:
    the ``q_nation_revenue`` shape — per-custkey order totals joined
    against the sf-SCALED customer table via the size-dispatched
    ``attach_dim`` (broadcast under the cutoff, co-partitioned
    ``keyed_join`` above it), with the fixed 25/5-row nation/region
    dims folded into the dim transform. One row per (region, nation)
    composite key ``rn`` with integer cents + count.
    """

    import pyarrow.parquet as pq

    from .relational import DimSpec, _orders_slim, attach_dim

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])
    rname = dict(zip(region.column("r_regionkey").to_pylist(),
                     region.column("r_name").to_pylist()))
    # composite "region\x1fnation" value so downstream grain expansion
    # splits one string key
    nk_to_rn = {
        nk: "\x1f".join((rname.get(rk, "UNKNOWN"), nm))
        for nk, nm, rk in zip(nation.column("n_nationkey").to_pylist(),
                              nation.column("n_name").to_pylist(),
                              nation.column("n_regionkey").to_pylist())
    }

    def cust_rn(t: pa.Table) -> pa.Table:
        rn = [nk_to_rn.get(nk, "UNKNOWN\x1fUNKNOWN")
              for nk in t["c_nationkey"].to_pylist()]
        return pa.table({"c_custkey": t["c_custkey"],
                         "rn": pa.array(rn, type=pa.string())})

    joined = attach_dim(
        _orders_slim(sf_dir), "o_custkey",
        DimSpec(f"{sf_dir}/customer.parquet",
                ["c_custkey", "c_nationkey"], "c_custkey", cust_rn))

    return keyed_aggregate(joined, "rn", {"cents": ("price_c", "sum"),
                                          "n_orders": ("price_c", "count")})


def _grain_expand(fine: "ray.data.Dataset", grains) -> "ray.data.Dataset":
    """Fan each finest-grain row out to its coarser grain keys and fold
    — the dimension-bounded (tiny) ``exchange.gather`` tail shared by ROLLUP
    and CUBE. ``grains(region, nation)`` yields the output keys each
    fine row contributes to."""

    import pyarrow.compute as pc

    def expand(t: pa.Table) -> pa.Table:
        # defensive pad in case a composite key ever misses a separator
        pairs = [(s.split("\x1f") + ["UNKNOWN"])[:2] for s in t["rn"].to_pylist()]
        cents = t["cents"].to_pylist()
        cnt = t["n_orders"].to_pylist()
        rows: dict = {}
        for (r, nm), c, k in zip(pairs, cents, cnt):
            for key in grains(r, nm):
                acc = rows.setdefault(key, [0, 0])
                acc[0] += c
                acc[1] += k
        keys = sorted(rows)
        return pa.table({
            "region": pa.array([k[0] for k in keys], type=pa.string()),
            "nation": pa.array([k[1] for k in keys], type=pa.string()),
            "n_orders": pa.array([rows[k][1] for k in keys], type=pa.int64()),
            "revenue": pc.divide(
                pa.array([float(rows[k][0]) for k in keys], type=pa.float64()), 100.0),
        })

    return gather(fine, expand)


def q_revenue_rollup(sf_dir: str) -> "ray.data.Dataset":
    """Order revenue at three grains in one result — (region, nation),
    (region, ALL), (ALL, ALL) — the GROUP BY ROLLUP analogue. The wide
    work happens ONCE at the finest grain; the coarser grains are
    derived from the finest aggregate (dimension-bounded, tiny) in one
    ``exchange.gather``, never re-scanning the fact table. Columns:
    region, nation, n_orders, revenue.
    """
    return _grain_expand(
        _fine_region_nation_revenue(sf_dir),
        lambda r, nm: ((r, nm), (r, "ALL"), ("ALL", "ALL")),
    )


Q_REVENUE_ROLLUP_SQL = """
SELECT COALESCE(r.r_name, 'ALL') AS region,
       COALESCE(n.n_name, 'ALL') AS nation,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(floor(o.o_totalprice*100 + 0.5) AS BIGINT)) AS DOUBLE)/100 AS revenue
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY ROLLUP(r.r_name, n.n_name)
"""


# --------------------------------------- one-pass distributed correlation

def q_corr_qty_discount(sf_dir: str) -> "ray.data.Dataset":
    """Pearson correlation of quantity vs discount over lineitem via
    one-pass MERGEABLE integer moments (n, Σx, Σy, Σx², Σy², Σxy) —
    the textbook distributed-statistics fold: per-batch partial sums,
    one 6-integer reduce (``exchange.gather``), and the final float is
    computed with the SAME IEEE op tree as the oracle (bit-identical,
    verified).
    Discount is centi-scaled to an exact integer. Overflow headroom:
    Σx² ≤ 2500·n fits int64 beyond 10^15 rows.
    Columns: n, sx, sy, sxx, syy, sxy, corr_xy.
    """

    ds = read_pq(f"{sf_dir}/lineitem.parquet",
                               columns=["l_quantity", "l_discount"])

    names = ["n", "sx", "sy", "sxx", "syy", "sxy"]

    def moments(t: pa.Table) -> pa.Table:
        x = t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.floor(t["l_discount"].to_numpy(zero_copy_only=False) * 100 + 0.5).astype(np.int64)
        sums = [len(x), x.sum(), y.sum(), (x * x).sum(), (y * y).sum(), (x * y).sum()]
        return pa.table({c: pa.array([int(v)], type=pa.int64())
                         for c, v in zip(names, sums)})

    def finish(t: pa.Table) -> pa.Table:
        sums = [sum(t[c].to_pylist()) for c in names]
        n, sx, sy, sxx, syy, sxy = sums
        # same op tree as the oracle: CAST-to-double then *, -, sqrt, /
        num = float(n) * float(sxy) - float(sx) * float(sy)
        den = math.sqrt(float(n) * float(sxx) - float(sx) * float(sx)) * \
            math.sqrt(float(n) * float(syy) - float(sy) * float(sy))
        return pa.table({c: pa.array([v], type=pa.int64())
                         for c, v in zip(names, sums)}).append_column(
            "corr_xy", pa.array([num / den], type=pa.float64()))

    return gather(ds.map_batches(moments, batch_format="pyarrow"), finish)


# ----------------------------------------------------- 7-day retention

RETENTION_DAYS = 7


def q_retention(sf_dir: str, horizon: int = RETENTION_DAYS) -> "ray.data.Dataset":
    """Per-day user retention: of the users active on day D, how many
    are also active on day D+``horizon`` — the classic event-analytics
    SELF-JOIN, executed without one: distinct (user, day) rows
    co-partition on ``user % P``, so each partition holds every day of
    its users and answers the day+h membership with one vectorized
    merge against its own rows shifted by ``-horizon``; only slim
    per-day partial counts reach the final keyed aggregate. Per-batch
    (user, day) dedup shrinks the first shuffle to unique pairs.
    Columns: day, n_active, n_retained.
    """

    ds = read_pq(f"{sf_dir}/events.parquet",
                               columns=["ts", "user_id"])

    def pairs(t: pa.Table) -> pa.Table:
        day = t["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        df = pd.DataFrame({"user_id": t["user_id"].to_numpy(), "d": day})
        df = df.drop_duplicates()
        return pa.table({
            "user_id": pa.array(df["user_id"].to_numpy(), type=pa.int64()),
            "d": pa.array(df["d"].to_numpy(), type=pa.int64()),
        })

    def per_user(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["user_id", "d"])  # cross-batch dedup
        # membership of (user, d+h) == this partition's rows shifted back
        fut = g.assign(d=g["d"] - horizon)[["user_id", "d"]].assign(hit=1)
        m = g[["user_id", "d"]].merge(fut, on=["user_id", "d"], how="left")
        agg = m.groupby("d").agg(n_active=("user_id", "size"),
                                 n_retained=("hit", "sum"))
        return pa.table({
            "d": pa.array(agg.index.to_numpy(), type=pa.int64()),
            "n_active": pa.array(agg["n_active"].to_numpy(), type=pa.int64()),
            "n_retained": pa.array(agg["n_retained"].to_numpy().astype(np.int64),
                                   type=pa.int64()),
        })

    agg = keyed_aggregate(
        keyed_exchange(ds.map_batches(pairs, batch_format="pyarrow"),
                       "user_id", per_user),
        "d", {"n_active": ("n_active", "sum"), "n_retained": ("n_retained", "sum")})

    def stringify(t: pa.Table) -> pa.Table:
        days = t["d"].to_numpy().astype("datetime64[D]").astype(str)
        return pa.table({
            "day": pa.array(days, type=pa.string()),
            "n_active": t["n_active"],
            "n_retained": t["n_retained"],
        })

    return agg.map_batches(stringify, batch_format="pyarrow")


def retention_sql(horizon: int = RETENTION_DAYS) -> str:
    return f"""
WITH ad AS (SELECT DISTINCT CAST(ts AS DATE) AS d, user_id FROM events)
SELECT strftime(a.d, '%Y-%m-%d') AS day,
       CAST(COUNT(*) AS BIGINT) AS n_active,
       CAST(COUNT(b.user_id) AS BIGINT) AS n_retained
FROM ad a LEFT JOIN ad b ON a.user_id = b.user_id AND b.d = a.d + {int(horizon)}
GROUP BY 1
"""


Q_RETENTION_SQL = retention_sql()


# ------------------------------------- interpolated percentiles (cont)

def _percentiles_cont(qty: np.ndarray, cnt: np.ndarray, qs) -> tuple:
    """``(n, [percentile_cont(q) for q in qs])`` over the multiset that
    holds each distinct value of ``qty`` ``cnt`` times: DuckDB's rank
    ``q*(n-1)`` over the sorted multiset, with linear interpolation
    between the two order statistics around it."""
    order = np.argsort(qty)
    vals = qty[order].astype(np.float64)
    cum = np.cumsum(cnt[order])
    n = int(cum[-1])
    out = []
    for q in qs:
        rank = q * (n - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, n - 1)
        x_lo = float(vals[np.searchsorted(cum, lo + 1)])
        x_hi = float(vals[np.searchsorted(cum, hi + 1)])
        out.append(x_lo + (x_hi - x_lo) * (rank - lo))
    return n, out


def q_quantity_percentiles(sf_dir: str) -> "ray.data.Dataset":
    """Interpolated (percentile_cont-semantics) p25/p50/p75/p90 of
    lineitem quantity — completes the quantile family (exact discrete:
    ``windows.q_price_quantiles``; mergeable approx:
    ``windows.q_price_quantile_sketch``) with an EXACT continuous
    variant that still scales: quantity's value domain is bounded, so
    the pipeline counts each value with one keyed aggregate (at most
    |domain| slim rows), and one ``exchange.gather`` interpolates
    from the cumulative counts. Nothing sorts raw rows anywhere. The
    interpolation (``lo + (hi-lo)*(rank-floor(rank))`` at rank
    ``q*(n-1)``) uses the same IEEE op tree as DuckDB's
    ``percentile_cont``, so the result is value-hash exact.
    Columns: n, p25, p50, p75, p90.
    """

    ds = read_pq(f"{sf_dir}/lineitem.parquet",
                               columns=["l_quantity"])

    def qty(t: pa.Table) -> pa.Table:
        return pa.table({"qty": pa.array(
            t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64))})

    agg = keyed_aggregate(ds.map_batches(qty, batch_format="pyarrow"),
                          "qty", {"cnt": (None, "count_all")})

    def interpolate(t: pa.Table) -> pa.Table:
        n, ps = _percentiles_cont(t["qty"].to_numpy(), t["cnt"].to_numpy(),
                                  (0.25, 0.5, 0.75, 0.9))
        return pa.table({"n": pa.array([n], type=pa.int64()),
                         **{c: pa.array([v], type=pa.float64())
                            for c, v in zip(["p25", "p50", "p75", "p90"], ps)}})

    return gather(agg, interpolate)


Q_QUANTITY_PERCENTILES_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n,
       percentile_cont(0.25) WITHIN GROUP (ORDER BY CAST(l_quantity AS BIGINT)) AS p25,
       percentile_cont(0.5)  WITHIN GROUP (ORDER BY CAST(l_quantity AS BIGINT)) AS p50,
       percentile_cont(0.75) WITHIN GROUP (ORDER BY CAST(l_quantity AS BIGINT)) AS p75,
       percentile_cont(0.9)  WITHIN GROUP (ORDER BY CAST(l_quantity AS BIGINT)) AS p90
FROM lineitem
"""


Q_CORR_QTY_DISCOUNT_SQL = """
WITH m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x*x) AS BIGINT) AS sxx, CAST(SUM(y*y) AS BIGINT) AS syy,
         CAST(SUM(x*y) AS BIGINT) AS sxy
  FROM (SELECT CAST(l_quantity AS BIGINT) AS x,
               CAST(floor(l_discount*100 + 0.5) AS BIGINT) AS y
        FROM lineitem)
)
SELECT n, sx, sy, sxx, syy, sxy,
       (CAST(n AS DOUBLE)*sxy - CAST(sx AS DOUBLE)*sy) /
       (sqrt(CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx) *
        sqrt(CAST(n AS DOUBLE)*syy - CAST(sy AS DOUBLE)*sy)) AS corr_xy
FROM m
"""


# ------------------------------------ grouped interpolated percentiles

def q_grouped_percentiles(sf_dir: str) -> "ray.data.Dataset":
    """percentile_cont PER GROUP (l_returnflag): the grouped variant of
    [[q_quantity_percentiles]] — same value counts over the bounded
    quantity domain, keyed by (flag, qty), then a per-flag
    interpolation. The counts table is at most |flags| × |domain| slim
    rows, so the interpolation is one ``exchange.gather``.
    Columns: l_returnflag, n, p50, p90.
    """

    ds = read_pq(f"{sf_dir}/lineitem.parquet",
                               columns=["l_returnflag", "l_quantity"])

    def qty(t: pa.Table) -> pa.Table:
        return pa.table({"l_returnflag": t["l_returnflag"], "qty": pa.array(
            t["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64))})

    agg = keyed_aggregate(ds.map_batches(qty, batch_format="pyarrow"),
                          ["l_returnflag", "qty"], {"cnt": (None, "count_all")})

    def per_flag(t: pa.Table) -> pa.Table:
        flags, rows = [], []
        for flag, g in t.to_pandas().groupby("l_returnflag", sort=False):
            n, ps = _percentiles_cont(g["qty"].to_numpy(), g["cnt"].to_numpy(),
                                      (0.5, 0.9))
            flags.append(flag)
            rows.append((n, *ps))
        n, p50, p90 = zip(*rows)
        return pa.table({
            "l_returnflag": pa.array(flags, type=pa.string()),
            "n": pa.array(n, type=pa.int64()),
            "p50": pa.array(p50, type=pa.float64()),
            "p90": pa.array(p90, type=pa.float64()),
        })

    return gather(agg, per_flag)


Q_GROUPED_PERCENTILES_SQL = """
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n,
       percentile_cont(0.5) WITHIN GROUP (ORDER BY CAST(l_quantity AS BIGINT)) AS p50,
       percentile_cont(0.9) WITHIN GROUP (ORDER BY CAST(l_quantity AS BIGINT)) AS p90
FROM lineitem GROUP BY 1
"""


# ----------------------------------------------------- NTILE deciles

NTILE_K = 10


def q_price_deciles(sf_dir: str, k: int = NTILE_K) -> "ray.data.Dataset":
    """NTILE(k) decile summary of order totals — equal-count buckets
    over a GLOBAL order, the missing window shape after rank/lag/
    running-sum. Global row numbers come from
    :func:`exchange.ordered_offsets` over the slim (cents, o_orderkey)
    table (one sort, per-block row counts folded on the driver) and
    fold with one keyed aggregate on the decile — the full ranked table
    never re-shuffles; its combiner sends only k × blocks partial rows
    across the exchange.

    NTILE semantics match SQL exactly: with n rows, the first n % k
    buckets get ceil(n/k) rows. Money stays in integer cents
    (DuckDB-identical half-away-from-zero rounding), so sums are
    bit-exact. Columns: decile, n, min_cents, max_cents, sum_cents.
    """

    ds = read_pq(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table({"cents": cents, "o_orderkey": t["o_orderkey"]})

    ranked = ordered_offsets(ds.map_batches(to_cents, batch_format="pyarrow"),
                             ["cents", "o_orderkey"], "rn")
    total = ranked.count()

    def deciles(t: pa.Table) -> pa.Table:
        rn = t["rn"].to_numpy() + 1  # 1-based
        q, r = divmod(total, k)
        # SQL NTILE: first r buckets hold q+1 rows each
        cut = r * (q + 1)
        dec = np.where(
            rn <= cut,
            (rn - 1) // (q + 1) + 1 if q + 1 > 0 else 1,
            (r + (rn - cut - 1) // q + 1) if q > 0 else k,
        ).astype(np.int64)
        return pa.table({"decile": pa.array(dec, type=pa.int64()),
                         "cents": t["cents"]})

    return keyed_aggregate(
        ranked.map_batches(deciles, batch_size=None, batch_format="pyarrow"),
        "decile", {"n": (None, "count_all"), "min_cents": ("cents", "min"),
                   "max_cents": ("cents", "max"), "sum_cents": ("cents", "sum")})


def price_deciles_sql(k: int = NTILE_K) -> str:
    return f"""
WITH r AS (
  SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents, o_orderkey
  FROM orders
),
t AS (
  SELECT cents, NTILE({int(k)}) OVER (ORDER BY cents, o_orderkey) AS decile FROM r
)
SELECT CAST(decile AS BIGINT) AS decile,
       CAST(COUNT(*) AS BIGINT) AS n,
       MIN(cents) AS min_cents,
       MAX(cents) AS max_cents,
       CAST(SUM(cents) AS BIGINT) AS sum_cents
FROM t GROUP BY 1
"""


Q_PRICE_DECILES_SQL = price_deciles_sql()


# -------------------------------------------------- lang × source pivot

PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def q_lang_pivot(sf_dir: str) -> "ray.data.Dataset":
    """PIVOT/crosstab: per-source doc counts spread across one column
    per language — the wide-format corpus composition report. Each row
    becomes one 0/1 indicator per language, and one keyed aggregate
    sums them per source. Unseen languages emit 0 columns so the
    schema is stable at every scale.
    Columns: source, de, en, es, fr, zh, total.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["source", "lang"])

    def indicators(t: pa.Table) -> pa.Table:
        cols = {"source": t["source"]}
        for lang in PIVOT_LANGS:
            cols[lang] = pc.equal(t["lang"], lang).fill_null(False).cast(pa.int64())
        return pa.table(cols)

    return keyed_aggregate(
        ds.map_batches(indicators, batch_format="pyarrow"), "source",
        {**{lang: (lang, "sum") for lang in PIVOT_LANGS},
         "total": (None, "count_all")})


Q_LANG_PIVOT_SQL = """
SELECT source,
       CAST(COUNT(*) FILTER (lang = 'de') AS BIGINT) AS de,
       CAST(COUNT(*) FILTER (lang = 'en') AS BIGINT) AS en,
       CAST(COUNT(*) FILTER (lang = 'es') AS BIGINT) AS es,
       CAST(COUNT(*) FILTER (lang = 'fr') AS BIGINT) AS fr,
       CAST(COUNT(*) FILTER (lang = 'zh') AS BIGINT) AS zh,
       CAST(COUNT(*) AS BIGINT) AS total
FROM documents GROUP BY 1
"""


# ---------------------------------------------------------- CUBE grains

def q_revenue_cube(sf_dir: str) -> "ray.data.Dataset":
    """GROUP BY CUBE(region, nation): all four grains — (region,
    nation), (region, ALL), (ALL, nation), (ALL, ALL) — from ONE scan
    of the fact table, sharing [[q_revenue_rollup]]'s finest-grain
    aggregate and tiny gathered grain expansion. The extra grain
    vs ROLLUP, (ALL, nation), costs nothing at scale: it is derived
    from the dimension-bounded fine aggregate, not the fact table.
    Columns: region, nation, n_orders, revenue.
    """
    return _grain_expand(
        _fine_region_nation_revenue(sf_dir),
        lambda r, nm: ((r, nm), (r, "ALL"), ("ALL", nm), ("ALL", "ALL")),
    )


Q_REVENUE_CUBE_SQL = """
SELECT COALESCE(r.r_name, 'ALL') AS region,
       COALESCE(n.n_name, 'ALL') AS nation,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(floor(o.o_totalprice*100 + 0.5) AS BIGINT)) AS DOUBLE)/100 AS revenue
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY CUBE(r.r_name, n.n_name)
"""


# -------------------------------------------------------- token rarity

RARE_MAX = 2  # a token is "rare" if its corpus-wide count is <= this


def q_token_rarity(sf_dir: str, rare_max: int = RARE_MAX) -> "ray.data.Dataset":
    """Per-document token rarity against CORPUS-GLOBAL unigram counts —
    the CCNet-style "how ordinary is this document's vocabulary"
    signal, kept integer-exact so the oracle hash matches bit-for-bit:
    per doc, the total popularity mass (sum over token OCCURRENCES of
    each token's global count) and the number of rare occurrences
    (global count <= ``rare_max``).

    The global count table is corpus-scale (NOT broadcastable —
    contrast [[q_decontaminate]]'s small fixed benchmark side), so the
    op uses the [[q_dup_ngram_coverage]] two-coarse-shuffle shape with
    per-doc partials as the combiner:

    1. explode to slim (doc_id, tok) rows, shuffle on
       ``hash(tok) % P`` — all occurrences of a token co-locate, so
       the in-partition count IS the global count; fold each
       partition's occurrences to per-doc partial sums right there
       (docs × partitions rows leave, not occurrences);
    2. one keyed aggregate on doc_id sums the partials.

    Tokenization is single-space split of the trimmed text,
    bit-identical to DuckDB ``string_split(trim(text), ' ')`` (empty
    text yields one empty-string token on both sides).
    Columns: doc_id, n_tokens, rarity_mass, n_rare.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        flat, parent, _ = tk.explode_space(t["text"])
        dids = pc.take(t["doc_id"].combine_chunks(), parent)
        return pa.table({
            "doc_id": dids.cast(pa.int64()),
            "tok": flat.cast(pa.string()),
        })

    def fold(g: pd.DataFrame) -> pa.Table:
        cnt = g["tok"].map(g["tok"].value_counts())  # global: co-located
        df = pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "mass": cnt.to_numpy().astype(np.int64),
            "rare": (cnt.to_numpy() <= rare_max).astype(np.int64),
        })
        p = df.groupby("doc_id", sort=False).agg(
            n_tokens=("mass", "size"), rarity_mass=("mass", "sum"),
            n_rare=("rare", "sum"))
        return pa.table({
            "doc_id": pa.array(p.index.to_numpy(), type=pa.int64()),
            "n_tokens": pa.array(p["n_tokens"].to_numpy().astype(np.int64),
                                 type=pa.int64()),
            "rarity_mass": pa.array(p["rarity_mass"].to_numpy(), type=pa.int64()),
            "n_rare": pa.array(p["n_rare"].to_numpy(), type=pa.int64()),
        })

    return keyed_aggregate(
        keyed_exchange(ds.map_batches(explode, batch_format="pyarrow"),
                       "tok", fold),
        "doc_id", {c: (c, "sum") for c in ("n_tokens", "rarity_mass", "n_rare")})


def token_rarity_sql(rare_max: int = RARE_MAX) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(trim(text), ' ')) AS tok FROM documents
),
cnt AS (SELECT tok, COUNT(*) AS c FROM toks GROUP BY tok)
SELECT t.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(c) AS BIGINT) AS rarity_mass,
       CAST(SUM(CASE WHEN c <= {int(rare_max)} THEN 1 ELSE 0 END) AS BIGINT) AS n_rare
FROM toks t JOIN cnt USING (tok)
GROUP BY 1
"""


Q_TOKEN_RARITY_SQL = token_rarity_sql()


# --------------------------------------- duplicate n-gram span REMOVAL

def q_remove_dup_ngrams(sf_dir: str, n: int = 5, min_count: int = 2) -> "ray.data.Dataset":
    """Remove corpus-duplicated n-gram spans from every document — the
    REWRITE that completes ``q_dup_ngram_coverage``'s measurement (Lee
    et al. exact-substring dedup at n-gram granularity, Dolma's
    span-drop pass): any token position covered by an n-gram occurring
    >= ``min_count`` times anywhere in the corpus is deleted, and the
    surviving tokens are re-joined with single spaces.

    Scale shape: the duplicate START rows travel slim — the document
    payload never enters the two counting shuffles:

    1. explode to (doc_id, j, ngram) starts + per-doc sentinel, shuffle
       on ``hash(ngram) % P`` — in-partition count IS the global count;
       non-duplicate starts are dropped there (the overwhelming
       majority at corpus scale);
    2. shuffle survivors on ``doc_id % P`` and fold them to ONE slim
       row per doc: ``(doc_id, starts)`` with starts comma-joined into
       a string (Arrow's hash join can't carry list columns; the
       sentinel guarantees every doc emits a row, possibly empty);
    3. ONE ``keyed_join`` of that slim per-doc table against the
       documents payload on doc_id — the text moves through exactly one
       exchange — then a vectorized-per-batch rebuild masks the covered
       interval union and re-joins the kept tokens.

    Tokenization is single-space split of the trimmed text, identical
    to DuckDB ``string_split(trim(text), ' ')``; output is all
    ints/strings, so the oracle hash is exact.
    Columns: doc_id, n_tokens, n_removed, clean_text.
    """
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        parent, j, ng = tk.ngram_windows(t["text"], n)
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # sentinel (j=-1) per doc rides first; window rows shuffle by
        # n-gram hash, sentinels by doc id
        return pa.table({
            "doc_id": pa.array(np.concatenate([dids, dids[parent]]), type=pa.int64()),
            "j": pa.array(np.concatenate([np.full(len(dids), -1, dtype=np.int64), j]),
                          type=pa.int64()),
            "ng": pa.concat_arrays([pa.nulls(len(dids), pa.string()).fill_null(""),
                                    ng.cast(pa.string())]),
            "part": pa.array(
                np.concatenate([part_ids(pa.array(dids), PARTS),
                                part_ids(ng, PARTS)]),
                type=pa.int32()),
        })

    def count_filter(g: pd.DataFrame) -> pa.Table:
        real = g["j"].to_numpy() >= 0
        ng = g["ng"]
        cnt = ng[real].map(ng[real].value_counts())
        keep = real.copy()
        keep[real] = (cnt >= min_count).to_numpy()
        out = g[keep | ~real]
        return pa.table({
            "doc_id": pa.array(out["doc_id"].to_numpy(), type=pa.int64()),
            "j": pa.array(out["j"].to_numpy(), type=pa.int64()),
        })

    def starts_list(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["doc_id", "j"])
        d = g["doc_id"].to_numpy()
        j = g["j"].to_numpy()
        first = np.empty(len(d), dtype=bool)
        if len(d):
            first[0] = True
            first[1:] = d[1:] != d[:-1]
        bounds = np.flatnonzero(first)
        docs = d[bounds] if len(d) else np.array([], dtype=np.int64)
        # comma-joined string, not list<int64>: Arrow's hash join can't
        # carry list columns through the shuffle aggregators
        lists = [
            ",".join(str(int(x)) for x in chunk if x >= 0)
            for chunk in np.split(j, bounds[1:])
        ] if len(d) else []
        return pa.table({
            "doc_id": pa.array(docs, type=pa.int64()),
            "starts": pa.array(lists, type=pa.string()),
        })

    dup_starts = part_exchange(ds.map_batches(explode, batch_format="pyarrow"),
                               count_filter)
    per_doc = keyed_exchange(dup_starts, "doc_id", starts_list)
    joined = keyed_join(ds, per_doc, "doc_id")

    def rebuild(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        toks = tk.split_space(t["text"])
        flat = tk._plain(pc.list_flatten(toks))
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        offsets = np.cumsum(lens) - lens
        total = int(lens.sum())
        # dup-window starts: "s1,s2,..." per doc -> flat global ranges
        sl = pc.split_pattern(tk._plain(t["starts"]), ",")
        s_flat = tk._plain(pc.list_flatten(sl))
        s_parent = tk._plain(pc.list_parent_indices(sl)) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        nonempty = pc.not_equal(s_flat, "").to_numpy(zero_copy_only=False)
        s_vals = np.asarray(
            pc.cast(s_flat.filter(pa.array(nonempty)), pa.int64())
            .to_numpy(zero_copy_only=False), dtype=np.int64)
        s_doc = s_parent[nonempty]
        # coverage via a difference array: window [g, g+n) per start
        # (windows never cross a doc end — they came from that doc)
        diff = np.zeros(total + 1, dtype=np.int64)
        g = offsets[s_doc] + s_vals
        np.add.at(diff, g, 1)
        np.add.at(diff, g + n, -1)
        covered = np.cumsum(diff[:-1]) > 0
        keep = ~covered
        parent = np.repeat(np.arange(len(lens)), lens)
        n_rm = np.bincount(parent[covered], minlength=len(lens)).astype(np.int64)
        kept_counts = lens - n_rm
        kept_flat = flat.filter(pa.array(keep))
        kept_offsets = np.concatenate(([0], np.cumsum(kept_counts))).astype(np.int32)
        kept_list = pa.ListArray.from_arrays(
            pa.array(kept_offsets, type=pa.int32()),
            kept_flat.cast(pa.string()))
        clean = pc.binary_join(kept_list, " ")
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
            "n_tokens": pa.array(lens, type=pa.int64()),
            "n_removed": pa.array(n_rm, type=pa.int64()),
            "clean_text": clean,
        })

    return joined.map_batches(rebuild, batch_format="pyarrow")


def remove_dup_ngrams_sql(n: int = 5, min_count: int = 2) -> str:
    return f"""
WITH toks AS (SELECT doc_id, string_split(trim(text), ' ') AS arr FROM documents),
starts AS (
  SELECT doc_id, u.j, array_to_string(list_slice(arr, u.j + 1, u.j + {int(n)}), ' ') AS ng
  FROM toks, LATERAL (SELECT unnest(range(len(arr) - {int(n)} + 1)) AS j) u
),
cnt AS (SELECT ng, COUNT(*) AS c FROM starts GROUP BY ng),
dup AS (SELECT s.doc_id, s.j FROM starts s JOIN cnt USING (ng) WHERE c >= {int(min_count)}),
pos AS (SELECT doc_id, u.p FROM toks, LATERAL (SELECT unnest(range(len(arr))) AS p) u),
cov AS (SELECT DISTINCT doc_id, j + o.o AS p
        FROM dup, LATERAL (SELECT unnest(range({int(n)})) AS o) o),
kept AS (SELECT p.doc_id, p.p FROM pos p ANTI JOIN cov c USING (doc_id, p)),
agg AS (SELECT k.doc_id, string_agg(t.arr[k.p + 1], ' ' ORDER BY k.p) AS clean_text,
               COUNT(*) AS n_kept
        FROM kept k JOIN toks t USING (doc_id) GROUP BY k.doc_id)
SELECT t.doc_id, CAST(len(t.arr) AS BIGINT) AS n_tokens,
       CAST(len(t.arr) - COALESCE(agg.n_kept, 0) AS BIGINT) AS n_removed,
       COALESCE(agg.clean_text, '') AS clean_text
FROM toks t LEFT JOIN agg USING (doc_id)
"""


Q_REMOVE_DUP_NGRAMS_SQL = remove_dup_ngrams_sql()


# ------------------------------------------ bigram-LM typicality score

def q_lm_score(sf_dir: str) -> "ray.data.Dataset":
    """Bigram-LM typicality per document — the KenLM-style "how
    ordinary is this text under a corpus language model" quality
    signal (CCNet filters on exactly this), with the LM trained on the
    SAME corpus in the same pass. Per doc: ``n_bigrams`` (token-pair
    occurrences), ``c_sum`` (sum over the doc's bigram occurrences of
    each bigram's corpus-global count — the integer-exact typicality
    mass), and ``lm_score = ln((c_sum + 1) / (n_bigrams + 1))`` — the
    log of the average bigram frequency with add-one smoothing.
    Repetitive/boilerplate text scores high, novel text low.

    Why not true perplexity (sum of per-bigram log-probs): a float SUM
    is accumulation-order-dependent, so it can never be value-hash
    equal to a SQL oracle; the integer mass keeps every cross-engine
    op exact and spends exactly ONE ``ln`` on an int-ratio at the end
    (same IEEE op tree as the oracle, bit-identical — the
    [[q_tfidf_topk]] pattern).

    Scale shape (the corpus-global bigram table is corpus-sized, NOT
    broadcastable): per-batch per-doc bigram counts (combiner) →
    shuffle on ``hash(bigram) % P`` (in-partition count IS the global
    count; fold to per-doc partials there) → one keyed aggregate on
    doc_id sums the partials. A per-doc sentinel row rides the first shuffle
    so zero-bigram docs (< 2 tokens) still emit a row.
    Columns: doc_id, n_bigrams, c_sum, lm_score.
    """

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        from ..functions import tokens as tk

        parent, _, bg = tk.ngram_windows(t["text"], 2)
        dids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = (pa.table({"doc_id": pa.array(dids[parent], type=pa.int64()),
                       "bg": bg.cast(pa.string())})
             .group_by(["doc_id", "bg"], use_threads=False)
             .aggregate([([], "count_all")]))
        # sentinel (tf=0) per doc rides the shuffle on doc_id % P so
        # zero-bigram docs still emit a row
        return pa.table({
            "doc_id": pa.concat_arrays([pa.array(dids, type=pa.int64()),
                                        tk._plain(g["doc_id"])]),
            "bg": pa.concat_arrays([pa.nulls(len(dids), pa.string()).fill_null(""),
                                    tk._plain(g["bg"])]),
            "tf": pa.concat_arrays([pa.nulls(len(dids), pa.int64()).fill_null(0),
                                    tk._plain(g["count_all"].cast(pa.int64()))]),
            "part": pa.array(
                np.concatenate([part_ids(pa.array(dids), PARTS),
                                part_ids(g["bg"], PARTS)]),
                type=pa.int32()),
        })

    def fold(g: pd.DataFrame) -> pa.Table:
        real = g[g["tf"] > 0]
        # global count per bigram == sum of tf over co-located docs
        c = real.groupby("bg", sort=False)["tf"].transform("sum")
        tf = real["tf"].to_numpy()
        df = pd.DataFrame({
            "doc_id": real["doc_id"].to_numpy(),
            "c_part": tf * c.to_numpy(),
            "nb_part": tf,
        })
        p = df.groupby("doc_id", sort=False).sum()
        sent = g[g["tf"] == 0]
        return pa.table({
            "doc_id": pa.array(
                np.concatenate([p.index.to_numpy(), sent["doc_id"].to_numpy()])
                if len(p) or len(sent) else np.array([], dtype=np.int64),
                type=pa.int64()),
            "c_part": pa.array(
                np.concatenate([p["c_part"].to_numpy(),
                                np.zeros(len(sent), dtype=np.int64)])
                if len(p) or len(sent) else np.array([], dtype=np.int64),
                type=pa.int64()),
            "nb_part": pa.array(
                np.concatenate([p["nb_part"].to_numpy(),
                                np.zeros(len(sent), dtype=np.int64)])
                if len(p) or len(sent) else np.array([], dtype=np.int64),
                type=pa.int64()),
        })

    def score(t: pa.Table) -> pa.Table:
        c_sum = t["c_sum"].to_numpy()
        nb = t["n_bigrams"].to_numpy()
        # scalar libm log per row of an exact int ratio — bit-identical
        # to DuckDB ``ln`` (numpy's SIMD log differs in the last ulp)
        s = [math.log(x) for x in ((c_sum + 1.0) / (nb + 1.0)).tolist()]
        return t.append_column("lm_score", pa.array(s, type=pa.float64()))

    return keyed_aggregate(
        part_exchange(ds.map_batches(explode, batch_format="pyarrow"), fold),
        "doc_id", {"n_bigrams": ("nb_part", "sum"), "c_sum": ("c_part", "sum")},
    ).map_batches(score, batch_format="pyarrow")


Q_LM_SCORE_SQL = """
WITH toks AS (SELECT doc_id, string_split(trim(text), ' ') AS arr FROM documents),
bgs AS (
  SELECT doc_id, arr[u.j + 1] || ' ' || arr[u.j + 2] AS bg
  FROM toks, LATERAL (SELECT unnest(range(len(arr) - 1)) AS j) u
),
f AS (SELECT doc_id, bg, COUNT(*) AS tf FROM bgs GROUP BY 1, 2),
g AS (SELECT bg, SUM(tf) AS c FROM f GROUP BY 1),
s AS (SELECT f.doc_id, SUM(f.tf * g.c) AS c_sum, SUM(f.tf) AS nb
      FROM f JOIN g USING (bg) GROUP BY 1)
SELECT t.doc_id,
       CAST(COALESCE(s.nb, 0) AS BIGINT) AS n_bigrams,
       CAST(COALESCE(s.c_sum, 0) AS BIGINT) AS c_sum,
       ln((COALESCE(s.c_sum, 0) + 1.0) / (COALESCE(s.nb, 0) + 1.0)) AS lm_score
FROM toks t LEFT JOIN s USING (doc_id)
"""


# ------------------------------------------------ IQR outlier fences

def q_value_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Grouped ROBUST outlier detection: events whose value falls
    outside the classic Tukey fences [q1 − 1.5·IQR, q3 + 1.5·IQR] of
    their event_type — the data-cleaning primitive a curation pass
    runs on numeric columns before training-set admission. Everything
    stays integer: value in cents, quartiles as self-defined exact
    order statistics (rank ceil(n/4) / ceil(3n/4) under the
    deterministic (cents, event_id) order — NOT the engine-dependent
    quantile builtin), and the fence test doubled through to avoid the
    .5 ((2x < 2q1 − 3·IQR) ⇔ (x < q1 − 1.5·IQR)) so the DuckDB oracle
    hashes exactly. One ``keyed_exchange`` on event_type; each
    partition's fold computes every type's fences vectorized.
    Columns: event_id, event_type, cents."""
    ds = read_pq(f"{sf_dir}/events.parquet",
                               columns=["event_id", "event_type", "value"])

    def slim(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "cents": pc.round(pc.multiply(t["value"], 100.0),
                              round_mode="half_towards_infinity"
                              ).cast(pa.int64()),
        })

    def fences(g: pd.DataFrame) -> pa.Table:
        # each row reads its type's quartiles at the type's first row
        # plus rank ceil(n/4) - 1 / ceil(3n/4) - 1
        g = g.sort_values(["event_type", "cents", "event_id"], kind="mergesort")
        by = g.groupby("event_type", sort=False, dropna=False)
        n = by["cents"].transform("size").to_numpy()
        first = np.arange(len(g)) - by.cumcount().to_numpy()
        v = g["cents"].to_numpy()
        q1 = v[first + (n + 3) // 4 - 1]
        q3 = v[first + (3 * n + 3) // 4 - 1]
        iqr = q3 - q1
        keep = (2 * v < 2 * q1 - 3 * iqr) | (2 * v > 2 * q3 + 3 * iqr)
        out = g[keep]
        return pa.table({
            "event_id": pa.array(out["event_id"].to_numpy(), type=pa.int64()),
            "event_type": pa.array(out["event_type"].tolist(),
                                   type=pa.string()),
            "cents": pa.array(out["cents"].to_numpy(), type=pa.int64()),
        })

    return keyed_exchange(ds.map_batches(slim, batch_format="pyarrow"),
                          "event_type", fences)


Q_VALUE_OUTLIERS_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY event_type
                               ORDER BY cents, event_id) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM c
),
q AS (
  SELECT event_type,
         max(CASE WHEN rn = CAST(ceil(n/4.0) AS BIGINT) THEN cents END) AS q1,
         max(CASE WHEN rn = CAST(ceil(3*n/4.0) AS BIGINT) THEN cents END) AS q3
  FROM r GROUP BY 1
)
SELECT c.event_id, c.event_type, c.cents
FROM c JOIN q USING (event_type)
WHERE 2*c.cents < 2*q.q1 - 3*(q.q3 - q.q1)
   OR 2*c.cents > 2*q.q3 + 3*(q.q3 - q.q1)
"""
