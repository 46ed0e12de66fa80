"""Windowed aggregates, anti-join, and as-of join.

Operators a training-data/feature pipeline needs that Ray Data has no
primitive for, expressed as compositions per SURVEY.md §2 guidance
(custom operator rule: map_batches + groupby().map_groups + sort when
semantics allow). All use the COARSE-partition pattern (group by
``key % N_PARTS``, resolve exact keys vectorized inside the partition)
because per-key ``map_groups`` pays one UDF call per key (see
dedup.MinHasher for measurements).

Partitioning assumption (documented per the custom-operator rule): one
coarse partition must hold ALL rows of each contained key — guaranteed
because the shuffle key is a pure function of the join/window key.
Money values aggregate in integer cents so running sums are
bit-identical to the DuckDB oracle regardless of addition order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ..sources.pages import read_pq

N_PARTS = 64


def _counts_upto(lk: np.ndarray, lp: np.ndarray, rk: np.ndarray,
                 rts: np.ndarray, inclusive: bool) -> np.ndarray:
    """For every probe ``(lk[i], lp[i])``: the number of right rows
    with the same key and ts <= lp[i] (``inclusive``) or < lp[i]
    (strict) — ONE merged lexsort over both sides, no per-key Python
    dispatch (the round-3 bodies looped ``for k, sub in
    left.groupby(...)``; this replaces that with O((m+n)·log) numpy).
    ``rk``/``rts`` may be in any order; keys are int64, ts
    datetime64[us] (compared as int64)."""
    n_r, n_l = rk.size, lk.size
    keys = np.concatenate([rk, lk])
    tss = np.concatenate([rts.view(np.int64), lp.view(np.int64)])
    probe = np.concatenate([np.zeros(n_r, np.int8), np.ones(n_l, np.int8)])
    # tie order at equal (key, ts): inclusive counts rights at the
    # probe ts, so rights sort first; strict excludes them
    tie = probe if inclusive else (1 - probe)
    order = np.lexsort((tie, tss, keys))
    is_r = probe[order] == 0
    k_s = keys[order]
    cum_r = np.cumsum(is_r)
    new_key = np.empty(k_s.size, dtype=bool)
    if k_s.size:
        new_key[0] = True
        new_key[1:] = k_s[1:] != k_s[:-1]
    seg_id = np.cumsum(new_key) - 1
    base = (cum_r - is_r)[np.flatnonzero(new_key)]  # rights before segment
    probe_pos = np.flatnonzero(~is_r)
    counts = np.empty(n_l, dtype=np.int64)
    counts[order[probe_pos] - n_r] = (cum_r - base[seg_id])[probe_pos]
    return counts


# ---------------------------------------------------------- running total

def q_running_total(sf_dir: str) -> "ray.data.Dataset":
    """Per-customer running order total (cents), window-ordered by
    (o_orderdate, o_orderkey). Columns: o_orderkey, o_custkey,
    running_cents."""
    ds = read_pq(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def part(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # DuckDB ROUND() is half-away-from-zero; Arrow defaults to
        # half-to-even — match the oracle explicitly.
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table({
            "part": pc.cast(pc.bit_wise_and(t["o_custkey"], N_PARTS - 1), pa.int32()),
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "o_orderdate": t["o_orderdate"],
            "cents": cents,
        })

    def windows(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        run = g.groupby("o_custkey", sort=False)["cents"].cumsum()
        return pa.table({
            "o_orderkey": pa.array(g["o_orderkey"].to_numpy(), type=pa.int64()),
            "o_custkey": pa.array(g["o_custkey"].to_numpy(), type=pa.int64()),
            "running_cents": pa.array(run.to_numpy(), type=pa.int64()),
        })

    return (
        ds.map_batches(part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(windows, batch_format="pandas")
    )


Q_RUNNING_TOTAL_SQL = """
SELECT o_orderkey,
       o_custkey,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
       ) AS BIGINT) AS running_cents
FROM orders
"""


# ------------------------------------------------------------- order rank

def q_order_rank(sf_dir: str) -> "ray.data.Dataset":
    """Rank of each order within its customer by (o_totalprice desc,
    o_orderkey) — ROW_NUMBER() semantics with a deterministic tiebreak.
    Columns: o_orderkey, o_custkey, rnk."""
    ds = read_pq(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def part(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.append_column(
            "part", pc.cast(pc.bit_wise_and(t["o_custkey"], N_PARTS - 1), pa.int32())
        )

    def ranks(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
        )
        rnk = g.groupby("o_custkey", sort=False).cumcount() + 1
        return pa.table({
            "o_orderkey": pa.array(g["o_orderkey"].to_numpy(), type=pa.int64()),
            "o_custkey": pa.array(g["o_custkey"].to_numpy(), type=pa.int64()),
            "rnk": pa.array(rnk.to_numpy(), type=pa.int64()),
        })

    return (
        ds.map_batches(part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(ranks, batch_format="pandas")
    )


Q_ORDER_RANK_SQL = """
SELECT o_orderkey, o_custkey,
       ROW_NUMBER() OVER (
           PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey
       ) AS rnk
FROM orders
"""


def q_order_percent_rank(sf_dir: str) -> "ray.data.Dataset":
    """PERCENT_RANK + CUME_DIST within each order-priority class,
    ordered by (price cents, o_orderkey) — the normalized-rank window
    primitives (feature scaling / percentile features). The ordering
    key is unique, so rank == row_number and both stats are exact
    integer ratios computed identically here and in DuckDB (bitwise-
    equal doubles). Priority cardinality is 5, so per-key map_groups
    is fine; the group body is one numpy arange (coarse-partition for
    high-cardinality keys). Partitioning assumption: one priority
    class fits a partition. Columns: o_orderkey, o_orderpriority,
    pct_rank, cume_dist."""
    ds = read_pq(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )

    def slim(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_orderpriority": t["o_orderpriority"],
            "cents": pc.round(pc.multiply(t["o_totalprice"], 100.0),
                              round_mode="half_towards_infinity"
                              ).cast(pa.int64()),
        })

    def body(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["cents", "o_orderkey"], kind="mergesort")
        n = len(g)
        rn = np.arange(1, n + 1, dtype=np.float64)
        pr = (rn - 1.0) / (n - 1.0) if n > 1 else np.zeros(n)
        return pa.table({
            "o_orderkey": pa.array(g["o_orderkey"].to_numpy(),
                                   type=pa.int64()),
            "o_orderpriority": pa.array(g["o_orderpriority"].tolist(),
                                        type=pa.string()),
            "pct_rank": pa.array(pr, type=pa.float64()),
            "cume_dist": pa.array(rn / n, type=pa.float64()),
        })

    return (ds.map_batches(slim, batch_format="pyarrow")
            .groupby("o_orderpriority")
            .map_groups(body, batch_format="pandas"))


Q_PERCENT_RANK_SQL = """
SELECT o_orderkey, o_orderpriority,
       PERCENT_RANK() OVER w AS pct_rank,
       CUME_DIST() OVER w AS cume_dist
FROM orders
WINDOW w AS (PARTITION BY o_orderpriority
             ORDER BY CAST(round(o_totalprice*100) AS BIGINT), o_orderkey)
"""


# ----------------------------------------------------------- anti join

BIG_ORDER = 400000.0


def q_customers_no_orders(sf_dir: str) -> "ray.data.Dataset":
    """Anti-join: customers with no order above BIG_ORDER — LEFT OUTER
    shuffle join against the FILTERED + per-block-distinct custkey set
    (shrink-before-shuffle), keep null matches. Columns: c_custkey,
    c_name. (Every customer has at least one order in the test data, so
    the unfiltered variant would be vacuously empty.)"""
    import pyarrow.compute as pc

    cust = read_pq(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    okeys = read_pq(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def distinct(t: pa.Table) -> pa.Table:
        big = t.filter(pc.greater(t["o_totalprice"], BIG_ORDER))
        u = pc.unique(big["o_custkey"])
        return pa.table({"o_custkey": u, "has": pa.array([1] * len(u), type=pa.int8())})

    # per-block distinct, then the join's hash shuffle dedups the rest
    okeys = okeys.map_batches(distinct, batch_format="pyarrow")
    joined = cust.join(
        okeys, join_type="left_outer", num_partitions=8,
        on=("c_custkey",), right_on=("o_custkey",),
    )

    def only_null(t: pa.Table) -> pa.Table:
        mask = pc.is_null(t["has"])
        return t.filter(mask).select(["c_custkey", "c_name"])

    return joined.map_batches(only_null, batch_format="pyarrow")


Q_NO_ORDERS_SQL = f"""
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN
      (SELECT o_custkey FROM orders WHERE o_totalprice > {BIG_ORDER})
"""


# ------------------------------------------------------------- as-of join

ASOF_PROBE_DAYS = 60  # fulfillment probe: shipped within 60 days?


def q_asof_last_ship(sf_dir: str, probe_days: int = ASOF_PROBE_DAYS) -> "ray.data.Dataset":
    """As-of join (Ray Data has no primitive): for each order, the
    latest shipment (``lineitem.l_shipdate``) of that order at or
    before ``o_orderdate + probe_days``, plus the count of lineitems
    shipped by then — the "fulfillment status as of day N" probe.
    Both tables are tagged into one common-schema stream,
    co-partitioned by ``o_orderkey``, and resolved per partition with
    numpy searchsorted over the sorted shipment timeline. (Earlier
    rounds probed orders against ``events``, but the testdata's order
    dates (1995–2001) and event timestamps (2024) never overlap, so
    every output was the vacuous 0/NaT row and the oracle gate proved
    nothing; shipments genuinely interleave with the probe window.)
    Columns: o_orderkey, last_ship_ts, n_shipped."""
    delta = np.timedelta64(probe_days * 86_400_000_000, "us")
    orders = read_pq(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
    )
    ships = read_pq(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )

    def tag_orders(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "part": pc.cast(pc.bit_wise_and(t["o_orderkey"], N_PARTS - 1), pa.int32()),
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "ts": t["o_orderdate"],
            "side": pa.array([0] * t.num_rows, type=pa.int8()),
        })

    def tag_ships(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "part": pc.cast(pc.bit_wise_and(t["l_orderkey"], N_PARTS - 1), pa.int32()),
            "key": pc.cast(t["l_orderkey"], pa.int64()),
            "ts": t["l_shipdate"],
            "side": pa.array([1] * t.num_rows, type=pa.int8()),
        })

    both = orders.map_batches(tag_orders, batch_format="pyarrow").union(
        ships.map_batches(tag_ships, batch_format="pyarrow")
    )

    def asof(g: pd.DataFrame) -> pa.Table:
        side = g["side"].to_numpy()
        lk = g["key"].to_numpy()[side == 0]
        if lk.size == 0:
            return pa.table({
                "o_orderkey": pa.array([], type=pa.int64()),
                "last_ship_ts": pa.array([], type=pa.timestamp("us")),
                "n_shipped": pa.array([], type=pa.int64()),
            })
        lp = g["ts"].to_numpy()[side == 0].astype("datetime64[us]") + delta
        rk = g["key"].to_numpy()[side == 1]
        rts = g["ts"].to_numpy()[side == 1].astype("datetime64[us]")
        # fully vectorized: merged-lexsort count of shipments <= probe,
        # then index the (key, ts)-sorted timeline for the latest one
        n_le = _counts_upto(lk, lp, rk, rts, inclusive=True)
        r_order = np.lexsort((rts.view(np.int64), rk))
        rts_sorted = rts[r_order]
        seg_lo = np.searchsorted(rk[r_order], lk, side="left")
        last = np.full(lk.size, np.datetime64("NaT", "us"))
        has = n_le > 0
        last[has] = rts_sorted[seg_lo[has] + n_le[has] - 1]
        return pa.table({
            "o_orderkey": pa.array(lk, type=pa.int64()),
            "last_ship_ts": pa.Array.from_pandas(
                pd.Series(last), type=pa.timestamp("us")
            ),
            "n_shipped": pa.array(n_le, type=pa.int64()),
        })

    return both.groupby("part").map_groups(asof, batch_format="pandas")


def asof_last_ship_sql(probe_days: int = ASOF_PROBE_DAYS) -> str:
    return f"""
SELECT o.o_orderkey AS o_orderkey,
       (SELECT max(l.l_shipdate) FROM lineitem l
         WHERE l.l_orderkey = o.o_orderkey
           AND l.l_shipdate <= o.o_orderdate + INTERVAL {int(probe_days)} DAY)
           AS last_ship_ts,
       (SELECT count(*) FROM lineitem l
         WHERE l.l_orderkey = o.o_orderkey
           AND l.l_shipdate <= o.o_orderdate + INTERVAL {int(probe_days)} DAY)
           AS n_shipped
FROM orders o
"""


Q_ASOF_SQL = asof_last_ship_sql()


# ------------------------------------------------------- grouped quantiles

def q_price_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Discrete p50/p90 of order price (cents) per order priority.
    Columns: o_orderpriority, p50_cents, p90_cents, n_orders."""
    ds = read_pq(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )

    def cents(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "cents": pc.cast(
                pc.round(pc.multiply(t["o_totalprice"], 100.0),
                         round_mode="half_towards_infinity"),
                pa.int64(),
            ),
        })

    _EMPTY = pa.table({
        "o_orderpriority": pa.array([], type=pa.string()),
        "p50_cents": pa.array([], type=pa.int64()),
        "p90_cents": pa.array([], type=pa.int64()),
        "n_orders": pa.array([], type=pa.int64()),
    })

    def quants(t: pa.Table) -> pa.Table:
        # input = the FULL slim histogram (one row per distinct
        # (priority, cents) — bounded regardless of corpus size); the
        # weighted order statistic over (cents asc, n) reproduces
        # quantile_disc exactly. Typed-empty return keeps every bundle
        # schema-ful (the r4 prep.py landmine).
        if t.num_rows == 0:
            return _EMPTY
        g = t.to_pandas().sort_values(["o_orderpriority", "cents"])
        rows = []
        for prio, grp in g.groupby("o_orderpriority", sort=True):
            n = grp["n"].to_numpy()
            cum = np.cumsum(n)
            total = int(cum[-1])
            c = grp["cents"].to_numpy()
            p50 = int(c[np.searchsorted(cum, max(1, int(np.ceil(0.5 * total))))])
            p90 = int(c[np.searchsorted(cum, max(1, int(np.ceil(0.9 * total))))])
            rows.append((prio, p50, p90, total))
        return pa.table({
            "o_orderpriority": pa.array([r[0] for r in rows], type=pa.string()),
            "p50_cents": pa.array([r[1] for r in rows], type=pa.int64()),
            "p90_cents": pa.array([r[2] for r in rows], type=pa.int64()),
            "n_orders": pa.array([r[3] for r in rows], type=pa.int64()),
        })

    from ray.data.aggregate import Count

    # pre-aggregate to the slim (priority, cents, n) histogram FIRST —
    # only distinct price points cross the exchange, and the final
    # quantile pass is one small single-partition map (never an empty
    # hash partition, so no schemaless-RefBundle warnings)
    hist = (
        ds.map_batches(cents, batch_format="pyarrow")
        .groupby(["o_orderpriority", "cents"])
        .aggregate(Count(alias_name="n"))
    )
    return hist.repartition(1).map_batches(
        quants, batch_format="pyarrow", batch_size=None
    )


Q_PRICE_QUANTILES_SQL = """
SELECT o_orderpriority,
       quantile_disc(CAST(ROUND(o_totalprice * 100) AS BIGINT), 0.5) AS p50_cents,
       quantile_disc(CAST(ROUND(o_totalprice * 100) AS BIGINT), 0.9) AS p90_cents,
       COUNT(*) AS n_orders
FROM orders GROUP BY o_orderpriority
"""


# ---------------------------------------------------------- sessionization

SESSION_GAP_MIN = 30


def q_sessionize(sf_dir: str) -> "ray.data.Dataset":
    """Sessionization (the streaming-window analogue, computed batch):
    per-user event sessions split at >30-minute gaps. Coarse-partitioned
    by user, gap/cumsum fully vectorized inside each partition.
    Columns: user_id, session_id, session_start, session_end, n_events."""
    ds = read_pq(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def part(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.append_column(
            "part", pc.cast(pc.bit_wise_and(t["user_id"], N_PARTS - 1), pa.int32())
        )

    def sessions(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"])
        gap = pd.Timedelta(minutes=SESSION_GAP_MIN)
        by_user = g.groupby("user_id", sort=False)
        new_sess = (g["ts"] - by_user["ts"].shift()).gt(gap) | by_user.cumcount().eq(0)
        g = g.assign(session_id=new_sess.groupby(g["user_id"]).cumsum().astype(np.int64))
        agg = (
            g.groupby(["user_id", "session_id"], sort=False)
            .agg(session_start=("ts", "min"), session_end=("ts", "max"),
                 n_events=("ts", "size"))
            .reset_index()
        )
        return pa.table({
            "user_id": pa.array(agg["user_id"].to_numpy(), type=pa.int64()),
            "session_id": pa.array(agg["session_id"].to_numpy(), type=pa.int64()),
            "session_start": pa.Array.from_pandas(agg["session_start"], type=pa.timestamp("us")),
            "session_end": pa.Array.from_pandas(agg["session_end"], type=pa.timestamp("us")),
            "n_events": pa.array(agg["n_events"].to_numpy(), type=pa.int64()),
        })

    # sort-based groupby on the coarse part key (the drop-in since r1):
    # no aggregator-actor startup tax (a keyed hash repartition costs
    # ~2.5 s of actors on this sub-second query); its old "failed to
    # hash the schemas" spam came from parquet pandas metadata, fixed
    # at the read by read_pq's schema strip
    return (
        ds.map_batches(part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sessions, batch_format="pandas")
    )


Q_SESSIONIZE_SQL = f"""
WITH gaps AS (
  SELECT user_id, ts, event_id,
         CASE WHEN LAG(ts) OVER w IS NULL
                OR ts - LAG(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS is_new
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), sess AS (
  SELECT user_id, ts,
         SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM gaps
)
SELECT user_id, CAST(sid AS BIGINT) AS session_id,
       MIN(ts) AS session_start, MAX(ts) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM sess GROUP BY user_id, sid
"""


def q_moving_avg_dau(sf_dir: str, window: int = 7) -> "ray.data.Dataset":
    """Sliding-window aggregate over an aggregate: 7-day moving average
    of daily active users. The base DAU is tiny by construction (one
    row per day), so the window pass runs in one ordered block after
    the distributed aggregation — the standard aggregate-then-window
    shape. Window sums are integers (exact in doubles), so the average
    is bit-identical to the SQL frame ``ROWS BETWEEN 6 PRECEDING AND
    CURRENT ROW``. Columns: day, dau, dau_ma7."""
    from .relational import q_daily_active_users

    dau = q_daily_active_users(sf_dir)

    def ma(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.sort_indices(t, sort_keys=[("day", "ascending")])
        t = t.take(idx)
        v = t["dau"].to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.empty(len(v), dtype=np.float64)
        for i in range(len(v)):
            w = v[max(0, i - window + 1) : i + 1]
            out[i] = float(w.sum()) / len(w)  # integer sum: exact
        return pa.table({
            "day": t["day"],
            "dau": t["dau"],
            "dau_ma7": pa.array(out, type=pa.float64()),
        })

    # one block = the whole (small) aggregate; batch_size=None keeps it
    return dau.repartition(1).map_batches(ma, batch_format="pyarrow",
                                          batch_size=None)


Q_MOVING_AVG_DAU_SQL = """
SELECT day, dau,
       AVG(dau) OVER (ORDER BY day ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
           AS dau_ma7
FROM (
  SELECT strftime(ts, '%Y-%m-%d') AS day, COUNT(DISTINCT user_id) AS dau
  FROM events GROUP BY 1
)
"""


# --------------------------------------------- mergeable quantile histogram

HIST_BINS = 4096
HIST_LO, HIST_HI = 1.0, 1e9  # log-spaced bin edges (positive prices)


def _hist_edges() -> np.ndarray:
    return np.logspace(np.log10(HIST_LO), np.log10(HIST_HI), HIST_BINS + 1)


def hist_quantile(counts: np.ndarray, q: float) -> float:
    """Approximate quantile from merged bin counts: the upper edge of
    the bin containing the q-th value (relative error bounded by the
    log-bin width, ~0.51% with 4096 bins over 9 decades)."""
    edges = _hist_edges()
    total = counts.sum()
    if total == 0:
        return 0.0
    target = max(1, int(np.ceil(q * total)))
    cum = np.cumsum(counts)
    b = int(np.searchsorted(cum, target))
    return float(edges[min(b + 1, HIST_BINS)])


def q_price_quantile_sketch(sf_dir: str) -> "ray.data.Dataset":
    """Approximate p50/p90/p99 of l_extendedprice via a MERGEABLE
    log-histogram sketch: each batch emits its 4096-bin count vector
    (32 KiB), partials sum in a reduce task (``repartition(1)`` — tree
    it at cluster scale), and quantiles read off the merged histogram.
    The estimate-vs-exact audit lives in the test suite
    (``tests/test_ops.py``), mirroring the HLL pattern. Columns:
    n_rows, p50, p90, p99, rel_err_bound_pct. (No SQL oracle: sketch.)"""
    ds = read_pq(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    edges = _hist_edges()

    def sketch(t: pa.Table) -> pa.Table:
        v = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        counts, _ = np.histogram(np.clip(v, HIST_LO, HIST_HI), bins=edges)
        return pa.table({
            "counts": pa.array([counts.astype(np.int64).tobytes()], type=pa.binary()),
        })

    def merge(t: pa.Table) -> pa.Table:
        total = np.zeros(HIST_BINS, dtype=np.int64)
        for blob in t["counts"].to_pylist():
            total += np.frombuffer(blob, dtype=np.int64)
        rel = (10 ** (9 / HIST_BINS) - 1) * 100  # one log-bin width
        return pa.table({
            "n_rows": pa.array([int(total.sum())], type=pa.int64()),
            "p50": pa.array([hist_quantile(total, 0.5)], type=pa.float64()),
            "p90": pa.array([hist_quantile(total, 0.9)], type=pa.float64()),
            "p99": pa.array([hist_quantile(total, 0.99)], type=pa.float64()),
            "rel_err_bound_pct": pa.array([round(rel, 3)], type=pa.float64()),
        })

    parts = ds.map_batches(sketch, batch_format="pyarrow")
    return parts.repartition(1).map_batches(merge, batch_format="pyarrow",
                                            batch_size=None)


# ------------------------------------------------------------- range join

RANGE_DAYS = 90


def q_range_join_ship(sf_dir: str, days: int = RANGE_DAYS) -> "ray.data.Dataset":
    """Range join (Ray Data has no primitive): for each order, the count
    and first timestamp of its shipments with ``l_shipdate ∈
    [o_orderdate, o_orderdate + days)``. Same shape as the as-of
    join: both tables tagged into one common-schema stream,
    co-partitioned on ``o_orderkey``, range resolved per partition with
    TWO ``searchsorted`` probes over each key's sorted shipment
    timeline. Range aggregates are chosen exact (count + min-ts) so the
    DuckDB oracle hashes bit-identically — a float SUM over the range
    would depend on accumulation order. Partitioning assumption: a
    single key's timeline fits one partition (salt hot keys beyond
    that). (Earlier rounds ranged orders against ``events``, whose 2024
    timestamps never intersect the 1995–2001 order dates — vacuously
    zero output; see ``q_asof_last_ship``.)
    Columns: o_orderkey, n_ship_window, first_ship_ts."""
    delta = np.timedelta64(days * 86_400_000_000, "us")
    orders = read_pq(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
    )
    ships = read_pq(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )

    def tag_orders(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "part": pc.cast(pc.bit_wise_and(t["o_orderkey"], N_PARTS - 1), pa.int32()),
            "key": pc.cast(t["o_orderkey"], pa.int64()),
            "ts": t["o_orderdate"],
            "side": pa.array([0] * t.num_rows, type=pa.int8()),
        })

    def tag_ships(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "part": pc.cast(pc.bit_wise_and(t["l_orderkey"], N_PARTS - 1), pa.int32()),
            "key": pc.cast(t["l_orderkey"], pa.int64()),
            "ts": t["l_shipdate"],
            "side": pa.array([1] * t.num_rows, type=pa.int8()),
        })

    both = orders.map_batches(tag_orders, batch_format="pyarrow").union(
        ships.map_batches(tag_ships, batch_format="pyarrow")
    )

    def ranged(g: pd.DataFrame) -> pa.Table:
        side = g["side"].to_numpy()
        lk = g["key"].to_numpy()[side == 0]
        if lk.size == 0:
            return pa.table({
                "o_orderkey": pa.array([], type=pa.int64()),
                "n_ship_window": pa.array([], type=pa.int64()),
                "first_ship_ts": pa.array([], type=pa.timestamp("us")),
            })
        lts = g["ts"].to_numpy()[side == 0].astype("datetime64[us]")
        rk = g["key"].to_numpy()[side == 1]
        rts = g["ts"].to_numpy()[side == 1].astype("datetime64[us]")
        # two merged-lexsort strict counts bracket the window; the
        # first-in-window ts indexes the (key, ts)-sorted timeline
        lo = _counts_upto(lk, lts, rk, rts, inclusive=False)
        hi = _counts_upto(lk, lts + delta, rk, rts, inclusive=False)
        cnt = hi - lo
        r_order = np.lexsort((rts.view(np.int64), rk))
        rts_sorted = rts[r_order]
        seg_lo = np.searchsorted(rk[r_order], lk, side="left")
        first = np.full(lk.size, np.datetime64("NaT", "us"))
        has = cnt > 0
        first[has] = rts_sorted[seg_lo[has] + lo[has]]
        return pa.table({
            "o_orderkey": pa.array(lk, type=pa.int64()),
            "n_ship_window": pa.array(cnt, type=pa.int64()),
            "first_ship_ts": pa.Array.from_pandas(
                pd.Series(first), type=pa.timestamp("us")
            ),
        })

    return both.groupby("part").map_groups(ranged, batch_format="pandas")


def range_join_ship_sql(days: int = RANGE_DAYS) -> str:
    return f"""
SELECT o.o_orderkey AS o_orderkey,
       (SELECT count(*) FROM lineitem l
         WHERE l.l_orderkey = o.o_orderkey
           AND l.l_shipdate >= o.o_orderdate
           AND l.l_shipdate < o.o_orderdate + INTERVAL {int(days)} DAY)
           AS n_ship_window,
       (SELECT min(l.l_shipdate) FROM lineitem l
         WHERE l.l_orderkey = o.o_orderkey
           AND l.l_shipdate >= o.o_orderdate
           AND l.l_shipdate < o.o_orderdate + INTERVAL {int(days)} DAY)
           AS first_ship_ts
FROM orders o
"""


Q_RANGE_JOIN_SQL = range_join_ship_sql()


# -------------------------------------------------- event transitions

def q_event_transitions(sf_dir: str) -> "ray.data.Dataset":
    """Markov transition counts over each user's ordered event stream —
    LEAD() per user then a (src, dst) count, the funnel/clickstream
    matrix every product-analytics pipeline computes. One coarse
    shuffle on ``user_id % N_PARTS`` co-locates each user's events;
    inside the partition the per-user LEAD is one vectorized shift over
    the (user_id, ts, event_id)-sorted frame (NO per-user loop), and a
    pandas crosstab folds the partition's pairs so only
    |event_types|² × partitions slim rows reach the final groupby.
    Columns: src, dst, n.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = read_pq(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def part(t: pa.Table) -> pa.Table:
        return pa.table({
            "part": pc.cast(pc.bit_wise_and(t["user_id"], N_PARTS - 1), pa.int32()),
            "user_id": t["user_id"],
            "ts": t["ts"],
            "event_id": t["event_id"],
            "event_type": t["event_type"],
        })

    def transitions(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = np.empty(len(g), dtype=bool)
        if len(g):
            same[:-1] = uid[:-1] == uid[1:]
            same[-1] = False
        src = et[:-1][same[:-1]] if len(g) else et[:0]
        dst = et[1:][same[:-1]] if len(g) else et[:0]
        pairs = pd.DataFrame({"src": src, "dst": dst})
        cnt = pairs.groupby(["src", "dst"], sort=True).size().reset_index(name="n")
        return pa.table({
            "src": pa.array(cnt["src"].tolist(), type=pa.string()),
            "dst": pa.array(cnt["dst"].tolist(), type=pa.string()),
            "n": pa.array(cnt["n"].to_numpy().astype(np.int64), type=pa.int64()),
        })

    return (
        ds.map_batches(part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(transitions, batch_format="pandas")
        .groupby(["src", "dst"])
        .aggregate(Sum("n", alias_name="n"))
    )


Q_EVENT_TRANSITIONS_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         LEAD(event_type) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type AS src, nxt AS dst, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2
"""


# ----------------------------------------------- left-outer join (LTV)

def q_customer_ltv(sf_dir: str) -> "ray.data.Dataset":
    """Customer lifetime value with zero-fill — the LEFT OUTER join
    shape (anti-join keeps only the misses; this keeps BOTH sides).
    The fact table is pre-aggregated per batch then per key, so the
    join's right side is one slim row per purchasing customer: the
    shuffle moves |customers-with-orders| rows, never |orders|.
    Money stays integer cents until the end. Columns: c_custkey,
    c_name, n_orders, ltv_cents.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .dedup import _coalesce_for_join, _join_parts_for

    cust = read_pq(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    orders = read_pq(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    n_parts = 16

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        g = (pa.table({"o_custkey": t["o_custkey"].combine_chunks()
                       .cast(pa.int64()), "cents": cents})
             .group_by(["o_custkey"], use_threads=False)
             .aggregate([("cents", "sum"), ([], "count_all")]))
        part = pc.cast(pc.bit_wise_and(g["o_custkey"].combine_chunks(),
                                       n_parts - 1), pa.int32())
        return pa.table({
            "part": part,
            "o_custkey": g["o_custkey"],
            "n_orders": g["count_all"].cast(pa.int64()),
            "cents": g["cents_sum"].cast(pa.int64()),
        })

    def fold(g: pd.DataFrame) -> pa.Table:
        # copies of a custkey co-locate, so the in-partition sums are
        # global (Arrow kernels — Ray's sort-based Aggregate measured
        # seconds per block on this shape)
        t = (pa.Table.from_pandas(g[["o_custkey", "n_orders", "cents"]],
                                  preserve_index=False)
             .group_by(["o_custkey"], use_threads=False)
             .aggregate([("n_orders", "sum"), ("cents", "sum")]))
        return pa.table({
            "o_custkey": t["o_custkey"].combine_chunks().cast(pa.int64()),
            "n_orders": t["n_orders_sum"].cast(pa.int64()),
            "cents": t["cents_sum"].cast(pa.int64()),
        })

    agg = (
        orders.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pandas")
    )
    # right side passed through a groupby: guard the empty-first-block
    # schema-broadcast landmine (see dedup._coalesce_for_join)
    agg, n_agg = _coalesce_for_join(agg)
    joined = cust.join(
        agg, join_type="left_outer",
        num_partitions=_join_parts_for(n_agg),
        on=("c_custkey",), right_on=("o_custkey",),
    )

    def zero_fill(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": t["c_custkey"],
            "c_name": t["c_name"],
            "n_orders": pc.coalesce(t["n_orders"], pa.scalar(0, pa.int64())),
            "ltv_cents": pc.coalesce(t["cents"], pa.scalar(0, pa.int64())),
        })

    return joined.map_batches(zero_fill, batch_format="pyarrow")


Q_CUSTOMER_LTV_SQL = """
SELECT c.c_custkey, c.c_name,
       COALESCE(o.n, 0) AS n_orders,
       COALESCE(o.cents, 0) AS ltv_cents
FROM customer c
LEFT JOIN (
  SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM orders GROUP BY 1
) o ON c.c_custkey = o.o_custkey
"""
