"""Relational operator pipelines over the TPC-H-ish testdata tables.

These generalize the reference's aggregation/sort/top-k/lookup dataflow
shapes to corpus scale (SURVEY.md §2.5-2.6: per-doc folds G1-G6, sort +
top-k D5, lookup joins J1/J3) as idiomatic Ray Data:

* **partial aggregation**: per-batch ``pyarrow.Table.group_by`` partials
  inside ``map_batches``, then a tiny ``Dataset.groupby`` over partials —
  the shuffle moves one row per (key, batch) instead of every input row;
* **broadcast joins**: FIXED-cardinality dimension tables (nation=25,
  region=5 rows at every sf) are read once on the driver and folded
  into batch tasks as a dict — no all-to-all shuffle for a constant
  side;
* **co-partitioned join**: ``exchange.keyed_join`` wherever a side
  scales with sf (customer, part, supplier, lineitem, orders) — a
  100-TB run's customer table fits in no driver dict, so slim fact
  rows and the dim cross one keyed exchange together instead;
* **decimal-exact money math**: prices are converted per row to integer
  cents with half-away-from-zero rounding, summed as int64 (order-
  independent, bit-deterministic), and divided back at the end — so
  results are reproducible under any parallelism and match the DuckDB
  oracle bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ..sources.pages import read_pq
from .exchange import gather, keyed_aggregate, keyed_join, top_k, total


def _cents(arr: pa.ChunkedArray) -> pa.ChunkedArray:
    """price double -> exact integer cents (half away from zero, matching
    DuckDB ``floor(x*100 + 0.5)`` for the non-negative price domain)."""
    return pc.round(pc.multiply(arr, pa.scalar(100.0)),
                    round_mode="half_towards_infinity").cast(pa.int64())


def q1_pricing_summary(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H-Q1-shaped pricing summary over lineitem.

    Columns: l_returnflag, l_linestatus, sum_qty, sum_base_price,
    sum_disc_price, avg_qty, count_order.
    """
    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def cents(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(t["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": t["l_quantity"],
            "base_c": _cents(t["l_extendedprice"]),
            "disc_c": _cents(disc_price),
        })

    agg = keyed_aggregate(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("qty", "sum"), "base_cents": ("base_c", "sum"),
         "disc_cents": ("disc_c", "sum"), "count_order": ("qty", "count")})

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": t["sum_qty"],
            "sum_base_price": pc.divide(t["base_cents"].cast(pa.float64()), 100.0),
            "sum_disc_price": pc.divide(t["disc_cents"].cast(pa.float64()), 100.0),
            "avg_qty": pc.divide(t["sum_qty"], t["count_order"].cast(pa.float64())),
            "count_order": t["count_order"],
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       CAST(SUM(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS DOUBLE)/100 AS sum_base_price,
       CAST(SUM(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS DOUBLE)/100 AS sum_disc_price,
       SUM(l_quantity)/COUNT(*) AS avg_qty,
       COUNT(*) AS count_order
FROM lineitem GROUP BY 1, 2
"""


def q6_revenue_filter(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H-Q6 shape: vectorized filter + single global aggregate.

    Columns: revenue, n_rows.
    """
    import pyarrow.dataset as pads

    # predicate pushdown to the scan: row groups whose stats exclude the
    # range never leave storage ("prune at the read"); the in-batch mask
    # below stays as the correctness-independent belt-and-suspenders.
    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount"],
        filter=(
            (pads.field("l_discount") >= 0.02)
            & (pads.field("l_discount") <= 0.04)
            & (pads.field("l_quantity") < 10.0)
        ),
    )

    def revenue(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.greater_equal(t["l_discount"], 0.02),
                    pc.less_equal(t["l_discount"], 0.04)),
            pc.less(t["l_quantity"], 10.0),
        )
        f = t.filter(mask)
        return pa.table({"rev_c": _cents(pc.multiply(f["l_extendedprice"],
                                                     f["l_discount"]))})

    agg = total(ds.map_batches(revenue, batch_format="pyarrow"),
                {"rev_c": ("rev_c", "sum"), "n": (None, "count_all")})
    return ray.data.from_items(
        [{"revenue": (agg["rev_c"] or 0) / 100.0, "n_rows": agg["n"] or 0}]
    )


Q6_SQL = """
SELECT CAST(SUM(CAST(floor(l_extendedprice*l_discount*100 + 0.5) AS BIGINT)) AS DOUBLE)/100 AS revenue,
       COUNT(*) AS n_rows
FROM lineitem
WHERE l_discount BETWEEN 0.02 AND 0.04 AND l_quantity < 10
"""


def q_topk_orders(sf_dir: str, k: int = 10) -> "ray.data.Dataset":
    """Global top-k (``ORDER BY ... LIMIT k``) via ``exchange.top_k``.
    Columns: o_orderkey, o_custkey, o_totalprice_cents. Deterministic
    tie-break on o_orderkey."""
    ds = read_pq(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    ds = ds.map_batches(
        lambda t: pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_custkey": t["o_custkey"],
            "o_totalprice_cents": _cents(t["o_totalprice"]),
        }),
        batch_format="pyarrow",
    )
    return top_k(ds, ["o_totalprice_cents", "o_orderkey"], k, descending=[True, False])


Q_TOPK_SQL = """
SELECT o_orderkey, o_custkey,
       CAST(floor(o_totalprice*100 + 0.5) AS BIGINT) AS o_totalprice_cents
FROM orders
ORDER BY o_totalprice_cents DESC, o_orderkey ASC
LIMIT 10
"""


# Broadcast-vs-shuffle-join cutoff (dim table rows). Under it, the dim
# is read once driver-side and shipped as a ray.put dict — a few
# hundred MB at most, the classic broadcast-hash-join side. Beyond it,
# the dim cannot be assumed to fit a worker heap and the engine uses a
# distributed co-partitioned join instead (the Spark-AQE-style plan
# choice).
# TPC-H at sf1000 has ~150M customers — the cutoff keeps the broadcast
# dict well under a worker's memory budget.
BROADCAST_ROWS_CUTOFF = 2_000_000


class DimSpec:
    """A dimension side for :func:`attach_dim`: parquet path, read
    columns, join key, and a pa.Table->pa.Table transform producing
    (key + attached columns). The SAME transform serves both plans —
    driver-side for the broadcast dict, inside ``map_batches`` for the
    distributed join — so the two paths cannot drift."""

    def __init__(self, path: str, columns, key: str, transform=None):
        self.path = path
        self.columns = list(columns)
        self.key = key
        self.transform = transform or (lambda t: t)


def attach_dim(
    fact: "ray.data.Dataset",
    fact_key: str,
    spec: DimSpec,
    cutoff: int = BROADCAST_ROWS_CUTOFF,
) -> "ray.data.Dataset":
    """Inner-join ``fact`` against a dimension table, choosing the plan
    by dimension size (parquet footer row count):

    * ``n_dim <= cutoff``: broadcast hash join — dict ``ray.put`` once,
      deserialized once per worker (``broadcast.cached_get``), rows
      with no match dropped (inner semantics). No shuffle.
    * ``n_dim > cutoff``: :func:`exchange.keyed_join` — fact and dim
      rows cross one keyed exchange and merge per partition.

    Both plans emit the fact columns + the dim's non-key columns.
    """
    from .broadcast import cached_get

    n_dim = _parquet_rows(spec.path)
    if n_dim <= cutoff:
        import pyarrow.parquet as pq
        import ray as _ray

        tbl = spec.transform(pq.read_table(spec.path, columns=spec.columns))
        out_cols = [c for c in tbl.column_names if c != spec.key]
        out_types = {c: tbl.schema.field(c).type for c in out_cols}
        # pandas hash index: get_indexer gives vectorized (C-level)
        # key->row lookups per batch — a per-row dict.get loop measured
        # ~40% slower on the 600k-row lineitem facts
        pdf = tbl.to_pandas().set_index(spec.key)
        ref = _ray.put(pdf)

        def add(t: pa.Table) -> pa.Table:
            d = cached_get(ref)
            idx = d.index.get_indexer(
                t[fact_key].to_numpy(zero_copy_only=False))
            ok = idx >= 0
            if not ok.all():  # inner-join semantics: drop the misses
                t = t.filter(pa.array(ok))
                idx = idx[ok]
            for c in out_cols:
                t = t.append_column(
                    c, pa.array(d[c].to_numpy()[idx], type=out_types[c]))
            return t

        return fact.map_batches(add, batch_format="pyarrow")

    dim = read_pq(spec.path, columns=spec.columns).map_batches(
        spec.transform, batch_format="pyarrow")
    return keyed_join(fact, dim, fact_key, right_on=spec.key)


def _orders_slim(sf_dir: str) -> "ray.data.Dataset":
    """(o_custkey, price_c) projection of orders — the fact side the
    customer-dim queries attach to. No pre-aggregation: the broadcast
    path needs no exchange at all, and the join path moves the slim
    fact through ONE exchange (a per-custkey groupby first would add a
    second full exchange for at best a ~10x row shrink)."""
    ds = read_pq(f"{sf_dir}/orders.parquet",
                               columns=["o_custkey", "o_totalprice"])
    return ds.map_batches(
        lambda t: pa.table({"o_custkey": t["o_custkey"],
                            "price_c": _cents(t["o_totalprice"])}),
        batch_format="pyarrow")


def q_mktsegment_orders(
    sf_dir: str, cutoff: int = BROADCAST_ROWS_CUTOFF,
) -> "ray.data.Dataset":
    """Orders ⋈ customer grouped by market segment. Customer SCALES
    WITH SF, so the plan is size-dispatched (``attach_dim``): broadcast
    hash join while the dim fits a worker heap, a co-partitioned
    ``keyed_join`` of the slim orders beyond the cutoff.
    Columns: c_mktsegment, n_orders, total_price.
    """
    joined = attach_dim(
        _orders_slim(sf_dir), "o_custkey",
        DimSpec(f"{sf_dir}/customer.parquet",
                ["c_custkey", "c_mktsegment"], "c_custkey"),
        cutoff=cutoff)

    agg2 = keyed_aggregate(joined, "c_mktsegment",
                           {"cents": ("price_c", "sum"),
                            "n_orders": ("price_c", "count")})
    return agg2.map_batches(
        lambda t: pa.table({
            "c_mktsegment": t["c_mktsegment"],
            "n_orders": t["n_orders"],
            "total_price": pc.divide(t["cents"].cast(pa.float64()), 100.0),
        }),
        batch_format="pyarrow",
    )


Q_MKTSEGMENT_SQL = """
SELECT c.c_mktsegment,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(floor(o.o_totalprice*100 + 0.5) AS BIGINT)) AS DOUBLE)/100 AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1
"""


def _nation_name_map(sf_dir: str) -> Dict[int, str]:
    """nation is FIXED at 25 rows at every sf — the legit driver-side
    read, composed into dim transforms as a closure dict."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    return dict(zip(nation.column("n_nationkey").to_pylist(),
                    nation.column("n_name").to_pylist()))


def q_nation_revenue(
    sf_dir: str, cutoff: int = BROADCAST_ROWS_CUTOFF,
) -> "ray.data.Dataset":
    """3-way join orders ⋈ customer ⋈ nation, grouped by nation.
    Customer scales with sf → size-dispatched ``attach_dim`` against
    the per-custkey order totals; nation (fixed 25 rows) folds into
    the customer dim transform as a closure lookup.

    Columns: n_name, n_orders, total_price.
    """
    nname = _nation_name_map(sf_dir)

    def cust_nation(t: pa.Table) -> pa.Table:
        names = [nname.get(nk, "UNKNOWN")
                 for nk in t["c_nationkey"].to_pylist()]
        return pa.table({"c_custkey": t["c_custkey"],
                         "n_name": pa.array(names, type=pa.string())})

    joined = attach_dim(
        _orders_slim(sf_dir), "o_custkey",
        DimSpec(f"{sf_dir}/customer.parquet",
                ["c_custkey", "c_nationkey"], "c_custkey", cust_nation),
        cutoff=cutoff)

    agg2 = keyed_aggregate(joined, "n_name",
                           {"cents": ("price_c", "sum"),
                            "n_orders": ("price_c", "count")})
    return agg2.map_batches(
        lambda t: pa.table({
            "n_name": t["n_name"],
            "n_orders": t["n_orders"],
            "total_price": pc.divide(t["cents"].cast(pa.float64()), 100.0),
        }),
        batch_format="pyarrow",
    )


Q_NATION_SQL = """
SELECT n.n_name,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(floor(o.o_totalprice*100 + 0.5) AS BIGINT)) AS DOUBLE)/100 AS total_price
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
"""


def q_events_hourly(sf_dir: str) -> "ray.data.Dataset":
    """Tumbling-window aggregate (an operator Ray Data lacks natively):
    event-time hour buckets via ``floor_temporal`` + grouped aggregate —
    the streaming-window analogue built as a derived-key groupby.

    Columns: event_type, window_start, n_events, sum_value_c.
    """
    ds = read_pq(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "value"])

    def hours(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "window_start": pc.floor_temporal(t["ts"], unit="hour")
                              .cast(pa.timestamp("us")),
            "value_c": _cents(t["value"]),
        })

    return keyed_aggregate(ds.map_batches(hours, batch_format="pyarrow"),
                           ["event_type", "window_start"],
                           {"n_events": ("value_c", "count"),
                            "sum_value_c": ("value_c", "sum")})


Q_EVENTS_SQL = """
SELECT event_type,
       date_trunc('hour', ts) AS window_start,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(floor(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY 1, 2
"""


def q_lang_source_stats(sf_dir: str) -> pd.DataFrame:
    """Grouped counts + two-stage distinct count (no count-distinct
    aggregate: distinct (lang, source) pairs first, carrying their doc
    and char counts, then one row per lang).

    Columns: lang, n_docs, n_sources, sum_chars.
    """
    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["lang", "source", "n_chars"])
    pairs = keyed_aggregate(ds, ["lang", "source"],
                            {"n": (None, "count_all"), "chars": ("n_chars", "sum")})
    out = keyed_aggregate(pairs, "lang", {"n_docs": ("n", "sum"),
                                          "n_sources": ("source", "count"),
                                          "sum_chars": ("chars", "sum")}).to_pandas()
    return out.sort_values("lang").reset_index(drop=True)


Q_LANG_SOURCE_SQL = """
SELECT lang, COUNT(*) AS n_docs, COUNT(DISTINCT source) AS n_sources,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY 1
"""


def _parquet_rows(path: str) -> int:
    """Row count from the parquet FOOTER only — the broadcast-vs-join
    size dispatch without reading any data pages (not a driver
    materialization)."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(path).metadata.num_rows


def _region_of_nation(sf_dir: str) -> Dict[int, str]:
    """nation→region name map (fixed 25/5 rows at every sf)."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"])
    rname = dict(zip(region.column("r_regionkey").to_pylist(),
                     region.column("r_name").to_pylist()))
    return {nk: rname.get(rk, "UNKNOWN")
            for nk, rk in zip(nation.column("n_nationkey").to_pylist(),
                              nation.column("n_regionkey").to_pylist())}


def _lineitem_slim(sf_dir: str) -> "ray.data.Dataset":
    """(l_partkey, l_suppkey, rev-cents) projection of lineitem.
    revenue cents = floor(ep*(1-disc)*100 + 0.5): same IEEE double
    expression as the oracles -> bit-identical integers."""
    ds = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def slim(t: pa.Table) -> pa.Table:
        rev = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            100.0), 0.5)), pa.int64())
        return pa.table({"l_partkey": t["l_partkey"],
                         "l_suppkey": t["l_suppkey"], "rev": rev})

    return ds.map_batches(slim, batch_format="pyarrow")


def q_region_part_revenue(
    sf_dir: str, cutoff: int = BROADCAST_ROWS_CUTOFF,
) -> "ray.data.Dataset":
    """5-table star join: lineitem ⋈ part (p_type) ⋈ supplier → nation
    → region (r_name), grouped by (r_name, p_type). Part and supplier
    SCALE WITH SF → size-dispatched ``attach_dim`` twice (broadcast
    under the cutoff; above it the fact crosses the partkey exchange
    once, then pre-combined (p_type, suppkey) partials cross the
    suppkey exchange); nation/region are FIXED 25/5 rows → folded into
    the supplier transform. Columns: r_name, p_type, n_items,
    revenue_cents."""
    nregion = _region_of_nation(sf_dir)

    def supp_region(t: pa.Table) -> pa.Table:
        rn = [nregion.get(nk, "UNKNOWN")
              for nk in t["s_nationkey"].to_pylist()]
        return pa.table({"s_suppkey": t["s_suppkey"],
                         "r_name": pa.array(rn, type=pa.string())})

    j1 = attach_dim(
        _lineitem_slim(sf_dir), "l_partkey",
        DimSpec(f"{sf_dir}/part.parquet", ["p_partkey", "p_type"],
                "p_partkey"),
        cutoff=cutoff)

    def type_supp_partial(t: pa.Table) -> pa.Table:
        # combine before the supplier side: |p_type| x |suppliers in
        # batch| rows continue, not one per lineitem
        return (t.select(["p_type", "l_suppkey", "rev"])
                .group_by(["p_type", "l_suppkey"])
                .aggregate([("rev", "sum"), ("rev", "count")]))

    j2 = attach_dim(
        j1.map_batches(type_supp_partial, batch_format="pyarrow"),
        "l_suppkey",
        DimSpec(f"{sf_dir}/supplier.parquet",
                ["s_suppkey", "s_nationkey"], "s_suppkey", supp_region),
        cutoff=cutoff)

    return keyed_aggregate(j2, ["r_name", "p_type"],
                           {"n_items": ("rev_count", "sum"),
                            "revenue_cents": ("rev_sum", "sum")})


Q_REGION_PART_SQL = """
SELECT r_name, p_type,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT))
            AS BIGINT) AS revenue_cents
FROM lineitem
JOIN part ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
JOIN region ON r_regionkey = n_regionkey
GROUP BY 1, 2
"""


Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-06-30"


def q3_shipping_priority(
    sf_dir: str, k: int = 10, cutoff: int = BROADCAST_ROWS_CUTOFF,
) -> "ray.data.Dataset":
    """TPC-H-Q3 shape: top-``k`` unshipped-revenue orders for one
    market segment — the FACT ⋈ FACT join (lineitem ⋈ orders, both
    sf-scaled, both filtered at the read) the rest of the relational
    family doesn't exercise. The customer semi-join side rides
    ``attach_dim`` (broadcast under the cutoff, distributed beyond);
    the orders⋈lineitem join is always a co-partitioned
    ``keyed_join`` — at 100 TB neither side fits anywhere. Revenue
    stays integer cents.
    Columns: l_orderkey, o_orderdate, o_orderpriority, revenue_cents.
    Deterministic order: revenue desc, o_orderdate asc, l_orderkey asc,
    cut by one ``exchange.top_k``.
    """
    import pyarrow.dataset as pads

    date = np.datetime64(Q3_DATE, "us")

    def building_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["c_mktsegment"], Q3_SEGMENT))
        return pa.table({"c_custkey": t["c_custkey"],
                         "seg": pa.array([Q3_SEGMENT] * t.num_rows,
                                         type=pa.string())})

    orders = read_pq(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=pads.field("o_orderdate") < pads.scalar(date),
    )

    def slim_orders(t: pa.Table) -> pa.Table:
        # belt-and-suspenders in-batch filter over the scan pushdown
        return t.filter(pc.less(t["o_orderdate"], pa.scalar(date)))

    # semi-join to the filtered customer dim (attach_dim drops misses)
    o_seg = attach_dim(
        orders.map_batches(slim_orders, batch_format="pyarrow"),
        "o_custkey",
        DimSpec(f"{sf_dir}/customer.parquet",
                ["c_custkey", "c_mktsegment"], "c_custkey", building_only),
        cutoff=cutoff,
    ).drop_columns(["o_custkey", "seg"])

    li = read_pq(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=pads.field("l_shipdate") > pads.scalar(date),
    )

    def slim_li(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], pa.scalar(date)))
        rev = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            100.0), 0.5)), pa.int64())
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    joined = keyed_join(li.map_batches(slim_li, batch_format="pyarrow"),
                        o_seg, "l_orderkey", right_on="o_orderkey")

    # final rollup is by the INT orderkey only (date/priority are
    # functionally dependent — carried as group min), then one global
    # top-k over the per-order revenue
    agg = keyed_aggregate(joined, "l_orderkey",
                          {"o_orderdate": ("o_orderdate", "min"),
                           "o_orderpriority": ("o_orderpriority", "min"),
                           "revenue_cents": ("rev", "sum")})
    return top_k(agg, ["revenue_cents", "o_orderdate", "l_orderkey"], k,
                 descending=[True, False, False])


def q3_sql(k: int = 10) -> str:
    return f"""
SELECT l_orderkey, o_orderdate, o_orderpriority,
       CAST(SUM(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5)
                AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON c_custkey = o_custkey
WHERE c_mktsegment = '{Q3_SEGMENT}'
  AND o_orderdate < TIMESTAMP '{Q3_DATE}'
  AND l_shipdate > TIMESTAMP '{Q3_DATE}'
GROUP BY 1, 2, 3
ORDER BY revenue_cents DESC, o_orderdate ASC, l_orderkey ASC
LIMIT {int(k)}
"""


Q3_SHIPPING_SQL = q3_sql()


def q_daily_active_users(sf_dir: str) -> "ray.data.Dataset":
    """Exact distinct-count: daily active users + event counts. A keyed
    (day, user) count makes the pairs unique, then a keyed count per
    day counts them. Columns: day, dau, n_events."""
    import pandas as pd

    ds = read_pq(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def days(t: pa.Table) -> pa.Table:
        day = pd.Series(t["ts"].to_pandas()).dt.strftime("%Y-%m-%d")
        return pa.table({"day": pa.array(day, type=pa.string()),
                         "user_id": t["user_id"]})

    uniq = keyed_aggregate(ds.map_batches(days, batch_format="pyarrow"),
                           ["day", "user_id"], {"n": (None, "count_all")})
    return keyed_aggregate(uniq, "day", {"dau": ("user_id", "count"),
                                         "n_events": ("n", "sum")})


Q_DAU_SQL = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       COUNT(DISTINCT user_id) AS dau,
       COUNT(*) AS n_events
FROM events GROUP BY 1
"""


def q_top_parts_per_nation(
    sf_dir: str, k: int = 3, cutoff: int = BROADCAST_ROWS_CUTOFF,
) -> "ray.data.Dataset":
    """Grouped top-k: each supplier nation's top-``k`` parts by revenue.
    Size-dispatched supplier⋈nation lookup, one keyed aggregate on
    (nationkey, partkey), a per-block top-k per nation (every key lands
    whole in one block) and one ``exchange.gather`` of the candidates
    for the final top-k.
    Deterministic tie-break (revenue desc, partkey asc).
    Columns: n_name, l_partkey, revenue_cents, rk."""
    import pandas as pd

    # nation is constant-25-rows: folded in at the very END (the
    # shuffle key stays ints); supplier SCALES with sf ->
    # size-dispatched attach_dim
    nname = _nation_name_map(sf_dir)

    def supp_nation(t: pa.Table) -> pa.Table:
        return pa.table({"s_suppkey": t["s_suppkey"],
                         "nat": t["s_nationkey"].cast(pa.int64())})

    joined = attach_dim(
        _lineitem_slim(sf_dir), "l_suppkey",
        DimSpec(f"{sf_dir}/supplier.parquet",
                ["s_suppkey", "s_nationkey"], "s_suppkey", supp_nation),
        cutoff=cutoff)

    agg = keyed_aggregate(joined, ["nat", "l_partkey"],
                          {"revenue_cents": ("rev", "sum")})

    def local_topk(t: pa.Table) -> pa.Table:
        # a tiny candidate superset: <= 25*k rows leave each block
        df = t.to_pandas().sort_values(["nat", "revenue_cents", "l_partkey"],
                                       ascending=[True, False, True])
        return pa.Table.from_pandas(df.groupby("nat", sort=False).head(k),
                                    schema=t.schema, preserve_index=False
                                    ).replace_schema_metadata()

    cand = agg.map_batches(local_topk, batch_size=None, batch_format="pyarrow")

    def final_topk(t: pa.Table) -> pa.Table:
        g = t.to_pandas().sort_values(
            ["nat", "revenue_cents", "l_partkey"],
            ascending=[True, False, True])
        g = g.groupby("nat", sort=False).head(k)
        g["rk"] = g.groupby("nat", sort=False).cumcount() + 1
        names = [nname.get(int(x), "UNKNOWN") for x in g["nat"]]
        return pa.table({
            "n_name": pa.array(names, type=pa.string()),
            "l_partkey": pa.array(g["l_partkey"].to_numpy(), type=pa.int64()),
            "revenue_cents": pa.array(g["revenue_cents"].to_numpy(),
                                      type=pa.int64()),
            "rk": pa.array(g["rk"].to_numpy(), type=pa.int64()),
        })

    # candidates are <= blocks*25*k slim int rows: one tiny fold
    return gather(cand, final_topk)


def top_parts_per_nation_sql(k: int = 3) -> str:
    """Oracle SQL for ``q_top_parts_per_nation`` at the same ``k`` —
    parameters interpolate here so operator and oracle cannot desync."""
    return f"""
SELECT n_name, l_partkey, revenue_cents, rk FROM (
  SELECT n_name, l_partkey, revenue_cents,
         row_number() OVER (PARTITION BY n_name
                            ORDER BY revenue_cents DESC, l_partkey ASC) AS rk
  FROM (
    SELECT n_name, l_partkey,
           CAST(SUM(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT))
                AS BIGINT) AS revenue_cents
    FROM lineitem
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN nation ON n_nationkey = s_nationkey
    GROUP BY 1, 2
  )
) WHERE rk <= {int(k)}
"""


Q_TOP_PARTS_PER_NATION_SQL = top_parts_per_nation_sql()
