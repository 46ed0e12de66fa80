"""Edge-case tests for the window/as-of/session operators on CRAFTED
tables (exact timestamp ties, gap-boundary values, singleton keys) —
cases the random testdata essentially never produces — cross-checked
against DuckDB running the operator's own oracle SQL on the same files.
"""

import datetime as dt

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

T0 = dt.datetime(2024, 1, 1, 12, 0, 0)
MIN = dt.timedelta(minutes=1)
US = dt.timedelta(microseconds=1)


@pytest.fixture(scope="module")
def crafted_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("crafted_sf")
    # events: user 1 -> exact-tie pair at T0, gap exactly 30 min (same
    # session), then 30 min + 1 us (new session); user 2 -> singleton;
    # user 3 -> duplicated (user, ts) triple at one instant
    rows = [
        (1, 1, T0), (2, 1, T0),                       # tie at T0
        (3, 1, T0 + 30 * MIN),                        # gap == 30min: SAME session
        (4, 1, T0 + 60 * MIN + US),                   # gap 30min + 1us: NEW session
        (5, 2, T0 + 5 * MIN),                         # singleton user
        (6, 3, T0), (7, 3, T0), (8, 3, T0),           # triple tie
    ]
    events = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
        "event_type": pa.array(["x"] * len(rows), type=pa.string()),
        "value": pa.array([1.0] * len(rows), type=pa.float64()),
        "props": pa.array(["{}"] * len(rows), type=pa.string()),
    })
    pq.write_table(events, str(d / "events.parquet"))

    # orders: o_orderdate EQUAL to an event ts (as-of must include ties),
    # before any event, and a customer with no events (user 99)
    orows = [
        (10, 1, T0),                 # equals the tie instant: 2 events <=
        (11, 1, T0 - MIN),           # before any event: no match
        (12, 3, T0 + MIN),           # after the triple: 3 events <=
        (13, 99, T0),                # user with no events at all
    ]
    orders = pa.table({
        "o_orderkey": pa.array([r[0] for r in orows], type=pa.int64()),
        "o_custkey": pa.array([r[1] for r in orows], type=pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(orows), type=pa.string()),
        "o_totalprice": pa.array([100.005, 0.004, 99.995, 10.0], type=pa.float64()),
        "o_orderdate": pa.array([r[2] for r in orows], type=pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * len(orows), type=pa.string()),
    })
    pq.write_table(orders, str(d / "orders.parquet"))
    return str(d)


def _oracle(sql: str, crafted_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{crafted_dir}/{t}.parquet')")
    return con.execute(sql).fetchdf()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(sorted(df.columns)).reset_index(drop=True)


def test_sessionize_tie_and_boundary_semantics(ray_session, crafted_dir):
    from deed_ocr_ray.pipelines import windows

    got = _canon(windows.q_sessionize(crafted_dir).to_pandas())
    want = _canon(_oracle(windows.Q_SESSIONIZE_SQL, crafted_dir))
    pd.testing.assert_frame_equal(got, want)
    # user 1: events at T0(x2), +30min, +60min+1us -> sessions {3 events, 1 event}
    u1 = got[got["user_id"] == 1].sort_values("session_id")
    assert list(u1["n_events"]) == [3, 1]


@pytest.fixture(scope="module")
def crafted_ship_dir(tmp_path_factory):
    """Orders + lineitem shipments around the 60-day as-of probe and
    the 90-day range window: exact boundary instants, an order with no
    lineitems, and a same-instant shipment tie."""
    d = tmp_path_factory.mktemp("crafted_ship")
    DAY = dt.timedelta(days=1)
    orows = [(10, T0), (11, T0), (12, T0), (13, T0)]
    orders = pa.table({
        "o_orderkey": pa.array([r[0] for r in orows], type=pa.int64()),
        "o_custkey": pa.array([1] * len(orows), type=pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(orows), type=pa.string()),
        "o_totalprice": pa.array([10.0] * len(orows), type=pa.float64()),
        "o_orderdate": pa.array([r[1] for r in orows], type=pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * len(orows), type=pa.string()),
    })
    lrows = [
        # order 10: ship exactly AT +60d (asof includes), +60d+1us (excluded),
        # and exactly AT +90d (range EXCLUDES the half-open end)
        (10, T0 + 60 * DAY), (10, T0 + 60 * DAY + US), (10, T0 + 90 * DAY),
        # order 11: same-instant double shipment before the probe
        (11, T0 + 5 * DAY), (11, T0 + 5 * DAY),
        # order 12: first ship only after both windows
        (12, T0 + 200 * DAY),
        # order 13: no lineitems at all
    ]
    lineitem = pa.table({
        "l_orderkey": pa.array([r[0] for r in lrows], type=pa.int64()),
        "l_partkey": pa.array([1] * len(lrows), type=pa.int64()),
        "l_suppkey": pa.array([1] * len(lrows), type=pa.int64()),
        "l_linenumber": pa.array(range(1, len(lrows) + 1), type=pa.int32()),
        "l_quantity": pa.array([1.0] * len(lrows), type=pa.float64()),
        "l_extendedprice": pa.array([1.0] * len(lrows), type=pa.float64()),
        "l_discount": pa.array([0.0] * len(lrows), type=pa.float64()),
        "l_tax": pa.array([0.0] * len(lrows), type=pa.float64()),
        "l_returnflag": pa.array(["N"] * len(lrows), type=pa.string()),
        "l_linestatus": pa.array(["O"] * len(lrows), type=pa.string()),
        "l_shipdate": pa.array([r[1] for r in lrows], type=pa.timestamp("us")),
    })
    pq.write_table(orders, str(d / "orders.parquet"))
    pq.write_table(lineitem, str(d / "lineitem.parquet"))
    return str(d)


def _ship_oracle(sql: str, d: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{d}/{t}.parquet')")
    return con.execute(sql).fetchdf()


def test_asof_ship_includes_exact_tie_and_handles_no_match(
        ray_session, crafted_ship_dir):
    from deed_ocr_ray.pipelines import windows

    got = _canon(windows.q_asof_last_ship(crafted_ship_dir).to_pandas())
    want = _canon(_ship_oracle(windows.Q_ASOF_SQL, crafted_ship_dir))
    pd.testing.assert_frame_equal(got, want)
    by_key = got.set_index("o_orderkey")
    assert by_key.loc[10, "n_shipped"] == 1        # AT +60d counts, +1us not
    assert by_key.loc[11, "n_shipped"] == 2        # same-instant tie: both
    assert by_key.loc[12, "n_shipped"] == 0        # first ship after probe
    assert pd.isna(by_key.loc[12, "last_ship_ts"])
    assert by_key.loc[13, "n_shipped"] == 0        # order with no lineitems


def test_range_join_ship_half_open_window(ray_session, crafted_ship_dir):
    from deed_ocr_ray.pipelines import windows

    got = _canon(windows.q_range_join_ship(crafted_ship_dir).to_pandas())
    want = _canon(_ship_oracle(windows.Q_RANGE_JOIN_SQL, crafted_ship_dir))
    pd.testing.assert_frame_equal(got, want)
    by_key = got.set_index("o_orderkey")
    # order 10: +60d and +60d+1us are in [T0, T0+90d); AT +90d is NOT
    assert by_key.loc[10, "n_ship_window"] == 2
    assert by_key.loc[11, "n_ship_window"] == 2
    assert by_key.loc[12, "n_ship_window"] == 0
    assert pd.isna(by_key.loc[12, "first_ship_ts"])
    assert by_key.loc[13, "n_ship_window"] == 0


def test_running_total_rounding_at_half_cent(ray_session, crafted_dir):
    from deed_ocr_ray.pipelines import windows

    got = _canon(windows.q_running_total(crafted_dir).to_pandas())
    want = _canon(_oracle(windows.Q_RUNNING_TOTAL_SQL, crafted_dir))
    pd.testing.assert_frame_equal(got, want)


@pytest.fixture(scope="module")
def crafted_docs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("crafted_docs")
    texts = [
        "clean text with no marks",
        "UNOFFICIAL COPY leading watermark",
        "doubled UNOFFICIAL COPY UNOFFICIAL COPY middle",
        "partial UNO fragment and UNOwned words",
        "spaces   collapse    here",
        "lines\n\n\n\ncollapse\n \n \n here",
        "  strip ends  ",
        "UNO",        # whole text is a watermark fragment
        "",           # empty
        "mixed UNOFFICIAL COPY and   runs\n\n\n\nand UNO bits",
    ]
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * len(texts), type=pa.string()),
        "source": pa.array(["crafted"] * len(texts), type=pa.string()),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })
    pq.write_table(docs, str(d / "documents.parquet"))
    return str(d)


def _docs_oracle(sql: str, crafted_docs_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{crafted_docs_dir}/documents.parquet')")
    return con.execute(sql).fetchdf()


def test_doc_normalize_watermark_branch(ray_session, crafted_docs_dir):
    """The watermark/whitespace branches of the normalize oracle are
    never hit by the random corpus — exercise them on crafted text and
    against the reference-semantics Python normalizer directly."""
    from deed_ocr_ray.functions.normalize import normalize_text
    from deed_ocr_ray.pipelines import textops

    got = _canon(textops.q_doc_normalize(crafted_docs_dir).to_pandas())
    want = _canon(_docs_oracle(textops.Q_NORMALIZE_SQL, crafted_docs_dir))
    pd.testing.assert_frame_equal(got, want)
    # spot semantics vs the pure function
    assert normalize_text("UNOFFICIAL COPY leading watermark") == "leading watermark"
    assert normalize_text("partial UNO fragment and UNOwned words") == \
        "partial fragment and wned words"  # bare-UNO replace is observable
    assert normalize_text("UNO") == ""


# ------------------------------------------------- event transitions

def test_event_transitions_tie_order_and_user_boundary(ray_session, tmp_path):
    """Ties on ts break by event_id; no transition crosses users;
    single-event users emit nothing."""
    from deed_ocr_ray.pipelines import windows

    rows = [
        # user 1: a -> b (tie at T0, ordered by event_id) -> c
        (1, 1, T0, "a"), (2, 1, T0, "b"), (3, 1, T0 + MIN, "c"),
        # user 2: singleton, no transitions
        (4, 2, T0, "z"),
        # user 3: c -> a  (would wrongly chain into user 1 if the
        # boundary mask were missing)
        (5, 3, T0, "c"), (6, 3, T0 + MIN, "a"),
    ]
    events = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[3] for r in rows], type=pa.string()),
        "value": pa.array([1.0] * len(rows), type=pa.float64()),
        "props": pa.array(["{}"] * len(rows), type=pa.string()),
    })
    pq.write_table(events, str(tmp_path / "events.parquet"))

    got = _canon(windows.q_event_transitions(str(tmp_path)).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = _canon(con.execute(windows.Q_EVENT_TRANSITIONS_SQL).fetchdf())
    pd.testing.assert_frame_equal(got, want)
    pairs = {(r.src, r.dst): r.n for r in got.itertuples()}
    assert pairs == {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1}


# ------------------------------------------------ anti join (left outer)

def test_customers_no_orders_without_big_orders(ray_session, tmp_path):
    """No order passes the BIG_ORDER filter, so the anti-join's right
    side is all typed-empty blocks: every customer comes back. (Ray's
    ``Dataset.join`` failed here with "No match ... for key field".)"""
    from deed_ocr_ray.pipelines import windows

    cust = pa.table({
        "c_custkey": pa.array([1, 2, 3], type=pa.int64()),
        "c_name": pa.array(["one", "two", "three"], type=pa.string()),
    })
    orders = pa.table({
        "o_custkey": pa.array([1, 1, 3], type=pa.int64()),
        "o_totalprice": pa.array([10.0, 20.0, windows.BIG_ORDER], type=pa.float64()),
    })
    pq.write_table(cust, str(tmp_path / "customer.parquet"))
    pq.write_table(orders, str(tmp_path / "orders.parquet"))

    got = windows.q_customers_no_orders(str(tmp_path)).to_pandas()
    assert sorted(zip(got["c_custkey"], got["c_name"])) == [
        (1, "one"), (2, "two"), (3, "three")]


# ------------------------------------------------ customer LTV (left join)

def test_customer_ltv_zero_fill_and_rounding(ray_session, tmp_path):
    """Customers with no orders appear with 0/0; half-cent prices round
    away from zero like the oracle."""
    from deed_ocr_ray.pipelines import windows

    cust = pa.table({
        "c_custkey": pa.array([1, 2, 3], type=pa.int64()),
        "c_name": pa.array(["one", "two", "three"], type=pa.string()),
    })
    orders = pa.table({
        "o_orderkey": pa.array([10, 11, 12], type=pa.int64()),
        "o_custkey": pa.array([1, 1, 3], type=pa.int64()),
        "o_totalprice": pa.array([100.005, 0.004, 99.995], type=pa.float64()),
    })
    pq.write_table(cust, str(tmp_path / "customer.parquet"))
    pq.write_table(orders, str(tmp_path / "orders.parquet"))

    got = _canon(windows.q_customer_ltv(str(tmp_path)).to_pandas())
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    want = _canon(con.execute(windows.Q_CUSTOMER_LTV_SQL).fetchdf())
    pd.testing.assert_frame_equal(got, want)
    by = got.set_index("c_custkey")
    assert by.loc[2, "n_orders"] == 0 and by.loc[2, "ltv_cents"] == 0
    assert by.loc[1, "n_orders"] == 2
