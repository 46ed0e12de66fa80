"""Seeded input generation for the benchmark.

Every input is a pure function of ``(seed, size, FIXTURES_VERSION)``:

* pages corpora come from ``deed_ocr_ray.fixtures`` (the FIXTURES.md
  generator), written as parquet shards of contiguous doc ids;
* the TPC-H-like star schema plus ``events`` and ``documents`` tables
  that the exchange queries read are generated here with NumPy, with the
  same schemas and value domains as the repository's ``sf*`` test tables
  (TESTDATA.md).

Inputs are cached under a directory named by that key, so phases of one
run (2-CPU and 4-CPU sessions, cold and resumed jobs) read the same
bytes. ``run.py`` removes the cache with the run's work dir, so that
every run pays the same generation cost in ``setup_s``.
"""

from __future__ import annotations

import os
from datetime import datetime
from typing import List, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from deed_ocr_ray.fixtures import build_pages_table, class_of
from deed_ocr_ray.pipelines.corpus import FIXTURES_VERSION

# payload bytes of the FIXTURES "giant" class; 64 KiB (the sf_test value)
# keeps the 2% giant rows from dominating a few-thousand-doc corpus
GIANT_BYTES = 65536

NON_HTML_CLASSES = frozenset(
    ["pdf_min", "pdf_truncated", "text_only", "empty", "binary_junk"])


def _complete(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_COMPLETE"))


def _mark_complete(path: str) -> None:
    with open(os.path.join(path, "_COMPLETE"), "w") as f:
        f.write("ok")


def pick_doc_ids(n_docs: int, classes: "frozenset[str] | None" = None) -> List[int]:
    """The first ``n_docs`` doc ids, optionally limited to ``classes``
    (FIXTURES class names, via ``fixtures.class_of``)."""
    if classes is None:
        return list(range(n_docs))
    out: List[int] = []
    d = 0
    while len(out) < n_docs:
        if class_of(d) in classes:
            out.append(d)
        d += 1
    return out


def pages_corpus(root: str, seed: int, doc_ids: Sequence[int], n_shards: int,
                 tag: str) -> str:
    """Write (once per key) a pages corpus of ``doc_ids`` in ``n_shards``
    parquet files; return its directory."""
    out = os.path.join(
        root, f"pages_{tag}_s{seed}_n{len(doc_ids)}_k{n_shards}_v{FIXTURES_VERSION}")
    if _complete(out):
        return out
    os.makedirs(out, exist_ok=True)
    bounds = [round(i * len(doc_ids) / n_shards) for i in range(n_shards + 1)]
    for i in range(n_shards):
        tbl = build_pages_table(seed, doc_ids[bounds[i]:bounds[i + 1]], GIANT_BYTES)
        pq.write_table(tbl, os.path.join(out, f"shard_{i:04d}.parquet"))
    _mark_complete(out)
    return out


def read_corpus(path: str) -> pa.Table:
    """The whole corpus as one table, in shard (= doc id) order."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".parquet"))
    return pa.concat_tables(pq.read_table(os.path.join(path, n)) for n in names)


# ------------------------------------------------------------ sf tables

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
DOC_LANGS = ["de", "en", "es", "fr", "ja", "ru", "zh"]
DOC_WORDS = (
    "a the key agg row scan slow fast table value part hash merge batch "
    "spark line sort window order data column join small customer query "
    "group stream filter big"
).split()
PART_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL"]
PART_WORDS = ["small", "red", "blue", "green", "large"]
PART_NOUNS = ["ring", "widget", "bolt", "gear", "valve"]

_DAY_US = 86_400 * 1_000_000
_ORDER_EPOCH = datetime(1995, 1, 1)
_EVENT_EPOCH = datetime(2024, 1, 1)


def _ts(epoch: datetime, offsets_us: np.ndarray) -> pa.Array:
    base = int((epoch - datetime(1970, 1, 1)).total_seconds()) * 1_000_000
    return pa.array(base + offsets_us.astype(np.int64), type=pa.timestamp("us"))


def _cents(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def sf_tables(seed: int, sf: float) -> "dict[str, pa.Table]":
    """The ten-table schema the exchange queries read, scaled like the
    repository's test tables (sf=0.1: 600k lineitem, 5k documents)."""
    rng = np.random.default_rng([seed, 7001])
    n_cust, n_supp, n_part = int(150_000 * sf), int(10_000 * sf), int(200_000 * sf)
    n_ord, n_ev, n_doc = int(1_500_000 * sf), int(1_000_000 * sf), int(50_000 * sf)
    n_users = max(10, int(15_000 * sf))

    region = pa.table({
        "r_regionkey": pa.array(range(5), type=pa.int32()),
        "r_name": REGIONS,
    })
    nation = pa.table({
        "n_nationkey": pa.array(range(25), type=pa.int32()),
        "n_name": [f"NATION_{i}" for i in range(25)],
        "n_regionkey": pa.array([i % 5 for i in range(25)], type=pa.int32()),
    })
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n_cust), type=pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), type=pa.int32()),
        "c_acctbal": _cents(rng, -999.99, 9999.99, n_cust),
        "c_mktsegment": pa.array(np.array(SEGMENTS)[rng.integers(0, 5, n_cust)]),
    })
    supplier = pa.table({
        "s_suppkey": pa.array(np.arange(n_supp), type=pa.int64()),
        "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp), type=pa.int32()),
        "s_acctbal": _cents(rng, -999.99, 9999.99, n_supp),
    })
    pw = np.array(PART_WORDS)[rng.integers(0, 5, n_part)]
    pn = np.array(PART_NOUNS)[rng.integers(0, 5, n_part)]
    part = pa.table({
        "p_partkey": pa.array(np.arange(n_part), type=pa.int64()),
        "p_name": pa.array(np.char.add(np.char.add(pw, " "), pn)),
        "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, n_part)],
        "p_type": pa.array(np.array(PART_TYPES)[rng.integers(0, 5, n_part)]),
        "p_size": pa.array(rng.integers(1, 51, n_part), type=pa.int32()),
        "p_retailprice": np.round(900.0 + (np.arange(n_part) % 1000) * 0.1, 2),
    })
    # orders span 1995-01-01 .. 2001-08-01; q3's 1998-06-30 cut falls inside
    o_day = rng.integers(0, 2404, n_ord)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), type=pa.int64()),
        # a tenth of the customers never order (customer_ltv's zero rows)
        "o_custkey": pa.array(rng.integers(0, max(1, n_cust * 9 // 10), n_ord),
                              type=pa.int64()),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)]),
        "o_totalprice": _cents(rng, 1000.0, 500_000.0, n_ord),
        "o_orderdate": _ts(_ORDER_EPOCH, o_day * _DAY_US),
        "o_orderpriority": pa.array(np.array(PRIORITIES)[rng.integers(0, 5, n_ord)]),
    })
    lines = rng.integers(1, 8, n_ord)
    l_order = np.repeat(np.arange(n_ord), lines)
    n_li = len(l_order)
    starts = np.cumsum(lines) - lines
    l_linenumber = np.arange(n_li) - np.repeat(starts, lines) + 1
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    lineitem = pa.table({
        "l_orderkey": pa.array(l_order, type=pa.int64()),
        "l_partkey": pa.array(rng.integers(0, n_part, n_li), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_li), type=pa.int64()),
        "l_linenumber": pa.array(l_linenumber, type=pa.int32()),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900.0, 2100.0, n_li), 2),
        "l_discount": np.round(rng.integers(0, 11, n_li) / 100.0, 2),
        "l_tax": np.round(rng.integers(0, 9, n_li) / 100.0, 2),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_li)]),
        # most lines ship within 121 days of the order, some much later
        "l_shipdate": _ts(_ORDER_EPOCH, (o_day[l_order] + np.where(
            rng.random(n_li) < 0.9, rng.integers(1, 122, n_li),
            rng.integers(122, 900, n_li))) * _DAY_US),
    })
    ev_off = np.sort(rng.integers(0, 30 * _DAY_US, n_ev))
    events = pa.table({
        "event_id": pa.array(np.arange(n_ev), type=pa.int64()),
        "ts": _ts(_EVENT_EPOCH, ev_off),
        "user_id": pa.array(rng.integers(0, n_users, n_ev), type=pa.int64()),
        "event_type": pa.array(np.array(EVENT_TYPES)[rng.integers(0, 5, n_ev)]),
        "value": _cents(rng, 0.01, 490.0, n_ev),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)],
    })
    texts = []
    words = np.array(DOC_WORDS)
    lengths = rng.integers(8, 90, n_doc)
    for i in range(n_doc):
        if i > 0 and rng.random() < 0.05:  # exact duplicates for exact_dedup
            texts.append(texts[int(rng.integers(0, i))])
        else:
            texts.append(" ".join(words[rng.integers(0, len(words), lengths[i])]))
    documents = pa.table({
        "doc_id": pa.array(np.arange(n_doc), type=pa.int64()),
        "text": texts,
        "lang": pa.array(np.array(DOC_LANGS)[rng.integers(0, len(DOC_LANGS), n_doc)]),
        "source": [f"src{s}" for s in rng.integers(0, 20, n_doc)],
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })
    dim = 16
    embeddings = pa.table({
        "vec_id": pa.array(np.arange(n_doc), type=pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(rng.standard_normal(n_doc * dim).astype(np.float32)), dim
        ).cast(pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n_doc), type=pa.int32()),
    })
    return {
        "region": region, "nation": nation, "customer": customer,
        "supplier": supplier, "part": part, "orders": orders,
        "lineitem": lineitem, "events": events, "documents": documents,
        "embeddings": embeddings,
    }


def sf_dir(root: str, seed: int, sf: float) -> str:
    """Write (once per key) the sf tables; return the directory, laid
    out like the test-table dirs (one ``<table>.parquet`` each)."""
    out = os.path.join(root, f"sf{sf:g}_s{seed}_v{FIXTURES_VERSION}")
    if _complete(out):
        return out
    os.makedirs(out, exist_ok=True)
    for name, tbl in sf_tables(seed, sf).items():
        pq.write_table(tbl, os.path.join(out, f"{name}.parquet"))
    _mark_complete(out)
    return out
