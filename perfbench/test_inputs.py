"""Tests of the benchmark's seeded inputs and output checks.

    python3 -m pytest perfbench -q      # from the repository root
"""

from __future__ import annotations

import json
import os
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer, parse_stats  # noqa: E402


def _corpus_bytes(root: str, seed: int) -> dict:
    ids = inputs.pick_doc_ids(40)
    path = inputs.pages_corpus(root, seed, ids, 2, tag="t")
    return {n: open(os.path.join(path, n), "rb").read()
            for n in sorted(os.listdir(path)) if n.endswith(".parquet")}


def test_pages_corpus_same_seed_same_bytes(tmp_path):
    a = _corpus_bytes(str(tmp_path / "a"), 5)
    b = _corpus_bytes(str(tmp_path / "b"), 5)
    assert a and a == b


def test_pages_corpus_other_seed_other_bytes(tmp_path):
    assert _corpus_bytes(str(tmp_path / "a"), 5) != _corpus_bytes(str(tmp_path / "b"), 6)


def test_sf_tables_seeded():
    a, b, c = (inputs.sf_tables(s, 0.001) for s in (3, 3, 4))
    assert set(a) == {"region", "nation", "customer", "supplier", "part", "orders",
                      "lineitem", "events", "documents", "embeddings"}
    assert all(a[t].equals(b[t]) for t in a)
    assert not a["lineitem"].equals(c["lineitem"])
    assert not a["documents"].equals(c["documents"])


def test_sf_tables_match_testdata_schemas():
    """Same column names and types as the repository's sf test tables."""
    t = inputs.sf_tables(1, 0.001)
    assert t["lineitem"].schema.field("l_shipdate").type == pa.timestamp("us")
    assert t["orders"].schema.field("o_custkey").type == pa.int64()
    assert t["customer"].column_names == [
        "c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"]
    assert t["documents"].column_names == ["doc_id", "text", "lang", "source", "n_chars"]


def test_non_html_pick_uses_fixture_classes():
    from deed_ocr_ray.fixtures import class_of

    ids = inputs.pick_doc_ids(50, inputs.NON_HTML_CLASSES)
    assert len(ids) == 50 and len(set(ids)) == 50
    assert {class_of(d) for d in ids} <= inputs.NON_HTML_CLASSES


def test_compare_counts_missing_changed_and_extra_docs():
    ref = pa.table({"url": ["a", "b", "c"], "ts": ["1", "1", "1"], "h": ["x", "y", "z"]})
    assert check.compare(ref, ref)[0] == 0
    got = pa.table({"url": ["a", "b", "d"], "ts": ["1", "1", "1"], "h": ["x", "Y", "w"]})
    assert check.compare(got, ref)[0] == 3  # b changed, c missing, d extra
    assert check.compare(got.slice(0, 1), ref, subset=True)[0] == 0
    assert check.digest(ref) != check.digest(got)


def test_table_hashes_cover_text_spans_and_fields():
    from deed_ocr_ray.stages.extract import extract_table

    tbl = extract_table(_tiny_pages())
    base = check.table_hashes(tbl)
    texts = tbl["extracted_text"].to_pylist()
    texts[0] = texts[0] + "!"
    changed = tbl.set_column(tbl.schema.get_field_index("extracted_text"),
                             tbl.schema.field("extracted_text"),
                             pa.array(texts, type=tbl.schema.field("extracted_text").type))
    assert check.compare(check.table_hashes(changed), base)[0] == 1


def _tiny_pages() -> pa.Table:
    from deed_ocr_ray.fixtures import build_pages_table

    return build_pages_table(2, range(12), inputs.GIANT_BYTES)


def test_parse_stats_reads_operator_lines():
    text = (
        "Operator 1 ReadParquet->SplitBlocks(2): 8 tasks executed, 16 blocks produced in 0.95s\n"
        "* Remote wall time: 10ms min, 200ms max, 55ms mean, 880.5ms total\n"
        "* Output num rows per block: 10 min, 300 max, 100 mean, 1600 total\n"
        "* Output size bytes per block: 1 min, 9 max, 5 mean, 4096 total\n"
        "Operator 2 MapBatches(Extractor): 4 tasks executed, 16 blocks produced in 3.1s\n"
        "* Remote wall time: 1.5s min, 2.5s max, 2s mean, 8.02s total\n"
        "\n"
        "Operator 3 Aggregate: executed in 2.52s\n"
        "\n"
        "\tSuboperator 0 AggregateMap: 1 tasks executed, 8 blocks produced\n"
        "\t* Remote wall time: 4.91ms min, 295.64ms max, 75.59ms mean, 604.74ms total\n"
        "\t* Output num rows per block: 29 min, 29 max, 29 mean, 232 total\n"
        "\tSuboperator 1 AggregateReduce: 1 tasks executed, 8 blocks produced\n"
        "\t* Remote wall time: 1.31ms min, 9.19ms max, 4.03ms mean, 32.24ms total\n"
        "\t* Output num rows per block: 2 min, 6 max, 3 mean, 29 total\n"
    )
    ops = parse_stats(text)
    assert [o["name"] for o in ops] == [
        "ReadParquet->SplitBlocks(2)", "MapBatches(Extractor)", "Aggregate"]
    assert ops[0]["op_wall_s"] == 0.95
    assert ops[0]["task_wall_s"] == pytest.approx(0.8805)
    assert ops[0]["rows"] == 1600 and ops[0]["bytes"] == 4096
    assert ops[0]["block_skew"] == 3.0
    assert ops[1]["task_wall_s"] == pytest.approx(8.02)
    agg = ops[2]
    assert agg["op_wall_s"] == 2.52 and agg["rows"] == 29 and agg["block_skew"] == 2.0
    assert agg["task_wall_s"] == pytest.approx(0.60474 + 0.03224)


def test_tracer_restores_and_nests():
    class Box:
        @staticmethod
        def f(x):
            return x + 1

    tr = Tracer()
    orig = Box.f
    tr.wrap(Box, "f")
    with tr.span("root"):
        assert Box.f(1) == 2
    tr.close()
    assert Box.f is orig
    root, child = tr.spans
    assert root["parent"] is None and child["parent"] == root["id"]
    assert json.dumps(tr.spans)
