"""Output checks: per-document hashes of the extraction output, compared
with a serial ``extract_table`` reference.

A document's hash covers ``extracted_text``, ``spans`` and ``fields``;
documents are keyed by ``(url, warc_ts)``, which is unique in the
corpus (duplicate urls differ in ``warc_ts``). The run digest is the
hash of all document hashes in key order, so one digest identifies one
output regardless of partitioning or CPU count.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Tuple

import duckdb
import pyarrow as pa

_ROW_HASH = ("md5(concat_ws(chr(31), extracted_text, CAST(spans AS VARCHAR), "
             "CAST(fields AS VARCHAR)))")


def _hash_query(source: str) -> str:
    return (f"SELECT url, CAST(warc_ts AS VARCHAR) AS ts, {_ROW_HASH} AS h "
            f"FROM {source} ORDER BY url, ts")


def table_hashes(tbl: pa.Table) -> pa.Table:
    """``(url, ts, h)`` for an in-memory extraction table."""
    con = duckdb.connect()
    con.register("t", tbl)
    return con.execute(_hash_query("t")).fetch_arrow_table()


def output_hashes(out_dir: str) -> pa.Table:
    """``(url, ts, h)`` for a hive-partitioned extraction output dir."""
    glob = os.path.join(out_dir, "part_id=*", "*.parquet")
    con = duckdb.connect()
    return con.execute(_hash_query(
        f"read_parquet('{glob}', hive_partitioning=false)")).fetch_arrow_table()


def digest(hashes: pa.Table) -> str:
    h = hashlib.sha256()
    for u, ts, d in zip(hashes["url"].to_pylist(), hashes["ts"].to_pylist(),
                        hashes["h"].to_pylist()):
        h.update(f"{u}\t{ts}\t{d}\n".encode())
    return h.hexdigest()[:16]


def compare(got: pa.Table, ref: pa.Table, subset: bool = False) -> Tuple[int, str]:
    """(failed documents, digest of ``got``). A reference document fails
    when it is missing from ``got`` or its hash differs; a document that
    is not in the reference also counts as one failure. With ``subset``,
    ``got`` covers only some reference documents and only those count."""
    want: Dict[Tuple[str, str], str] = dict(zip(
        zip(ref["url"].to_pylist(), ref["ts"].to_pylist()), ref["h"].to_pylist()))
    have: Dict[Tuple[str, str], str] = dict(zip(
        zip(got["url"].to_pylist(), got["ts"].to_pylist()), got["h"].to_pylist()))
    if subset:
        failed = sum(1 for k, v in have.items() if want.get(k) != v)
    else:
        failed = sum(1 for k, v in want.items() if have.get(k) != v)
        failed += sum(1 for k in have if k not in want)
    failed += got.num_rows - len(have)  # duplicated keys
    return failed, digest(got)
