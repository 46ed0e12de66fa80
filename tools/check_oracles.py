"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry against ``oracle_sql()`` via DuckDB on
the same parquet tables: row count, sorted column names, and an
order-insensitive value hash (rows rendered with repr, sorted). Usage:

    python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    assert isinstance(res, pd.DataFrame)
    return res


def value_hash(df) -> str:
    import hashlib

    df = df[sorted(df.columns)]
    rows = sorted(repr(tuple(r)) for r in df.itertuples(index=False, name=None))
    h = hashlib.sha1()
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def main() -> None:
    import duckdb
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as ent

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = ent.queries()
    # the driver's oracles, with the corpus/checkpoint replays rebuilt
    # for this sf (oracle_sql() pins them to the sf the driver runs)
    oracles = {**ent.oracle_sql(), **ent._linkgraph_oracles(sf_dir)}
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            failures.append(name)
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(got)} rows, {len(got.columns)} cols [{dt:.1f}s]")
            continue
        want = con.execute(oracles[name]).fetchdf()
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        gh, wh = value_hash(got), value_hash(want)
        ok_hash = gh == wh
        status = "OK   " if (ok_rows and ok_cols and ok_hash) else "FAIL "
        print(f"{status} {name}: rows {len(got)}/{len(want)} cols={ok_cols} "
              f"hash {gh}/{wh} [{dt:.1f}s]")
        if status.startswith("FAIL"):
            failures.append(name)
            if ok_cols and ok_rows:
                merged = got[sorted(got.columns)].merge(
                    want[sorted(want.columns)], how="outer", indicator=True)
                diff = merged[merged["_merge"] != "both"]
                print(diff.head(10).to_string())
    print("FAILURES:", failures if failures else "none")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
