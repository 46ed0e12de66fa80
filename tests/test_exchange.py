"""Tests for the keyed exchange: its partition function and its range
exchange."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deed_ocr_ray.pipelines.exchange import part_ids

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@given(st.lists(st.integers(min_value=-2**62, max_value=2**62), max_size=40),
       st.sampled_from([16, 64]))
@settings(max_examples=200, deadline=None)
def test_part_ids_int_is_floor_mod(keys, parts):
    a = np.array(keys, dtype=np.int64)
    got = part_ids(pa.array(a, type=pa.int64()), parts)
    assert got.dtype == np.int32
    assert got.tolist() == np.mod(a, parts).tolist()
    # for power-of-two counts floor-mod is the low-bit mask
    old = pc.bit_wise_and(pa.array(a, type=pa.int64()), parts - 1)
    assert got.tolist() == old.to_pylist()
    # chunked input gives the same ids
    mid = len(keys) // 2
    ch = pa.chunked_array([a[:mid], a[mid:]], type=pa.int64())
    assert part_ids(ch, parts).tolist() == got.tolist()


@pytest.mark.parametrize("typ", [pa.int32(), pa.int64(), pa.uint64()], ids=str)
def test_part_ids_int_edge_cases(typ):
    keys = [0, 1, 15, 16, 63, 64, 65] + ([-1, -16, -17, -64] if typ != pa.uint64() else [])
    got = part_ids(pa.array(keys, type=typ), 16)
    assert got.tolist() == [k % 16 for k in keys]
    assert part_ids(pa.array([], type=typ), 16).tolist() == []
    assert part_ids(pa.chunked_array([], type=typ), 16).tolist() == []


def test_part_ids_string_colocates():
    a = pa.array(["x", "y", "x", "", "y"])
    p = part_ids(a, 7)
    assert p[0] == p[2] and p[1] == p[4]
    assert p.dtype == np.int32 and ((0 <= p) & (p < 7)).all()
    # chunked input and empty input
    ch = pa.chunked_array([["x"], ["y", "x"]])
    p2 = part_ids(ch, 7)
    assert p2[0] == p2[2] == p[0]
    assert part_ids(pa.array([], type=pa.string()), 7).tolist() == []
    # large_string keys land where string keys do
    assert part_ids(a.cast(pa.large_string()), 7).tolist() == p.tolist()


def test_part_ids_string_stable_across_processes():
    """Every string shuffle relies on ids that do not depend on the
    process: a fresh interpreter with another hash seed agrees."""
    keys = [f"host{i}.example/{i * 7919}" for i in range(200)] + ["", "é", "x y"]
    want = part_ids(pa.array(keys), 64).tolist()
    code = ("import json, sys; import pyarrow as pa; "
            "from deed_ocr_ray.pipelines.exchange import part_ids; "
            "print(json.dumps(part_ids(pa.array(json.loads(sys.argv[1])), 64).tolist()))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=REPO + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(keys)],
                         capture_output=True, text=True, check=True,
                         cwd=REPO, env=env, timeout=120)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == want
    assert len(set(want)) > 1


def test_keyed_exchange_hot_key(ray_session, schema_warnings):
    """One key holds 90% of the rows, so sampled sort boundaries
    collide on its part and leave empty ranges. The exchange emits no
    empty block, folds every key exactly once, and logs no schema
    warning."""
    import collections

    import ray

    from deed_ocr_ray.pipelines.exchange import keyed_exchange

    keys = np.r_[np.zeros(900, dtype=np.int64), np.arange(1, 101, dtype=np.int64)]
    np.random.default_rng(0).shuffle(keys)
    ds = ray.data.from_arrow([pa.table({"k": c}) for c in np.array_split(keys, 8)])

    def fold(g):
        vc = g["k"].value_counts()
        return pa.table({"k": pa.array(vc.index.to_numpy(), type=pa.int64()),
                         "n": pa.array(vc.to_numpy(), type=pa.int64())})

    out = keyed_exchange(ds, "k", fold, parts=16).materialize()
    rows = [m.num_rows for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    assert min(rows) > 0  # Ray's sampled groupby leaves 7 of these 8 empty
    df = out.to_pandas()
    assert sorted(zip(df["k"], df["n"])) == sorted(collections.Counter(keys.tolist()).items())
    assert schema_warnings == []
