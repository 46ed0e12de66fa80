"""Tests for the keyed exchange: its partition function, its range
exchange and the co-partitioned join built on it."""

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
    # null keys land in part 0 (to_numpy would make them NaN -> INT_MIN)
    last = 65 if typ == pa.uint64() else -3
    with_null = pa.array([1, None, last, None], type=typ)
    assert part_ids(with_null, 16).tolist() == [1, 0, last % 16, 0]
    ch = pa.chunked_array([with_null[:2], with_null[2:]], type=typ)
    assert part_ids(ch, 16).tolist() == [1, 0, last % 16, 0]


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
    # null keys land in part 0; the other keys keep their parts
    pn = part_ids(pa.array(["x", None, "y", None]), 7)
    assert pn.tolist() == [p[0], 0, p[1], 0]


def test_part_ids_string_stable_across_processes():
    """Every string shuffle relies on ids that do not depend on the
    process: a fresh interpreter with another hash seed agrees, for
    string keys and for (string, int) multi-column keys."""
    keys = [f"host{i}.example/{i * 7919}" for i in range(200)] + ["", "é", "x y"]
    nums = [i % 7 if i % 13 else None for i in range(len(keys))]
    want = [part_ids(pa.array(keys), 64).tolist(),
            part_ids([pa.array(keys), pa.array(nums, type=pa.int64())], 64).tolist()]
    code = ("import json, sys; import pyarrow as pa; "
            "from deed_ocr_ray.pipelines.exchange import part_ids; "
            "k, n = json.loads(sys.argv[1]); "
            "print(json.dumps([part_ids(pa.array(k), 64).tolist(), "
            "part_ids([pa.array(k), pa.array(n, type=pa.int64())], 64).tolist()]))")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=REPO + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code, json.dumps([keys, nums])],
                         capture_output=True, text=True, check=True,
                         cwd=REPO, env=env, timeout=120)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == want
    assert all(len(set(w)) > 1 for w in want)


def test_part_ids_multi_column():
    """A multi-column key co-locates equal rows (null parts included),
    and a one-column list gives the single-column ids."""
    a = pa.array(["x", "y", "x", None, "x", None])
    b = pa.array([1, 1, 1, 2, 2, 2], type=pa.int64())
    p = part_ids([a, b], 16)
    assert p.dtype == np.int32 and ((0 <= p) & (p < 16)).all()
    assert p[0] == p[2] and p[3] == p[5]
    ch = [pa.chunked_array([a[:2], a[2:]]), pa.chunked_array([b[:3], b[3:]])]
    assert part_ids(ch, 16).tolist() == p.tolist()
    assert part_ids([a], 16).tolist() == part_ids(a, 16).tolist()
    assert part_ids([b], 16).tolist() == part_ids(b, 16).tolist()
    assert part_ids([a[:0], b[:0]], 16).tolist() == []


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

    out = keyed_exchange(ds, "k", fold).materialize()
    rows = [m.num_rows for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    assert min(rows) > 0  # Ray's sampled groupby leaves 7 of these 8 empty
    df = out.to_pandas()
    assert sorted(zip(df["k"], df["n"])) == sorted(collections.Counter(keys.tolist()).items())
    assert schema_warnings == []


# ------------------------------------------------------------ keyed_join

def _blocks(t: pa.Table, n: int):
    """``t`` as a Dataset of ``n`` blocks."""
    import ray

    cuts = np.linspace(0, t.num_rows, n + 1).astype(int)
    return ray.data.from_arrow([t.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])])


def _rows(ds_or_table):
    """Order-insensitive rows of a table or a Dataset."""
    import ray

    t = ds_or_table
    if not isinstance(t, pa.Table):
        t = pa.concat_tables(ray.get(t.to_arrow_refs()))
    return sorted(map(repr, t.to_pylist()))


def _sides(keytype):
    rng = np.random.default_rng(7)
    lk = rng.integers(0, 60, 200).tolist()
    for i in (3, 50, 120):
        lk[i] = None  # null left keys: never match
    rk = rng.integers(20, 80, 90).tolist()  # duplicate right keys
    if keytype == "str":
        lk = [None if k is None else f"k{k}" for k in lk]
        rk = [f"k{k}" for k in rk]
    left = pa.table({"k": lk, "x": np.arange(200, dtype=np.int64)})
    right = pa.table({"rk": rk, "y": np.arange(90, dtype=np.float64),
                      "z": [f"z{i}" for i in range(90)]})
    return left, right


@pytest.mark.parametrize("keytype", ["int", "str"])
@pytest.mark.parametrize("how", ["inner", "left outer"])
def test_keyed_join_matches_arrow_join(ray_session, how, keytype):
    """Left columns, then the right non-key columns (right key dropped),
    with duplicate right keys multiplying and null keys never matching
    — the rows and schema of ``pa.Table.join`` on the same tables."""
    from deed_ocr_ray.pipelines.exchange import keyed_join

    left, right = _sides(keytype)
    want = left.join(right, "k", "rk", how)
    got = keyed_join(_blocks(left, 5), _blocks(right, 4), "k", right_on="rk", how=how)
    assert got.schema().base_schema == want.schema
    assert got.schema().names == ["k", "x", "y", "z"]
    assert _rows(got) == _rows(want)
    # parts whose rows found no match leave no empty block behind
    assert min(m.num_rows for b in got.iter_internal_ref_bundles()
               for _, m in b.blocks) > 0
    if how == "left outer":  # null-key left rows kept, right side null
        nulls = [r for r in got.take_all() if r["k"] is None]
        assert len(nulls) == 3 and all(r["y"] is None for r in nulls)


def test_keyed_join_same_key_name(ray_session):
    from deed_ocr_ray.pipelines.exchange import keyed_join

    left, right = _sides("int")
    right = right.rename_columns(["k", "y", "z"])
    want = left.join(right, "k", join_type="inner")
    got = keyed_join(_blocks(left, 4), _blocks(right, 4), "k")
    assert got.schema().names == ["k", "x", "y", "z"]
    assert _rows(got) == _rows(want)


@pytest.mark.parametrize("how", ["inner", "left outer"])
@pytest.mark.parametrize("empty", ["left", "right", "both"])
def test_keyed_join_empty_inputs_are_typed(ray_session, empty, how):
    """An empty side gives the schema of the non-empty join: typed-empty
    output (or, for ``left outer`` with an empty right side, every left
    row with null right columns)."""
    from deed_ocr_ray.pipelines.exchange import keyed_join

    left, right = _sides("int")
    if empty in ("left", "both"):
        left = left.slice(0, 0)
    if empty in ("right", "both"):
        right = right.slice(0, 0)
    want = left.join(right, "k", "rk", how)
    got = keyed_join(_blocks(left, 3), _blocks(right, 3), "k", right_on="rk", how=how)
    assert got.schema().base_schema == want.schema
    assert got.count() == want.num_rows
    if want.num_rows:
        assert _rows(got) == _rows(want)


def test_keyed_join_rejects_other_join_types(ray_session):
    from deed_ocr_ray.pipelines.exchange import keyed_join

    left, right = _sides("int")
    with pytest.raises(ValueError):
        keyed_join(_blocks(left, 2), _blocks(right, 2), "k", right_on="rk", how="full outer")


def test_keyed_join_hot_key(ray_session, schema_warnings):
    """One key holds 90% of the left rows. Every output block is
    non-empty, a map over the output logs no schema warning, and the
    rows equal the Arrow join."""
    from deed_ocr_ray.pipelines.exchange import keyed_join

    keys = np.r_[np.zeros(900, dtype=np.int64), np.arange(1, 101, dtype=np.int64)]
    np.random.default_rng(0).shuffle(keys)
    left = pa.table({"k": keys, "x": np.arange(1000, dtype=np.int64)})
    right = pa.table({"k": np.arange(0, 101, dtype=np.int64),
                      "y": np.arange(0, 202, 2, dtype=np.int64)})
    out = keyed_join(_blocks(left, 8), _blocks(right, 4), "k").materialize()
    rows = [m.num_rows for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    assert min(rows) > 0
    mapped = out.map_batches(lambda t: t.append_column("z", pc.add(t["x"], t["y"])),
                             batch_format="pyarrow").materialize()
    assert mapped.count() == 1000
    assert _rows(out) == _rows(left.join(right, "k", join_type="inner"))
    assert schema_warnings == []


def test_keyed_join_untyped_empty_side(ray_session):
    """A map over all-empty input leaves Ray's blocks untyped. An inner
    join then has no rows to type and returns that empty side; a left
    outer join cannot name the missing right columns and says so."""
    from deed_ocr_ray.pipelines.exchange import keyed_join

    left, right = _sides("int")
    untyped = _blocks(right.slice(0, 0), 1).map_batches(lambda t: t, batch_format="pyarrow")
    assert untyped.materialize().schema() is None
    assert keyed_join(_blocks(left, 2), untyped, "k", right_on="rk").count() == 0
    with pytest.raises(ValueError, match="untyped"):
        keyed_join(_blocks(left, 2), untyped, "k", right_on="rk", how="left outer")


# ------------------------------------------------------- keyed_aggregate

_AGGS = {"s": ("v", "sum"), "c": ("v", "count"), "n": (None, "count_all"),
         "lo": ("v", "min"), "hi": ("v", "max")}


def _agg_input(keys):
    """600 rows whose keys include nulls and whose ``v`` values include
    nulls, plus a group whose values are all null."""
    import datetime

    rng = np.random.default_rng(3)
    n = 600
    k1 = [None if i % 37 == 0 else int(x) for i, x in enumerate(rng.integers(-5, 20, n))]
    v = [None if i % 7 == 0 else int(x) for i, x in enumerate(rng.integers(-50, 50, n))]
    cols = {"k1": pa.array(k1 + [99, 99], type=pa.int64()),
            "k2": pa.array([f"s{x}" for x in rng.integers(0, 4, n)] + ["z", "z"]),
            "ts": pa.array([datetime.datetime(2024, 1, 1, int(h))
                            for h in rng.integers(0, 6, n)] + [None, None],
                           type=pa.timestamp("us")),
            "v": pa.array(v + [None, None], type=pa.int64())}
    return pa.table({**{k: cols[k] for k in keys}, "v": cols["v"]})


@pytest.mark.parametrize("keys", [["k1"], ["k2", "k1"], ["ts"]], ids="+".join)
def test_keyed_aggregate_matches_arrow(ray_session, keys):
    """sum/count/count_all/min/max per key equal a single-process Arrow
    ``group_by``: nulls are skipped (an all-null group sums to null),
    ``count`` counts values and ``count_all`` rows, null keys form one
    group; keys come first, then the aggregates in order."""
    from deed_ocr_ray.pipelines.exchange import keyed_aggregate

    t = _agg_input(keys)
    # the reference groups by the int key first: pyarrow 16 splits a
    # null-key group when a string key precedes a fixed-width one
    by = sorted(keys, key=lambda k: k == "k2")
    want = (t.group_by(by, use_threads=False)
            .aggregate([([] if c is None else c, fn) for c, fn in _AGGS.values()])
            .rename_columns(by + list(_AGGS)).select(keys + list(_AGGS)))
    got = keyed_aggregate(_blocks(t, 6), keys if len(keys) > 1 else keys[0], _AGGS)
    assert got.schema().base_schema == want.schema
    assert _rows(got) == _rows(want)
    rows = got.take_all()
    assert len(rows) == len(set(zip(*[t[k].to_pylist() for k in keys])))
    assert any(r["c"] < r["n"] for r in rows)  # count skips null values
    assert any(r["s"] is None and r["n"] == 2 for r in rows)  # all-null group
    assert sum(all(r[k] is None for k in keys) for r in rows) == (keys != ["k2", "k1"])


def test_keyed_aggregate_types_match_ray(ray_session):
    """On int32/float32 columns the output types (and values) equal
    Ray's grouped aggregate: keys and sums/mins/maxes widen to int64
    and float64, counts are int64."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from deed_ocr_ray.pipelines.exchange import keyed_aggregate

    rng = np.random.default_rng(5)
    t = pa.table({"k": pa.array(rng.integers(0, 9, 300), type=pa.int32()),
                  "v": pa.array(rng.integers(-9, 9, 300), type=pa.int32()),
                  "f": pa.array(rng.random(300), type=pa.float32())})
    ds = _blocks(t, 4)
    want = ds.groupby("k").aggregate(
        Sum("v", alias_name="s"), Count("v", ignore_nulls=True, alias_name="c"),
        Count(alias_name="n"), Min("v", alias_name="lo"), Max("f", alias_name="hi"),
        Sum("f", alias_name="sf"))
    got = keyed_aggregate(ds, "k", {**_AGGS, "hi": ("f", "max"), "sf": ("f", "sum")})
    assert got.schema().base_schema == want.schema().base_schema
    assert got.schema().names == ["k", "s", "c", "n", "lo", "hi", "sf"]
    g = got.to_pandas().sort_values("k").reset_index(drop=True)
    w = want.to_pandas().sort_values("k").reset_index(drop=True)
    assert g.drop(columns="sf").equals(w.drop(columns="sf"))
    assert np.allclose(g["sf"], w["sf"])  # float sums may differ in order


def test_keyed_aggregate_hot_key(ray_session, schema_warnings):
    """One key holds 90% of the rows: the output has no empty block, a
    map over it logs no schema warning, and every key counts right."""
    import collections

    from deed_ocr_ray.pipelines.exchange import keyed_aggregate

    keys = np.r_[np.zeros(900, dtype=np.int64), np.arange(1, 101, dtype=np.int64)]
    np.random.default_rng(0).shuffle(keys)
    out = keyed_aggregate(_blocks(pa.table({"k": keys}), 8), "k",
                          {"n": (None, "count_all")}).materialize()
    rows = [m.num_rows for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    assert min(rows) > 0
    mapped = out.map_batches(lambda t: t.append_column("m", pc.add(t["n"], 1)),
                             batch_format="pyarrow").to_pandas()
    assert sorted(zip(mapped["k"], mapped["n"])) == sorted(
        collections.Counter(keys.tolist()).items())
    assert schema_warnings == []


@pytest.mark.parametrize("untyped", [False, True], ids=["typed", "untyped"])
def test_keyed_aggregate_empty_input(ray_session, untyped):
    """Empty input gives an empty Dataset. Like Ray's grouped aggregate,
    it has no schema — also when the input was typed."""
    from deed_ocr_ray.pipelines.exchange import keyed_aggregate

    ds = _blocks(_agg_input(["k1"]).slice(0, 0), 2)
    if untyped:
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        assert ds.materialize().schema() is None
    out = keyed_aggregate(ds, "k1", _AGGS)
    assert out.count() == 0
    assert out.take_all() == []


# ------------------------------------------------------- ordered_offsets

def _scan_input(n=4000):
    """``n`` rows: 60% on one hot ``k``, a unique ``id``, and weights
    ``w`` with many zeros."""
    rng = np.random.default_rng(11)
    k = np.where(rng.random(n) < 0.6, 7, rng.integers(0, 50, n)).astype(np.int64)
    return pa.table({"k": k, "id": rng.permutation(n).astype(np.int64),
                     "w": rng.integers(0, 4, n).astype(np.int64)})


def _scan_reference(t, by, descending, weight):
    """Single-process reference: ``t`` sorted by ``by`` with the
    exclusive running sum of ``weight`` (1 per row when None)."""
    order = [(c, "descending" if d else "ascending") for c, d in zip(by, descending)]
    s = t.sort_by(order)
    w = np.ones(s.num_rows, dtype=np.int64) if weight is None else s[weight].to_numpy()
    return s.append_column("off", pa.array(np.cumsum(w) - w, type=pa.int64()))


@pytest.mark.parametrize("weight", [None, "w"])
@pytest.mark.parametrize("descending", [[False, False], [True, False]],
                         ids=["asc", "desc_asc"])
def test_ordered_offsets_matches_reference(ray_session, schema_warnings,
                                           descending, weight):
    """Row numbers and exclusive running sums (zero weights included)
    over a two-key order equal a single-process sort + cumsum, on 8
    input blocks with one hot leading key. The hot key's rows span
    several output blocks, so only the block order can place them: this
    pins that a materialized sort's blocks come out in sort order. No
    output block is empty and a map over the output logs no schema
    warning."""
    from deed_ocr_ray.pipelines.exchange import ordered_offsets

    t = _scan_input()
    by = ["k", "id"]
    out = ordered_offsets(_blocks(t, 8), by, "off", descending=descending, weight=weight)
    rows = [m.num_rows for b in out.iter_internal_ref_bundles() for _, m in b.blocks]
    assert len(rows) >= 8 and min(rows) > 0
    assert out.count() == t.num_rows
    assert out.schema().names == ["k", "id", "w", "off"]
    hot_blocks = sum(pc.any(pc.equal(blk["k"], 7)).as_py()
                     for blk in ray_session.get(out.to_arrow_refs()))
    assert hot_blocks >= 2
    want = _scan_reference(t, by, descending, weight)
    got = pa.concat_tables(ray_session.get(out.to_arrow_refs()))
    assert got.equals(want)  # also in output order
    mapped = out.map_batches(lambda b: b.append_column("o2", pc.add(b["off"], 1)),
                             batch_format="pyarrow").materialize()
    assert mapped.count() == t.num_rows
    assert schema_warnings == []


@pytest.mark.parametrize("empty", ["typed", "filtered"])
def test_ordered_offsets_empty_input(ray_session, schema_warnings, empty):
    """Typed-empty input, and input a filter leaves without rows, give
    an empty output that carries the input schema plus the offset
    column."""
    from deed_ocr_ray.pipelines.exchange import ordered_offsets

    t = _scan_input(200)
    if empty == "typed":
        ds = _blocks(t.slice(0, 0), 3)
    else:
        ds = _blocks(t, 8).map_batches(
            lambda b: b.filter(pc.less(b["k"], 0)), batch_format="pyarrow")
    for weight in (None, "w"):
        out = ordered_offsets(ds, "k", "off", weight=weight)
        assert out.count() == 0
        assert out.schema().names == ["k", "id", "w", "off"]
        assert out.schema().base_schema.field("off").type == pa.int64()
    assert schema_warnings == []
