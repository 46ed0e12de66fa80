"""The keyed exchange every shuffle-based operator and join shares.

Each operator that needs all rows of a key together (window functions,
corpus-global counts, grouped top-k, as-of/range joins, equi-joins)
does the same COARSE exchange: tag every row with
``part = part_ids(key) ∈ [0, P)``, range-sort on ``part``, and work on
each part once, resolving the exact keys vectorized. Per-key
``map_groups`` would pay one UDF call per (mostly tiny) key instead.

Partitioning assumption: one partition holds ALL rows of each key it
contains — guaranteed because the partition id is a pure function of
the key, identical in every worker process.

This module owns that decision: the partition function, the exchange
call (:func:`keyed_exchange`, :func:`part_exchange`) and the two
operators built on it: the join (:func:`keyed_join`, a co-partitioned
merge of both sides in one exchange — no ``Dataset.join``, so no
aggregator actors and none of its empty-block or plan-deadlock
workarounds) and the grouped aggregate (:func:`keyed_aggregate`, an
Arrow ``group_by`` combiner before the exchange and one refold after
it — no Ray grouped aggregate, so no sampled sort and none of its
schema-less empty blocks).

One global operation is ordered rather than keyed: numbering or
running-summing rows in a total order (SQL ``ROW_NUMBER`` /
``SUM OVER (ORDER BY ...)``, Spark's ``zipWithIndex``).
:func:`ordered_offsets` does it with one sort and block offsets folded
on the driver — every window packing, global rank and token budget
goes through it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.tokens import _plain

# Coarse exchange width: enough partitions that one partition's rows
# fit a worker heap at corpus scale, few enough that per-partition
# overhead stays negligible at sf0.01.
PARTS = 64


def part_ids(col, parts: int) -> np.ndarray:
    """int32 partition id in ``[0, parts)`` for every key of an Arrow
    (chunked) array, or for every row of a multi-column key given as a
    list of such arrays. A null (single-column) key goes to part 0.

    Integer keys use floor-mod (``np.mod``): non-negative for negative
    keys, and equal to ``key & (parts - 1)`` when ``parts`` is a power
    of two. Other keys (strings) use polars' hash with a fixed seed,
    and multi-column keys polars' row hash, both stable across worker
    processes for the pinned polars build; builtin ``hash`` is
    randomized per process and MUST NOT pick a partition that crosses
    workers."""
    if isinstance(col, (list, tuple)):
        if len(col) > 1:
            import polars as pl

            rows = pa.table([_plain(c) for c in col],
                            names=[str(i) for i in range(len(col))])
            return (pl.from_arrow(rows).hash_rows(seed=0).to_numpy()
                    % parts).astype(np.int32)
        col = col[0]
    a = _plain(col)
    if len(a) == 0:
        return np.empty(0, dtype=np.int32)
    if pa.types.is_integer(a.type):
        # a null would become NaN in to_numpy; key 0 lands in part 0
        return np.mod(a.fill_null(0).to_numpy(), parts).astype(np.int32)
    import polars as pl

    ids = (pl.from_arrow(a).hash(seed=0).to_numpy() % parts).astype(np.int32)
    if a.null_count:
        ids[a.is_null().to_numpy(zero_copy_only=False)] = 0
    return ids


def keyed_exchange(ds: "ray.data.Dataset", key: str,
                   fold: Callable) -> "ray.data.Dataset":
    """Co-locate the rows of each ``key`` value in one of ``PARTS``
    partitions and apply ``fold`` (a pandas DataFrame -> Arrow table
    function) once per partition. The frame ``fold`` receives carries
    an extra int32 ``part`` column. Runs ``ds`` before returning, like
    :func:`part_exchange`."""
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", pa.array(part_ids(t[key], PARTS), type=pa.int32()))

    return part_exchange(ds.map_batches(tag, batch_format="pyarrow"), fold)


@ray.remote
def _parts_in(block: pa.Table) -> np.ndarray:
    return np.unique(block["part"].to_numpy())


def _block_rows(ds: "ray.data.MaterializedDataset") -> list:
    """``(ref, row count)`` of the blocks of ``ds`` that hold rows, in
    block order."""
    return [(ref, meta.num_rows) for b in ds.iter_internal_ref_bundles()
            for ref, meta in b.blocks if meta.num_rows]


def _nonempty(ds: "ray.data.MaterializedDataset") -> list:
    """Refs of the blocks of ``ds`` that hold rows, in block order."""
    return [ref for ref, _ in _block_rows(ds)]


def _by_part(ds: "ray.data.Dataset", ranges: int = 0) -> "ray.data.Dataset":
    """Range-sort rows that carry an int32 ``part`` column so that every
    part lands whole in one block and no block is empty. At most
    ``ranges`` blocks come out (default: one per non-empty input block).

    The exchange is a range sort on ``part``, not a keyed hash
    repartition: it pays no aggregator-actor startup (~2.5 s of actors
    measured on sub-second queries like ``q_sessionize``). The range
    boundaries come from the part ids actually present, one range per
    input block at most, so no range is empty. Ray's own sampled
    boundaries (``groupby().map_groups``) collide when a few part ids
    hold most rows; the empty range becomes a schema-less block that
    every downstream operator re-emits, with a "different schema"
    warning.

    Runs ``ds`` before returning (the sort is a barrier either way)."""
    ds = ds.materialize()
    refs = _nonempty(ds)
    present = np.unique(np.concatenate(
        [np.empty(0, dtype=np.int32), *ray.get([_parts_in.remote(r) for r in refs])]))
    n = min(len(present), ranges or len(refs))
    if n > 1:
        cuts = present[np.arange(1, n) * len(present) // n]
        return ds.sort("part", boundaries=cuts.tolist())
    return ds.repartition(1)


def part_exchange(ds: "ray.data.Dataset", fold: Callable) -> "ray.data.Dataset":
    """:func:`keyed_exchange` for rows that already carry an int32
    ``part`` column (streams that mix keys pick it per piece with
    :func:`part_ids`). Runs ``ds`` before returning."""
    def fold_parts(t: pa.Table):
        # blocks from the single-range path are not sorted by part
        t = t.sort_by("part")
        p = t["part"].to_numpy()
        cut = np.flatnonzero(p[1:] != p[:-1]) + 1
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(p)]):
            yield fold(t.slice(lo, hi - lo).to_pandas())

    fold_parts.__name__ = fold.__name__  # names the operator in stats
    return _by_part(ds).map_batches(fold_parts, batch_size=None,
                                    batch_format="pyarrow")


# how each aggregate function's partials refold after the exchange
_REFOLD = {"sum": "sum", "count": "sum", "count_all": "sum",
           "min": "min", "max": "max"}


def _fixed_width(typ: pa.DataType) -> bool:
    try:
        typ.bit_width
    except ValueError:
        return False
    return True


def _widened(typ: pa.DataType) -> pa.DataType:
    """The type Ray's grouped aggregate gives a key or a sum/min/max of
    ``typ``: integers widen to int64, floats to float64."""
    if pa.types.is_integer(typ):
        return pa.int64()
    if pa.types.is_floating(typ):
        return pa.float64()
    return typ


def keyed_aggregate(ds: "ray.data.Dataset", keys,
                    aggs: dict) -> "ray.data.Dataset":
    """``GROUP BY keys`` over ``ds``: one output row per distinct key,
    the key columns first, then one column per entry of ``aggs``.

    ``keys`` is a column name or a list of names. ``aggs`` maps each
    output name to ``(column, fn)``, ``fn`` one of ``sum``, ``count``
    (non-null values of ``column``), ``count_all`` (rows; ``column`` is
    ``None``), ``min`` or ``max``. Nulls are skipped, so a group whose
    values are all null sums/mins to null; null keys form one group.
    Keys and sums/mins/maxes of integers come out int64, of floats
    float64, counts int64 — the types Ray's grouped aggregate gives.
    Rows come out in no particular order (Ray's came sorted by key).

    Plan: each batch folds to one row per key with an Arrow
    ``group_by`` (the combiner: only distinct keys cross the exchange)
    and is tagged with its key's part; one :func:`_by_part` range
    exchange lands every key whole in one block; one Arrow ``group_by``
    per block refolds the partials (counts and sums add, mins and maxes
    fold again). Runs ``ds`` before returning; an empty input gives an
    empty, untyped Dataset."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    names = list(aggs)

    def group(t: pa.Table, specs: list) -> pa.Table:
        # pyarrow 16 splits one null-key group into several when a
        # variable-width key precedes a fixed-width one: group by the
        # fixed-width keys first, then restore the order
        by = sorted(keys, key=lambda k: not _fixed_width(t.schema.field(k).type))
        g = t.group_by(by, use_threads=False).aggregate(specs)
        return g.rename_columns(by + names).select(keys + names)

    def combine(t: pa.Table) -> pa.Table:
        g = group(t, [([] if col is None else col, fn) for col, fn in aggs.values()])
        return g.append_column("part", pa.array(
            part_ids([g[k] for k in keys], PARTS), type=pa.int32()))

    refold = [(n, _REFOLD[fn]) for n, (_, fn) in zip(names, aggs.values())]

    def fold(t: pa.Table) -> pa.Table:
        g = group(t, refold)
        return g.cast(pa.schema([(f.name, _widened(f.type)) for f in g.schema]))

    tagged = ds.map_batches(combine, batch_format="pyarrow")
    return _by_part(tagged).map_batches(fold, batch_size=None,
                                        batch_format="pyarrow")


@ray.remote
def _join_side(block: pa.Table, side: int, key: str, own: pa.Schema,
               names: list, joint: pa.Schema) -> pa.Table:
    """One input block of :func:`keyed_join` as rows of the ``joint``
    schema: its own columns under their positional ``names``, typed
    nulls for the other side's, its part id and side flag."""
    t = block.select(own.names).cast(own)
    cols = dict(zip(names, t.columns))
    cols["part"] = pa.array(part_ids(t[key], PARTS), type=pa.int32())
    cols["side"] = pa.array(np.full(t.num_rows, side, dtype=np.int8))
    return pa.table([cols[f.name] if f.name in cols
                     else pa.nulls(t.num_rows, f.type) for f in joint], schema=joint)


def keyed_join(left: "ray.data.Dataset", right: "ray.data.Dataset", on: str,
               right_on: str | None = None,
               how: str = "inner") -> "ray.data.Dataset":
    """Equi-join ``left`` and ``right`` on ``left.on == right.right_on``
    as a co-partitioned merge: both sides' rows are tagged with
    ``part_ids(key, PARTS)`` and a side flag, ONE range exchange over
    their union brings each part's rows of both sides into one block,
    and ``pa.Table.join`` merges them there.

    ``how`` is ``"inner"`` or ``"left outer"``. Output columns: the
    left columns, then the right side's non-key columns (the right key
    is dropped). Duplicate keys on either side multiply as in SQL; null
    keys never match (``left outer`` keeps those left rows, with null
    right-side columns). An empty input gives a typed-empty output with
    the schema of a non-empty one — if the empty input is typed: Ray's
    map operators turn all-empty input into untyped empty blocks, and
    then the output is untyped too (``left outer`` raises when the
    right side is untyped, since its columns are unknown). Non-key
    column names must not repeat across the sides; Arrow's hash join
    carries no list columns.

    Runs the join before returning. Its output blocks are all non-empty
    (one typed-empty block when the output is empty)."""
    if how not in ("inner", "left outer"):
        raise ValueError(
            f"keyed_join: how must be 'inner' or 'left outer', not {how!r}")
    right_on = right_on or on
    sides = [left.materialize(), right.materialize()]
    own = [s.base_schema if (s := d.schema()) else None for d in sides]
    blocks = [_nonempty(d) for d in sides]
    no_rows = not blocks[0] or (how == "inner" and not blocks[1])
    if None in own:  # an empty side that Ray left untyped
        if not no_rows:
            raise ValueError("keyed_join: the right side of a left outer join "
                             "is empty and untyped, so its columns are unknown")
        return sides[own.index(None)]
    out = own[0].empty_table().join(own[1].empty_table(), on, right_on, how)
    if no_rows:
        return ray.data.from_arrow(out)

    names = [[f"{c}{i}" for i in range(len(sch))] for c, sch in zip("lr", own)]
    joint = pa.schema([("part", pa.int32()), ("side", pa.int8())]
                      + [(n, f.type) for ns, sch in zip(names, own)
                         for n, f in zip(ns, sch)])
    # plain tasks over the non-empty blocks only: a map operator turns
    # an empty block into a schema-less one
    tagged = [_join_side.remote(ref, side, key, own[side], names[side], joint)
              for side, key in enumerate((on, right_on)) for ref in blocks[side]]

    def merge(t: pa.Table) -> pa.Table:
        is_left = pc.equal(t["side"], 0)
        lt = t.filter(is_left).select(names[0]).rename_columns(own[0].names)
        rt = t.filter(pc.invert(is_left)).select(names[1]).rename_columns(own[1].names)
        return lt.join(rt, on, right_on, how, use_threads=False).cast(out.schema)

    # as many ranges as the larger side has blocks, not as both have:
    # a join output fed back into a join keeps its block count
    ranged = _by_part(ray.data.from_arrow_refs(tagged), max(map(len, blocks)))
    joined = ranged.map_batches(
        merge, batch_size=None, batch_format="pyarrow").materialize()
    # a part whose rows found no match merges to an empty block, which
    # the next map operator would re-emit schema-less: drop those (a
    # map task that yields nothing emits a schema-less block as well)
    refs = _nonempty(joined)
    return ray.data.from_arrow_refs(refs) if refs else ray.data.from_arrow(out)


@ray.remote
def _weight_sum(block: pa.Table, weight: str) -> int:
    return int(pc.sum(block[weight]).as_py() or 0)


@ray.remote
def _stamp(block: pa.Table, column: str, start: int, weight) -> pa.Table:
    """``block`` with an int64 ``column``: ``start`` plus the exclusive
    running sum of ``weight`` (of 1 per row when ``weight`` is None)."""
    w = (np.ones(block.num_rows, dtype=np.int64) if weight is None
         else block[weight].fill_null(0).to_numpy().astype(np.int64))
    return block.append_column(
        column, pa.array(start + np.cumsum(w) - w, type=pa.int64()))


def ordered_offsets(ds: "ray.data.Dataset", by, column: str, *,
                    descending=False, weight: str | None = None
                    ) -> "ray.data.Dataset":
    """``ds`` sorted by ``by`` (a column name or a list of names;
    ``descending`` a bool or one per name, as in ``Dataset.sort``) with
    an int64 ``column`` appended: each row's exclusive running sum of
    the integer column ``weight`` in that order, or its 0-based row
    number when ``weight`` is None — SQL's ``SUM(weight) OVER (ORDER BY
    by ROWS UNBOUNDED PRECEDING) - weight`` and ``ROW_NUMBER() - 1``.
    Null weights count 0. Ties in ``by`` are numbered in an arbitrary
    order, so callers pass a total order.

    Plan: one sort, materialized once. Its blocks come out in sort
    order, so their place in the global order is their block index:
    per-block totals (row counts from block metadata, or one small
    ``sum(weight)`` task per block) fold into exclusive block offsets
    on the driver, and one plain task per non-empty block stamps
    ``offset + running sum``. No row crosses a second exchange and only
    one number per block reaches the driver.

    Runs ``ds`` before returning. The output is materialized (its
    ``count()`` is free) and has no empty block. An empty output is one
    empty block with the input's schema plus ``column`` (Ray's sort
    drops the schema of empty output, so the input runs once more for
    it), or untyped when the input is."""
    ordered = ds.sort(by, descending=descending).materialize()
    blocks = _block_rows(ordered)
    if not blocks:
        # Ray's sort leaves no schema on empty output: take the input's
        schema = ds.schema()
        if schema is None:
            return ordered
        return ray.data.from_arrow(
            schema.base_schema.append(pa.field(column, pa.int64())).empty_table())
    refs = [ref for ref, _ in blocks]
    totals = ([rows for _, rows in blocks] if weight is None
              else ray.get([_weight_sum.remote(ref, weight) for ref in refs]))
    starts = np.cumsum([0] + totals[:-1]).tolist()
    return ray.data.from_arrow_refs(
        [_stamp.remote(ref, column, start, weight)
         for ref, start in zip(refs, starts)])
