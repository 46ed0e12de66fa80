"""The keyed exchange every shuffle-based operator and join shares.

Each operator that needs all rows of a key together (window functions,
corpus-global counts, grouped top-k, as-of/range joins, equi-joins)
does the same COARSE exchange: tag every row with
``part = part_ids(key) ∈ [0, P)``, bring each part's rows together, and
work on each range of whole parts once, resolving the exact keys
vectorized (a grouped top-k or rank is one sort plus
``groupby(key, sort=False).head(k)`` / ``cumcount()``; a body that is
inherently per key loops over the keys of its range). Every keyed
exchange of ``pipelines/`` goes through this module: no Ray
``groupby().map_groups`` (a sampled sort, one UDF call per key) and no
keyed ``repartition`` (aggregator actors) elsewhere —
``tests/test_exchange_structure.py`` enforces it.

Partitioning assumption: one partition holds ALL rows of each key it
contains — guaranteed because the partition id is a pure function of
the key, identical in every worker process. A range is a union of
whole partitions, so a key-local fold gives the same rows on it.

The exchange is plain Ray tasks, one Ray execution of the input and no
Ray Data all-to-all operator: one map task per input block, started as
the block lands, sorts it by part and returns its per-part row counts;
the driver reads only those counts, cuts the part ids present into
ranges (at most one per input block or per CPU, whichever is more, and
no more than the part ids present, so no range is empty), and one
reduce task per range takes each sorted block's rows of its parts,
sorts them by part and runs the caller's fold. The reduce tasks return
their output's block metadata with it, so the output Dataset is built
without another round trip.

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
:func:`ordered_offsets` does it on the same task exchange, range
partitioned: the driver cuts the ranges from sample rows, each map task
sorts its block and counts its rows and weights per range, and from
those counts each range's reduce task knows its offset, so it sorts its
rows and stamps them — every window packing, global rank and token
budget goes through it.

Three global operations need no key at all: a single reduce, a top-k
and a total. :func:`gather` runs a fold once over every row,
concatenated in block order, in one plain task (a sketch merge, a
global quantile, a moving window over a small aggregate); :func:`top_k`
cuts each block to its own top ``k`` in one task per block as the block
lands, then gathers the candidates through the same cut; :func:`total`
folds each block to one row of sums, counts, mins and maxes in one task
per block and refolds those rows on the driver (a convergence sum, a
revenue total). None is a Ray Data all-to-all operator: no
``repartition(1)`` barrier, no sampled ``sort`` whose empty ranges come
out as schema-less blocks, and no ``Dataset.aggregate`` execution.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data._internal.arrow_ops.transform_pyarrow import concat
from ray.data._internal.execution.interfaces import RefBundle
from ray.data._internal.logical.interfaces import LogicalPlan
from ray.data._internal.logical.operators.from_operators import FromArrow
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.stats import DatasetStats
from ray.data._internal.util import get_table_block_metadata_schema
from ray.data.block import BlockMetadataWithSchema, _take_first_non_empty_schema
from ray.data.context import DataContext
from ray.data.dataset import MaterializedDataset

from ..functions.tokens import _plain
from ..sources.pages import cluster_cpus

# Coarse exchange width: how finely ranges can be cut, not a fold-call
# count (a fold runs once per range); a range holds ~rows / max(input
# blocks, CPUs), one partition's rows once an input has >= PARTS blocks.
PARTS = 64

log = logging.getLogger(__name__)


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
    function) once per range of whole partitions: its frame holds many
    keys, every row of each, and an extra int32 ``part`` column. Runs
    ``ds`` and the folds before returning; the output has no empty
    block (see :func:`part_exchange`)."""
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", pa.array(part_ids(t[key], PARTS), type=pa.int32()))

    return part_exchange(ds.map_batches(tag, batch_format="pyarrow"), fold)


def _nonempty(ds: "ray.data.MaterializedDataset") -> list:
    """``(ref, block metadata)`` of the blocks of ``ds`` that hold rows,
    in block order, as :func:`_from_blocks` takes them."""
    return [(ref, BlockMetadataWithSchema(meta, b.schema))
            for b in ds.iter_internal_ref_bundles()
            for ref, meta in b.blocks if meta.num_rows]


@ray.remote(num_returns=2)
def _sort_block(block: pa.Table, key: str | None) -> tuple:
    """Map task of the exchange: ``block``'s rows in part order (stable)
    and the part ids it holds with their row counts, ascending. A row's
    part is its ``part`` column, or ``part_ids(block[key])``."""
    parts = (block["part"].to_numpy() if key is None
             else part_ids(block[key], PARTS))
    ids, counts = np.unique(parts, return_counts=True)
    return block.take(np.argsort(parts, kind="stable")), (ids, counts)


@ray.remote(num_returns=2)
def _fold_range(fold: Callable, sides: int, spans: list, *blocks,
                args: tuple = ()) -> tuple:
    """Reduce task of the exchange: ``fold`` over one range of parts,
    and the block metadata (rows, schema) of its output. ``fold`` gets
    one list per input side of the range's slices of the sorted blocks,
    in block order, then ``args``; ``spans`` holds the ``(side, first
    row, end row)`` of each block."""
    slices = [[] for _ in range(sides)]
    for (side, lo, hi), block in zip(spans, blocks):
        slices[side].append(block.slice(lo, hi - lo))
    out = fold(*slices, *args)
    return out, get_table_block_metadata_schema(out)


def _part_rows(slices: list) -> pa.Table:
    """One range's slices as one table, stably sorted by ``part``:
    slices from different blocks interleave their parts."""
    return concat(slices, promote_types=True).sort_by("part")


def _map_blocks(ds: "ray.data.Dataset", key: str | None = None) -> tuple:
    """Start one :func:`_sort_block` task per non-empty block of ``ds``
    as the blocks land (no barrier: the first map tasks overlap the
    upstream's last blocks). Returns the tasks' ``(sorted block,
    counts)`` refs and the schema of ``ds``'s blocks (None when
    untyped)."""
    maps, schema = [], None
    for bundle in ds.iter_internal_ref_bundles():
        maps += [_sort_block.remote(ref, key)
                 for ref, meta in bundle.blocks if meta.num_rows != 0]
        # the first schema with columns, as Ray's materialize takes it:
        # an untyped empty block's schema has none
        schema = schema or bundle.schema
    return maps, schema or None


def _exchange(sides: list, fold: Callable, ranges: int = 0) -> list:
    """The exchange's reduce half over the map tasks of one or more
    input ``sides`` (:func:`_map_blocks`). The part ids present are cut
    into as many ranges as ``ranges`` (default: the input blocks) or
    the cluster's CPUs, whichever is more, but no more than there are
    part ids, so no range is empty; one :func:`_fold_range` task per
    range runs ``fold``. A one-block input still folds on every CPU.
    Only the per-block part counts reach the driver. When the map
    tasks' counts carry a third array, a total per part (the weights of
    :func:`_range_sort`), ``fold`` gets one more argument: the sum of
    the totals of every part before its range. Returns ``(output ref,
    block metadata)`` per range, in part order."""
    maps = [(side, *refs) for side, ms in enumerate(sides) for refs in ms]
    counts = ray.get([c for _, _, c in maps])
    present = np.unique(np.concatenate(
        [np.empty(0, dtype=np.int32), *(c[0] for c in counts)]))
    n = min(len(present), max(ranges or len(maps), cluster_cpus()))
    firsts = present[np.arange(n) * len(present) // n]  # each range's first part
    cuts = firsts[1:]
    # edges[b][r]: the first row of range r in sorted block b
    edges = [np.r_[0, np.cumsum(c)][np.r_[0, np.searchsorted(ids, cuts), len(ids)]]
             for ids, c, *_ in counts]
    args = [()] * n
    if any(len(c) > 2 for c in counts):
        ids, totals = (np.concatenate([c[i] for c in counts]) for i in (0, 2))
        args = [(int(totals[ids < first].sum()),) for first in firsts]
    fold_ref = ray.put(fold)  # pickled once, not once per range task
    task = _fold_range.options(name=fold.__name__)
    outs = []
    for r in range(n):
        live = [b for b, e in enumerate(edges) if e[r + 1] > e[r]]
        outs.append(task.remote(
            fold_ref, len(sides),
            [(maps[b][0], int(edges[b][r]), int(edges[b][r + 1])) for b in live],
            *(maps[b][1] for b in live), args=args[r]))
    range_rows = [sum(int(e[r + 1] - e[r]) for e in edges) for r in range(n)]
    log.debug("exchange %s: %d rows in %d blocks, %d ranges, "
              "max %d / median %d rows per range", fold.__name__,
              sum(range_rows), len(maps), n, max(range_rows, default=0),
              int(np.median(range_rows)) if range_rows else 0)
    metas = ray.get([m for _, m in outs])
    return [(ref, m) for (ref, _), m in zip(outs, metas)]


def _from_blocks(blocks: list) -> "ray.data.MaterializedDataset":
    """A Dataset of ``(block ref, block metadata)`` pairs, built as
    ``ray.data.from_arrow_refs`` builds it but from metadata already in
    hand (it launches one metadata task per block), with its blocks
    recorded as the plan's output the way ``materialize()`` records
    them: reading its blocks again starts no Ray Data executor."""
    refs, metas = (list(x) for x in zip(*blocks))
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": metas}, parent=None),
        DataContext.get_current().copy())
    source = FromArrow(refs, metas)
    ds = MaterializedDataset(plan, LogicalPlan(source, plan._context))
    plan._snapshot_bundle = RefBundle(
        blocks, owns_blocks=False,
        schema=_take_first_non_empty_schema(m.schema for m in metas))
    plan._snapshot_operator, plan._snapshot_stats = source, plan._in_stats
    return ds


def _local(table: pa.Table) -> tuple:
    """``table`` as a ``(block ref, block metadata)`` pair."""
    return ray.put(table), get_table_block_metadata_schema(table)


def _dataset(outs: list) -> "ray.data.Dataset":
    """The exchange's output: its non-empty range outputs (a map
    operator would re-emit an empty block schema-less, the "different
    schema" warning). When every range folds to nothing, one empty
    output (typed when the fold's is); without any range (no input
    row), an untyped empty Dataset."""
    blocks = [b for b in outs if b[1].num_rows] or outs[:1]
    return _from_blocks(blocks or [_local(pa.table({}))])


def part_exchange(ds: "ray.data.Dataset", fold: Callable) -> "ray.data.Dataset":
    """:func:`keyed_exchange` for rows that already carry an int32
    ``part`` column (streams that mix keys pick it per piece with
    :func:`part_ids`). ``fold`` runs once per range, on the range's
    rows stably sorted by ``part``.

    Runs ``ds`` and the folds before returning. The output has no empty
    block: a range that folds to nothing is dropped. An empty output is
    one empty block (typed when ``fold`` returns typed tables); an empty
    input gives an untyped empty Dataset."""
    def fold_parts(slices: list) -> pa.Table:
        return fold(_part_rows(slices).to_pandas())

    fold_parts.__name__ = fold.__name__  # names the reduce tasks
    return _dataset(_exchange([_map_blocks(ds)[0]], fold_parts))


def _whole(fold: Callable) -> Callable:
    """``fold`` (Arrow table -> Arrow table) as a :func:`_fold_range`
    fold: it gets the slices concatenated in order (and the range's
    extra arguments, if any)."""
    def whole(slices: list, *args) -> pa.Table:
        return fold(concat(slices, promote_types=True), *args)

    whole.__name__ = fold.__name__  # names the task
    return whole


def _gather(blocks: list, fold: Callable) -> "ray.data.Dataset":
    """``fold`` over the ``(block ref, rows)`` pairs ``blocks``,
    concatenated in order, in one :func:`_fold_range` task; an untyped
    empty Dataset, without calling ``fold``, when ``blocks`` is empty."""
    if not blocks:
        return _dataset([])
    out, meta = _fold_range.options(name=fold.__name__).remote(
        _whole(fold), 1, [(0, 0, rows) for _, rows in blocks],
        *(ref for ref, _ in blocks))
    return _dataset([(out, ray.get(meta))])


def gather(ds: "ray.data.Dataset", fold: Callable) -> "ray.data.Dataset":
    """``fold`` (an Arrow table -> Arrow table function) run once over
    all rows of ``ds``, concatenated in block order, in one task: the
    single reduce of a sketch merge, a global quantile or a moving
    window over a small aggregate. Runs ``ds`` and ``fold`` before
    returning. An input without rows gives an untyped empty Dataset and
    ``fold`` is not called."""
    return _gather([(ref, meta.num_rows) for ref, meta in _nonempty(ds)], fold)


def _sort_keys(by, descending) -> list:
    """``by`` (a column name or a list of names) and ``descending`` (a
    bool or one per name) as Arrow ``sort_by`` keys."""
    by = [by] if isinstance(by, str) else list(by)
    if isinstance(descending, bool):
        descending = [descending] * len(by)
    return [(c, "descending" if d else "ascending")
            for c, d in zip(by, descending)]


def top_k(ds: "ray.data.Dataset", by, k: int,
          descending=False) -> "ray.data.Dataset":
    """The first ``k`` rows of ``ds`` in the order ``by`` (a column name
    or a list of names; ``descending`` a bool or one per name, as in
    ``Dataset.sort``), in that order: SQL's ``ORDER BY by LIMIT k``.
    Ties in ``by`` come out in an arbitrary order, so callers pass a
    total order. One task per block, started as the block lands, cuts
    it to its own top ``k``; one :func:`gather` cuts the candidates.
    Runs ``ds`` before returning; an input without rows gives an
    untyped empty Dataset."""
    order = _sort_keys(by, descending)

    def top_k(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, k)

    cut = ray.put(_whole(top_k))  # pickled once, not once per block task
    task = _fold_range.options(name="top_k")
    return _gather([(task.remote(cut, 1, [(0, 0, meta.num_rows)], ref)[0],
                     min(k, meta.num_rows))
                    for bundle in ds.iter_internal_ref_bundles()
                    for ref, meta in bundle.blocks if meta.num_rows], top_k)


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
    and is tagged with its key's part; the exchange's map tasks sort
    each block of partials by part, and one reduce task per range of
    parts refolds its partials with one Arrow ``group_by`` (counts and
    sums add, mins and maxes fold again). Runs ``ds`` and the refolds
    before returning; an empty input gives an empty, untyped Dataset."""
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

    def fold(slices: list) -> pa.Table:
        g = group(_part_rows(slices), refold)
        return g.cast(pa.schema([(f.name, _widened(f.type)) for f in g.schema]))

    tagged = ds.map_batches(combine, batch_format="pyarrow")
    return _dataset(_exchange([_map_blocks(tagged)[0]], fold))


def keyed_join(left: "ray.data.Dataset", right: "ray.data.Dataset", on: str,
               right_on: str | None = None,
               how: str = "inner") -> "ray.data.Dataset":
    """Equi-join ``left`` and ``right`` on ``left.on == right.right_on``
    as a co-partitioned merge in ONE exchange over both sides: a map
    task per block sorts its rows by ``part_ids(key, PARTS)``, and one
    reduce task per range of parts takes both sides' rows of those
    parts and merges them with ``pa.Table.join``.

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
    maps, own = zip(_map_blocks(left, on), _map_blocks(right, right_on))
    no_rows = not maps[0] or (how == "inner" and not maps[1])
    if None in own:  # an empty side that Ray left untyped
        if not no_rows:
            raise ValueError("keyed_join: the right side of a left outer join "
                             "is empty and untyped, so its columns are unknown")
        return _dataset([])
    out = own[0].empty_table().join(own[1].empty_table(), on, right_on, how)
    if no_rows:
        return _from_blocks([_local(out)])

    def merge(lslices: list, rslices: list) -> pa.Table:
        lt, rt = (pa.concat_tables([sch.empty_table()] + [
            b.select(sch.names).cast(sch) for b in bs])
            for sch, bs in zip(own, (lslices, rslices)))
        return lt.join(rt, on, right_on, how, use_threads=False).cast(out.schema)

    # as many ranges as the larger side has blocks, not as both have:
    # a join output fed back into a join keeps its block count
    return _dataset(_exchange(maps, merge, max(map(len, maps))))


@ray.remote
def _sample(block: pa.Table, by: list, k: int) -> pa.Table:
    """``k`` evenly spaced rows of ``block``'s ``by`` columns."""
    return block.select(by).take(np.arange(k) * block.num_rows // k)


@ray.remote(num_returns=2)
def _range_sort(block: pa.Table, order: list, bounds: pa.Table,
                weight: str | None) -> tuple:
    """Map task of :func:`ordered_offsets`: ``block`` sorted by
    ``order``, and the ranges its rows fall in with their row counts and
    weight totals (``(ids, counts, totals)``, as :func:`_exchange`
    takes them). Range ``r`` holds the rows from boundary row ``r - 1``
    of ``bounds`` (rows equal to it included) up to boundary row ``r``
    (rows equal to it excluded). One Arrow sort of the block's keys
    merged with the boundaries gives both: a boundary sorts before the
    rows equal to it, so the rows before the ``j``-th boundary in the
    merged order are the rows of ranges ``0..j``."""
    n, cut = block.num_rows, bounds.num_rows
    keys = concat([block.select(bounds.column_names), bounds], promote_types=True)
    names = [str(i) for i in range(keys.num_columns)]
    merged = pa.table(keys.columns + [pa.array(np.r_[np.ones(n, np.int8),
                                                     np.zeros(cut, np.int8)])],
                      names=names + ["row"])
    idx = pc.sort_indices(merged, sort_keys=[
        (name, how) for name, (_, how) in zip(names, order)] + [("row", "ascending")]
    ).to_numpy()
    bound = idx >= n
    edges = np.r_[0, np.flatnonzero(bound) - np.arange(cut), n]
    out = block.take(idx[~bound])
    counts = np.diff(edges)
    totals = np.diff(np.r_[0, np.cumsum(_weights(out, weight))][edges])
    ids = np.flatnonzero(counts)
    return out, (ids, counts[ids], totals[ids])


def _weights(t: pa.Table, weight: str | None) -> np.ndarray:
    """Each row's int64 weight: ``t[weight]`` with nulls as 0, or 1."""
    if weight is None:
        return np.ones(t.num_rows, dtype=np.int64)
    return t[weight].fill_null(0).to_numpy().astype(np.int64)


def ordered_offsets(ds: "ray.data.Dataset", by, column: str, *,
                    descending=False, weight: str | None = None
                    ) -> "ray.data.Dataset":
    """``ds`` sorted by ``by`` (a column name or a list of names;
    ``descending`` a bool or one per name, as in ``Dataset.sort``) with
    an int64 ``column`` appended: each row's exclusive running sum of
    the integer column ``weight`` in that order, or its 0-based row
    number when ``weight`` is None — SQL's ``SUM(weight) OVER (ORDER BY
    by ROWS UNBOUNDED PRECEDING) - weight`` and ``ROW_NUMBER() - 1``.
    Null weights count 0; null keys sort last, in either direction.
    Ties in ``by`` are numbered in an arbitrary order, so callers pass
    a total order.

    Plan: a range-partitioned exchange whose ranges the driver cuts
    itself, one range per input block (Ray's sort kept the block count
    too, and a finer cut of a small input only adds tasks downstream).
    One small task per input block returns evenly spaced sample rows of
    ``by`` (about ten per range, each block's share by its rows); the
    driver sorts them and picks one boundary row less than there are
    ranges. One map task per block sorts it and counts its rows and
    weights per range (:func:`_range_sort`); from those counts the
    driver knows every range's offset, and :func:`_exchange`'s reduce
    task per range sorts the range's rows and stamps ``offset + running
    sum``. A one-block input is one range. Only samples, counts and
    the output's block metadata reach the driver; the input runs once.

    Runs ``ds`` before returning. The output is materialized (its
    ``count()`` is free) and has no empty block. An empty output is one
    empty block with the input's schema plus ``column``, or untyped
    when the input is."""
    order = _sort_keys(by, descending)
    blocks, schema = [], None
    for bundle in ds.iter_internal_ref_bundles():
        blocks += [(ref, meta.num_rows) for ref, meta in bundle.blocks
                   if meta.num_rows]
        schema = schema or bundle.schema
    if not blocks:
        if not schema:
            return _dataset([])
        return _from_blocks([_local(
            schema.append(pa.field(column, pa.int64())).empty_table())])

    def ordered_offsets(t: pa.Table, start: int) -> pa.Table:
        t = t.sort_by(order)
        w = _weights(t, weight)
        return t.append_column(
            column, pa.array(start + np.cumsum(w) - w, type=pa.int64()))

    ranges, rows = len(blocks), sum(n for _, n in blocks)
    by = [c for c, _ in order]
    samples = concat(ray.get([
        _sample.remote(ref, by, min(n, -(-10 * ranges * n // rows)))
        for ref, n in blocks]), promote_types=True).sort_by(order)
    bounds = ray.put(samples.take(
        np.arange(1, ranges) * samples.num_rows // ranges))
    maps = [_range_sort.remote(ref, order, bounds, weight) for ref, _ in blocks]
    return _dataset(_exchange([maps], _whole(ordered_offsets)))


@ray.remote
def _partial(block: pa.Table, specs: list) -> pa.Table:
    """``specs`` aggregated over all of ``block``: one row."""
    return block.group_by([], use_threads=False).aggregate(specs)


def total(ds: "ray.data.Dataset", aggs: dict) -> dict:
    """The global aggregate of ``ds``: ``aggs`` (as in
    :func:`keyed_aggregate`: output name -> ``(column, fn)``) over all
    rows, as a dict of Python values. Nulls are skipped, so a sum, min
    or max over no non-null value is None, and a count 0 — also on an
    input without rows.

    Plan: one small task per non-empty block, started as the block
    lands, folds it to one row with Arrow's keyless ``group_by``; the
    driver refolds those rows the same way (counts and sums add, mins
    and maxes fold again). No Ray Data all-to-all operator: the input
    runs once, and a materialized input (an exchange output) starts no
    Ray Data executor."""
    names = list(aggs)
    task = _partial.options(name="total")
    specs = [([] if col is None else col, fn) for col, fn in aggs.values()]
    parts = ray.get([task.remote(ref, specs)
                     for bundle in ds.iter_internal_ref_bundles()
                     for ref, meta in bundle.blocks if meta.num_rows])
    if not parts:
        return {name: 0 if fn.startswith("count") else None
                for name, (_, fn) in aggs.items()}
    row = concat(parts, promote_types=True).rename_columns(names).group_by(
        [], use_threads=False).aggregate(
        [(name, _REFOLD[fn]) for name, (_, fn) in aggs.items()])
    return {name: col[0].as_py() for name, col in zip(names, row.columns)}
