"""The keyed exchange every shuffle-based operator shares.

Each operator that needs all rows of a key together (window functions,
corpus-global counts, grouped top-k, as-of/range joins) does the same
COARSE exchange: tag every row with ``part = part_ids(key) ∈ [0, P)``,
range-sort on ``part``, and apply a fold once per part that resolves
the exact keys vectorized. Per-key ``map_groups`` would pay one UDF
call per (mostly tiny) key instead.

Partitioning assumption: one partition holds ALL rows of each key it
contains — guaranteed because the partition id is a pure function of
the key, identical in every worker process.

This module owns that decision: the partition function, the exchange
call, and the join-side sizing helpers that guard ``Dataset.join``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.tokens import _plain

# Coarse exchange width: enough partitions that one partition's rows
# fit a worker heap at corpus scale, few enough that per-partition
# overhead stays negligible at sf0.01.
PARTS = 64
JOIN_PARTS = 16  # cap on hash-join partitions (one aggregator actor each)


def part_ids(col, parts: int) -> np.ndarray:
    """int32 partition id in ``[0, parts)`` for every key of an Arrow
    (chunked) array.

    Integer keys use floor-mod (``np.mod``): non-negative for negative
    keys, and equal to ``key & (parts - 1)`` when ``parts`` is a power
    of two. Other keys (strings) use polars' hash with a fixed seed,
    which is stable across worker processes for the pinned polars
    build; builtin ``hash`` is randomized per process and MUST NOT pick
    a partition that crosses workers."""
    a = _plain(col)
    if len(a) == 0:
        return np.empty(0, dtype=np.int32)
    if pa.types.is_integer(a.type):
        return np.mod(a.to_numpy(zero_copy_only=False), parts).astype(np.int32)
    import polars as pl

    h = pl.from_arrow(a).hash(seed=0).to_numpy()
    return (h % parts).astype(np.int32)


def keyed_exchange(ds: "ray.data.Dataset", key: str,
                   fold: Callable, parts: int = PARTS) -> "ray.data.Dataset":
    """Co-locate the rows of each ``key`` value in one of ``parts``
    partitions and apply ``fold`` (a pandas DataFrame -> Arrow table
    function) once per partition. The frame ``fold`` receives carries
    an extra int32 ``part`` column. Runs ``ds`` before returning, like
    :func:`part_exchange`."""
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", pa.array(part_ids(t[key], parts), type=pa.int32()))

    return part_exchange(ds.map_batches(tag, batch_format="pyarrow"), fold)


@ray.remote
def _parts_in(block: pa.Table) -> np.ndarray:
    return np.unique(block["part"].to_numpy())


def part_exchange(ds: "ray.data.Dataset", fold: Callable) -> "ray.data.Dataset":
    """:func:`keyed_exchange` for rows that already carry an int32
    ``part`` column (streams that mix keys pick it per piece with
    :func:`part_ids`).

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
    refs = [ref for b in ds.iter_internal_ref_bundles()
            for ref, meta in b.blocks if meta.num_rows]
    present = np.unique(np.concatenate(
        [np.empty(0, dtype=np.int32), *ray.get([_parts_in.remote(r) for r in refs])]))
    n = min(len(present), len(refs))
    if n > 1:
        cuts = present[np.arange(1, n) * len(present) // n]
        ranged = ds.sort("part", boundaries=cuts.tolist())
    else:
        ranged = ds.repartition(1)

    def fold_parts(t: pa.Table):
        # blocks from the single-range path are not sorted by part
        t = t.sort_by("part")
        p = t["part"].to_numpy()
        cut = np.flatnonzero(p[1:] != p[:-1]) + 1
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(p)]):
            yield fold(t.slice(lo, hi - lo).to_pandas())

    fold_parts.__name__ = fold.__name__  # names the operator in stats
    return ranged.map_batches(fold_parts, batch_size=None, batch_format="pyarrow")


def coalesce_for_join(ds: "ray.data.Dataset", rows_per_block: int = 65536):
    """Materialize + repartition a small Dataset into NON-EMPTY blocks
    before feeding it to ``Dataset.join``.

    Why: Ray's hash-shuffle short-circuits zero-row input blocks
    without broadcasting their schema (hash_shuffle.py:223-225 in Ray
    2.49), so when the first block a join shuffles happens to be empty,
    aggregator partitions that receive no non-empty shard finalize a
    zero-column table and ``pa.Table.join`` fails with "No match for
    key field". Datasets coming out of filters/groupbys are full of
    typed empty blocks, making that a coin flip. Returns
    ``(dataset, n_rows)``; callers must handle ``n_rows == 0`` (the
    join operator cannot)."""
    ds = ds.materialize()
    n = ds.count()
    if n == 0:
        return ds, 0
    return ds.repartition(max(1, min(JOIN_PARTS, n // rows_per_block + 1))), n


def join_parts_for(n_rows: int, rows_per_part: int = 65536) -> int:
    return max(1, min(JOIN_PARTS, n_rows // rows_per_part + 1))
