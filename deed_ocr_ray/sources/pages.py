"""Pages-table source helpers.

Analogue of the reference's deterministic file discovery
(deed_ocr/cli.py:23-37 ``find_pdf_files``: file-or-dir input, sorted
order): expand a path/glob/dir into a sorted shard list, then
``ray.data.read_parquet`` with optional column pruning: a table in one
block per file (:func:`read_pq`), pages shards for extraction on Ray's
read plan (:func:`read_pages`).
"""

from __future__ import annotations

import glob
import os
from typing import List, Optional, Sequence, Union

import ray.data


def find_shards(input_path: Union[str, Sequence[str]]) -> List[str]:
    """Sorted parquet shard list from a file, directory, glob, or list."""
    if isinstance(input_path, (list, tuple)):
        out: List[str] = []
        for p in input_path:
            out.extend(find_shards(p))
        return sorted(dict.fromkeys(out))
    if os.path.isdir(input_path):
        return sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    if any(ch in input_path for ch in "*?["):
        return sorted(glob.glob(input_path))
    return [input_path]


def cluster_cpus() -> int:
    """The cluster's CPU count, as Ray Data sizes its plans from it.
    Starts Ray first when it is not running, as Ray Data's first
    execution would."""
    if not ray.is_initialized():
        ray.init()
    return int(ray.cluster_resources().get("CPU", 1))


def _read_parquet(paths, shards: List[str], columns: Optional[List[str]],
                  **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` that strips file-level schema METADATA.

    Parquet written via pandas carries a ``pandas`` metadata blob that
    makes ``hash(schema)`` raise inside Ray's schema-dedup
    (``transform_pyarrow.unify_schemas``), spamming "Failed to hash the
    schemas" warnings at every shuffle reduce. Reading the footer of
    ``shards[0]`` and passing a metadata-free (column-pruned)
    ``schema=`` silences it and also pins block types for empty
    fragments. Falls back to a plain read for partitioned dirs /
    missing columns / any footer surprise.
    """
    if "schema" not in kwargs:
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq

            sch = pq.read_schema(shards[0])
            if sch.metadata:
                sch = sch.remove_metadata()
                if columns is not None:
                    sch = pa.schema([sch.field(c) for c in columns])
                kwargs["schema"] = sch
        except Exception:
            pass
    return ray.data.read_parquet(paths, columns=columns, **kwargs)


def _table_bytes(shards: List[str]) -> int:
    """Uncompressed bytes of the row groups of parquet ``shards``, from
    their footers."""
    import pyarrow.parquet as pq

    mds = [pq.read_metadata(f) for f in shards]
    return sum(md.row_group(i).total_byte_size
               for md in mds for i in range(md.num_row_groups))


def read_pq(paths, columns: Optional[List[str]] = None, **kwargs) -> "ray.data.Dataset":
    """Read a table: :func:`_read_parquet`, in one block per file when
    Ray's read floor of 2 × cluster CPUs, not the table's size, would
    set its block count.

    Ray reads ``max(2 × CPUs, size / target_min_block_size)`` blocks
    (``DataContext``; 1 MiB), splitting each file of a table with fewer
    files into several blocks, and a split read never fuses with the
    next map: every read of a small table would run two task rounds.
    When the table has fewer files than that floor and fewer
    uncompressed bytes than floor × ``target_min_block_size`` (8 MiB
    at 4 CPUs), ``read_pq(...).map_batches(f)`` plans one
    ``ReadParquet->MapBatches(f)`` task per file instead; the
    exchanges downstream take their parallelism from the CPU count. A
    larger table keeps Ray's split, which runs its maps on several
    tasks, and with 2 × CPUs files or more Ray packs whole files into
    its tasks. Partitioned dirs (no top-level files) keep Ray's plan
    too. The cost: a costly per-row map over a table under the cut
    runs on one task per file."""
    shards = find_shards(paths)
    floor = 2 * cluster_cpus()
    if (0 < len(shards) < floor and _table_bytes(shards)
            < floor * ray.data.DataContext.get_current().target_min_block_size):
        kwargs.setdefault("override_num_blocks", len(shards))
    return _read_parquet(paths, shards, columns, **kwargs)


def read_pages(
    input_path: Union[str, Sequence[str]],
    columns: Optional[List[str]] = None,
    include_paths: bool = False,
    override_num_blocks: Optional[int] = None,
) -> "ray.data.Dataset":
    """Read pages shards for extraction, on Ray's read plan: its
    2 × CPU split is what runs the costly per-document stage after the
    read in parallel when a job has few files."""
    shards = find_shards(input_path)
    if not shards:
        raise FileNotFoundError(f"no parquet shards under {input_path!r}")
    return _read_parquet(
        shards,
        shards,
        columns,
        include_paths=include_paths,
        override_num_blocks=override_num_blocks,
    )
