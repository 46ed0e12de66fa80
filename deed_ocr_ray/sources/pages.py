"""Pages-table source helpers.

Analogue of the reference's deterministic file discovery
(deed_ocr/cli.py:23-37 ``find_pdf_files``: file-or-dir input, sorted
order): expand a path/glob/dir into a sorted shard list, then
``ray.data.read_parquet`` with optional column pruning.
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


def read_pq(paths, columns: Optional[List[str]] = None, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` that strips file-level schema METADATA.

    Parquet written via pandas carries a ``pandas`` metadata blob that
    makes ``hash(schema)`` raise inside Ray's schema-dedup
    (``transform_pyarrow.unify_schemas``), spamming "Failed to hash the
    schemas" warnings at every shuffle reduce. Reading one footer and
    passing a metadata-free (column-pruned) ``schema=`` silences it and
    also pins block types for empty fragments. Falls back to a plain
    read for partitioned dirs / missing columns / any footer surprise.
    """
    if "schema" not in kwargs:
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq

            sch = pq.read_schema(find_shards(paths)[0])
            if sch.metadata:
                sch = sch.remove_metadata()
                if columns is not None:
                    sch = pa.schema([sch.field(c) for c in columns])
                kwargs["schema"] = sch
        except Exception:
            pass
    return ray.data.read_parquet(paths, columns=columns, **kwargs)


def read_pages(
    input_path: Union[str, Sequence[str]],
    columns: Optional[List[str]] = None,
    include_paths: bool = False,
    override_num_blocks: Optional[int] = None,
) -> "ray.data.Dataset":
    shards = find_shards(input_path)
    if not shards:
        raise FileNotFoundError(f"no parquet shards under {input_path!r}")
    return read_pq(
        shards,
        columns=columns,
        include_paths=include_paths,
        override_num_blocks=override_num_blocks,
    )
