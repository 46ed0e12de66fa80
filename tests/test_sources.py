"""Tests for the parquet read plans: a table reads in one block per
file below Ray's read floor of 2 × cluster CPUs, and keeps Ray's plan
from there on or when its size, not the floor, sets Ray's split."""

import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _table_dir(path, n_files: int, rows: int = 500) -> str:
    """``n_files`` parquet files of ``rows`` rows each under ``path``."""
    for i in range(n_files):
        pq.write_table(pa.table({"x": pa.array(range(i * rows, (i + 1) * rows))}),
                       str(path / f"f{i:02d}.parquet"))
    return str(path)


def _mapped(ds):
    """``ds`` behind a map that passes each batch on (nested, so Ray
    workers get it by value)."""
    def ident(t):
        return t

    return ds.map_batches(ident, batch_format="pyarrow")


def _operators(ds) -> list:
    """``(operator, tasks)`` of each operator in an executed Dataset's
    stats."""
    return [(op, int(n)) for op, n in
            re.findall(r"Operator \d+ (.*?): (\d+) tasks executed", ds.stats())]


@pytest.mark.parametrize("n_files", [1, 3])
def test_read_pq_fuses_one_task_per_file(ray_session, tmp_path, n_files):
    """With fewer files than 2 × CPUs (the ``ray_session`` has 4), the
    read and the next map fuse into one task per file, and each file is
    one block: Ray would split each file into several blocks, and a
    split read never fuses with the map after it."""
    from deed_ocr_ray.sources.pages import read_pq

    paths = _table_dir(tmp_path, n_files)
    if n_files == 1:
        paths = f"{paths}/f00.parquet"
    ds = _mapped(read_pq(paths)).materialize()
    assert _operators(ds) == [("ReadParquet->MapBatches(ident)", n_files)]
    assert ds.num_blocks() == n_files
    assert sorted(ds.to_pandas()["x"]) == list(range(n_files * 500))


@pytest.mark.parametrize("n_files", [8, 12])
def test_read_pq_keeps_ray_plan_from_two_files_per_cpu(ray_session, tmp_path,
                                                       n_files):
    """From 2 × CPUs files on, Ray packs whole files into its read
    tasks: ``read_pq`` plans the same tasks as a plain read."""
    import ray.data

    from deed_ocr_ray.sources.pages import read_pq

    paths = _table_dir(tmp_path, n_files)
    ours = _mapped(read_pq(paths)).materialize()
    ray_plan = _mapped(ray.data.read_parquet(paths)).materialize()
    assert _operators(ours) == _operators(ray_plan)
    assert ours.count() == n_files * 500


def test_read_pq_keeps_ray_plan_for_large_table(ray_session, tmp_path,
                                                monkeypatch):
    """A table of one file but more uncompressed bytes than 2 × CPUs
    Ray minimum blocks keeps Ray's split, which runs the map on several
    tasks. The minimum block size is patched down so that a small file
    counts as large."""
    import ray.data

    from deed_ocr_ray.sources.pages import read_pq

    paths = _table_dir(tmp_path, 1)
    monkeypatch.setattr(ray.data.DataContext.get_current(),
                        "target_min_block_size", 64)
    ours = _mapped(read_pq(paths)).materialize()
    ray_plan = _mapped(ray.data.read_parquet(paths)).materialize()
    assert _operators(ours) == _operators(ray_plan)
    (read, _), (map_op, _) = _operators(ours)
    assert read.startswith("ReadParquet->SplitBlocks(")
    assert map_op == "MapBatches(ident)"
    assert ours.num_blocks() > 1
    assert ours.count() == 500
