"""The flagship extraction pipeline: pages parquet -> extracted parquet.

Dataflow (SURVEY.md §7.1), one Ray execution per job:

    read_parquet(pending shards, include_paths)  # (url, warc_ts, html, text, lang)
      └─ map_batches(Extractor(...))             # one stateless dispatching task stage:
      │                                          #   sniff → html/pdf/text branch →
      │                                          #   normalize → spans → fields → error rows
      └─ map_batches(_PartWriter(...))           # rows -> <out>/part_id=K/*.parquet,
      │                                          #   returns one stats row per part
      └─ driver: iter_batches(stats) → per-part totals → per-partition manifests

Scale design decisions:
  * ONE extraction stage, run as plain tasks fused with the parquet
    read and the part writer — the heavy ``html`` binary column goes
    from the reader straight into the extractor in the same worker and
    never crosses the object store; only small stats rows reach the
    driver.
  * Partition unit = input shard file group; rows carry ``part_id`` and
    the writer lays them out as one hive directory per input shard
    group — the resume/retry unit (resumable output layout).
  * Checkpoint groups: ``wave_parts`` partitions form one group, and a
    group's manifests publish atomically as soon as every part in it
    has all its rows on disk (the Extractor emits one row per input
    row, so the input footers give the count), while later parts keep
    streaming. Smaller groups = finer checkpoints; ``wave_parts=None``
    publishes everything at the end. Groups are not execution
    boundaries: the job runs once over all pending parts.
  * Skew: payloads above ``max_payload_bytes`` become typed error rows;
    blocks are byte-bounded by ``DataContext.target_max_block_size`` so
    a giant blob lands in a small-row block instead of stalling a fat
    batch (north-rule skew handling).
"""

from __future__ import annotations

import collections
import json
import os
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data._internal.execution.interfaces import TaskContext

from ..sources.pages import find_shards, read_pq
from ..stages.extract import Extractor
from ..state.manifest import (
    PartitionManifest,
    clear_stale_partitions,
    lineage_id,
    load_manifests,
    manifest_path,
    part_dir,
    write_manifest,
)


def pool_config(ncpu: int) -> "tuple[int, float]":
    """(task_slots, num_cpus_per_task) of the extraction stage: one task
    slot per CPU, each task reserving one whole CPU."""
    return max(1, ncpu), 1.0


def extract_dataset(
    ds: "ray.data.Dataset",
    path_to_part: Optional[Dict[str, int]] = None,
    concurrency: Optional[int] = None,
    batch_size: Optional[int] = None,
    max_payload_bytes: int = 256 * 1024 * 1024,
) -> "ray.data.Dataset":
    """Attach the extraction stage to a pages Dataset (no sink).

    ``Extractor`` holds no per-worker state (its patterns and stop-word
    tables are built at import), so an INSTANCE is passed and Ray runs
    it as a task stage fused with the parquet read. Each read task
    extracts its own blocks, nothing has to start before the first
    block is read, and no CPU stays reserved after the job ends. Passing
    the class instead would make Ray start an actor pool on every job
    (~1 s at 4 CPUs), keep its CPUs reserved while it sits
    idle (busy 39% of a 4-CPU job, perfbench ``extract.pool_busy``),
    and hang at ``num_cpus=1``, where the pool leaves no whole CPU for
    a read task.

    ``concurrency`` caps the number of concurrent extraction tasks
    (``None`` = one per free CPU).

    ``batch_size=None`` (default) feeds each UDF call one BLOCK, whose
    size is BYTE-bounded by ``DataContext.target_max_block_size`` — the
    skew guard the north rule requires: a run of giant payloads forms
    small-row blocks instead of inflating a fixed-row batch to
    gigabytes (also measured ~15% faster than row-count batching).
    """
    return ds.map_batches(
        Extractor(path_to_part=path_to_part, max_payload_bytes=max_payload_bytes),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def plan_partitions(shards: List[str], files_per_part: int) -> List[List[str]]:
    return [shards[i : i + files_per_part] for i in range(0, len(shards), files_per_part)]


def run_extract(
    input_path: Union[str, Sequence[str]],
    out_dir: str,
    *,
    resume: bool = False,
    files_per_part: int = 1,
    wave_parts: Optional[int] = 8,
    concurrency: Optional[int] = None,
    batch_size: Optional[int] = None,
    max_payload_bytes: int = 256 * 1024 * 1024,
    target_block_bytes: int = 32 * 1024 * 1024,
) -> Dict[str, Any]:
    """Run (or resume) the checkpointed extraction job as one Ray
    execution over all pending partitions. Returns a summary.

    ``wave_parts`` partitions form one checkpoint group, whose
    manifests publish as soon as the group's data is on disk
    (``None`` = publish at the end).

    ``resume=True`` skips partitions whose manifest exists (anti-join on
    the manifest store — the retry_helper.py:185-222 analogue) and wipes
    data dirs that have no manifest before re-processing them.

    ``target_block_bytes`` bounds block (and with ``batch_size=None``,
    per-UDF-call) bytes — the skew-aware split knob; restored after the
    job since ``DataContext`` is driver-global.
    """
    t_start = time.perf_counter()
    shards = find_shards(input_path)
    if not shards:
        raise FileNotFoundError(f"no input shards under {input_path!r}")
    ctx = ray.data.DataContext.get_current()
    prev_block_size = ctx.target_max_block_size
    if target_block_bytes:
        ctx.target_max_block_size = target_block_bytes
    try:
        return _run_extract_inner(
            t_start, shards, out_dir, resume=resume,
            files_per_part=files_per_part, wave_parts=wave_parts,
            concurrency=concurrency, batch_size=batch_size,
            max_payload_bytes=max_payload_bytes,
        )
    finally:
        # DataContext is driver-global: restore even when the job fails
        # (write error, bad shard) so later jobs in this process see the
        # original block size.
        ctx.target_max_block_size = prev_block_size


def _run_extract_inner(
    t_start: float,
    shards: List[str],
    out_dir: str,
    *,
    resume: bool,
    files_per_part: int,
    wave_parts: Optional[int],
    concurrency: Optional[int],
    batch_size: Optional[int],
    max_payload_bytes: int,
) -> Dict[str, Any]:
    parts = plan_partitions(shards, files_per_part)

    if resume:
        # A manifest only proves ITS input files were processed: if the
        # shard list changed between runs (a new shard sorting into the
        # middle re-shuffles the partition plan), part_id K may now mean
        # different files. Validate content-derived lineage and treat
        # mismatches as incomplete, so changed partitions re-process
        # instead of being silently skipped with wrong data.
        manifests = load_manifests(out_dir)
        completed = {
            pid: m
            for pid, m in manifests.items()
            if pid < len(parts) and m.get("lineage_id") == lineage_id(parts[pid])
        }
        clear_stale_partitions(out_dir, completed)
        for pid in manifests.keys() - completed.keys():
            try:
                os.remove(manifest_path(out_dir, pid))
            except OSError:
                pass
    else:
        if os.path.isdir(out_dir):
            import shutil

            shutil.rmtree(out_dir)
        completed = {}
    os.makedirs(out_dir, exist_ok=True)

    pending = [pid for pid in range(len(parts)) if pid not in completed]
    group_size = wave_parts or max(1, len(pending))
    groups = [pending[i : i + group_size] for i in range(0, len(pending), group_size)]
    # The Extractor emits one row per input row, so a part is complete
    # once its stats reach the row count of its input files' footers.
    expected = {pid: sum(pq.read_metadata(f).num_rows for f in parts[pid])
                for pid in pending}
    totals = {pid: dict(_ZERO_STATS, error_counts={}) for pid in pending}

    def publish_complete_groups() -> None:
        # a stats row follows its file, so a group whose row counts are
        # complete has all of its data on disk
        for group in [g for g in groups
                      if all(totals[pid]["row_count"] == expected[pid] for pid in g)]:
            for pid in group:
                write_manifest(out_dir, PartitionManifest(
                    part_id=pid,
                    lineage_id=lineage_id(parts[pid]),
                    input_files=parts[pid],
                    bytes_in=sum(os.path.getsize(f) for f in parts[pid]),
                    **totals[pid],
                ))
            groups.remove(group)

    if pending:
        # ONE Ray execution for every pending part: read, extract and
        # write fuse into one task stage whose only output is stats rows.
        path_to_part = {f: pid for pid in pending for f in parts[pid]}
        ds = read_pq(sorted(path_to_part), include_paths=True)
        ds = extract_dataset(
            ds,
            path_to_part=path_to_part,
            concurrency=concurrency,
            batch_size=batch_size,
            max_payload_bytes=max_payload_bytes,
        )
        stats = ds.map_batches(
            _PartWriter(out_dir, uuid.uuid4().hex),
            batch_format="pyarrow",
            concurrency=concurrency,
        )
        publish_complete_groups()  # parts whose input files hold no rows
        for batch in stats.iter_batches(batch_format="pyarrow", batch_size=None):
            _part_stats(totals, batch)
            publish_complete_groups()
        if groups:
            short = {pid: (totals[pid]["row_count"], expected[pid])
                     for g in groups for pid in g}
            raise RuntimeError(f"extracted rows != input rows (got, want) per part: {short}")

    n_rows = n_ok = 0
    error_counts: collections.Counter = collections.Counter()
    for m in [*totals.values(), *completed.values()]:
        n_rows += m["row_count"]
        n_ok += m["ok_count"]
        error_counts.update(m["error_counts"])

    wall_s = time.perf_counter() - t_start
    return {
        "n_parts": len(parts),
        "parts_skipped": len(completed),
        "n_rows": n_rows,
        "n_ok": n_ok,
        "error_counts": dict(error_counts),
        "wall_s": wall_s,
        "docs_per_sec": (n_rows / wall_s) if wall_s > 0 else 0.0,
        "out_dir": out_dir,
    }


# per-part figures the part writer returns, named as manifest fields
_ZERO_STATS = {"row_count": 0, "ok_count": 0, "extract_us_sum": 0,
               "bytes_out": 0, "write_us_sum": 0}
_STATS_SCHEMA = pa.schema([("part_id", pa.int64()), ("error_counts", pa.string())]
                          + [(k, pa.int64()) for k in _ZERO_STATS])


class _PartWriter:
    """Sink stage of the extraction job: writes each block's rows per
    ``part_id`` to ``<out>/part_id=K/`` (hive layout: the part column
    lives in the directory name, not in the file) and returns one stats
    row per part written: rows, ok, error counts by type (JSON), the
    ``extract_us`` sum, bytes written and write µs.

    File names are deterministic per task, as Ray's datasinks name them
    (write uuid + task index + call number within the task), so a
    retried task overwrites its files instead of adding a second copy.
    """

    def __init__(self, out_dir: str, write_uuid: str) -> None:
        self.out_dir = out_dir
        self.write_uuid = write_uuid

    def __call__(self, batch: pa.Table) -> pa.Table:
        ctx = TaskContext.get_current()
        seq = ctx.kwargs["part_writer_calls"] = ctx.kwargs.get("part_writer_calls", -1) + 1
        name = f"{self.write_uuid}_{ctx.task_idx:06}_{seq:06}.parquet"
        part_col = batch.column("part_id")
        data = batch.drop_columns(["part_id"])
        out = []
        for pid in pc.unique(part_col).to_pylist():
            rows = data.filter(pc.equal(part_col, pid))
            path = os.path.join(part_dir(self.out_dir, pid), name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            t0 = time.perf_counter_ns()
            pq.write_table(rows, path)
            write_us = (time.perf_counter_ns() - t0) // 1000
            status = rows.column("status")
            errors = rows.filter(pc.equal(status, "error")).column("error_type")
            out.append({
                "part_id": pid,
                "error_counts": json.dumps(
                    {v["values"]: v["counts"] for v in errors.value_counts().to_pylist()}),
                "row_count": rows.num_rows,
                "ok_count": pc.sum(pc.equal(status, "ok")).as_py() or 0,
                "extract_us_sum": pc.sum(rows.column("extract_us")).as_py() or 0,
                "bytes_out": os.path.getsize(path),
                "write_us_sum": write_us,
            })
        return pa.Table.from_pylist(out, schema=_STATS_SCHEMA)


def _part_stats(totals: Dict[int, Dict[str, Any]], batch: pa.Table) -> None:
    """Fold one batch of ``_PartWriter`` stats rows into per-part totals."""
    for r in batch.to_pylist():
        t = totals[r["part_id"]]
        for k in _ZERO_STATS:
            t[k] += r[k]
        for e, n in json.loads(r["error_counts"]).items():
            t["error_counts"][e] = t["error_counts"].get(e, 0) + n


def read_extracted(out_dir: str, columns: Optional[List[str]] = None) -> "ray.data.Dataset":
    """Read the (hive-partitioned) extracted output back as a Dataset."""
    return read_pq(out_dir, columns=columns)


def export_extracted(out_dir: str, dest: str, fmt: str = "json") -> int:
    """Re-sink extracted output as parquet/json/csv (the M14 output-format
    gate, deed_ocr/cli.py:99-104 — the reference declared txt/csv but only
    implemented json; all three are real here). CSV cannot hold nested
    columns, so ``spans``/``fields``/``stage`` structs are serialized to
    JSON strings per row. Returns the exported row count."""
    ds = read_extracted(out_dir)
    if fmt == "parquet":
        ds.write_parquet(dest)
    elif fmt == "json":
        ds.write_json(dest)
    elif fmt == "csv":
        nested = {"spans", "fields"}

        def flatten(t: pa.Table) -> pa.Table:
            cols = {}
            for name in t.column_names:
                if name in nested:
                    cols[name] = pa.array(
                        [json.dumps(v, ensure_ascii=False, sort_keys=True)
                         for v in t.column(name).to_pylist()],
                        type=pa.string(),
                    )
                else:
                    cols[name] = t.column(name)
            return pa.table(cols)

        ds.map_batches(flatten, batch_format="pyarrow").write_csv(dest)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return read_pq(out_dir, columns=["status"]).count()


def dump_page_debug(input_path: Union[str, Sequence[str]], dest: str) -> Dict[str, Any]:
    """Per-page debug file sink (S5 analogue,
    deed_ocr/utils/pdf_converter.py:128-155 ``save_images`` — one file
    per page named ``{name}_page_{i:03d}``). The reference rasterizes to
    PNG; this environment has no rasterizer in either repo, so the
    debug payload is the page's parsed TEXT — the naming convention,
    per-page fan-out and distributed sink shape are the operator.

    Each map task writes its own rows' files (a file fan-out sink, no
    driver loop); names key on md5(url) so they are stable and
    collision-free across shards. Returns counters."""
    import hashlib

    from ..stages.pdf_extract import parse_pdf_pages

    shards = find_shards(input_path)
    if not shards:
        raise FileNotFoundError(f"no input shards under {input_path!r}")
    os.makedirs(dest, exist_ok=True)
    ds = read_pq(shards, columns=["url", "html"])

    def dump(t: "pa.Table") -> "pa.Table":
        n_docs = n_pages = 0
        for url, html in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            if html is None or not bytes(html).startswith(b"%PDF"):
                continue
            pages, _ = parse_pdf_pages(bytes(html))
            slug = hashlib.md5(url.encode("utf-8")).hexdigest()[:12]
            for i, text in enumerate(pages, start=1):
                with open(os.path.join(dest, f"{slug}_page_{i:03d}.txt"), "w") as f:
                    f.write(text)
                n_pages += 1
            n_docs += 1
        return pa.table({
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "n_pages": pa.array([n_pages], type=pa.int64()),
        })

    counts = ds.map_batches(dump, batch_format="pyarrow")
    return {
        "n_docs": int(counts.sum("n_docs") or 0),
        "n_pages": int(counts.sum("n_pages") or 0),
        "dest": dest,
    }


def iter_extracted(
    out_dir: str,
    columns: Optional[List[str]] = None,
    batch_size: int = 1024,
    batch_format: str = "pyarrow",
):
    """Stream the extracted output as batches — the training-loop
    consumption path (backpressured ``iter_batches``; nothing is
    materialized driver-side). Yields ``pyarrow.Table`` (default) or
    pandas batches of ``batch_size`` rows."""
    ds = read_extracted(out_dir, columns=columns)
    return ds.iter_batches(batch_size=batch_size, batch_format=batch_format)
