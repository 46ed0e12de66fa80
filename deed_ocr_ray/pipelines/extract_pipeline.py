"""The flagship extraction pipeline: pages parquet -> extracted parquet.

Dataflow (SURVEY.md §7.1):

    read_parquet(shards, include_paths)        # (url, warc_ts, html, text, lang)
      └─ map_batches(Extractor(...))           # one stateless dispatching task stage,
      │                                        #   fused with the read: sniff →
      │                                        #   html/pdf/text branch → normalize →
      │                                        #   spans → fields → error rows
      └─ write_parquet(partition_cols=[part_id]) + per-partition manifests

Scale design decisions:
  * ONE extraction stage, run as plain tasks fused with the parquet
    read (``ReadParquet->MapBatches(Extractor)``) — the heavy ``html``
    binary column goes from the reader straight into the extractor in
    the same worker and never crosses the object store.
  * Partition unit = input shard file group; rows carry ``part_id`` so
    ``write_parquet(partition_cols=...)`` gives one output directory per
    input shard group — the resume/retry unit (resumable output layout).
  * Waves: partitions are processed ``wave_parts`` at a time; each wave
    is one streaming Dataset job (full parallelism inside), and its
    manifests publish atomically after the wave's data is on disk.
    Smaller waves = finer checkpoints; ``wave_parts=None`` = one pass.
  * Skew: payloads above ``max_payload_bytes`` become typed error rows;
    blocks are byte-bounded by ``DataContext.target_max_block_size`` so
    a giant blob lands in a small-row block instead of stalling a fat
    batch (north-rule skew handling).
"""

from __future__ import annotations

import collections
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Union

import pyarrow.parquet as pq
import ray
import ray.data

from ..sources.pages import find_shards, read_pq
from ..stages.extract import Extractor
from ..state.manifest import (
    PartitionManifest,
    clear_stale_partitions,
    dir_bytes,
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
    and wave (~1 s at 4 CPUs), keep its CPUs reserved while it sits
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
    """Run (or resume) the checkpointed extraction job. Returns a summary.

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
        # DataContext is driver-global: restore even when a wave fails
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
        completed = {
            pid: m
            for pid, m in load_manifests(out_dir).items()
            if pid < len(parts) and m.get("lineage_id") == lineage_id(parts[pid])
        }
        clear_stale_partitions(out_dir, completed)
        for pid in set(load_manifests(out_dir)) - set(completed):
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
    wave_size = wave_parts or max(1, len(pending))
    waves = [pending[i : i + wave_size] for i in range(0, len(pending), wave_size)]

    n_rows = n_ok = 0
    error_counts: collections.Counter = collections.Counter()
    for wave in waves:
        path_to_part = {f: pid for pid in wave for f in parts[pid]}
        ds = read_pq(sorted(path_to_part), include_paths=True)
        ds = extract_dataset(
            ds,
            path_to_part=path_to_part,
            concurrency=concurrency,
            batch_size=batch_size,
            max_payload_bytes=max_payload_bytes,
        )
        ds.write_parquet(out_dir, partition_cols=["part_id"])
        # publish manifests (atomic, after data) with read-back stats
        # over two tiny columns — columnar pruning keeps this cheap.
        for pid in wave:
            pdir = part_dir(out_dir, pid)
            stats = _part_stats(pdir)
            m = PartitionManifest(
                part_id=pid,
                lineage_id=lineage_id(parts[pid]),
                input_files=parts[pid],
                row_count=stats["rows"],
                ok_count=stats["ok"],
                error_counts=stats["errors"],
                bytes_in=sum(os.path.getsize(f) for f in parts[pid]),
                bytes_out=dir_bytes(pdir),
                extract_us_sum=stats["extract_us"],
            )
            write_manifest(out_dir, m)
            n_rows += stats["rows"]
            n_ok += stats["ok"]
            error_counts.update(stats["errors"])

    for m in completed.values():
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


def _part_stats(pdir: str) -> Dict[str, Any]:
    if not os.path.isdir(pdir):
        return {"rows": 0, "ok": 0, "errors": {}, "extract_us": 0}
    tbl = pq.read_table(pdir, columns=["status", "error_type", "extract_us"])
    status = tbl.column("status").to_pylist()
    etypes = tbl.column("error_type").to_pylist()
    errors = collections.Counter(e for s, e in zip(status, etypes) if s == "error")
    import pyarrow.compute as pc

    us = pc.sum(tbl.column("extract_us")).as_py() or 0
    return {
        "rows": tbl.num_rows,
        "ok": sum(1 for s in status if s == "ok"),
        "errors": dict(errors),
        "extract_us": int(us),
    }


def read_extracted(out_dir: str, columns: Optional[List[str]] = None) -> "ray.data.Dataset":
    """Read the (hive-partitioned) extracted output back as a Dataset."""
    return read_pq(out_dir, columns=columns)


def export_extracted(out_dir: str, dest: str, fmt: str = "json") -> int:
    """Re-sink extracted output as parquet/json/csv (the M14 output-format
    gate, deed_ocr/cli.py:99-104 — the reference declared txt/csv but only
    implemented json; all three are real here). CSV cannot hold nested
    columns, so ``spans``/``fields``/``stage`` structs are serialized to
    JSON strings per row. Returns the exported row count."""
    import json as _json

    import pyarrow as pa

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
                        [_json.dumps(v, ensure_ascii=False, sort_keys=True)
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

    import pyarrow as pa

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
