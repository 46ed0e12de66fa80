"""Per-partition checkpoint manifests with lineage ids and metrics.

The columnar re-design of the reference's output-directory-as-state
resume mechanism: each processed document folder writes an
``error_summary.json`` with ``has_errors`` / ``retry_needed`` /
``failed_pages`` (deed_ocr/workflow.py:370-385), and an offline scan
selects retry candidates from it
(deed_ocr/utils/retry_helper.py:14-111,185-222). Here the unit of
checkpointing is an input-shard partition: ``<out>/part_id=<k>/`` holds
the data (hive layout) and ``<out>/_manifests/part-<k>.json`` holds
``{lineage_id, input_files, row/ok/error counts, bytes, timings}``.

Manifests are written atomically AFTER their partition's data is fully
on disk (write-tmp + ``os.replace``), so a crash between data and
manifest re-processes that partition instead of trusting half-written
output (SURVEY.md §7.4 risk 5). Resume = anti-join of planned partitions
against completed manifests (the J3 semi-join analogue).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from typing import Any, Dict, List

MANIFEST_SUBDIR = "_manifests"


@dataclasses.dataclass
class PartitionManifest:
    part_id: int
    lineage_id: str
    input_files: List[str]
    row_count: int
    ok_count: int
    error_counts: Dict[str, int]
    bytes_in: int
    bytes_out: int
    extract_us_sum: int
    write_us_sum: int = 0

    def to_json(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def lineage_id(input_files: List[str], attempt: int = 0) -> str:
    """Content-derived lineage id: stable across runs for the same
    partition plan, distinct per retry attempt."""
    h = hashlib.sha1()
    for f in sorted(input_files):
        h.update(f.encode())
        h.update(b"\0")
    return f"{h.hexdigest()[:12]}a{attempt}"


def manifest_path(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, MANIFEST_SUBDIR, f"part-{part_id:05d}.json")


def part_dir(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, f"part_id={part_id}")


def write_manifest(out_dir: str, m: PartitionManifest) -> str:
    path = manifest_path(out_dir, m.part_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(m.to_json(), f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)  # atomic publish
    return path


def load_manifests(out_dir: str) -> Dict[int, Dict[str, Any]]:
    mdir = os.path.join(out_dir, MANIFEST_SUBDIR)
    out: Dict[int, Dict[str, Any]] = {}
    if not os.path.isdir(mdir):
        return out
    for name in sorted(os.listdir(mdir)):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(mdir, name)) as f:
                m = json.load(f)
            out[int(m["part_id"])] = m
        except (ValueError, KeyError, json.JSONDecodeError):
            continue  # corrupt manifest == not completed
    return out


def clear_stale_partitions(out_dir: str, completed: Dict[int, Dict[str, Any]]) -> List[int]:
    """Delete ``part_id=K`` data dirs that have no manifest (partial
    output from a crashed job). Returns the removed part ids."""
    removed: List[int] = []
    if not os.path.isdir(out_dir):
        return removed
    for name in os.listdir(out_dir):
        if not name.startswith("part_id="):
            continue
        try:
            pid = int(name.split("=", 1)[1])
        except ValueError:
            continue
        if pid not in completed:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
            removed.append(pid)
    return removed

