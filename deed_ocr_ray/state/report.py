"""Run reports and retry candidacy from partition manifests.

Analogue of the reference's offline retry tooling: scan output state,
summarize failures by category, select retry candidates by error class,
and render a human-readable report
(deed_ocr/utils/retry_helper.py:14-111 ``scan_output_directory``,
:185-222 ``get_retry_candidates``, :113-183 ``generate_retry_report``;
summary counters deed_ocr/cli.py:303-337). The generated-retry-script
sink (retry_helper.py:224-349) is replaced by the resumable run itself:
``python -m deed_ocr_ray extract ... --resume`` re-processes exactly the
partitions without a manifest.
"""

from __future__ import annotations

import collections
from typing import Any, Dict, List, Optional

from ..functions.errors import ERROR_TYPES
from .manifest import load_manifests

# Error classes worth re-running (transient / environment-shaped), vs
# poison rows (content-shaped: re-running cannot change the outcome).
# Mirrors the reference's retry_recommended classification
# (deed_ocr/workflow.py:86-108).
TRANSIENT_ERRORS = frozenset(k for k, retry in ERROR_TYPES.items() if retry)


def run_report(out_dir: str, planned_parts: Optional[int] = None) -> Dict[str, Any]:
    """Aggregate all manifests into one summary dict (G4/G5 analogue)."""
    ms = load_manifests(out_dir)
    errors: collections.Counter = collections.Counter()
    rows = ok = bytes_in = bytes_out = extract_us = write_us = 0
    for m in ms.values():
        rows += m["row_count"]
        ok += m["ok_count"]
        bytes_in += m["bytes_in"]
        bytes_out += m["bytes_out"]
        extract_us += m.get("extract_us_sum", 0)
        write_us += m.get("write_us_sum", 0)
        errors.update(m["error_counts"])
    n_err = rows - ok
    return {
        "out_dir": out_dir,
        "parts_completed": len(ms),
        "parts_planned": planned_parts,
        "parts_pending": (planned_parts - len(ms)) if planned_parts else None,
        "row_count": rows,
        "ok_count": ok,
        "error_count": n_err,
        "error_rate": (n_err / rows) if rows else 0.0,
        "error_counts": dict(errors),
        "bytes_in": bytes_in,
        "bytes_out": bytes_out,
        "extract_cpu_s": extract_us / 1e6,
        "write_cpu_s": write_us / 1e6,
    }


# ------------------------------------------------------------- cost model
#
# Analogue of the reference's token-price roll-up
# (deed_ocr/workflow.py:618-698 ``_calculate_estimated_cost``): a price
# table keyed by profile, unit prices applied to the run's counters,
# a structured breakdown with the same shape (usage, per-unit pricing,
# estimated_costs_usd, formatted strings). The reference prices
# input/output TOKENS per model; this engine's billable units are the
# manifest counters: bytes read, bytes written, extraction CPU seconds.

PRICE_TABLE = {
    # unit prices in USD; profiles mirror the reference's
    # normal/high-accuracy split (workflow.py:664-672)
    "standard": {"read_per_gib": 0.02, "write_per_gib": 0.05, "cpu_per_hour": 0.048},
    "high_accuracy": {"read_per_gib": 0.02, "write_per_gib": 0.05, "cpu_per_hour": 0.28},
}
DEFAULT_PROFILE = "standard"
_GIB = 1024 ** 3


def cost_breakdown(summary: Dict[str, Any], profile: str = DEFAULT_PROFILE) -> Dict[str, Any]:
    """Estimated-cost roll-up from a run summary's counters (G6).

    Unknown profiles fall back to the default with a note, mirroring
    the reference's unknown-model fallback (workflow.py:649-653)."""
    if profile in PRICE_TABLE:
        prices = PRICE_TABLE[profile]
        used_profile = profile
    else:
        prices = PRICE_TABLE[DEFAULT_PROFILE]
        used_profile = f"{DEFAULT_PROFILE} (unknown profile {profile!r})"
    gib_in = summary["bytes_in"] / _GIB
    gib_out = summary["bytes_out"] / _GIB
    cpu_h = summary["extract_cpu_s"] / 3600.0
    # parts are rounded FIRST and the total is their sum, so the
    # reported total always equals the sum of the reported lines (an
    # unrounded-sum total can differ from the visible parts by 1e-6
    # at rounding boundaries — observed when the corpus grew 1.5%)
    read_cost = round(gib_in * prices["read_per_gib"], 6)
    write_cost = round(gib_out * prices["write_per_gib"], 6)
    compute_cost = round(cpu_h * prices["cpu_per_hour"], 6)
    total = round(read_cost + write_cost + compute_cost, 6)
    return {
        "profile": used_profile,
        "usage": {
            "bytes_in": summary["bytes_in"],
            "bytes_out": summary["bytes_out"],
            "extract_cpu_s": round(summary["extract_cpu_s"], 3),
            "rows": summary["row_count"],
        },
        "pricing": dict(prices),
        "estimated_costs_usd": {
            "read": read_cost,
            "write": write_cost,
            "compute": compute_cost,
            "total": total,
        },
        "cost_breakdown_formatted": {
            "read": f"${read_cost:.6f} ({gib_in:.3f} GiB × ${prices['read_per_gib']}/GiB)",
            "write": f"${write_cost:.6f} ({gib_out:.3f} GiB × ${prices['write_per_gib']}/GiB)",
            "compute": f"${compute_cost:.6f} ({cpu_h:.4f} cpu-h × ${prices['cpu_per_hour']}/h)",
            "total": f"${total:.6f}",
            "per_1k_rows": (
                f"${total / summary['row_count'] * 1000:.6f}"
                if summary["row_count"] else "$0.000000"
            ),
        },
    }


def retry_candidates(
    out_dir: str, error_types: Optional[List[str]] = None
) -> List[int]:
    """Partition ids whose manifests contain errors of the given classes
    (default: the transient classes). Deleting those manifests and
    re-running with ``--resume`` re-processes exactly these partitions —
    the columnar analogue of the reference's selective re-run by error
    type (retry_helper.py:185-222)."""
    wanted = set(error_types) if error_types else TRANSIENT_ERRORS
    out: List[int] = []
    for pid, m in sorted(load_manifests(out_dir).items()):
        if any(k in wanted and v > 0 for k, v in m["error_counts"].items()):
            out.append(pid)
    return out


def format_report(
    summary: Dict[str, Any],
    candidates: List[int],
    costs: Optional[Dict[str, Any]] = None,
) -> str:
    """Human-readable run report (the S16 retry-report sink analogue),
    optionally with the G6 cost breakdown appended."""
    lines = [
        "=== extraction run report ===",
        f"output:            {summary['out_dir']}",
        f"partitions done:   {summary['parts_completed']}"
        + (f" / {summary['parts_planned']}" if summary["parts_planned"] else ""),
        f"rows:              {summary['row_count']}  "
        f"(ok {summary['ok_count']}, error {summary['error_count']}, "
        f"rate {summary['error_rate']:.2%})",
        f"bytes in/out:      {summary['bytes_in']} / {summary['bytes_out']}",
        f"extract cpu:       {summary['extract_cpu_s']:.1f}s",
        f"write cpu:         {summary['write_cpu_s']:.2f}s",
    ]
    if summary["error_counts"]:
        lines.append("errors by type:")
        for k, v in sorted(summary["error_counts"].items()):
            lines.append(f"  {k:20s} {v}")
    if candidates:
        lines.append(f"retry candidates (transient errors): parts {candidates}")
        lines.append("  re-run: delete their manifests, then extract --resume")
    else:
        lines.append("retry candidates: none")
    if costs:
        lines.append(f"estimated cost ({costs['profile']}):")
        fmt = costs["cost_breakdown_formatted"]
        for k in ("read", "write", "compute", "total", "per_1k_rows"):
            lines.append(f"  {k:12s} {fmt[k]}")
    return "\n".join(lines)
