"""Command-line driver: ``python -m deed_ocr_ray <command> ...``.

The user-facing batch surface of the engine — the analogue of the
reference's click CLI (deed_ocr/cli.py:40-117: input/output paths,
engine knobs, continue-on-error, output-format gate) re-shaped for a
Ray job:

  extract  run (or resume) the checkpointed extraction job
  report   summarize a run's partition manifests; list retry candidates
  export   convert extracted parquet to json/csv (the M14 format gate,
           deed_ocr/cli.py:99-104 — here all three formats are real)

The CLI owns the Ray session (guarded init, explicit shutdown); library
code never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional


def _init_ray(num_cpus: Optional[int]) -> bool:
    """Guarded init; returns True iff THIS call started the session (an
    embedding caller — tests, a notebook — keeps ownership of its own)."""
    import ray

    started = False
    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(address="local", **kwargs)
        started = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def cmd_extract(args: argparse.Namespace) -> int:
    args._owns_ray = _init_ray(args.num_cpus)
    from .pipelines.extract_pipeline import run_extract

    summary = run_extract(
        args.input,
        args.output,
        resume=args.resume,
        files_per_part=args.files_per_part,
        wave_parts=args.wave_parts,
        concurrency=args.concurrency or None,
        batch_size=args.batch_size if args.batch_size > 0 else None,
        max_payload_bytes=args.max_payload_bytes,
    )
    print(json.dumps(summary))
    # non-zero exit when any partition produced error rows and the user
    # asked for strictness (reference: exit 1 on failures unless
    # --continue-on-error, deed_ocr/cli.py:303-337). Error ROWS are the
    # normal absorb-and-continue path, so default is success.
    if args.strict and any(summary["error_counts"].values()):
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .state.report import cost_breakdown, format_report, retry_candidates, run_report

    summary = run_report(args.output)
    cands = retry_candidates(args.output, args.error_types or None)
    costs = cost_breakdown(summary, args.profile) if args.costs else None
    if args.json:
        out = {**summary, "retry_candidates": cands}
        if costs:
            out["cost_breakdown"] = costs
        print(json.dumps(out))
    else:
        print(format_report(summary, cands, costs))
    return 0


def cmd_debug_dump(args: argparse.Namespace) -> int:
    args._owns_ray = _init_ray(args.num_cpus)
    from .pipelines.extract_pipeline import dump_page_debug

    print(json.dumps(dump_page_debug(args.input, args.dest)))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    args._owns_ray = _init_ray(args.num_cpus)
    from .pipelines.extract_pipeline import export_extracted

    n = export_extracted(args.output, args.dest, fmt=args.format)
    print(json.dumps({"rows": n, "dest": args.dest, "format": args.format}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="deed_ocr_ray")
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="run or resume the extraction job")
    ex.add_argument("input", help="pages parquet file/dir/glob")
    ex.add_argument("output", help="output directory (partitioned parquet + manifests)")
    ex.add_argument("--resume", action="store_true",
                    help="skip partitions with a manifest (crash recovery)")
    ex.add_argument("--files-per-part", type=int, default=1)
    ex.add_argument("--wave-parts", type=int, default=8,
                    help="partitions per checkpoint group (0 = publish at end)")
    ex.add_argument("--batch-size", type=int, default=0,
                    help="rows per extractor call (0 = byte-bounded blocks, "
                         "the default skew guard; ~15%% faster than row counts)")
    ex.add_argument("--concurrency", type=int, default=0,
                    help="max concurrent extraction tasks (0 = one per free CPU)")
    ex.add_argument("--max-payload-bytes", type=int, default=256 * 1024 * 1024)
    ex.add_argument("--num-cpus", type=int, default=0, help="ray.init num_cpus (0 = default)")
    ex.add_argument("--strict", action="store_true",
                    help="exit 1 if any error rows were produced")
    ex.set_defaults(fn=cmd_extract)

    rp = sub.add_parser("report", help="summarize a run from its manifests")
    rp.add_argument("output", help="extraction output directory")
    rp.add_argument("--error-types", nargs="*", default=None,
                    help="error classes that qualify for retry (default: transient)")
    rp.add_argument("--json", action="store_true")
    rp.add_argument("--costs", action="store_true",
                    help="append the estimated-cost breakdown (G6)")
    rp.add_argument("--profile", default="standard",
                    help="price-table profile (standard | high_accuracy)")
    rp.set_defaults(fn=cmd_report)

    dd = sub.add_parser("debug-dump",
                        help="write one debug text file per PDF page "
                             "({md5(url)[:12]}_page_{i:03d}.txt — the S5 sink)")
    dd.add_argument("input", help="pages parquet file/dir/glob")
    dd.add_argument("dest", help="destination directory for page files")
    dd.add_argument("--num-cpus", type=int, default=0)
    dd.set_defaults(fn=cmd_debug_dump)

    xp = sub.add_parser("export", help="convert extracted parquet to json/csv")
    xp.add_argument("output", help="extraction output directory")
    xp.add_argument("dest", help="destination directory")
    xp.add_argument("--format", choices=("parquet", "json", "csv"), default="json")
    xp.add_argument("--num-cpus", type=int, default=0)
    xp.set_defaults(fn=cmd_export)
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "extract" and args.wave_parts == 0:
        args.wave_parts = None
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError) as exc:
        # predictable user errors: clean message, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        import ray

        if getattr(args, "_owns_ray", False) and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
