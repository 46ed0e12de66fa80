"""Same-window A/B of registry queries between two checkouts.

Runs the queries of ``__ray_entry__.queries()`` in alternating
subprocesses, one per checkout and pass (A B, B A, A B, ...), each with
its own Ray session of ``--cpus`` CPUs. The query order rotates by one
on each pair of passes and is the same on both sides of a pair. That
spreads order effects over the queries, including the cold-worker
stall after an actor-pool query in checkouts whose stages still ran as
actor pools, which hit whichever query ran next. Prints per-query
median seconds, the B/A ratio and whether the value hashes
(``check_oracles.value_hash``) agree across every pass of both sides. Usage:

    python tools/ab_queries.py <checkout A> <checkout B> --sf <sf_dir> \\
        [--cpus 4] [--reps 3] [query ...]

With no query named, every query of the checkout's registry runs. Each
query runs twice in a row in the pass's process, after one small Ray
Data job has started the workers, and its time is the second, warm
run's ``to_pandas(query(sf_dir))``: the first run pays what the query
needs the first time in a session (imports, worker start-up, cached
reads), so a pass that names one query measures that query, not the
session's start-up. Both runs are hashed; two runs that disagree count
as a hash of their own. A ratio above 1.10 is flagged ``SLOWER``.
Re-run a flagged query on its own before concluding anything: CPU
steal on a shared host moves single timings a lot. Exits 1 when a
query's value hashes differ (``DIFFERENT``) or a query errors or is
missing on one side, so a script can gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

def worker(checkout: str, sf_dir: str, cpus: int, rep: int,
           names: list) -> None:
    """One pass: run ``names`` (all registry queries when empty) of the
    checkout's ``__ray_entry__``, rotated left by ``rep``, each twice,
    and print one JSON line per query with the second run's time."""
    from check_oracles import to_pandas, value_hash

    sys.path.insert(0, checkout)  # after check_oracles put its own repo first
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as ent

    # start the workers before the first timed query
    ray.data.range(cpus, override_num_blocks=cpus).materialize()
    qs = ent.queries()
    names = names or list(qs)
    shift = rep % len(names)
    for name in names[shift:] + names[:shift]:
        try:
            cold = value_hash(to_pandas(qs[name](sf_dir)))
            t0 = time.perf_counter()
            df = to_pandas(qs[name](sf_dir))
        except Exception as e:  # noqa: BLE001
            rec = {"q": name, "error": f"{type(e).__name__}: {e}"[:200]}
        else:
            warm = value_hash(df)
            rec = {"q": name, "s": time.perf_counter() - t0, "rows": len(df),
                   "hash": warm if warm == cold else f"{cold}/{warm}"}
        print(json.dumps(rec), flush=True)
    ray.shutdown()


def run_pass(checkout: str, rep: int, args) -> list:
    """One subprocess pass over ``checkout`` in rotation ``rep``; its
    per-query records."""
    env = dict(os.environ, PYTHONPATH=checkout)  # Ray workers import from it
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", checkout,
         args.sf, str(args.cpus), str(rep), *args.queries],
        cwd=checkout, env=env, capture_output=True, text=True,
        timeout=args.timeout)
    recs = [json.loads(line) for line in out.stdout.splitlines()
            if line.startswith("{")]
    if out.returncode:
        sys.stderr.write(out.stderr[-2000:])
    return recs


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        checkout, sf_dir, cpus, rep, *names = sys.argv[2:]
        worker(checkout, sf_dir, int(cpus), int(rep), names)
        return
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="checkout A (the parent)")
    ap.add_argument("b", help="checkout B (the change)")
    ap.add_argument("queries", nargs="*", help="queries (default: all)")
    ap.add_argument("--sf", required=True, help="sf table dir")
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--reps", type=int, default=3, help="passes per side")
    ap.add_argument("--timeout", type=int, default=3600,
                    help="seconds per pass")
    args = ap.parse_intermixed_args()
    sides = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    runs = {"A": [], "B": []}
    for rep in range(args.reps):
        for side in ("A", "B") if rep % 2 == 0 else ("B", "A"):
            t0 = time.perf_counter()
            runs[side].append(run_pass(sides[side], rep, args))
            print(f"pass {rep + 1}/{args.reps} {side}: "
                  f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)

    order = list(dict.fromkeys(r["q"] for p in runs["A"] + runs["B"] for r in p))
    print(f"{'query':32} {'A s':>7} {'B s':>7} {'B/A':>6}  hash")
    totals = {"A": 0.0, "B": 0.0}
    failed = False
    for q in order:
        recs = {s: [r for p in runs[s] for r in p if r["q"] == q] for s in runs}
        errs = [r["error"] for s in recs for r in recs[s] if "error" in r]
        if errs or not all(recs.values()):
            print(f"{q:32} error: {errs[0] if errs else 'missing on one side'}")
            failed = True
            continue
        med = {s: statistics.median(r["s"] for r in recs[s]) for s in recs}
        for s in med:
            totals[s] += med[s]
        hashes = {s: {r["hash"] for r in recs[s]} for s in recs}
        same = ("equal" if len(hashes["A"] | hashes["B"]) == 1 else
                f"DIFFERENT (A {len(hashes['A'])}, B {len(hashes['B'])} "
                f"distinct, {len(hashes['A'] & hashes['B'])} shared)")
        failed |= same != "equal"
        ratio = med["B"] / med["A"] if med["A"] else float("inf")
        flag = "  SLOWER" if ratio > 1.10 else ""
        print(f"{q:32} {med['A']:7.3f} {med['B']:7.3f} {ratio:6.2f}  {same}{flag}")
    if totals["A"]:
        print(f"{'total of medians':32} {totals['A']:7.2f} {totals['B']:7.2f} "
              f"{totals['B'] / totals['A']:6.2f}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
