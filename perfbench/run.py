"""Benchmark of the deed_ocr_ray extraction engine and its exchange queries.

    python3 perfbench/run.py --workload extract_mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # every workload and metric, tiny inputs

Run from the repository root. The run generates its inputs from
``--seed``, computes the reference outputs, runs each Ray session of the
workload in its own subprocess with a hard timeout (``session.py``),
checks every output and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``. The metric names and
units are those of ``BENCHMARK.json``: its ``end_to_end`` list with
``--trace 0``, its ``per_layer`` list with ``--trace 1``. The line
before it is a JSON report with the host block, every workload figure
and the error classes. See ``NOTES.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from typing import Any, Dict, List, NoReturn, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_LIMIT_S = 160.0          # a run must end within 180 s, reaping included
OBJECT_STORE_BYTES = 384 * 1024 * 1024
SOCKET_PATH_MAX = 107        # AF_UNIX path limit Ray checks
RAY_SESSION_SUFFIX = 64      # "/session_<date>_<time>_<us>_<pid>/sockets/plasma_store"

# name -> sizes and sessions (role, CPUs, share of --seconds, fewest jobs)
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "extract_mixed": {
        "n_docs": 2000, "n_shards": 8, "classes": None, "checkpointed": False,
        "sessions": [("c4", 4, 0.5, 4), ("c2", 2, 0.5, 3)],
    },
    "extract_pdf_checkpointed": {
        "n_docs": 800, "n_shards": 16, "classes": "non_html", "checkpointed": True,
        "sessions": [("c4", 4, 1.0, 3)],
    },
    "queries_exchange": {
        "sf": 0.01,
        "sessions": [("c4", 4, 1.0, 2)],
    },
}
SMOKE = {"n_docs": 200, "n_shards": 4, "sf": 0.002}


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def canary_s() -> float:
    """Fixed pure-Python work; its time attributes host-steal windows."""
    t = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return time.perf_counter() - t


def host_block() -> Dict[str, Any]:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "ray": metadata.version("ray"),
        "pyarrow": metadata.version("pyarrow"),
        "python": sys.version.split()[0],
        "canary_s": canary_s(),
    }


# ------------------------------------------------------------ processes

def _proc_table() -> Dict[int, "tuple[int, str]"]:
    """pid -> (ppid, starttime) for every visible process."""
    out: Dict[int, "tuple[int, str]"] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            out[int(name)] = (int(fields[1]), fields[19])
        except (OSError, IndexError, ValueError):
            continue
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class ProcessWatch(threading.Thread):
    """Samples the summed RSS of a session process and its descendants
    (the Ray driver, GCS, raylet and workers), and remembers every
    descendant so that none outlives the session."""

    def __init__(self, root_pid: int) -> None:
        super().__init__(daemon=True)
        self.root_pid = root_pid
        self.seen: Dict[int, str] = {}
        self.peak_rss = 0
        self._halt = threading.Event()

    def _tree(self) -> List[int]:
        table = _proc_table()
        kids: Dict[int, List[int]] = {}
        for pid, (ppid, _) in table.items():
            kids.setdefault(ppid, []).append(pid)
        todo, tree = [self.root_pid], []
        while todo:
            pid = todo.pop()
            if pid in table:
                tree.append(pid)
                self.seen.setdefault(pid, table[pid][1])
            todo.extend(kids.get(pid, []))
        return tree

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak_rss = max(self.peak_rss, sum(_rss_bytes(p) for p in self._tree()))
            self._halt.wait(0.2)

    def stop_and_reap(self) -> None:
        """Stop sampling, then kill and wait for any remembered process
        still alive a second after the session process ended (Ray
        processes that outlive ``ray.shutdown``, or a timed-out
        session's)."""
        self._halt.set()
        self.join()
        deadline = time.monotonic() + 1.0
        while True:
            table = _proc_table()
            alive = [p for p, st in self.seen.items()
                     if p != os.getpid() and p in table and table[p][1] == st]
            if not alive:
                return
            if time.monotonic() > deadline:
                for p in alive:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except OSError:
                        pass
            time.sleep(0.2)


def run_session(spec: Dict[str, Any], work: str, timeout_s: float) -> Dict[str, Any]:
    """Run ``session.py`` for ``spec``; a timeout or crash becomes a
    result with ``error`` set and one failed operation."""
    tag = f"{spec['role']}"
    spec_path = os.path.join(work, f"spec_{tag}.json")
    out_path = os.path.join(work, f"result_{tag}.json")
    log_path = os.path.join(work, f"session_{tag}.log")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ)
    env["PYTHONPATH"] = ROOT + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env.setdefault("OMP_NUM_THREADS", "1")
    error = None
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), spec_path, out_path],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        watch = ProcessWatch(proc.pid)
        watch.start()
        try:
            rc = proc.wait(timeout=max(1.0, timeout_s))
            if rc != 0:
                error = f"SessionExit{rc}"
        except subprocess.TimeoutExpired:
            error = "Timeout"
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            watch.stop_and_reap()
    if error is None and not os.path.exists(out_path):
        error = "NoResult"
    if error is not None:
        keep = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(keep, exist_ok=True)
        shutil.copy(log_path, os.path.join(keep, f"failed_{spec['workload']}_{tag}.log"))
        with open(log_path) as f:
            tail = f.read()[-3000:]
        print(f"perfbench: session {tag} failed ({error}); log tail:\n{tail}",
              file=sys.stderr)
        return {"error": error, "peak_rss": watch.peak_rss}
    with open(out_path) as f:
        res = json.load(f)
    res["peak_rss"] = watch.peak_rss
    return res


# ---------------------------------------------------------------- inputs

def make_inputs(name: str, wl: Dict[str, Any], seed: int, work: str) -> Dict[str, Any]:
    """Generate the workload's inputs and, for extraction, the serial
    reference hashes. Returns spec fields for the sessions."""
    import pyarrow.parquet as pq

    import check
    import inputs

    cache = os.path.join(work, "inputs")
    if name == "queries_exchange":
        return {"sf_dir": inputs.sf_dir(cache, seed, wl["sf"])}
    from deed_ocr_ray.stages.extract import extract_table

    classes = inputs.NON_HTML_CLASSES if wl["classes"] == "non_html" else None
    ids = inputs.pick_doc_ids(wl["n_docs"], classes)
    corpus = inputs.pages_corpus(cache, seed, ids, wl["n_shards"], tag=name)
    ref = check.table_hashes(extract_table(inputs.read_corpus(corpus)))
    ref_path = os.path.join(work, "reference.parquet")
    pq.write_table(ref, ref_path)
    return {"corpus": corpus, "ref": ref_path, "n_docs": len(ids),
            "checkpointed": wl["checkpointed"], "ref_digest": check.digest(ref)}


def ray_temp_dir(work: str) -> Optional[str]:
    """Ray's temp dir inside the run's work dir, or None (Ray's default)
    when the socket paths under it would pass the AF_UNIX limit."""
    path = os.path.join(work, "ray")
    return path if len(path) + RAY_SESSION_SUFFIX <= SOCKET_PATH_MAX else None


# ---------------------------------------------------------------- report

def median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, work: str) -> Dict[str, Any]:
    t0 = time.perf_counter()
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = dict(WORKLOADS[name])
    if smoke:
        wl.update({k: v for k, v in SMOKE.items() if k in wl})
    ncpu = len(os.sched_getaffinity(0))
    base = make_inputs(name, wl, seed, work)
    input_setup_s = time.perf_counter() - t0

    sessions = wl["sessions"] if not trace else wl["sessions"][:1]
    results: Dict[str, Dict[str, Any]] = {}
    for role, want_cpus, share, min_jobs in sessions:
        spec = dict(base, workload=name, role=role, seed=seed, trace=trace,
                    ncpu=min(want_cpus, ncpu), work=work,
                    ray_tmp=ray_temp_dir(work), object_store_bytes=OBJECT_STORE_BYTES,
                    budget_s=seconds * (1.0 if trace else share),
                    min_jobs=1 if smoke else min_jobs)
        results[role] = run_session(spec, work, deadline - time.monotonic())

    c4 = results["c4"]
    alt_src = results.get("c2", c4)
    attempted = sum(r.get("attempted", 0) for r in results.values()) + len(results)
    failed = sum(r.get("failed", 0) for r in results.values())
    failed += sum(1 for r in results.values() if "error" in r)
    errors: Dict[str, int] = {}
    for r in results.values():
        for k, v in r.get("errors", {}).items():
            errors[k] = errors.get(k, 0) + v
        if "error" in r:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    digests = sorted({d for r in results.values() for d in r.get("digests", [])})
    if "ref_digest" in base and digests and digests != [base["ref_digest"]]:
        errors["DigestDiffers"] = len(digests)

    job_s = median(c4.get("jobs", []))
    alt_s = median(alt_src.get("alt" if "c2" not in results else "jobs", []))
    setup = [r["setup_s"] for r in results.values() if "setup_s" in r]
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace),
        "setup_s": input_setup_s + median(setup),
        "job_s": job_s, "alt_job_s": alt_s,
        "job_samples": len(c4.get("jobs", [])),
        "jobs": {role: r.get("jobs", []) for role, r in results.items()},
        "alt_jobs": {role: r.get("alt", []) for role, r in results.items()},
        "peak_rss_mb": max(r.get("peak_rss", 0) for r in results.values()) / 2**20,
        "failed_ops_ratio": failed / attempted,
        "errors": errors, "digests": digests,
        "quiesce_s": sum(r.get("quiesce_s", 0.0) for r in results.values()),
        "held_cpu": {role: r.get("held_cpu", 0.0) for role, r in results.items()},
        "sizing_waits": sum(r.get("sizing_waits", 0) for r in results.values()),
    }
    if "n_docs" in base:
        report["docs_per_s"] = base["n_docs"] / job_s if job_s else 0.0
        if "c2" in results:
            c2_s = median(results["c2"].get("jobs", []))
            report["docs_per_s_c2"] = base["n_docs"] / c2_s if c2_s else 0.0
            if report["docs_per_s_c2"]:
                report["scaling_eff_c2_c4"] = (
                    report["docs_per_s"] / report["docs_per_s_c2"] / 2)
        if base["checkpointed"]:
            report["resume_s"] = alt_s
            report["parts_skipped"] = c4.get("extra", {}).get("parts_skipped", [])
    else:
        report["queries_wall_s"] = job_s
    if trace:
        report["layers"] = layer_metrics(c4)
        report["query_ops"] = c4.get("extra", {}).get("ops", {})
        report["spans"] = c4.get("extra", {}).get("spans", [])
    report["attempted"], report["failed"] = attempted, failed
    return report


def layer_metrics(res: Dict[str, Any]) -> Dict[str, float]:
    """Median over the traced jobs of each per-layer figure, plus the
    tracing overhead and the share of job time inside layer spans."""
    layers = res.get("layers", [])
    names = sorted({k for lay in layers for k in lay})
    out = {k: median([lay[k] for lay in layers if k in lay]) for k in names}
    out["trace.overhead"] = median(res.get("overhead", []))
    spans = res.get("extra", {}).get("spans", [])
    roots = {s["id"]: s["end"] - s["start"] for s in spans if s["parent"] is None}
    inner = sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
    out["trace.span_coverage"] = inner / sum(roots.values()) if roots else 0.0
    return out


def contract_line(report: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {}
    if trace:
        layers = report.get("layers", {})
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": float(layers.get(m["name"], 0.0)),
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": float(report[m["name"]]), "unit": m["unit"]}
    return {"correct": report["failed"] == 0 and not report["errors"],
            "attempted": int(report["attempted"]), "failed": int(report["failed"]),
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, every workload with and without tracing")
    args = ap.parse_args(argv)

    if not (os.path.isdir(os.path.join(ROOT, "deed_ocr_ray"))
            and os.path.isfile(os.path.join(ROOT, "__ray_entry__.py"))):
        fail("run from the repository root (deed_ocr_ray/ and __ray_entry__.py not found)")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if len(os.sched_getaffinity(0)) < 2:
        # extraction at num_cpus=1 hangs (pool_config(1) leaves no whole
        # CPU for the read tasks); see NOTES.md
        fail("needs at least 2 CPUs")
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)

    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        ap.error("--workload is required")
    report = one_run(args.workload, args.seed, args.seconds, bool(args.trace), False)
    line = contract_line(report, spec, bool(args.trace))
    if args.trace:
        report["spans_file"] = write_spans(report)
    report.pop("spans", None)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))


def one_run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    work = os.path.join(ROOT, ".pbw", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        host = host_block()
        report = run_workload(name, seed, seconds, trace, smoke, work)
        report["host"] = host
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_spans(report: Dict[str, Any]) -> str:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans_{report['workload']}_s{report['seed']}.json")
    with open(path, "w") as f:
        json.dump(report.get("spans", []), f)
    return os.path.relpath(path, ROOT)


def smoke(spec: Dict[str, Any]) -> None:
    """Every workload, traced and untraced, on tiny inputs: each run must
    be correct and print the metric names of BENCHMARK.json, and every
    per-layer name must be measured by at least one workload."""
    ok = True
    measured: set = set()
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            report = one_run(name, 0, 1.0, trace, True)
            line = contract_line(report, spec, trace)
            want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            good = line["correct"] and list(line["metrics"]) == want
            measured |= set(report.get("layers", {}))
            ok &= good
            print(json.dumps({"workload": name, "trace": int(trace), "ok": good,
                              "errors": report["errors"],
                              "metrics": {k: v["value"] for k, v in line["metrics"].items()}}))
    unmeasured = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    print(json.dumps({"correct": ok and not unmeasured, "unmeasured": unmeasured}))
    sys.exit(0 if ok and not unmeasured else 1)


if __name__ == "__main__":
    main()
