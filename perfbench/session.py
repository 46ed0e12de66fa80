"""One Ray session of a benchmark run, in its own process.

``run.py`` starts this file with a JSON spec and a hard timeout:

    python3 perfbench/session.py <spec.json> <result.json>

The session starts Ray at ``spec["ncpu"]`` CPUs, warms up with one
checked job (counted in set-up), then repeats the workload's job until
``spec["budget_s"]`` seconds have passed, checking every output. Only
public entry points of the program are called; with ``spec["trace"]``
the calls are wrapped in spans (``spans.Tracer``) and traced jobs
alternate with untraced ones, so the tracing overhead is measured in
the same window.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List

T_START = time.perf_counter()

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
import ray.data  # noqa: E402

sys.path.insert(0, os.getcwd())
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
from spans import Tracer, find_op, parse_stats  # noqa: E402

# the exchange queries: one per pipelines module that the keyed-exchange
# migration touches
QUERIES = [
    "q3_shipping_priority",   # relational: joins, groupby, top-k
    "sessionize",             # windows: partitioned sort + scan
    "tfidf_topk",             # analysis: two groupbys, join, top-k
    "term_stats",             # curation: groupby + global top-k
    "vocab_ids",              # textops: groupby + global rank
    "exact_dedup",            # dedup: groupby on a text hash
    "host_graph",             # linkgraph: anchor explode + groupby
]
SF_TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
             "lineitem", "events", "documents", "embeddings"]
# Ray Data operators that exchange rows between blocks
EXCHANGE_OPS = ("MapGroups", "Aggregate", "Sort", "Repartition", "Join", "Shuffle")
# stages/extract.py names timed by the in-process replay, by layer
REPLAY_NAMES = {
    "sniff_kind": "sniff", "decode_html": "decode",
    "extract_blocks": "html_blocks", "parse_pdf_pages": "pdf_parse",
    "assemble_pages": "pdf_assemble", "fixpoint_normalize": "normalize",
    "extract_field_spans": "fields", "_build_fields": "fields",
    "extract_row": "extract_row",
}
REPLAY_ROWS = 400
# each cold checkpointed job is followed by this many crash-resumes
RESUMES_PER_CYCLE = 2
KINDS = ("html", "pdf", "text")


def init_ray(spec: Dict[str, Any]) -> None:
    kw: Dict[str, Any] = {}
    if spec.get("ray_tmp"):
        kw["_temp_dir"] = spec["ray_tmp"]
    ray.init(address="local", num_cpus=spec["ncpu"], include_dashboard=False,
             logging_level="ERROR", object_store_memory=spec["object_store_bytes"],
             **kw)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False


def quiesce(res: "Result", settle_s: float = 0.25, timeout_s: float = 10.0) -> None:
    """Wait until the previous job's teardown has settled: the free CPU
    count has not changed for ``settle_s``.

    ``extract_dataset`` sizes its pool from ``ray.available_resources()``
    when the job starts. During the last job's teardown that figure is
    low, or has no ``CPU`` key at all, and then the pool is sized for 4
    CPUs, which cannot start at 2 CPUs and hangs. Some pool actors also
    outlive their job and keep their CPU share. See NOTES.md, known
    defects. The wait is not part of any job time; the CPU still held
    after it is recorded as ``held_cpu``."""
    t = last_change = time.perf_counter()
    total = ray.cluster_resources().get("CPU", 0.0)
    free = ray.available_resources().get("CPU", 0.0)
    while time.perf_counter() - last_change < settle_s:
        if time.perf_counter() - t > timeout_s:
            break
        time.sleep(0.05)
        now = ray.available_resources().get("CPU", 0.0)
        if now != free:
            free, last_change = now, time.perf_counter()
    res.quiesce_s += time.perf_counter() - t
    print(f"perfbench: quiesce {time.perf_counter() - t:.2f}s free={free}", flush=True)
    res.held_cpu = max(res.held_cpu, total - free)


def guard_pool_sizing(ep: Any, res: "Result") -> None:
    """Wait, before ``extract_dataset`` sizes its pool, until Ray's view
    of free resources has a ``CPU`` entry.

    ``extract_dataset`` reads ``ray.available_resources().get("CPU", 4)``.
    The entry is missing while the view is not yet synced or no CPU is
    free, and the pool is then sized for 4 CPUs: at 2 CPUs that pool can
    never start all its actors and the job hangs (NOTES.md, known
    defects). The waits are counted in ``sizing_waits``."""
    orig = ep.extract_dataset

    def sized(*args: Any, **kwargs: Any) -> Any:
        t = time.perf_counter()
        if "CPU" not in ray.available_resources():
            res.sizing_waits += 1
            while ("CPU" not in ray.available_resources()
                   and time.perf_counter() - t < 10.0):
                time.sleep(0.01)
        return orig(*args, **kwargs)

    ep.extract_dataset = sized


class Result:
    def __init__(self) -> None:
        self.jobs: List[float] = []
        self.alt: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}
        self.digests: List[str] = []
        self.layers: List[Dict[str, float]] = []
        self.traced_walls: List[float] = []
        self.quiesce_s = 0.0
        self.held_cpu = 0.0
        self.sizing_waits = 0
        self.overhead: List[float] = []
        self.extra: Dict[str, Any] = {}

    def add_spans(self, spans: List[Dict[str, Any]]) -> None:
        """Keep one tracer's spans, with ids made unique in the run."""
        kept = self.extra.setdefault("spans", [])
        base = len(kept)
        for s in spans:
            kept.append(dict(s, id=s["id"] + base,
                             parent=None if s["parent"] is None else s["parent"] + base))

    def ops(self, attempted: int, failed: int, error: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and error:
            self.errors[error] = self.errors.get(error, 0) + failed


# ------------------------------------------------------------ extraction

def _drop_last_half(out_dir: str) -> int:
    from deed_ocr_ray.state.manifest import MANIFEST_SUBDIR

    mdir = os.path.join(out_dir, MANIFEST_SUBDIR)
    names = sorted(n for n in os.listdir(mdir) if n.endswith(".json"))
    drop = names[len(names) - len(names) // 2:]
    for n in drop:
        os.remove(os.path.join(mdir, n))
    return len(drop)


def _extract_layers(tr: Tracer, datasets: List[Any], out_dir: str, ncpu: int,
                    job_wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced extraction job (cold, or cold +
    resume for the checkpointed workload)."""
    from deed_ocr_ray.pipelines.extract_pipeline import pool_config

    ops: List[Dict[str, Any]] = []
    for ds in datasets:
        ops.extend(parse_stats(ds.stats()))
    read, ext, write = (find_op(ops, "ReadParquet"), find_op(ops, "Extractor"),
                        find_op(ops, "Write"))
    actors = pool_config(ncpu)[0]
    waves = tr.count("wave")
    lay = {
        "read.op_wall_s": read["op_wall_s"], "read.task_wall_s": read["task_wall_s"],
        "read.bytes": float(read["bytes"]),
        "extract.op_wall_s": ext["op_wall_s"], "extract.task_wall_s": ext["task_wall_s"],
        "extract.pool_busy": (ext["task_wall_s"] / (ext["op_wall_s"] * actors)
                              if ext["op_wall_s"] else 0.0),
        "write.op_wall_s": write["op_wall_s"],
        "waves.count": float(waves),
        "wave.exec_s": tr.total("wave"),
        "wave.overhead_s": job_wall - tr.total("wave"),
        "part_stats_s": tr.total("_part_stats"),
        "manifest.write_s": tr.total("write_manifest"),
        "manifest.load_s": tr.total("load_manifests"),
        "clear_stale_s": tr.total("clear_stale_partitions"),
    }
    con = __import__("duckdb").connect()
    pattern = os.path.join(out_dir, "part_id=*", "*.parquet")
    for kind in KINDS:
        p50, p99 = con.execute(
            "SELECT quantile_cont(extract_us, 0.5), quantile_cont(extract_us, 0.99) "
            f"FROM read_parquet('{pattern}', hive_partitioning=false) "
            "WHERE payload_kind = ? AND status = 'ok'", [kind]).fetchone()
        lay[f"extract.us_p50.{kind}"] = float(p50 or 0.0)
        lay[f"extract.us_p99.{kind}"] = float(p99 or 0.0)
    return lay


def _replay(corpus_tbl: pa.Table, ref: pa.Table, res: Result) -> Dict[str, float]:
    """Run ``Extractor()(batch)`` in this process over a fixed sample,
    untraced and then with timing wrappers on the names stages/extract.py
    binds; both outputs must equal the reference."""
    from deed_ocr_ray.stages import extract as ex

    step = max(1, corpus_tbl.num_rows // REPLAY_ROWS)
    sample = corpus_tbl.take(list(range(0, corpus_tbl.num_rows, step))[:REPLAY_ROWS])
    n = sample.num_rows
    plain = check.table_hashes(ex.Extractor()(sample))
    failed, _ = check.compare(plain, ref, subset=True)
    runs: List[Dict[str, float]] = []
    for _ in range(3):
        tr = Tracer()
        for name in REPLAY_NAMES:
            tr.wrap(ex, name)
        try:
            with tr.span("Extractor"):
                out = ex.Extractor()(sample)
        finally:
            tr.close()
        bad, _ = check.compare(check.table_hashes(out), plain)
        failed += bad
        us: Dict[str, float] = {}
        for name, layer in REPLAY_NAMES.items():
            key = f"{layer}.us_per_doc"
            us[key] = us.get(key, 0.0) + tr.total(name) * 1e6 / n
        us["arrow_build.us_per_doc"] = (
            (tr.total("Extractor") - tr.total("extract_row")) * 1e6 / n)
        runs.append(us)
    res.ops(n, failed, "ReplayMismatch")
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out["trace.replay_identical"] = float(failed == 0)
    return out


def extract_session(spec: Dict[str, Any], res: Result) -> float:
    from deed_ocr_ray.pipelines import extract_pipeline as ep

    guard_pool_sizing(ep, res)
    ref = pq.read_table(spec["ref"])
    corpus, n_docs = spec["corpus"], spec["n_docs"]
    out_dir = os.path.join(spec["work"], f"out_{spec['role']}")
    checkpointed = spec["checkpointed"]
    kw = (dict(files_per_part=1, wave_parts=8) if checkpointed
          else dict(wave_parts=None))

    def job(resume: bool = False) -> "tuple[float, Dict[str, Any]]":
        t = time.perf_counter()
        summary = ep.run_extract(corpus, out_dir, resume=resume, **kw)
        wall = time.perf_counter() - t
        print(f"perfbench: job resume={resume} {wall:.3f}s", flush=True)
        return wall, summary

    def checked() -> None:
        failed, dig = check.compare(check.output_hashes(out_dir), ref)
        res.ops(n_docs, failed, "OutputMismatch")
        res.digests.append(dig)

    def cycle(traced: bool) -> None:
        tr = Tracer()
        datasets: List[Any] = []
        if traced:
            tr.wrap(ep, "extract_dataset", on_result=datasets.append)
            for name in ("_part_stats", "write_manifest", "load_manifests",
                         "clear_stale_partitions"):
                tr.wrap(ep, name)
            tr.wrap(ray.data.Dataset, "write_parquet", name="wave")
        try:
            quiesce(res)
            with tr.span("run_extract"):
                wall, _ = job()
            resumes: List[float] = []
            for _ in range(RESUMES_PER_CYCLE if checkpointed else 0):
                dropped = _drop_last_half(out_dir)
                quiesce(res)
                with tr.span("run_extract.resume"):
                    wall2, summary = job(resume=True)
                resumes.append(wall2)
                want = summary["n_parts"] - dropped
                res.ops(1, int(summary["parts_skipped"] != want), "ResumeSkipMismatch")
                res.extra.setdefault("parts_skipped", []).append(summary["parts_skipped"])
        finally:
            tr.close()
        checked()
        if traced:
            lay = _extract_layers(tr, datasets, out_dir, spec["ncpu"], wall + sum(resumes))
            lay["parts_skipped"] = float(summary["parts_skipped"]) if checkpointed else 0.0
            res.layers.append(lay)
            res.add_spans(tr.spans)
            res.traced_walls.append(wall)
        else:
            res.jobs.append(wall)
            res.alt.extend(resumes)

    # warm-up: the first job of a session starts the worker processes;
    # one shard is enough to start the pool and the read/write workers
    warm_dir = os.path.join(spec["work"], f"warm_{spec['role']}")
    quiesce(res)
    ep.run_extract(sorted(glob.glob(os.path.join(corpus, "*.parquet")))[:1], warm_dir,
                   wave_parts=None)
    failed, _ = check.compare(check.output_hashes(warm_dir), ref, subset=True)
    res.ops(1, failed, "OutputMismatch")
    shutil.rmtree(warm_dir, ignore_errors=True)
    setup_end = time.perf_counter()
    n = 0
    while True:
        cycle(traced=spec["trace"] and n % 2 == 1)
        n += 1
        if (time.perf_counter() - setup_end >= spec["budget_s"]
                and n >= spec["min_jobs"] * (2 if spec["trace"] else 1)):
            break
    if spec["trace"]:
        res.overhead = [statistics.median(res.traced_walls) / statistics.median(res.jobs) - 1]
        res.layers.append(_replay(pq.read_table(corpus), ref, res))
    shutil.rmtree(out_dir, ignore_errors=True)
    return setup_end


# --------------------------------------------------------------- queries

def queries_session(spec: Dict[str, Any], res: Result) -> float:
    import duckdb

    from deed_ocr_ray.pipelines import corpus, linkgraph
    from tools.check_oracles import to_pandas, value_hash

    import __ray_entry__ as ent

    sf = spec["sf_dir"]
    # the pages corpus of the link-graph queries is cached under the
    # run's work dir, and their oracles replay that corpus
    corpus.CACHE_ROOT = os.path.join(spec["work"], "pages_cache")
    pages = corpus.pages_corpus_for(sf)
    ent._linkgraph_oracles = lambda: {"host_graph": linkgraph.host_graph_sql(pages)}
    oracles = ent.oracle_sql()
    con = duckdb.connect()
    for t in SF_TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    want = {q: value_hash(con.execute(oracles[q]).fetchdf()) for q in QUERIES}
    con.close()
    qs = ent.queries()

    def one_pass(traced: bool) -> "tuple[float, Dict[str, float]]":
        walls: Dict[str, float] = {}
        lay: Dict[str, float] = {}
        quiesce(res)
        for q in QUERIES:
            tr = Tracer()
            t = time.perf_counter()
            try:
                with tr.span(f"q.{q}"):
                    with tr.span(f"q.{q}.build"):
                        got = qs[q](sf)
                    with tr.span(f"q.{q}.execute"):
                        df = to_pandas(got)
                walls[q] = time.perf_counter() - t
            except Exception as exc:  # a failed query is one failed op
                res.ops(1, 1, type(exc).__name__)
                walls[q] = time.perf_counter() - t
                continue
            res.ops(1, int(value_hash(df) != want[q]), "HashMismatch")
            if traced:
                ops = parse_stats(got.stats()) if isinstance(got, ray.data.Dataset) else []
                lay[f"q.{q}.wall_s"] = walls[q]
                skews = [o["block_skew"] for o in ops
                         if any(x in o["name"] for x in EXCHANGE_OPS)]
                lay[f"q.{q}.exchange_skew"] = max(skews, default=1.0)
                res.extra.setdefault("ops", {})[q] = ops
                res.add_spans(tr.spans)
        print(f"perfbench: pass traced={traced} " + json.dumps(walls), flush=True)
        return sum(walls.values()), lay

    # the first pass of a session starts the workers; its wall is the
    # workload's cold figure (alt_job_s)
    cold, _ = one_pass(False)
    res.alt.append(cold)
    setup_end = time.perf_counter()
    n = 0
    while True:
        traced = spec["trace"] and n % 2 == 1
        wall, lay = one_pass(traced)
        if traced:
            res.traced_walls.append(wall)
            res.layers.append(lay)
        else:
            res.jobs.append(wall)
        n += 1
        if (time.perf_counter() - setup_end >= spec["budget_s"]
                and n >= spec["min_jobs"] * (2 if spec["trace"] else 1)):
            break
    if spec["trace"]:
        res.overhead = [statistics.median(res.traced_walls) / statistics.median(res.jobs) - 1]
    return setup_end


def main() -> None:
    import ctypes
    import signal

    # die with run.py, whose timeout then also covers this session
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    res = Result()
    init_ray(spec)
    try:
        body = queries_session if spec["workload"] == "queries_exchange" else extract_session
        setup_end = body(spec, res)
        end = time.perf_counter()
    finally:
        ray.shutdown()
    result = {
        "setup_s": setup_end - T_START,
        "window_s": end - setup_end,
        "jobs": res.jobs, "alt": res.alt,
        "attempted": res.attempted, "failed": res.failed, "errors": res.errors,
        "digests": sorted(set(res.digests)),
        "layers": res.layers, "overhead": res.overhead, "extra": res.extra,
        "quiesce_s": res.quiesce_s, "held_cpu": res.held_cpu,
        "sizing_waits": res.sizing_waits,
    }
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, out_path)


if __name__ == "__main__":
    main()
