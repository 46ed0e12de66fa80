"""End-to-end pipeline tests: byte-identical golden outputs, checkpoint
manifests, resume anti-join (the BASELINE.json correctness invariant)."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from deed_ocr_ray.fixtures import SF_TEST, write_pages_corpus
from deed_ocr_ray.schema import DETERMINISTIC_COLUMNS
from deed_ocr_ray.state.manifest import load_manifests, manifest_path, part_dir

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "extracted_sf_test.parquet")


def _canonical(tbl: pa.Table) -> pa.Table:
    tbl = tbl.select(DETERMINISTIC_COLUMNS)
    golden_schema = pq.read_schema(GOLDEN)
    tbl = tbl.cast(golden_schema)
    idx = pc.sort_indices(tbl, sort_keys=[("url", "ascending"), ("warc_ts", "ascending")])
    return tbl.take(idx).combine_chunks()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages_sf_test")
    write_pages_corpus(
        str(d), SF_TEST["n_rows"], seed=SF_TEST["seed"],
        n_shards=SF_TEST["n_shards"], giant_bytes=SF_TEST["giant_bytes"],
    )
    return str(d)


def test_e2e_byte_identical_to_golden(ray_session, corpus_dir, tmp_path):
    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    out = str(tmp_path / "out")
    summary = run_extract(corpus_dir, out, files_per_part=2, wave_parts=2, concurrency=2)
    assert summary["n_rows"] == SF_TEST["n_rows"]

    got = _canonical(pq.read_table(out))
    want = pq.read_table(GOLDEN).combine_chunks()
    assert got.num_rows == want.num_rows
    # column-by-column for a readable failure
    for name in DETERMINISTIC_COLUMNS:
        assert got.column(name).equals(want.column(name)), f"column {name} differs"


def _read_back_stats(pdir: str) -> dict:
    """Manifest figures recomputed from a part's written files: the
    oracle for the stats the part writer streams to the driver."""
    tbl = pq.read_table(pdir, columns=["status", "error_type", "extract_us"])
    status = tbl.column("status").to_pylist()
    errors = {}
    for s, e in zip(status, tbl.column("error_type").to_pylist()):
        if s == "error":
            errors[e] = errors.get(e, 0) + 1
    return {
        "row_count": tbl.num_rows,
        "ok_count": status.count("ok"),
        "error_counts": errors,
        "extract_us_sum": pc.sum(tbl.column("extract_us")).as_py() or 0,
        "bytes_out": sum(os.path.getsize(os.path.join(pdir, f)) for f in os.listdir(pdir)),
    }


def test_manifests_written_with_lineage_and_metrics(ray_session, corpus_dir, tmp_path):
    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    out = str(tmp_path / "out")
    run_extract(corpus_dir, out, files_per_part=2, wave_parts=2, concurrency=2)
    manifests = load_manifests(out)
    assert len(manifests) == 3  # 6 shards / 2 per part
    total = 0
    for pid, m in manifests.items():
        assert m["lineage_id"]
        assert m["input_files"]
        assert m["row_count"] == m["ok_count"] + sum(m["error_counts"].values())
        assert m["bytes_in"] > 0 and m["bytes_out"] > 0
        assert m["write_us_sum"] > 0
        got = {k: m[k] for k in ("row_count", "ok_count", "error_counts",
                                 "extract_us_sum", "bytes_out")}
        assert got == _read_back_stats(part_dir(out, pid))
        total += m["row_count"]
    assert total == SF_TEST["n_rows"]


def test_one_ray_execution_per_job(ray_session, corpus_dir, tmp_path, monkeypatch):
    """Checkpoint groups are not execution boundaries: 3 parts in
    groups of 2 are read by one Dataset, and every part still gets its
    manifest."""
    from deed_ocr_ray.pipelines import extract_pipeline as ep

    calls = []
    real = ep.read_pq

    def counting(*a, **k):
        calls.append(a)
        return real(*a, **k)

    monkeypatch.setattr(ep, "read_pq", counting)
    out = str(tmp_path / "out")
    summary = ep.run_extract(corpus_dir, out, files_per_part=2, wave_parts=2, concurrency=2)
    assert len(calls) == 1
    assert sorted(load_manifests(out)) == [0, 1, 2]
    assert summary["n_rows"] == SF_TEST["n_rows"]


def test_part_writer_retry_overwrites_its_files(tmp_path):
    """A retried task (same task index, fresh task context) writes the
    same file names, so its rows replace the first attempt's files
    instead of adding a second copy."""
    from ray.data._internal.execution.interfaces import TaskContext

    from deed_ocr_ray.pipelines.extract_pipeline import _PartWriter
    from deed_ocr_ray.stages.extract import Extractor

    tbl = pq.read_table(GOLDEN).slice(0, 40)
    batch = Extractor()(tbl.select(["url", "warc_ts", "lang"]).append_column(
        "html", pa.nulls(40, pa.binary())).append_column("text", pa.nulls(40, pa.string())))
    batch = batch.set_column(batch.schema.get_field_index("part_id"), "part_id",
                             pa.array([i % 2 for i in range(40)], pa.int32()))
    writer = _PartWriter(str(tmp_path), "w0")
    for _attempt in range(2):
        TaskContext.set_current(TaskContext(task_idx=3, op_name="write"))
        try:
            stats = [writer(batch), writer(batch.slice(0, 10))]
        finally:
            TaskContext.reset_current()
    assert sorted(os.listdir(tmp_path / "part_id=0")) == [
        "w0_000003_000000.parquet", "w0_000003_000001.parquet"]
    assert pq.read_table(str(tmp_path / "part_id=1")).num_rows == 20 + 5
    assert "part_id" not in pq.read_schema(
        str(tmp_path / "part_id=1" / "w0_000003_000000.parquet")).names
    assert stats[0].column("row_count").to_pylist() == [20, 20]


def test_resume_skips_completed_and_matches_uninterrupted(ray_session, corpus_dir, tmp_path):
    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    full_out = str(tmp_path / "full")
    run_extract(corpus_dir, full_out, files_per_part=1, wave_parts=None, concurrency=2)

    # simulate a crash: keep parts 0-2 complete, drop 3-5; part 4 has
    # partial data but NO manifest (must be wiped and re-done)
    resumed_out = str(tmp_path / "resumed")
    shutil.copytree(full_out, resumed_out)
    for pid in (3, 4, 5):
        os.remove(manifest_path(resumed_out, pid))
    for pid in (3, 5):
        shutil.rmtree(part_dir(resumed_out, pid))
    # part 4 keeps its (now manifest-less) data -> stale partial

    summary = run_extract(
        corpus_dir, resumed_out, resume=True, files_per_part=1, wave_parts=None, concurrency=2
    )
    assert summary["parts_skipped"] == 3
    assert summary["n_rows"] == SF_TEST["n_rows"]

    got = _canonical(pq.read_table(resumed_out))
    want = _canonical(pq.read_table(full_out))
    assert got.equals(want)


def test_resume_noop_when_all_complete(ray_session, corpus_dir, tmp_path):
    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    out = str(tmp_path / "out")
    run_extract(corpus_dir, out, files_per_part=2, wave_parts=None, concurrency=2)
    before = {p: os.path.getmtime(manifest_path(out, p)) for p in load_manifests(out)}
    summary = run_extract(corpus_dir, out, resume=True, files_per_part=2,
                          wave_parts=None, concurrency=2)
    assert summary["parts_skipped"] == 3
    after = {p: os.path.getmtime(manifest_path(out, p)) for p in load_manifests(out)}
    assert before == after  # nothing re-processed


def test_error_rows_absorbed_not_raised(ray_session, corpus_dir, tmp_path):
    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    out = str(tmp_path / "out")
    summary = run_extract(corpus_dir, out, files_per_part=3, wave_parts=None, concurrency=2)
    # corpus contains pdf_truncated (3%) and binary_junk (5%) rows
    assert summary["error_counts"].get("pdf_parse_error", 0) > 0
    assert summary["error_counts"].get("decode_error", 0) > 0
    assert summary["n_ok"] + sum(summary["error_counts"].values()) == summary["n_rows"]


def test_byte_bounded_blocks_identical_output(ray_session, corpus_dir, tmp_path):
    """Skew guard: an aggressively small target_max_block_size (64 KiB,
    so giant rows form single-row blocks) must not change any output
    byte, and DataContext must be restored afterwards."""
    import ray.data as rd

    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    prev = rd.DataContext.get_current().target_max_block_size
    a = str(tmp_path / "dflt")
    b = str(tmp_path / "tiny")
    run_extract(corpus_dir, a, files_per_part=2, wave_parts=None, concurrency=2)
    run_extract(corpus_dir, b, files_per_part=2, wave_parts=None, concurrency=2,
                target_block_bytes=64 * 1024)
    assert rd.DataContext.get_current().target_max_block_size == prev
    ta = _canonical(pq.read_table(a))
    tb = _canonical(pq.read_table(b))
    assert ta.equals(tb)


def test_resume_detects_changed_shard_plan(ray_session, tmp_path):
    """Lineage validation on resume: a new shard that sorts into the
    middle re-shuffles the partition plan; stale manifests must NOT be
    trusted — the resumed output must equal a fresh full run."""
    from deed_ocr_ray.fixtures import build_pages_table, write_pages_corpus
    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    corpus = str(tmp_path / "pages")
    write_pages_corpus(corpus, 120, seed=5, n_shards=4)
    out = str(tmp_path / "out")
    run_extract(corpus, out, files_per_part=1, wave_parts=None, concurrency=2)

    # new shard sorting between shard_0001 and shard_0002
    extra = build_pages_table(777, range(120, 150), 65536)
    pq.write_table(extra, os.path.join(corpus, "shard_0001a.parquet"))

    summary = run_extract(corpus, out, resume=True, files_per_part=1,
                          wave_parts=None, concurrency=2)
    # parts 0-1 keep their lineage; the insertion shifts every later part
    assert summary["parts_skipped"] == 2
    assert summary["n_rows"] == 150

    fresh = str(tmp_path / "fresh")
    run_extract(corpus, fresh, files_per_part=1, wave_parts=None, concurrency=2)
    assert _canonical(pq.read_table(out)).equals(_canonical(pq.read_table(fresh)))


def test_iter_extracted_streams_batches(ray_session, corpus_dir, tmp_path):
    from deed_ocr_ray.pipelines.extract_pipeline import iter_extracted, run_extract

    out = str(tmp_path / "out")
    run_extract(corpus_dir, out, files_per_part=3, wave_parts=None, concurrency=2)
    total = 0
    n_batches = 0
    for b in iter_extracted(out, columns=["url", "n_chars"], batch_size=64):
        assert b.num_rows <= 64
        assert b.column_names == ["url", "n_chars"]
        total += b.num_rows
        n_batches += 1
    assert total == SF_TEST["n_rows"]
    assert n_batches >= total // 64


_ONE_CPU_JOB = """
import sys
import ray
from ray.data import DataContext
from deed_ocr_ray.pipelines.extract_pipeline import run_extract

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
print(run_extract(sys.argv[1], sys.argv[2], files_per_part=2, wave_parts=2)["n_rows"])
ray.shutdown()
"""


def test_extract_completes_on_one_cpu(corpus_dir, tmp_path):
    """Deadlock guard: the job must finish on a 1-CPU cluster, where a
    resident extraction pool can leave no whole CPU for the read tasks.
    Runs in its own process because the shared ``ray_session`` has 4
    CPUs; the process group is killed if it hangs."""
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (repo, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_JOB, corpus_dir, str(tmp_path / "out")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("extraction did not finish within 120 s at num_cpus=1")
    assert proc.returncode == 0, err[-2000:]
    assert int(out.split()[-1]) == SF_TEST["n_rows"]


def test_extract_runs_as_task_stage(ray_session, corpus_dir):
    """The extractor runs as plain tasks (no actor pool to start per job
    or wave); its operator keeps the ``MapBatches(Extractor)`` name."""
    import ray.data as rd

    from deed_ocr_ray.pipelines.extract_pipeline import extract_dataset
    from deed_ocr_ray.sources.pages import find_shards, read_pq

    ds = extract_dataset(read_pq(find_shards(corpus_dir)[:2], include_paths=True),
                         concurrency=2).materialize()
    ctx = rd.DataContext.get_current()
    prev, ctx.verbose_stats_logs = ctx.verbose_stats_logs, True
    try:
        stats = ds.stats()
    finally:
        ctx.verbose_stats_logs = prev
    assert "MapBatches(Extractor)" in stats
    # only ActorPoolMapOperator adds a 'pending_actors' extra metric
    assert "'pending_actors'" not in stats, stats


def test_failed_wave_restores_data_context(ray_session, corpus_dir, tmp_path,
                                           monkeypatch):
    """A failure while the job streams (here: publishing a manifest)
    must not leak the global target_max_block_size override
    (try/finally contract)."""
    import ray.data as rd

    from deed_ocr_ray.pipelines import extract_pipeline as ep

    prev = rd.DataContext.get_current().target_max_block_size

    def boom(*a, **k):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(ep, "write_manifest", boom)
    with pytest.raises(RuntimeError):
        ep.run_extract(corpus_dir, str(tmp_path / "out"), files_per_part=2,
                       wave_parts=2, concurrency=2,
                       target_block_bytes=123 * 1024)
    assert rd.DataContext.get_current().target_max_block_size == prev


_CRASH_AFTER_TWO_MANIFESTS = """
import os
import sys
import ray
from ray.data import DataContext
from deed_ocr_ray.pipelines import extract_pipeline as ep

ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
real, calls = ep.write_manifest, []

def write_then_die(*a, **k):
    path = real(*a, **k)
    calls.append(path)
    if len(calls) == 2:
        os._exit(3)
    return path

ep.write_manifest = write_then_die
ep.run_extract(sys.argv[1], sys.argv[2], files_per_part=1, wave_parts=1)
"""


def test_crash_mid_job_then_resume(ray_session, corpus_dir, tmp_path):
    """Manifests land while the job still runs: a driver that dies
    after its 2nd manifest leaves 2 complete parts (and possibly partial
    data of others), and a resume skips exactly those and re-creates
    the rest to match a fresh run."""
    import signal
    import subprocess
    import sys

    from deed_ocr_ray.pipelines.extract_pipeline import run_extract

    out = str(tmp_path / "out")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (repo, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-c", _CRASH_AFTER_TWO_MANIFESTS, corpus_dir, out],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        # the child's Ray processes share its process group: no orphan
        # worker may keep writing into the output dir
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 3, err[-2000:]
    assert len(load_manifests(out)) == 2

    summary = run_extract(corpus_dir, out, resume=True, files_per_part=1,
                          wave_parts=1, concurrency=2)
    assert summary["parts_skipped"] == 2
    assert summary["n_rows"] == SF_TEST["n_rows"]
    fresh = str(tmp_path / "fresh")
    run_extract(corpus_dir, fresh, files_per_part=1, wave_parts=1, concurrency=2)
    assert _canonical(pq.read_table(out)).equals(_canonical(pq.read_table(fresh)))
