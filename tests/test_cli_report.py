"""CLI surface, run report, export sinks, extractor registry (X1)."""

import json
import os

import pyarrow.parquet as pq
import pytest

from deed_ocr_ray.cli import main as cli_main
from deed_ocr_ray.fixtures import write_pages_corpus
from deed_ocr_ray.state.manifest import manifest_path
from deed_ocr_ray.state.report import format_report, retry_candidates, run_report


@pytest.fixture(scope="module")
def run_dir(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("clirun")
    corpus = str(root / "pages")
    out = str(root / "out")
    write_pages_corpus(corpus, 120, seed=7, n_shards=4)
    rc = cli_main(["extract", corpus, out, "--files-per-part", "1",
                   "--wave-parts", "2"])
    assert rc == 0
    return corpus, out


def test_cli_extract_writes_partitions_and_manifests(run_dir):
    _, out = run_dir
    parts = [d for d in os.listdir(out) if d.startswith("part_id=")]
    assert len(parts) == 4
    assert os.path.isdir(os.path.join(out, "_manifests"))


def test_run_report_aggregates_manifests(run_dir):
    _, out = run_dir
    s = run_report(out, planned_parts=4)
    assert s["parts_completed"] == 4
    assert s["row_count"] == 120
    assert s["ok_count"] + s["error_count"] == 120
    assert s["error_count"] > 0  # corpus has truncated pdf / junk rows
    assert "pdf_parse_error" in s["error_counts"]
    assert s["write_cpu_s"] > 0
    txt = format_report(s, retry_candidates(out))
    assert "rows:" in txt and "errors by type:" in txt and "write cpu:" in txt


def test_run_report_reads_manifests_with_legacy_wall_ms(tmp_path):
    """Manifests written before the per-partition ``wall_ms`` field was
    dropped still load and roll up next to current ones."""
    from deed_ocr_ray.state.manifest import PartitionManifest, write_manifest

    out = str(tmp_path)
    common = dict(lineage_id="x", input_files=["a.parquet"], row_count=10,
                  ok_count=9, error_counts={"decode_error": 1}, bytes_in=100,
                  bytes_out=50, extract_us_sum=2_000_000)
    write_manifest(out, PartitionManifest(part_id=0, **common))
    legacy = manifest_path(out, 1)
    with open(legacy, "w") as f:
        json.dump(dict(common, part_id=1, wall_ms=123.0), f)
    s = run_report(out)
    assert s["parts_completed"] == 2
    assert s["row_count"] == 20 and s["error_counts"] == {"decode_error": 2}
    assert s["extract_cpu_s"] == 4.0
    assert s["write_cpu_s"] == 0.0  # neither manifest recorded write time
    assert "wall_ms_sum" not in s
    assert "rows:" in format_report(s, retry_candidates(out))


def test_cost_breakdown_rollup(run_dir):
    """G6 price-table roll-up (workflow.py:618-698 analogue): unit
    prices × manifest counters, structured + formatted breakdown,
    unknown-profile fallback."""
    from deed_ocr_ray.state.report import PRICE_TABLE, cost_breakdown

    _, out = run_dir
    s = run_report(out)
    c = cost_breakdown(s)
    assert c["profile"] == "standard"
    est = c["estimated_costs_usd"]
    gib = 1024 ** 3
    assert est["read"] == round(s["bytes_in"] / gib * PRICE_TABLE["standard"]["read_per_gib"], 6)
    assert est["write"] == round(s["bytes_out"] / gib * PRICE_TABLE["standard"]["write_per_gib"], 6)
    assert est["compute"] == round(
        s["extract_cpu_s"] / 3600 * PRICE_TABLE["standard"]["cpu_per_hour"], 6)
    assert est["total"] == round(est["read"] + est["write"] + est["compute"], 6)
    assert c["usage"]["rows"] == 120
    assert c["cost_breakdown_formatted"]["total"].startswith("$")
    # high-accuracy profile prices compute higher (same counters)
    hi = cost_breakdown(s, "high_accuracy")
    assert hi["estimated_costs_usd"]["compute"] >= est["compute"]
    # unknown profile falls back with a note (reference workflow.py:649-653)
    fb = cost_breakdown(s, "nope")
    assert fb["pricing"] == PRICE_TABLE["standard"]
    assert "unknown profile" in fb["profile"]
    # the report renders the breakdown
    txt = format_report(s, [], c)
    assert "estimated cost" in txt and "per_1k_rows" in txt


def test_cli_report_costs_json(run_dir, capsys):
    _, out = run_dir
    rc = cli_main(["report", out, "--json", "--costs", "--profile", "high_accuracy"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    cb = payload["cost_breakdown"]
    assert cb["profile"] == "high_accuracy"
    assert set(cb["estimated_costs_usd"]) == {"read", "write", "compute", "total"}


def test_retry_candidates_by_class(run_dir):
    _, out = run_dir
    # content-shaped errors are not retry candidates by default
    assert retry_candidates(out) == []
    cands = retry_candidates(out, ["pdf_parse_error"])
    assert cands  # the class exists somewhere
    m = json.load(open(manifest_path(out, cands[0])))
    assert m["error_counts"].get("pdf_parse_error", 0) > 0


def test_cli_resume_noop(run_dir, capsys):
    corpus, out = run_dir
    rc = cli_main(["extract", corpus, out, "--resume",
                   "--files-per-part", "1", "--wave-parts", "2"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["parts_skipped"] == 4
    assert summary["n_rows"] == 120


@pytest.mark.parametrize("fmt", ["json", "csv", "parquet"])
def test_export_formats(run_dir, tmp_path, fmt):
    _, out = run_dir
    dest = str(tmp_path / f"exp_{fmt}")
    rc = cli_main(["export", out, dest, "--format", fmt])
    assert rc == 0
    files = os.listdir(dest)
    assert files
    if fmt == "csv":
        import csv

        with open(os.path.join(dest, sorted(files)[0])) as f:
            header = next(csv.reader(f))
        assert "spans" in header and "extracted_text" in header
    if fmt == "parquet":
        assert sum(pq.ParquetFile(os.path.join(dest, f)).metadata.num_rows
                   for f in files if f.endswith(".parquet")) == 120


def test_debug_dump_page_files(run_dir, tmp_path, capsys):
    """S5 page-file sink: one {md5(url)[:12]}_page_{i:03d}.txt per PDF
    page, written by the map tasks (pdf_converter.py:128-155 analogue)."""
    import hashlib

    corpus, _ = run_dir
    dest = str(tmp_path / "pages_debug")
    rc = cli_main(["debug-dump", corpus, dest])
    assert rc == 0
    counts = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    files = sorted(os.listdir(dest))
    assert counts["n_pages"] == len(files) > 0
    assert all(f.endswith(".txt") and "_page_" in f for f in files)
    # a known PDF url maps to its named per-page files with parsed text
    import glob as _glob

    from deed_ocr_ray.stages.pdf_extract import parse_pdf_pages

    url = n_pages = None
    for shard in sorted(_glob.glob(os.path.join(corpus, "*.parquet"))):
        t = pq.read_table(shard, columns=["url", "html"])
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            if h and bytes(h).startswith(b"%PDF"):
                pages, _ = parse_pdf_pages(bytes(h))
                if pages:
                    url, n_pages = u, len(pages)
                    break
        if url:
            break
    assert url is not None
    slug = hashlib.md5(url.encode()).hexdigest()[:12]
    mine = [f for f in files if f.startswith(slug)]
    assert mine == [f"{slug}_page_{i:03d}.txt" for i in range(1, n_pages + 1)]
    assert open(os.path.join(dest, mine[0])).read().strip()


def test_debug_dump_runs_the_job_once(run_dir, tmp_path, monkeypatch):
    """Both counters come from one Ray Data execution: every PDF is
    parsed and every page file written once, not once per counter."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from deed_ocr_ray.pipelines.extract_pipeline import dump_page_debug

    executions = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    corpus, _ = run_dir
    dest = str(tmp_path / "pages_debug")
    counts = dump_page_debug(corpus, dest)
    assert len(executions) == 1
    assert counts["n_pages"] == len(os.listdir(dest)) > 0
    assert counts["n_docs"] > 0


def test_extractor_registry_override(ray_session):
    from deed_ocr_ray.stages.extract import BRANCHES, extract_row

    def shouty(html, text, lang):
        return "CUSTOM", [("custom", 0, 6, 1.0)], "", 1, 1

    row = extract_row(None, "hello world", "en",
                      branches={**BRANCHES, "text": shouty})
    assert row["extracted_text"] == "CUSTOM"
    assert row["spans"][0][0] == "custom"
    # default table untouched
    assert extract_row(None, "hello world", "en")["extracted_text"] == "hello world"
