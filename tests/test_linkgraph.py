"""Link-graph operator tests: href resolution exactness, anchor-edge
extraction on crafted HTML, host-graph counts, degree invariants, and
PageRank vs a dense numpy reference."""

from __future__ import annotations

import collections

import numpy as np
import pyarrow as pa
import pytest

from deed_ocr_ray.fixtures import build_pages_table
from deed_ocr_ray.pipelines.linkgraph import (
    PR_DAMPING,
    PR_ITERS,
    _extract_links_batch,
    host_graph_dataset,
    host_of_url,
    outlinks_dataset,
    pagerank_dataset,
    resolve_link_host,
)

SRC = "site001.example"


# ------------------------------------------------------------- resolution

@pytest.mark.parametrize("href,expected", [
    ("https://other.example/a/b", "other.example"),
    ("http://other.example", "other.example"),
    ("HTTP://UPPER.Example/x", "upper.example"),
    ("//proto.example/t/x", "proto.example"),
    ("/relative/path", SRC),
    ("relative.html", SRC),
    ("?query=1", SRC),
    ("https://user:pw@auth.example:8443/p", "auth.example"),
    ("https://port.example:80/", "port.example"),
    ("#fragment", None),
    ("", None),
    ("   ", None),
    ("javascript:void(0)", None),
    ("mailto:a@b.c", None),
    ("tel:+1555", None),
    ("data:text/plain,x", None),
    ("about:blank", None),
])
def test_resolve_link_host(href, expected):
    assert resolve_link_host(href, SRC) == expected


def test_host_of_url():
    assert host_of_url("https://site003.example/deed/000123") == "site003.example"
    assert host_of_url("http://A.B:8080/x?q#f") == "a.b"


# ------------------------------------------------------------- extraction

def _batch(url: str, html: bytes) -> pa.Table:
    return pa.table({
        "url": pa.array([url], type=pa.string()),
        "html": pa.array([html], type=pa.binary()),
    })


def test_extract_links_crafted():
    html = (
        b'<html><body>'
        b'<a href="https://abs.example/x">Abs <b>bold</b> text</a>'
        b"<a href='/rel'>Rel&amp;amp</a>"
        b'<a href=unquoted.html>Unq</a>'
        b'<a href="#frag">skip</a>'
        b'<a href="mailto:x@y.z">skip</a>'
        b'<a name="no-href-anchor">skip</a>'
        b'<A HREF="//proto.example/p">Proto\ncase</A>'
        b'<a rel="nofollow sponsored" href="https://spam.example/">Paid</a>'
        b'</body></html>'
    )
    out = _extract_links_batch(_batch(f"https://{SRC}/page/1", html))
    rows = out.to_pylist()
    assert [r["dst_host"] for r in rows] == [
        "abs.example", SRC, SRC, "proto.example", "spam.example"]
    assert [r["anchor"] for r in rows] == [
        "Abs bold text", "Rel&amp", "Unq", "Proto case", "Paid"]
    assert [r["internal"] for r in rows] == [False, True, True, False, False]
    assert [r["nofollow"] for r in rows] == [False, False, False, False, True]
    assert all(r["src_host"] == SRC for r in rows)


def test_extract_skips_non_html_payloads():
    pdf = _batch("https://h.example/p", b"%PDF-1.4 fake")
    assert _extract_links_batch(pdf).num_rows == 0
    junk = _batch("https://h.example/j", bytes(range(256)) * 8)
    assert _extract_links_batch(junk).num_rows == 0
    empty = _batch("https://h.example/e", b"")
    assert _extract_links_batch(empty).num_rows == 0


# --------------------------------------------------------------- datasets

N_DOCS = 240


@pytest.fixture(scope="module")
def pages_ds(ray_session):
    import ray.data

    t = build_pages_table(42, range(N_DOCS), giant_bytes=65536)
    return ray.data.from_arrow(t), t


def test_host_graph_counts_match_single_process(pages_ds):
    ds, t = pages_ds
    edges = {
        (r["src_host"], r["dst_host"]): r["n_links"]
        for r in host_graph_dataset(outlinks_dataset(ds)).take_all()
    }
    # independent single-process recount over the same table
    expected: collections.Counter = collections.Counter()
    one = _extract_links_batch(t)
    for s, d in zip(one["src_host"].to_pylist(), one["dst_host"].to_pylist()):
        expected[(s, d)] += 1
    assert edges == dict(expected)
    assert len(edges) > 10  # the corpus really carries a cross-host graph
    assert any(s != d for s, d in edges)  # external edges exist
    assert any(s == d for s, d in edges)  # internal (relative) edges exist


def test_host_degree_invariants(pages_ds):
    from deed_ocr_ray.pipelines.linkgraph import _degree_rows
    from ray.data.aggregate import Sum

    ds, _ = pages_ds
    hg = host_graph_dataset(outlinks_dataset(ds)).materialize()
    edge_rows = hg.take_all()
    deg = (
        hg.map_batches(_degree_rows, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            Sum("out_deg", alias_name="out_deg"),
            Sum("in_deg", alias_name="in_deg"),
            Sum("out_links", alias_name="out_links"),
            Sum("in_links", alias_name="in_links"),
        )
    ).take_all()
    total_w = sum(r["n_links"] for r in edge_rows)
    assert sum(r["out_links"] for r in deg) == total_w
    assert sum(r["in_links"] for r in deg) == total_w
    assert sum(r["out_deg"] for r in deg) == len(edge_rows)
    assert sum(r["in_deg"] for r in deg) == len(edge_rows)
    by_src = collections.Counter(r["src_host"] for r in edge_rows)
    for r in deg:
        assert r["out_deg"] == by_src.get(r["host"], 0)


def _dense_pagerank(edge_rows, damping, n_iter):
    hosts = sorted({r["src_host"] for r in edge_rows}
                   | {r["dst_host"] for r in edge_rows})
    idx = {h: i for i, h in enumerate(hosts)}
    n = len(hosts)
    w = np.zeros((n, n))
    for r in edge_rows:
        w[idx[r["src_host"]], idx[r["dst_host"]]] += r["n_links"]
    out_w = w.sum(axis=1)
    p = np.divide(w, out_w[:, None], out=np.zeros_like(w),
                  where=out_w[:, None] > 0)
    rank = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        s = rank @ p
        dangling = 1.0 - s.sum()
        rank = (1.0 - damping) / n + damping * (s + dangling / n)
    return {h: rank[idx[h]] for h in hosts}


def test_pagerank_matches_dense_reference(pages_ds):
    ds, _ = pages_ds
    hg = host_graph_dataset(outlinks_dataset(ds)).materialize()
    edge_rows = hg.take_all()
    got = {r["host"]: r["rank"]
           for r in pagerank_dataset(hg, PR_DAMPING, PR_ITERS).take_all()}
    want = _dense_pagerank(edge_rows, PR_DAMPING, PR_ITERS)
    assert set(got) == set(want)
    for h in want:
        assert got[h] == pytest.approx(want[h], abs=1e-9)
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)


def test_pagerank_iteration_is_one_execution(pages_ds, monkeypatch):
    """Each power iteration starts one Ray Data execution (the map
    before its keyed aggregate): the dangling mass is an
    ``exchange.total`` over the aggregate's materialized output, not
    an execution of its own."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    ds, _ = pages_ds
    hg = host_graph_dataset(outlinks_dataset(ds)).materialize()
    started, execute = [], StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        started.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    runs = []
    for n_iter in (1, 3):
        del started[:]
        pagerank_dataset(hg, PR_DAMPING, n_iter).materialize()
        runs.append(len(started))
    assert runs[1] - runs[0] == 2


def test_anchor_terms_topk_invariants(pages_ds, tmp_path, monkeypatch):
    import ray.data

    from deed_ocr_ray.pipelines import linkgraph

    ds, t = pages_ds
    monkeypatch.setattr(linkgraph, "q_outlinks",
                        lambda sf_dir: outlinks_dataset(ds))
    rows = linkgraph.q_anchor_terms("unused", k=3).take_all()
    one = _extract_links_batch(t)
    expected: collections.Counter = collections.Counter()
    for d, a, internal in zip(one["dst_host"].to_pylist(),
                              one["anchor"].to_pylist(),
                              one["internal"].to_pylist()):
        if not internal and a:
            expected[(d, a)] += 1
    by_host: dict = collections.defaultdict(list)
    for r in rows:
        by_host[r["dst_host"]].append(r)
    for host, hr in by_host.items():
        hr.sort(key=lambda r: r["rk"])
        assert [r["rk"] for r in hr] == list(range(1, len(hr) + 1))
        assert len(hr) <= 3
        # each reported (anchor, cnt) matches the exact recount and is
        # ordered by (cnt desc, anchor asc)
        for r in hr:
            assert expected[(host, r["anchor"])] == r["cnt"]
        keys = [(-r["cnt"], r["anchor"]) for r in hr]
        assert keys == sorted(keys)
        # top-1 really is the max count for this host
        host_counts = [c for (d, _), c in expected.items() if d == host]
        assert hr[0]["cnt"] == max(host_counts)


def test_pagerank_empty_edges(ray_session):
    import ray.data

    empty = ray.data.from_arrow(pa.table({
        "src_host": pa.array([], type=pa.string()),
        "dst_host": pa.array([], type=pa.string()),
        "n_links": pa.array([], type=pa.int64()),
    }))
    assert pagerank_dataset(empty).count() == 0
