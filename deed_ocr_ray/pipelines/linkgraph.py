"""Host-level link-graph operators over the pages corpus.

The web-pipeline counterpart of the reference's cross-document
bookkeeping (deed_ocr/workflow.py:600-616 tracks per-document
relationships during dedup): extract every ``<a href>`` edge from the
HTML payloads, aggregate to a weighted host→host graph, and run
PageRank over it — the classic corpus-level quality prior used to
weight training data by source authority.

Shuffle-conscious shapes (these hold at 10^12 documents / 10^8 hosts):

* **outlinks** is an embarrassingly-parallel ``map_batches`` scan —
  compiled module-level regexes, task pool (worker reuse keeps the
  regex cache warm; NOTES.md "actor-pool concurrency on short stages
  loses to task-pool"); only ``(url, html)`` columns leave the read.
* **host_graph** is one ``keyed_aggregate`` on ``(src_host, dst_host)``
  — its per-batch combiner makes the exchange carry distinct
  host-pairs per block, not one row per anchor tag.
* **pagerank** iterates over HOST-cardinality tables only (ranks and
  edges, never documents): per iteration one ``exchange.keyed_join``
  of ranks to edges on ``src_host`` computes contributions and one
  ``keyed_aggregate`` on ``dst_host`` sums them; dangling mass comes
  from one scalar aggregate of the host-sized sum table.
"""

from __future__ import annotations

import html as _htmllib
import re
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.sniff import JUNK_REPLACEMENT_RATIO, decode_html
from .corpus import pages_corpus_for
from .exchange import keyed_aggregate, keyed_exchange, keyed_join, total

# whole <a> tag (attrs + body; nested <a> is invalid HTML, body is
# non-greedy to the nearest close tag), then href / rel parsed from the
# attr segment: double-quoted, single-quoted, or unquoted values.
_ATAG_RE = re.compile(r"<a\b([^>]*)>(.*?)</a>", re.I | re.S)
_HREF_RE = re.compile(
    r"""\bhref\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.I)
_NOFOLLOW_RE = re.compile(r"""\brel\s*=\s*["']?[^"'>]*?\bnofollow\b""", re.I)
_TAG_RE = re.compile(r"<[^>]*>")
_SKIP_SCHEMES = ("javascript:", "mailto:", "data:", "tel:", "about:")


def host_of_url(url: str) -> str:
    """Lowercased host of an absolute URL (port and userinfo stripped)."""
    rest = url.split("://", 1)[-1]
    host = rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
    return host.rsplit("@", 1)[-1].split(":", 1)[0].lower()


def resolve_link_host(href: str, src_host: str) -> Optional[str]:
    """Destination host of an anchor href, or ``None`` for non-page
    links. Absolute (``http(s)://``) and protocol-relative (``//``)
    hrefs carry their own host; every other non-empty href is
    document-relative and resolves to the source host."""
    h = href.strip()
    if not h or h.startswith("#"):
        return None
    low = h.lower()
    if low.startswith(_SKIP_SCHEMES):
        return None
    if low.startswith(("http://", "https://")):
        rest = h.split("://", 1)[1]
    elif h.startswith("//"):
        rest = h[2:]
    else:
        return src_host
    host = rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
    host = host.rsplit("@", 1)[-1].split(":", 1)[0].lower()
    return host or None


def _anchor_text(body: str) -> str:
    """Inner text of an anchor: tags stripped, entities unescaped,
    whitespace collapsed (link-graph-local normalization — anchor text
    is a retrieval signal here, not part of the extraction contract)."""
    return " ".join(_htmllib.unescape(_TAG_RE.sub(" ", body)).split())


def _extract_links_batch(t: pa.Table) -> pa.Table:
    src_urls: List[str] = []
    dst_hosts: List[str] = []
    hrefs: List[str] = []
    anchors: List[str] = []
    internals: List[bool] = []
    nofollows: List[bool] = []
    for url, raw in zip(t["url"].to_pylist(), t["html"].to_pylist()):
        if not raw or raw[:4] == b"%PDF":
            continue
        text, bad = decode_html(raw)
        if bad > JUNK_REPLACEMENT_RATIO:
            continue
        src_host = host_of_url(url)
        for m in _ATAG_RE.finditer(text):
            attrs = m.group(1)
            hm = _HREF_RE.search(attrs)
            if hm is None:
                continue
            href = hm.group(1) or hm.group(2) or hm.group(3) or ""
            dst = resolve_link_host(href, src_host)
            if dst is None:
                continue
            src_urls.append(url)
            dst_hosts.append(dst)
            hrefs.append(href)
            anchors.append(_anchor_text(m.group(2)))
            internals.append(dst == src_host)
            nofollows.append(_NOFOLLOW_RE.search(attrs) is not None)
    src_arr = pa.array(src_urls, type=pa.string())
    return pa.table({
        "src_url": src_arr,
        "src_host": pa.array([host_of_url(u) for u in src_urls], type=pa.string()),
        "dst_host": pa.array(dst_hosts, type=pa.string()),
        "href": pa.array(hrefs, type=pa.string()),
        "anchor": pa.array(anchors, type=pa.string()),
        "internal": pa.array(internals, type=pa.bool_()),
        "nofollow": pa.array(nofollows, type=pa.bool_()),
    })


def outlinks_dataset(pages: "ray.data.Dataset") -> "ray.data.Dataset":
    """One row per resolvable anchor edge in the HTML payloads."""
    return pages.map_batches(_extract_links_batch, batch_format="pyarrow")


def q_outlinks(sf_dir: str) -> "ray.data.Dataset":
    """Anchor-edge extraction over the pages corpus.
    Columns: src_url, src_host, dst_host, href, anchor, internal,
    nofollow. (No SQL oracle: HTML parse over the synthesized corpus;
    covered by exactness pytests on crafted anchors + golden corpus
    counts.)"""
    from ..sources.pages import read_pages

    corpus = pages_corpus_for(sf_dir)
    return outlinks_dataset(read_pages(corpus, columns=["url", "html"]))


def host_graph_dataset(links: "ray.data.Dataset") -> "ray.data.Dataset":
    """Weighted host→host edge list from an outlinks Dataset: one keyed
    count, whose combiner moves distinct host-pairs per block, never
    one row per anchor."""
    return keyed_aggregate(links, ["src_host", "dst_host"],
                           {"n_links": (None, "count_all")})


def q_host_graph(sf_dir: str) -> "ray.data.Dataset":
    """Weighted host-level link graph over the pages corpus.
    Columns: src_host, dst_host, n_links. (No SQL oracle: derives from
    the HTML parse; exactness pinned by pytest vs a single-process
    reference count.)"""
    return host_graph_dataset(q_outlinks(sf_dir))


def _degree_rows(t: pa.Table) -> pa.Table:
    n = t.num_rows
    ones = pa.array([1] * n, type=pa.int64())
    zeros = pa.array([0] * n, type=pa.int64())
    zlinks = pa.array([0] * n, type=pa.int64())
    out_rows = pa.table({
        "host": t["src_host"],
        "out_deg": ones, "in_deg": zeros,
        "out_links": t["n_links"], "in_links": zlinks,
    })
    in_rows = pa.table({
        "host": t["dst_host"],
        "out_deg": zeros, "in_deg": ones,
        "out_links": zlinks, "in_links": t["n_links"],
    })
    return pa.concat_tables([out_rows, in_rows])


def q_host_degree(sf_dir: str) -> "ray.data.Dataset":
    """Per-host fan-in/fan-out over the host graph: distinct-neighbor
    degrees and total link weights.
    Columns: host, out_deg, in_deg, out_links, in_links."""
    edges = q_host_graph(sf_dir)
    return keyed_aggregate(
        edges.map_batches(_degree_rows, batch_format="pyarrow"), "host",
        {c: (c, "sum") for c in ("out_deg", "in_deg", "out_links", "in_links")})


# ------------------------------------------------------- DuckDB oracles
#
# The pages corpus is deterministic parquet under /tmp, so DuckDB can
# replay the link extraction independently. DuckDB 1.0 has no TRY()
# and ``decode(blob)`` raises on invalid UTF-8 (binary-junk payloads),
# so rows are gated by PAYLOAD CLASS first — the fixture url embeds it
# (``.../{cls}/{doc_id}``), and every html-bytes class (html_*, giant)
# is valid UTF-8 by construction. This matches the operator's own
# skips exactly: pdf/junk/empty/text rows produce no anchors either
# way. Caveat: a duplicate-url row (doc_id ≡ 0 mod 97) borrows the
# PREVIOUS doc's url; class_of(k) can first disagree with
# class_of(k-1) across the junk/html boundary at k ≡ 8395 (mod 9700),
# so the class gate is exact for any corpus under 8395 docs — the
# driver gate corpus is 500. The SQL mirrors the operator over the
# GATE CORPUS's href grammar (double-quoted hrefs, closed tags, no
# userinfo/entities); the crafted edge-case grammar is pinned by
# tests/test_linkgraph.py instead.

_SQL_ANCHOR_PAT = r"""<a[^>]*?href="([^"]*)"[^>]*>([^<]*)</a>"""

# host of an absolute url/href: text between '://' and the first
# '/', '?', '#' or ':', lowercased
_SQL_HOST = ("lower(split_part(split_part(split_part(split_part("
             "split_part({expr}, '://', 2), '/', 1), '?', 1), '#', 1),"
             " ':', 1))")


def _links_cte(corpus: str) -> str:
    src_host = _SQL_HOST.format(expr="src_url")
    abs_host = _SQL_HOST.format(expr="href")
    proto_host = _SQL_HOST.format(expr="('x://' || substr(href, 3))")
    return f"""
links_raw AS (
  SELECT url AS src_url,
         decode(html) AS s
  FROM read_parquet('{corpus}/*.parquet')
  WHERE html IS NOT NULL
    AND (url LIKE '%/html_%' OR url LIKE '%/giant/%')
),
links_un AS (
  SELECT src_url,
         unnest(regexp_extract_all(s, '{_SQL_ANCHOR_PAT}', 1)) AS href,
         unnest(regexp_extract_all(s, '{_SQL_ANCHOR_PAT}', 2)) AS anchor
  FROM links_raw
),
links AS (
  SELECT src_url, {src_host} AS src_host, href, anchor,
    CASE
      WHEN lower(href) LIKE 'http://%' OR lower(href) LIKE 'https://%'
        THEN {abs_host}
      WHEN href LIKE '//%' THEN {proto_host}
      ELSE {src_host}
    END AS dst_host
  FROM links_un
  WHERE trim(href) <> '' AND href NOT LIKE '#%'
    AND lower(href) NOT LIKE 'javascript:%'
    AND lower(href) NOT LIKE 'mailto:%'
    AND lower(href) NOT LIKE 'data:%'
    AND lower(href) NOT LIKE 'tel:%'
    AND lower(href) NOT LIKE 'about:%'
)"""


def outlinks_sql(corpus: str) -> str:
    return f"""
WITH {_links_cte(corpus)}
SELECT src_url, src_host, dst_host, href, anchor,
       dst_host = src_host AS internal,
       FALSE AS nofollow
FROM links
"""


def host_graph_sql(corpus: str) -> str:
    return f"""
WITH {_links_cte(corpus)}
SELECT src_host, dst_host, CAST(count(*) AS BIGINT) AS n_links
FROM links GROUP BY 1, 2
"""


def host_degree_sql(corpus: str) -> str:
    return f"""
WITH {_links_cte(corpus)},
hg AS (
  SELECT src_host, dst_host, count(*) AS n
  FROM links GROUP BY 1, 2
)
SELECT host,
       CAST(sum(od) AS BIGINT) AS out_deg,
       CAST(sum(id) AS BIGINT) AS in_deg,
       CAST(sum(ol) AS BIGINT) AS out_links,
       CAST(sum(il) AS BIGINT) AS in_links
FROM (
  SELECT src_host AS host, 1 AS od, 0 AS id, n AS ol, 0 AS il FROM hg
  UNION ALL
  SELECT dst_host, 0, 1, 0, n FROM hg
) GROUP BY host
"""


def anchor_terms_sql(corpus: str, k: int = 5) -> str:
    return f"""
WITH {_links_cte(corpus)},
ext AS (
  SELECT dst_host, anchor, CAST(count(*) AS BIGINT) AS cnt
  FROM links
  WHERE dst_host <> src_host AND anchor <> ''
  GROUP BY 1, 2
)
SELECT dst_host, anchor, cnt,
       CAST(rk AS BIGINT) AS rk
FROM (
  SELECT dst_host, anchor, cnt,
         row_number() OVER (PARTITION BY dst_host
                            ORDER BY cnt DESC, anchor ASC) AS rk
  FROM ext
) WHERE rk <= {k}
"""


def url_dedup_sql(corpus: str) -> str:
    """First capture per url = min warc_ts (cross-row D1 oracle)."""
    return f"""
SELECT url, min(warc_ts) AS warc_ts
FROM read_parquet('{corpus}/*.parquet')
GROUP BY url
"""


# ------------------------------------------------------------------ pagerank

PR_DAMPING = 0.85
PR_ITERS = 5


def pagerank_dataset(
    edges: "ray.data.Dataset",
    damping: float = PR_DAMPING,
    n_iter: int = PR_ITERS,
) -> "ray.data.Dataset":
    """Distributed power-iteration PageRank over a weighted edge list
    ``(src_host, dst_host, n_links)``.

    Every table touched is host-cardinality, and every keyed step is
    one ``exchange`` call. Out-link probabilities p come from one
    ``keyed_exchange`` on ``src_host``. Each iteration keeps the ranks
    as S(h), with rank(h) = a·S(h) + b: one ``keyed_join`` of S to the
    edges on ``src_host`` gives the contributions p·rank(src), and one
    ``keyed_aggregate`` on ``dst_host`` sums them into the next S. Hosts with no in-links have no S row; the
    ``left outer`` joins read their S as 0. One scalar ΣS gives the
    dangling mass (Σ_dst S = Σ_{src with out-edges} rank, so dangling =
    1 − ΣS), and rank'(h) = (1−d)/N + d·(S(h) + dangling/N) sets the
    next a, b.
    Fixed iteration count → deterministic output; audited against a
    dense numpy reference in tests/test_linkgraph.py.
    Columns: host, rank."""
    edges = edges.materialize()  # read by the hosts and the p exchange

    def _hosts_both(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays([
            t["src_host"].combine_chunks(),
            t["dst_host"].combine_chunks(),
        ])
        return pa.table({"host": pc.unique(both)})

    def _distinct(g: pd.DataFrame) -> pa.Table:
        return pa.table({"host": pa.array(g["host"].unique(), type=pa.string())})

    hosts = keyed_exchange(
        edges.map_batches(_hosts_both, batch_format="pyarrow"), "host",
        _distinct)
    n_hosts = hosts.count()
    if n_hosts == 0:  # no graph: no rank distribution to normalize
        return ray.data.from_arrow(pa.table({
            "host": pa.array([], type=pa.string()),
            "rank": pa.array([], type=pa.float64()),
        }))

    def _prob(g: pd.DataFrame) -> pa.Table:
        w = g.groupby("src_host", sort=False)["n_links"].transform("sum")
        return pa.table({
            "src_host": pa.array(g["src_host"].tolist(), type=pa.string()),
            "dst_host": pa.array(g["dst_host"].tolist(), type=pa.string()),
            "p": pa.array((g["n_links"] / w).to_numpy(), type=pa.float64()),
        })

    edges_p = keyed_exchange(edges, "src_host", _prob)

    # rank(h) = a·S(h) + b; the first iteration starts from S = 1/N
    sums = hosts.map_batches(
        lambda t: pa.table({"host": t["host"],
                            "s": pa.array(np.full(t.num_rows, 1.0 / n_hosts))}),
        batch_format="pyarrow").materialize()
    a, b = 1.0, 0.0

    def _rank(t: pa.Table, a: float, b: float) -> pa.Array:
        # hosts without in-links have no S row: S = 0
        return pc.add(pc.multiply(pc.fill_null(t["s"], 0.0), a), b)

    for _ in range(n_iter):
        def _contrib(t: pa.Table, a: float = a, b: float = b) -> pa.Table:
            return pa.table({"host": t["dst_host"],
                             "s": pc.multiply(t["p"], _rank(t, a, b))})

        contrib = keyed_join(edges_p, sums, "src_host", right_on="host",
                             how="left outer")
        sums = keyed_aggregate(contrib.map_batches(_contrib, batch_format="pyarrow"),
                               "host", {"s": ("s", "sum")})
        mass = total(sums, {"s": ("s", "sum")})["s"]
        dangling = max(0.0, 1.0 - (mass or 0.0))
        a, b = damping, (1.0 - damping) / n_hosts + damping * dangling / n_hosts

    return keyed_join(hosts, sums, "host", how="left outer").map_batches(
        lambda t, a=a, b=b: pa.table({"host": t["host"], "rank": _rank(t, a, b)}),
        batch_format="pyarrow")


def q_pagerank(sf_dir: str, damping: float = PR_DAMPING,
               n_iter: int = PR_ITERS) -> "ray.data.Dataset":
    """PageRank over the corpus host graph (fixed ``n_iter`` power
    iterations, deterministic). Columns: host, rank (float64 — the
    composition-friendly form; the driver-gate entry is
    :func:`q_pagerank_checked`, which emits integer ppb so the value
    hash is robust to summation-order ulps)."""
    return pagerank_dataset(q_host_graph(sf_dir), damping=damping,
                            n_iter=n_iter)


def _ppb(ranks: pa.ChunkedArray) -> pa.Array:
    """float64 rank -> integer parts-per-billion with the same IEEE
    expression as the SQL oracle (``floor(r*1e9 + 0.5)``): distributed
    and DuckDB summation orders differ by ~1 ulp, which repr-exact
    float hashing would flag; ppb absorbs it."""
    return pc.cast(pc.floor(pc.add(pc.multiply(ranks, 1e9), 0.5)),
                   pa.int64())


def q_pagerank_checked(sf_dir: str, damping: float = PR_DAMPING,
                       n_iter: int = PR_ITERS) -> "ray.data.Dataset":
    """Gate-facing PageRank: host + rank_ppb (int64). Oracle:
    ``pagerank_sql`` — the same ``n_iter`` power iterations unrolled
    as DuckDB CTEs over the same links CTE the other link-graph
    oracles replay."""
    ds = q_pagerank(sf_dir, damping=damping, n_iter=n_iter)
    return ds.map_batches(
        lambda t: pa.table({"host": t["host"], "rank_ppb": _ppb(t["rank"])}),
        batch_format="pyarrow")


def _pagerank_ctes(corpus: str, damping: float = PR_DAMPING,
                   n_iter: int = PR_ITERS) -> str:
    """WITH-body CTE chain replaying ``pagerank_dataset`` in DuckDB:
    links → weighted host graph → out-link probabilities → ``n_iter``
    unrolled power iterations with the operator's exact update rule
    rank' = d·S(h) + (1−d)/N + d·dangling/N (dangling = 1 − ΣS,
    clamped at 0). Ends at CTE ``r{n_iter}`` (host, rank)."""
    its = []
    prev = "r0"
    for k in range(1, n_iter + 1):
        its.append(f"""
s{k} AS (
  SELECT h.host, COALESCE(SUM(e.p * {prev}.rank), 0.0) AS s
  FROM hosts h
  LEFT JOIN ep e ON e.dst_host = h.host
  LEFT JOIN {prev} ON {prev}.host = e.src_host
  GROUP BY h.host
),
r{k} AS (
  SELECT host,
         {damping!r}*s + (1.0 - {damping!r})/(SELECT n FROM nn)
         + {damping!r}*greatest(0.0, 1.0 - (SELECT SUM(s) FROM s{k}))
           /(SELECT n FROM nn) AS rank
  FROM s{k}
)""")
        prev = f"r{k}"
    return f"""{_links_cte(corpus)},
hg AS (
  SELECT src_host, dst_host, CAST(count(*) AS DOUBLE) AS n
  FROM links GROUP BY 1, 2
),
hosts AS (
  SELECT DISTINCT host FROM (
    SELECT src_host AS host FROM hg UNION ALL SELECT dst_host FROM hg)
),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM hosts),
ep AS (
  SELECT src_host, dst_host,
         n / SUM(n) OVER (PARTITION BY src_host) AS p
  FROM hg
),
r0 AS (SELECT host, 1.0/(SELECT n FROM nn) AS rank FROM hosts),
{','.join(its)}"""


def pagerank_sql(corpus: str, damping: float = PR_DAMPING,
                 n_iter: int = PR_ITERS) -> str:
    return f"""
WITH {_pagerank_ctes(corpus, damping, n_iter)}
SELECT host, CAST(floor(rank*1e9 + 0.5) AS BIGINT) AS rank_ppb
FROM r{n_iter}
"""


# ----------------------------------------------------------- compositions

def q_anchor_terms(sf_dir: str, k: int = 5) -> "ray.data.Dataset":
    """Top-``k`` EXTERNAL anchor texts per destination host — the
    classic "anchor text describes the target" retrieval signal.
    A keyed (dst_host, anchor) count, whose combiner shrinks the
    exchange to distinct pairs per block, then one ``keyed_exchange``
    on ``dst_host`` whose fold sorts once and keeps ``head(k)`` per host.
    Deterministic tie-break (cnt desc, anchor asc).
    Columns: dst_host, anchor, cnt, rk."""
    links = q_outlinks(sf_dir)

    def external(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.invert(t["internal"]),
                             pc.not_equal(t["anchor"], "")))
        return t.select(["dst_host", "anchor"])

    def topk(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["dst_host", "cnt", "anchor"],
                          ascending=[True, False, True])
        g = g.assign(rk=g.groupby("dst_host", sort=False, dropna=False)
                     .cumcount() + 1)
        return pa.Table.from_pandas(
            g.loc[g["rk"] <= k, ["dst_host", "anchor", "cnt", "rk"]],
            preserve_index=False).replace_schema_metadata()

    counts = keyed_aggregate(links.map_batches(external, batch_format="pyarrow"),
                             ["dst_host", "anchor"], {"cnt": (None, "count_all")})
    return keyed_exchange(counts, "dst_host", topk)


def q_doc_authority(sf_dir: str) -> "ray.data.Dataset":
    """Per-document source-authority annotation: PageRank of the doc's
    host stamped onto every successfully extracted page — the quality
    prior used to weight training data by source. The rank table is
    HOST-cardinality, so it is the textbook broadcast side: computed
    once, ``ray.put`` once, dict-lookup inside ``map_batches`` — never
    a doc-cardinality shuffle. (Beyond broadcastable host counts,
    swap the lookup for a hash ``Dataset.join`` on ``host``.)
    Columns: url, warc_ts, host, rank_ppb — integer ppb so the DuckDB
    oracle (``doc_authority_sql``: ok-ness replayed from the fixture's
    class-deterministic doc_id = (warc_ts − epoch)/137 s, ranks from
    the unrolled-CTE PageRank) hashes exactly."""
    import ray as _ray

    from ..sources.pages import read_pq
    from .corpus import extracted_corpus_for

    ranks = {r["host"]: r["rank"] for r in q_pagerank(sf_dir).take_all()}
    ranks_ref = _ray.put(ranks)  # broadcast once, read per worker

    # extraction CHECKPOINT parquet (downstream jobs read the
    # extraction run's output, they don't re-run the extractor)
    docs = read_pq(extracted_corpus_for(sf_dir),
                   columns=["url", "warc_ts", "status"])

    # task-pool stage, NOT an actor pool: actors hold their CPU
    # reservations for the whole job and can starve the read tasks
    # into a scheduling deadlock (NOTES.md landmine). ray.get of the
    # broadcast ref is a local object-store hit after the first task
    # per worker.
    def annotate(t: pa.Table) -> pa.Table:
        from .broadcast import cached_get
        rk = cached_get(ranks_ref)  # per-worker memo, not a per-batch deserialize
        ok = pc.equal(t["status"], pa.scalar("ok"))
        urls = pc.filter(t["url"], ok)
        hosts = [host_of_url(u) for u in urls.to_pylist()]
        rank = pa.array([rk.get(h, 0.0) for h in hosts], type=pa.float64())
        return pa.table({
            "url": urls,
            "warc_ts": pc.filter(t["warc_ts"], ok).cast(pa.timestamp("us")),
            "host": pa.array(hosts, type=pa.string()),
            "rank_ppb": _ppb(pa.chunked_array([rank])),
        })

    return docs.map_batches(annotate, batch_format="pyarrow")


def doc_authority_sql(corpus: str) -> str:
    """DuckDB replay of ``q_doc_authority``: extraction ok-ness is
    class-deterministic in the fixture corpus (classes live on
    ``doc_id % 100`` ranges; pdf_truncated=80-82 and binary_junk=95-99
    are the only error classes), and ``doc_id`` is exactly recoverable
    from ``warc_ts = epoch + 137 s × doc_id`` — which also holds for
    the duplicate-URL rows whose url string borrows the previous doc's
    id. Hosts with no edges rank 0 (operator's ``rk.get(h, 0.0)``)."""
    host = _SQL_HOST.format(expr="url")
    return f"""
WITH {_pagerank_ctes(corpus)},
docs AS (
  SELECT url, warc_ts, {host} AS host,
         (CAST(epoch(warc_ts) AS BIGINT) - 1704067200) // 137 % 100 AS r
  FROM read_parquet('{corpus}/*.parquet')
),
okd AS (
  SELECT url, warc_ts, host FROM docs
  WHERE NOT (r BETWEEN 80 AND 82) AND NOT (r BETWEEN 95 AND 99)
)
SELECT o.url, o.warc_ts, o.host,
       COALESCE(CAST(floor(p.rank*1e9 + 0.5) AS BIGINT), 0) AS rank_ppb
FROM okd o LEFT JOIN r{PR_ITERS} p ON p.host = o.host
"""
