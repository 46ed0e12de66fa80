"""deed_ocr_ray — a Ray-Data-native main-content extraction engine.

A from-scratch re-expression of the data-processing capabilities of the
reference pipeline ``acul3/deed-ocr`` (see SURVEY.md) over
Common-Crawl-style web pages: a streaming ``ray.data.Dataset`` job over
Parquet shards with columns ``(url, warc_ts, html:binary, text, lang)``
that emits deterministic, byte-identical extracted text plus char-span
offsets per url.

Layout:
  functions/  pure, deterministic per-row functions (sniff, normalize,
              regex fields, dedup, text stats) — the byte-identity
              contract lives here.
  stages/     batch transforms for ``Dataset.map_batches`` — the
              stateless dispatching ``Extractor``, run as a task stage
              fused with the parquet read, and friends.
  pipelines/  end-to-end Dataset pipelines (extract, dedup, similarity,
              relational, multimodal).
  state/      checkpoint manifests + lineage for resumable runs.
  sources/    readers (column-pruned parquet, shard grouping).
  fixtures.py deterministic synthetic `pages` corpus generator
              (FIXTURES.md contract).
"""

__version__ = "0.1.0"
