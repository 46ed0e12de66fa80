"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the library code it calls) initialises or shuts
down Ray.

``entry``  — flagship extraction pipeline over a deterministic synthetic
pages corpus scaled to sf0.001 (BASELINE.json input shape).
``queries`` — one callable per implemented operator/pipeline from
SURVEY.md §2 + the training-data operators (dedup, similarity, text
analysis, multimodal plumbing).
``oracle_sql`` — DuckDB-equivalent SQL for every SQL-expressible query;
sketch/heuristic/extraction ops are rows-only by design.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa


# --------------------------------------------------------------- flagship

def _extract_query(sf_dir: str) -> Any:
    """Synthesize the pages corpus for this sf and run the streaming
    extraction pipeline; return deterministic scalar columns."""
    import ray.data

    from deed_ocr_ray.pipelines.corpus import pages_corpus_for
    from deed_ocr_ray.pipelines.extract_pipeline import extract_dataset
    from deed_ocr_ray.sources.pages import read_pages

    corpus = pages_corpus_for(sf_dir)
    ds = read_pages(corpus)
    out = extract_dataset(ds)
    return out.select_columns(
        ["url", "lang", "payload_kind", "n_blocks", "n_kept", "n_chars",
         "status", "error_type"]
    )


def _extract_spans_query(sf_dir: str) -> Any:
    """Flattened span rows (url, kind, start, end) from the extraction
    pipeline — exercises the spans contract end-to-end."""
    from deed_ocr_ray.pipelines.corpus import pages_corpus_for
    from deed_ocr_ray.pipelines.extract_pipeline import extract_dataset
    from deed_ocr_ray.sources.pages import read_pages

    corpus = pages_corpus_for(sf_dir)
    out = extract_dataset(read_pages(corpus))

    def flatten(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        spans = t["spans"].combine_chunks()
        if isinstance(spans, pa.ChunkedArray):  # single chunk after combine
            spans = spans.chunk(0) if spans.num_chunks else pa.array([], type=spans.type)
        structs = pc.list_flatten(spans)  # zero-copy explode
        parent = pc.list_parent_indices(spans)
        urls = pc.take(t["url"].combine_chunks(), parent)
        return pa.table({
            "url": urls.cast(pa.string()),
            "kind": structs.field("kind").cast(pa.string()),
            "start": structs.field("start").cast(pa.int64()),
            "end": structs.field("end").cast(pa.int64()),
        })

    return out.map_batches(flatten, batch_format="pyarrow")


def _url_dedup_query(sf_dir: str) -> Any:
    """Cross-corpus url exact dedup: first capture wins by warc_ts
    (cross-row D1 over the synthesized pages corpus) — one keyed
    ``min(warc_ts)`` per url."""
    from deed_ocr_ray.pipelines.corpus import pages_corpus_for
    from deed_ocr_ray.pipelines.exchange import keyed_aggregate
    from deed_ocr_ray.sources.pages import read_pages

    ds = read_pages(pages_corpus_for(sf_dir), columns=["url", "warc_ts"])
    return keyed_aggregate(ds, "url", {"warc_ts": ("warc_ts", "min")})


def _pdf_layout_query(sf_dir: str) -> Any:
    """Word-level PDF layout hierarchy (M6: page→block→line→word with
    per-node confidences) over the corpus's PDF payloads, flattened to
    one row per word."""
    from deed_ocr_ray.pipelines.corpus import pages_corpus_for
    from deed_ocr_ray.sources.pages import read_pages
    from deed_ocr_ray.stages.pdf_extract import PdfLayoutStage

    corpus = pages_corpus_for(sf_dir)
    ds = read_pages(corpus, columns=["url", "html"])
    return ds.map_batches(PdfLayoutStage(), batch_format="pyarrow")


def entry() -> Any:
    return _extract_query("/root/testdata/sf0.001")


# ---------------------------------------------------------------- queries

# Driver-budget ordering: the driver walks queries() in insertion order
# with a ~50-query budget per round. First the flagship extraction
# queries, then the queries whose last CORRECTNESS_r*.json row is r3 or
# older, then the queries whose plans now run exchange.keyed_aggregate;
# every other query follows in registry order.
_ROTATION = [
    "extract", "extract_spans",
    # last checked in r3
    "interleave_sources", "outlinks", "host_graph", "host_degree",
    "anchor_terms", "ensemble_extract", "url_dedup", "pdf_layout",
    "q1_pricing_summary", "q6_revenue_filter", "topk_orders",
    "mktsegment_orders", "nation_revenue", "events_hourly",
    "lang_source_stats", "region_part_revenue", "daily_active_users",
    "top_parts_per_nation", "running_total", "order_rank",
    "customers_no_orders", "asof_last_ship", "range_join_ship",
    "event_transitions", "customer_ltv", "moving_avg_dau",
    "price_quantile_sketch", "doc_normalize",
    # keyed aggregates moved onto exchange.keyed_aggregate
    "top_terms", "posting_pairs", "bigram_counts", "canon_dedup",
    "vocab_ids", "price_quantiles", "q3_shipping_priority", "exact_dedup",
    "minhash_pairs", "minhash_validate", "lsh_overflow",
    "simhash_near_pairs", "simhash_overflow", "neardup_clusters",
    "cluster_keep_best", "pagerank", "doc_authority", "bpe_merges",
    "bpe_tokenize", "split_stats", "domain_stats", "length_histogram",
    "term_stats", "source_mixture", "snapshot_diff", "bloom_semijoin",
    "revenue_rollup", "revenue_cube", "retention_7d",
    "quantity_percentiles", "grouped_percentiles", "price_deciles",
    "lang_pivot", "token_rarity", "lm_score",
]


def queries() -> dict[str, Callable[[str], Any]]:
    from deed_ocr_ray.pipelines import (
        analysis, bpe, curation, dedup, ensemble, linkgraph, multimodal,
        packing, prep, relational, similarity, sketches, textops, windows,
    )

    base = {
        "stratified_split": curation.q_stratified_split,
        "split_stats": curation.q_split_stats,
        "pii_redact": curation.q_pii_redact,
        "domain_stats": curation.q_domain_stats,
        "length_histogram": curation.q_length_histogram,
        "term_stats": curation.q_term_stats,
        "dup_ngram_coverage": analysis.q_dup_ngram_coverage,
        "tfidf_topk": analysis.q_tfidf_topk,
        "event_gaps": analysis.q_event_gaps,
        "revenue_rollup": analysis.q_revenue_rollup,
        "revenue_cube": analysis.q_revenue_cube,
        "token_rarity": analysis.q_token_rarity,
        "remove_dup_ngrams": analysis.q_remove_dup_ngrams,
        "lm_score": analysis.q_lm_score,
        "corr_qty_discount": analysis.q_corr_qty_discount,
        "quantity_percentiles": analysis.q_quantity_percentiles,
        "retention_7d": analysis.q_retention,
        "stratified_sample": curation.q_stratified_sample,
        "source_mixture": curation.q_source_mixture,
        "token_budget": curation.q_token_budget,
        "decontaminate": curation.q_decontaminate,
        "grouped_percentiles": analysis.q_grouped_percentiles,
        "price_deciles": analysis.q_price_deciles,
        "lang_pivot": analysis.q_lang_pivot,
        "bloom_semijoin": sketches.q_bloom_semijoin,
        "heavy_hitters": sketches.q_heavy_hitters,
        "dau_hll": sketches.q_dau_hll,
        "simhash_overflow": dedup.q_simhash_overflow,
        "neardup_clusters": dedup.q_neardup_clusters,
        "cluster_keep_best": dedup.q_cluster_keep_best,
        "paragraph_dedup": prep.q_paragraph_dedup,
        "pagerank": linkgraph.q_pagerank_checked,
        "doc_authority": linkgraph.q_doc_authority,
        "paragraph_dedup_extracted": prep.q_paragraph_dedup_extracted,
        "q3_shipping_priority": relational.q3_shipping_priority,
        "order_percent_rank": windows.q_order_percent_rank,
        "delta_apply": curation.q_delta_apply,
        "vocab_ids": textops.q_vocab_ids,
        "knn_lsh": similarity.q_knn_lsh,
        "fuzzy_url_pairs": dedup.q_fuzzy_url_pairs,
        "value_outliers": analysis.q_value_outliers,
        "quality_score": textops.q_quality_score,
        "fingerprint": textops.q_fingerprint,
        "fingerprint_rolling": textops.q_fingerprint_rolling,
        "top_terms": textops.q_top_terms,
        "posting_pairs": textops.q_posting_pairs,
        "bigram_counts": textops.q_bigram_counts,
        "url_canon": textops.q_url_canon,
        "canon_dedup": textops.q_canon_dedup,
        "doc_sample": textops.q_doc_sample,
        "lang_id": textops.q_lang_id,
        "line_repetition": textops.q_line_repetition,
        "compress_ratio": textops.q_compress_ratio,
        "corpus_filter": textops.q_corpus_filter,
        "pack_windows": packing.q_pack_windows,
        "kmeans": packing.q_kmeans,
        "exact_dedup": dedup.q_exact_dedup,
        "minhash_pairs": dedup.q_minhash_pairs,
        "simhash": dedup.q_simhash,
        "simhash_near_pairs": dedup.q_simhash_near_pairs,
        "jaccard_adjacent": dedup.q_jaccard_adjacent,
        "hll_users": dedup.q_hll_users,
        "minhash_validate": dedup.q_minhash_validate,
        "lsh_overflow": dedup.q_lsh_overflow,
        "knn_cosine": similarity.q_knn_cosine,
        "knn_ivf": similarity.q_knn_ivf,
        "embedding_neardup": similarity.q_embedding_neardup,
        "pca_project": similarity.q_pca_project,
        "media_pipeline": multimodal.q_media_pipeline,
        "image_features": multimodal.q_image_features,
        "audio_features": multimodal.q_audio_features,
        "chunk_windows": packing.q_chunk_windows,
        "seeded_shuffle": packing.q_seeded_shuffle,
        "bpe_merges": bpe.q_bpe_merges,
        "bpe_tokenize": bpe.q_bpe_tokenize,
        "snapshot_diff": curation.q_snapshot_diff,
        "interleave_sources": packing.q_interleave_sources,
        "outlinks": linkgraph.q_outlinks,
        "host_graph": linkgraph.q_host_graph,
        "host_degree": linkgraph.q_host_degree,
        "anchor_terms": linkgraph.q_anchor_terms,
        # flagship extraction (rows-only: non-SQL-expressible)
        "extract": _extract_query,
        "ensemble_extract": ensemble.q_ensemble_extract,
        "training_prep": prep.q_training_prep,
        "extract_spans": _extract_spans_query,
        "url_dedup": _url_dedup_query,
        "pdf_layout": _pdf_layout_query,
        # relational operator coverage (SQL oracles)
        "q1_pricing_summary": relational.q1_pricing_summary,
        "q6_revenue_filter": relational.q6_revenue_filter,
        "topk_orders": relational.q_topk_orders,
        "mktsegment_orders": relational.q_mktsegment_orders,
        "nation_revenue": relational.q_nation_revenue,
        "events_hourly": relational.q_events_hourly,
        "lang_source_stats": relational.q_lang_source_stats,
        "region_part_revenue": relational.q_region_part_revenue,
        "daily_active_users": relational.q_daily_active_users,
        "top_parts_per_nation": relational.q_top_parts_per_nation,
        # window / join operators (SQL oracles)
        "running_total": windows.q_running_total,
        "order_rank": windows.q_order_rank,
        "customers_no_orders": windows.q_customers_no_orders,
        "asof_last_ship": windows.q_asof_last_ship,
        "range_join_ship": windows.q_range_join_ship,
        "event_transitions": windows.q_event_transitions,
        "customer_ltv": windows.q_customer_ltv,
        "price_quantiles": windows.q_price_quantiles,
        "sessionize": windows.q_sessionize,
        "moving_avg_dau": windows.q_moving_avg_dau,
        "price_quantile_sketch": windows.q_price_quantile_sketch,
        # text analysis (SQL oracles where exact)
        "doc_normalize": textops.q_doc_normalize,
        "token_count": textops.q_token_count,
        "token_count_bpe": textops.q_token_count_bpe,
    }
    return {k: base[k] for k in dict.fromkeys(_ROTATION + list(base))}


def oracle_sql() -> dict[str, str]:
    from deed_ocr_ray.pipelines import (
        analysis, curation, dedup, ensemble, packing, relational, similarity,
        sketches, textops, windows,
    )

    return {
        "ensemble_extract": ensemble.Q_ENSEMBLE_SQL,
        "running_total": windows.Q_RUNNING_TOTAL_SQL,
        "order_rank": windows.Q_ORDER_RANK_SQL,
        "order_percent_rank": windows.Q_PERCENT_RANK_SQL,
        "customers_no_orders": windows.Q_NO_ORDERS_SQL,
        "asof_last_ship": windows.Q_ASOF_SQL,
        "range_join_ship": windows.Q_RANGE_JOIN_SQL,
        "event_transitions": windows.Q_EVENT_TRANSITIONS_SQL,
        "customer_ltv": windows.Q_CUSTOMER_LTV_SQL,
        "price_quantiles": windows.Q_PRICE_QUANTILES_SQL,
        "sessionize": windows.Q_SESSIONIZE_SQL,
        "q1_pricing_summary": relational.Q1_SQL,
        "q3_shipping_priority": relational.Q3_SHIPPING_SQL,
        "q6_revenue_filter": relational.Q6_SQL,
        "topk_orders": relational.Q_TOPK_SQL,
        "mktsegment_orders": relational.Q_MKTSEGMENT_SQL,
        "nation_revenue": relational.Q_NATION_SQL,
        "events_hourly": relational.Q_EVENTS_SQL,
        "lang_source_stats": relational.Q_LANG_SOURCE_SQL,
        "region_part_revenue": relational.Q_REGION_PART_SQL,
        "daily_active_users": relational.Q_DAU_SQL,
        "top_parts_per_nation": relational.Q_TOP_PARTS_PER_NATION_SQL,
        "moving_avg_dau": windows.Q_MOVING_AVG_DAU_SQL,
        "posting_pairs": textops.Q_POSTING_PAIRS_SQL,
        "bigram_counts": textops.Q_BIGRAM_COUNTS_SQL,
        "url_canon": textops.Q_URL_CANON_SQL,
        "canon_dedup": textops.Q_CANON_DEDUP_SQL,
        "doc_normalize": textops.Q_NORMALIZE_SQL,
        "token_count": textops.Q_TOKEN_COUNT_SQL,
        "token_count_bpe": textops.Q_TOKEN_COUNT_BPE_SQL,
        "lang_id": textops.Q_LANG_ID_SQL,
        "fingerprint_rolling": textops.Q_FINGERPRINT_ROLLING_SQL,
        "embedding_neardup": similarity.Q_EMBEDDING_NEARDUP_SQL,
        "quality_score": textops.Q_QUALITY_SQL,
        "fingerprint": textops.Q_FINGERPRINT_SQL,
        "top_terms": textops.Q_TOP_TERMS_SQL,
        "doc_sample": textops.Q_DOC_SAMPLE_SQL,
        "line_repetition": textops.Q_LINE_REPETITION_SQL,
        "pack_windows": packing.Q_PACK_WINDOWS_SQL,
        "chunk_windows": packing.Q_CHUNK_WINDOWS_SQL,
        "seeded_shuffle": packing.Q_SEEDED_SHUFFLE_SQL,
        "interleave_sources": packing.Q_INTERLEAVE_SOURCES_SQL,
        "corpus_filter": textops.Q_CORPUS_FILTER_SQL,
        "exact_dedup": dedup.Q_EXACT_DEDUP_SQL,
        "jaccard_adjacent": dedup.Q_JACCARD_ADJ_SQL,
        "knn_cosine": similarity.Q_KNN_SQL,
        "knn_ivf": similarity.Q_KNN_IVF_SQL,
        "knn_lsh": similarity.Q_KNN_LSH_SQL,
        "stratified_split": curation.Q_STRATIFIED_SPLIT_SQL,
        "split_stats": curation.Q_SPLIT_STATS_SQL,
        "pii_redact": curation.Q_PII_REDACT_SQL,
        "domain_stats": curation.Q_DOMAIN_STATS_SQL,
        "length_histogram": curation.Q_LENGTH_HISTOGRAM_SQL,
        "term_stats": curation.Q_TERM_STATS_SQL,
        "dup_ngram_coverage": analysis.Q_DUP_NGRAM_COVERAGE_SQL,
        "tfidf_topk": analysis.Q_TFIDF_TOPK_SQL,
        "event_gaps": analysis.Q_EVENT_GAPS_SQL,
        "revenue_rollup": analysis.Q_REVENUE_ROLLUP_SQL,
        "revenue_cube": analysis.Q_REVENUE_CUBE_SQL,
        "token_rarity": analysis.Q_TOKEN_RARITY_SQL,
        "remove_dup_ngrams": analysis.Q_REMOVE_DUP_NGRAMS_SQL,
        "lm_score": analysis.Q_LM_SCORE_SQL,
        "corr_qty_discount": analysis.Q_CORR_QTY_DISCOUNT_SQL,
        "bloom_semijoin": sketches.Q_BLOOM_SEMIJOIN_SQL,
        "quantity_percentiles": analysis.Q_QUANTITY_PERCENTILES_SQL,
        "retention_7d": analysis.Q_RETENTION_SQL,
        "stratified_sample": curation.Q_STRATIFIED_SAMPLE_SQL,
        "source_mixture": curation.Q_SOURCE_MIXTURE_SQL,
        "token_budget": curation.Q_TOKEN_BUDGET_SQL,
        "decontaminate": curation.Q_DECONTAMINATE_SQL,
        "snapshot_diff": curation.Q_SNAPSHOT_DIFF_SQL,
        "delta_apply": curation.Q_DELTA_APPLY_SQL,
        "vocab_ids": textops.Q_VOCAB_IDS_SQL,
        "value_outliers": analysis.Q_VALUE_OUTLIERS_SQL,
        "grouped_percentiles": analysis.Q_GROUPED_PERCENTILES_SQL,
        "price_deciles": analysis.Q_PRICE_DECILES_SQL,
        "lang_pivot": analysis.Q_LANG_PIVOT_SQL,
        # link-graph family: the pages corpus is deterministic parquet
        # under /tmp, so DuckDB replays the anchor extraction
        # independently (escaped-blob regexp; linkgraph.py oracle
        # notes). The driver gate runs at sf=0.01, so these are built
        # for that sf; tools/check_oracles.py rebuilds them for the sf
        # it checks.
        **_linkgraph_oracles(),
    }


def _linkgraph_oracles(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    from deed_ocr_ray.pipelines import dedup, linkgraph, prep
    from deed_ocr_ray.pipelines.corpus import pages_corpus_for

    corpus = pages_corpus_for(sf_dir)
    return {
        "url_dedup": linkgraph.url_dedup_sql(corpus),
        "outlinks": linkgraph.outlinks_sql(corpus),
        "host_graph": linkgraph.host_graph_sql(corpus),
        "host_degree": linkgraph.host_degree_sql(corpus),
        "anchor_terms": linkgraph.anchor_terms_sql(corpus),
        # round-4 upgrades: rows-only -> value-hash-checked
        "pagerank": linkgraph.pagerank_sql(corpus),
        "doc_authority": linkgraph.doc_authority_sql(corpus),
        "paragraph_dedup": prep.paragraph_dedup_sql(corpus),
        "fuzzy_url_pairs": dedup.fuzzy_url_pairs_sql(corpus),
        # round-5 upgrades: replay over CHECKPOINT parquet (the same
        # /tmp artifact the query reads — the corpus replay pattern
        # one level up)
        "paragraph_dedup_extracted":
            prep.paragraph_dedup_extracted_sql(sf_dir),
        "neardup_clusters":
            dedup.neardup_clusters_sql(sf_dir),
        "training_prep":
            prep.training_prep_sql(sf_dir),
        "cluster_keep_best":
            dedup.cluster_keep_best_sql(sf_dir),
    }
