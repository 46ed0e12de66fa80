"""Gate: representative shuffle queries run without Ray Data's
schema-unification warnings.

Ray Data warns when an operator emits a block whose schema differs
from the previous one — in practice a schema-less empty block after
typed ones, which can make downstream operators misbehave.
"""

import pytest

from test_oracle_parity import SF

QUERIES = ["term_stats", "sessionize", "tfidf_topk", "q3_shipping_priority",
           "event_gaps", "customer_ltv", "asof_last_ship", "dup_ngram_coverage",
           "customers_no_orders", "jaccard_adjacent", "remove_dup_ngrams",
           "neardup_clusters", "cluster_keep_best", "pagerank",
           # every other query whose plan runs exchange.keyed_aggregate
           "top_terms", "posting_pairs", "bigram_counts", "canon_dedup",
           "vocab_ids", "price_quantiles", "event_transitions",
           "moving_avg_dau", "exact_dedup", "minhash_pairs", "minhash_validate",
           "lsh_overflow", "simhash_near_pairs", "simhash_overflow",
           "doc_authority", "bpe_merges", "bpe_tokenize", "host_graph",
           "host_degree", "anchor_terms", "q1_pricing_summary",
           "mktsegment_orders", "nation_revenue", "events_hourly",
           "region_part_revenue", "daily_active_users", "top_parts_per_nation",
           "split_stats", "domain_stats", "length_histogram", "source_mixture",
           "snapshot_diff", "bloom_semijoin", "revenue_rollup", "revenue_cube",
           "retention_7d", "quantity_percentiles", "grouped_percentiles",
           "price_deciles", "lang_pivot", "token_rarity", "lm_score",
           "lang_source_stats", "url_dedup",
           # the queries that run exchange.ordered_offsets
           "pack_windows", "seeded_shuffle", "interleave_sources",
           "training_prep", "token_budget"]


@pytest.mark.parametrize("name", QUERIES)
def test_no_schema_warnings(ray_session, schema_warnings, name):
    import __ray_entry__ as ent

    res = ent.queries()[name](SF)
    if hasattr(res, "materialize"):  # lang_source_stats returns a frame
        res.materialize()
    assert schema_warnings == []
