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
           "neardup_clusters", "cluster_keep_best", "pagerank"]


@pytest.mark.parametrize("name", QUERIES)
def test_no_schema_warnings(ray_session, schema_warnings, name):
    import __ray_entry__ as ent

    ent.queries()[name](SF).materialize()
    assert schema_warnings == []
