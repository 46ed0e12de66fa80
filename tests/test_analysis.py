"""Corpus-analysis operators: dup-n-gram coverage, TF-IDF top-k, event
gaps, ROLLUP, one-pass correlation — crafted-fixture exactness plus
DuckDB-oracle parity on adversarial inputs (the sf tables are benign;
these fixtures plant the edge cases: shared spans, short docs, ties,
same-timestamp events)."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write(tmp_path, name, table: pa.Table) -> None:
    pq.write_table(table, str(tmp_path / f"{name}.parquet"))


def _oracle(tmp_path, sql: str, tables) -> pd.DataFrame:
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")
    return con.execute(sql).fetchdf()


def _hash(df: pd.DataFrame) -> list:
    df = df[sorted(df.columns)]
    return sorted(repr(tuple(r)) for r in df.itertuples(index=False, name=None))


# ------------------------------------------------- dup-n-gram coverage

DOCS = pa.table({
    "doc_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
    "text": pa.array([
        "a b c d e f g",          # shares 5-gram "a b c d e" with doc 1
        "z a b c d e y",
        "short doc",               # < n tokens: zero n-grams
        "u v w x q r s",           # all unique
        "a b c d e a b c d e",     # internal repeat: both starts duplicate
    ], type=pa.string()),
})


def test_dup_ngram_coverage_exact(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import q_dup_ngram_coverage

    _write(tmp_path, "documents", DOCS)
    got = q_dup_ngram_coverage(str(tmp_path)).to_pandas()
    got = got.set_index("doc_id").sort_index()
    # doc0: start 0 covers tokens 0-4 of 7
    assert got.loc[0, "n_dup_tokens"] == 5 and got.loc[0, "n_tokens"] == 7
    # doc1: start 1 covers tokens 1-5 of 7
    assert got.loc[1, "n_dup_tokens"] == 5
    # doc2 short, doc3 unique: rows present with zero coverage
    assert got.loc[2, "n_dup_tokens"] == 0 and got.loc[2, "n_tokens"] == 2
    assert got.loc[3, "n_dup_tokens"] == 0
    # doc4: starts {0,5} ("a b c d e" x2) + cross-doc matches at 1..4?
    # only exact 5-gram matches count: "b c d e a" etc. occur once.
    assert got.loc[4, "n_dup_tokens"] == 10 and got.loc[4, "dup_frac"] == 1.0


def test_dup_ngram_coverage_matches_oracle_on_fixture(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import (
        Q_DUP_NGRAM_COVERAGE_SQL, q_dup_ngram_coverage)

    _write(tmp_path, "documents", DOCS)
    got = q_dup_ngram_coverage(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_DUP_NGRAM_COVERAGE_SQL, ["documents"])
    assert _hash(got) == _hash(want)


def test_dup_ngram_interval_union_overlapping_starts(ray_session, tmp_path):
    """Overlapping duplicate starts must union, not double-count."""
    from deed_ocr_ray.pipelines.analysis import q_dup_ngram_coverage

    docs = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        # "p q r s t u" appears in both docs => doc0 starts {0,1} overlap:
        # 5-grams "p q r s t" and "q r s t u" both duplicated
        "text": pa.array(["p q r s t u", "x p q r s t u"], type=pa.string()),
    })
    _write(tmp_path, "documents", docs)
    got = q_dup_ngram_coverage(str(tmp_path)).to_pandas().set_index("doc_id")
    assert got.loc[0, "n_dup_tokens"] == 6  # union of [0,5) and [1,6)
    assert got.loc[1, "n_dup_tokens"] == 6  # tokens 1..6 of 7


# ------------------------------------------------------- TF-IDF top-k

def test_tfidf_topk_matches_oracle_with_ties(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import Q_TFIDF_TOPK_SQL, q_tfidf_topk

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "apple apple banana cherry cherry cherry",
            "banana banana banana date",
            "apple date date elder elder fig fig grape",
            "",                      # empty doc: no rows either side
        ], type=pa.string()),
    })
    _write(tmp_path, "documents", docs)
    got = q_tfidf_topk(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_TFIDF_TOPK_SQL, ["documents"])
    assert _hash(got) == _hash(want)
    assert not (got["doc_id"] == 3).any()
    # rarest high-tf term wins: doc1's 'banana' (tf=3, df=2) over 'date'
    top1 = got[(got.doc_id == 1) & (got.rk == 1)].iloc[0]
    assert top1["term"] == "banana"


def test_tfidf_score_is_tf_times_ln(ray_session, tmp_path):
    import math

    from deed_ocr_ray.pipelines.analysis import q_tfidf_topk

    docs = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["only common", "common"], type=pa.string()),
    })
    _write(tmp_path, "documents", docs)
    got = q_tfidf_topk(str(tmp_path)).to_pandas().set_index(["doc_id", "term"])
    assert got.loc[(0, "only"), "score"] == 1 * math.log(2 / 1)
    assert got.loc[(0, "common"), "score"] == 0.0  # df == n_docs


# --------------------------------------------------------- event gaps

def test_event_gaps_matches_oracle_with_ts_ties(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import Q_EVENT_GAPS_SQL, q_event_gaps

    ts = pa.array(
        [1_000_000, 1_000_000, 4_500_000, 9_000_000, 2_000_000, 2_000_001],
        type=pa.timestamp("us"))
    events = pa.table({
        "event_id": pa.array([10, 11, 12, 13, 20, 21], type=pa.int64()),
        "user_id": pa.array([7, 7, 7, 7, 8, 8], type=pa.int64()),
        "ts": ts,
    })
    _write(tmp_path, "events", events)
    got = q_event_gaps(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_EVENT_GAPS_SQL, ["events"])
    assert _hash(got) == _hash(want)
    g = got.set_index("event_id")["gap_us"]
    assert g[11] == 0          # same-ts tie ordered by event_id
    assert g[12] == 3_500_000
    assert g[21] == 1
    assert 10 not in g.index and 20 not in g.index  # first events dropped


# -------------------------------------------------------------- rollup

def test_revenue_rollup_grains_consistent(ray_session):
    from deed_ocr_ray.pipelines.analysis import q_revenue_rollup

    got = q_revenue_rollup("/root/testdata/sf0.001").to_pandas()
    grand = got[(got.region == "ALL") & (got.nation == "ALL")]
    per_region = got[(got.region != "ALL") & (got.nation == "ALL")]
    fine = got[(got.region != "ALL") & (got.nation != "ALL")]
    assert len(grand) == 1
    assert grand["n_orders"].iloc[0] == per_region["n_orders"].sum() == fine["n_orders"].sum()
    assert abs(grand["revenue"].iloc[0] - fine["revenue"].sum()) < 1e-6
    for r, sub in fine.groupby("region"):
        row = per_region[per_region.region == r]
        assert row["n_orders"].iloc[0] == sub["n_orders"].sum()


# --------------------------------------------------------- correlation

def test_corr_matches_numpy(ray_session):
    from deed_ocr_ray.pipelines.analysis import q_corr_qty_discount

    got = q_corr_qty_discount("/root/testdata/sf0.001").to_pandas().iloc[0]
    li = pq.read_table("/root/testdata/sf0.001/lineitem.parquet",
                       columns=["l_quantity", "l_discount"])
    x = li["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
    y = np.floor(li["l_discount"].to_numpy(zero_copy_only=False) * 100 + 0.5).astype(np.int64)
    assert got["n"] == len(x) and got["sx"] == x.sum() and got["sxy"] == (x * y).sum()
    ref = np.corrcoef(x, y)[0, 1]
    assert got["corr_xy"] == pytest.approx(ref, abs=1e-12)


# ------------------------------------------- interpolated percentiles

def test_quantity_percentiles_matches_oracle(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import (
        Q_QUANTITY_PERCENTILES_SQL, q_quantity_percentiles)

    rng = np.random.default_rng(2)
    li = pa.table({
        # 997 rows: q*(n-1) lands on fractional ranks for every q
        "l_quantity": pa.array(rng.integers(1, 51, 997), type=pa.int64()),
    })
    pq.write_table(li, str(tmp_path / "lineitem.parquet"))
    got = q_quantity_percentiles(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_QUANTITY_PERCENTILES_SQL, ["lineitem"])
    assert _hash(got) == _hash(want)
    assert got["n"].iloc[0] == 997


def test_quantity_percentiles_interpolates_between_order_stats(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import q_quantity_percentiles

    li = pa.table({"l_quantity": pa.array([10, 20, 30, 40], type=pa.int64())})
    pq.write_table(li, str(tmp_path / "lineitem.parquet"))
    got = q_quantity_percentiles(str(tmp_path)).to_pandas().iloc[0]
    # rank 0.5*(4-1)=1.5 -> midpoint of 20 and 30
    assert got["p50"] == 25.0
    # rank 0.25*3=0.75 -> 10 + 0.75*(20-10)
    assert got["p25"] == 17.5


# -------------------------------------------- stratified sample

def test_stratified_sample_matches_oracle(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.curation import (
        Q_STRATIFIED_SAMPLE_SQL, q_stratified_sample)

    rng = np.random.default_rng(4)
    n = 300
    docs = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "lang": pa.array(rng.choice(["en", "de", "fr"], n).tolist(),
                         type=pa.string()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = q_stratified_sample(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_STRATIFIED_SAMPLE_SQL, ["documents"])
    assert _hash(got) == _hash(want)
    assert (got.groupby("lang")["doc_id"].count() == 10).all()


def test_stratified_sample_stable_under_row_order(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.curation import q_stratified_sample

    rng = np.random.default_rng(9)
    n = 120
    ids = np.arange(n)
    langs = rng.choice(["en", "de"], n)
    a = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "lang": pa.array(langs.tolist(), type=pa.string())})
    perm = rng.permutation(n)
    b = pa.table({"doc_id": pa.array(ids[perm], type=pa.int64()),
                  "lang": pa.array(langs[perm].tolist(), type=pa.string())})
    pq.write_table(a, str(tmp_path / "documents.parquet"))
    r1 = _hash(q_stratified_sample(str(tmp_path)).to_pandas())
    pq.write_table(b, str(tmp_path / "documents.parquet"))
    r2 = _hash(q_stratified_sample(str(tmp_path)).to_pandas())
    assert r1 == r2


# ------------------------------------------------------- 7d retention

def test_retention_matches_oracle(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import Q_RETENTION_SQL, q_retention

    day = 86_400_000_000  # us
    rows = [
        # user 1: active day0 and day7 -> retained
        (1, 0), (1, 7),
        # user 2: active day0 only -> not retained
        (2, 0),
        # user 3: day0 twice (dedup) and day7
        (3, 0), (3, 0), (3, 7),
        # user 4: day1 and day8 -> retained for day1
        (4, 1), (4, 8),
        # user 5: day7 only (counts as active day7, not retained)
        (5, 7),
    ]
    events = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "user_id": pa.array([u for u, _ in rows], type=pa.int64()),
        "ts": pa.array([d * day for _, d in rows], type=pa.timestamp("us")),
    })
    _write(tmp_path, "events", events)
    got = q_retention(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_RETENTION_SQL, ["events"])
    assert _hash(got) == _hash(want)
    g = got.set_index("day")
    assert g.loc["1970-01-01", "n_active"] == 3   # users 1,2,3
    assert g.loc["1970-01-01", "n_retained"] == 2  # users 1,3
    assert g.loc["1970-01-02", "n_retained"] == 1  # user 4
    assert g.loc["1970-01-08", "n_retained"] == 0


# -------------------------------------------------- NTILE price deciles

def test_price_deciles_matches_oracle_with_remainder(ray_session, tmp_path):
    """n % k != 0 exercises the first-r-buckets-get-ceil rule."""
    from deed_ocr_ray.pipelines.analysis import Q_PRICE_DECILES_SQL, q_price_deciles

    rng = np.random.default_rng(7)
    n = 1003  # 10 buckets: 3 of 101 rows, 7 of 100
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n), type=pa.int64()),
        "o_totalprice": pa.array(rng.uniform(1, 500_000, n).round(2),
                                 type=pa.float64()),
    })
    _write(tmp_path, "orders", orders)
    got = q_price_deciles(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_PRICE_DECILES_SQL, ["orders"])
    assert _hash(got) == _hash(want)
    sizes = got.sort_values("decile")["n"].tolist()
    assert sizes == [101, 101, 101] + [100] * 7


def test_price_deciles_ties_split_deterministically(ray_session, tmp_path):
    """All-equal prices: bucket boundaries decided by o_orderkey only."""
    from deed_ocr_ray.pipelines.analysis import Q_PRICE_DECILES_SQL, q_price_deciles

    n = 25
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n), type=pa.int64()),
        "o_totalprice": pa.array([42.42] * n, type=pa.float64()),
    })
    _write(tmp_path, "orders", orders)
    got = q_price_deciles(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_PRICE_DECILES_SQL, ["orders"])
    assert _hash(got) == _hash(want)
    assert got["n"].sum() == n


# ------------------------------------------------- grouped percentiles

def test_grouped_percentiles_matches_oracle(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import (
        Q_GROUPED_PERCENTILES_SQL, q_grouped_percentiles)

    rng = np.random.default_rng(11)
    n = 997
    li = pa.table({
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n).tolist(),
                                 type=pa.string()),
        "l_quantity": pa.array(rng.integers(1, 51, n), type=pa.int64()),
    })
    _write(tmp_path, "lineitem", li)
    got = q_grouped_percentiles(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_GROUPED_PERCENTILES_SQL, ["lineitem"])
    assert _hash(got) == _hash(want)
    assert len(got) == 3


def test_grouped_percentiles_single_row_group(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import (
        Q_GROUPED_PERCENTILES_SQL, q_grouped_percentiles)

    li = pa.table({
        "l_returnflag": pa.array(["A", "N", "N"], type=pa.string()),
        "l_quantity": pa.array([7, 10, 20], type=pa.int64()),
    })
    _write(tmp_path, "lineitem", li)
    got = q_grouped_percentiles(str(tmp_path)).to_pandas().set_index("l_returnflag")
    want = _oracle(tmp_path, Q_GROUPED_PERCENTILES_SQL, ["lineitem"])
    assert _hash(got.reset_index()) == _hash(want)
    assert got.loc["A", "p50"] == 7.0       # single-row group: rank 0
    assert got.loc["N", "p50"] == 15.0      # midpoint interpolation


# --------------------------------------------------------- lang pivot

def test_lang_pivot_matches_oracle(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import Q_LANG_PIVOT_SQL, q_lang_pivot

    rng = np.random.default_rng(13)
    n = 400
    docs = pa.table({
        "source": pa.array(rng.choice(["s0", "s1", "s2"], n).tolist(),
                           type=pa.string()),
        # 'zh' absent: the missing-language column must still exist as 0s
        "lang": pa.array(rng.choice(["en", "de", "fr", "es"], n).tolist(),
                         type=pa.string()),
    })
    _write(tmp_path, "documents", docs)
    got = q_lang_pivot(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_LANG_PIVOT_SQL, ["documents"])
    assert _hash(got) == _hash(want)
    assert (got["zh"] == 0).all()
    assert (got[["de", "en", "es", "fr", "zh"]].sum(axis=1) == got["total"]).all()


# ------------------------------------------------------- revenue cube

def test_revenue_cube_matches_oracle_and_extends_rollup(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import Q_REVENUE_CUBE_SQL, q_revenue_cube

    region = pa.table({
        "r_regionkey": pa.array([0, 1], type=pa.int64()),
        "r_name": pa.array(["EAST", "WEST"], type=pa.string()),
    })
    nation = pa.table({
        "n_nationkey": pa.array([0, 1, 2], type=pa.int64()),
        "n_name": pa.array(["AAA", "BBB", "CCC"], type=pa.string()),
        "n_regionkey": pa.array([0, 0, 1], type=pa.int64()),
    })
    customer = pa.table({
        "c_custkey": pa.array([1, 2, 3], type=pa.int64()),
        "c_nationkey": pa.array([0, 1, 2], type=pa.int64()),
    })
    orders = pa.table({
        "o_custkey": pa.array([1, 1, 2, 3], type=pa.int64()),
        "o_totalprice": pa.array([10.005, 20.0, 30.0, 40.0], type=pa.float64()),
    })
    for n, t in (("region", region), ("nation", nation),
                 ("customer", customer), ("orders", orders)):
        _write(tmp_path, n, t)
    got = q_revenue_cube(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_REVENUE_CUBE_SQL,
                   ["region", "nation", "customer", "orders"])
    assert _hash(got) == _hash(want)
    # the grain ROLLUP lacks: (ALL, nation) — one row per nation
    all_nation = got[(got["region"] == "ALL") & (got["nation"] != "ALL")]
    assert set(all_nation["nation"]) == {"AAA", "BBB", "CCC"}
    # grand total counted once
    grand = got[(got["region"] == "ALL") & (got["nation"] == "ALL")]
    assert grand["n_orders"].tolist() == [4]


# ------------------------------------------------------ token rarity

def test_token_rarity_matches_oracle(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import q_token_rarity, token_rarity_sql

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "the cat sat",          # 'the' appears 3x globally
            "the dog ran fast",
            "the cat unique",       # 'unique' appears once -> rare
            "",                     # empty text -> one '' token
        ], type=pa.string()),
    })
    _write(tmp_path, "documents", docs)
    got = q_token_rarity(str(tmp_path), rare_max=1).to_pandas()
    want = _oracle(tmp_path, token_rarity_sql(1), ["documents"])
    assert _hash(got) == _hash(want)
    by = got.set_index("doc_id")
    # doc 0: the(3) + cat(2) + sat(1) -> mass 6, rare 1 (sat)
    assert by.loc[0, "rarity_mass"] == 6 and by.loc[0, "n_rare"] == 1
    assert by.loc[3, "n_tokens"] == 1   # '' counts as one token both sides


def test_token_rarity_counts_occurrences_not_types(ray_session, tmp_path):
    """Repeated token inside ONE doc: every occurrence adds the global
    count to the mass (occurrence semantics, not distinct-type)."""
    from deed_ocr_ray.pipelines.analysis import q_token_rarity, token_rarity_sql

    docs = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["go go go", "go stop"], type=pa.string()),
    })
    _write(tmp_path, "documents", docs)
    got = q_token_rarity(str(tmp_path), rare_max=1).to_pandas()
    want = _oracle(tmp_path, token_rarity_sql(1), ["documents"])
    assert _hash(got) == _hash(want)
    by = got.set_index("doc_id")
    assert by.loc[0, "rarity_mass"] == 12   # 3 occurrences x global 4
    assert by.loc[1, "rarity_mass"] == 5    # go(4) + stop(1)
    assert by.loc[1, "n_rare"] == 1


# --------------------------------------------- dup-n-gram span removal

def test_remove_dup_ngrams_exact(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import q_remove_dup_ngrams

    _write(tmp_path, "documents", DOCS)
    got = (q_remove_dup_ngrams(str(tmp_path)).to_pandas()
           .set_index("doc_id").sort_index())
    # doc0: "a b c d e" (corpus count 4) covers 0-4 -> "f g" survives
    assert got.loc[0, "clean_text"] == "f g" and got.loc[0, "n_removed"] == 5
    # doc1: dup 5-gram at j=1 covers 1-5 -> edges survive
    assert got.loc[1, "clean_text"] == "z y"
    # doc2 (< n tokens) and doc3 (all unique) pass through unchanged
    assert got.loc[2, "clean_text"] == "short doc" and got.loc[2, "n_removed"] == 0
    assert got.loc[3, "clean_text"] == "u v w x q r s"
    # doc4: both starts duplicate -> fully removed, empty string out
    assert got.loc[4, "clean_text"] == "" and got.loc[4, "n_removed"] == 10
    assert (got["n_tokens"] - got["n_removed"] ==
            got["clean_text"].map(lambda s: len(s.split(" ")) if s else 0)).all()


def test_remove_dup_ngrams_matches_oracle_on_fixture(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import (
        Q_REMOVE_DUP_NGRAMS_SQL, q_remove_dup_ngrams)

    _write(tmp_path, "documents", DOCS)
    got = q_remove_dup_ngrams(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_REMOVE_DUP_NGRAMS_SQL, ["documents"])
    assert _hash(got) == _hash(want)


# ------------------------------------------------ bigram-LM typicality

def test_lm_score_exact(ray_session, tmp_path):
    import math

    from deed_ocr_ray.pipelines.analysis import q_lm_score

    docs = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["a b a b", "a b", "x"], type=pa.string()),
    })
    _write(tmp_path, "documents", docs)
    got = q_lm_score(str(tmp_path)).to_pandas().set_index("doc_id").sort_index()
    # global bigram counts: "a b" -> 3, "b a" -> 1
    assert got.loc[0, "n_bigrams"] == 3 and got.loc[0, "c_sum"] == 7
    assert got.loc[0, "lm_score"] == math.log(8.0 / 4.0)
    assert got.loc[1, "n_bigrams"] == 1 and got.loc[1, "c_sum"] == 3
    assert got.loc[1, "lm_score"] == math.log(4.0 / 2.0)
    # zero-bigram doc still emits a row, score ln(1/1) = 0
    assert got.loc[2, "n_bigrams"] == 0 and got.loc[2, "lm_score"] == 0.0


def test_lm_score_matches_oracle_on_fixture(ray_session, tmp_path):
    from deed_ocr_ray.pipelines.analysis import Q_LM_SCORE_SQL, q_lm_score

    _write(tmp_path, "documents", DOCS)
    got = q_lm_score(str(tmp_path)).to_pandas()
    want = _oracle(tmp_path, Q_LM_SCORE_SQL, ["documents"])
    assert _hash(got) == _hash(want)


def test_vocab_ids_dense_global_enumeration(ray_session, tmp_path):
    """vocab_ids must assign consecutive ids across MANY sorted blocks
    (the sf fixture vocab is one block; this forces the block offsets
    of exchange.ordered_offsets) and match a single-process reference
    exactly."""
    import collections

    from deed_ocr_ray.pipelines.textops import q_vocab_ids

    rng = np.random.RandomState(7)
    texts = []
    for i in range(400):
        words = [f"w{rng.randint(0, 3000):04d}" for _ in range(40)]
        texts.append(" ".join(words))
    docs = pa.table({
        "doc_id": pa.array(range(400), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    _write(tmp_path, "documents", docs)

    got = q_vocab_ids(str(tmp_path)).to_pandas().sort_values("vocab_id")
    c = collections.Counter()
    for x in texts:
        c.update(x.split(" "))
    ref = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
    assert list(got["vocab_id"]) == list(range(len(ref)))
    assert list(got["term"]) == [t for t, _ in ref]
    assert list(got["n"]) == [n for _, n in ref]


@pytest.mark.parametrize("cutoff", [10_000_000, 0])  # broadcast / join plan
def test_attach_dim_inner_semantics_drop_misses(ray_session, tmp_path, cutoff):
    """Fact rows whose key misses the dim must DROP (inner-join
    semantics) on BOTH plans — the sf tables have full FK integrity,
    so the gate never exercises the miss path."""
    import ray.data

    from deed_ocr_ray.pipelines.relational import DimSpec, attach_dim

    dim = pa.table({
        "k": pa.array([1, 2, 3], type=pa.int64()),
        "name": pa.array(["a", "b", "c"], type=pa.string()),
    })
    _write(tmp_path, "dim", dim)
    fact = ray.data.from_arrow(pa.table({
        "fk": pa.array([1, 2, 9, 3, 8], type=pa.int64()),
        "v": pa.array([10, 20, 30, 40, 50], type=pa.int64()),
    }))
    out = attach_dim(
        fact, "fk",
        DimSpec(str(tmp_path / "dim.parquet"), ["k", "name"], "k"),
        cutoff=cutoff,
    ).to_pandas().sort_values("fk").reset_index(drop=True)
    assert list(out["fk"]) == [1, 2, 3]          # 9 and 8 dropped
    assert list(out["name"]) == ["a", "b", "c"]
    assert list(out["v"]) == [10, 20, 40]
    assert sorted(out.columns) == ["fk", "name", "v"]


def test_levenshtein_matches_duckdb_on_random_strings():
    import random

    from deed_ocr_ray.pipelines.dedup import levenshtein

    rng = random.Random(11)
    con = duckdb.connect()
    for _ in range(200):
        a = "".join(rng.choice("abcxyz/0123") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcxyz/0123") for _ in range(rng.randint(0, 12)))
        want = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert levenshtein(a, b) == want, (a, b)


def test_fuzzy_url_pairs_overflow_sentinel(ray_session):
    """A host block beyond max_block must emit one observable
    (host, 'OVERFLOW', -1) sentinel instead of an O(n^2) scan."""
    from deed_ocr_ray.pipelines.dedup import q_fuzzy_url_pairs

    out = q_fuzzy_url_pairs("/root/testdata/sf0.001", max_block=1).to_pandas()
    assert (out["url_b"] == "OVERFLOW").all()
    assert (out["dist"] == -1).all()
    assert len(out) > 0 and out["url_a"].is_unique  # one sentinel per host
