"""Operator-pipeline tests over /root/testdata/sf0.001 (shapes + spot values)."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_exact_dedup_partition(ray_session):
    from deed_ocr_ray.pipelines.dedup import q_exact_dedup

    df = q_exact_dedup(SF).to_pandas()
    assert df["n_copies"].sum() == 500  # every doc in exactly one group
    assert set(df.columns) == {"fp", "rep_doc_id", "n_copies"}


def test_fingerprint_matches_hashlib(ray_session):
    import duckdb
    import hashlib

    from deed_ocr_ray.pipelines.textops import q_fingerprint

    df = q_fingerprint(SF).to_pandas().sort_values("doc_id")
    text0 = duckdb.sql(
        f"select text from read_parquet('{SF}/documents.parquet') order by doc_id limit 1"
    ).fetchone()[0]
    assert df.iloc[0]["fp"] == hashlib.md5(text0.encode()).hexdigest()


def test_token_count_positive(ray_session):
    from deed_ocr_ray.pipelines.textops import q_token_count

    df = q_token_count(SF).to_pandas()
    assert len(df) == 500 and (df["n_tokens"] > 0).all()


def test_lang_id_on_labeled_synthetic_text(ray_session):
    # the testdata documents' text is English-ish word soup regardless of
    # its lang label, so accuracy is tested on our own per-lang sentences
    import random

    from deed_ocr_ray.fixtures import _STOP_LISTS, _sentence
    from deed_ocr_ray.pipelines.textops import LangId, q_lang_id

    li = LangId()
    rng = random.Random(3)
    for lang in ("en", "de", "id"):
        text = " ".join(_sentence(rng, _STOP_LISTS[lang]) for _ in range(6))
        assert li.predict(text) == lang, (lang, text[:80])

    df = q_lang_id(SF).to_pandas()
    assert len(df) == 500
    assert (df["pred_lang"] == "en").mean() > 0.5  # corpus is English-shaped


def test_minhash_detects_planted_duplicates(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from deed_ocr_ray.pipelines.dedup import minhash_signature

    # identical docs -> identical signatures; near-identical -> high est
    a = "the quick brown fox jumps over the lazy dog and runs far away home"
    b = a.replace("runs", "walks")
    c = "completely different words appear in this other document entirely unrelated"
    sa, sb, sc = minhash_signature(a), minhash_signature(b), minhash_signature(c)
    est_ab = float(np.mean(sa == sb))
    est_ac = float(np.mean(sa == sc))
    assert est_ab > 0.5 > est_ac
    assert float(np.mean(sa == minhash_signature(a))) == 1.0


def test_simhash_batch_matches_scalar():
    """The vectorized per-actor-cached batch path must agree bit-for-bit
    with the scalar reference implementation."""
    from deed_ocr_ray.pipelines.dedup import SimHashBatch, simhash64

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "   ",
        "one",
        "repeat repeat repeat repeat",
        "unicode tøkens ünd ємøjí ❄ mixed 123",
        "the quick brown fox jumps over the sleepy dog",
    ]
    sb = SimHashBatch()
    batch = sb.signatures(texts)
    for t, got in zip(texts, batch):
        assert int(got) == simhash64(t), t[:30]
    # second call exercises the warm token cache — identical results
    again = sb.signatures(texts)
    assert np.array_equal(batch, again)


def test_lsh_overflow_observable(ray_session, tmp_path):
    """Buckets above max_bucket are dropped from pair generation but
    MUST surface in q_lsh_overflow — recall loss is never silent."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deed_ocr_ray.pipelines.dedup import (
        N_BANDS, q_lsh_overflow, q_minhash_pairs,
    )

    d = tmp_path / "hot"
    d.mkdir()
    hot = "identical boilerplate navigation footer text repeated across the site " * 3
    uniq = [f"unique document number {i} with distinct content words {i*7}" for i in range(5)]
    docs = [hot] * 30 + uniq
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
    }), str(d / "documents.parquet"))

    # cap below the hot-bucket size: every band bucket overflows
    over = q_lsh_overflow(str(d), max_bucket=8).to_pandas().iloc[0]
    assert over["n_overflow_buckets"] == N_BANDS
    assert over["max_bucket_size"] == 30
    assert over["dropped_doc_slots"] == 30 * N_BANDS
    pairs = q_minhash_pairs(str(d)).to_pandas()  # default cap: no overflow
    assert len(pairs) >= 30 * 29 // 2  # hot group fully paired
    over_dflt = q_lsh_overflow(str(d)).to_pandas().iloc[0]
    assert over_dflt["n_overflow_buckets"] == 0
    assert over_dflt["dropped_doc_slots"] == 0


def test_overflow_summary_runs_its_input_once(ray_session, tmp_path):
    """The overflow summary reads its sentinel rows in one pass: no
    separate ``count()`` run before the aggregate."""
    import pyarrow as pa
    import ray.data

    from deed_ocr_ray.pipelines.dedup import _overflow_summary

    log = tmp_path / "calls"

    def logged(t):
        with open(log, "a") as f:
            f.write("call\n")
        return t

    sentinels = pa.table({"doc_a": pa.array([-1] * 4, type=pa.int64()),
                          "doc_b": pa.array([30, 12, 9, 30], type=pa.int64()),
                          "n_bands": pa.array([2, 1, 3, 1], type=pa.int64())})
    over = ray.data.from_arrow([sentinels.slice(0, 2), sentinels.slice(2)]).map_batches(
        logged, batch_size=None, batch_format="pyarrow")
    row = _overflow_summary(over, "n_bands").take_all()
    assert row == [{"n_overflow_buckets": 7, "max_bucket_size": 30,
                    "dropped_doc_slots": 30 * 2 + 12 + 27 + 30}]
    assert log.read_text().count("call") == 2


def test_simhash_hot_band_capped_and_observable(ray_session, tmp_path):
    """A hot band bucket (near-identical boilerplate docs sharing all
    four 16-bit band values) must be capped — bounded time — and the
    skipped bucket must surface in q_simhash_overflow, mirroring the
    MinHash guard."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deed_ocr_ray.pipelines.dedup import (
        q_simhash_near_pairs, q_simhash_overflow,
    )

    d = tmp_path / "hotband"
    d.mkdir()
    hot = "identical boilerplate navigation footer text repeated across the site " * 3
    # two identical docs (hamming 0, guaranteed shared bands), distinct
    # from the hot group
    near = ["alpha beta gamma delta epsilon zeta eta theta " * 4] * 2
    docs = [hot] * 40 + near
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
    }), str(d / "documents.parquet"))

    # cap below the hot-bucket size: all four of its band buckets skip,
    # but the small near-dup bucket still pairs
    over = q_simhash_overflow(str(d), max_bucket=8).to_pandas().iloc[0]
    assert over["n_overflow_buckets"] == 4
    assert over["max_bucket_size"] == 40
    assert over["dropped_doc_slots"] == 40 * 4
    pairs = q_simhash_near_pairs(str(d), max_bucket=8).to_pandas()
    assert ((pairs["doc_a"] == 40) & (pairs["doc_b"] == 41)).any()
    assert (pairs["doc_a"] >= 0).all()  # sentinels never leak into pairs
    assert not ((pairs["doc_a"] < 40) & (pairs["doc_b"] < 40)).any()
    # default cap (64) admits the hot bucket: fully paired, no overflow
    dflt = q_simhash_near_pairs(str(d)).to_pandas()
    assert len(dflt) >= 40 * 39 // 2
    over_dflt = q_simhash_overflow(str(d)).to_pandas().iloc[0]
    assert over_dflt["n_overflow_buckets"] == 0


def test_simhash_hamming_properties():
    from deed_ocr_ray.pipelines.dedup import simhash64

    a = "the quick brown fox jumps over the lazy dog " * 5
    b = a.replace("lazy", "sleepy")
    c = "entirely unrelated content about database shuffles and parquet files"
    ha, hb, hc = simhash64(a), simhash64(b), simhash64(c)
    ham = lambda x, y: bin(x ^ y).count("1")
    assert ham(ha, hb) < ham(ha, hc)
    assert simhash64(a) == ha  # deterministic


def test_jaccard_matches_duckdb_function(ray_session):
    import duckdb

    from deed_ocr_ray.pipelines.dedup import duckdb_jaccard

    cases = [("abc", "abd"), ("Hello there", "hello where"), ("héllo", "hello")]
    for a, b in cases:
        want = duckdb.sql("select jaccard(?, ?)", params=[a, b]).fetchone()[0]
        assert duckdb_jaccard(a, b) == want


def test_knn_self_excluded_and_sorted(ray_session):
    from deed_ocr_ray.pipelines.similarity import q_knn_cosine

    df = q_knn_cosine(SF).to_pandas()
    assert len(df) == 50  # 5 queries x 10
    for qid, g in df.groupby("query_id"):
        assert qid not in set(g["neighbor_id"])
        cos = list(g["cos"])
        assert cos == sorted(cos, reverse=True)


def test_ivf_subset_of_label(ray_session):
    import duckdb

    from deed_ocr_ray.pipelines.similarity import q_knn_ivf

    df = q_knn_ivf(SF).to_pandas()
    labels = dict(duckdb.sql(
        f"select vec_id, label from read_parquet('{SF}/embeddings.parquet')"
    ).fetchall())
    for _, r in df.iterrows():
        assert labels[r["query_id"]] == labels[r["neighbor_id"]]


def test_media_pipeline_deterministic(ray_session):
    from deed_ocr_ray.pipelines.multimodal import q_media_pipeline

    a = q_media_pipeline(SF).to_pandas().sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)
    b = q_media_pipeline(SF).to_pandas().sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)
    assert a.equals(b)
    assert set(a.columns) == {"doc_id", "frame_idx", "frame_key"}


def test_media_decoder_real_codecs_and_stub_boundary():
    import pyarrow as pa

    from deed_ocr_ray.functions.imagecodec import encode_ppm
    from deed_ocr_ray.pipelines.multimodal import MediaDecoder, synth_png

    png = synth_png(7)
    ppm = encode_ppm(np.full((5, 9, 3), 40, dtype=np.uint8))
    batch = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "payload": pa.array([png, ppm], type=pa.binary()),
    })
    out = MediaDecoder(require_real_codecs=True)(batch)
    metas = out["media_meta"].to_pylist()
    assert metas[0]["format"] == "png" and metas[0]["width"] == 24
    assert metas[1]["format"] == "ppm" and (metas[1]["width"], metas[1]["height"]) == (9, 5)
    # stub boundary: a genuinely codec-less format (WEBP) raises ONLY in
    # strict mode; baseline JPEG is now in-repo so malformed JPEG bytes
    # are a ValueError there, fake-fallback in lenient mode
    webp_ish = pa.table({
        "doc_id": pa.array([3], type=pa.int64()),
        "payload": pa.array([b"RIFF\x24\x00\x00\x00WEBPVP8 "], type=pa.binary()),
    })
    with pytest.raises(NotImplementedError):
        MediaDecoder(require_real_codecs=True)(webp_ish)
    fake = MediaDecoder()(webp_ish)["media_meta"].to_pylist()[0]
    assert fake["format"] in {"jpeg", "webp", "tiff", "mp4"}
    jpeg_bad = pa.table({
        "doc_id": pa.array([4], type=pa.int64()),
        "payload": pa.array([b"\xff\xd8\xff\xe0 not decodable"], type=pa.binary()),
    })
    with pytest.raises(ValueError):
        MediaDecoder(require_real_codecs=True)(jpeg_bad)
    fake = MediaDecoder()(jpeg_bad)["media_meta"].to_pylist()[0]
    assert fake["width"] > 0


def test_media_decoder_lenient_mode_is_total_on_malformed_sniffs():
    """Bytes that merely SNIFF as PNG/PPM but are malformed must fall
    back to the deterministic fake in lenient mode (no task-killing
    raise) and still raise in strict mode."""
    import pyarrow as pa

    from deed_ocr_ray.pipelines.multimodal import MediaDecoder

    # document text that happens to start with the PPM magic, and a
    # PNG signature with no valid chunks behind it
    bad_ppm = b"P6 quarterly report: margins up"
    bad_png = b"\x89PNG\r\n\x1a\n then garbage, no IHDR"
    batch = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "payload": pa.array([bad_ppm, bad_png], type=pa.binary()),
    })
    metas = MediaDecoder()(batch)["media_meta"].to_pylist()
    assert len(metas) == 2 and all(m["width"] > 0 for m in metas)
    with pytest.raises((ValueError, NotImplementedError)):
        MediaDecoder(require_real_codecs=True)(batch)


def test_image_features_real_pixels(ray_session):
    from deed_ocr_ray.functions.imagecodec import (
        decode_png, image_features, resize_nearest,
    )
    from deed_ocr_ray.pipelines.multimodal import q_image_features, synth_png

    df = q_image_features(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(df) == 500
    assert (df["width"] == 24).all() and (df["height"] == 16).all()
    # spot-check one row against a local decode of the same payload
    row = df.iloc[17]
    want = image_features(resize_nearest(decode_png(synth_png(int(row["doc_id"]))), 32, 32))
    for k in ("mean_r", "mean_g", "mean_b", "std", "entropy"):
        assert row[k] == want[k]


def test_events_hourly_window_count(ray_session):
    from deed_ocr_ray.pipelines.relational import q_events_hourly

    df = q_events_hourly(SF).to_pandas()
    assert df["n_events"].sum() == 1000  # every event in exactly one window


def test_winnow_fingerprints_deterministic_and_edit_robust():
    from deed_ocr_ray.pipelines.textops import winnow_fingerprints

    # varied text: repetitive input legitimately collapses to few
    # distinct fingerprints, so vary every sentence
    text = " ".join(f"sentence number {i} speaks about topic {i*i}" for i in range(40))
    a = winnow_fingerprints(text)
    assert a == winnow_fingerprints(text)  # deterministic
    assert len(a) > 5
    # a local edit changes only a bounded share of fingerprints
    edited = text[:100] + "X" + text[101:]
    b = winnow_fingerprints(edited)
    overlap = len(set(a) & set(b)) / len(set(a) | set(b))
    assert overlap > 0.7
    # short inputs
    assert winnow_fingerprints("") == []
    assert winnow_fingerprints("abc") == []


def test_kmeans_deterministic_and_valid(ray_session):
    from deed_ocr_ray.pipelines.packing import K_CLUSTERS, q_kmeans

    sf = "/root/testdata/sf0.001"
    a = q_kmeans(sf).to_pandas().sort_values("vec_id").reset_index(drop=True)
    b = q_kmeans(sf).to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert a.equals(b)  # iterative but deterministic
    assert a["cluster"].between(0, K_CLUSTERS - 1).all()
    assert a["cluster"].nunique() > 1  # did not collapse


def test_hll_estimate_accuracy(ray_session):
    import numpy as np

    from deed_ocr_ray.pipelines.dedup import _hll_registers, hll_estimate, q_hll_users

    # pure-sketch accuracy on known cardinalities
    for n in (100, 5000, 100000):
        ids = np.arange(n, dtype=np.uint64) * 2654435761 + 7
        est = hll_estimate(_hll_registers(ids))
        assert abs(est - n) / n < 0.05, (n, est)
    # mergeability: union of two halves == whole
    a = np.arange(0, 3000, dtype=np.uint64)
    regs = np.maximum(_hll_registers(a[:1500]), _hll_registers(a[1500:]))
    assert np.array_equal(regs, _hll_registers(a))

    # estimate-vs-exact audit (moved OUT of the operator: q_hll_users
    # emits only its estimate; the oracle comparison lives here)
    import duckdb

    row = q_hll_users("/root/testdata/sf0.001").to_pandas().iloc[0]
    exact = duckdb.sql(
        "SELECT COUNT(DISTINCT user_id) FROM "
        "read_parquet('/root/testdata/sf0.001/events.parquet')"
    ).fetchone()[0]
    assert abs(row["estimate"] - exact) / exact < 0.05
    assert 0 < row["nonzero_registers"] <= row["n_registers"]


def test_price_quantile_sketch_accuracy(ray_session):
    """Histogram-sketch quantiles vs exact (the audit lives here, not in
    the operator — HLL pattern)."""
    import duckdb

    from deed_ocr_ray.pipelines.windows import q_price_quantile_sketch

    row = q_price_quantile_sketch(SF).to_pandas().iloc[0]
    for q, col in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
        exact = duckdb.sql(
            f"SELECT quantile_disc(l_extendedprice, {q}) FROM "
            f"read_parquet('{SF}/lineitem.parquet')"
        ).fetchone()[0]
        rel = abs(row[col] - exact) / exact * 100
        assert rel <= row["rel_err_bound_pct"] + 1e-9, (col, row[col], exact, rel)
    exact_n = duckdb.sql(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/lineitem.parquet')"
    ).fetchone()[0]
    assert row["n_rows"] == exact_n


def test_minhash_estimates_track_exact_jaccard(ray_session):
    from deed_ocr_ray.pipelines.dedup import q_minhash_validate

    df = q_minhash_validate("/root/testdata/sf0.001").to_pandas()
    assert len(df) > 0
    err = (df["est_jaccard"] - df["exact_jaccard"]).abs()
    assert err.mean() < 0.08       # 64 perms -> ~1/8 std error per pair
    assert (err < 0.3).all()


def test_minhash_pairs_equal_pandas_verification(ray_session):
    """Pins WHICH pairs ``q_minhash_pairs`` emits, not only their
    error: its two distributed signature joins must give exactly the
    pairs a single-process pandas merge of the same candidates and
    signatures gives."""
    import pyarrow as pa

    from deed_ocr_ray.pipelines.dedup import (
        _candidate_pairs, _est_jaccard_from_sigs, minhash_sigs, q_minhash_pairs)

    sigs = minhash_sigs(SF).materialize()
    cand = _candidate_pairs(sigs).to_pandas()
    cand = cand.loc[cand["doc_a"] >= 0, ["doc_a", "doc_b"]]  # drop sentinels
    sig = sigs.to_pandas()
    m = (cand.merge(sig.rename(columns={"doc_id": "doc_a", "sig": "sig_a"}), on="doc_a")
         .merge(sig.rename(columns={"doc_id": "doc_b", "sig": "sig_b"}), on="doc_b"))
    est = _est_jaccard_from_sigs(pa.Table.from_pandas(m, preserve_index=False))
    want = est.filter(pa.compute.greater_equal(est["est_jaccard"], 0.5)).to_pandas()
    got = q_minhash_pairs(SF).to_pandas()

    def rows(df):
        return sorted(zip(df["doc_a"], df["doc_b"], df["est_jaccard"]))

    assert len(want) > 0
    assert list(got.columns) == ["doc_a", "doc_b", "est_jaccard"]
    assert rows(got) == rows(want)


def test_training_prep_pipeline_invariants(ray_session):
    from deed_ocr_ray.pipelines.prep import WINDOW_TOKENS, q_training_prep

    a = q_training_prep("/root/testdata/sf0.001").to_pandas()
    # deterministic across runs
    b = q_training_prep("/root/testdata/sf0.001").to_pandas()
    key = ["url", "warc_ts"]
    pa_ = a.sort_values(key).reset_index(drop=True)
    pb_ = b.sort_values(key).reset_index(drop=True)
    assert pa_.equals(pb_)
    # packing is gapless and contiguous in (url, warc_ts) order
    s = a.sort_values(key).reset_index(drop=True)
    assert s["start_tok"].iloc[0] == 0
    assert (s["start_tok"].iloc[1:].to_numpy()
            == (s["start_tok"] + s["n_tokens"]).iloc[:-1].to_numpy()).all()
    assert (s["window_id"] == s["start_tok"] // WINDOW_TOKENS).all()
    # dedup + filter shrank the corpus but kept most of it
    assert 300 < len(a) <= 500


def test_embedding_neardup_matches_bruteforce(ray_session):
    import duckdb

    from deed_ocr_ray.pipelines.similarity import _cosine_block, q_embedding_neardup

    sf = "/root/testdata/sf0.001"
    got = q_embedding_neardup(sf).to_pandas()
    rows = duckdb.sql(
        f"select vec_id, embedding, label from read_parquet('{sf}/embeddings.parquet')"
    ).fetchall()
    by_label = {}
    for vid, emb, lab in rows:
        by_label.setdefault(lab, []).append((vid, emb))
    # brute force per label
    want_above = set()
    for lab, items in by_label.items():
        items.sort()
        ids = np.array([i for i, _ in items])
        m = np.array([e for _, e in items], dtype=np.float64)
        if len(ids) < 2:
            continue
        cos = _cosine_block(m, m)
        ii, jj = np.triu_indices(len(ids), k=1)
        for i, j, c in zip(ii, jj, cos[ii, jj]):
            if c >= 0.90:
                want_above.add((int(ids[i]), int(ids[j])))
    got_above = {(int(r["vec_a"]), int(r["vec_b"]))
                 for _, r in got[got["is_above_threshold"]].iterrows()}
    assert got_above == want_above


def test_embedding_neardup_hot_label_capped(ray_session, tmp_path):
    """A label group above max_label_docs is skipped with an observable
    overflow row (bounded memory on skew); sub-blocked scan of a group
    crossing _PAIR_CHUNK still matches an unchunked brute force."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deed_ocr_ray.pipelines import similarity as sim

    rng = np.random.RandomState(42)
    dim = 8
    hot = rng.randn(40, dim)          # label 0: over the (test) cap
    cold = rng.randn(6, dim)          # label 1: normal
    cold[1] = cold[0] * 1.5           # planted colinear near-dup pair
    emb = np.vstack([hot, cold])
    labels = np.array([0] * 40 + [1] * 6, dtype=np.int64)
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(emb)), type=pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in emb],
                              type=pa.list_(pa.float64())),
        "label": pa.array(labels),
    }), str(d / "embeddings.parquet"))

    got = sim.q_embedding_neardup(str(d), max_label_docs=20).to_pandas()
    over = got[got["vec_a"] < 0]
    assert len(over) == 1 and int(over.iloc[0]["label"]) == 0
    assert int(over.iloc[0]["vec_b"]) == 40  # group size surfaced
    lab1 = got[(got["label"] == 1) & (got["vec_a"] >= 0)]
    assert {(int(r["vec_a"]), int(r["vec_b"]))
            for _, r in lab1[lab1["is_above_threshold"]].iterrows()} == {(40, 41)}

    # chunked == unchunked on a group larger than the chunk edge
    chunked = sim.q_embedding_neardup(str(d), pair_chunk=16).to_pandas()
    plain = sim.q_embedding_neardup(str(d)).to_pandas()
    for df in (chunked, plain):
        df.sort_values(["label", "vec_a", "vec_b"], inplace=True)
        df.reset_index(drop=True, inplace=True)
    assert chunked[["label", "vec_a", "vec_b", "is_above_threshold"]].equals(
        plain[["label", "vec_a", "vec_b", "is_above_threshold"]])
    assert np.allclose(chunked["cos"], plain["cos"])


def test_neardup_clusters_match_union_find(ray_session, tmp_path):
    """The distributed min-label propagation must produce exactly the
    connected components an in-process union-find computes over the
    same verified near-dup pairs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deed_ocr_ray.pipelines.dedup import q_minhash_pairs, q_neardup_clusters

    d = tmp_path / "clusters"
    d.mkdir()
    # three near-dup families (slight suffix edits keep Jaccard high)
    base = [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3,
        "one two three four five six seven eight nine ten " * 3,
        "red orange yellow green blue indigo violet crimson azure teal " * 3,
    ]
    docs, ids = [], []
    n = 0
    for fam in base:
        for j in range(4):
            docs.append(fam + f"tail{j}")
            ids.append(n)
            n += 1
    for j in range(5):  # singletons: never clustered
        docs.append(f"unique solitary document number {j} with words {j*13} {j*29}")
        ids.append(n)
        n += 1
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
    }), str(d / "documents.parquet"))

    pairs = q_minhash_pairs(str(d)).to_pandas()
    assert len(pairs) > 0
    # in-process union-find over the same pairs
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {x: find(x) for x in parent}

    got = q_neardup_clusters(str(d)).to_pandas()
    got_map = dict(zip(got["doc_id"], got["rep_id"]))
    assert got_map == want
    # every rep is its own rep; singletons absent from the output
    assert all(got_map[r] == r for r in set(want.values()))


def test_bpe_and_ws_tokenizers_differ_on_punctuation():
    """The sf testdata is pure space-separated words, so token_count and
    token_count_bpe coincide there (their gate hashes collide —
    genuinely). Pin the distinction on punctuated text: the BPE-ish
    regex splits trailing punctuation into its own token."""
    from deed_ocr_ray.pipelines.textops import _BPE_RE

    text = "Hello, world! It's 42 degrees."
    ws = len(text.split())                 # 5
    bpe = len(_BPE_RE.findall(text))       # punctuation + digit splits
    assert ws == 5
    assert bpe == 10
    assert bpe != ws


def test_cluster_keep_best_picks_longest_then_min_id(ray_session, tmp_path):
    """Within every near-dup component exactly one member is kept: the
    longest text, ties broken by min doc_id; singletons never appear."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deed_ocr_ray.pipelines.dedup import q_cluster_keep_best, q_neardup_clusters

    d = tmp_path / "keepbest"
    d.mkdir()
    base = [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3,
        "one two three four five six seven eight nine ten " * 3,
    ]
    docs, ids = [], []
    n = 0
    for fam in base:
        for j in range(4):
            docs.append(fam + "tail" + "x" * j)  # lengths strictly increase
            ids.append(n)
            n += 1
    for j in range(3):
        docs.append(f"unique solitary document number {j} with words {j*13} {j*29}")
        ids.append(n)
        n += 1
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
        "n_chars": pa.array([len(t) for t in docs], type=pa.int64()),
    }), str(d / "documents.parquet"))

    clusters = q_neardup_clusters(str(d)).to_pandas()
    got = q_cluster_keep_best(str(d)).to_pandas()
    assert set(got["doc_id"]) == set(clusters["doc_id"])
    # exactly one keeper per component, and it's the longest member
    lens = dict(zip(ids, (len(t) for t in docs)))
    for rep, grp in got.groupby("rep_id"):
        keepers = grp[grp["keep"]]
        assert len(keepers) == 1
        best = max(grp["doc_id"], key=lambda i: (lens[i], -i))
        assert keepers["doc_id"].iloc[0] == best
    # singletons (never clustered) are absent
    assert all(i < 8 for i in got["doc_id"])


def test_chunk_windows_invariants(ray_session):
    """Chunks tile each doc with the documented stride; overlap regions
    are byte-identical between consecutive chunks; empty docs vanish."""
    import duckdb

    from deed_ocr_ray.pipelines.packing import (
        CHUNK_OVERLAP, CHUNK_TOKENS, q_chunk_windows,
    )

    stride = CHUNK_TOKENS - CHUNK_OVERLAP
    df = q_chunk_windows(SF).to_pandas().sort_values(["doc_id", "chunk_idx"])
    assert (df["start_tok"] == df["chunk_idx"] * stride).all()
    assert (df["chunk_tokens"] >= 1).all() and (df["chunk_tokens"] <= CHUNK_TOKENS).all()
    # reconstruct one multi-chunk doc: stripping each chunk's first
    # `overlap` tokens (after chunk 0) re-yields the whitespace-joined doc
    multi = df[df["doc_id"].isin(df[df["chunk_idx"] > 0]["doc_id"])]
    did = int(multi["doc_id"].iloc[0])
    parts = []
    for _, r in df[df["doc_id"] == did].iterrows():
        toks = r["chunk_text"].split()
        parts.extend(toks if r["chunk_idx"] == 0 else toks[CHUNK_OVERLAP:])
    orig = duckdb.sql(
        f"select text from read_parquet('{SF}/documents.parquet') where doc_id={did}"
    ).fetchone()[0]
    assert parts == orig.split()
    # every non-empty doc is represented
    n_nonempty = duckdb.sql(
        f"select count(*) from read_parquet('{SF}/documents.parquet') where trim(text) <> ''"
    ).fetchone()[0]
    assert df["doc_id"].nunique() == n_nonempty


def test_seeded_shuffle_is_deterministic_permutation(ray_session):
    from deed_ocr_ray.pipelines.packing import q_seeded_shuffle

    df = q_seeded_shuffle(SF).to_pandas().sort_values("pos")
    assert list(df["pos"]) == list(range(len(df)))          # exact permutation
    assert df["doc_id"].nunique() == len(df)
    assert list(df["shuffle_key"]) == sorted(df["shuffle_key"])  # pos follows key order
    again = q_seeded_shuffle(SF).to_pandas().sort_values("pos")
    assert list(again["doc_id"]) == list(df["doc_id"])      # reproducible
    other = q_seeded_shuffle(SF, seed=7).to_pandas().sort_values("pos")
    assert list(other["doc_id"]) != list(df["doc_id"])      # seed changes order


def test_pca_matches_single_machine_numpy(ray_session):
    """Distributed moment-partial PCA must equal a straight numpy PCA
    of the whole table (same sign convention), and projections must
    decorrelate with variances matching the eigenvalues."""
    import pyarrow.parquet as pq

    from deed_ocr_ray.pipelines.similarity import (
        PCA_COMPONENTS, pca_fit, q_pca_project,
    )

    m = np.array(pq.read_table(f"{SF}/embeddings.parquet")["embedding"].to_pylist(),
                 dtype=np.float64)
    mu = m.mean(axis=0)
    cov = np.cov(m, rowvar=False)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:PCA_COMPONENTS]
    want = evecs[:, order].T
    for i in range(want.shape[0]):
        j = int(np.argmax(np.abs(want[i])))
        if want[i, j] < 0:
            want[i] = -want[i]

    mean, comps, ratio = pca_fit(SF)
    np.testing.assert_allclose(mean, mu, rtol=1e-10)
    np.testing.assert_allclose(comps, want, rtol=1e-7, atol=1e-9)
    assert ratio[0] >= ratio[-1] > 0

    df = q_pca_project(SF).to_pandas().sort_values("vec_id")
    assert len(df) == 500
    pcs = df[[f"pc{i}" for i in range(PCA_COMPONENTS)]].to_numpy()
    np.testing.assert_allclose(pcs, (m - mu) @ want.T, rtol=1e-7, atol=1e-8)
    # decorrelated: off-diagonal covariance of scores ~ 0
    c = np.cov(pcs, rowvar=False)
    off = c - np.diag(np.diag(c))
    assert np.abs(off).max() < 1e-8 * np.abs(np.diag(c)).max() + 1e-12
    np.testing.assert_allclose(np.diag(c), evals[order], rtol=1e-7)


def test_interleave_sources_round_robin(ray_session):
    """Equal-size sources: every consecutive window of n_sources
    positions carries each source exactly once; within-source order
    follows the seeded shuffle key."""
    from deed_ocr_ray.pipelines.packing import q_interleave_sources

    df = q_interleave_sources(SF).to_pandas().sort_values("pos")
    assert list(df["pos"]) == list(range(len(df)))
    n_src = df["source"].nunique()
    assert len(df) % n_src == 0
    for w in range(0, len(df), n_src):
        window = df.iloc[w:w + n_src]
        assert window["source"].nunique() == n_src, f"window {w} clumped"
        assert (window["rn"] == w // n_src).all()
    # rn is a 0..k-1 permutation within each source
    for _, g in df.groupby("source"):
        assert sorted(g["rn"]) == list(range(len(g)))
