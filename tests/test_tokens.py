"""Property tests pinning the vectorized tokenize kernels to their
Python reference expressions."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from deed_ocr_ray.functions import tokens as tk

texts = st.lists(
    st.text(alphabet=st.sampled_from(list("ab \t\né")), max_size=20),
    max_size=12,
)


@given(texts)
@settings(max_examples=200, deadline=None)
def test_split_space_matches_python(xs):
    got = tk.split_space(pa.array(xs, type=pa.string())).to_pylist()
    want = [x.strip().split(" ") for x in xs]
    assert got == want


@given(texts)
@settings(max_examples=200, deadline=None)
def test_explode_ws_matches_python(xs):
    flat, parent = tk.explode_ws(pa.array(xs, type=pa.string()))
    got = list(zip(parent.to_pylist(), flat.to_pylist()))
    want = [(i, w) for i, x in enumerate(xs) for w in x.split()]
    assert got == want


@given(texts)
@settings(max_examples=200, deadline=None)
def test_explode_space_matches_python(xs):
    flat, parent, lens = tk.explode_space(pa.array(xs, type=pa.string()))
    got = list(zip(parent.to_pylist(), flat.to_pylist()))
    want = [(i, w) for i, x in enumerate(xs) for w in x.strip().split(" ")]
    assert got == want
    assert lens.tolist() == [len(x.strip().split(" ")) for x in xs]


@given(texts, st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_ngram_windows_matches_python(xs, n):
    parent, j, ng = tk.ngram_windows(pa.array(xs, type=pa.string()), n)
    got = list(zip(parent.tolist(), j.tolist(), ng.to_pylist()))
    want = []
    for i, x in enumerate(xs):
        toks = x.strip().split(" ")
        for jj in range(len(toks) - n + 1):
            want.append((i, jj, " ".join(toks[jj:jj + n])))
    assert got == want


def test_grouped_arange():
    assert tk.grouped_arange(np.array([3, 0, 2])).tolist() == [0, 1, 2, 0, 1]
    assert tk.grouped_arange(np.array([])).tolist() == []


@given(st.lists(st.text(alphabet="abc/", min_size=0, max_size=12),
                min_size=2, max_size=14, unique=True),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_banded_lev_many_matches_scalar(strs, k):
    from deed_ocr_ray.pipelines.dedup import (_codes_matrix,
                                              banded_lev_many, levenshtein)

    codes = _codes_matrix(strs)
    lens = np.array([len(s) for s in strs], dtype=np.int64)
    ia, ib = np.triu_indices(len(strs), k=1)
    keep = np.abs(lens[ia] - lens[ib]) <= k
    ia, ib = ia[keep], ib[keep]
    got = banded_lev_many(codes, lens, ia, ib, k)
    for a, b, d in zip(ia, ib, got):
        want = levenshtein(strs[a], strs[b])
        if want <= k:
            assert d == want, (strs[a], strs[b], d, want)
        else:
            assert d == k + 1, (strs[a], strs[b], d, want)


@given(st.lists(st.sampled_from(
    ["the", "and", "der", "und", "yang", "dan", "xq", "", "THE", "Und"]),
    max_size=24))
@settings(max_examples=100, deadline=None)
def test_langid_batch_matches_scalar(word_lists):
    from deed_ocr_ray.pipelines.textops import LangId

    # build a batch of several docs from slices of the drawn pool
    docs = [" ".join(word_lists[i::3]) for i in range(3)]
    li = LangId()
    t = pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs, type=pa.string()),
        "lang": pa.array(["en"] * len(docs), type=pa.string()),
    })
    out = li(t)
    assert out["pred_lang"].to_pylist() == [li.predict(x) for x in docs]


def test_cluster_keep_best_join_path_matches_broadcast(ray_session):
    from deed_ocr_ray.pipelines.dedup import q_cluster_keep_best

    SF = "/root/testdata/sf0.01"
    a = q_cluster_keep_best(SF).to_pandas().sort_values(
        ["rep_id", "doc_id"]).reset_index(drop=True)
    b = q_cluster_keep_best(SF, cutoff=0).to_pandas().sort_values(
        ["rep_id", "doc_id"]).reset_index(drop=True)
    assert a.equals(b[a.columns])


def test_fuzzy_pair_cap_overflow_sentinel(ray_session):
    """A host whose length-filtered candidate-pair count exceeds
    max_pairs must emit the overflow sentinel, not scan."""
    from deed_ocr_ray.pipelines.dedup import q_fuzzy_url_pairs

    out = q_fuzzy_url_pairs("/root/testdata/sf0.001", max_pairs=0).to_pandas()
    assert (out["dist"] == -1).all() and (out["url_b"] == "OVERFLOW").all()
    assert len(out) > 0


def test_read_pq_partitioned_and_missing_column_fallback(ray_session, tmp_path):
    """read_pq must fall back to a plain read when the requested
    columns include a hive-partition column absent from the footer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from deed_ocr_ray.sources.pages import read_pq

    d = tmp_path / "part_id=0"
    d.mkdir()
    pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}),
                   str(d / "f.parquet"))
    ds = read_pq(str(tmp_path), columns=["a", "part_id"])
    got = ds.to_pandas().sort_values("a").reset_index(drop=True)
    assert list(got["a"]) == [1, 2]
    assert set(got.columns) == {"a", "part_id"}
