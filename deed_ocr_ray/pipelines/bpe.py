"""Corpus-scale BPE vocabulary training + tokenization.

The byte-pair-encoding pipeline every LLM corpus build runs (Sennrich
et al. 2016, the GPT-2/SentencePiece training shape), expressed
Ray-Data-first:

* the CORPUS-SCALE part — word counting — is one keyed count (the
  `top_terms` shape: its combiner sends distinct words per block
  across the shuffle, never tokens);
* the merge loop runs on the driver over the compact top-``max_words``
  (word, count) vocabulary — the kmeans-centroid pattern: BPE training
  is inherently sequential over merge steps, and the standard
  implementations all train on exactly this word-frequency dict. The
  truncation to ``max_words`` is the documented (and logged) scale
  knob: at 100 TB the head of the Zipfian word distribution carries
  almost all pair mass, and ``max_words`` rows on the driver is O(MB);
* tokenization back over the corpus is a broadcast of the learned
  merge ranks (``ray.put`` once) + a vectorized-per-doc task
  ``map_batches`` applying merges greedily by rank — the standard BPE
  encode.

Deterministic end to end: pair ties break lexicographically, word
splits are pure whitespace (`regexp_split_to_array(trim(text),'\\s+')`
convention), no RNG anywhere. (No SQL oracle: iterative algorithm —
rows-only in the driver gate; exactness vs a scalar reference
implementation is asserted in tests.)
"""

from __future__ import annotations

import collections
from typing import Dict, List, Tuple

import pyarrow as pa
import ray
import ray.data
from ..sources.pages import read_pq
from .exchange import keyed_aggregate, top_k

END = "</w>"  # end-of-word marker (Sennrich convention)

BPE_MERGES = 200
BPE_MAX_WORDS = 5000


def _word_symbols(word: str) -> Tuple[str, ...]:
    return tuple(word) + (END,)


def bpe_train_on_counts(word_counts: List[Tuple[str, int]],
                        n_merges: int) -> List[Tuple[str, str]]:
    """Classic BPE merge loop over a (word, count) list. Deterministic:
    the most frequent adjacent symbol pair wins each round, ties broken
    by lexicographic pair order; stops early when no pair repeats."""
    vocab: Dict[Tuple[str, ...], int] = {
        _word_symbols(w): c for w, c in word_counts
    }
    merges: List[Tuple[str, str]] = []
    for _ in range(n_merges):
        pairs: collections.Counter = collections.Counter()
        for syms, cnt in vocab.items():
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += cnt
        if not pairs:
            break
        best_cnt = max(pairs.values())
        if best_cnt < 2:
            break
        best = min(p for p, c in pairs.items() if c == best_cnt)
        merges.append(best)
        merged = best[0] + best[1]
        new_vocab: Dict[Tuple[str, ...], int] = {}
        for syms, cnt in vocab.items():
            out: List[str] = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == best[0] and syms[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + cnt
        vocab = new_vocab
    return merges


def bpe_encode_word(word: str, ranks: Dict[Tuple[str, str], int]) -> List[str]:
    """Greedy lowest-rank-first merge application (GPT-2 encode shape)."""
    syms: List[str] = list(_word_symbols(word))
    while len(syms) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


def distributed_word_counts(sf_dir: str) -> "ray.data.Dataset":
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["text"])

    def words(t: pa.Table) -> pa.Table:
        return pa.table({"word": pa.array(
            [w for x in t["text"].to_pylist() for w in (x or "").split()],
            type=pa.string())})

    return keyed_aggregate(ds.map_batches(words, batch_format="pyarrow"),
                           "word", {"cnt": (None, "count_all")})


def bpe_fit(sf_dir: str, n_merges: int = BPE_MERGES,
            max_words: int = BPE_MAX_WORDS) -> List[Tuple[str, str]]:
    """Distributed word count → top-``max_words`` head
    (``exchange.top_k``) → driver merge loop. Only ``max_words`` slim
    rows ever reach the driver."""
    head = top_k(distributed_word_counts(sf_dir), ["cnt", "word"], max_words,
                 descending=[True, False]).take_all()
    return bpe_train_on_counts([(r["word"], r["cnt"]) for r in head], n_merges)


def q_bpe_merges(sf_dir: str) -> "ray.data.Dataset":
    """The learned merge table itself — (rank, left, right), the
    artifact a tokenizer ships. Columns: rank, left, right."""
    merges = bpe_fit(sf_dir)
    return ray.data.from_arrow(pa.table({
        "rank": pa.array(range(len(merges)), type=pa.int64()),
        "left": pa.array([m[0] for m in merges], type=pa.string()),
        "right": pa.array([m[1] for m in merges], type=pa.string()),
    }))


# per-WORKER word→token-count caches, keyed by ranks ref (worker
# processes are reused across tasks, so the Zipf cache warms exactly
# like the old per-actor one — a closure-held dict would be re-pickled
# empty into every task)
_WORD_CACHES: Dict[str, Dict[str, int]] = {}


class BpeTokenizer:
    """Encode stage: merge ranks deserialized once per WORKER
    (broadcast.cached_get), applied per word with a per-worker
    word→tokens cache (Zipf makes the hit rate high). Used as a
    task-pool callable INSTANCE — the short-stage actor pool it
    replaced paid ~3 s of startup (NOTES.md)."""

    def __init__(self, ranks_ref) -> None:
        self._ref = ranks_ref

    def _state(self) -> Tuple[Dict[Tuple[str, str], int], Dict[str, int]]:
        if isinstance(self._ref, ray.ObjectRef):
            from .broadcast import cached_get

            ranks = cached_get(self._ref)
            cache = _WORD_CACHES.setdefault(self._ref.hex(), {})
        else:  # direct dict (tests)
            ranks, cache = self._ref, _WORD_CACHES.setdefault("direct", {})
        return ranks, cache

    def n_tokens(self, text: str, ranks=None, cache=None) -> int:
        if ranks is None or cache is None:
            ranks, cache = self._state()
        total = 0
        for w in (text or "").split():
            n = cache.get(w)
            if n is None:
                n = len(bpe_encode_word(w, ranks))
                cache[w] = n
            total += n
        return total

    def __call__(self, t: pa.Table) -> pa.Table:
        ranks, cache = self._state()
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bpe_tokens": pa.array(
                [self.n_tokens(x, ranks, cache) for x in t["text"].to_pylist()],
                type=pa.int64()),
        })


def q_bpe_tokenize(sf_dir: str) -> "ray.data.Dataset":
    """Train BPE on the corpus, then tokenize the corpus with it: the
    end-to-end vocabulary pipeline. Columns: doc_id, n_bpe_tokens."""
    merges = bpe_fit(sf_dir)
    ranks = {m: i for i, m in enumerate(merges)}
    ref = ray.put(ranks)

    ds = read_pq(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(BpeTokenizer(ref), batch_format="pyarrow")
