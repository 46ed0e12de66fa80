"""Provider-ensemble consensus extraction (J2/A6).

Re-expresses the reference's ``LLMEnsemble.extract_with_consensus``
(deed_ocr/models/vision_llm.py:181-217): run every provider, absorb
individual provider failures (log-and-continue), fail the row only if
ALL providers failed, and return the highest-confidence result — the
reference's ``max()`` keeps the FIRST maximal element, i.e. ties break
by provider order.

Ray-Data shape: the provider list is stage state (the A2
engine-instance pattern, vision_llm.py:40-49 model loaded per extractor
instance), consensus is an in-batch reduction, and the stage is one
task ``map_batches`` over the documents table — k providers never
multiply the shuffle, because the fan-out/fan-in happens inside the
call.

Providers here are deterministic scoring functions (the environment has
no model weights), chosen so the whole operator is SQL-expressible and
oracle-checked — the ensemble/consensus MACHINERY (absorb, all-failed,
first-max) is exactly the reference's.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import pyarrow as pa
import ray.data
from ..sources.pages import read_pq

# provider: text -> (extracted_candidate, confidence). Total functions;
# failure absorption is exercised via inject_failure in tests.
Provider = Tuple[str, Callable[[str], Tuple[str, float]]]


def _p_head(text: str) -> Tuple[str, float]:
    """First-80-chars candidate; confident only on long docs."""
    return text[:80], 0.6 if len(text) >= 80 else 0.3


def _p_keyword(text: str) -> Tuple[str, float]:
    """Keyword-gated candidate (the 'domain prompt' provider)."""
    return text[:120], 0.8 if "reserve" in text else 0.2


def _p_tail(text: str) -> Tuple[str, float]:
    """Last-80-chars candidate; constant mid confidence."""
    return text[-80:], 0.5


DEFAULT_PROVIDERS: List[Provider] = [
    ("head", _p_head),
    ("keyword", _p_keyword),
    ("tail", _p_tail),
]


class EnsembleScorer:
    """Callable stage holding k providers; per row, run all,
    absorb per-provider exceptions, keep the first-max-confidence
    result (vision_llm.py:199-217 semantics). A row where every
    provider failed gets status='error' (the reference raises
    ``ValueError('All LLM providers failed')``; rows absorb it)."""

    def __init__(self, providers: Optional[List[Provider]] = None) -> None:
        self.providers = providers if providers is not None else DEFAULT_PROVIDERS

    def __call__(self, t: pa.Table) -> pa.Table:
        winners: List[str] = []
        confs: List[float] = []
        cands: List[str] = []
        statuses: List[str] = []
        for text in t["text"].to_pylist():
            best: Optional[Tuple[str, str, float]] = None
            for name, fn in self.providers:
                try:
                    cand, conf = fn(text)
                except Exception:
                    continue  # provider failed: log-and-continue analogue
                if best is None or conf > best[2]:  # strict >: first max wins
                    best = (name, cand, conf)
            if best is None:
                winners.append("")
                cands.append("")
                confs.append(0.0)
                statuses.append("error")  # "All LLM providers failed"
            else:
                winners.append(best[0])
                cands.append(best[1])
                confs.append(best[2])
                statuses.append("ok")
        return pa.table({
            "doc_id": t["doc_id"],
            "winner": pa.array(winners, type=pa.string()),
            "confidence": pa.array(confs, type=pa.float64()),
            "extracted": pa.array(cands, type=pa.string()),
            "status": pa.array(statuses, type=pa.string()),
        })


def q_ensemble_extract(sf_dir: str) -> "ray.data.Dataset":
    """Ensemble-consensus extraction over documents.
    Columns: doc_id, winner, confidence, extracted, status."""
    ds = read_pq(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(EnsembleScorer(), batch_format="pyarrow")


# DuckDB-equivalent of the deterministic provider set + first-max-wins
# consensus. substr/length are character-based in both engines; the
# CASE chain (head >= keyword >= tail) is exactly "first maximal wins".
Q_ENSEMBLE_SQL = """
WITH scored AS (
    SELECT doc_id,
        substr(text, 1, 80)  AS cand_head,
        CASE WHEN length(text) >= 80 THEN 0.6 ELSE 0.3 END AS conf_head,
        substr(text, 1, 120) AS cand_kw,
        CASE WHEN text LIKE '%reserve%' THEN 0.8 ELSE 0.2 END AS conf_kw,
        substr(text, greatest(length(text) - 79, 1)) AS cand_tail,
        0.5 AS conf_tail
    FROM documents
)
SELECT doc_id,
    CASE WHEN conf_head >= conf_kw AND conf_head >= conf_tail THEN 'head'
         WHEN conf_kw >= conf_tail THEN 'keyword'
         ELSE 'tail' END AS winner,
    CASE WHEN conf_head >= conf_kw AND conf_head >= conf_tail THEN conf_head
         WHEN conf_kw >= conf_tail THEN conf_kw
         ELSE conf_tail END AS confidence,
    CASE WHEN conf_head >= conf_kw AND conf_head >= conf_tail THEN cand_head
         WHEN conf_kw >= conf_tail THEN cand_kw
         ELSE cand_tail END AS extracted,
    'ok' AS status
FROM scored
"""
