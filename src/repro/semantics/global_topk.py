"""Global-Topk (Zhang & Chomicki, DBRank 2008).

The answer is the k tuples with the *highest probability of being in
the top-k* across possible worlds — a category-(2) semantics with a
fixed answer size.  The paper's related-work section highlights that
Zhang & Chomicki list score sensitivity and non-injective scoring as
open problems, both of which this library's core semantics addresses.
"""

from __future__ import annotations

from typing import Any

from repro.core.distribution import (
    DEFAULT_P_TAU,
    ScorerLike,
    prepare_scored_prefix,
)
from repro.exceptions import AlgorithmError
from repro.semantics.marginals import top_k_probabilities
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable


def global_topk(
    table: UncertainTable,
    scorer: ScorerLike,
    k: int,
    *,
    p_tau: float = DEFAULT_P_TAU,
    depth: int | None = None,
) -> list[tuple[Any, float]]:
    """The k tuples with the highest top-k probability.

    :returns: ``(tid, top-k probability)`` pairs, probability
        descending; at most k entries.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    scored = prepare_scored_prefix(table, scorer, k, p_tau=p_tau, depth=depth)
    return global_topk_scored(scored, k)


def global_topk_scored(
    scored: ScoredTable, k: int
) -> list[tuple[Any, float]]:
    """Global-Topk over an already rank-ordered (truncated) input."""
    probs = list(top_k_probabilities(scored, k).items())
    probs.sort(key=lambda pair: -pair[1])
    return probs[:k]
