"""PT-k (Hua, Pei, Zhang & Lin, SIGMOD 2008): probabilistic threshold
top-k.

The answer is the set of all tuples whose probability of being in the
top-k (across possible worlds) is at least a user threshold ``p``.
A category-(2), marginal semantics: the answer size varies with the
threshold and members need not be mutually compatible.
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


def pt_k(
    table: UncertainTable,
    scorer: ScorerLike,
    k: int,
    threshold: float,
    *,
    p_tau: float = DEFAULT_P_TAU,
    depth: int | None = None,
) -> list[tuple[Any, float]]:
    """All tuples with top-k probability >= ``threshold``.

    :returns: ``(tid, top-k probability)`` pairs, probability
        descending (ties broken by rank order).
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    if not 0.0 < threshold <= 1.0:
        raise AlgorithmError(
            f"threshold must be in (0, 1], got {threshold!r}"
        )
    scored = prepare_scored_prefix(table, scorer, k, p_tau=p_tau, depth=depth)
    return pt_k_scored(scored, k, threshold)


def pt_k_scored(
    scored: ScoredTable, k: int, threshold: float
) -> list[tuple[Any, float]]:
    """PT-k over an already rank-ordered (truncated) input."""
    answers = [
        (tid, prob)
        for tid, prob in top_k_probabilities(scored, k).items()
        if prob >= threshold
    ]
    answers.sort(key=lambda pair: -pair[1])
    return answers
