"""U-kRanks (Soliman, Ilyas & Chang): most probable tuple per rank.

For each rank position i = 1..k, the answer is the tuple maximizing
P(t occupies rank i in a possible world).  As the paper points out in
Section 1, the answers are marginal: the same tuple may win several
ranks and the returned tuples need not be able to co-exist — this is
exactly the property that motivates the paper's category-(1)
semantics.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.core.distribution import (
    DEFAULT_P_TAU,
    ScorerLike,
    prepare_scored_prefix,
)
from repro.exceptions import AlgorithmError
from repro.semantics.marginals import rank_distributions
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable


class URankAnswer(NamedTuple):
    """The winner of one rank position.

    :ivar rank: rank position (1-based).
    :ivar tid: the most probable tuple at that rank.
    :ivar probability: P(tuple occupies the rank).
    """

    rank: int
    tid: Any
    probability: float


def u_kranks(
    table: UncertainTable,
    scorer: ScorerLike,
    k: int,
    *,
    p_tau: float = DEFAULT_P_TAU,
    depth: int | None = None,
) -> list[URankAnswer]:
    """The U-kRanks answers for ranks 1..k.

    >>> from repro.datasets.soldier import soldier_table
    >>> answers = u_kranks(soldier_table(), "score", 2, p_tau=0)
    >>> [a.rank for a in answers]
    [1, 2]
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    scored = prepare_scored_prefix(table, scorer, k, p_tau=p_tau, depth=depth)
    return u_kranks_scored(scored, k)


def u_kranks_scored(scored: ScoredTable, k: int) -> list[URankAnswer]:
    """U-kRanks over an already rank-ordered (truncated) input."""
    best_prob = [0.0] * k
    best_tid: list[Any] = [None] * k
    for tid, ranks in zip(scored.tid_column, rank_distributions(scored, k)):
        for i in range(k):
            if ranks[i] > best_prob[i]:
                best_prob[i] = float(ranks[i])
                best_tid[i] = tid
    return [
        URankAnswer(i + 1, best_tid[i], best_prob[i])
        for i in range(k)
        if best_tid[i] is not None
    ]
