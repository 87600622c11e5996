"""Rank-marginal engine shared by the category-(2) semantics.

For a tuple ``t`` at position ``pos`` of the canonical rank order, the
probability that exactly ``i`` higher-ranked tuples exist decides both
"t is at rank i+1" (U-kRanks) and "t is in the top-k" (PT-k and
Global-Topk).  Under the ME model the count of existing higher-ranked
tuples is a sum of independent group indicators: each ME group
contributes 1 with probability equal to its mass above ``pos``
(excluding ``t``'s own group, whose above-``pos`` members cannot
coexist with ``t``) — a Poisson-binomial distribution computed by a
standard O(n·k) dynamic program per tuple.

Ties are resolved by the canonical ``(score desc, prob desc)`` order:
"higher-ranked" means earlier in that order, the same convention under
which the Section-3 algorithms operate (see DESIGN.md).
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator

import numpy as np

from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable


def _masses_above(scored: ScoredTable) -> Iterator[tuple[int, dict[int, float]]]:
    """Each position's group and the group masses above it, in rank order.

    The masses map each group with a member above the position to those
    members' summed probability (added left to right), in first-member
    order.  It is one dict, updated after each position is yielded:
    read it before advancing.
    """
    masses: dict[int, float] = {}
    groups = scored.group_column.tolist()
    for group, prob in zip(groups, scored.prob_column.tolist()):
        yield group, masses
        masses[group] = masses.get(group, 0.0) + prob


def _counts(masses: dict[int, float], own: int, max_count: int) -> np.ndarray:
    """P(exactly i of the groups in ``masses`` but ``own`` contribute a
    tuple), for i = 0..max_count.

    ``own`` (the target tuple's group) is left out because its members
    above the target cannot coexist with it, and so is every group of
    mass 0.
    """
    dist = [1.0] + [0.0] * max_count
    for group, q in masses.items():
        if group == own or not q > 0.0:
            continue
        # dist'[i] = dist[i] * (1-q) + dist[i-1] * q, truncated (plain
        # floats: the same IEEE ops as the array form, without numpy's
        # per-call overhead on a k-entry array).
        keep = 1.0 - q
        dist = [dist[0] * keep] + [
            above * keep + below * q for above, below in zip(dist[1:], dist)
        ]
    return np.array(dist)


def higher_count_distribution(
    scored: ScoredTable, pos: int, max_count: int
) -> np.ndarray:
    """P(exactly i higher-ranked tuples exist), for i = 0..max_count.

    The ``max_count`` entry absorbs nothing — counts above it are
    simply not tracked (they never matter: the callers only need
    counts below k).

    :returns: array of length ``max_count + 1``.
    """
    if max_count < 0:
        raise AlgorithmError(f"max_count must be >= 0, got {max_count}")
    own = scored[pos].group
    _, masses = next(islice(_masses_above(scored), pos, None))
    return _counts(masses, own, max_count)


def rank_distribution(
    scored: ScoredTable, pos: int, k: int
) -> np.ndarray:
    """P(tuple at ``pos`` occupies rank i), for ranks i = 1..k.

    "Occupies rank i" means the tuple exists and exactly ``i - 1``
    higher-ranked tuples exist.

    :returns: array of length ``k`` (index 0 is rank 1).
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    item = scored[pos]
    counts = higher_count_distribution(scored, pos, k - 1)
    return item.prob * counts


def top_k_probability(scored: ScoredTable, pos: int, k: int) -> float:
    """P(tuple at ``pos`` is among the top-k) = sum of its rank probs."""
    return float(rank_distribution(scored, pos, k).sum())


def rank_distributions(scored: ScoredTable, k: int) -> list[np.ndarray]:
    """:func:`rank_distribution` of every position, in rank order.

    One pass keeps the group masses above the current position, so the
    whole table costs what its rank rows cost.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    return [
        prob * _counts(masses, group, k - 1)
        for prob, (group, masses) in zip(
            scored.prob_column.tolist(), _masses_above(scored)
        )
    ]


def top_k_probabilities(
    scored: ScoredTable, k: int
) -> dict[Any, float]:
    """Top-k probability of every tuple, keyed by tid.

    O(n^2 k); fine for the scan-depth-truncated prefixes the library
    works with.
    """
    return {
        tid: float(ranks.sum())
        for tid, ranks in zip(scored.tid_column, rank_distributions(scored, k))
    }
