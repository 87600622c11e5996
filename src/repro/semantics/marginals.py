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

from typing import Any

import numpy as np

from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable


def _group_masses_above(
    scored: ScoredTable, pos: int, exclude_group: int
) -> list[float]:
    """Per-group probability of contributing one tuple above ``pos``.

    Groups without members above ``pos`` contribute nothing and are
    omitted; ``exclude_group`` (the target tuple's own group) is always
    omitted because its above-``pos`` members cannot coexist with the
    target tuple.
    """
    masses: dict[int, float] = {}
    groups = scored.group_column[:pos].tolist()
    for group, prob in zip(groups, scored.prob_column[:pos].tolist()):
        if group != exclude_group:
            masses[group] = masses.get(group, 0.0) + prob
    return [mass for mass in masses.values() if mass > 0.0]


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
    masses = _group_masses_above(scored, pos, scored[pos].group)
    dist = [1.0] + [0.0] * max_count
    for q in masses:
        # dist'[i] = dist[i] * (1-q) + dist[i-1] * q, truncated (plain
        # floats: the same IEEE ops as the array form, without numpy's
        # per-call overhead on a k-entry array).
        keep = 1.0 - q
        dist = [dist[0] * keep] + [
            above * keep + below * q for above, below in zip(dist[1:], dist)
        ]
    return np.array(dist)


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


def top_k_probabilities(
    scored: ScoredTable, k: int
) -> dict[Any, float]:
    """Top-k probability of every tuple, keyed by tid.

    O(n^2 k); fine for the scan-depth-truncated prefixes the library
    works with.
    """
    return {
        scored[pos].tid: top_k_probability(scored, pos, k)
        for pos in range(len(scored))
    }
