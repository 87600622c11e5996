"""The k-Combo baseline algorithm (Section 3.1).

Iterates over all k-combinations of the n rank-ordered tuples (in
lexicographic order, excluding those that violate mutual-exclusion
rules) and computes, for each, its total score and the probability that
it is the set of the first k existing tuples.  Cost O(n^k), as the
paper states; Figure 10 shows its exponential growth against the main
algorithm.

The probability of a combination whose lowest-ranked member sits at
position ``e`` is

    product(p_t for chosen t)
    * product(1 - m_g(e) for every ME group g with no chosen member)

where ``m_g(e)`` is the group's probability mass ranked above ``e``.
Groups that did contribute a chosen tuple need no absence factor (their
other members are excluded by the ME rule itself).  We precompute the
all-groups product per ``e`` once — O(n) incremental sweep — and divide
out the ≤ k factors of the chosen groups per combination, giving O(k)
work per combination instead of O(#groups).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from repro.core.coalesce import reduce_lines
from repro.core.dp import DEFAULT_MAX_LINES
from repro.core.pmf import ScorePMF
from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable

#: A factor this close to zero is treated as exactly zero (the group is
#: saturated above the cutoff, so "no member exists" is impossible).
_ZERO = 1e-12

#: Internal buffer bound, as in state_expansion.
_BUFFER_FACTOR = 8


class _GroupMass:
    """Prefix masses of one ME group, queryable at any cutoff."""

    __slots__ = ("positions", "prefix")

    def __init__(self, positions: list[int], probs: list[float]) -> None:
        self.positions = positions
        self.prefix = [0.0]
        running = 0.0
        for p in probs:
            running += p
            self.prefix.append(running)

    def mass_above(self, cutoff: int) -> float:
        """Total probability of members at positions < ``cutoff``."""
        index = bisect_left(self.positions, cutoff)
        return self.prefix[index]


def k_combo_distribution(
    scored: ScoredTable,
    k: int,
    *,
    max_lines: int = DEFAULT_MAX_LINES,
) -> ScorePMF:
    """Top-k score distribution by exhaustive combination enumeration.

    Exact (up to coalescing); exponential in k.  See module docstring.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    n = len(scored)
    if n < k:
        return ScorePMF(())

    # Positional columns, hoisted once from the ScoredTable's cached
    # arrays: the enumeration loop below touches them per combination.
    score_at = scored.score_column.tolist()
    prob_at = scored.prob_column.tolist()

    group_mass: dict[int, _GroupMass] = {}
    for group in scored.groups():
        positions = list(scored.group_positions(group))
        group_mass[group] = _GroupMass(
            positions, [prob_at[pos] for pos in positions]
        )

    # Per cutoff e: product of (1 - m_g(e)) over groups with a nonzero
    # factor, plus the set of zero-factor groups.  Built incrementally:
    # moving the cutoff one right multiplies/divides single factors.
    prod_nonzero = [1.0] * (n + 1)
    zero_groups: list[frozenset] = [frozenset()] * (n + 1)
    running_prod = 1.0
    running_zero: set[int] = set()
    for e in range(1, n + 1):
        item = scored[e - 1]
        gm = group_mass[item.group]
        old_factor = 1.0 - gm.mass_above(e - 1)
        new_factor = 1.0 - gm.mass_above(e)
        if old_factor > _ZERO:
            running_prod /= old_factor
        else:
            running_zero.discard(item.group)
        if new_factor > _ZERO:
            running_prod *= new_factor
        else:
            running_zero.add(item.group)
        prod_nonzero[e] = running_prod
        zero_groups[e] = frozenset(running_zero)

    emitted: list[list] = []

    for combo in itertools.combinations(range(n), k):
        chosen_groups = set()
        # Division order below must not depend on gid *values* (set
        # iteration order would): positional order keeps the float
        # result identical under any relabeling of the same partition.
        chosen_order = []
        valid = True
        membership = 1.0
        for pos in combo:
            item = scored[pos]
            if item.group in chosen_groups:
                valid = False
                break
            chosen_groups.add(item.group)
            chosen_order.append(item.group)
            membership *= prob_at[pos]
        if not valid:
            continue
        e = combo[-1]
        # Every zero-factor group must have contributed a chosen tuple,
        # otherwise "all its above-cutoff members absent" is impossible.
        if not zero_groups[e] <= chosen_groups:
            continue
        prob = membership * prod_nonzero[e]
        for group in chosen_order:
            if group in zero_groups[e]:
                continue
            factor = 1.0 - group_mass[group].mass_above(e)
            if factor > _ZERO:
                prob /= factor
        if prob <= 0.0:
            continue
        score = sum(score_at[pos] for pos in combo)
        vector = tuple(scored[pos].tid for pos in combo)
        emitted.append([score, prob, vector])
        if len(emitted) > _BUFFER_FACTOR * max_lines:
            reduce_lines(emitted, max_lines)
    reduce_lines(emitted, max_lines)
    return ScorePMF((s, p, v) for s, p, v in emitted)
