"""U-Topk (Soliman, Ilyas & Chang): the most probable top-k vector.

The answer is the k-tuple vector maximizing the probability of being
the top-k across all possible worlds.  We implement the optimal
best-first search over rank-order prefixes: a state is a prefix of the
canonical order together with the subset of its tuples chosen so far;
extending a state multiplies its probability by conditional *hazard*
factors (see :mod:`repro.core.state_expansion`), which are at most 1,
so probabilities decrease monotonically along a branch and the first
completed state popped from the max-heap is optimal (A* with a trivial
admissible heuristic).

Ties: the paper notes U-Topk is undefined under non-injective scoring;
we resolve ties with the same canonical ``(score desc, prob desc)``
order as everything else, i.e. the returned vector maximizes the
probability of being the *first-k-existing* configuration.  For
injective scores this coincides with the original definition.
"""

from __future__ import annotations

import heapq
from typing import Any, NamedTuple

from repro.core.distribution import (
    DEFAULT_P_TAU,
    ScorerLike,
    prepare_scored_prefix,
)
from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable


class UTopkResult(NamedTuple):
    """The U-Topk answer.

    :ivar vector: tids of the most probable top-k vector, rank order.
    :ivar probability: its probability of being the top-k.
    :ivar total_score: its total score (used by the typicality
        comparisons of Section 5).
    """

    vector: tuple[Any, ...]
    probability: float
    total_score: float


def u_topk(
    table: UncertainTable,
    scorer: ScorerLike,
    k: int,
    *,
    p_tau: float = DEFAULT_P_TAU,
    depth: int | None = None,
    state_limit: int = 2_000_000,
) -> UTopkResult | None:
    """Compute the U-Topk answer of ``table`` under ``scorer``.

    :param p_tau: scan-depth threshold (Theorem 2 applies to U-Topk
        too: a vector needs probability mass to win).
    :param depth: explicit scan-depth override.
    :param state_limit: safety valve on the number of expanded states;
        exceeded only on adversarial inputs where every vector has
        near-zero probability.
    :returns: the result, or ``None`` when no complete k-vector has
        positive probability within the scanned prefix.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    scored = prepare_scored_prefix(table, scorer, k, p_tau=p_tau, depth=depth)
    return u_topk_scored(scored, k, state_limit=state_limit)


def u_topk_scored(
    scored: ScoredTable,
    k: int,
    *,
    state_limit: int = 2_000_000,
) -> UTopkResult | None:
    """U-Topk over an already rank-ordered (and truncated) input."""
    n = len(scored)
    if n < k:
        return None
    # Hazard factors per position (see state_expansion): conditional on
    # "no group mate above was chosen / all unchosen ones absent".  A
    # state's chosen multi-member groups are an int mask, one bit per
    # group; ``bit[pos]`` is 0 for a singleton group.
    take = [0.0] * n
    skip = [0.0] * n
    bit = [0] * n
    mass_above: dict[int, float] = {}
    bits: dict[int, int] = {}
    groups = scored.group_column.tolist()
    for pos, (group, prob) in enumerate(zip(groups, scored.prob_column.tolist())):
        if len(scored.group_positions(group)) > 1:
            bit[pos] = bits.setdefault(group, 1 << len(bits))
            before = mass_above.get(group, 0.0)
            mass_above[group] = before + prob
            denom = 1.0 - before
            take[pos] = prob / denom
            skip[pos] = max(0.0, (denom - prob) / denom)
        else:
            take[pos] = prob
            skip[pos] = 1.0 - prob

    # Heap entries: (-prob, tiebreak, pos, count, chosen, group mask);
    # the tiebreak numbers pushes in order.
    hazards = list(zip(take, skip, bit))
    push, pop = heapq.heappush, heapq.heappop
    heap: list[tuple] = [(-1.0, 0, 0, 0, (), 0)]
    pushed = 0
    expanded = 0
    while heap:
        neg_prob, _, pos, count, chosen, mask = pop(heap)
        prob = -neg_prob
        if prob <= 0.0:
            break
        if count == k:
            vector = tuple(scored[p].tid for p in chosen)
            score = sum(scored[p].score for p in chosen)
            return UTopkResult(vector, prob, score)
        expanded += 1
        if expanded > state_limit:
            raise AlgorithmError(
                f"u_topk exceeded the state limit of {state_limit}; "
                "raise state_limit or lower the scan depth"
            )
        if pos >= n or n - pos < k - count:
            continue
        take_p, skip_p, group_bit = hazards[pos]
        consumed = mask & group_bit
        if not consumed and take_p > 0.0:
            pushed += 1
            push(
                heap,
                (
                    -(prob * take_p),
                    pushed,
                    pos + 1,
                    count + 1,
                    chosen + (pos,),
                    mask | group_bit,
                ),
            )
        skip_prob = prob if consumed else prob * skip_p
        if skip_prob > 0.0:
            pushed += 1
            push(heap, (-skip_prob, pushed, pos + 1, count, chosen, mask))
    return None


def vector_top_k_probability(
    scored: ScoredTable, positions: tuple[int, ...]
) -> float:
    """Exact probability that the tuples at ``positions`` (ascending)
    form the first-k-existing configuration.

    Closed form: product of the chosen tuples' probabilities times, for
    every ME group without a chosen member, ``1 - (group mass ranked
    above the last chosen position)``.  Used by tests as an independent
    check of the search's state probabilities.
    """
    if not positions:
        raise AlgorithmError("empty vector")
    cutoff = positions[-1]
    chosen_groups: set[int] = set()
    prob = 1.0
    for pos in positions:
        item = scored[pos]
        if item.group in chosen_groups:
            return 0.0
        chosen_groups.add(item.group)
        prob *= item.prob
    masses: dict[int, float] = {}
    for pos in range(cutoff):
        item = scored[pos]
        if item.group in chosen_groups:
            continue
        masses[item.group] = masses.get(item.group, 0.0) + item.prob
    for mass in masses.values():
        prob *= max(0.0, 1.0 - mass)
    return prob
