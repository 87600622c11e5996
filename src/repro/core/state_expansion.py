"""The StateExpansion baseline algorithm (Section 3.1, Figure 4).

Tuples are scanned in rank order; every live state branches into
"tuple exists" and "tuple does not exist".  States that accumulate k
tuples emit their (score, probability) into the output distribution;
states whose probability drops to ``p_tau`` or below are discarded.
The state space is exponential in the scan depth, which is exactly the
behaviour Figure 10 of the paper demonstrates.

Mutual exclusion is handled exactly (the paper runs StateExpansion on
the CarTel data, which has one ME group per road segment): each state
tracks which multi-member groups already contributed a tuple, and
branch probabilities use conditional *hazard* factors

    take:  p_t / (1 - S_before)      skip:  (1 - S_upto) / (1 - S_before)

where ``S_before``/``S_upto`` are the group's probability mass strictly
above / including the tuple.  The product of hazards along a state's
history equals the exact joint probability of that history, so the
pruning threshold and the emitted masses are exact.
"""

from __future__ import annotations

import gc

from repro.core.coalesce import reduce_lines
from repro.core.dp import DEFAULT_MAX_LINES
from repro.core.pmf import ScorePMF
from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable

#: Internal buffer bound: the emitted-line list is sorted/merged/
#: coalesced whenever it grows past this multiple of ``max_lines``.
_BUFFER_FACTOR = 8


def _cons_to_vector(cell) -> tuple:
    """Unwind a cons-list ``(tid, parent)``, newest tid first."""
    out = []
    while cell is not None:
        out.append(cell[0])
        cell = cell[1]
    return tuple(out)


class _State:
    """One partial top-k prefix.

    :ivar prob: exact probability of the branch history.
    :ivar score: total score of the chosen tuples.
    :ivar count: number of chosen tuples.
    :ivar groups: frozenset of multi-member group ids already consumed.
    :ivar vector: cons-list ``(tid, parent)`` of chosen tids, the
        newest (lowest-ranked) pick outermost; unwound at emission.
    """

    __slots__ = ("prob", "score", "count", "groups", "vector")

    def __init__(self, prob, score, count, groups, vector):
        self.prob = prob
        self.score = score
        self.count = count
        self.groups = groups
        self.vector = vector


def state_expansion_distribution(
    scored: ScoredTable,
    k: int,
    *,
    p_tau: float = 0.0,
    max_lines: int = DEFAULT_MAX_LINES,
) -> ScorePMF:
    """Top-k score distribution via exhaustive state expansion.

    :param scored: canonical rank-ordered input (already truncated to
        the desired scan depth).
    :param k: vector size (>= 1).
    :param p_tau: states (and hence vectors) with probability <= this
        threshold are dropped, as in Figure 4.  ``0`` keeps everything
        (exact, exponential).
    :param max_lines: coalescing budget for the output distribution.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    if p_tau < 0.0:
        raise AlgorithmError(f"p_tau must be >= 0, got {p_tau!r}")
    multi_groups = {
        item.group
        for item in scored
        if len(scored.group_positions(item.group)) > 1
    }
    # Probability mass of each multi-member group strictly above each
    # of its member positions, in scan order.
    mass_above: dict[int, float] = {}

    states: list[_State] = [_State(1.0, 0.0, 0, frozenset(), None)]
    emitted: list[list] = []

    # The expansion allocates millions of short-lived container objects;
    # with a large surrounding heap CPython's generational collector
    # re-scans it on every threshold crossing, slowing the loop by more
    # than an order of magnitude.  None of the objects here form cycles,
    # so collection is safely paused for the duration.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _expand(scored, k, p_tau, max_lines, states, emitted,
                multi_groups, mass_above)
    finally:
        if gc_was_enabled:
            gc.enable()
    reduce_lines(emitted, max_lines)
    # States prepend the newest (lowest-ranked) pick, so the unwound
    # cons-list is in reverse rank order; flip it for presentation.
    return ScorePMF(
        (score, prob, tuple(reversed(_cons_to_vector(vector))))
        for score, prob, vector in emitted
    )


def _expand(
    scored: ScoredTable,
    k: int,
    p_tau: float,
    max_lines: int,
    states: list[_State],
    emitted: list[list],
    multi_groups: set,
    mass_above: dict[int, float],
) -> None:
    """The Figure-4 expansion loop (see the caller for GC notes)."""
    n = len(scored)
    for pos in range(n):
        if not states:
            break
        item = scored[pos]
        is_multi = item.group in multi_groups
        if is_multi:
            before = mass_above.get(item.group, 0.0)
            mass_above[item.group] = before + item.prob
            denom = 1.0 - before
            take_factor = item.prob / denom
            skip_factor = max(0.0, (denom - item.prob) / denom)
        else:
            take_factor = item.prob
            skip_factor = 1.0 - item.prob
        next_states: list[_State] = []
        for state in states:
            consumed = is_multi and item.group in state.groups
            # Branch 1: the tuple exists (impossible when a group mate
            # was already chosen).
            if not consumed:
                prob = state.prob * take_factor
                if prob > p_tau:
                    score = state.score + item.score
                    vector = (item.tid, state.vector)
                    if state.count + 1 == k:
                        emitted.append([score, prob, vector])
                    else:
                        groups = (
                            state.groups | {item.group}
                            if is_multi
                            else state.groups
                        )
                        next_states.append(
                            _State(prob, score, state.count + 1, groups, vector)
                        )
            # Branch 2: the tuple does not exist.
            prob = state.prob if consumed else state.prob * skip_factor
            if prob > p_tau:
                next_states.append(
                    _State(
                        prob, state.score, state.count, state.groups,
                        state.vector,
                    )
                )
        states[:] = next_states
        if len(emitted) > _BUFFER_FACTOR * max_lines:
            reduce_lines(emitted, max_lines)
