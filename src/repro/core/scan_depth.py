"""The Theorem-2 stopping condition (scan depth).

Tuples are scanned in rank order; once the accumulated probability mass
above a tuple (excluding its own ME group) reaches

    mu >= k + 1 + ln(1/p_tau) + sqrt(ln^2(1/p_tau) + 2 k ln(1/p_tau))

no tuple from that point on can belong to the top-k with probability
``p_tau`` or more, hence no top-k *vector* with probability >= p_tau is
missed either.  The ``+ 1`` absorbs the non-monotonicity introduced by
excluding the tuple's own ME group (whose mass is at most 1).

The scan always stops at a tie-group boundary: tuples sharing a score
either all satisfy the condition or none does, and the dynamic
programs need whole tie groups.
"""

from __future__ import annotations

import math

from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable

#: Rows in the scan's first column block; each later block doubles.
_FIRST_BLOCK = 256


def scan_depth_threshold(k: int, p_tau: float) -> float:
    """The right-hand side of the Theorem-2 inequality.

    :param k: the query's k (>= 1).
    :param p_tau: probability threshold in (0, 1); top-k vectors less
        probable than this may be dropped.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    if not 0.0 < p_tau < 1.0:
        raise AlgorithmError(f"p_tau must be in (0, 1), got {p_tau!r}")
    log_term = math.log(1.0 / p_tau)
    return k + 1.0 + log_term + math.sqrt(
        log_term * log_term + 2.0 * k * log_term
    )


def scan_depth(scored: ScoredTable, k: int, p_tau: float) -> int:
    """Number of rank-ordered tuples the algorithms must examine.

    Returns ``n`` such that tuples at positions ``0 .. n-1`` (in the
    canonical sort order) suffice: every top-k vector with probability
    >= ``p_tau`` lies entirely within them.  The returned depth is at
    least ``min(k, len(scored))`` and never exceeds ``len(scored)``,
    and always lands on a tie-group boundary.

    The scan reads the probability and group columns in growing
    blocks, so on a packed table it touches O(depth) pages.
    """
    threshold = scan_depth_threshold(k, p_tau)
    probs = scored.prob_column
    groups = scored.group_column
    total = len(probs)
    # Accumulated probability of all tuples ranked strictly higher; the
    # group contribution above the current tuple is subtracted per
    # tuple (mu excludes the tuple's own ME group).
    prefix_mass = 0.0
    group_mass_above: dict[int, float] = {}
    start, block = 0, _FIRST_BLOCK
    while start < total:
        stop = min(start + block, total)
        for pos, prob, group in zip(
            range(start, stop),
            probs[start:stop].tolist(),
            groups[start:stop].tolist(),
        ):
            own_group_above = group_mass_above.get(group, 0.0)
            if prefix_mass - own_group_above >= threshold and pos >= k:
                # pos >= k >= 1.  Never split a tie group: extend to
                # the end of the stopping tuple's one.
                scores = scored.score_column
                if scores[pos - 1] == scores[pos]:
                    return scored.tie_range_end(pos)
                return pos
            prefix_mass += prob
            group_mass_above[group] = own_group_above + prob
        start, block = stop, 2 * block
    return total
