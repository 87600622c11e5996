"""c-Typical-Topk selection (Section 4, Figure 7).

Given the top-k score distribution ``{(s_i, p_i, v_i)}`` (scores
ascending), choose c of the scores so that for a random score S drawn
from the distribution, the expected distance from S to the *closest*
chosen score is minimal (Definition 1).  The chosen scores' recorded
vectors are the c-Typical-Topk tuple vectors (Definition 2).

This is the 1-dimensional c-median problem; following Hassin & Tamir
the paper solves it with a two-function dynamic program in O(cn):

    F_a(j) = min_{j <= k <= n}  [ sum_{b=j..k} p_b (s_k - s_b) + G_a(k) ]
    G_a(j) = min_{j < k <= n+1} [ sum_{b=j..k-1} p_b (s_b - s_j)
                                  + F_{a-1}(k) ]

with G_1(j) = sum_{b=j..n} p_b (s_b - s_j) and F_a(n+1) = 0.  F is the
optimum for the suffix {s_j..s_n}; G additionally fixes s_j as a chosen
(typical) score.  Prefix sums P(j) = sum p_b and PS(j) = sum p_b s_b
reduce each inner sum to O(1).  This module evaluates every (j, k)
cell, O(c·n²) in all, as one numpy pass per level.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.pmf import ScorePMF
from repro.exceptions import AlgorithmError, EmptyDistributionError

#: Sentinel "infinity" for the DP tables.
_INF = float("inf")


class TypicalAnswer(NamedTuple):
    """One typical top-k answer.

    :ivar score: the typical total score s_i.
    :ivar prob: probability mass of that score in the distribution.
    :ivar vector: the most probable top-k tuple vector attaining it
        (``None`` when the distribution did not track vectors).
    """

    score: float
    prob: float
    vector: tuple | None


class TypicalResult(NamedTuple):
    """Outcome of c-Typical-Topk selection.

    :ivar answers: the c typical answers, scores ascending.
    :ivar expected_distance: E[min_i |S - s_i|] with S drawn from the
        (unnormalized) input distribution.
    :ivar normalized_expected_distance: the same expectation against
        the mass-normalized distribution (equals ``expected_distance``
        divided by the total mass).
    """

    answers: tuple[TypicalAnswer, ...]
    expected_distance: float
    normalized_expected_distance: float


def select_typical(pmf: ScorePMF, c: int) -> TypicalResult:
    """Choose the c-Typical-Topk answers from a score distribution.

    Runs the two-function dynamic program of Figure 7.  When ``c`` is
    at least the number of distinct scores, every score is typical and
    the expected distance is 0.

    :param pmf: the top-k score distribution (from
        :func:`repro.core.distribution.top_k_score_distribution` or any
        of the Section 3 algorithms).
    :param c: number of typical answers to return (>= 1).
    """
    if c < 1:
        raise AlgorithmError(f"c must be >= 1, got {c}")
    n = len(pmf)
    if n == 0:
        raise EmptyDistributionError(
            "cannot select typical answers from an empty distribution"
        )
    scores = pmf.scores
    probs = pmf.probs
    mass = sum(probs)
    if mass <= 0.0:
        raise EmptyDistributionError("distribution has zero mass")
    if c >= n:
        answers = tuple(
            TypicalAnswer(line.score, line.prob, line.vector) for line in pmf
        )
        return TypicalResult(answers, 0.0, 0.0)

    chosen = _typical_indices(scores, probs, c)
    objective = expected_typical_distance(
        scores, probs, [scores[i] for i in chosen]
    )
    answers = tuple(
        TypicalAnswer(scores[i], probs[i], pmf.vectors[i]) for i in chosen
    )
    return TypicalResult(answers, objective, objective / mass)


def select_typical_clamped(pmf: ScorePMF, c: int) -> TypicalResult:
    """:func:`select_typical` tolerant of short and empty distributions.

    Fewer than k tuples can co-exist in a short table, leaving an empty
    distribution — here that yields an empty result instead of raising,
    and ``c`` is clamped to the number of available lines.  This is the
    single guard shared by every consumer (the query engine, sessions,
    the CLI) so short tables behave consistently everywhere.
    """
    if c < 1:
        raise AlgorithmError(f"c must be >= 1, got {c}")
    if len(pmf) == 0:
        return TypicalResult((), 0.0, 0.0)
    return select_typical(pmf, min(c, len(pmf)))


#: Matrix cells per block of :func:`_row_minima`: bounds the scratch
#: memory of one level to a few MiB whatever the distribution's length.
_BLOCK_CELLS = 1 << 18


def _row_minima(
    n: int, cells: Callable[[int, int], np.ndarray], offset: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row minima over the upper triangle of an ``n``-column matrix.

    ``cells(j0, j1)`` returns matrix rows ``j0..j1-1``; row ``r``
    minimizes over its columns ``i >= r``.  Returns the minima and the
    first argmins plus ``offset`` (``argmin`` keeps the first minimum,
    as the scalar recurrence's strict ``<`` does).
    """
    minima = np.empty(n)
    argmins = np.empty(n, dtype=np.intp)
    columns = np.arange(n)
    step = max(1, _BLOCK_CELLS // n)
    for j0 in range(0, n, step):
        j1 = min(n, j0 + step)
        values = cells(j0, j1)
        values[columns[None, :] < columns[j0:j1, None]] = _INF
        index = values.argmin(axis=1)
        minima[j0:j1] = values[np.arange(j1 - j0), index]
        argmins[j0:j1] = index + offset
    return minima, argmins


def _typical_indices(
    scores: Sequence[float], probs: Sequence[float], c: int
) -> list[int]:
    """The Figure-7 dynamic program; returns chosen 0-based indices.

    Each level takes F (and G) as row minima of a (j, k) cost matrix
    in numpy.  Every cell is the scalar recurrence's float expression,
    evaluated in the same order, so the choices are exactly those of
    an O(c·n²) scalar loop, at a few numpy passes per level.
    """
    n = len(scores)
    # 1-based prefix sums: P[j] = p_1 + ... + p_j, PS likewise with s.
    P = [0.0] * (n + 1)
    PS = [0.0] * (n + 1)
    for j in range(1, n + 1):
        P[j] = P[j - 1] + probs[j - 1]
        PS[j] = PS[j - 1] + probs[j - 1] * scores[j - 1]
    p, ps, s = np.array(P), np.array(PS), np.array(scores, dtype=float)
    # Matrix row r is j = r + 1, so P[j - 1] = p_j[r]; column i is
    # k = i + 1 in F (P[k] = p_k[i]) and k = i + 2 in G (P[k - 1] = p_k[i]).
    p_j, p_k = p[:-1, None], p[None, 1:]
    ps_j, ps_k = ps[:-1, None], ps[None, 1:]

    def f_cells(j0: int, j1: int) -> np.ndarray:
        """seg_below(j, k) + G_a(k): j..k served by s_k, then G."""
        return (
            (p_k - p_j[j0:j1]) * s[None, :] - (ps_k - ps_j[j0:j1])
            + G[None, :]
        )

    def g_cells(j0: int, j1: int) -> np.ndarray:
        """seg_above(j, k) + F_{a-1}(k): j..k-1 served by s_j, then F."""
        return (
            (ps_k - ps_j[j0:j1]) - (p_k - p_j[j0:j1]) * s[j0:j1, None]
            + F_after[None, :]
        )

    # Level a = 1: G_1(j) is the whole suffix served by s_j from above.
    G = (ps[n] - ps[:-1]) - (p[n] - p[:-1]) * s
    g_arg = [np.empty(0, dtype=np.intp), np.full(n, n + 1)]
    F, f_first = _row_minima(n, f_cells, 1)
    f_arg = [np.empty(0, dtype=np.intp), f_first]
    for _ in range(2, c + 1):
        F_after = np.append(F[1:], 0.0)  # F_{a-1}(k), k = 2..n+1
        G, g_level = _row_minima(n, g_cells, 2)
        g_arg.append(g_level)
        F, f_level = _row_minima(n, f_cells, 1)
        f_arg.append(f_level)

    # Trace back (lines 36-41 of Figure 7): at each level the F-argmin
    # is the next typical score; its G-argmin is where the following
    # suffix subproblem starts.
    chosen: list[int] = []
    j = 1
    for a in range(c, 0, -1):
        i = int(f_arg[a][j - 1])
        chosen.append(i - 1)
        j = int(g_arg[a][i - 1])
        if j > n:
            break
    return chosen


def expected_typical_distance(
    scores: Sequence[float],
    probs: Sequence[float],
    typical_scores: Sequence[float],
) -> float:
    """E[min_i |S - s_i|] over the (unnormalized) distribution.

    The quantity minimized by Definition 1; for the paper's toy example
    with c = 3 it evaluates to 6.6.
    """
    if not typical_scores:
        raise AlgorithmError("need at least one typical score")
    anchors = sorted(typical_scores)
    total = 0.0
    for s, p in zip(scores, probs):
        total += p * min(abs(s - a) for a in anchors)
    return total


def select_typical_brute_force(pmf: ScorePMF, c: int) -> TypicalResult:
    """Reference implementation: try every c-subset of the support.

    Exponential; used by tests to validate :func:`select_typical` on
    small distributions.
    """
    if c < 1:
        raise AlgorithmError(f"c must be >= 1, got {c}")
    n = len(pmf)
    if n == 0:
        raise EmptyDistributionError("empty distribution")
    if c >= n:
        return select_typical(pmf, c)
    scores = pmf.scores
    probs = pmf.probs
    mass = sum(probs)
    best: tuple[float, tuple[int, ...]] | None = None
    for subset in itertools.combinations(range(n), c):
        objective = expected_typical_distance(
            scores, probs, [scores[i] for i in subset]
        )
        if best is None or objective < best[0] - 1e-15:
            best = (objective, subset)
    assert best is not None
    objective, subset = best
    answers = tuple(
        TypicalAnswer(scores[i], probs[i], pmf.vectors[i]) for i in subset
    )
    return TypicalResult(answers, objective, objective / mass)
