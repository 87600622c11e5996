"""Unit and property tests for c-Typical-Topk selection (Section 4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import typical
from repro.core.pmf import ScorePMF
from repro.core.typical import (
    _typical_indices,
    expected_typical_distance,
    select_typical,
    select_typical_brute_force,
)
from repro.exceptions import AlgorithmError, EmptyDistributionError
from tests.conftest import exact_distribution


def pmf_of(pairs) -> ScorePMF:
    return ScorePMF((s, p, (f"v{s}",)) for s, p in pairs)


class TestToyNumbers:
    """The exact numbers quoted in Sections 1-2 of the paper."""

    def test_three_typical_scores(self, soldiers):
        result = select_typical(exact_distribution(soldiers, 2), 3)
        assert [a.score for a in result.answers] == [118.0, 183.0, 235.0]

    def test_three_typical_vectors(self, soldiers):
        result = select_typical(exact_distribution(soldiers, 2), 3)
        assert [a.vector for a in result.answers] == [
            ("T2", "T6"), ("T7", "T6"), ("T7", "T3"),
        ]

    def test_expected_distance_6_6(self, soldiers):
        result = select_typical(exact_distribution(soldiers, 2), 3)
        assert result.expected_distance == pytest.approx(6.6)

    def test_one_typical_vector(self, soldiers):
        result = select_typical(exact_distribution(soldiers, 2), 1)
        answer = result.answers[0]
        assert answer.score == 170.0
        assert answer.vector == ("T3", "T2")
        assert answer.prob == pytest.approx(0.16)


class TestSelection:
    def test_single_line(self):
        result = select_typical(pmf_of([(5.0, 1.0)]), 1)
        assert result.answers[0].score == 5.0
        assert result.expected_distance == pytest.approx(0.0)

    def test_c_at_least_support_returns_all(self):
        pmf = pmf_of([(1, 0.3), (2, 0.3), (3, 0.4)])
        result = select_typical(pmf, 5)
        assert [a.score for a in result.answers] == [1.0, 2.0, 3.0]
        assert result.expected_distance == 0.0

    def test_one_median_of_symmetric_distribution(self):
        pmf = pmf_of([(0, 0.25), (10, 0.5), (20, 0.25)])
        result = select_typical(pmf, 1)
        assert result.answers[0].score == 10.0
        assert result.expected_distance == pytest.approx(5.0)

    def test_two_clusters(self):
        pmf = pmf_of([(0, 0.25), (1, 0.25), (100, 0.25), (101, 0.25)])
        result = select_typical(pmf, 2)
        chosen = {a.score for a in result.answers}
        assert len(chosen & {0.0, 1.0}) == 1
        assert len(chosen & {100.0, 101.0}) == 1
        assert result.expected_distance == pytest.approx(0.5)

    def test_answers_ascend(self):
        pmf = pmf_of([(i, 0.1) for i in range(10)])
        result = select_typical(pmf, 4)
        scores = [a.score for a in result.answers]
        assert scores == sorted(scores)

    def test_normalized_distance(self):
        pmf = pmf_of([(0, 0.25), (10, 0.25)])  # mass 0.5
        result = select_typical(pmf, 1)
        assert result.normalized_expected_distance == pytest.approx(
            result.expected_distance / 0.5
        )

    def test_invalid_c(self):
        with pytest.raises(AlgorithmError):
            select_typical(pmf_of([(1, 1.0)]), 0)

    def test_empty_distribution(self):
        with pytest.raises(EmptyDistributionError):
            select_typical(ScorePMF(()), 1)


class TestExpectedTypicalDistance:
    def test_simple(self):
        d = expected_typical_distance([0, 10], [0.5, 0.5], [0])
        assert d == pytest.approx(5.0)

    def test_nearest_anchor_wins(self):
        d = expected_typical_distance([0, 10], [0.5, 0.5], [0, 10])
        assert d == pytest.approx(0.0)

    def test_no_anchor_rejected(self):
        with pytest.raises(AlgorithmError):
            expected_typical_distance([0], [1.0], [])


@st.composite
def small_pmfs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    scores = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=60),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    probs = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return pmf_of(list(zip(map(float, scores), probs)))


class TestOptimality:
    @settings(max_examples=80, deadline=None)
    @given(pmf=small_pmfs(), c=st.integers(min_value=1, max_value=4))
    def test_matches_brute_force_objective(self, pmf, c):
        fast = select_typical(pmf, c)
        brute = select_typical_brute_force(pmf, c)
        assert math.isclose(
            fast.expected_distance,
            brute.expected_distance,
            abs_tol=1e-9,
        )

    @settings(max_examples=40, deadline=None)
    @given(pmf=small_pmfs(), c=st.integers(min_value=1, max_value=4))
    def test_chosen_scores_lie_in_support(self, pmf, c):
        result = select_typical(pmf, c)
        support = set(pmf.scores)
        for answer in result.answers:
            assert answer.score in support

    @settings(max_examples=40, deadline=None)
    @given(pmf=small_pmfs(), c=st.integers(min_value=1, max_value=3))
    def test_objective_decreases_in_c(self, pmf, c):
        a = select_typical(pmf, c)
        b = select_typical(pmf, c + 1)
        assert b.expected_distance <= a.expected_distance + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(pmf=small_pmfs())
    def test_reported_objective_consistent(self, pmf):
        result = select_typical(pmf, min(3, len(pmf)))
        recomputed = expected_typical_distance(
            pmf.scores, pmf.probs, [a.score for a in result.answers]
        )
        assert math.isclose(
            result.expected_distance, recomputed, abs_tol=1e-9
        )


def scalar_typical_indices(scores, probs, c):
    """Figure 7 as the scalar O(c·n²) loop: the byte-identity reference.

    ``min`` keeps the first of equal minima, as a strict ``<`` scan does.
    """
    n = len(scores)
    P = [0.0] * (n + 1)
    PS = [0.0] * (n + 1)
    for j in range(1, n + 1):
        P[j] = P[j - 1] + probs[j - 1]
        PS[j] = PS[j - 1] + probs[j - 1] * scores[j - 1]

    def below(j, k):
        return (P[k] - P[j - 1]) * scores[k - 1] - (PS[k] - PS[j - 1])

    def above(j, k):
        return (PS[k - 1] - PS[j - 1]) - (P[k - 1] - P[j - 1]) * scores[j - 1]

    rows = range(1, n + 1)
    G = {j: above(j, n + 1) for j in rows}
    g_arg = {1: {j: n + 1 for j in rows}}
    f_arg = {}
    F = {}
    for a in range(1, c + 1):
        if a > 1:
            after = {**F, n + 1: 0.0}
            g_arg[a] = {
                j: min(range(j + 1, n + 2), key=lambda k: above(j, k) + after[k])
                for j in rows
            }
            G = {j: above(j, g_arg[a][j]) + after[g_arg[a][j]] for j in rows}
        f_arg[a] = {
            j: min(range(j, n + 1), key=lambda k: below(j, k) + G[k])
            for j in rows
        }
        F = {j: below(j, f_arg[a][j]) + G[f_arg[a][j]] for j in rows}
    chosen, j = [], 1
    for a in range(c, 0, -1):
        i = f_arg[a][j]
        chosen.append(i - 1)
        j = g_arg[a][i]
        if j > n:
            break
    return chosen


@st.composite
def tie_prone_pmfs(draw):
    """Up to 40 lines with integer scores and dyadic masses: many equal
    segment costs, so argmin tie-breaking matters."""
    n = draw(st.integers(min_value=2, max_value=40))
    scores = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=120),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    probs = draw(
        st.lists(
            st.sampled_from((0.0625, 0.125, 0.25, 0.5, 0.1, 1 / 3)),
            min_size=n,
            max_size=n,
        )
    )
    return pmf_of(list(zip(map(float, scores), probs)))


def ladder_pmf(n):
    return pmf_of(
        (float(3 * i + i % 4), 0.5 if i % 3 else 0.125) for i in range(n)
    )


class TestVectorizedDP:
    """The numpy level passes choose exactly what the scalar loop does."""

    @settings(max_examples=120, deadline=None)
    @given(pmf=tie_prone_pmfs(), c=st.integers(min_value=1, max_value=6))
    def test_same_choices_as_scalar_loop(self, pmf, c):
        c = min(c, len(pmf) - 1)
        assert _typical_indices(pmf.scores, pmf.probs, c) == (
            scalar_typical_indices(pmf.scores, pmf.probs, c)
        )

    def test_row_blocks_change_nothing(self, monkeypatch):
        pmf = ladder_pmf(60)
        whole = _typical_indices(pmf.scores, pmf.probs, 5)
        monkeypatch.setattr(typical, "_BLOCK_CELLS", 7)  # one row per block
        assert _typical_indices(pmf.scores, pmf.probs, 5) == whole
        assert whole == scalar_typical_indices(pmf.scores, pmf.probs, 5)
