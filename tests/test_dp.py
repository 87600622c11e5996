"""Unit tests for the main dynamic-programming algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.ablations import dp_distribution_without_lead_regions
from repro.core.dp import dp_distribution
from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from tests.conftest import (
    assert_pmf_equal,
    make_table,
    oracle_pmf,
    random_table,
)

BIG = 10**6  # line budget that disables coalescing


def dp_exact(table, k):
    scored = ScoredTable.from_table(table, attribute_scorer("score"))
    return dp_distribution(scored, k, max_lines=BIG)


class TestBasicIndependent:
    def test_single_tuple_k1(self):
        t = make_table([("a", 7, 0.4)])
        pmf = dp_exact(t, 1)
        assert pmf.to_dict() == {7.0: pytest.approx(0.4)}

    def test_two_tuples_k1(self):
        t = make_table([("a", 7, 0.4), ("b", 3, 0.5)])
        pmf = dp_exact(t, 1)
        # top-1 = a if a exists (0.4), else b if b exists (0.6*0.5).
        assert_pmf_equal(pmf.to_dict(), {7.0: 0.4, 3.0: 0.3})

    def test_two_tuples_k2(self):
        t = make_table([("a", 7, 0.4), ("b", 3, 0.5)])
        pmf = dp_exact(t, 2)
        assert_pmf_equal(pmf.to_dict(), {10.0: 0.2})

    def test_matches_oracle_independent(self):
        rng = np.random.default_rng(10)
        for trial in range(15):
            t = random_table(rng, n=6, allow_me=False, allow_ties=False)
            for k in (1, 2, 3):
                assert_pmf_equal(
                    dp_exact(t, k).to_dict(), oracle_pmf(t, k)
                )

    def test_k_larger_than_table_empty(self):
        t = make_table([("a", 7, 0.4)])
        assert dp_exact(t, 2).is_empty()

    def test_invalid_k(self):
        t = make_table([("a", 7, 0.4)])
        scored = ScoredTable.from_table(t, attribute_scorer("score"))
        with pytest.raises(AlgorithmError):
            dp_distribution(scored, 0)

    def test_vectors_in_rank_order(self):
        t = make_table([("lo", 3, 0.5), ("hi", 7, 0.4)])
        pmf = dp_exact(t, 2)
        assert pmf.vectors == (("hi", "lo"),)

    def test_certain_tuples_single_line(self):
        t = make_table([(f"t{i}", float(i), 1.0) for i in range(1, 6)])
        pmf = dp_exact(t, 3)
        assert pmf.to_dict() == {12.0: pytest.approx(1.0)}  # 5+4+3


class TestMutualExclusion:
    def test_toy_table_matches_paper(self, soldiers):
        pmf = dp_exact(soldiers, 2)
        assert pmf.to_dict()[118.0] == pytest.approx(0.2)
        assert pmf.expectation() == pytest.approx(164.1)
        assert pmf.prob_greater(118.0) == pytest.approx(0.76)

    def test_toy_vectors(self, soldiers):
        pmf = dp_exact(soldiers, 2)
        by_score = {line.score: line.vector for line in pmf}
        assert by_score[118.0] == ("T2", "T6")
        assert by_score[170.0] == ("T3", "T2")
        assert by_score[235.0] == ("T7", "T3")

    def test_matches_oracle_with_me(self):
        rng = np.random.default_rng(21)
        for trial in range(15):
            t = random_table(rng, n=7, allow_me=True, allow_ties=False)
            for k in (1, 2, 3):
                assert_pmf_equal(
                    dp_exact(t, k).to_dict(), oracle_pmf(t, k)
                )

    def test_saturated_group(self):
        # One group with total mass 1: some member always exists.
        t = make_table(
            [("a", 10, 0.5), ("b", 5, 0.5), ("c", 1, 1.0)],
            rules=[("a", "b")],
        )
        pmf = dp_exact(t, 2)
        assert_pmf_equal(pmf.to_dict(), {11.0: 0.5, 6.0: 0.5})

    def test_group_straddling_many_ranks(self):
        t = make_table(
            [("a", 10, 0.3), ("x", 8, 0.5), ("b", 6, 0.3), ("y", 4, 0.5)],
            rules=[("a", "b")],
        )
        for k in (1, 2, 3):
            assert_pmf_equal(dp_exact(t, k).to_dict(), oracle_pmf(t, k))

    def test_full_group_table(self):
        # Every tuple mutually exclusive with another.
        t = make_table(
            [
                ("a", 10, 0.4), ("b", 8, 0.4),
                ("c", 6, 0.5), ("d", 4, 0.5),
            ],
            rules=[("a", "b"), ("c", "d")],
        )
        for k in (1, 2):
            assert_pmf_equal(dp_exact(t, k).to_dict(), oracle_pmf(t, k))

    def test_without_lead_regions_identical(self):
        rng = np.random.default_rng(33)
        for trial in range(10):
            t = random_table(rng, n=7)
            scored = ScoredTable.from_table(t, attribute_scorer("score"))
            a = dp_distribution(scored, 2, max_lines=BIG)
            b = dp_distribution_without_lead_regions(
                scored, 2, max_lines=BIG
            )
            assert_pmf_equal(a.to_dict(), b.to_dict())


class TestTies:
    def test_example_4_configuration(self):
        # The paper's Example 4: top-5 configurations over tuples with
        # tie groups {T2,T3,T4} (score 8) and {T5,T6,T7} (score 7).
        t = make_table(
            [
                ("T1", 10, 0.5),
                ("T2", 8, 0.3), ("T3", 8, 0.2), ("T4", 8, 0.1),
                ("T5", 7, 0.5), ("T6", 7, 0.4), ("T7", 7, 0.2),
            ]
        )
        assert_pmf_equal(dp_exact(t, 5).to_dict(), oracle_pmf(t, 5))

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(44)
        for trial in range(15):
            t = random_table(rng, n=6, allow_me=False, allow_ties=True)
            for k in (1, 2, 3):
                assert_pmf_equal(
                    dp_exact(t, k).to_dict(), oracle_pmf(t, k)
                )

    def test_ties_and_me_together(self):
        rng = np.random.default_rng(55)
        for trial in range(15):
            t = random_table(rng, n=7, allow_me=True, allow_ties=True)
            for k in (1, 2, 3):
                assert_pmf_equal(
                    dp_exact(t, k).to_dict(), oracle_pmf(t, k)
                )

    def test_recorded_vector_is_max_probability(self):
        # Tie group {b1 (p=.6), b2 (p=.3)}: vectors (a,b1) and (a,b2)
        # have the same score; the recorded one must be (a, b1).
        t = make_table([("a", 9, 1.0), ("b1", 5, 0.6), ("b2", 5, 0.3)])
        pmf = dp_exact(t, 2)
        by_score = {line.score: line.vector for line in pmf}
        assert by_score[14.0] == ("a", "b1")


class TestCoalescingBehaviour:
    def test_line_budget_respected(self):
        rng = np.random.default_rng(7)
        t = make_table(
            [(f"t{i}", float(rng.uniform(0, 100)), 0.7) for i in range(20)]
        )
        scored = ScoredTable.from_table(t, attribute_scorer("score"))
        pmf = dp_distribution(scored, 4, max_lines=16)
        assert len(pmf) <= 16

    def test_coalescing_preserves_mass_and_mean(self):
        rng = np.random.default_rng(8)
        t = make_table(
            [(f"t{i}", float(rng.uniform(0, 100)), 0.7) for i in range(16)]
        )
        scored = ScoredTable.from_table(t, attribute_scorer("score"))
        exact = dp_distribution(scored, 3, max_lines=BIG)
        approx = dp_distribution(scored, 3, max_lines=12)
        assert approx.total_mass() == pytest.approx(exact.total_mass())
        span = exact.support_span()
        assert abs(approx.expectation() - exact.expectation()) < span / 10

    def test_coalescing_error_bounded_by_grid_width(self):
        rng = np.random.default_rng(9)
        t = make_table(
            [(f"t{i}", float(rng.uniform(0, 100)), 0.6) for i in range(14)]
        )
        scored = ScoredTable.from_table(t, attribute_scorer("score"))
        exact = dp_distribution(scored, 3, max_lines=BIG)
        for budget in (8, 32, 128):
            approx = dp_distribution(scored, 3, max_lines=budget)
            assert len(approx) <= budget


class TestEmptyAndEdge:
    def test_empty_table(self):
        t = make_table([])
        scored = ScoredTable.from_table(t, attribute_scorer("score"))
        assert dp_distribution(scored, 1).is_empty()

    def test_mass_equals_probability_of_k_tuples(self):
        # Independent tuples: mass of the k-distribution must equal
        # P(at least k of them exist).
        t = make_table([("a", 3, 0.5), ("b", 2, 0.5), ("c", 1, 0.5)])
        pmf = dp_exact(t, 2)
        # P(>=2 of 3 fair coins) = 0.5
        assert pmf.total_mass() == pytest.approx(0.5)

    def test_probability_one_group_members(self):
        # ME group with a probability-1 member is legal only alone; use
        # mass exactly 1 split across members.
        t = make_table(
            [("a", 5, 0.999), ("b", 4, 0.001), ("c", 1, 0.7)],
            rules=[("a", "b")],
        )
        for k in (1, 2):
            assert_pmf_equal(dp_exact(t, k).to_dict(), oracle_pmf(t, k))
