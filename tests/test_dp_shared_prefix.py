"""Property tests for the shared-prefix ME engine (Section 3.3.3).

The shared-prefix path of :func:`dp_distribution`, the per-ending
ablation :func:`dp_distribution_per_ending`, and brute-force
possible-worlds enumeration must agree on small tables mixing ME
groups, score ties, and truncated groups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.ablations import (
    dp_distribution_per_ending,
    dp_distribution_without_lead_regions,
)
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import dp_distribution
from repro.datasets.specs import generate_from_spec
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from tests.conftest import (
    assert_pmf_equal,
    make_table,
    oracle_pmf,
    random_table,
)
from tests.test_standing import python_calls

BIG = 10**6  # line budget that disables coalescing


def scored_of(table) -> ScoredTable:
    return ScoredTable.from_table(table, attribute_scorer("score"))


class TestAgainstOracle:
    def test_me_and_ties_random(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            t = random_table(rng, n=7, allow_me=True, allow_ties=True)
            for k in (1, 2, 3, 4):
                pmf = dp_distribution(scored_of(t), k, max_lines=BIG)
                assert_pmf_equal(pmf.to_dict(), oracle_pmf(t, k))

    def test_me_dense_random(self):
        # Nearly every tuple grouped: the rule-fold path dominates.
        rng = np.random.default_rng(202)
        for trial in range(15):
            t = random_table(rng, n=8, allow_me=True, allow_ties=False)
            for k in (2, 3):
                pmf = dp_distribution(scored_of(t), k, max_lines=BIG)
                assert_pmf_equal(pmf.to_dict(), oracle_pmf(t, k))

    def test_group_straddling_endings(self):
        # A group whose members sandwich independent tuples: the rule
        # tuple grows between consecutive ending units.
        t = make_table(
            [
                ("a", 10, 0.3),
                ("x", 8, 0.5),
                ("b", 6, 0.3),
                ("y", 4, 0.5),
                ("c", 2, 0.2),
            ],
            rules=[("a", "b", "c")],
        )
        for k in (1, 2, 3):
            pmf = dp_distribution(scored_of(t), k, max_lines=BIG)
            assert_pmf_equal(pmf.to_dict(), oracle_pmf(t, k))


class TestAgainstPerEndingAblation:
    def test_random_tables_agree(self):
        rng = np.random.default_rng(303)
        for trial in range(20):
            t = random_table(rng, n=8, allow_me=True, allow_ties=True)
            scored = scored_of(t)
            for k in (1, 2, 3):
                shared = dp_distribution(scored, k, max_lines=BIG)
                per_ending = dp_distribution_per_ending(
                    scored, k, max_lines=BIG
                )
                assert_pmf_equal(shared.to_dict(), per_ending.to_dict())

    def test_truncated_groups_agree(self):
        # A prefix cuts low-ranked group members (the Section-3.3.2
        # truncation): all three ME implementations must agree on the
        # reduced-group semantics.
        rng = np.random.default_rng(404)
        for trial in range(15):
            t = random_table(rng, n=9, allow_me=True, allow_ties=True)
            scored = scored_of(t)
            for depth in (4, 6, 8):
                prefix = scored.prefix(depth)
                for k in (1, 2, 3):
                    shared = dp_distribution(prefix, k, max_lines=BIG)
                    per_ending = dp_distribution_per_ending(
                        prefix, k, max_lines=BIG
                    )
                    simple = dp_distribution_without_lead_regions(
                        prefix, k, max_lines=BIG
                    )
                    assert_pmf_equal(
                        shared.to_dict(), per_ending.to_dict()
                    )
                    assert_pmf_equal(shared.to_dict(), simple.to_dict())

    def test_independent_tables_byte_identical(self):
        # Without ME groups both names run the same single program.
        rng = np.random.default_rng(505)
        for trial in range(5):
            t = random_table(rng, n=8, allow_me=False, allow_ties=True)
            scored = scored_of(t)
            a = dp_distribution(scored, 3, max_lines=BIG)
            b = dp_distribution_per_ending(scored, 3, max_lines=BIG)
            assert a.scores == b.scores
            assert a.probs == b.probs
            assert a.vectors == b.vectors


class TestRepresentativeVectors:
    def test_soldier_vectors_preserved(self, soldiers):
        pmf = dp_distribution(scored_of(soldiers), 2, max_lines=BIG)
        by_score = {line.score: line.vector for line in pmf}
        assert by_score[118.0] == ("T2", "T6")
        assert by_score[170.0] == ("T3", "T2")
        assert by_score[235.0] == ("T7", "T3")

    def test_vectors_in_rank_order_with_me(self):
        t = make_table(
            [("a", 9, 0.5), ("b", 7, 0.6), ("c", 5, 0.4), ("d", 3, 0.9)],
            rules=[("a", "c")],
        )
        pmf = dp_distribution(scored_of(t), 2, max_lines=BIG)
        position = {"a": 0, "b": 1, "c": 2, "d": 3}
        for line in pmf:
            order = [position[tid] for tid in line.vector]
            assert order == sorted(order)


class TestCoalescedEquivalence:
    def test_masses_match_under_budget(self):
        # Coalesced lines may differ between fold orders, but the mass
        # and the moments stay within the shared grid-width bound.
        rng = np.random.default_rng(606)
        t = random_table(rng, n=12, allow_me=True, allow_ties=False)
        scored = scored_of(t)
        shared = dp_distribution(scored, 3, max_lines=16)
        per_ending = dp_distribution_per_ending(scored, 3, max_lines=16)
        assert shared.total_mass() == pytest.approx(
            per_ending.total_mass(), abs=1e-9
        )
        span = max(shared.support_span(), 1e-12)
        assert abs(
            shared.expectation() - per_ending.expectation()
        ) < span / 4


class TestSweepCost:
    """An ME sweep's Python-level work does not grow with the lines its
    endings emit: vectors stay int64 rank positions through the final
    reduce, and only the surviving lines become tid tuples."""

    @pytest.mark.parametrize("k", [5, 10])
    def test_python_calls_grow_with_output_lines_only(self, k) -> None:
        table = generate_from_spec("synthetic:tuples=2000,me=0.5,seed=101")
        prefix = prepare_scored_prefix(table, "score", k, p_tau=0.01)
        assert prefix.me_member_count() > 0
        dp_distribution(prefix, k, max_lines=50)  # loads the kernel
        small = python_calls(lambda: dp_distribution(prefix, k, max_lines=50))
        large = python_calls(lambda: dp_distribution(prefix, k, max_lines=200))
        # O(k) calls for each extra output line, none per emitted line.
        assert large - small <= (200 - 50) * (2 * k + 10), (small, large)
