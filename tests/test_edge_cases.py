"""Edge cases and failure injection across the stack."""

from __future__ import annotations

import math

import pytest

from repro.core.distribution import top_k_score_distribution
from repro.core.dp import dp_distribution
from repro.core.typical import select_typical
from repro.exceptions import ScoringError
from repro.semantics.u_topk import u_topk
from repro.uncertain.model import UncertainTuple
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from repro.uncertain.table import UncertainTable
from tests.conftest import assert_pmf_equal, make_table, oracle_pmf


class TestExtremeProbabilities:
    def test_tiny_probabilities(self):
        t = make_table(
            [("a", 10, 1e-9), ("b", 5, 1e-9), ("c", 1, 1.0)]
        )
        pmf = top_k_score_distribution(
            t, "score", 1, p_tau=0.0, max_lines=10**6
        )
        assert_pmf_equal(pmf.to_dict(), oracle_pmf(t, 1), tol=1e-15)

    def test_near_one_probabilities(self):
        t = make_table(
            [("a", 10, 1.0 - 1e-12), ("b", 5, 1.0)]
        )
        pmf = top_k_score_distribution(
            t, "score", 2, p_tau=0.0, max_lines=10**6
        )
        assert pmf.to_dict()[15.0] == pytest.approx(1.0, abs=1e-9)

    def test_group_of_tiny_members(self):
        members = [(f"g{i}", 100.0 - i, 0.001) for i in range(10)]
        t = make_table(
            members + [("x", 1.0, 0.9)],
            rules=[tuple(f"g{i}" for i in range(10))],
        )
        pmf = top_k_score_distribution(
            t, "score", 1, p_tau=0.0, max_lines=10**6
        )
        assert_pmf_equal(pmf.to_dict(), oracle_pmf(t, 1))


class TestExtremeScores:
    def test_negative_scores(self):
        t = make_table([("a", -5, 0.5), ("b", -10, 0.5)])
        pmf = top_k_score_distribution(
            t, "score", 1, p_tau=0.0, max_lines=10**6
        )
        assert_pmf_equal(pmf.to_dict(), {-5.0: 0.5, -10.0: 0.25})

    def test_zero_scores_everywhere(self):
        t = make_table([("a", 0, 0.5), ("b", 0, 0.5), ("c", 0, 0.5)])
        pmf = top_k_score_distribution(
            t, "score", 2, p_tau=0.0, max_lines=10**6
        )
        # Single score line 0 with P(>= 2 of 3 exist) = 0.5.
        assert pmf.scores == (0.0,)
        assert pmf.probs[0] == pytest.approx(0.5)

    def test_huge_score_magnitudes(self):
        t = make_table([("a", 1e15, 0.5), ("b", 1e-15, 0.5)])
        pmf = top_k_score_distribution(
            t, "score", 2, p_tau=0.0, max_lines=10**6
        )
        assert pmf.scores[0] == pytest.approx(1e15)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_score_rejected_at_scoring(self, bad):
        # An infinite score would make every top-k total infinite (and
        # typical's expected distance a meaningless 0.0).
        t = make_table([("a", bad, 0.5), ("b", 1, 0.5)])
        with pytest.raises(ScoringError, match=f"'a' is {bad}"):
            ScoredTable.from_table(t, attribute_scorer("score"))

    def test_nan_score_rejected_at_scoring(self):
        t = make_table([("a", 1, 0.5)])
        with pytest.raises(ScoringError):
            top_k_score_distribution(
                t, lambda _: float("nan"), 1, p_tau=0.0
            )


class TestDegenerateStructures:
    def test_single_tuple_everything(self):
        t = make_table([("only", 7, 0.4)])
        pmf = top_k_score_distribution(
            t, "score", 1, p_tau=0.0, max_lines=10**6
        )
        assert pmf.to_dict() == {7.0: pytest.approx(0.4)}
        result = select_typical(pmf, 1)
        assert result.answers[0].vector == ("only",)
        best = u_topk(t, "score", 1, p_tau=0.0)
        assert best.vector == ("only",)

    def test_k_equals_table_size(self):
        t = make_table([("a", 3, 0.5), ("b", 2, 0.5), ("c", 1, 0.5)])
        pmf = top_k_score_distribution(
            t, "score", 3, p_tau=0.0, max_lines=10**6
        )
        assert pmf.to_dict() == {6.0: pytest.approx(0.125)}

    def test_whole_table_one_me_group(self):
        t = make_table(
            [("a", 3, 0.3), ("b", 2, 0.3), ("c", 1, 0.3)],
            rules=[("a", "b", "c")],
        )
        # Only one tuple can ever exist: top-2 is impossible.
        pmf = top_k_score_distribution(
            t, "score", 2, p_tau=0.0, max_lines=10**6
        )
        assert pmf.is_empty()
        pmf1 = top_k_score_distribution(
            t, "score", 1, p_tau=0.0, max_lines=10**6
        )
        assert_pmf_equal(
            pmf1.to_dict(), {3.0: 0.3, 2.0: 0.3, 1.0: 0.3}
        )

    def test_all_ties_one_group(self):
        t = make_table(
            [("a", 5, 0.4), ("b", 5, 0.4)], rules=[("a", "b")]
        )
        pmf = top_k_score_distribution(
            t, "score", 1, p_tau=0.0, max_lines=10**6
        )
        assert pmf.to_dict() == {5.0: pytest.approx(0.8)}

    def test_non_numeric_tids(self):
        tuples = [
            UncertainTuple(("composite", i), {"score": float(i)}, 0.5)
            for i in range(1, 4)
        ]
        t = UncertainTable(tuples)
        pmf = top_k_score_distribution(
            t, "score", 1, p_tau=0.0, max_lines=10**6
        )
        assert pmf.scores[-1] == 3.0
        assert pmf.vectors[-1] == (("composite", 3),)


class TestLargeK:
    def test_k_much_larger_than_expected_size(self):
        # 30 tuples at p=0.2: E[existing] = 6; ask for top-20.
        t = make_table(
            [(f"t{i}", float(100 - i), 0.2) for i in range(30)]
        )
        pmf = top_k_score_distribution(
            t, "score", 20, p_tau=0.0, max_lines=10**6
        )
        # Mass = P(X >= 20), X ~ Binomial(30, 0.2) — tiny but exact.
        from scipy.stats import binom

        expected = 1.0 - binom.cdf(19, 30, 0.2)
        assert pmf.total_mass() == pytest.approx(expected, rel=1e-6)

    def test_deep_k_with_certainty(self):
        t = make_table([(f"t{i}", float(i), 1.0) for i in range(1, 26)])
        scored = ScoredTable.from_table(t, attribute_scorer("score"))
        pmf = dp_distribution(scored, 25, max_lines=10**6)
        assert pmf.to_dict() == {float(sum(range(1, 26))): pytest.approx(1.0)}
