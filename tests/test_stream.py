"""Tests for the sliding-window streaming layer."""

from __future__ import annotations

import pytest

from repro.exceptions import AlgorithmError, DataModelError, ScoringError
from repro.stream.window import SlidingWindowTopK
from tests.conftest import assert_pmf_equal, oracle_pmf


def fill(win, scores, probability=0.9, group=None):
    for s in scores:
        win.append({"score": float(s)}, probability=probability, group=group)


class TestWindowMaintenance:
    def test_eviction(self):
        win = SlidingWindowTopK(window=3, k=1)
        fill(win, [1, 2, 3, 4, 5])
        assert len(win) == 3
        assert win.arrivals == 5
        assert sorted(t["score"] for t in win.table()) == [3.0, 4.0, 5.0]

    def test_append_returns_tid(self):
        win = SlidingWindowTopK(window=2, k=1)
        tid = win.append({"score": 1.0}, probability=0.5)
        assert tid in win.table()

    def test_explicit_tid(self):
        win = SlidingWindowTopK(window=2, k=1)
        win.append({"score": 1.0}, probability=0.5, tid="mine")
        assert "mine" in win.table()

    def test_extend(self):
        win = SlidingWindowTopK(window=5, k=2)
        tids = win.extend([({"score": 1.0}, 0.5), ({"score": 2.0}, 0.6)])
        assert len(tids) == 2

    def test_missing_score_attribute(self):
        win = SlidingWindowTopK(window=2, k=1)
        with pytest.raises(DataModelError):
            win.append({"other": 1}, probability=0.5)

    def test_invalid_parameters(self):
        with pytest.raises(AlgorithmError):
            SlidingWindowTopK(window=0, k=1)
        with pytest.raises(AlgorithmError):
            SlidingWindowTopK(window=3, k=4)

    def test_nan_score_rejected_at_append(self):
        win = SlidingWindowTopK(window=3, k=1, p_tau=0.0)
        fill(win, [1, 2, 3, 4])
        before = win.distribution()
        with pytest.raises(ScoringError, match="score of tuple 's4' is NaN"):
            win.append({"score": float("nan")}, probability=0.5)
        with pytest.raises(ScoringError, match="'mine' is NaN"):
            win.append({"score": "nan"}, probability=0.5, tid="mine")
        assert len(win) == 3
        assert win.arrivals == 4
        assert win.distribution() is before
        assert win.append({"score": 5.0}, probability=0.9) == "s4"

    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    def test_infinite_score_rejected_at_append(self, bad):
        win = SlidingWindowTopK(window=3, k=1, p_tau=0.0)
        fill(win, [1, 2, 3, 4])
        before = win.distribution()
        with pytest.raises(ScoringError, match=f"'s4' is {bad}"):
            win.append({"score": float(bad)}, probability=0.5)
        assert len(win) == 3
        assert win.distribution() is before


class TestDistribution:
    def test_matches_oracle_on_window(self):
        win = SlidingWindowTopK(window=4, k=2, p_tau=0.0, max_lines=10**6)
        fill(win, [10, 20, 30, 40, 50, 60], probability=0.5)
        pmf = win.distribution()
        assert_pmf_equal(
            pmf.to_dict(), oracle_pmf(win.table(), 2)
        )

    def test_memoized_until_append(self):
        win = SlidingWindowTopK(window=3, k=1)
        fill(win, [1, 2, 3])
        first = win.distribution()
        assert win.distribution() is first
        win.append({"score": 9.0}, probability=0.9)
        assert win.distribution() is not first

    def test_distribution_slides(self):
        win = SlidingWindowTopK(window=2, k=1, p_tau=0.0)
        fill(win, [100, 1], probability=1.0)
        assert win.distribution().scores == (100.0,)
        win.append({"score": 2.0}, probability=1.0)  # 100 evicted
        assert win.distribution().scores == (2.0,)

    def test_incremental_flag_is_ignored(self):
        wins = [
            SlidingWindowTopK(window=6, k=2, p_tau=0.0, incremental=flag)
            for flag in (True, False)
        ]
        for win in wins:
            fill(win, [5, 1, 4, 4, 2, 8, 3, 7], probability=0.6)
        a, b = (win.distribution() for win in wins)
        assert (a.scores, a.probs, a.vectors) == (
            b.scores,
            b.probs,
            b.vectors,
        )

    def test_mc_and_auto_algorithms(self):
        exact, mc, auto = (
            SlidingWindowTopK(window=6, k=2, p_tau=0.0, **options)
            for options in (
                {},
                {"algorithm": "mc", "samples": 20000, "seed": 3},
                {"algorithm": "auto"},
            )
        )
        for win in (exact, mc, auto):
            fill(win, [10, 20, 30, 40, 50, 60, 70], probability=0.5)
        assert_pmf_equal(
            auto.distribution().to_dict(), oracle_pmf(auto.table(), 2)
        )
        assert mc.expected_top_k_score() == pytest.approx(
            exact.expected_top_k_score(), abs=2.0
        )

    def test_expected_top_k_score(self):
        win = SlidingWindowTopK(window=2, k=1, p_tau=0.0)
        fill(win, [10, 0], probability=1.0)
        assert win.expected_top_k_score() == pytest.approx(10.0)


class TestGroups:
    def test_live_group_mutual_exclusion(self):
        win = SlidingWindowTopK(window=4, k=1, p_tau=0.0, max_lines=10**6)
        win.append({"score": 10.0}, probability=0.5, group="g")
        win.append({"score": 5.0}, probability=0.5, group="g")
        pmf = win.distribution()
        # Saturated group: exactly one of the two appears.
        assert_pmf_equal(pmf.to_dict(), {10.0: 0.5, 5.0: 0.5})

    def test_group_degrades_after_expiry(self):
        win = SlidingWindowTopK(window=2, k=1, p_tau=0.0)
        win.append({"score": 10.0}, probability=0.5, group="g")
        win.append({"score": 5.0}, probability=0.5, group="g")
        win.append({"score": 1.0}, probability=1.0)  # evicts the 10
        table = win.table()
        assert table.explicit_rules == ()
        pmf = win.distribution()
        assert_pmf_equal(pmf.to_dict(), {5.0: 0.5, 1.0: 0.5})


class TestSnapshotAndTypical:
    def test_snapshot_freezes_state(self):
        win = SlidingWindowTopK(window=3, k=2, p_tau=0.0)
        fill(win, [1, 2, 3])
        snap = win.snapshot()
        win.append({"score": 99.0}, probability=0.9)
        assert snap.arrivals == 3
        assert 99.0 not in {t["score"] for t in snap.table}

    def test_typical_answers(self):
        win = SlidingWindowTopK(window=6, k=2, p_tau=0.0, max_lines=10**6)
        fill(win, [10, 20, 30, 40, 50, 60], probability=0.5)
        result = win.typical(3)
        assert len(result.answers) == 3
        scores = [a.score for a in result.answers]
        assert scores == sorted(scores)
