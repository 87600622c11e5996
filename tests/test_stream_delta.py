"""Sliding-window results after arbitrary streams of slides.

After any interleaving of appends and expiries, the window's
distribution must equal an independent computation over its current
table: the possible-worlds oracle where the window is small enough to
enumerate, otherwise the core dynamic program run directly over the
Theorem-2 prefix of :meth:`SlidingWindowTopK.table`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distribution import DEFAULT_P_TAU, prepare_scored_prefix
from repro.core.dp import dp_distribution
from repro.exceptions import InvalidProbabilityError
from repro.stream.window import SlidingWindowTopK
from tests.conftest import assert_pmf_equal, oracle_pmf

BIG = 10**6


def assert_matches_oracle(win, k):
    assert_pmf_equal(
        win.distribution().to_dict(), oracle_pmf(win.table(), k)
    )


def cold_pmf(win, k, *, p_tau):
    """The uncoalesced core DP over a fresh prefix of the window's
    table."""
    prefix = prepare_scored_prefix(win.table(), "score", k, p_tau=p_tau)
    return dp_distribution(prefix, k, max_lines=BIG)


class TestExactEquivalence:
    def test_random_interleavings(self):
        rng = np.random.default_rng(17)
        for _trial in range(25):
            window = int(rng.integers(3, 12))
            k = int(rng.integers(1, min(4, window) + 1))
            win = SlidingWindowTopK(
                window=window, k=k, p_tau=0.0, max_lines=BIG
            )
            for _ in range(int(rng.integers(5, 40))):
                win.append(
                    {"score": float(rng.integers(0, 8))},
                    probability=float(rng.uniform(0.05, 1.0)),
                )
                if rng.random() < 0.4:
                    assert_matches_oracle(win, k)

    def test_truncated_equivalence(self):
        # Default p_tau: the window must consume exactly the Theorem-2
        # prefix a cold scan of its table would (same exact lines).
        rng = np.random.default_rng(23)
        win = SlidingWindowTopK(window=50, k=3, max_lines=BIG)
        for i in range(150):
            win.append(
                {"score": float(rng.uniform(0, 100))},
                probability=float(rng.uniform(0.3, 1.0)),
            )
            if i % 13 == 0:
                expected = cold_pmf(win, 3, p_tau=DEFAULT_P_TAU)
                got = win.distribution()
                assert got.scores == expected.scores, i
                assert got.probs == expected.probs, i

    def test_certain_tuples(self):
        win = SlidingWindowTopK(window=6, k=2, p_tau=0.0, max_lines=BIG)
        for i in range(10):
            win.append({"score": float(i)}, probability=1.0)
        assert_matches_oracle(win, 2)
        assert win.distribution().to_dict() == {17.0: 1.0}

    def test_matches_oracle(self):
        win = SlidingWindowTopK(window=5, k=2, p_tau=0.0, max_lines=BIG)
        rng = np.random.default_rng(31)
        for _ in range(12):
            win.append(
                {"score": float(rng.integers(0, 6))},
                probability=float(rng.uniform(0.1, 0.95)),
            )
        assert_matches_oracle(win, 2)

    def test_tie_heavy_stream(self):
        win = SlidingWindowTopK(window=8, k=3, p_tau=0.0, max_lines=BIG)
        rng = np.random.default_rng(37)
        for _ in range(30):
            win.append(
                {"score": float(rng.integers(0, 3))},  # constant collisions
                probability=float(rng.uniform(0.2, 1.0)),
            )
            assert_matches_oracle(win, 3)


class TestCoalescedEquivalence:
    def test_mass_and_moments_under_budget(self):
        win = SlidingWindowTopK(window=40, k=4, p_tau=0.0, max_lines=64)
        rng = np.random.default_rng(41)
        for _ in range(80):
            win.append(
                {"score": float(rng.uniform(0, 1000))},
                probability=float(rng.uniform(0.2, 1.0)),
            )
        a, b = win.distribution(), cold_pmf(win, 4, p_tau=0.0)
        assert len(a) <= 64 < len(b)
        assert a.total_mass() == pytest.approx(b.total_mass(), abs=1e-9)
        span = max(a.support_span(), 1e-12)
        assert abs(a.expectation() - b.expectation()) < span / 10


class TestGroupFallback:
    def test_live_group_uses_full_pipeline(self):
        """A live ME group: exactly one of its members can appear."""
        win = SlidingWindowTopK(window=6, k=1, p_tau=0.0, max_lines=BIG)
        win.append({"score": 10.0}, probability=0.5, group="g")
        win.append({"score": 5.0}, probability=0.5, group="g")
        assert win.table().explicit_rules != ()
        assert_pmf_equal(
            win.distribution().to_dict(), {10.0: 0.5, 5.0: 0.5}
        )

    def test_group_expiry_reenables_delta(self):
        """Expiry leaves a one-member group, which is independent."""
        win = SlidingWindowTopK(window=2, k=1, p_tau=0.0, max_lines=BIG)
        win.append({"score": 10.0}, probability=0.5, group="g")
        win.append({"score": 5.0}, probability=0.5, group="g")
        win.append({"score": 1.0}, probability=1.0)  # evicts the 10
        assert win.table().explicit_rules == ()
        assert_pmf_equal(
            win.distribution().to_dict(), {5.0: 0.5, 1.0: 0.5}
        )

    def test_delta_matches_scratch_after_group_degrades(self):
        win = SlidingWindowTopK(window=4, k=2, p_tau=0.0, max_lines=BIG)
        win.append({"score": 9.0}, probability=0.4, group="g")
        win.append({"score": 7.0}, probability=0.4, group="g")
        assert_matches_oracle(win, 2)
        win.append({"score": 5.0}, probability=0.8)
        win.append({"score": 3.0}, probability=0.9)
        win.append({"score": 1.0}, probability=0.7)  # evicts 9.0
        assert_matches_oracle(win, 2)


class TestTypicalAndCaching:
    def test_typical_on_short_window_is_empty(self):
        # Fewer tuples than k: the empty TypicalResult, not an error.
        win = SlidingWindowTopK(window=4, k=2, p_tau=0.0, max_lines=BIG)
        win.append({"score": 1.0}, probability=0.9)
        assert win.typical(1).answers == ()
        assert win.distribution().is_empty()

    def test_typical_cached_per_c(self):
        win = SlidingWindowTopK(window=8, k=2, p_tau=0.0, max_lines=BIG)
        for i in range(8):
            win.append({"score": float(10 * i)}, probability=0.5)
        first = win.typical(3)
        assert win.typical(3) is first
        assert len(win.typical(2).answers) == 2

    def test_distribution_identity_until_slide(self):
        win = SlidingWindowTopK(window=4, k=2)
        for i in range(4):
            win.append({"score": float(i)}, probability=0.9)
        first = win.distribution()
        assert win.distribution() is first
        win.append({"score": 9.0}, probability=0.9)
        assert win.distribution() is not first


class TestValidation:
    def test_invalid_p_tau_rejected_at_construction(self):
        # Rejected up front, not on the first query.
        with pytest.raises(InvalidProbabilityError):
            SlidingWindowTopK(window=4, k=2, p_tau=-0.5)
        with pytest.raises(InvalidProbabilityError):
            SlidingWindowTopK(window=4, k=2, p_tau=1.0)


class TestDeltaStateUnit:
    """Window state edge cases."""

    def test_query_short_window_empty(self):
        win = SlidingWindowTopK(window=5, k=3, p_tau=0.0)
        win.append({"score": 1.0}, probability=0.5)
        assert win.distribution().is_empty()

