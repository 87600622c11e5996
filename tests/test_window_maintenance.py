"""How a sliding window validates and maintains its standing query.

Query knobs fail when the window is built; an append the window's
table would reject fails before it expires anything; and a query
runs at most one dynamic program however many slides preceded it,
while the deltas a window holds for its next query stay bounded.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest

from repro.core import dp
from repro.exceptions import (
    AlgorithmError,
    DataModelError,
    InvalidProbabilityError,
    MutualExclusionError,
)
from repro.stream.window import SlidingWindowTopK


def fill(win, scores, probability=0.5):
    for score in scores:
        win.append({"score": float(score)}, probability=probability)


class TestKnobsFailAtConstruction:
    @pytest.mark.parametrize(
        "knobs, error",
        [
            ({"max_lines": 0}, AlgorithmError),
            ({"algorithm": "mc", "seed": -1}, AlgorithmError),
            ({"algorithm": "mc", "epsilon": -1.0}, AlgorithmError),
            ({"algorithm": "mc", "samples": 0}, AlgorithmError),
            ({"confidence": 2.0}, InvalidProbabilityError),
        ],
    )
    def test_bad_knob_rejected(self, knobs, error) -> None:
        with pytest.raises(error):
            SlidingWindowTopK(window=4, k=2, **knobs)


class TestRejectedAppendChangesNothing:
    """A full window checks a slide whole before its expiry runs."""

    def assert_unchanged(self, win, before) -> None:
        assert len(win) == 4 and win.arrivals == 4
        assert "first" in win.table()
        assert win.distribution() is before

    def test_duplicate_tid(self) -> None:
        win = SlidingWindowTopK(window=4, k=2, p_tau=0.0)
        win.append({"score": 1.0}, probability=0.5, tid="first")
        fill(win, [2, 3, 4])
        before = win.distribution()
        with pytest.raises(DataModelError, match="duplicate tuple id 's1'"):
            win.append({"score": 5.0}, probability=0.5, tid="s1")
        self.assert_unchanged(win, before)
        # No auto tid was consumed.
        assert win.append({"score": 5.0}, probability=0.5) == "s3"

    def test_group_over_mass(self) -> None:
        win = SlidingWindowTopK(window=4, k=1, p_tau=0.0)
        win.append({"score": 1.0}, probability=0.5, tid="first")
        win.append({"score": 9.0}, probability=0.6, group="g")
        fill(win, [2, 3])
        before = win.distribution()
        with pytest.raises(MutualExclusionError, match="> 1"):
            win.append({"score": 5.0}, probability=0.6, group="g")
        self.assert_unchanged(win, before)
        assert win.append({"score": 5.0}, probability=0.4, group="g") == "s3"
        assert win.table().explicit_rules == (("s0", "s3"),)

    def test_auto_ids_skip_an_explicit_live_id(self) -> None:
        win = SlidingWindowTopK(window=5, k=1)
        win.append({"score": 1.0}, probability=0.5, tid="s1")
        fill(win, [2, 3, 4])
        assert win.table().tids == ("s1", "s0", "s2", "s3")

    def test_tid_of_the_expiring_row_is_accepted(self) -> None:
        win = SlidingWindowTopK(window=3, k=1, p_tau=0.0)
        win.append({"score": 1.0}, probability=0.5, tid="x")
        fill(win, [2, 3])
        assert win.append({"score": 9.0}, probability=0.5, tid="x") == "x"
        assert win.table()["x"]["score"] == 9.0
        assert len(win) == 3 and win.arrivals == 4

    def test_partner_expiring_on_the_slide_does_not_count(self) -> None:
        win = SlidingWindowTopK(window=3, k=1, p_tau=0.0)
        win.append({"score": 9.0}, probability=0.7, group="g")
        fill(win, [1, 2])
        win.append({"score": 5.0}, probability=0.7, group="g")
        assert win.table().explicit_rules == ()
        assert win.distribution().to_dict() == pytest.approx(
            {5.0: 0.7, 2.0: 0.15, 1.0: 0.075}
        )


def test_failed_maintenance_raises_instead_of_a_stale_answer(
    monkeypatch,
) -> None:
    win = SlidingWindowTopK(window=4, k=1, p_tau=0.0)
    fill(win, [1, 2, 3])
    before = win.distribution()
    win.append({"score": 9.0}, probability=0.5)

    def broken(spec):
        raise RuntimeError("injected")

    monkeypatch.setattr(win._registry.session, "execute", broken)
    with pytest.raises(RuntimeError, match="injected"):
        win.distribution()
    monkeypatch.undo()
    after = win.distribution()
    assert after is not before and 9.0 in after.scores


def perfbench_stream(seed: int):
    """ME-free arrivals from ``window_slide``'s marginals:
    scores N(150, 60), probabilities U(0.05, 0.95)."""
    rng = np.random.default_rng(seed)
    normal = NormalDist(150.0, 60.0)
    while True:
        score = normal.inv_cdf(float(rng.uniform(1e-6, 1.0 - 1e-6)))
        yield {"score": score}, float(rng.uniform(0.05, 0.95))


def feed(win, rows, count: int) -> None:
    for _ in range(count):
        attributes, probability = next(rows)
        win.append(attributes, probability=probability)


def sweeps_during(action) -> int:
    before = dp.dp_sweep_count()
    action()
    return dp.dp_sweep_count() - before


class TestAtMostOneEvaluationPerQuery:
    def test_most_slides_skip(self) -> None:
        # W=500, k=5, p_tau 1e-3, a query per slide: most slides
        # provably miss the prefix, so they run no dynamic program.
        win = SlidingWindowTopK(window=500, k=5, p_tau=1e-3)
        rows = perfbench_stream(3)
        feed(win, rows, 550)
        win.distribution()
        slides = 300

        def run() -> None:
            for _ in range(slides):
                feed(win, rows, 1)
                win.distribution()

        assert sweeps_during(run) <= 0.5 * slides

    def test_one_sweep_per_sparse_query(self) -> None:
        # A query every 40 appends to a 40-row window: every row the
        # last query saw has expired, and the query evaluates once.
        win = SlidingWindowTopK(window=40, k=5, p_tau=1e-4)
        rows = perfbench_stream(5)

        def run() -> None:
            feed(win, rows, 40)
            win.distribution()
            win.typical(3)

        for _ in range(10):
            assert sweeps_during(run) == 1

    def test_pending_deltas_stay_bounded(self) -> None:
        win = SlidingWindowTopK(window=50, k=5)
        rows = perfbench_stream(7)
        feed(win, rows, 50)
        win.distribution()
        for _ in range(10 * win.window):
            feed(win, rows, 1)
            assert len(win._pending) <= win.window
        assert sweeps_during(win.distribution) == 1
