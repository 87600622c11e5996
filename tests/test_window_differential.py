"""Differential suite for the sliding window's maintained answers.

A window's query is a standing subscription: a slide whose deltas
provably miss the subscription's Theorem-2 prefix keeps the previous
answer.  At every slide, the maintained distribution must be
byte-identical — scores, probabilities and representative vectors —
to a cold computation by a fresh :class:`~repro.api.session.Session`
over :meth:`SlidingWindowTopK.table`, and to one over the same rows
rebuilt with the ME rules numbered by their first member's position
(so dense group ids differ from the live table's: the answer must not
depend on group-id values).

ME streams label about half the arrivals from two interleaved cycles
of bursts (five consecutive arrivals per label in one, nine in the
other).  Each cycle is longer than the window, so a label mostly
returns after all its members expired, and the interleaving creates
rules in another order than their first members arrived.

``REPRO_DIFF_SEED`` shifts every stream's seed (the CI fuzz smoke
rotates it daily) and ``REPRO_DIFF_DEPTH=N`` runs ``N`` times as many
streams per test, as in ``tests/test_differential.py``.  Case ids are
stream indexes, so a failure reproduces with the printed environment
and the case id.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np
import pytest

from repro.api.session import Session
from repro.api.spec import QuerySpec
from repro.stream.window import SlidingWindowTopK
from repro.uncertain.table import UncertainTable

#: Seed offset, rotated by the CI fuzz smoke.
SEED_OFFSET = int(os.environ.get("REPRO_DIFF_SEED", "0"))

#: Stream multiplier (the nightly workflow runs 5).
DIFF_DEPTH = max(1, int(os.environ.get("REPRO_DIFF_DEPTH", "1")))


def streams(count: int) -> range:
    """Stream indexes for a test that runs ``count`` at depth 1."""
    return range(count * DIFF_DEPTH)


def lines(pmf) -> tuple:
    """A distribution's byte-identity fingerprint."""
    return (pmf.scores, pmf.probs, tuple(pmf.vectors))


def cold_lines(table: UncertainTable, win: SlidingWindowTopK, knobs) -> tuple:
    """The window's query computed cold over ``table``."""
    spec = QuerySpec(
        table=table, scorer="score", k=win.k, algorithm="dp", **knobs
    )
    return lines(Session().distribution(spec))


def renumbered(table: UncertainTable) -> UncertainTable | None:
    """``table``'s rows with the rules ordered by first member, or
    ``None`` when that is already their order."""
    position = {tid: index for index, tid in enumerate(table.tids)}
    rules = sorted(table.explicit_rules, key=lambda rule: position[rule[0]])
    if rules == list(table.explicit_rules):
        return None
    return UncertainTable(table.tuples, rules, name=table.name)


def run_stream(
    seed: int,
    *,
    window: int,
    k: int,
    slides: int,
    labeled: bool = False,
    **knobs,
) -> dict:
    """Slide a seeded stream through a window, checking every slide.

    ``labeled`` gives about half the arrivals an ME label.  Returns
    the subscription's tier counts.
    """
    rng = np.random.default_rng(seed)
    win = SlidingWindowTopK(window=window, k=k, **knobs)
    #: ``(label, probability)`` of the window's rows, oldest first.
    live: deque = deque()
    for step in range(window + slides):
        label = None
        probability = float(rng.uniform(0.05, 0.95))
        if labeled and rng.random() < 0.5:
            if rng.random() < 0.5:
                label = f"a{step // 5 % 20}"
            else:
                label = f"b{step // 9 % 12}"
            # The oldest row expires on this slide when the window is
            # full, so it does not count against the label's mass.
            survivors = list(live)[1:] if len(live) == window else live
            mass = sum(p for other, p in survivors if other == label)
            probability = float(rng.uniform(0.01, 0.9)) * (1.0 - mass)
            if probability < 0.005:
                label, probability = None, float(rng.uniform(0.05, 0.95))
        # Few distinct scores, so ties at the prefix boundary occur.
        score = float(rng.integers(0, 60))
        win.append({"score": score}, probability=probability, group=label)
        live.append((label, probability))
        if len(live) > window:
            live.popleft()
        table = win.table()
        got = lines(win.distribution())
        assert got == cold_lines(table, win, knobs), (seed, step)
        other = renumbered(table)
        if other is not None:
            assert got == cold_lines(other, win, knobs), (seed, step)
    return dict(win._sub.tiers)


class TestMaintainedWindowMatchesCold:
    @pytest.mark.parametrize("stream", streams(3))
    def test_me_free_stream(self, stream) -> None:
        tiers = run_stream(
            SEED_OFFSET + stream, window=60, k=3, slides=150, p_tau=0.05
        )
        # The stream exercises both tiers.
        assert tiers["skip"] > 0 and tiers["recompute"] > 0

    @pytest.mark.parametrize("stream", streams(3))
    def test_me_stream_with_returning_labels(self, stream) -> None:
        tiers = run_stream(
            SEED_OFFSET + 100 + stream,
            window=80,
            k=3,
            slides=100,
            labeled=True,
            p_tau=0.05,
        )
        assert tiers["skip"] > 0 and tiers["recompute"] > 0

    @pytest.mark.parametrize("stream", streams(2))
    def test_coalesced_lines(self, stream) -> None:
        # A line budget small enough to coalesce: the kept answer is
        # still the cold computation's, line for line.
        run_stream(
            SEED_OFFSET + 200 + stream,
            window=50,
            k=4,
            slides=50,
            labeled=True,
            p_tau=0.02,
            max_lines=16,
        )

    @pytest.mark.parametrize("stream", streams(2))
    def test_untruncated_window(self, stream) -> None:
        tiers = run_stream(
            SEED_OFFSET + 300 + stream,
            window=10,
            k=2,
            slides=40,
            labeled=True,
            p_tau=0.0,
        )
        # p_tau = 0 scans the whole window: no slide is skippable.
        assert tiers["skip"] == 0

    def test_straddling_insert_moves_the_stop(self) -> None:
        # The Theorem-2 stop excludes the stopping row's own ME group
        # mass: a row scoring below the boundary that joins a prefix
        # row's group can push the stop down, so it must not skip.
        win = SlidingWindowTopK(window=10, k=1, p_tau=0.5)
        win.append({"score": 100.0}, probability=0.9, group="g")
        for score in (99, 98, 97, 96, 50):
            win.append({"score": float(score)}, probability=0.9)
        before = win.distribution()
        win.append({"score": 60.0}, probability=0.1, group="g")
        got = lines(win.distribution())
        assert got == cold_lines(win.table(), win, {"p_tau": 0.5})
        assert 60.0 in got[0] and 60.0 not in before.scores
