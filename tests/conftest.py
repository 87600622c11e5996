"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.api import register_semantics, unregister_semantics
from repro.core.distribution import top_k_score_distribution
from repro.datasets.soldier import soldier_table
from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import UncertainTable
from repro.uncertain.worlds import score_distribution_by_enumeration


@pytest.fixture
def soldiers() -> UncertainTable:
    """The paper's Figure-1 toy table."""
    return soldier_table()


@pytest.fixture
def engine_runs(monkeypatch) -> list[str]:
    """The DP engines that ran during the test, in order, by name
    (``python`` or ``native``)."""
    from repro.core.dp import _PythonEngine
    from repro.core.kernels.native import NativeEngine

    ran: list[str] = []
    for name, engine in (("python", _PythonEngine), ("native", NativeEngine)):
        real = engine.run

        def spy(self, program, name=name, real=real):
            ran.append(name)
            return real(self, program)

        monkeypatch.setattr(engine, "run", spy)
    return ran


@pytest.fixture
def slow_semantics():
    """A registered semantics that sleeps, to control worker timing."""

    @register_semantics("slow_test", replace=True)
    def _slow(prefix, spec):
        time.sleep(0.3)
        return len(prefix)

    yield "slow_test"
    unregister_semantics("slow_test")


def make_table(
    rows,
    rules=(),
    name: str = "t",
) -> UncertainTable:
    """Terse table builder: rows are (tid, score, prob) triples."""
    tuples = [
        UncertainTuple(tid, {"score": score}, prob)
        for tid, score, prob in rows
    ]
    return UncertainTable(tuples, rules, name=name)


def random_table(
    rng: np.random.Generator,
    *,
    n: int = 6,
    allow_ties: bool = True,
    allow_me: bool = True,
) -> UncertainTable:
    """A small random table for oracle cross-checks.

    Scores come from a small integer grid (so ties are likely when
    allowed); a random subset of tuples is partitioned into ME groups
    whose masses are rescaled below 1.
    """
    if allow_ties:
        scores = rng.integers(1, max(2, n), size=n) * 10.0
    else:
        scores = rng.permutation(n) * 10.0 + 10.0
    probs = rng.uniform(0.05, 1.0, size=n)
    rules = []
    if allow_me and n >= 2:
        indices = list(rng.permutation(n))
        while len(indices) >= 2 and rng.random() < 0.7:
            size = int(rng.integers(2, min(3, len(indices)) + 1))
            members = [indices.pop() for _ in range(size)]
            mass = probs[members].sum()
            if mass >= 1.0:
                probs[members] *= rng.uniform(0.5, 0.99) / mass
            rules.append(tuple(f"t{i}" for i in members))
    tuples = [
        UncertainTuple(f"t{i}", {"score": float(scores[i])}, float(probs[i]))
        for i in range(n)
    ]
    return UncertainTable(tuples, rules)


def oracle_pmf(table: UncertainTable, k: int) -> dict[float, float]:
    """Exact top-k score distribution by possible-world enumeration."""
    pmf, _ = score_distribution_by_enumeration(
        table, lambda t: float(t["score"]), k
    )
    return pmf


def assert_pmf_equal(
    actual: dict[float, float],
    expected: dict[float, float],
    *,
    tol: float = 1e-9,
) -> None:
    """Two score->prob mappings must match exactly (within tolerance).

    Lines carrying less than ``tol`` probability are ignored on both
    sides (the oracle drops sub-1e-12 world outcomes, the algorithms
    may keep them, and vice versa).
    """
    actual = {s: p for s, p in actual.items() if p >= tol}
    expected = {s: p for s, p in expected.items() if p >= tol}
    assert set(map(_key, actual)) == set(map(_key, expected)), (
        f"supports differ: {sorted(actual)} vs {sorted(expected)}"
    )
    expected_by_key = {_key(s): p for s, p in expected.items()}
    for score, prob in actual.items():
        assert math.isclose(
            prob, expected_by_key[_key(score)], abs_tol=tol
        ), f"prob mismatch at score {score}: {prob} vs {expected_by_key[_key(score)]}"


def _key(score: float) -> float:
    return round(float(score), 9)


def exact_distribution(table: UncertainTable, k: int, algorithm: str = "dp"):
    """Algorithm output with truncation and coalescing disabled."""
    return top_k_score_distribution(
        table,
        "score",
        k,
        p_tau=0.0,
        max_lines=10**6,
        algorithm=algorithm,
    )
