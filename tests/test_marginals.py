"""Tests for the rank-marginal engine, cross-checked by enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AlgorithmError
from repro.semantics.marginals import (
    higher_count_distribution,
    rank_distribution,
    rank_distributions,
    top_k_probabilities,
    top_k_probability,
)
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from repro.uncertain.worlds import enumerate_worlds
from tests.conftest import make_table, random_table


def scored_of(table):
    return ScoredTable.from_table(table, attribute_scorer("score"))


def rank_prob_by_enumeration(table, tid, rank):
    """P(tid occupies the given 1-based rank), tie-broken canonically."""
    scored = scored_of(table)
    position = {scored[i].tid: i for i in range(len(scored))}
    total = 0.0
    for world in enumerate_worlds(table):
        if tid not in world.tids:
            continue
        existing = sorted(position[t] for t in world.tids)
        if existing.index(position[tid]) + 1 == rank:
            total += world.probability
    return total


def topk_prob_by_enumeration(table, tid, k):
    return sum(
        rank_prob_by_enumeration(table, tid, r) for r in range(1, k + 1)
    )


def group_masses_above(scored, pos: int, exclude_group: int) -> list[float]:
    """The reference: per-group mass above ``pos`` by a rescan of rows
    0..pos-1, without ``exclude_group`` and groups of mass 0, in
    first-member order."""
    masses: dict[int, float] = {}
    groups = scored.group_column[:pos].tolist()
    for group, prob in zip(groups, scored.prob_column[:pos].tolist()):
        if group != exclude_group:
            masses[group] = masses.get(group, 0.0) + prob
    return [mass for mass in masses.values() if mass > 0.0]


class TestRunningMasses:
    """One running pass over the group masses gives every position the
    rows that a rescan of the rows above it gives, bit for bit."""

    def test_rows_match_the_rescan(self):
        rng = np.random.default_rng(91)
        for trial in range(30):
            table = random_table(rng, n=int(rng.integers(1, 16)), allow_me=True)
            scored = scored_of(table)
            for k in (1, 3, 6):
                rows = rank_distributions(scored, k)
                assert len(rows) == len(scored)
                for pos, ranks in enumerate(rows):
                    dist = [1.0] + [0.0] * (k - 1)
                    for q in group_masses_above(scored, pos, scored[pos].group):
                        dist = [dist[0] * (1.0 - q)] + [
                            above * (1.0 - q) + below * q
                            for above, below in zip(dist[1:], dist)
                        ]
                    want = np.array(dist)
                    got = higher_count_distribution(scored, pos, k - 1)
                    assert got.tobytes() == want.tobytes()
                    assert ranks.tobytes() == (scored[pos].prob * want).tobytes()
                    single = rank_distribution(scored, pos, k)
                    assert single.tobytes() == ranks.tobytes()

    def test_invalid_k(self):
        t = make_table([("a", 3, 0.5)])
        with pytest.raises(AlgorithmError):
            rank_distributions(scored_of(t), 0)


class TestHigherCountDistribution:
    def test_independent(self):
        t = make_table([("a", 3, 0.5), ("b", 2, 0.4), ("c", 1, 0.9)])
        dist = higher_count_distribution(scored_of(t), 2, 2)
        # Above c: a (0.5) and b (0.4) independent.
        assert dist[0] == pytest.approx(0.5 * 0.6)
        assert dist[1] == pytest.approx(0.5 * 0.4 + 0.5 * 0.6)
        assert dist[2] == pytest.approx(0.5 * 0.4)

    def test_own_group_excluded(self):
        t = make_table(
            [("a", 3, 0.5), ("b", 2, 0.4), ("c", 1, 0.5)],
            rules=[("a", "c")],
        )
        dist = higher_count_distribution(scored_of(t), 2, 2)
        # Only b counts above c ("a" shares c's group).
        assert dist[0] == pytest.approx(0.6)
        assert dist[1] == pytest.approx(0.4)

    def test_me_group_counts_once(self):
        t = make_table(
            [("a", 3, 0.4), ("b", 2, 0.4), ("x", 1, 0.9)],
            rules=[("a", "b")],
        )
        dist = higher_count_distribution(scored_of(t), 2, 2)
        # The group contributes at most one existing tuple.
        assert dist[0] == pytest.approx(0.2)
        assert dist[1] == pytest.approx(0.8)
        assert dist[2] == pytest.approx(0.0)

    def test_matches_the_array_recurrence(self):
        # The reference: the Poisson-binomial rows as numpy array
        # updates over the groups' masses in first-member order; the
        # plain-float rows must equal it bit for bit.
        rng = np.random.default_rng(77)
        for trial in range(30):
            scored = scored_of(random_table(rng, n=14, allow_me=True))
            for pos in range(len(scored)):
                masses: dict[int, float] = {}
                for item in scored.items[:pos]:
                    if item.group != scored[pos].group:
                        masses[item.group] = masses.get(item.group, 0.0) + item.prob
                for max_count in (0, 2, 5):
                    want = np.zeros(max_count + 1)
                    want[0] = 1.0
                    for q in (m for m in masses.values() if m > 0.0):
                        want[1:] = want[1:] * (1.0 - q) + want[:-1] * q
                        want[0] *= 1.0 - q
                    got = higher_count_distribution(scored, pos, max_count)
                    assert got.tobytes() == want.tobytes()

    def test_invalid_max_count(self):
        t = make_table([("a", 3, 0.5)])
        with pytest.raises(AlgorithmError):
            higher_count_distribution(scored_of(t), 0, -1)


class TestRankDistribution:
    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            t = random_table(rng, n=6)
            scored = scored_of(t)
            k = 3
            for pos in range(len(scored)):
                ranks = rank_distribution(scored, pos, k)
                for r in range(1, k + 1):
                    want = rank_prob_by_enumeration(t, scored[pos].tid, r)
                    assert ranks[r - 1] == pytest.approx(want, abs=1e-9)

    def test_invalid_k(self):
        t = make_table([("a", 3, 0.5)])
        with pytest.raises(AlgorithmError):
            rank_distribution(scored_of(t), 0, 0)


class TestTopKProbability:
    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(88)
        for trial in range(8):
            t = random_table(rng, n=6)
            scored = scored_of(t)
            for pos in range(len(scored)):
                got = top_k_probability(scored, pos, 2)
                want = topk_prob_by_enumeration(t, scored[pos].tid, 2)
                assert got == pytest.approx(want, abs=1e-9)

    def test_certain_top_tuple(self):
        t = make_table([("a", 9, 1.0), ("b", 1, 0.5)])
        assert top_k_probability(scored_of(t), 0, 1) == pytest.approx(1.0)

    def test_all_tuples(self, soldiers):
        probs = top_k_probabilities(scored_of(soldiers), 2)
        assert set(probs) == {f"T{i}" for i in range(1, 8)}
        for value in probs.values():
            assert 0.0 <= value <= 1.0
