"""Tests for U-Topk, cross-checked against possible-world enumeration."""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest

from repro.exceptions import AlgorithmError
from repro.semantics.u_topk import (
    u_topk,
    u_topk_scored,
    vector_top_k_probability,
)
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from tests.conftest import make_table, random_table


def scored_of(table):
    return ScoredTable.from_table(table, attribute_scorer("score"))


def u_topk_brute_force(table, k):
    """Max-probability first-k-existing configuration by enumeration."""
    scored = scored_of(table)
    n = len(scored)
    best_prob = 0.0
    best = None
    for combo in itertools.combinations(range(n), k):
        prob = vector_top_k_probability(scored, combo)
        if prob > best_prob:
            best_prob = prob
            best = combo
    return best, best_prob


class TestToyTable:
    def test_paper_answer(self, soldiers):
        result = u_topk(soldiers, "score", 2, p_tau=0.0)
        assert result is not None
        assert set(result.vector) == {"T2", "T6"}
        assert result.probability == pytest.approx(0.2)
        assert result.total_score == pytest.approx(118.0)

    def test_vector_rank_order(self, soldiers):
        result = u_topk(soldiers, "score", 2, p_tau=0.0)
        assert result.vector == ("T2", "T6")


class TestSearchCorrectness:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(303)
        for trial in range(20):
            t = random_table(rng, n=7)
            for k in (1, 2, 3):
                want_combo, want_prob = u_topk_brute_force(t, k)
                got = u_topk_scored(scored_of(t), k)
                if want_prob == 0.0:
                    continue
                assert got is not None
                assert got.probability == pytest.approx(want_prob, abs=1e-9)

    def test_matches_the_frozenset_search(self):
        # The reference: the same best-first search over item objects,
        # with each state's chosen groups as a frozenset.  The int-mask
        # search must return the same vector, probability and score,
        # ties included.
        def reference(scored, k):
            n = len(scored)
            take, skip, multi = [0.0] * n, [0.0] * n, [False] * n
            mass_above = {}
            for pos in range(n):
                item = scored[pos]
                if len(scored.group_positions(item.group)) > 1:
                    multi[pos] = True
                    before = mass_above.get(item.group, 0.0)
                    mass_above[item.group] = before + item.prob
                    denom = 1.0 - before
                    take[pos] = item.prob / denom
                    skip[pos] = max(0.0, (denom - item.prob) / denom)
                else:
                    take[pos] = item.prob
                    skip[pos] = 1.0 - item.prob
            tick = itertools.count()
            heap = [(-1.0, next(tick), 0, 0, (), frozenset())]
            while heap:
                neg_prob, _, pos, count, chosen, groups = heapq.heappop(heap)
                prob = -neg_prob
                if prob <= 0.0:
                    break
                if count == k:
                    return (
                        tuple(scored[q].tid for q in chosen),
                        prob,
                        sum(scored[q].score for q in chosen),
                    )
                if pos >= n or n - pos < k - count:
                    continue
                item = scored[pos]
                consumed = multi[pos] and item.group in groups
                if not consumed and take[pos] > 0.0:
                    grown = groups | {item.group} if multi[pos] else groups
                    heapq.heappush(heap, (-(prob * take[pos]), next(tick),
                                          pos + 1, count + 1, chosen + (pos,),
                                          grown))
                skip_prob = prob if consumed else prob * skip[pos]
                if skip_prob > 0.0:
                    heapq.heappush(heap, (-skip_prob, next(tick), pos + 1,
                                          count, chosen, groups))
            return None

        rng = np.random.default_rng(404)
        for trial in range(60):
            scored = scored_of(random_table(rng, n=int(rng.integers(3, 12))))
            for k in (1, 2, 3, 5):
                got = u_topk_scored(scored, k)
                want = reference(scored, k) if len(scored) >= k else None
                assert (None if got is None else tuple(got)) == want

    def test_short_table_returns_none(self):
        t = make_table([("a", 1, 0.5)])
        assert u_topk(t, "score", 2, p_tau=0.0) is None

    def test_certain_tuples(self):
        t = make_table([("a", 3, 1.0), ("b", 2, 1.0), ("c", 1, 1.0)])
        result = u_topk(t, "score", 2, p_tau=0.0)
        assert result.vector == ("a", "b")
        assert result.probability == pytest.approx(1.0)

    def test_me_group_second_member(self):
        # Skipping g1 then taking g2 must cost exactly p(g2).
        t = make_table(
            [("g1", 10, 0.2), ("g2", 8, 0.7), ("x", 1, 1.0)],
            rules=[("g1", "g2")],
        )
        result = u_topk(t, "score", 1, p_tau=0.0)
        assert result.vector == ("g2",)
        assert result.probability == pytest.approx(0.7)

    def test_invalid_k(self, soldiers):
        with pytest.raises(AlgorithmError):
            u_topk(soldiers, "score", 0)

    def test_state_limit(self, soldiers):
        with pytest.raises(AlgorithmError, match="state limit"):
            u_topk(soldiers, "score", 2, p_tau=0.0, state_limit=1)


class TestVectorProbability:
    def test_closed_form_matches_enumeration(self, soldiers):
        from repro.uncertain.worlds import vector_probability

        scored = scored_of(soldiers)
        position = {scored[i].tid: i for i in range(len(scored))}
        for vec in [("T2", "T6"), ("T3", "T2"), ("T7", "T3")]:
            combo = tuple(sorted(position[t] for t in vec))
            closed = vector_top_k_probability(scored, combo)
            brute = vector_probability(
                soldiers, attribute_scorer("score"), vec
            )
            assert closed == pytest.approx(brute, abs=1e-9)

    def test_same_group_vector_impossible(self, soldiers):
        scored = scored_of(soldiers)
        position = {scored[i].tid: i for i in range(len(scored))}
        combo = tuple(sorted([position["T2"], position["T4"]]))
        assert vector_top_k_probability(scored, combo) == 0.0

    def test_empty_vector_rejected(self, soldiers):
        with pytest.raises(AlgorithmError):
            vector_top_k_probability(scored_of(soldiers), ())
