"""Unit tests for the line-coalescing strategy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coalesce import (
    coalesce_lines,
    merge_sorted_lines,
    reduce_lines,
)
from repro.exceptions import AlgorithmError


def lines_of(*pairs):
    return [[float(s), float(p), v] for s, p, v in pairs]


class TestCoalesceLines:
    def test_no_op_under_budget(self):
        lines = lines_of((1, 0.5, None), (2, 0.5, None))
        assert coalesce_lines(lines, 2) == lines_of(
            (1, 0.5, None), (2, 0.5, None)
        )

    def test_merges_closest_pair_first(self):
        lines = lines_of((0, 0.2, "a"), (10, 0.3, "b"), (10.5, 0.1, "c"))
        out = coalesce_lines(lines, 2)
        assert len(out) == 2
        assert out[0][:2] == [0.0, 0.2]
        assert out[1][0] == pytest.approx(10.25)
        assert out[1][1] == pytest.approx(0.4)
        assert out[1][2] == "b"  # heavier line's vector

    def test_mass_preserved(self):
        rng = np.random.default_rng(0)
        scores = np.sort(rng.uniform(0, 100, 50))
        probs = rng.uniform(0, 1, 50)
        lines = [[float(s), float(p), None] for s, p in zip(scores, probs)]
        total = sum(p for _, p, _ in lines)
        out = coalesce_lines(lines, 7)
        assert len(out) == 7
        assert sum(p for _, p, _ in out) == pytest.approx(total)

    def test_output_stays_sorted(self):
        rng = np.random.default_rng(1)
        scores = np.sort(rng.uniform(0, 100, 64))
        lines = [[float(s), 1.0 / 64, None] for s in scores]
        out = coalesce_lines(lines, 5)
        out_scores = [s for s, _, _ in out]
        assert out_scores == sorted(out_scores)

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(2)
        scores = np.sort(rng.uniform(0, 10, 20))
        probs = rng.uniform(0.01, 1, 20)
        lines = [[float(s), float(p), i] for i, (s, p) in
                 enumerate(zip(scores, probs))]
        reference = [list(line) for line in lines]
        # Naive O(m^2) closest-pair merging as the specification.
        while len(reference) > 6:
            gaps = [
                reference[i + 1][0] - reference[i][0]
                for i in range(len(reference) - 1)
            ]
            i = gaps.index(min(gaps))
            left, right = reference[i], reference[i + 1]
            vec = left[2] if left[1] >= right[1] else right[2]
            reference[i] = [
                (left[0] + right[0]) / 2, left[1] + right[1], vec
            ]
            del reference[i + 1]
        out = coalesce_lines(lines, 6)
        assert len(out) == len(reference)
        for got, want in zip(out, reference):
            assert got[0] == pytest.approx(want[0])
            assert got[1] == pytest.approx(want[1])
            assert got[2] == want[2]

    def test_reduce_to_single_line(self):
        lines = lines_of((0, 0.3, None), (5, 0.3, None), (9, 0.4, None))
        out = coalesce_lines(lines, 1)
        assert len(out) == 1
        assert out[0][1] == pytest.approx(1.0)

    def test_invalid_budget(self):
        with pytest.raises(AlgorithmError):
            coalesce_lines(lines_of((1, 1, None)), 0)

    def test_vector_none_fallback(self):
        lines = lines_of((1, 0.6, None), (1.1, 0.4, "v"))
        out = coalesce_lines(lines, 1)
        assert out[0][2] == "v"


class TestMergeSortedLines:
    def test_disjoint_union(self):
        a = lines_of((1, 0.2, "a"), (3, 0.3, "b"))
        b = lines_of((2, 0.5, "c"))
        out = merge_sorted_lines(a, b)
        assert [line[0] for line in out] == [1.0, 2.0, 3.0]

    def test_equal_scores_combined(self):
        a = lines_of((1, 0.2, "light"))
        b = lines_of((1, 0.5, "heavy"))
        out = merge_sorted_lines(a, b)
        assert len(out) == 1
        assert out[0][1] == pytest.approx(0.7)
        assert out[0][2] == "heavy"

    def test_inputs_not_mutated(self):
        a = lines_of((1, 0.2, None))
        b = lines_of((1, 0.5, None))
        merge_sorted_lines(a, b)
        assert a == lines_of((1, 0.2, None))
        assert b == lines_of((1, 0.5, None))

    def test_empty_inputs(self):
        a = lines_of((1, 0.2, None))
        assert merge_sorted_lines(a, []) == a
        assert merge_sorted_lines([], a) == a
        assert merge_sorted_lines([], []) == []


class TestReduceLines:
    def test_sorts_and_merges_equal_scores_in_place(self):
        lines = lines_of(
            (2, 0.1, "a"), (1, 0.3, "b"), (2, 0.2, "c"), (2, 0.25, "d")
        )
        reduce_lines(lines, 10)
        assert [line[0] for line in lines] == [1.0, 2.0]
        # "c" outweighs the 0.1 kept so far; "d" does not outweigh the
        # merged 0.3, so the merged line keeps "c".
        assert lines[1][2] == "c"
        assert lines[1][1] == pytest.approx(0.55)

    def test_coalesces_to_the_budget(self):
        lines = lines_of((3, 0.1, "x"), (1, 0.2, "y"), (2, 0.3, "z"))
        reduce_lines(lines, 2)
        assert len(lines) == 2
        assert sum(line[1] for line in lines) == pytest.approx(0.6)
