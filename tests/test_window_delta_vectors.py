"""Sliding-window PMFs carry representative vectors.

Every window line records the most probable top-k vector attaining its
score, so window PMFs round-trip through JSON and the CLI like session
PMFs, and typical answers drawn from them name their tuples.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.typical import select_typical_clamped
from repro.io.csv_io import write_table_csv
from repro.io.json_io import pmf_from_json, pmf_to_json
from repro.stats.histogram import render_pmf
from repro.stream.window import SlidingWindowTopK


def _fill_window(win: SlidingWindowTopK) -> SlidingWindowTopK:
    for i in range(20):
        win.append(
            {"score": float((i * 7) % 13)}, probability=0.3 + 0.04 * (i % 10)
        )
    return win


@pytest.fixture
def window() -> SlidingWindowTopK:
    """A window of independent tuples, default construction."""
    return _fill_window(SlidingWindowTopK(window=12, k=3, p_tau=0.0))


@pytest.fixture
def scratch_window() -> SlidingWindowTopK:
    """The same stream with ``incremental=False`` (ignored)."""
    return _fill_window(
        SlidingWindowTopK(window=12, k=3, p_tau=0.0, incremental=False)
    )


def test_delta_vectors_match_scratch_path(window, scratch_window):
    pmf = window.distribution()
    scratch_pmf = scratch_window.distribution()
    assert pmf.scores == scratch_pmf.scores
    assert list(pmf.vectors) == list(scratch_pmf.vectors)
    # Each vector holds k window tuples and attains its line's score.
    table = window.table()
    for score, vector in zip(pmf.scores, pmf.vectors):
        assert len(vector) == 3
        assert sum(table[tid]["score"] for tid in vector) == pytest.approx(
            score
        )


def test_delta_pmf_json_round_trip(window):
    pmf = window.distribution()
    text = pmf_to_json(pmf)
    assert "vector" in text
    restored = pmf_from_json(text)
    assert restored.scores == pmf.scores
    assert restored.probs == pytest.approx(pmf.probs)
    assert list(restored.vectors) == [
        tuple(v) if v is not None else None for v in pmf.vectors
    ]
    assert all(vector is not None for vector in restored.vectors)


def test_delta_pmf_histogram_consumers(window):
    pmf = window.distribution()
    rendered = render_pmf(pmf, buckets=8)
    assert rendered.count("\n") >= 1
    buckets = pmf.histogram(2.0)
    assert sum(prob for _, _, prob in buckets) == pytest.approx(
        pmf.total_mass()
    )


def test_delta_typical_answers_carry_vectors(window, scratch_window):
    pmf = window.distribution()
    result = select_typical_clamped(pmf, 2)
    assert len(result.answers) == 2
    assert all(answer.vector is not None for answer in result.answers)
    reference = select_typical_clamped(scratch_window.distribution(), 2)
    assert [a.vector for a in result.answers] == [
        a.vector for a in reference.answers
    ]
    # The window's own typical() path agrees.
    again = window.typical(2)
    assert [a.score for a in again.answers] == [
        a.score for a in result.answers
    ]


def test_reconstruction_snapshot_survives_slides(window):
    """A PMF taken before the window slides keeps its lines and
    vectors afterwards; the new window state gets its own."""
    pmf = window.distribution()
    expected = (pmf.scores, pmf.probs, pmf.vectors)
    for i in range(12):  # slide the whole window away
        window.append({"score": 1000.0 + i}, probability=0.9)
    assert (pmf.scores, pmf.probs, pmf.vectors) == expected
    assert all(v is not None for v in pmf.vectors)
    fresh = window.distribution()
    assert fresh.scores != expected[0]
    assert all(v is not None for v in fresh.vectors)


def test_cli_answer_json_round_trips_window_table(window, tmp_path, capsys):
    """End to end: the window's table through ``repro answer
    --json`` parses back with the pmf document reader."""
    path = tmp_path / "window.csv"
    write_table_csv(window.table(), path)
    code = main(
        [
            "answer",
            str(path),
            "--score",
            "score",
            "-k",
            "3",
            "--semantics",
            "distribution",
            "--json",
            "--p-tau",
            "0",
        ]
    )
    assert code == 0
    restored = pmf_from_json(capsys.readouterr().out)
    # Same tuple set, same exact semantics: the PMF the CLI computes
    # matches the window's line for line, vectors included.
    window_pmf = window.distribution()
    assert restored.scores == pytest.approx(window_pmf.scores)
    assert restored.probs == pytest.approx(window_pmf.probs)
    assert list(restored.vectors) == [
        tuple(v) if v is not None else None for v in window_pmf.vectors
    ]


def test_cli_answer_json_mc_estimates(window, tmp_path, capsys):
    """The MC path serves the same document shape through --json."""
    path = tmp_path / "window.csv"
    write_table_csv(window.table(), path)
    code = main(
        [
            "answer",
            str(path),
            "--score",
            "score",
            "-k",
            "3",
            "--semantics",
            "distribution",
            "--json",
            "--algorithm",
            "mc",
            "--samples",
            "30000",
            "--seed",
            "3",
            "--p-tau",
            "0",
        ]
    )
    assert code == 0
    restored = pmf_from_json(capsys.readouterr().out)
    window_pmf = window.distribution()
    assert restored.expectation() == pytest.approx(
        window_pmf.expectation(), abs=0.5
    )


def test_cli_answer_json_non_pmf_semantics(window, tmp_path, capsys):
    """--json also serializes non-PMF answers (no crash on tuples)."""
    path = tmp_path / "window.csv"
    write_table_csv(window.table(), path)
    code = main(
        [
            "answer",
            str(path),
            "--score",
            "score",
            "-k",
            "2",
            "--semantics",
            "u_topk",
            "--json",
            "--p-tau",
            "0",
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"vector", "probability", "total_score"}
