"""Regression tests for the dense-ME probability-underflow crash.

The ROADMAP item fixed in this PR: full-table ``p_tau=0`` sweeps of
dense-ME synthetic tables from ~800 tuples up multiply so many
existence factors that intermediate line masses underflow into the
subnormal float range (or to exactly 0.0).  Pre-fix, the grid
coalescing of ``_reduce_cell`` then produced NaN scores (``0/0``) or
subnormal-quantized weighted means outside their own bucket, breaking
the ascending-score invariant of the cell merge and raising
``ValueError`` mid-sweep.  The fix drops coalesced lines whose mass is
below the smallest normal double (``_MIN_CELL_MASS``): such lines are
unobservable noise, so explicit ``algorithm="dp"`` requests survive
and still agree with the Monte-Carlo engine.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.api import QuerySpec, Session
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import _MIN_CELL_MASS, _reduce_cell, dp_distribution
from repro.datasets.synthetic import (
    MEGroupLayout,
    SyntheticConfig,
    generate_synthetic_table,
)

#: The exact ROADMAP repro shape (do not shrink: the underflow needs
#: hundreds of multiplied existence factors to reach subnormals).
ROADMAP_CONFIG = SyntheticConfig(
    tuples=800, me_layout=MEGroupLayout(fraction=0.9)
)
ROADMAP_SEED = 5
ROADMAP_K = 10

#: Reduced coalescing budget for the end-to-end repro: the underflow
#: is triggered by the table shape (the pre-fix crash reproduces at
#: every budget from 32 to the default 200), while the sweep's wall
#: time is dominated by per-cell fixed costs — so the cheapest budget
#: that exercises the grid pass keeps this test CI-sized.
ROADMAP_MAX_LINES = 48


def _pmf_mean(pmf) -> tuple[float, float, float, float]:
    """(mean, mass, min score, max score) of a ScorePMF."""
    scores = np.array([line.score for line in pmf], dtype=float)
    probs = np.array([line.prob for line in pmf], dtype=float)
    mass = float(probs.sum())
    mean = float((scores * probs).sum() / mass)
    return mean, mass, float(scores.min()), float(scores.max())


def test_reduce_cell_drops_subnormal_buckets() -> None:
    """Grid buckets whose whole mass is subnormal are dropped."""
    # Two normal-mass lines far apart plus a run of subnormal lines in
    # between; a budget of 2 forces the grid pass.
    scores = np.array([0.0, 1.0, 2.0, 3.0, 100.0])
    probs = np.array([0.25, 5e-324, 1e-323, 0.0, 0.25])
    vectors = np.arange(5, dtype=np.int64)
    out_scores, out_probs, _ = _reduce_cell(scores, probs, vectors, 2)
    assert np.isfinite(out_scores).all()
    assert (np.diff(out_scores) >= 0).all()
    assert (out_probs >= _MIN_CELL_MASS).all()
    # The two normal lines' mass survives intact.
    assert out_probs.sum() == pytest.approx(0.5)


def test_reduce_cell_unchanged_on_normal_masses() -> None:
    """The underflow guard never touches normal-mass reductions."""
    scores = np.linspace(0.0, 10.0, 9)
    probs = np.full(9, 0.1)
    vectors = np.arange(9, dtype=np.int64)
    out_scores, out_probs, _ = _reduce_cell(
        scores.copy(), probs.copy(), vectors, 4
    )
    assert len(out_scores) == 4
    assert out_probs.sum() == pytest.approx(0.9)
    assert (np.diff(out_scores) > 0).all()


def test_roadmap_dense_me_repro_dp_matches_mc() -> None:
    """The ROADMAP repro completes under explicit dp and matches MC."""
    table = generate_synthetic_table(ROADMAP_CONFIG, seed=ROADMAP_SEED)
    prefix = prepare_scored_prefix(
        table, "score", ROADMAP_K, p_tau=0.0
    )
    assert len(prefix) == 800  # p_tau=0 scans the full table
    with warnings.catch_warnings():
        # Pre-fix, the sweep emitted "invalid value" warnings before
        # crashing; post-fix it must be silent and complete.
        warnings.simplefilter("error")
        pmf = dp_distribution(prefix, ROADMAP_K, max_lines=ROADMAP_MAX_LINES)
    dp_mean, dp_mass, _, _ = _pmf_mean(pmf)
    assert dp_mass == pytest.approx(1.0, abs=1e-9)

    samples = 20_000
    session = Session({"dense": table})
    mc_pmf = session.distribution(
        QuerySpec(
            table="dense",
            scorer="score",
            k=ROADMAP_K,
            p_tau=0.0,
            algorithm="mc",
            samples=samples,
            seed=1,
        )
    )
    mc_mean, mc_mass, mc_lo, mc_hi = _pmf_mean(mc_pmf)
    assert mc_mass == pytest.approx(1.0, abs=1e-6)
    # Hoeffding bound on the MC mean at confidence 1 - 1e-6: scores
    # are bounded by the sampled span, so the dp mean must fall within
    # the half-width (plus the dp side's own coalescing radius).
    span = mc_hi - mc_lo
    half_width = span * math.sqrt(math.log(2.0 / 1e-6) / (2.0 * samples))
    coalesce_radius = span / ROADMAP_MAX_LINES
    assert abs(dp_mean - mc_mean) <= half_width + coalesce_radius
