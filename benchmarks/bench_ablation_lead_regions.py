"""Ablation: lead-tuple-region batching (Section 3.3.3).

Compares the refined algorithm (one dynamic program per lead-tuple
region) against the simple Section-3.3.2 extension (one per ending
tuple).  The two must produce identical distributions; the refinement
should not be slower.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import dp_distribution_without_lead_regions
from repro.core.dp import dp_distribution
from repro.stats.metrics import wasserstein_distance

K = 10

_results: dict[str, object] = {}


def test_ablation_with_regions(benchmark, cartel_prefixes):
    prefix = cartel_prefixes[K]
    _results["with"] = benchmark.pedantic(
        lambda: dp_distribution(prefix, K), rounds=1, iterations=1
    )


def test_ablation_without_regions(benchmark, cartel_prefixes):
    prefix = cartel_prefixes[K]
    _results["without"] = benchmark.pedantic(
        lambda: dp_distribution_without_lead_regions(prefix, K),
        rounds=1,
        iterations=1,
    )


def test_ablation_equivalence(benchmark):
    benchmark.pedantic(lambda: dict(_results), rounds=1, iterations=1)
    assert "with" in _results and "without" in _results
    a, b = _results["with"], _results["without"]
    assert a.total_mass() == pytest.approx(b.total_mass(), abs=1e-9)
    # The two variants partition the ending units differently, so the
    # grid coalescing snaps lines at slightly different places; both
    # sit within one grid width (span / max_lines) of the exact
    # distribution, hence within two of each other.
    grid_width = a.support_span() / 200
    assert wasserstein_distance(a, b) < 2 * grid_width
