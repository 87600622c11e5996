"""Ablation: shared-prefix sweep vs one dynamic program per ending.

Compares the O(kmn) shared-prefix engine (:func:`dp_distribution`,
Section 3.3.3) against the per-ending implementation it replaced
(:func:`dp_distribution_per_ending`) across mutual-exclusion
densities.  The per-ending path re-runs the bottom-up program — and
rebuilds the compressed prefix — once per ending unit, so its cost
grows with the number of ending units times the whole prefix, while
the shared sweep pays the independent-tuple portion once; the speedup
therefore grows with the number of ending units and with the
independent fraction of the prefix.

Run with ``pytest benchmarks/bench_ablation_shared_prefix.py -s``.
"""

from __future__ import annotations

import pytest

from repro.bench.ablations import dp_distribution_per_ending
from repro.bench.reporting import print_series
from repro.bench.runner import time_callable
from repro.bench.workloads import cartel_workload, congestion_scorer
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import _ending_units, dp_distribution
from repro.stats.metrics import wasserstein_distance

K = 10
P_TAU = 1e-3
ME_FRACTIONS = (0.25, 0.5, 0.75, 0.9)


@pytest.fixture(scope="module")
def density_prefixes():
    """Theorem-2-truncated CarTel prefixes per ME density."""
    prefixes = {}
    for fraction in ME_FRACTIONS:
        table = cartel_workload(segments=160, me_fraction=fraction)
        prefixes[fraction] = prepare_scored_prefix(
            table, congestion_scorer(), K, p_tau=P_TAU
        )
    return prefixes


def test_shared_prefix_speedup_curve(density_prefixes):
    """The Section-3.3.3 speedup curve across ME densities."""
    rows = []
    for fraction, prefix in density_prefixes.items():
        shared = time_callable(
            lambda: dp_distribution(prefix, K), repeats=3
        )
        per_ending = time_callable(
            lambda: dp_distribution_per_ending(prefix, K), repeats=3
        )
        rows.append(
            {
                "me_fraction": fraction,
                "n": len(prefix),
                "me_members": prefix.me_member_count(),
                "ending_units": len(_ending_units(prefix)),
                "shared_ms": shared.seconds * 1e3,
                "per_ending_ms": per_ending.seconds * 1e3,
                "speedup": per_ending.seconds / shared.seconds,
            }
        )
        # Equivalence: same mass, coalesced lines within the shared
        # grid-width bound (fold orders differ, exact sums do not).
        a, b = shared.value, per_ending.value
        assert a.total_mass() == pytest.approx(b.total_mass(), abs=1e-9)
        grid_width = max(a.support_span(), 1e-12) / 200
        assert wasserstein_distance(a, b) < 2 * grid_width
    print_series(
        "Shared-prefix vs per-ending DP (CarTel, k=10)",
        rows,
        columns=(
            "me_fraction",
            "n",
            "me_members",
            "ending_units",
            "shared_ms",
            "per_ending_ms",
            "speedup",
        ),
    )
    # The ME-heavy configurations must favour the shared engine.
    heavy = [row for row in rows if row["me_fraction"] >= 0.5]
    assert all(row["speedup"] > 1.0 for row in heavy), rows


def test_shared_prefix_benchmark(benchmark, density_prefixes):
    prefix = density_prefixes[0.75]
    benchmark.pedantic(
        lambda: dp_distribution(prefix, K), rounds=1, iterations=1
    )


def test_per_ending_benchmark(benchmark, density_prefixes):
    prefix = density_prefixes[0.75]
    benchmark.pedantic(
        lambda: dp_distribution_per_ending(prefix, K),
        rounds=1,
        iterations=1,
    )
