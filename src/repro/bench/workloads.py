"""Canonical workloads for the experiments.

One constructor per dataset family, with the seeds fixed so every
``repro figures`` run, and each claim it checks, refers to the same
data.
"""

from __future__ import annotations

from repro.datasets.cartel import CartelConfig, generate_cartel_area
from repro.datasets.soldier import soldier_table
from repro.datasets.synthetic import (
    MEGroupLayout,
    SyntheticConfig,
    generate_synthetic_table,
)
from repro.uncertain.scoring import Scorer, expression_scorer
from repro.uncertain.table import UncertainTable

#: Fixed seeds for the three CarTel "random areas" of Figure 8.
AREA_SEEDS = (11, 23, 47)

#: The paper's congestion score, as a scoring function.
CONGESTION_SCORER_SQL = "speed_limit / (length / delay)"


def congestion_scorer() -> Scorer:
    """Scoring function of the Section-5.2 CarTel query."""
    return expression_scorer(CONGESTION_SCORER_SQL)


def soldier_workload() -> UncertainTable:
    """The Figure-1 toy table."""
    return soldier_table()


def cartel_workload(
    *,
    seed: int = AREA_SEEDS[0],
    segments: int = 120,
    me_fraction: float = 0.75,
    bins: int = 4,
) -> UncertainTable:
    """A simulated CarTel area.

    :param me_fraction: fraction of segments with multiple
        measurements (those become ME groups) — the Figure-11 knob.
    """
    config = CartelConfig(
        segments=segments,
        multi_measurement_fraction=me_fraction,
        bins=bins,
    )
    return generate_cartel_area(config=config, seed=seed)


def synthetic_workload(
    *,
    correlation: float = 0.0,
    score_std: float = 60.0,
    tuples: int = 300,
    me_sizes: tuple[int, int] = (2, 3),
    me_gaps: tuple[int, int] = (1, 8),
    me_fraction: float = 0.5,
    seed: int = 97,
) -> UncertainTable:
    """A Section-5.4 synthetic table.

    Defaults match the Figure-13(a) baseline (ρ = 0, σ = 60, ME sizes
    2–3, gaps 1–8); Figures 14/15/16 change one knob each.
    """
    layout = (
        MEGroupLayout(
            size_range=me_sizes, gap_range=me_gaps, fraction=me_fraction
        )
        if me_fraction > 0.0
        else None
    )
    config = SyntheticConfig(
        tuples=tuples,
        score_std=score_std,
        correlation=correlation,
        me_layout=layout,
    )
    return generate_synthetic_table(config, seed=seed)
