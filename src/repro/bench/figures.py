"""The experiment registry: each figure, ablation and bar with its claim.

:data:`EXPERIMENTS` maps a name to an :class:`Experiment`: a title, a
generator that regenerates the series as plain dict rows, and a check
over those rows that states what the paper claims about them, or the
speed bar the system holds (the bars live in :mod:`repro.bench.bars`).
Run them as a script (or as ``repro figures``)::

    python -m repro.bench.figures            # every claim and bar
    python -m repro.bench.figures fig10 bar_standing

Each series is printed, then its claim, its verdict and its wall time;
the exit status is 1 when any claim fails, which makes the registry
the claims gate of CI.

Absolute runtimes differ from the paper's 2009 testbed; the
reproduction targets the *shapes*: who wins, growth rates, direction
of distribution shifts.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Sequence

from repro.bench import bars
from repro.bench.ablations import (
    dp_distribution_per_ending,
    dp_distribution_without_lead_regions,
    sample_worlds_per_world,
)
from repro.bench.reporting import print_series
from repro.bench.runner import Experiment, Row, _require, time_callable
from repro.bench.workloads import (
    AREA_SEEDS,
    cartel_workload,
    congestion_scorer,
    soldier_workload,
    synthetic_workload,
)
from repro.core.distribution import (
    prepare_scored_prefix,
    top_k_score_distribution,
)
from repro.core.dp import DEFAULT_MAX_LINES, _ending_units, dp_distribution
from repro.core.k_combo import k_combo_distribution
from repro.core.scan_depth import scan_depth
from repro.core.state_expansion import state_expansion_distribution
from repro.core.typical import select_typical
from repro.mc.engine import MCEngine
from repro.mc.sampler import BatchWorldSampler
from repro.semantics.answers import typicality_report
from repro.semantics.global_topk import global_topk_scored
from repro.semantics.pt_k import pt_k_scored
from repro.semantics.u_kranks import u_kranks_scored
from repro.semantics.u_topk import u_topk_scored
from repro.stats.metrics import wasserstein_distance
from repro.uncertain.sampling import WorldSampler
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from repro.uncertain.worlds import enumerate_worlds, top_k_vectors_of_world

#: p_tau of the paper's performance experiments (Section 5.3).
P_TAU = 1e-3

#: Worlds and table size of the Monte-Carlo sampling ablation.
MC_SAMPLES = 10_000
MC_TUPLES = 300

#: PT-k threshold of the semantics-cost supplement.
PT_K_THRESHOLD = 0.3


def _close(
    actual: float, expected: float, *, rel: float = 1e-6, abs_tol: float = 1e-12
) -> bool:
    """``actual`` within ``rel`` of ``expected``, or within ``abs_tol``."""
    return abs(actual - expected) <= max(rel * abs(expected), abs_tol)


def _by(rows: Sequence[Row], column: str) -> dict[Any, Row]:
    """The rows keyed by one column's value."""
    return {row[column]: row for row in rows}


def _require_equivalent(
    label: str,
    masses: tuple[float, float],
    distance: float,
    grid_width: float,
) -> None:
    """Two DP variants agree: the same mass, lines within the grid.

    The variants fold ending units in different orders, so coalescing
    snaps lines at slightly different places; each sits within one
    grid width (span / max_lines) of the exact distribution, hence
    within two of the other.
    """
    _require(
        _close(masses[0], masses[1], rel=0.0, abs_tol=1e-9),
        f"{label}: masses {masses[0]!r} and {masses[1]!r} differ",
    )
    _require(
        distance < 2 * grid_width,
        f"{label}: Wasserstein distance {distance:.4g} is not below "
        f"two grid widths ({2 * grid_width:.4g})",
    )


# ----------------------------------------------------------------------
# Motivating example (Figures 2 and 3)
# ----------------------------------------------------------------------
def fig02_possible_worlds() -> list[Row]:
    """Figure 2: the 18 possible worlds of the toy table with top-2."""
    table = soldier_workload()
    scored = ScoredTable.from_table(table, attribute_scorer("score"))
    rows: list[Row] = []
    for index, world in enumerate(
        sorted(enumerate_worlds(table), key=lambda w: -w.probability), 1
    ):
        vectors = top_k_vectors_of_world(scored, world.tids, 2)
        rows.append(
            {
                "world": f"W{index}",
                "tuples": ",".join(sorted(world.tids)),
                "prob": world.probability,
                "top2": ",".join(vectors[0]) if vectors else "(short)",
            }
        )
    return rows


def _check_fig02(rows: Sequence[Row]) -> None:
    """The toy table has 18 possible worlds; their probabilities sum to 1."""
    _require(len(rows) == 18, f"{len(rows)} worlds, the paper lists 18")
    total = sum(r["prob"] for r in rows)
    _require(abs(total - 1.0) < 1e-9, f"world probabilities sum to {total!r}")
    _require(
        rows[0]["prob"] == max(r["prob"] for r in rows),
        "the most probable world (W1 = {T2, T5, T6}) is not listed first",
    )


def fig03_toy_distribution() -> list[Row]:
    """Figure 3: top-2 score distribution of the toy table.

    Paper facts: U-Top2 = <T2,T6> (score 118, prob 0.2); expected
    score 164.1; Pr(score > U-Topk) = 0.76; Pr(235) = 0.12.
    """
    report = typicality_report(
        soldier_workload(), "score", 2, 3, p_tau=0.0
    )
    rows: list[Row] = [
        {
            "score": line.score,
            "prob": line.prob,
            "vector": ",".join(line.vector or ()),
        }
        for line in report.pmf
    ]
    if report.u_topk is not None:
        rows.append(
            {
                "score": report.u_topk.total_score,
                "prob": report.u_topk.probability,
                "vector": "U-Topk=" + ",".join(report.u_topk.vector),
            }
        )
    return rows


def _check_fig03(rows: Sequence[Row]) -> None:
    """U-Top2 scores 118 with P = 0.2, below E[S] = 164.1; P(S > 118) = 0.76."""
    lines = [r for r in rows if "U-Topk" not in r["vector"]]
    prob = {r["score"]: r["prob"] for r in lines}
    for score, paper in ((118.0, 0.2), (235.0, 0.12)):
        _require(
            _close(prob.get(score, 0.0), paper),
            f"P(S = {score:g}) = {prob.get(score, 0.0)!r}, paper {paper}",
        )
    mean = sum(r["score"] * r["prob"] for r in lines)
    _require(_close(mean, 164.1), f"E[S] = {mean!r}, paper 164.1")
    above = sum(p for s, p in prob.items() if s > 118.0)
    _require(_close(above, 0.76), f"P(S > 118) = {above!r}, paper 0.76")
    u_topk = [r for r in rows if "U-Topk" in r["vector"]]
    _require(len(u_topk) == 1, f"{len(u_topk)} U-Topk rows, expected 1")
    _require(
        _close(u_topk[0]["score"], 118.0),
        f"U-Top2 scores {u_topk[0]['score']!r}, paper 118",
    )


# ----------------------------------------------------------------------
# Real-world (simulated CarTel) experiments: Figures 8-12
# ----------------------------------------------------------------------
def fig08_cartel_distribution() -> list[Row]:
    """Figure 8: congestion-score distribution of top-k roads in three
    areas; U-Topk sits atypically, 3-Typical spans the distribution."""
    rows: list[Row] = []
    for (seed, k) in zip(AREA_SEEDS, (5, 5, 10)):
        table = cartel_workload(seed=seed)
        report = typicality_report(table, congestion_scorer(), k, 3)
        pmf = report.pmf
        u_topk = report.u_topk
        rows.append(
            {
                "area": f"seed={seed}",
                "k": k,
                "lines": len(pmf),
                "min": pmf.scores[0],
                "max": pmf.scores[-1],
                "E[S]": pmf.expectation(),
                "std": pmf.std(),
                "u_topk_score": u_topk.total_score if u_topk else math.nan,
                "u_topk_prob": u_topk.probability if u_topk else math.nan,
                "u_topk_pctl": report.u_topk_percentile,
                "typical": tuple(a.score for a in report.typical.answers),
                "P(S>uTopk)": report.prob_above_u_topk,
            }
        )
    return rows


def _check_fig08(rows: Sequence[Row]) -> None:
    """U-Topk carries little probability; the typical scores span the support."""
    for row in rows:
        area = row["area"]
        _require(not math.isnan(row["u_topk_score"]), f"{area}: no U-Topk")
        _require(
            row["u_topk_prob"] < 0.25,
            f"{area}: U-Topk probability {row['u_topk_prob']:.4g} >= 0.25",
        )
        typical = list(row["typical"])
        _require(typical == sorted(typical), f"{area}: typical {typical} unsorted")
        _require(
            row["min"] <= typical[0] <= typical[-1] <= row["max"],
            f"{area}: typical {typical} outside the support "
            f"[{row['min']:.4g}, {row['max']:.4g}]",
        )


def fig09_scan_depth(
    ks: Sequence[int] = (10, 20, 30, 40, 50, 60),
) -> list[Row]:
    """Figure 9: Theorem-2 scan depth n grows roughly linearly in k."""
    table = cartel_workload(seed=AREA_SEEDS[0], segments=400)
    scored = ScoredTable.from_table(table, congestion_scorer())
    return [
        {"k": k, "scan_depth": scan_depth(scored, k, P_TAU)} for k in ks
    ]


def _check_fig09(rows: Sequence[Row]) -> None:
    """Scan depth grows monotonically and roughly linearly in k."""
    for row in rows:
        _require(
            row["scan_depth"] >= row["k"],
            f"k={row['k']}: scan depth {row['scan_depth']} < k",
        )
    depths = [row["scan_depth"] for row in rows]
    _require(depths == sorted(depths), f"depths {depths} not monotone")
    # Roughly linear: the increment per step of k stays within a 3x band.
    steps = [b - a for a, b in zip(depths, depths[1:])]
    _require(
        max(steps) <= 3 * max(1, min(steps)),
        f"depth increments {steps} leave the 3x band",
    )


def fig10_algorithms(
    ks_main: Sequence[int] = (5, 10, 20, 30, 40),
    ks_state_expansion: Sequence[int] = (1, 2, 3, 4, 5, 6),
    ks_k_combo: Sequence[int] = (1, 2, 3),
) -> list[Row]:
    """Figure 10: execution time vs k per algorithm.

    The baselines blow up exponentially (the paper's point), so their
    sweeps stop early — on 2009 hardware the paper capped them near
    k = 20 at ~10^3 seconds; here the Python constant factor moves the
    practical cap lower without changing the growth shape.

    StateExpansion runs with a near-zero pruning threshold: on this
    workload individual top-k vectors carry ~1e-4 probability, so the
    paper's p_tau = 1e-3 would prune its output (and its state space)
    to nothing, hiding the exponential growth the figure demonstrates.
    """
    table = cartel_workload(seed=AREA_SEEDS[0], segments=200)
    scorer = congestion_scorer()
    runs = (
        ("main (dp)", ks_main, dp_distribution),
        (
            "StateExpansion",
            ks_state_expansion,
            lambda prefix, k: state_expansion_distribution(
                prefix, k, p_tau=1e-6
            ),
        ),
        ("k-Combo", ks_k_combo, k_combo_distribution),
    )
    rows: list[Row] = []
    for algorithm, ks, distribution in runs:
        for k in ks:
            prefix = prepare_scored_prefix(table, scorer, k, p_tau=P_TAU)
            timed = time_callable(lambda: distribution(prefix, k))
            rows.append(
                {
                    "algorithm": algorithm,
                    "k": k,
                    "scan_depth": len(prefix),
                    "lines": len(timed.value),
                    "seconds": timed.seconds,
                }
            )
    return rows


def _check_fig10(rows: Sequence[Row]) -> None:
    """Every algorithm computes a non-empty distribution at every swept k."""
    for algorithm in ("main (dp)", "StateExpansion", "k-Combo"):
        runs = [r for r in rows if r["algorithm"] == algorithm]
        _require(bool(runs), f"{algorithm} did not run")
        empty = [r["k"] for r in runs if r["lines"] == 0]
        _require(not empty, f"{algorithm}: empty distribution at k={empty}")


def fig11_me_portion(
    portions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
    k: int = 10,
) -> list[Row]:
    """Figure 11: runtime grows with the portion of ME tuples."""
    rows: list[Row] = []
    for portion in portions:
        table = cartel_workload(
            seed=AREA_SEEDS[0], segments=200, me_fraction=portion
        )
        prefix = prepare_scored_prefix(
            table, congestion_scorer(), k, p_tau=P_TAU
        )
        timed = time_callable(lambda: dp_distribution(prefix, k))
        rows.append(
            {
                "me_portion_config": portion,
                "me_tuple_fraction": table.me_tuple_fraction(),
                "scan_depth": len(prefix),
                "lines": len(timed.value),
                "seconds": timed.seconds,
            }
        )
    return rows


def _check_fig11(rows: Sequence[Row]) -> None:
    """The ME-portion knob raises the ME tuple fraction; every run answers."""
    for row in rows:
        _require(
            row["lines"] > 0,
            f"portion {row['me_portion_config']}: empty distribution",
        )
    fractions = [row["me_tuple_fraction"] for row in rows]
    _require(
        fractions == sorted(fractions),
        f"ME tuple fractions {fractions} do not grow with the knob",
    )


def fig12_coalesce_lines(
    line_budgets: Sequence[int] = (50, 100, 200, 300, 400, 500),
    k: int = 10,
) -> list[Row]:
    """Figure 12: runtime varies linearly with the max-lines budget."""
    table = cartel_workload(seed=AREA_SEEDS[0], segments=200)
    prefix = prepare_scored_prefix(table, congestion_scorer(), k, p_tau=P_TAU)
    rows: list[Row] = []
    for budget in line_budgets:
        timed = time_callable(
            lambda: dp_distribution(prefix, k, max_lines=budget)
        )
        rows.append(
            {
                "max_lines": budget,
                "output_lines": len(timed.value),
                "seconds": timed.seconds,
            }
        )
    return rows


def _check_fig12(rows: Sequence[Row]) -> None:
    """Coalescing keeps every distribution within its max-lines budget."""
    for row in rows:
        _require(
            row["output_lines"] <= row["max_lines"],
            f"{row['output_lines']} lines exceed the budget {row['max_lines']}",
        )


# ----------------------------------------------------------------------
# Synthetic experiments: Figures 13-16
# ----------------------------------------------------------------------
def _synthetic_report_row(label: str, table, k: int = 10) -> Row:
    report = typicality_report(table, "score", k, 3)
    pmf = report.pmf
    return {
        "config": label,
        "E[S]": pmf.expectation(),
        "std": pmf.std(),
        "span90": pmf.span_containing(0.9),
        "u_topk_score": (
            report.u_topk.total_score if report.u_topk else math.nan
        ),
        "u_topk_pctl": report.u_topk_percentile,
        "typical": tuple(a.score for a in report.typical.answers),
    }


def _require_u_topk(rows: Sequence[Row]) -> None:
    for row in rows:
        _require(
            not math.isnan(row["u_topk_score"]),
            f"{row['config']}: no U-Topk answer",
        )


def fig13_correlation(k: int = 10) -> list[Row]:
    """Figure 13: ρ = +0.8 shifts the distribution right, ρ = −0.8
    left, relative to independence; U-Topk is atypical in all three."""
    rows: list[Row] = []
    for rho in (0.0, 0.8, -0.8):
        table = synthetic_workload(correlation=rho)
        rows.append(_synthetic_report_row(f"rho={rho:+.1f}", table, k))
    return rows


def _check_fig13(rows: Sequence[Row]) -> None:
    """Positive ρ shifts the distribution right, negative left; U-Topk is atypical."""
    _require_u_topk(rows)
    for row in rows:
        _require(
            not 0.35 <= row["u_topk_pctl"] <= 0.65,
            f"{row['config']}: U-Topk sits at the typical percentile "
            f"{row['u_topk_pctl']:.3f}",
        )
    mean = {label: row["E[S]"] for label, row in _by(rows, "config").items()}
    _require(
        mean["rho=+0.8"] > mean["rho=+0.0"],
        f"rho=+0.8 does not shift right: E[S] {mean['rho=+0.8']:.1f} "
        f"vs {mean['rho=+0.0']:.1f}",
    )
    _require(
        mean["rho=-0.8"] < mean["rho=+0.0"],
        f"rho=-0.8 does not shift left: E[S] {mean['rho=-0.8']:.1f} "
        f"vs {mean['rho=+0.0']:.1f}",
    )


def fig14_score_variance(k: int = 10) -> list[Row]:
    """Figure 14: σ 60 → 100 widens the significant span of the
    distribution: ≈350 → ≈1000 in the paper, 251.9 → 419.8 (1.67x)
    here, which the check holds above 1.3x."""
    rows: list[Row] = []
    for sigma in (60.0, 100.0):
        table = synthetic_workload(score_std=sigma)
        rows.append(_synthetic_report_row(f"sigma={sigma:.0f}", table, k))
    return rows


def _check_fig14(rows: Sequence[Row]) -> None:
    """Raising the score σ from 60 to 100 widens the distribution."""
    _require_u_topk(rows)
    by = _by(rows, "config")
    low, high = by["sigma=60"], by["sigma=100"]
    _require(
        high["span90"] > 1.3 * low["span90"],
        f"span90 {low['span90']:.1f} -> {high['span90']:.1f} is not 1.3x wider",
    )
    _require(
        high["std"] > low["std"],
        f"std {low['std']:.1f} -> {high['std']:.1f} does not grow",
    )


def fig15_me_gaps(k: int = 10) -> list[Row]:
    """Figure 15: widening the rank gaps between ME-group members
    (1-8 → 1-40) leaves the distribution essentially unchanged."""
    rows: list[Row] = []
    for gaps in ((1, 8), (1, 40)):
        table = synthetic_workload(me_gaps=gaps)
        rows.append(
            _synthetic_report_row(f"gaps={gaps[0]}-{gaps[1]}", table, k)
        )
    return rows


def _check_fig15(rows: Sequence[Row]) -> None:
    """Wider gaps between ME members leave E[S] within 10%."""
    by = _by(rows, "config")
    narrow, wide = by["gaps=1-8"]["E[S]"], by["gaps=1-40"]["E[S]"]
    _require(
        _close(wide, narrow, rel=0.10),
        f"E[S] moves from {narrow:.1f} to {wide:.1f}, more than 10%",
    )


def fig16_me_sizes(k: int = 10) -> list[Row]:
    """Figure 16: growing ME groups (2-3 → 2-10) widens the
    distribution, shifts it low, and pushes U-Topk to the low end."""
    rows: list[Row] = []
    for sizes in ((2, 3), (2, 10)):
        table = synthetic_workload(me_sizes=sizes)
        rows.append(
            _synthetic_report_row(f"sizes={sizes[0]}-{sizes[1]}", table, k)
        )
    return rows


def _check_fig16(rows: Sequence[Row]) -> None:
    """Larger ME groups widen the distribution, shift it low, push U-Topk out."""
    _require_u_topk(rows)
    by = _by(rows, "config")
    small, large = by["sizes=2-3"], by["sizes=2-10"]
    _require(
        large["span90"] > 1.25 * small["span90"],
        f"span90 {small['span90']:.1f} -> {large['span90']:.1f} "
        "is not 1.25x wider",
    )
    _require(
        large["E[S]"] < small["E[S]"],
        f"E[S] {small['E[S]']:.1f} -> {large['E[S]']:.1f} does not drop",
    )
    _require(
        large["u_topk_pctl"] > 0.7 or large["u_topk_pctl"] < 0.3,
        f"U-Topk percentile {large['u_topk_pctl']:.3f} is not extreme",
    )


# ----------------------------------------------------------------------
# Ablations and supplements beyond the paper
# ----------------------------------------------------------------------
def ablation_lead_regions(k: int = 10) -> list[Row]:
    """Section-3.3.3 refinement: one DP per lead region vs per tuple."""
    table = cartel_workload(seed=AREA_SEEDS[0], segments=200)
    prefix = prepare_scored_prefix(table, congestion_scorer(), k, p_tau=P_TAU)
    with_regions = time_callable(lambda: dp_distribution(prefix, k))
    without = time_callable(
        lambda: dp_distribution_without_lead_regions(prefix, k)
    )
    error = wasserstein_distance(with_regions.value, without.value)
    return [
        {
            "variant": variant,
            "seconds": timed.seconds,
            "mass": timed.value.total_mass(),
            "support_span": timed.value.support_span(),
            "wasserstein_vs_other": error,
        }
        for variant, timed in (
            ("lead regions (Section 3.3.3)", with_regions),
            ("per-tuple DPs (Section 3.3.2)", without),
        )
    ]


def _check_lead_regions(rows: Sequence[Row]) -> None:
    """Batching lead regions computes the per-tuple DPs' distribution."""
    regions, per_tuple = rows
    _require_equivalent(
        "lead regions vs per-tuple DPs",
        (regions["mass"], per_tuple["mass"]),
        regions["wasserstein_vs_other"],
        regions["support_span"] / DEFAULT_MAX_LINES,
    )


def ablation_coalescing(
    line_budgets: Sequence[int] = (10, 25, 50, 100, 200, 400),
    k: int = 5,
) -> list[Row]:
    """Accuracy cost of coalescing: Wasserstein error vs budget."""
    table = cartel_workload(seed=AREA_SEEDS[1], segments=80)
    scorer = congestion_scorer()
    exact = top_k_score_distribution(
        table, scorer, k, p_tau=P_TAU, max_lines=100_000
    )
    rows: list[Row] = []
    for budget in line_budgets:
        approx = top_k_score_distribution(
            table, scorer, k, p_tau=P_TAU, max_lines=budget
        )
        rows.append(
            {
                "max_lines": budget,
                "lines": len(approx),
                "grid_width": exact.support_span() / budget,
                "wasserstein_error": wasserstein_distance(exact, approx),
                "mass_error": abs(
                    exact.total_mass() - approx.total_mass()
                ),
                "mean_error": abs(
                    exact.expectation() - approx.expectation()
                ),
            }
        )
    return rows


def _check_coalescing(rows: Sequence[Row]) -> None:
    """Coalescing keeps the mass and errs by at most one grid width (span / budget)."""
    for row in rows:
        budget = row["max_lines"]
        _require(
            row["wasserstein_error"] <= row["grid_width"],
            f"budget {budget}: error {row['wasserstein_error']:.4f} exceeds "
            f"the grid width {row['grid_width']:.4f}",
        )
        _require(
            row["mass_error"] <= 1e-9,
            f"budget {budget}: coalescing lost {row['mass_error']!r} mass",
        )


def ablation_scan_depth(
    k: int = 10,
    p_taus: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
) -> list[Row]:
    """Mass captured vs Theorem-2 threshold: tighter p_tau scans deeper
    and loses less probability mass."""
    table = cartel_workload(seed=AREA_SEEDS[2], segments=120)
    scorer = congestion_scorer()
    full = top_k_score_distribution(table, scorer, k, p_tau=0.0)
    rows: list[Row] = []
    for p_tau in p_taus:
        prefix = prepare_scored_prefix(table, scorer, k, p_tau=p_tau)
        pmf = dp_distribution(prefix, k)
        rows.append(
            {
                "p_tau": p_tau,
                "scan_depth": len(prefix),
                "mass": pmf.total_mass(),
                "mass_lost_vs_full": full.total_mass() - pmf.total_mass(),
            }
        )
    return rows


def _check_scan_depth(rows: Sequence[Row]) -> None:
    """A tighter p_tau scans deeper and captures more of the full mass."""
    ordered = sorted(rows, key=lambda r: -r["p_tau"])
    depths = [r["scan_depth"] for r in ordered]
    masses = [r["mass"] for r in ordered]
    _require(depths == sorted(depths), f"depths {depths} not monotone")
    _require(masses == sorted(masses), f"masses {masses} not monotone")
    for row in ordered:
        _require(
            row["mass_lost_vs_full"] >= -1e-9,
            f"p_tau {row['p_tau']:g} captures more than the full mass",
        )


def ablation_session_cache(k: int = 5, cs: Sequence[int] = (2, 3, 5, 8)) -> list[Row]:
    """Plan-level caching: repeated queries through one Session.

    The paper's end-of-Section-4 observation — one computed score
    distribution serves typical answers at any ``c`` and rival
    semantics for comparison.  Rows time the cold first execution
    against warm re-executions that only change ``c`` or the
    semantics; the speedup is the point of the Session API.
    """
    from repro.api import QuerySpec, Session

    table = cartel_workload(seed=AREA_SEEDS[0], segments=120)
    spec = QuerySpec(
        table=table, scorer=congestion_scorer(), k=k, p_tau=P_TAU,
        algorithm="dp",
    )
    requests = [("typical c=3 (cold)", spec)]
    requests += [(f"typical c={c} (warm)", spec.with_(c=c)) for c in cs]
    requests += [
        (f"{semantics} (warm prefix)", spec.with_(semantics=semantics))
        for semantics in ("u_topk", "global_topk", "expected_ranks")
    ]
    session = Session()
    seconds = [
        time_callable(lambda: session.execute(request)).seconds
        for _, request in requests
    ]
    return [
        {
            "request": label,
            "seconds": elapsed,
            "speedup_vs_cold": seconds[0] / max(elapsed, 1e-9),
        }
        for (label, _), elapsed in zip(requests, seconds)
    ]


def _check_session_cache(rows: Sequence[Row]) -> None:
    """Every warm request through the Session beats the cold first one."""
    for row in rows[1:]:
        _require(
            row["speedup_vs_cold"] > 1.0,
            f"{row['request']}: {row['speedup_vs_cold']:.2f}x the cold run",
        )


def ablation_shared_prefix(
    k: int = 10,
    me_fractions: Sequence[float] = (0.25, 0.5, 0.75, 0.9),
) -> list[Row]:
    """Section-3.3.3 shared-prefix sweep vs one DP per ending unit.

    The per-ending path re-runs the bottom-up program, and rebuilds
    the compressed prefix, once per ending unit, so its cost grows
    with the number of ending units times the whole prefix, while the
    shared sweep pays the independent-tuple portion once; the speedup
    grows with the ending units and the independent fraction.
    """
    rows: list[Row] = []
    for fraction in me_fractions:
        table = cartel_workload(segments=160, me_fraction=fraction)
        prefix = prepare_scored_prefix(
            table, congestion_scorer(), k, p_tau=P_TAU
        )
        # Best of 5: at ME 0.5-0.75 the sweep wins by only 1.1-1.3x.
        shared = time_callable(lambda: dp_distribution(prefix, k), repeats=5)
        per_ending = time_callable(
            lambda: dp_distribution_per_ending(prefix, k), repeats=5
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
                "mass": shared.value.total_mass(),
                "per_ending_mass": per_ending.value.total_mass(),
                "wasserstein": wasserstein_distance(
                    shared.value, per_ending.value
                ),
                "grid_width": max(shared.value.support_span(), 1e-12)
                / DEFAULT_MAX_LINES,
            }
        )
    return rows


def _check_shared_prefix(rows: Sequence[Row]) -> None:
    """The shared-prefix sweep matches the per-ending DPs and wins at ME >= 0.5."""
    for row in rows:
        _require_equivalent(
            f"me_fraction {row['me_fraction']}",
            (row["mass"], row["per_ending_mass"]),
            row["wasserstein"],
            row["grid_width"],
        )
        if row["me_fraction"] >= 0.5:
            _require(
                row["speedup"] > 1.0,
                f"me_fraction {row['me_fraction']}: shared sweep is "
                f"{row['speedup']:.2f}x the per-ending DPs",
            )


def ablation_mc(k: int = 10) -> list[Row]:
    """Batched Monte-Carlo sampling vs the per-world Python loop.

    Three ways to draw :data:`MC_SAMPLES` worlds of a synthetic table:
    the per-world loop the MC engine replaced, the batched
    ``WorldSampler`` iterator (vectorized draws, Python frozensets)
    and ``BatchWorldSampler.sample`` (the existence matrix the engine
    consumes).  Then the engine's one-pass estimated top-k PMF against
    looping per-world samples through the scored table.  Each speedup
    is against the loop of its own stage.
    """
    table = synthetic_workload(tuples=MC_TUPLES, me_fraction=0.5)
    loop = time_callable(
        lambda: sample_worlds_per_world(table, MC_SAMPLES, seed=1), repeats=3
    )
    sampler = WorldSampler(table, seed=1)
    worlds = time_callable(
        lambda: list(sampler.sample_worlds(MC_SAMPLES)), repeats=3
    )
    matrix_sampler = BatchWorldSampler.from_table(table, seed=1)
    matrix = time_callable(lambda: matrix_sampler.sample(MC_SAMPLES), repeats=3)

    scored = ScoredTable.from_table(table, attribute_scorer("score"))

    def looped_estimate() -> dict[float, float]:
        counts: dict[float, int] = {}
        for world in sample_worlds_per_world(table, MC_SAMPLES, seed=2):
            existing = [
                pos for pos, item in enumerate(scored) if item.tid in world
            ]
            if len(existing) < k:
                continue
            total = sum(scored[pos].score for pos in existing[:k])
            counts[total] = counts.get(total, 0) + 1
        return {score: n / MC_SAMPLES for score, n in counts.items()}

    looped = time_callable(looped_estimate, repeats=3)
    engine = time_callable(
        lambda: MCEngine(scored, k, samples=MC_SAMPLES, seed=2)
        .run()
        .distribution(),
        repeats=3,
    )
    looped_mass = sum(looped.value.values())
    return [
        {
            "path": "per-world loop",
            "worlds": len(loop.value),
            "ms": loop.seconds * 1e3,
            "speedup_vs_loop": 1.0,
        },
        {
            "path": "batched worlds (frozensets)",
            "worlds": len(worlds.value),
            "ms": worlds.seconds * 1e3,
            "speedup_vs_loop": loop.seconds / worlds.seconds,
        },
        {
            "path": "batched matrix",
            "worlds": matrix.value.shape[0],
            "tuples": matrix.value.shape[1],
            "ms": matrix.seconds * 1e3,
            "speedup_vs_loop": loop.seconds / matrix.seconds,
        },
        {
            "path": f"looped worlds + python top-{k}",
            "ms": looped.seconds * 1e3,
            "speedup_vs_loop": 1.0,
            "mass": looped_mass,
            "E[S]": sum(s * p for s, p in looped.value.items()) / looped_mass,
        },
        {
            "path": "MCEngine one-pass",
            "ms": engine.seconds * 1e3,
            "speedup_vs_loop": looped.seconds / engine.seconds,
            "mass": engine.value.total_mass(),
            "E[S]": engine.value.expectation(),
        },
    ]


def _check_mc(rows: Sequence[Row]) -> None:
    """Batched sampling is >= 10x the per-world loop; the engine's estimate agrees."""
    loop, worlds, matrix, looped, engine = rows
    _require(
        worlds["ms"] < loop["ms"],
        f"batched worlds take {worlds['ms']:.1f} ms, the loop "
        f"{loop['ms']:.1f} ms",
    )
    _require(
        matrix["speedup_vs_loop"] >= 10.0,
        f"the matrix path is {matrix['speedup_vs_loop']:.1f}x the loop, "
        "below 10x",
    )
    _require(
        (matrix["worlds"], matrix["tuples"]) == (MC_SAMPLES, MC_TUPLES),
        f"matrix shape {(matrix['worlds'], matrix['tuples'])}, expected "
        f"{(MC_SAMPLES, MC_TUPLES)}",
    )
    _require(
        engine["ms"] < looped["ms"],
        f"the engine takes {engine['ms']:.1f} ms, the looped estimate "
        f"{looped['ms']:.1f} ms",
    )
    _require(
        _close(engine["E[S]"], looped["E[S]"], rel=0.02),
        f"E[S] {engine['E[S]']:.2f} (engine) vs {looped['E[S]']:.2f} "
        "(looped) differ by more than 2%",
    )


def semantics_costs(k: int = 10) -> list[Row]:
    """What each rival semantics costs on the same Theorem-2 prefix.

    Not a paper figure: U-Topk (best-first search), the score
    distribution plus 3-Typical (this paper), and the marginal
    semantics U-kRanks, PT-k and Global-Topk, which share the
    rank-marginal engine.
    """
    table = cartel_workload(seed=AREA_SEEDS[0], segments=120)
    prefix = prepare_scored_prefix(table, congestion_scorer(), k, p_tau=P_TAU)
    u_topk = time_callable(lambda: u_topk_scored(prefix, k))
    typical = time_callable(
        lambda: select_typical(dp_distribution(prefix, k), 3)
    )
    u_kranks = time_callable(lambda: u_kranks_scored(prefix, k))
    pt_k = time_callable(lambda: pt_k_scored(prefix, k, PT_K_THRESHOLD))
    global_topk = time_callable(lambda: global_topk_scored(prefix, k))
    return [
        {
            "semantics": "u_topk",
            "k": k,
            "seconds": u_topk.seconds,
            "answers": 0 if u_topk.value is None else 1,
        },
        {
            "semantics": "distribution + 3-typical",
            "k": k,
            "seconds": typical.seconds,
            "answers": len(typical.value.answers),
        },
        {
            "semantics": "u_kranks",
            "k": k,
            "seconds": u_kranks.seconds,
            "answers": len(u_kranks.value),
        },
        {
            "semantics": f"pt_k (p >= {PT_K_THRESHOLD})",
            "k": k,
            "seconds": pt_k.seconds,
            "answers": len(pt_k.value),
            "min_prob": min((p for _, p in pt_k.value), default=math.inf),
        },
        {
            "semantics": "global_topk",
            "k": k,
            "seconds": global_topk.seconds,
            "answers": len(global_topk.value),
        },
    ]


def _check_semantics(rows: Sequence[Row]) -> None:
    """Every rival semantics answers in full on the prefix that serves the distribution."""
    u_topk, typical, u_kranks, pt_k, global_topk = rows
    _require(u_topk["answers"] == 1, "U-Topk found no vector")
    _require(
        typical["answers"] == 3,
        f"{typical['answers']} typical answers, expected 3",
    )
    for row in (u_kranks, global_topk):
        _require(
            row["answers"] == row["k"],
            f"{row['semantics']}: {row['answers']} answers, expected "
            f"k={row['k']}",
        )
    _require(
        pt_k["min_prob"] >= PT_K_THRESHOLD,
        f"PT-k returned a tuple with probability {pt_k['min_prob']:.4g} "
        f"below {PT_K_THRESHOLD}",
    )


#: The registry: the only place an experiment or bar and its claim are
#: defined.
EXPERIMENTS: dict[str, Experiment] = {
    "fig02": Experiment("Figure 2: possible worlds of the toy table",
                        fig02_possible_worlds, _check_fig02),
    "fig03": Experiment("Figure 3: toy top-2 score distribution",
                        fig03_toy_distribution, _check_fig03),
    "fig08": Experiment("Figure 8: CarTel-sim score distributions",
                        fig08_cartel_distribution, _check_fig08),
    "fig09": Experiment("Figure 9: k vs scan depth",
                        fig09_scan_depth, _check_fig09),
    "fig10": Experiment("Figure 10: k vs execution time per algorithm",
                        fig10_algorithms, _check_fig10),
    "fig11": Experiment("Figure 11: ME portion vs execution time",
                        fig11_me_portion, _check_fig11),
    "fig12": Experiment("Figure 12: max lines vs execution time",
                        fig12_coalesce_lines, _check_fig12),
    "fig13": Experiment("Figure 13: score/probability correlation",
                        fig13_correlation, _check_fig13),
    "fig14": Experiment("Figure 14: score variance",
                        fig14_score_variance, _check_fig14),
    "fig15": Experiment("Figure 15: ME member gaps",
                        fig15_me_gaps, _check_fig15),
    "fig16": Experiment("Figure 16: ME group sizes",
                        fig16_me_sizes, _check_fig16),
    "ablation_lead_regions": Experiment(
        "Ablation: lead-region batching",
        ablation_lead_regions, _check_lead_regions),
    "ablation_coalescing": Experiment(
        "Ablation: coalescing accuracy",
        ablation_coalescing, _check_coalescing),
    "ablation_scan_depth": Experiment(
        "Ablation: scan depth vs captured mass",
        ablation_scan_depth, _check_scan_depth),
    "ablation_session_cache": Experiment(
        "Ablation: Session plan-level caching",
        ablation_session_cache, _check_session_cache),
    "ablation_shared_prefix": Experiment(
        "Ablation: shared-prefix sweep vs per-ending DPs (CarTel, k=10)",
        ablation_shared_prefix, _check_shared_prefix),
    "ablation_mc": Experiment(
        f"Ablation: batched MC sampling ({MC_TUPLES} tuples, S={MC_SAMPLES})",
        ablation_mc, _check_mc),
    "semantics": Experiment(
        "Supplement: cost of each semantics (CarTel, k=10)",
        semantics_costs, _check_semantics),
    "bar_service_batching": Experiment(
        f"Bar: batched vs unbatched service ({bars.SERVICE_REQUESTS} mixed "
        f"requests, concurrency {bars.SERVICE_CONCURRENCY})",
        bars.service_batching, bars.check_service_batching),
    "bar_service_scaling": Experiment(
        f"Bar: {bars.SCALE_WORKERS} worker processes vs one "
        f"({bars.SCALE_REQUESTS} distinct-p_tau requests)",
        bars.service_scaling, bars.check_service_scaling),
    "bar_standing": Experiment(
        "Bar: standing maintenance vs recompute "
        f"({bars.STANDING_SUBSCRIPTIONS} subscriptions, "
        f"{bars.STANDING_MUTATIONS} mutations, {bars.STANDING_TABLE})",
        bars.standing, bars.check_standing),
    "bar_plan_fusion": Experiment(
        "Bar: fused vs unfused mixed-k batch (CarTel, ME 0.95)",
        bars.plan_fusion, bars.check_plan_fusion),
    "bar_backend": Experiment(
        "Bar: native vs python DP kernel (cartel120, k=10)",
        bars.backend, bars.check_backend),
    "bar_storage_depth": Experiment(
        f"Bar: out-of-core scan-depth pushdown (depth {bars.STORAGE_DEPTH})",
        bars.storage_depth, bars.check_storage_depth),
}


def _claim_of(experiment: Experiment) -> str:
    """The claim an entry checks: its check's first docstring line."""
    doc = (experiment.check.__doc__ or experiment.check.__name__).strip()
    return doc.splitlines()[0]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: run and check the named experiments (default:
    all); 1 when a claim fails, 2 for an unknown name."""
    names = list(argv if argv is not None else sys.argv[1:]) or list(
        EXPERIMENTS
    )
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    failed = []
    started = time.perf_counter()
    for name in names:
        experiment = EXPERIMENTS[name]
        start = time.perf_counter()
        rows = experiment.run()
        print_series(experiment.title, rows)
        print(f"claim: {_claim_of(experiment)}")
        try:
            experiment.check(rows)
        except AssertionError as exc:
            failed.append(name)
            verdict = f"FAILED: {exc}"
        else:
            verdict = "holds"
        print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)")
    total = f"{time.perf_counter() - started:.1f} s"
    if failed:
        print(
            f"\n{len(failed)} of {len(names)} claims failed: "
            f"{', '.join(failed)} ({total})",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(names)} claims hold ({total})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
