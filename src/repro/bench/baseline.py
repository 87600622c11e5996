"""The committed performance baseline (``repro bench --json``).

One fixed set of named workloads covering the three performance
pillars — the independent-tuples dynamic program, the shared-prefix
mutual-exclusion path (with its per-ending ablation twin for the
trajectory), and the sliding window — timed with
:func:`repro.bench.runner.time_callable` and written to
``BENCH_core.json`` at the repository root.  The committed file gives
future changes a trajectory to compare against; the ``tiny_*``
workloads double as the CI perf-smoke set (``repro bench --tiny
--check BENCH_core.json`` fails on crash or on a >3x slowdown against
the committed numbers).

Workload sizes are fixed and seeded, so two runs on the same machine
are comparable; absolute numbers across machines are not, which is why
every baseline also times a fixed *calibration* workload in the same
run and the regression guard compares calibration-normalized ratios —
a uniformly slower CI runner cancels out, and only genuine relative
slowdowns (beyond the generous factor) trip the guard.

Schema 2 times every workload on each DP backend: a workload's entry
is ``{"python": seconds, "native": seconds}``, with ``native`` only
where the compiled kernel loads (a ``REPRO_BACKEND`` pin times that
backend alone).  The guard compares each backend present in both
files and reads a schema-1 entry (``{"seconds": s}``, recorded under
``REPRO_BACKEND=python``) as python-only; a backend the run timed but
the committed file never did is reported by
:func:`uncompared_backends`, and ``repro bench --check`` fails on it
rather than pass having compared nothing.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Callable

import numpy as np

from repro.bench.ablations import dp_distribution_per_ending
from repro.bench.runner import time_callable
from repro.bench.workloads import cartel_workload, congestion_scorer
from repro.core import kernels
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import dp_distribution
from repro.stream.window import SlidingWindowTopK

#: Default output path, relative to the working directory.
DEFAULT_BASELINE_PATH = "BENCH_core.json"

#: Regression-guard threshold: fail when a workload runs this many
#: times slower than the committed baseline.
DEFAULT_GUARD_FACTOR = 3.0

#: The paper's experimental probability threshold.
P_TAU = 1e-3


def _independent_case(tuples: int, k: int) -> Callable[[], object]:
    from repro.bench.workloads import synthetic_workload

    table = synthetic_workload(tuples=tuples, me_fraction=0.0)
    prefix = prepare_scored_prefix(table, "score", k, p_tau=P_TAU)
    return lambda: dp_distribution(prefix, k)


def _me_case(
    segments: int, k: int, per_ending: bool
) -> Callable[[], object]:
    table = cartel_workload(segments=segments)
    prefix = prepare_scored_prefix(table, congestion_scorer(), k, p_tau=P_TAU)
    algorithm = dp_distribution_per_ending if per_ending else dp_distribution
    return lambda: algorithm(prefix, k)


def _streaming_case(window: int, k: int, slides: int) -> Callable[[], object]:
    def run() -> float:
        win = SlidingWindowTopK(window=window, k=k)
        rng = np.random.default_rng(11)
        for _ in range(window):
            win.append(
                {"score": float(rng.uniform(0, 1000))},
                probability=float(rng.uniform(0.2, 1.0)),
            )
        total = 0.0
        for _ in range(slides):
            win.append(
                {"score": float(rng.uniform(0, 1000))},
                probability=float(rng.uniform(0.2, 1.0)),
            )
            total += win.distribution().expectation()
        return total

    return run


def workload_factories(tiny_only: bool = False) -> dict[str, Callable]:
    """Named workload constructors (each returns a timed callable).

    ``tiny_*`` workloads are sized for the CI perf-smoke step; the full
    set (default) additionally covers paper-scale configurations.
    """
    tiny: dict[str, Callable[[], Callable]] = {
        "tiny_independent_dp_n80_k5": lambda: _independent_case(80, 5),
        "tiny_me_shared_prefix_cartel40_k5": lambda: _me_case(40, 5, False),
        "tiny_streaming_w60_k3": lambda: _streaming_case(60, 3, 30),
    }
    if tiny_only:
        return tiny
    full: dict[str, Callable[[], Callable]] = {
        "independent_dp_n300_k10": lambda: _independent_case(300, 10),
        "me_shared_prefix_cartel120_k10": lambda: _me_case(120, 10, False),
        "me_per_ending_cartel120_k10": lambda: _me_case(120, 10, True),
        "streaming_w500_k5": lambda: _streaming_case(500, 5, 100),
    }
    return {**tiny, **full}


def _calibration_factory() -> Callable[[], object]:
    """The fixed machine-speed probe timed alongside every baseline.

    Plain Python + numpy that calls nothing in :mod:`repro`, so its
    speed cannot depend on which DP backend loads: a probe that ran the
    DP itself sped up with the compiled kernel while the other
    workloads did not, and reported false regressions.  It folds rows
    into a coalesced sum distribution — Python loops over small numpy
    arrays, like the guarded workloads — deterministically, and fast
    enough to repeat.
    """
    rng = np.random.default_rng(7)
    rows = [
        (float(score), float(prob))
        for score, prob in zip(
            rng.uniform(0.0, 1000.0, 400), rng.uniform(0.05, 1.0, 400)
        )
    ]

    def run() -> float:
        scores, probs = np.zeros(1), np.ones(1)
        for score, prob in rows:
            scores = np.concatenate((scores, scores + score))
            probs = np.concatenate((probs * (1.0 - prob), probs * prob))
            order = np.argsort(scores, kind="stable")
            scores, probs = scores[order], probs[order]
            if len(scores) > 64:
                span = scores[-1] - scores[0]
                bucket = ((scores - scores[0]) * (63.0 / span)).astype(int)
                starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
                weighted = np.add.reduceat(probs * scores, starts)
                probs = np.add.reduceat(probs, starts)
                scores = weighted / probs
        return float(scores @ probs)

    return run


def timed_backends() -> list[str]:
    """The DP backends a baseline times: the pinned one under
    ``REPRO_BACKEND``, else python, plus native where the kernel
    loads."""
    if os.environ.get(kernels.BACKEND_ENV, "").strip():
        return [kernels.resolve_backend()]
    return ["python", "native"] if kernels.native_available() else ["python"]


def run_baseline(
    *, tiny_only: bool = False, repeats: int = 3
) -> dict[str, object]:
    """Time every workload on each backend; return the schema-2
    baseline."""
    backends = timed_backends()
    workloads: dict[str, dict[str, float]] = {}
    for name, factory in workload_factories(tiny_only).items():
        case = factory()  # setup (dataset + prefix) outside the timer
        workloads[name] = {}
        for backend in backends:
            with kernels.pinned(backend):
                timing = time_callable(case, repeats=repeats)
            workloads[name][backend] = timing.seconds
    calibration = time_callable(
        _calibration_factory(), repeats=max(3, repeats)
    ).seconds
    return {
        "schema": 2,
        "meta": {
            "repeats": repeats,
            "tiny_only": tiny_only,
            "backends": backends,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "calibration": {"seconds": calibration},
        "workloads": workloads,
    }


def write_baseline(data: dict, path: str | Path) -> None:
    """Write a baseline dict as pretty JSON."""
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def read_baseline(path: str | Path) -> dict:
    """Read a committed baseline file."""
    return json.loads(Path(path).read_text())


def _calibration_scale(current: dict, committed: dict) -> float:
    """How much slower the current machine is than the committed one.

    The ratio of the two runs' calibration probes; 1.0 when either
    baseline lacks a calibration entry (pre-calibration files fall
    back to absolute comparison).
    """
    now = float(current.get("calibration", {}).get("seconds", 0.0))
    before = float(committed.get("calibration", {}).get("seconds", 0.0))
    if now > 0.0 and before > 0.0:
        return now / before
    return 1.0


def _backend_seconds(entry: dict) -> dict[str, float]:
    """A workload entry as ``{backend: seconds}``; a schema-1 entry
    ``{"seconds": s}`` was recorded under ``REPRO_BACKEND=python``."""
    if "seconds" in entry:
        return {"python": float(entry["seconds"])}
    return {backend: float(value) for backend, value in entry.items()}


def check_against_baseline(
    current: dict,
    committed: dict,
    *,
    factor: float = DEFAULT_GUARD_FACTOR,
) -> list[str]:
    """Regression-guard: workloads slower than ``factor`` x committed.

    Workload times are normalized by the in-run calibration probe
    before comparing, so a uniformly slower machine does not trip the
    guard.  Only workloads and backends present in both baselines are
    compared; returns human-readable violation lines (empty = pass).
    """
    violations: list[str] = []
    scale = _calibration_scale(current, committed)
    committed_workloads = committed.get("workloads", {})
    for name, entry in current.get("workloads", {}).items():
        reference = _backend_seconds(committed_workloads.get(name, {}))
        for backend, now in _backend_seconds(entry).items():
            if backend not in reference:
                continue
            before = reference[backend] * scale
            if before > 0.0 and now > factor * before:
                violations.append(
                    f"{name} ({backend}): {now:.4f}s vs baseline "
                    f"{before:.4f}s (machine-normalized, x{scale:.2f}; "
                    f"{now / before:.1f}x > {factor:.1f}x guard)"
                )
    return violations


def uncompared_backends(current: dict, committed: dict) -> list[str]:
    """The backends ``current`` timed that ``committed`` holds no
    timing for in any workload both files name, so that
    :func:`check_against_baseline` compared nothing for them."""
    committed_workloads = committed.get("workloads", {})
    timed: list[str] = []
    compared: set[str] = set()
    for name, entry in current.get("workloads", {}).items():
        reference = _backend_seconds(committed_workloads.get(name, {}))
        for backend in _backend_seconds(entry):
            if backend not in timed:
                timed.append(backend)
            if backend in reference:
                compared.add(backend)
    return [backend for backend in timed if backend not in compared]
