"""Backend ablation: the compiled DP kernel vs the numpy path.

Runs the PR's target workload — ``me_shared_prefix_cartel120_k10``
from the committed baseline suite (a 120-segment CarTel-style ME
table, ``k=10``, ``p_tau=1e-3``) — under both DP backends and asserts

* the answers are **byte-identical** (scores, probabilities, vectors);
* native is at least **MIN_SPEEDUP x** faster than python on this
  machine, when the native kernel is available.

The speedup is a same-machine, same-process ratio, so it needs no
calibration normalization; the report additionally prices both runs
in calibrated cost-model units per second so nightly artifacts are
comparable across machines.

Run as pytest (``pytest benchmarks/bench_ablation_backend.py -s``) or
standalone (``python benchmarks/bench_ablation_backend.py [--json
PATH]``, exits nonzero below the bar).  On machines without a C
compiler the bar is skipped (reported as ``native_available: false``)
— the numpy path is the only backend there.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

#: Workload shape — the baseline suite's ``me_shared_prefix_cartel120_k10``.
SEGMENTS = 120
K = 10
P_TAU = 1e-3
MAX_LINES = 200

#: The acceptance bar: native >= 3x python on the target workload.
MIN_SPEEDUP = 3.0

#: Timing repeats (best-of).
REPEATS = 3


def run_comparison() -> dict[str, Any]:
    """Both backends over the identical prefix, plus the speedup."""
    from repro.api.calibration import load_cost_model
    from repro.api.planner import exact_cost
    from repro.bench.runner import time_callable
    from repro.bench.workloads import cartel_workload, congestion_scorer
    from repro.core import kernels
    from repro.core.distribution import prepare_scored_prefix
    from repro.core.dp import dp_distribution

    table = cartel_workload(segments=SEGMENTS)
    prefix = prepare_scored_prefix(
        table, congestion_scorer(), K, p_tau=P_TAU
    )
    units = exact_cost(len(prefix), K, prefix.me_member_count())
    model = load_cost_model()

    python_s = time_callable(
        lambda: dp_distribution(
            prefix, K, max_lines=MAX_LINES, backend="python"
        ),
        repeats=REPEATS,
    ).seconds
    result: dict[str, Any] = {
        "workload": {
            "name": "me_shared_prefix_cartel120_k10",
            "segments": SEGMENTS,
            "k": K,
            "p_tau": P_TAU,
            "max_lines": MAX_LINES,
            "n": len(prefix),
            "cost_units": units,
        },
        "python": {
            "elapsed_s": round(python_s, 4),
            "units_per_s": round(units / python_s, 1),
        },
        "native_available": kernels.native_available(),
        "min_speedup": MIN_SPEEDUP,
        "cost_model_source": model.source,
    }
    if not result["native_available"]:
        from repro.core.kernels import build

        result["native_error"] = build.load_error() or "kernel not loadable"
        return result

    native_s = time_callable(
        lambda: dp_distribution(
            prefix, K, max_lines=MAX_LINES, backend="native"
        ),
        repeats=REPEATS,
    ).seconds
    native = dp_distribution(prefix, K, max_lines=MAX_LINES, backend="native")
    python = dp_distribution(prefix, K, max_lines=MAX_LINES, backend="python")
    assert (
        native.scores == python.scores
        and native.probs == python.probs
        and native.vectors == python.vectors
    ), "native backend diverged from the numpy path"

    result["native"] = {
        "elapsed_s": round(native_s, 4),
        "units_per_s": round(units / native_s, 1),
    }
    result["speedup"] = round(python_s / native_s, 2)
    return result


def test_native_backend_beats_python_by_bar() -> None:
    """CI bar: native >= MIN_SPEEDUP x python, byte-identical answers."""
    import pytest

    result = run_comparison()
    print(json.dumps(result, indent=2))
    if not result["native_available"]:
        pytest.skip(f"native kernel unavailable: {result['native_error']}")
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"native speedup {result['speedup']}x below the "
        f"{MIN_SPEEDUP}x bar: {result}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the result document to PATH")
    args = parser.parse_args(argv)
    result = run_comparison()
    print(json.dumps(result, indent=2))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.json}")
    if not result["native_available"]:
        print(
            "SKIP: native kernel unavailable "
            f"({result['native_error']}); no bar to enforce",
            file=sys.stderr,
        )
        return 0
    if result["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {result['speedup']}x below the "
            f"{MIN_SPEEDUP}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    import pathlib

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
    )
    raise SystemExit(main())
