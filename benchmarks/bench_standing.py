"""Standing-query maintenance benchmark: delta tiers vs recompute.

Drives the identical mixed mutation stream (inserts, expires,
probability and score updates) over a 1k-tuple mutable table twice:

* **maintained** — 20 standing subscriptions kept current by the
  :class:`~repro.standing.registry.StandingRegistry`, which classifies
  each delta per subscription into the skip / recompute tiers
  (Theorem-2 depth arguments decide when the old answer provably
  survives; the recomputes share one sort per table version and one
  PMF per ``(k, p_tau)``);
* **recompute** — the pre-subscription behavior: after every mutation,
  re-run all 20 queries through an ordinary session (version-keyed
  caches miss by design, shared-prefix reuse within a version still
  applies, so the baseline is not a strawman).

The acceptance bar of the standing-queries PR: **maintained throughput
≥ 3x recompute** on this CI-sized stream.  The gap widens with table
size and subscription count, since most deltas land below the Theorem-2
boundary and cost O(1) per subscription to classify.

Run as pytest (``pytest benchmarks/bench_standing.py -s``) or
standalone (``python benchmarks/bench_standing.py [--json PATH]``,
exits nonzero below the bar).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import Any

import numpy as np

#: The mutable table under maintenance (ME-free: the skip tier's
#: test is at its sharpest, which is the workload the subsystem is
#: built for).
TABLE_SPEC = "synthetic:tuples=1000,me=0.0,seed=11"

SUBSCRIPTIONS = 20
MUTATIONS = 40
SEED = 11
P_TAU = 0.05

#: The acceptance bar.
MIN_SPEEDUP = 3.0


def _fresh_table():
    from repro.datasets.specs import generate_from_spec
    from repro.standing import MutableUncertainTable

    return MutableUncertainTable.from_table(
        generate_from_spec(TABLE_SPEC)
    )


def _specs() -> list:
    """20 subscriptions cycling over every registered semantics."""
    from repro.api.registry import available_semantics
    from repro.api.spec import QuerySpec

    semantics = itertools.cycle(sorted(available_semantics()))
    ks = itertools.cycle((2, 5, 10, 20))
    return [
        QuerySpec(
            table="live", scorer="score", k=next(ks),
            semantics=next(semantics), p_tau=P_TAU,
        )
        for _ in range(SUBSCRIPTIONS)
    ]


def _mutation_script(mutations: int) -> list[tuple[str, dict[str, Any]]]:
    """A deterministic mixed stream, valid against a scratch replay."""
    rng = np.random.default_rng(SEED)
    table = _fresh_table()
    script: list[tuple[str, dict[str, Any]]] = []
    counter = itertools.count()
    for _ in range(mutations):
        op = ("insert", "expire", "update_probability", "update_score")[
            rng.integers(4)
        ]
        # Scores come from the table's own marginal (the synthetic
        # default, N(150, 60)): a realistic stream touches the long
        # tail far more often than the top-k boundary region.
        if op == "insert":
            payload: dict[str, Any] = {
                "tid": f"m{next(counter)}",
                "attributes": {"score": float(rng.normal(150.0, 60.0))},
                "probability": float(rng.uniform(0.05, 0.95)),
            }
        else:
            victim = table.tids[rng.integers(len(table.tids))]
            payload = {"tid": victim}
            if op == "update_probability":
                payload["probability"] = float(rng.uniform(0.05, 0.95))
            elif op == "update_score":
                payload["attributes"] = {
                    "score": float(rng.normal(150.0, 60.0))
                }
        table.apply_payload(op, payload)
        script.append((op, payload))
    return script


def _measure_maintained(
    script: list[tuple[str, dict[str, Any]]],
) -> dict[str, Any]:
    from repro.api.session import Session
    from repro.standing import StandingRegistry

    registry = StandingRegistry(Session({"live": _fresh_table()}))
    for spec in _specs():
        registry.subscribe(spec)
    start = time.perf_counter()
    for op, payload in script:
        registry.mutate("live", op, payload)
    elapsed = time.perf_counter() - start
    stats = registry.describe()
    return {
        "mode": "maintained",
        "elapsed_s": round(elapsed, 3),
        "mutations_per_s": round(len(script) / elapsed, 2),
        "skip": stats["skip"],
        "recompute": stats["recompute"],
    }


def _measure_recompute(
    script: list[tuple[str, dict[str, Any]]],
) -> dict[str, Any]:
    from repro.api.session import Session

    table = _fresh_table()
    session = Session({"live": table})
    specs = _specs()
    for spec in specs:  # the initial cold answers, as for subscribe()
        session.execute(spec)
    start = time.perf_counter()
    for op, payload in script:
        table.apply_payload(op, payload)
        for spec in specs:
            session.execute(spec)
    elapsed = time.perf_counter() - start
    return {
        "mode": "recompute",
        "elapsed_s": round(elapsed, 3),
        "mutations_per_s": round(len(script) / elapsed, 2),
    }


def run_comparison(mutations: int = MUTATIONS) -> dict[str, Any]:
    """Both maintenance strategies over the identical stream."""
    script = _mutation_script(mutations)
    recompute = _measure_recompute(script)
    maintained = _measure_maintained(script)
    speedup = maintained["mutations_per_s"] / recompute["mutations_per_s"]
    return {
        "workload": {
            "table": TABLE_SPEC,
            "subscriptions": SUBSCRIPTIONS,
            "mutations": mutations,
            "p_tau": P_TAU,
        },
        "recompute": recompute,
        "maintained": maintained,
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
    }


def test_maintained_beats_recompute() -> None:
    """Delta maintenance serves the stream >= 3x faster."""
    from repro.bench.reporting import print_series

    report = run_comparison()
    print_series(
        f"Standing maintenance ({SUBSCRIPTIONS} subscriptions, "
        f"{MUTATIONS} mixed mutations, {TABLE_SPEC})",
        [report["recompute"], report["maintained"]],
        columns=("mode", "elapsed_s", "mutations_per_s"),
    )
    tiers = report["maintained"]
    print(
        f"  tiers: skip={tiers['skip']} recompute={tiers['recompute']}"
    )
    print(f"  speedup: {report['speedup']}x (bar {MIN_SPEEDUP}x)")
    assert report["speedup"] >= MIN_SPEEDUP, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON")
    parser.add_argument("--mutations", type=int, default=MUTATIONS)
    args = parser.parse_args(argv)
    report = run_comparison(args.mutations)
    print(json.dumps(report, indent=2))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if report["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {report['speedup']}x below the "
            f"{MIN_SPEEDUP}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
