"""The ``window_slide`` workload, in a process of its own.

Usage: ``window_child.py --seed N --seconds S --trace 0|1 --out PATH``

One op is one ``SlidingWindowTopK.append`` followed by
``distribution()`` on a ``window=500, k=5`` window fed an ME-free
seeded stream.  The process prints ``ready`` once set up, then waits
for ``go`` on stdin (anything else ends it), runs the timed window and
writes its records to PATH.  With ``--trace 1`` a second, traced
window follows the untraced one.  Afterwards every op is checked
against an ``incremental=False`` window fed the same stream.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from statistics import NormalDist
from typing import Any

import numpy as np

from common import (
    Children,
    MachineRef,
    ProbeProcess,
    percentile,
    pin_program,
    settle,
    use_source,
    vm_hwm_mib,
)

WINDOW = 500
K = 5
WARM_OPS = 50


class Stream:
    """Seeded ME-free arrivals from the synthetic marginals: scores
    N(150, 60), probabilities U(0.05, 0.95).

    Stratified: every block of ``BLOCK`` arrivals draws once from each
    of ``BLOCK`` equal-probability strata of both marginals, in a seeded
    order.  A 500-arrival window then always holds nearly the same
    values, so seeds change the order but not the work; free draws
    moved the op p50 by 15% from one seed to another.  Rows are kept so
    the check can replay them.
    """

    BLOCK = 100

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._normal = NormalDist(150.0, 60.0)
        self._pending: list[tuple[float, float]] = []
        self.rows: list[tuple[float, float]] = []

    def _block(self) -> list[tuple[float, float]]:
        strata = np.arange(self.BLOCK)
        score_q = (self._rng.permutation(strata) + self._rng.random(self.BLOCK)) / self.BLOCK
        prob_q = (self._rng.permutation(strata) + self._rng.random(self.BLOCK)) / self.BLOCK
        return [
            (self._normal.inv_cdf(float(sq)), 0.05 + 0.9 * float(pq))
            for sq, pq in zip(score_q, prob_q)
        ]

    def next(self) -> tuple[float, float]:
        if not self._pending:
            self._pending = self._block()[::-1]
        row = self._pending.pop()
        self.rows.append(row)
        return row


def slide(window: Any, row: tuple[float, float]) -> Any:
    window.append({"score": row[0]}, probability=row[1])
    return window.distribution()


def timed(window: Any, stream: Stream, seconds: float, ref: MachineRef) -> dict[str, Any]:
    """Closed loop of slides; each op divided by the local reference."""
    gc.collect()
    records: dict[str, Any] = {"ms": [], "first": len(stream.rows), "pmfs": []}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ref.sample()
        scale = ref.scale()
        row = stream.next()
        t0 = time.perf_counter()
        pmf = slide(window, row)
        records["ms"].append((time.perf_counter() - t0) * 1e3 * scale)
        records["pmfs"].append((np.array(pmf.scores), np.array(pmf.probs)))
    records["elapsed_s"] = time.perf_counter() - start
    return records


def same_pmf(got: tuple[np.ndarray, np.ndarray], want: Any) -> bool:
    """Line for line when the line budget coalesced both alike, else
    equal mass and expectation (coalescing may merge lines
    differently; the repository's delta suite holds the same bar)."""
    scores, probs = got
    ws, wp = np.array(want.scores), np.array(want.probs)
    if len(scores) == len(ws) and np.allclose(scores, ws) and np.allclose(
        probs, wp, atol=1e-12
    ):
        return True
    mass, want_mass = probs.sum(), wp.sum()
    mean, want_mean = (scores * probs).sum(), (ws * wp).sum()
    return bool(
        abs(mass - want_mass) <= 1e-9
        and abs(mean - want_mean) <= 1e-9 * max(1.0, abs(want_mean))
    )


def check(stream: Stream, phases: list[dict[str, Any]]) -> tuple[int, int, list[str]]:
    """Replay the stream into an ``incremental=False`` window."""
    from repro.stream.window import SlidingWindowTopK

    checked = {}
    for phase in phases:
        for offset, pmf in enumerate(phase["pmfs"]):
            checked[phase["first"] + offset] = pmf
    scratch = SlidingWindowTopK(window=WINDOW, k=K, incremental=False)
    attempted = failed = 0
    reasons: list[str] = []
    for index, row in enumerate(stream.rows):
        scratch.append({"score": row[0]}, probability=row[1])
        if index in checked:
            attempted += 1
            if not same_pmf(checked[index], scratch.distribution()):
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"slide {index} differs from the scratch window")
    return attempted, failed, reasons


def traced_layers(
    window: Any, stream: Stream, seconds: float, ref: MachineRef,
    untraced: dict[str, Any],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """A second, traced timed window: its per-layer metrics and records."""
    from tracing import Spans, Tracer, install, layer_metrics

    tracer = Tracer()
    install(tracer)
    begin = time.perf_counter()
    traced = timed(window, stream, seconds, ref)
    spans = Spans(tracer.spans, begin, time.perf_counter())
    ops = len(traced["ms"])
    layers: dict[str, Any] = layer_metrics(
        spans, reads=ops, ops=ops, client={},
        metrics_before=None, metrics_after=None,
    )
    layers["trace.overhead_pct"] = (
        (percentile(traced["ms"], 50) / percentile(untraced["ms"], 50) - 1.0) * 100,
        "%",
    )
    return layers, traced


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    pin_program()
    use_source()
    from repro.stream.window import SlidingWindowTopK

    stream = Stream(args.seed)
    window = SlidingWindowTopK(window=WINDOW, k=K)
    for _ in range(WINDOW):
        row = stream.next()
        window.append({"score": row[0]}, probability=row[1])
    for _ in range(WARM_OPS):
        slide(window, stream.next())
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    # The reference runs in a probe process on this CPU, as for the
    # server, away from this process's own cache and heap state.
    children = Children()
    try:
        ref = MachineRef(ProbeProcess(children, args.out.with_suffix(".probe.log")))
        # Set-up is CPU-bound too: scaled by the reference taken right after.
        setup_ref_ms = settle(ref)
        untraced = timed(window, stream, args.seconds, ref)
        phases = [untraced]
        result: dict[str, Any] = {"peak_rss_mib": vm_hwm_mib()}
        if args.trace:
            result["layers"], traced = traced_layers(
                window, stream, args.seconds, ref, untraced
            )
            phases.append(traced)
    finally:
        children.stop_all()
    result["machine_ref_ms"] = ref.median()
    result["setup_ref_ms"] = setup_ref_ms
    result["attempted"], result["failed"], result["reasons"] = check(stream, phases)
    result["ms"] = untraced["ms"]
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
