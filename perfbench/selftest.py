"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The checker fails an altered answer, a ``degraded: true`` answer and
   an HTTP 500, and passes the correct answer: three failed of four.
2. Each workload, run for about a second untraced and traced, is
   correct and prints exactly the metrics ``BENCHMARK.json`` names,
   each with its unit.
3. A run sent SIGINT mid-workload exits nonzero without a result and
   leaves no child process and no run directory behind.

Takes a few minutes; exits nonzero on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from checks import Tally, failure
from common import BUILD_DIR, ROOT, HTTPResult

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]


def check_checker() -> None:
    reference = b'{"table": "me", "k": 5, "semantics": "pt_k", "answer": [1, 2]}'
    body = reference[:-1] + b', "elapsed_ms": 0.412}'
    cases = [
        HTTPResult(200, body, 1.0),
        HTTPResult(200, body.replace(b"[1, 2]", b"[1, 3]"), 1.0),
        HTTPResult(
            200,
            reference[:-1] + b', "degraded": true, "elapsed_ms": 0.412}',
            1.0,
        ),
        HTTPResult(500, b'{"error": "internal error: boom", "elapsed_ms": 1.0}', 1.0),
    ]
    tally = Tally()
    for case in cases:
        tally.record(failure(case, reference))
    assert (tally.attempted, tally.failed) == (4, 3), tally.reasons
    print("checker: 3 of 4 ops failed as expected:", "; ".join(tally.reasons))


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            out = subprocess.run(
                [*RUN, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert out.returncode == 0, out.stderr[-3000:]
            result = json.loads(out.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            print(f"{workload} trace={trace}: {result['attempted']} ops, "
                  f"all {len(got)} metrics with units")


def _survivors(marker: str) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if marker.encode() in cmdline:
                found.append(int(entry.name))
    return found


def check_interrupt() -> None:
    runs = BUILD_DIR / "runs"
    before = set(runs.iterdir()) if runs.is_dir() else set()
    proc = subprocess.Popen(
        [*RUN, "--workload", "standing_rw", "--seed", "3",
         "--seconds", "20", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    time.sleep(12.0)  # past set-up, inside the timed window
    assert proc.poll() is None, "the run ended before it was interrupted"
    proc.send_signal(signal.SIGINT)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode != 0, "an interrupted run must fail"
    assert b'"metrics"' not in out, "an interrupted run printed a result"
    after = set(runs.iterdir()) if runs.is_dir() else set()
    assert after <= before, f"run directories left: {after - before}"
    left = _survivors("server_child.py") + _survivors("probe_child.py")
    assert not left, f"processes left: {left}"
    print(f"SIGINT: exit {proc.returncode}, no process or directory left")


def main() -> int:
    os.chdir(ROOT)
    check_checker()
    check_workloads()
    check_interrupt()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
