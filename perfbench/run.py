"""The benchmark every performance claim about this repository uses.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (``perfbench/README.md``
says why each exists and which layer it puts in charge):

``hot_reads``     warmed shapes over keep-alive HTTP (transport-bound)
``cold_reads``    a fresh shape per read over three tables (compute-bound)
``standing_rw``   writes to a subscribed mutable table, reads beside them
``window_slide``  ``SlidingWindowTopK`` append + query, in-process

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a separate traced run.  The line before it records
the environment (resolved DP backend, Python, numpy, nproc, machine
reference).  Every child process is stopped and every file the run
wrote is removed on every exit path, including SIGINT and SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any

from common import (
    BENCH_DIR,
    BUILD_DIR,
    HASH_SEED,
    Children,
    REF_NOMINAL_MS,
    MachineRef,
    ProbeProcess,
    mean,
    percentile,
    pin_cpus,
    pinned_environ,
    require_source,
    settle,
    steady_percentile,
    use_source,
)

WORKLOADS = ("hot_reads", "cold_reads", "standing_rw", "window_slide")

#: Set-ups per untraced run, each timed for its share of the run;
#: ``setup_s`` is their median.
SETUPS = 3

#: ``cold_reads`` reads replayed on the python DP backend when traced.
PYTHON_SUBSET = 13

Metrics = dict[str, tuple[float, str]]


class Context:
    def __init__(self, args: argparse.Namespace, children: Children, run_dir: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.children = children
        self.dir = run_dir
        self.ref = MachineRef()

    def probe_program_cpu(self) -> None:
        """Take the reference on the server's CPU from here on."""
        self.ref = MachineRef(ProbeProcess(self.children, self.dir / "probe.log"))


def describe_environment(ctx: Context) -> dict[str, Any]:
    """Build the kernel (outside any timed set-up) and report what
    resolved, from a process with the program's pinned environment."""
    code = (
        "import json, platform, numpy\n"
        "from repro.core.kernels import resolve_backend\n"
        "print(json.dumps({'dp_backend': resolve_backend(None),"
        " 'python': platform.python_version(),"
        " 'numpy': numpy.__version__}))\n"
    )
    out = ctx.children.run(
        [sys.executable, "-c", code],
        env=pinned_environ(),
        log=ctx.dir / "environment.log",
        timeout=600.0,
    )
    info = json.loads(out.strip().splitlines()[-1])
    info["nproc"] = os.cpu_count()
    return info


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
class HTTPWorkload:
    """Set-up, timed window and check of one HTTP workload."""

    def __init__(self, ctx: Context) -> None:
        import http_workloads as hw

        self.hw = hw
        self.ctx = ctx
        self.standing_inputs = (
            hw.standing_inputs(ctx.seed) if ctx.workload == "standing_rw" else None
        )

    def setup(self, name: str, trace: bool, backend: str | None = None) -> Any:
        hw, ctx = self.hw, self.ctx
        if ctx.workload == "hot_reads":
            return hw.setup_hot(ctx.children, ctx.dir, name, trace)
        if ctx.workload == "cold_reads":
            return hw.setup_cold(ctx.children, ctx.dir, name, trace, backend)
        return hw.Standing(ctx.children, ctx.dir, name, trace, self.standing_inputs)

    @staticmethod
    def server(handle: Any) -> Any:
        return getattr(handle, "server", handle)

    def run(self, handle: Any, seconds: float, limit: int | None = None) -> Any:
        hw, ctx = self.hw, self.ctx
        if ctx.workload == "hot_reads":
            return hw.run_hot(handle, ctx.seed, seconds)
        if ctx.workload == "cold_reads":
            return hw.run_cold(handle, ctx.seed, seconds, ctx.ref, limit=limit)
        return hw.run_standing(handle, seconds, ctx.ref)

    def check(self, handle: Any, phase: Any, tally: Any) -> None:
        hw, ctx = self.hw, self.ctx
        if ctx.workload == "hot_reads":
            hw.check_hot(phase, tally)
        elif ctx.workload == "cold_reads":
            hw.check_cold(phase, tally)
        else:
            hw.check_standing(handle, phase, tally)

    def op_p50(self, phase: Any) -> float:
        kind = self.hw.OP_KIND.get(self.ctx.workload, "read")
        return percentile(self.hw.latencies(phase, kind), 50)

    def untraced(self, tally: Any) -> Metrics:
        """``SETUPS`` complete set-ups, each timed for its share of the
        run: per-process effects average out, and ``setup_s`` is the
        median set-up, scaled by the reference taken right after it
        (set-up is CPU-bound too)."""
        phases, setups, rss = [], [], []
        for index in range(SETUPS):
            start = time.perf_counter()
            handle = self.setup(f"setup{index}", trace=False)
            elapsed = time.perf_counter() - start
            setups.append(elapsed * REF_NOMINAL_MS / settle(self.ctx.ref))
            phase = self.run(handle, self.ctx.seconds / SETUPS)
            rss.append(self.server(handle).peak_rss_mib())
            self.check(handle, phase, tally)
            handle.stop()
            phases.append(phase)
        metrics = self.hw.end_to_end(self.ctx.workload, phases, statistics.median(rss))
        metrics["setup_s"] = (statistics.median(setups), "s")
        return metrics

    def traced(self, tally: Any) -> Metrics:
        hw, ctx = self.hw, self.ctx
        settle(ctx.ref)
        plain = self.setup("plain", trace=False)
        baseline = self.op_p50(self.run(plain, ctx.seconds))
        plain.stop()

        handle = self.setup("traced", trace=True)
        server = self.server(handle)
        before = server.get_json("/metrics")
        phase = self.run(handle, ctx.seconds)
        after = server.get_json("/metrics")
        self.check(handle, phase, tally)
        handle.stop()
        import tracing

        spans = tracing.load(server.trace_out, phase.start, phase.end)
        reads = len(hw.latencies(phase, "read"))
        ops = len(hw.latencies(phase, hw.OP_KIND.get(ctx.workload, "read")))
        layers = tracing.layer_metrics(
            spans, reads=reads, ops=ops,
            client=hw.client_views(phase, ctx.workload),
            metrics_before=before, metrics_after=after,
        )
        layers["trace.overhead_pct"] = (
            (self.op_p50(phase) / baseline - 1.0) * 100 if baseline else 0.0, "%"
        )
        python_dp = 0.0
        if ctx.workload == "cold_reads":
            slow = self.setup("python", trace=True, backend="python")
            subset = self.run(slow, ctx.seconds, limit=PYTHON_SUBSET)
            self.check(slow, subset, tally)
            slow.stop()
            dp = tracing.load(slow.trace_out, subset.start, subset.end).named(
                *tracing.DP_CALLS
            )
            python_dp = mean([tracing.duration_ms(span) for span in dp])
        layers["dp.python.ms_per_call"] = (python_dp, "ms")
        return layers


def run_http(ctx: Context, trace: bool) -> tuple[Any, Metrics]:
    from checks import Tally

    tally = Tally()
    ctx.probe_program_cpu()
    workload = HTTPWorkload(ctx)
    metrics = workload.traced(tally) if trace else workload.untraced(tally)
    return tally, metrics


# ----------------------------------------------------------------------
# window_slide
# ----------------------------------------------------------------------
def run_window_process(
    ctx: Context, index: int, seconds: float, trace: bool
) -> tuple[float, dict[str, Any]]:
    """One window process: its set-up seconds (spawn to ready) and
    the records it wrote.  Each process gets a stream of its own, so a
    run averages several streams: the work per slide depends on the
    stream, and one stream's cost moved the op p50 by a tenth."""
    name = f"window{index}"
    out = ctx.dir / f"{name}.json"
    start = time.perf_counter()
    proc = ctx.children.spawn(
        [sys.executable, str(BENCH_DIR / "window_child.py"),
         "--seed", str(ctx.seed * SETUPS + index), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--out", str(out)],
        env=pinned_environ(),
        log=ctx.dir / f"{name}.log",
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 300.0)
    if not ready or proc.stdout.readline().strip() != b"ready":
        raise RuntimeError(f"window process did not start; see {name}.log")
    setup_s = time.perf_counter() - start
    proc.stdin.write(b"go\n")
    proc.stdin.flush()
    proc.wait(timeout=170.0)
    ctx.children.stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"window process exited {proc.returncode}")
    return setup_s, json.loads(out.read_text())


def run_window(ctx: Context, trace: bool) -> tuple[Any, Metrics]:
    """Traced: one process.  Untraced: ``SETUPS`` processes, each
    timed for its share of the run (as for the HTTP workloads)."""
    from checks import Tally

    count = 1 if trace else SETUPS
    runs = [
        run_window_process(ctx, index, ctx.seconds / count, trace)
        for index in range(count)
    ]
    tally = Tally()
    for _, result in runs:
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        tally.reasons += result["reasons"]
    ctx.ref.readings = [result["machine_ref_ms"] for _, result in runs]
    if trace:
        layers = {name: tuple(value) for name, value in runs[0][1]["layers"].items()}
        layers["dp.python.ms_per_call"] = (0.0, "ms")
        return tally, layers
    ms = [value for _, result in runs for value in result["ms"]]
    return tally, {
        "throughput_ops_per_s": ((len(ms) - tally.failed) / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (steady_percentile(ms, 50), "ms"),
        "op_p90_ms": (steady_percentile(ms, 90), "ms"),
        "setup_s": (
            statistics.median(
                setup_s * REF_NOMINAL_MS / result["setup_ref_ms"]
                for setup_s, result in runs
            ),
            "s",
        ),
        "peak_rss_mib": (
            statistics.median(result["peak_rss_mib"] for _, result in runs), "MiB"
        ),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt(signal.Signals(signum).name)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    require_source()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The client computes reference answers too: pin its hash seed
        # like the program's.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__)), *argv], env)
    os.environ.update(pinned_environ())
    pin_cpus()
    use_source()
    signal.signal(signal.SIGTERM, _interrupt)
    runs = BUILD_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (BUILD_DIR / "tmp").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    children = Children()
    ctx = Context(args, children, run_dir)
    outcome = None
    status = 1
    try:
        environment = describe_environment(ctx)
        runner = run_window if args.workload == "window_slide" else run_http
        tally, metrics = runner(ctx, bool(args.trace))
        outcome = (environment, tally, metrics)
    except KeyboardInterrupt as exc:
        print(f"perfbench: interrupted ({exc})", file=sys.stderr)
        status = 130
    except Exception:
        traceback.print_exc()
        for log in sorted(run_dir.glob("*.log")):
            sys.stderr.write(f"--- {log.name}\n{log.read_text()[-2000:]}")
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        children.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    survivors = Children.survivors()
    if survivors:
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        print(f"perfbench: child processes survived: {survivors}", file=sys.stderr)
        return 1
    if outcome is None:
        return status
    environment, tally, metrics = outcome
    environment["machine_ref_ms"] = ctx.ref.median()
    if args.trace:
        metrics["machine.ref_ms"] = (ctx.ref.median(), "ms")
    for reason in tally.reasons:
        print(f"failed op: {reason}", file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
