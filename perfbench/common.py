"""Plumbing shared by the benchmark's processes.

Paths of the checkout, the pinned environment every program process
runs under, the machine reference probe that CPU-bound timings are
divided by, percentiles, one HTTP call, and child-process lifetime.
"""

from __future__ import annotations

import http.client
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run builds or writes lives here (ignored by git).
BUILD_DIR = ROOT / ".bench_build"
KERNEL_CACHE = BUILD_DIR / "kernels"

#: Fixed hash seed of every process that runs the program.
HASH_SEED = "0"

#: Environment knobs that would change plans, backends or faults.
_CLEARED_ENV = ("REPRO_BACKEND", "REPRO_FAULTS", "REPRO_STORE_CACHE_BYTES")


def require_source() -> None:
    """Exit nonzero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source under {SRC}; run it from the "
            "root of a full checkout"
        )


def pinned_environ(backend: str | None = None) -> dict[str, str]:
    """The environment of every process that runs the program.

    The builtin cost model (an empty ``REPRO_CALIBRATION``), a kernel
    cache the benchmark owns, ``auto`` backend resolution unless a
    backend is named, no fault injection, default storage budgets and
    a fixed hash seed.
    """
    env = dict(os.environ)
    for name in _CLEARED_ENV:
        env.pop(name, None)
    env.update(
        REPRO_CALIBRATION="",
        REPRO_KERNEL_CACHE=str(KERNEL_CACHE),
        PYTHONHASHSEED=HASH_SEED,
        PYTHONPATH=str(SRC),
        # Compiler scratch files stay inside the checkout too.
        TMPDIR=str(BUILD_DIR / "tmp"),
    )
    if backend is not None:
        env["REPRO_BACKEND"] = backend
    return env


#: Environment variable naming the CPU the program's process runs on.
CPU_ENV = "PERFBENCH_CPU"


def pin_cpus() -> None:
    """Put the benchmark and the program on two fixed CPUs.

    Left to the scheduler, the client and the server sometimes shared
    a core and sometimes not, which moved whole runs' latencies by up
    to half.  Called by the benchmark before it starts anything; the
    program's process calls :func:`pin_program`.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.environ[CPU_ENV] = str(cpus[1])
        os.sched_setaffinity(0, {cpus[0]})


def pin_program() -> None:
    """Move this process (before it starts threads) to its CPU."""
    cpu = os.environ.get(CPU_ENV)
    if cpu:
        os.sched_setaffinity(0, {int(cpu)})


def use_source() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# The machine reference
# ----------------------------------------------------------------------
#: What :func:`probe` takes, in ms, on the 2-vCPU x86_64 VM the
#: benchmark was defined on.  CPU-bound timings are reported as
#: ``raw_ms * REF_NOMINAL_MS / ref_ms``: milliseconds on a machine
#: running the probe at this speed.
REF_NOMINAL_MS = 2.0

_PROBE_KEYS = [f"t{i}" for i in range(3000)]
_PROBE_ARRAY = np.arange(20_000, dtype=np.float64)[::-1].copy()


def probe() -> float:
    """Time one fixed Python + numpy task, in ms.

    It allocates and walks a few thousand small records (as the
    program's table code does) and sorts an array; it calls nothing in
    the program, so a faster program never makes it faster.  It only
    tracks how fast the machine runs such code right now.
    """
    start = time.perf_counter()
    rows = {key: (key, i * 0.5, {"score": i}) for i, key in enumerate(_PROBE_KEYS)}
    groups = [(key,) for key in rows]
    ranked = sorted(rows.values(), key=lambda row: -row[1])
    order = np.argsort(_PROBE_ARRAY, kind="stable")
    total = float(np.cumsum(_PROBE_ARRAY[order])[-1]) + ranked[0][1] + len(groups)
    elapsed = (time.perf_counter() - start) * 1e3
    if total < 0:  # keeps the work observable
        raise AssertionError(total)
    return elapsed


class MachineRef:
    """Interleaved probe readings; the local reference is the median
    of the last few, so one disturbed probe does not skew an op.

    ``sampler`` runs one probe and returns its ms; the default runs it
    in this process (right for in-process workloads).
    """

    def __init__(
        self, sampler: Callable[[], float] = probe, window: int = 9
    ) -> None:
        self._sampler = sampler
        self._recent: deque[float] = deque(maxlen=window)
        self.readings: list[float] = []

    def sample(self) -> float:
        value = self._sampler()
        self._recent.append(value)
        self.readings.append(value)
        return value

    def current(self) -> float:
        if not self._recent:
            self.sample()
        return statistics.median(self._recent)

    def scale(self) -> float:
        """Factor turning a raw ms timing into nominal-machine ms."""
        return REF_NOMINAL_MS / self.current()

    def median(self) -> float:
        return statistics.median(self.readings) if self.readings else 0.0


class ProbeProcess:
    """A sampler that runs the probe in ``probe_child.py`` on the
    program's CPU, for workloads whose program is another process."""

    def __init__(self, children: "Children", log: Path) -> None:
        self.proc = children.spawn(
            [sys.executable, str(BENCH_DIR / "probe_child.py")],
            env=pinned_environ(),
            log=log,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def __call__(self) -> float:
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe process exited")
        return float(line)


def settle(ref: MachineRef, count: int = 20) -> float:
    """Take ``count`` readings now; their median, in ms."""
    return statistics.median(ref.sample() for _ in range(count))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


#: Ops per chunk of :func:`steady_percentile` (10 lie beyond p90).
CHUNK_OPS = 100


def steady_percentile(values: list[float], q: float) -> float:
    """Median over consecutive chunks of at least ``CHUNK_OPS`` ops of
    each chunk's percentile ``q`` (the plain percentile below two
    chunks), so a disturbed stretch of a run moves one chunk only."""
    chunks = len(values) // CHUNK_OPS
    if chunks < 2:
        return percentile(values, q)
    size = len(values) // chunks
    return statistics.median(
        percentile(values[i * size:(i + 1) * size], q) for i in range(chunks)
    )


def mean(values: list[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class HTTPResult:
    """One request's outcome as the client saw it."""

    __slots__ = ("status", "body", "latency_ms", "error")

    def __init__(
        self,
        status: int,
        body: bytes,
        latency_ms: float,
        error: str | None = None,
    ) -> None:
        self.status = status
        self.body = body
        self.latency_ms = latency_ms
        self.error = error


def http_call(
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    *,
    conn: http.client.HTTPConnection | None = None,
    timeout: float = 60.0,
) -> HTTPResult:
    """Send one request; time it from send to the last body byte.

    Without ``conn`` a fresh connection is opened and closed around
    the request, the way the CLI clients and ``repro loadgen`` work.
    A transport failure comes back as status 0 with ``error`` set.
    """
    own = conn is None
    if own:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    start = time.perf_counter()
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        latency = (time.perf_counter() - start) * 1e3
        return HTTPResult(response.status, data, latency)
    except (OSError, http.client.HTTPException) as exc:
        latency = (time.perf_counter() - start) * 1e3
        if not own:
            conn.close()
        return HTTPResult(0, b"", latency, f"{type(exc).__name__}: {exc}")
    finally:
        if own:
            conn.close()


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Children:
    """Every process the benchmark starts, stopped on every exit path."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def spawn(
        self, argv: list[str], *, env: dict[str, str], log: Path, **kwargs: Any
    ) -> subprocess.Popen:
        with open(log, "ab") as err:
            proc = subprocess.Popen(
                argv, env=env, cwd=str(ROOT), stderr=err, **kwargs
            )
        self._procs.append(proc)
        return proc

    def run(
        self, argv: list[str], *, env: dict[str, str], log: Path, timeout: float
    ) -> str:
        """Run a child to completion; its stdout, or raise on failure."""
        proc = self.spawn(argv, env=env, log=log, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=timeout)
        finally:
            self.stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(argv[:4])} exited {proc.returncode}; see {log}"
            )
        return out.decode()

    @staticmethod
    def terminate(proc: subprocess.Popen, *, drain_s: float = 15.0) -> None:
        """SIGTERM, then SIGKILL if it outlives its drain; reaped."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=drain_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)

    def stop(self, proc: subprocess.Popen) -> None:
        """Terminate a child and release its pipes."""
        self.terminate(proc)
        for stream in (proc.stdout, proc.stdin):
            if stream is not None:
                stream.close()
        if proc in self._procs:
            self._procs.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self._procs):
            self.stop(proc)

    @staticmethod
    def survivors() -> list[int]:
        """Pids of live processes whose parent is this process."""
        me = os.getpid()
        found = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # Field 4 (ppid) follows the parenthesised command name.
            fields = stat.rsplit(")", 1)[-1].split()
            if len(fields) > 1 and int(fields[1]) == me and fields[0] != "Z":
                found.append(int(entry.name))
        return found


def vm_hwm_mib(pid: int | str = "self") -> float:
    """High-water resident set size of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
