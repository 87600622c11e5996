"""The three workloads that drive one ``repro serve`` child over HTTP.

* ``hot_reads`` -- 30 fixed shapes, warmed during set-up, read by two
  client threads over persistent HTTP/1.1 connections: every read is
  an answer-cache hit, so transport, executor hand-off, session
  lookups and serialization are all that runs.
* ``cold_reads`` -- every read a new shape (fresh p_tau), one
  connection per read, over a 2 000-row ME table (DP-bound), a
  50 000-row resident table (stage-1 bound) and the same rows packed
  on disk (a few pages per read).
* ``standing_rw`` -- writes posted to ``/v1/mutate`` against a
  12-subscription, 10 000-row mutable table with a durable data
  directory, each followed by a read of a subscribed shape.

All are closed loops.  Latencies of the CPU-bound workloads are
divided by the interleaved machine reference (see ``common.probe``);
``hot_reads`` waits on a kernel timer and stays raw.
"""

from __future__ import annotations

import gc
import http.client
import json
import queue
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from checks import Tally, build_spec, failure, reference_body, split_elapsed
from common import (
    BENCH_DIR,
    Children,
    HTTPResult,
    MachineRef,
    http_call,
    percentile,
    pinned_environ,
    steady_percentile,
    vm_hwm_mib,
)

#: Fixed tables: the seed varies the requests, not the data, so runs
#: with different seeds measure the same work.
TABLE_SPECS = {
    "me": "synthetic:tuples=2000,me=0.5,seed=101",
    "big": "synthetic:tuples=50000,me=0.0,seed=102",
}
LIVE_SPEC = "synthetic:tuples=10000,me=0.0,seed=103"
SERVER_THREADS = 2

ANSWER_SEMANTICS = (
    "expected_ranks", "global_topk", "pt_k", "typical", "u_kranks", "u_topk",
)

#: ``standing_rw`` subscriptions: (semantics, k, p_tau).
SUBSCRIPTIONS = (
    ("typical", 5, 0.05), ("pt_k", 5, 0.05), ("u_kranks", 10, 0.05),
    ("global_topk", 10, 0.02), ("expected_ranks", 5, 0.02),
    ("u_topk", 3, 0.05), ("distribution", 10, 0.05), ("typical", 10, 0.02),
    ("pt_k", 3, 0.02), ("global_topk", 5, 0.05), ("u_kranks", 3, 0.02),
    ("expected_ranks", 10, 0.05),
)
MUTATION_OPS = ("insert", "expire", "update_probability", "update_score")
MUTATION_MIX = (0.3, 0.3, 0.2, 0.2)
#: Reads of subscribed shapes after each acknowledged write.
READS_PER_WRITE = 3

#: Share of ``cold_reads`` reads checked against a reference.
COLD_CHECK_SHARE = 0.25


class Server:
    """One ``repro serve`` child started through ``server_child.py``."""

    def __init__(
        self,
        children: Children,
        run_dir: Path,
        name: str,
        bindings: list[str],
        *,
        data_dir: Path | None = None,
        trace: bool = False,
        backend: str | None = None,
        owned: tuple[Path, ...] = (),
    ) -> None:
        self._children = children
        #: Directories removed once the server stops.
        self.owned = owned
        self.log = run_dir / f"{name}.log"
        self.trace_out = run_dir / f"{name}.spans.json" if trace else None
        argv = [sys.executable, str(BENCH_DIR / "server_child.py")]
        if self.trace_out is not None:
            argv += ["--trace-out", str(self.trace_out)]
        argv += ["--", "--port", "0", "--threads", str(SERVER_THREADS)]
        for binding in bindings:
            argv += ["--table", binding]
        if data_dir is not None:
            argv += ["--data-dir", str(data_dir)]
        self.proc = children.spawn(
            argv,
            env=pinned_environ(backend),
            log=self.log,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._pump = threading.Thread(target=self._read_stdout, daemon=True)
        self._pump.start()
        self.port = self._wait_ready()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.decode(errors="replace"))
        self._lines.put(None)

    def _wait_ready(self, timeout: float = 300.0) -> int:
        deadline = time.monotonic() + timeout
        port = None
        while True:
            try:
                line = self._lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server not ready in {timeout}s; see {self.log}")
            if line is None:
                raise RuntimeError(f"server exited during start-up; see {self.log}")
            found = re.search(r"listening on http://[^:]+:(\d+)", line)
            if found:
                port = int(found.group(1))
            if line.startswith("endpoints:") and port is not None:
                return port

    def post(self, endpoint: str, payload: dict[str, Any]) -> HTTPResult:
        body = json.dumps(payload).encode()
        return http_call(self.port, "POST", f"/v1/{endpoint}", body)

    def get_json(self, path: str) -> dict[str, Any]:
        result = http_call(self.port, "GET", path)
        if result.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {result.status} {result.error}")
        return json.loads(result.body)

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def stop(self) -> None:
        self._children.terminate(self.proc)
        self._pump.join(timeout=10.0)
        self._children.stop(self.proc)
        for path in self.owned:
            shutil.rmtree(path, ignore_errors=True)


def _must(result: HTTPResult, what: str) -> dict[str, Any]:
    reason = failure(result)
    if reason is not None:
        raise RuntimeError(f"set-up {what} failed: {reason}")
    return json.loads(result.body)


def _generate(spec: str) -> Any:
    from repro.datasets.specs import generate_from_spec

    return generate_from_spec(spec)


# ----------------------------------------------------------------------
# Shared timing scaffold
# ----------------------------------------------------------------------
class Phase:
    """One timed window's client-side records."""

    def __init__(self) -> None:
        self.ops: list[dict[str, Any]] = []
        self.start = 0.0
        self.end = 0.0

    def begin(self) -> None:
        gc.collect()
        self.start = time.perf_counter()

    def finish(self) -> None:
        self.end = time.perf_counter()


def _record(
    phase: Phase, kind: str, result: HTTPResult, scale: float, **extra: Any
) -> None:
    split = split_elapsed(result.body) if result.status == 200 else None
    phase.ops.append({
        "kind": kind,
        "result": result,
        "ok": failure(result) is None,
        "ms": result.latency_ms * scale,
        "transport_ms": (
            result.latency_ms - split[1] if split is not None else None
        ),
        **extra,
    })


# ----------------------------------------------------------------------
# hot_reads
# ----------------------------------------------------------------------
def hot_shapes() -> list[tuple[str, dict[str, Any]]]:
    """The 30 warmed shapes: six semantics plus the distribution, over
    ``me`` and ``big``, at two (k, p_tau) points, plus ``/v1/typical``."""
    shapes = []
    for table in TABLE_SPECS:
        for k, p_tau in ((5, 0.01), (10, 0.02)):
            for semantics in ANSWER_SEMANTICS:
                shapes.append((
                    "answer",
                    {"table": table, "k": 5 if semantics == "u_topk" else k,
                     "semantics": semantics, "p_tau": p_tau},
                ))
            shapes.append(("distribution", {"table": table, "k": k, "p_tau": p_tau}))
        shapes.append(("typical", {"table": table, "k": 5, "p_tau": 0.01, "c": 4}))
    return shapes


def setup_hot(children: Children, run_dir: Path, name: str, trace: bool) -> Server:
    server = Server(
        children, run_dir, name,
        [f"{table}={spec}" for table, spec in TABLE_SPECS.items()],
        trace=trace,
    )
    for endpoint, payload in hot_shapes():
        _must(server.post(endpoint, payload), f"warm {endpoint}")
    return server


def run_hot(server: Server, seed: int, seconds: float) -> Phase:
    shapes = hot_shapes()
    bodies = [json.dumps(payload).encode() for _, payload in shapes]
    rng = random.Random(seed)
    orders = [rng.sample(range(len(shapes)), len(shapes)) for _ in range(2)]
    conns = [
        http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        for _ in orders
    ]
    phase = Phase()

    def client(slot: int, until: float, keep: bool) -> None:
        order, i = orders[slot], 0
        while time.perf_counter() < until:
            index = order[i % len(order)]
            i += 1
            endpoint = shapes[index][0]
            result = http_call(
                server.port, "POST", f"/v1/{endpoint}", bodies[index],
                conn=conns[slot],
            )
            if result.error is not None:
                conns[slot] = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=60
                )
            if keep:
                _record(phase, "read", result, 1.0, shape=index)

    def run_clients(duration: float, keep: bool) -> None:
        until = time.perf_counter() + duration
        threads = [
            threading.Thread(target=client, args=(slot, until, keep), daemon=True)
            for slot in range(len(orders))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    try:
        run_clients(1.0, keep=False)
        phase.begin()
        run_clients(seconds, keep=True)
        phase.finish()
    finally:
        for conn in conns:
            conn.close()
    return phase


def check_hot(phase: Phase, tally: Tally) -> None:
    from repro.api.session import Session

    shapes = hot_shapes()
    session = Session({name: _generate(spec) for name, spec in TABLE_SPECS.items()})
    references: dict[int, bytes] = {}
    for op in phase.ops:
        index = op["shape"]
        if index not in references:
            references[index] = reference_body(session, *shapes[index])
        tally.record(failure(op["result"], references[index]))


# ----------------------------------------------------------------------
# cold_reads
# ----------------------------------------------------------------------
COLD_TABLES = ("me", "big", "big_disk")

#: Reads per round of each (semantics, k) cell, by table.  The
#: 50 000-row resident table costs ~20x the others per read; reading
#: the other two twice as often puts the median among many cells of
#: similar cost instead of on the gap between two groups, where it
#: moved by a fifth between seeds.
COLD_WEIGHTS = {"me": 2, "big": 1, "big_disk": 2}


def cold_round(rng: random.Random) -> list[tuple[str, dict[str, Any]]]:
    """One round of reads over every (table, semantics, k) cell, each
    at a fresh p_tau; U-Topk only at k = 5 (deeper k runs for
    seconds)."""
    cells = []
    for table in COLD_TABLES:
        for semantics in (None, *ANSWER_SEMANTICS):
            for k in (5, 10):
                if semantics == "u_topk" and k > 5:
                    continue
                cells += [(table, semantics, k)] * COLD_WEIGHTS[table]
    rng.shuffle(cells)
    reads = []
    for table, semantics, k in cells:
        payload: dict[str, Any] = {"table": table, "k": k,
                                   "p_tau": rng.uniform(1e-3, 5e-2)}
        if semantics is None:
            reads.append(("distribution", payload))
        else:
            payload["semantics"] = semantics
            reads.append(("answer", payload))
    return reads


def setup_cold(
    children: Children,
    run_dir: Path,
    name: str,
    trace: bool,
    backend: str | None = None,
) -> Server:
    packed = run_dir / f"{name}.packed"
    children.run(
        [sys.executable, "-m", "repro", "pack", TABLE_SPECS["big"],
         "--out", str(packed)],
        env=pinned_environ(),
        log=run_dir / f"{name}.pack.log",
        timeout=300.0,
    )
    bindings = [f"{table}={spec}" for table, spec in TABLE_SPECS.items()]
    bindings.append(f"big_disk=disk:{packed}")
    server = Server(
        children, run_dir, name, bindings,
        trace=trace, backend=backend, owned=(packed,),
    )
    # Warm the per-table scored caches and every code path, at a
    # p_tau no timed read uses.
    for table in COLD_TABLES:
        for semantics in (None, *ANSWER_SEMANTICS):
            payload: dict[str, Any] = {"table": table, "k": 5, "p_tau": 0.06}
            if semantics is None:
                _must(server.post("distribution", payload), "warm read")
            else:
                payload["semantics"] = semantics
                _must(server.post("answer", payload), "warm read")
    return server


def run_cold(
    server: Server,
    seed: int,
    seconds: float,
    ref: MachineRef,
    *,
    limit: int | None = None,
) -> Phase:
    """Whole rounds until ``seconds`` pass (or ``limit`` reads)."""
    rng = random.Random(seed)
    check_rng = random.Random(seed + 1_000_003)
    phase = Phase()
    phase.begin()
    deadline = phase.start + seconds
    while True:
        for endpoint, payload in cold_round(rng):
            ref.sample()
            scale = ref.scale()
            result = server.post(endpoint, payload)
            _record(
                phase, "read", result, scale,
                request=(endpoint, payload),
                check=check_rng.random() < COLD_CHECK_SHARE,
            )
            if limit is not None and len(phase.ops) >= limit:
                break
        if (limit is not None and len(phase.ops) >= limit) or (
            limit is None and time.perf_counter() >= deadline
        ):
            break
    phase.finish()
    return phase


def check_cold(phase: Phase, tally: Tally) -> None:
    """Every read for status/degradation; the seeded sample also
    byte for byte.  ``big_disk`` reads are checked against the
    resident rows they were packed from."""
    from repro.api.session import Session

    big = _generate(TABLE_SPECS["big"])
    session = Session({"me": _generate(TABLE_SPECS["me"]), "big": big, "big_disk": big})
    for op in phase.ops:
        reference = None
        if op["check"]:
            endpoint, payload = op["request"]
            reference = reference_body(session, endpoint, payload)
        tally.record(failure(op["result"], reference))


# ----------------------------------------------------------------------
# standing_rw
# ----------------------------------------------------------------------
def subscription_payloads() -> list[dict[str, Any]]:
    return [
        {"table": "live", "k": k, "semantics": semantics, "p_tau": p_tau}
        for semantics, k, p_tau in SUBSCRIPTIONS
    ]


def mutation_script(
    seed: int, base_tids: list[Any], count: int
) -> list[tuple[str, dict[str, Any]]]:
    """A valid mixed stream; scores and probabilities follow the
    table's own marginals (synthetic defaults N(150, 60))."""
    rng = np.random.default_rng(seed)
    live = list(base_tids)
    script: list[tuple[str, dict[str, Any]]] = []
    for index in range(count):
        op = MUTATION_OPS[int(rng.choice(4, p=MUTATION_MIX))]
        if op == "insert" or not live:
            tid = f"m{index}"
            payload: dict[str, Any] = {
                "tid": tid,
                "attributes": {"score": float(rng.normal(150.0, 60.0))},
                "probability": float(rng.uniform(0.05, 0.95)),
            }
            script.append(("insert", payload))
            live.append(tid)
            continue
        slot = int(rng.integers(len(live)))
        payload = {"tid": live[slot]}
        if op == "expire":
            live[slot] = live[-1]
            live.pop()
        elif op == "update_probability":
            payload["probability"] = float(rng.uniform(0.05, 0.95))
        else:
            payload["attributes"] = {"score": float(rng.normal(150.0, 60.0))}
        script.append((op, payload))
    return script


def replay(base: Any, script: list[tuple[str, dict[str, Any]]]) -> Any:
    """The table after ``script``: inserts append, expires remove,
    updates replace in place -- the order the server keeps."""
    from repro.uncertain.model import UncertainTuple
    from repro.uncertain.table import UncertainTable

    rows = {t.tid: t for t in base.tuples}
    for op, payload in script:
        tid = payload["tid"]
        if op == "insert":
            rows[tid] = UncertainTuple(tid, payload["attributes"], payload["probability"])
        elif op == "expire":
            del rows[tid]
        elif op == "update_probability":
            rows[tid] = rows[tid].with_probability(payload["probability"])
        else:
            rows[tid] = rows[tid].with_attributes(**payload["attributes"])
    return UncertainTable(list(rows.values()), (), name=base.name)


def standing_inputs(seed: int) -> tuple[Any, list[tuple[str, dict[str, Any]]]]:
    """The base table and the mutation stream, made once per run
    (outside the timed set-ups: they are the benchmark's work)."""
    base = _generate(LIVE_SPEC)
    return base, mutation_script(seed, [t.tid for t in base.tuples], 20_000)


class Standing:
    """Set-up and state of one ``standing_rw`` server."""

    WARM_WRITES = 16

    def __init__(
        self,
        children: Children,
        run_dir: Path,
        name: str,
        trace: bool,
        inputs: tuple[Any, list[tuple[str, dict[str, Any]]]],
    ) -> None:
        self.data_dir = run_dir / f"{name}.data"
        self.base, self.script = inputs
        self.applied = 0
        self.server = Server(
            children, run_dir, name, [f"live={LIVE_SPEC}"],
            data_dir=self.data_dir, trace=trace, owned=(self.data_dir,),
        )
        self.version = self.server.get_json("/healthz")["tables"]["live"]["version"]
        self.sids = [
            _must(self.server.post("subscribe", payload), "subscribe")["sid"]
            for payload in subscription_payloads()
        ]
        for _ in range(self.WARM_WRITES):
            self.write(None, 1.0)
        for payload in subscription_payloads():
            _must(self.server.post("answer", payload), "warm read")

    def write(self, phase: Phase | None, scale: float) -> None:
        op, payload = self.script[self.applied]
        self.applied += 1
        result = self.server.post("mutate", {"table": "live", "op": op, **payload})
        self.version += 1
        expected = self.version
        if phase is None:
            document = _must(result, "warm write")
            if document["version"] != expected:
                raise RuntimeError(f"warm write acked version {document['version']}")
            return
        _record(phase, "write", result, scale, version=expected)

    def stop(self) -> None:
        self.server.stop()


def run_standing(
    state: Standing, seconds: float, ref: MachineRef
) -> Phase:
    """Alternate one write with reads of the next subscribed shapes.

    Overlapping reads and writes from two threads let reads race the
    maintenance that seeds their cache entries: about half recomputed
    cold, the interleaving decided which, and write p90 moved by half
    between seeds.  Alternating, every read lands after the ack before
    it, as a hit on a maintenance-seeded entry.
    """
    payloads = subscription_payloads()
    phase = Phase()
    phase.begin()
    until = phase.start + seconds
    i = 0
    while time.perf_counter() < until:
        ref.sample()
        scale = ref.scale()
        state.write(phase, scale)
        for _ in range(READS_PER_WRITE):
            result = state.server.post("answer", payloads[i % len(payloads)])
            i += 1
            _record(phase, "read", result, scale)
    phase.finish()
    return phase


def _snapshot(server: Server, sid: str) -> dict[str, Any] | None:
    result = http_call(
        server.port, "GET", f"/v1/watch?sid={sid}&after=-1&count=1&timeout_s=10"
    )
    if result.status != 200:
        return None
    for line in result.body.decode().splitlines():
        if line.startswith("data: {") and '"sid"' in line:
            return json.loads(line[len("data: "):])
    return None


def check_standing(state: Standing, phase: Phase, tally: Tally) -> None:
    """Acks in version order; mid-run reads for status and
    degradation; then every subscription's snapshot and a final read
    of each shape against a cold recompute at the final version."""
    from repro.api.session import Session
    from repro.io.json_io import answer_to_jsonable

    for op in phase.ops:
        reason = failure(op["result"])
        if reason is None and op["kind"] == "write":
            acked = json.loads(split_elapsed(op["result"].body)[0])["version"]
            if acked != op["version"]:
                reason = f"write acked version {acked}, expected {op['version']}"
        tally.record(reason)
    final = replay(state.base, state.script[: state.applied])
    session = Session({"live": final})
    for sid, payload in zip(state.sids, subscription_payloads()):
        reference = reference_body(session, "answer", payload)
        tally.record(failure(state.server.post("answer", payload), reference))
        snapshot = _snapshot(state.server, sid)
        spec = build_spec("answer", payload)
        expected = json.dumps(answer_to_jsonable(session.execute(spec)))
        if snapshot is None:
            reason = "no subscription snapshot"
        elif snapshot.get("error"):
            reason = f"subscription error: {snapshot['error']}"
        elif snapshot["version"] != state.version:
            reason = f"snapshot at version {snapshot['version']}, table at {state.version}"
        elif json.dumps(snapshot["answer"]) != expected:
            reason = "subscription answer differs from the cold recompute"
        else:
            reason = None
        tally.record(reason)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latencies(phase: Phase, kind: str) -> list[float]:
    return [op["ms"] for op in phase.ops if op["kind"] == kind and op["ok"]]


#: The op each workload's end-to-end latencies and throughput count.
OP_KIND = {"standing_rw": "write"}


def end_to_end(
    workload: str, phases: list[Phase], peak_rss: float
) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of a run's untraced timed windows."""
    kind = OP_KIND.get(workload, "read")
    ops = [ms for phase in phases for ms in latencies(phase, kind)]
    if workload == "hot_reads":
        wall = sum(phase.end - phase.start for phase in phases)
        throughput = len(ops) / wall
    else:
        throughput = len(ops) / (sum(ops) / 1e3) if ops else 0.0
    # cold_reads mixes cells of very different cost in whole rounds;
    # chunks cutting across rounds would unbalance that mix.
    pct = percentile if workload == "cold_reads" else steady_percentile
    return {
        "throughput_ops_per_s": (throughput, "1/s"),
        "op_p50_ms": (pct(ops, 50), "ms"),
        "op_p90_ms": (pct(ops, 90), "ms"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }


def client_views(phase: Phase, workload: str) -> dict[str, list[float]]:
    """What the traced analysis needs from the client side."""
    mine = [
        op for op in phase.ops
        if op["kind"] in ("read", "write") and op["transport_ms"] is not None
    ]
    return {
        "transport_ms": [op["transport_ms"] for op in mine],
        "op_ms": [op["result"].latency_ms for op in mine],
        "body_bytes": [
            float(len(op["result"].body)) for op in mine if op["kind"] == "read"
        ],
        "write_ms": [op["ms"] for op in mine if op["kind"] == "write"],
        "read_ms": [op["ms"] for op in mine if op["kind"] == "read"],
    }
