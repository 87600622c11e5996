"""The system's speed bars, as entries of the experiment registry.

Each bar is a generator of flat dict rows plus a check whose first
docstring line states the bar; :data:`repro.bench.figures.EXPERIMENTS`
lists them beside the paper's figures, so ``repro figures`` runs every
claim and every bar, and ``repro figures bar_standing`` runs one.

* ``bar_service_batching`` — the micro-batching service against a cold
  session per request;
* ``bar_service_scaling`` — sharded worker processes against one
  process;
* ``bar_standing`` — standing-query maintenance against per-mutation
  recompute;
* ``bar_plan_fusion`` — one fused DP sweep for a mixed-k batch against
  one sweep per ``k``;
* ``bar_backend`` — the compiled DP kernel against the numpy path;
* ``bar_storage_depth`` — the out-of-core scan-depth pushdown from 100k
  to 1M packed tuples.

The service, standing and storage imports stay inside the generators,
so importing this module starts nothing and ``repro figures fig02``
stays fast.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPException
from pathlib import Path
from typing import Any, Iterator, Sequence
from urllib.request import Request, urlopen

from repro.bench.runner import Row, _require, time_callable

#: Batching bar: the catalog both server modes load (cold compute
#: ~0.03-0.5 s per workload shape: big enough to dominate HTTP
#: overhead, small enough for CI) and the closed-loop workload.
SERVICE_TABLES = {"demo": "synthetic:tuples=80,me=0.4,seed=3"}
SERVICE_REQUESTS = 60
SERVICE_CONCURRENCY = 8
SERVICE_WORKERS = 2
MIN_BATCHING_SPEEDUP = 2.0

#: Scaling bar: the bigger table and ``u_kranks`` at k = 20 make each
#: cold request ~30 ms of DP, so process parallelism, not IPC
#: overhead, decides the comparison.
SCALE_TABLES = {"demo": "synthetic:tuples=5000,me=0.4,seed=3"}
SCALE_WORKERS = 4
SCALE_REQUESTS = 48
SCALE_CONCURRENCY = 8

#: Standing bar: an ME-free mutable table (the skip tier's test is at
#: its sharpest, the workload the subsystem is built for) under 20
#: subscriptions and a seeded mixed stream of 40 mutations.
STANDING_TABLE = "synthetic:tuples=1000,me=0.0,seed=11"
STANDING_SUBSCRIPTIONS = 20
STANDING_MUTATIONS = 40
STANDING_SEED = 11
STANDING_P_TAU = 0.05
MIN_STANDING_SPEEDUP = 3.0

#: Fusion bar: every (k, semantics) pair is one request of the batch,
#: over an ME-heavy CarTel-style table (the shared rule folding, which
#: fusion pays once, dominates); best of 2 cold sessions per path.
FUSION_KS = (2, 3, 5, 8, 10, 12)
FUSION_SEMANTICS = ("typical", "distribution")
FUSION_SEGMENTS = 50
FUSION_ME_FRACTION = 0.95
FUSION_P_TAU = 0.0
FUSION_REPEATS = 2
MIN_FUSION_SPEEDUP = 1.5

#: Backend bar: the baseline suite's ``me_shared_prefix_cartel120_k10``
#: (a 120-segment CarTel-style ME table), best of 3 per backend.
BACKEND_SEGMENTS = 120
BACKEND_K = 10
BACKEND_P_TAU = 1e-3
BACKEND_MAX_LINES = 200
BACKEND_REPEATS = 3
MIN_BACKEND_SPEEDUP = 3.0

#: Storage bar: packed synthetic tables (ME fraction 0.3, seed 97) and
#: a typical query at an explicit depth, which keeps the scanned prefix
#: — and so the I/O the lazy path is allowed — identical at every
#: size.  The shape stays in exact-DP territory, so the solver's
#: working set is small and constant and the RSS comparison isolates
#: what the table path materializes.
STORAGE_SIZES = (100_000, 1_000_000)
STORAGE_K = 5
STORAGE_P_TAU = 1e-3
STORAGE_DEPTH = 200
STORAGE_PROBE_ROUNDS = 3
MAX_LATENCY_GROWTH = 1.5
MAX_RSS_FRACTION = 0.10


def _canonical(answer: Any) -> str:
    """An answer as canonical JSON: equal strings, identical answers."""
    from repro.io.json_io import answer_to_jsonable

    return json.dumps(answer_to_jsonable(answer), sort_keys=True, default=str)


@contextlib.contextmanager
def _serving(server: Any) -> Iterator[str]:
    """Run ``server`` on a thread, yield its base URL, shut it down."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()  # also stops the service / worker pool
        thread.join(5.0)


# ----------------------------------------------------------------------
# Service: batching and multi-process scaling
# ----------------------------------------------------------------------
def service_batching() -> list[Row]:
    """Batched serving against a cold session per request.

    Boots the HTTP service twice on an ephemeral port — with the
    micro-batching executor over the shared resident session, then
    ``batched=False`` (every request served by a fresh cold session)
    — and drives the identical closed-loop mixed-semantics workload
    of :mod:`repro.service.loadgen` through both.  The gap widens with
    table size: the unbatched baseline re-runs the shared-prefix DP
    for every request, the batched service once per ``(table, p_tau,
    algorithm)`` group.
    """
    from repro.service import DatasetCatalog, make_server, run_loadgen

    rows: list[dict[str, Any]] = []
    for batched in (False, True):
        server = make_server(
            DatasetCatalog(SERVICE_TABLES),
            port=0,
            workers=SERVICE_WORKERS,
            batched=batched,
        )
        with _serving(server) as url:
            result = run_loadgen(
                url,
                requests=SERVICE_REQUESTS,
                concurrency=SERVICE_CONCURRENCY,
                seed=1,
            )
        rows.append(
            {
                "mode": "batched" if batched else "unbatched",
                "requests": result.requests,
                "ok": result.ok,
                "throughput_rps": result.throughput_rps,
                "p50_ms": result.percentile_ms(0.50),
                "p99_ms": result.percentile_ms(0.99),
            }
        )
    unbatched, batched_row = rows
    batched_row["speedup"] = (
        batched_row["throughput_rps"] / unbatched["throughput_rps"]
    )
    return rows


def check_service_batching(rows: Sequence[Row]) -> None:
    """Batched serving is >= 2x the throughput of a cold session per request."""
    for row in rows:
        _require(
            row["ok"] == row["requests"],
            f"{row['mode']}: {row['requests'] - row['ok']} of "
            f"{row['requests']} requests failed",
        )
    speedup = rows[-1]["speedup"]
    _require(
        speedup >= MIN_BATCHING_SPEEDUP,
        f"batched serving is {speedup:.2f}x unbatched, below "
        f"{MIN_BATCHING_SPEEDUP}x",
    )


def _post_answers(
    url: str, payloads: Sequence[dict[str, Any]]
) -> tuple[float, int]:
    """Closed loop: ``SCALE_CONCURRENCY`` clients drain ``payloads``.

    Returns the wall seconds and the number of failed requests.
    """

    def post(payload: dict[str, Any]) -> bool:
        request = Request(
            f"{url}/v1/answer",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urlopen(request, timeout=60.0) as response:
                response.read()
        except (OSError, HTTPException):
            return False
        return True

    start = time.perf_counter()
    with ThreadPoolExecutor(SCALE_CONCURRENCY) as pool:
        ok = sum(pool.map(post, payloads))
    return time.perf_counter() - start, len(payloads) - ok


def service_scaling() -> list[Row]:
    """Sharded worker processes against one process on cold requests.

    Every request carries a distinct ``p_tau``, so each pays a cold DP
    on whichever process serves it: the run measures compute
    parallelism rather than cache reuse, and the distinct keys spread
    across the consistent-hash ring.
    """
    from repro.service import (
        DatasetCatalog,
        make_server,
        make_sharded_server,
    )

    payloads = [
        {
            "table": "demo",
            "k": 20,
            "semantics": "u_kranks",
            "p_tau": round(0.001 + index * 1e-5, 8),
        }
        for index in range(SCALE_REQUESTS)
    ]
    cores = os.cpu_count() or 1
    rows: list[dict[str, Any]] = []
    for workers in (1, SCALE_WORKERS):
        if workers == 1:
            server = make_server(
                DatasetCatalog(SCALE_TABLES), port=0, workers=2
            )
        else:
            server = make_sharded_server(
                SCALE_TABLES, port=0, workers=workers, threads=2
            )
        with _serving(server) as url:
            elapsed, failed = _post_answers(url, payloads)
        rows.append(
            {
                "workers": workers,
                "cores": cores,
                "requests": len(payloads),
                "failed": failed,
                "elapsed_s": elapsed,
                "throughput_rps": len(payloads) / elapsed,
            }
        )
    single, sharded = rows
    sharded["speedup"] = sharded["throughput_rps"] / single["throughput_rps"]
    return rows


def check_service_scaling(rows: Sequence[Row]) -> None:
    """4 worker processes serve cold load >= 0.5 x min(4, cores) x one process."""
    for row in rows:
        _require(
            row["failed"] == 0,
            f"{row['workers']} worker(s): {row['failed']} of "
            f"{row['requests']} requests failed",
        )
    sharded = rows[-1]
    if sharded["cores"] < 2:
        print("one core: no process parallelism to claim, so no bar")
        return
    bar = 0.5 * min(sharded["workers"], sharded["cores"])
    _require(
        sharded["speedup"] >= bar,
        f"{sharded['workers']} workers on {sharded['cores']} cores are "
        f"{sharded['speedup']:.2f}x one process, below {bar}x",
    )


# ----------------------------------------------------------------------
# Standing-query maintenance
# ----------------------------------------------------------------------
def _standing_table() -> Any:
    from repro.datasets.specs import generate_from_spec
    from repro.standing import MutableUncertainTable

    return MutableUncertainTable.from_table(
        generate_from_spec(STANDING_TABLE)
    )


def _standing_specs() -> list[Any]:
    """20 subscriptions cycling over every registered semantics."""
    from repro.api.registry import available_semantics
    from repro.api.spec import QuerySpec

    semantics = itertools.cycle(sorted(available_semantics()))
    ks = itertools.cycle((2, 5, 10, 20))
    return [
        QuerySpec(
            table="live",
            scorer="score",
            k=next(ks),
            semantics=next(semantics),
            p_tau=STANDING_P_TAU,
        )
        for _ in range(STANDING_SUBSCRIPTIONS)
    ]


def _mutation_script() -> list[tuple[str, dict[str, Any]]]:
    """A seeded mixed stream, valid against a scratch replay."""
    import numpy as np

    rng = np.random.default_rng(STANDING_SEED)
    table = _standing_table()
    counter = itertools.count()
    script: list[tuple[str, dict[str, Any]]] = []
    for _ in range(STANDING_MUTATIONS):
        op = ("insert", "expire", "update_probability", "update_score")[
            rng.integers(4)
        ]
        # Scores come from the table's own marginal, N(150, 60): a
        # realistic stream touches the long tail far more often than
        # the top-k boundary region.
        if op == "insert":
            payload: dict[str, Any] = {
                "tid": f"m{next(counter)}",
                "attributes": {"score": float(rng.normal(150.0, 60.0))},
                "probability": float(rng.uniform(0.05, 0.95)),
            }
        else:
            payload = {"tid": table.tids[rng.integers(len(table.tids))]}
            if op == "update_probability":
                payload["probability"] = float(rng.uniform(0.05, 0.95))
            elif op == "update_score":
                payload["attributes"] = {
                    "score": float(rng.normal(150.0, 60.0))
                }
        table.apply_payload(op, payload)
        script.append((op, payload))
    return script


def standing() -> list[Row]:
    """Maintained subscriptions against per-mutation recompute.

    Both strategies serve the identical stream.  *Recompute* re-runs
    all 20 queries through an ordinary session after every mutation
    (version-keyed caches miss by design, but shared-prefix reuse
    within a version still applies, so the baseline is no strawman).
    *Maintained* keeps 20 subscriptions current through the
    :class:`~repro.standing.registry.StandingRegistry`, which skips a
    delta that provably leaves the answer alone and recomputes the
    rest with one sort per table version.  After the stream, every
    maintained answer is compared with a cold recompute at the final
    version.
    """
    from repro.api.session import Session
    from repro.standing import StandingRegistry
    from repro.uncertain.table import UncertainTable

    script = _mutation_script()
    specs = _standing_specs()

    table = _standing_table()
    session = Session({"live": table})
    for spec in specs:  # the initial cold answers, as for subscribe()
        session.execute(spec)

    def recompute() -> None:
        for op, payload in script:
            table.apply_payload(op, payload)
            for spec in specs:
                session.execute(spec)

    recompute_s = time_callable(recompute).seconds

    live = _standing_table()
    registry = StandingRegistry(Session({"live": live}))
    subscriptions = [registry.subscribe(spec) for spec in specs]

    def maintain() -> None:
        for op, payload in script:
            registry.mutate("live", op, payload)

    maintained_s = time_callable(maintain).seconds
    final = Session(
        {"live": UncertainTable(live.tuples, live.explicit_rules)}
    )
    matches = sum(
        sub.error is None
        and _canonical(sub.answer) == _canonical(final.execute(sub.spec))
        for sub in subscriptions
    )
    stats = registry.describe()
    return [
        {
            "mode": "recompute",
            "mutations": len(script),
            "elapsed_s": recompute_s,
            "mutations_per_s": len(script) / recompute_s,
        },
        {
            "mode": "maintained",
            "mutations": len(script),
            "elapsed_s": maintained_s,
            "mutations_per_s": len(script) / maintained_s,
            "skips": stats["skip"],
            "recomputes": stats["recompute"],
            "subscriptions": len(subscriptions),
            "match_cold": matches,
            "speedup": recompute_s / maintained_s,
        },
    ]


def check_standing(rows: Sequence[Row]) -> None:
    """Maintenance is >= 3x per-mutation recompute, and every answer matches a cold recompute."""
    maintained = rows[-1]
    _require(
        maintained["match_cold"] == maintained["subscriptions"],
        f"{maintained['subscriptions'] - maintained['match_cold']} of "
        f"{maintained['subscriptions']} maintained answers differ from a "
        "cold recompute at the final version",
    )
    _require(
        maintained["speedup"] >= MIN_STANDING_SPEEDUP,
        f"maintenance is {maintained['speedup']:.2f}x recompute, below "
        f"{MIN_STANDING_SPEEDUP}x",
    )


# ----------------------------------------------------------------------
# Plan fusion and the DP backend
# ----------------------------------------------------------------------
def plan_fusion() -> list[Row]:
    """One fused sweep for a cold mixed-k batch against one per ``k``.

    The *fused* path is one ``Session.execute_many`` call, whose
    planner merges every exact DP into one shared-prefix sweep at
    ``k_max`` and slices the per-k distributions out.  The *unfused*
    path executes the same batch request by request on one session
    (stage caches shared, but one scored prefix and one DP per
    distinct ``k``).  The gap grows with the number of distinct ``k``
    in the batch.
    """
    from repro.api import QuerySpec, Session
    from repro.api.calibration import CostModel
    from repro.api.planner import Planner
    from repro.bench.workloads import cartel_workload, congestion_scorer
    from repro.core import dp

    table = cartel_workload(
        segments=FUSION_SEGMENTS, me_fraction=FUSION_ME_FRACTION
    )
    scorer = congestion_scorer()
    specs = [
        QuerySpec(
            table="area", scorer=scorer, k=k, p_tau=FUSION_P_TAU,
            semantics=semantics,
        )
        for k in FUSION_KS
        for semantics in FUSION_SEMANTICS
    ]

    def session() -> Session:
        return Session({"area": table}, planner=Planner(CostModel()))

    def fused() -> tuple[list[Any], int]:
        batch = session()
        before = dp.dp_sweep_count()
        return batch.execute_many(specs), dp.dp_sweep_count() - before

    def unfused() -> list[Any]:
        batch = session()
        return [batch.execute(spec) for spec in specs]

    fused_run = time_callable(fused, repeats=FUSION_REPEATS)
    unfused_run = time_callable(unfused, repeats=FUSION_REPEATS)
    answers, sweeps = fused_run.value
    equal = sum(
        _canonical(got) == _canonical(want)
        for got, want in zip(answers, unfused_run.value)
    )
    return [
        {
            "path": "unfused",
            "requests": len(specs),
            "seconds": unfused_run.seconds,
        },
        {
            "path": "fused",
            "requests": len(specs),
            "seconds": fused_run.seconds,
            "dp_sweeps": sweeps,
            "equal_answers": equal,
            "speedup": unfused_run.seconds / fused_run.seconds,
        },
    ]


def check_plan_fusion(rows: Sequence[Row]) -> None:
    """A fused mixed-k batch runs one DP sweep, answers identically and is >= 1.5x unfused."""
    fused = rows[-1]
    _require(
        fused["dp_sweeps"] == 1,
        f"the fused batch ran {fused['dp_sweeps']} DP sweeps, not 1",
    )
    _require(
        fused["equal_answers"] == fused["requests"],
        f"{fused['requests'] - fused['equal_answers']} of "
        f"{fused['requests']} fused answers differ from the unfused path",
    )
    _require(
        fused["speedup"] >= MIN_FUSION_SPEEDUP,
        f"fusion is {fused['speedup']:.2f}x unfused, below "
        f"{MIN_FUSION_SPEEDUP}x",
    )


def backend() -> list[Row]:
    """The compiled DP kernel against the numpy path on one prefix.

    A same-machine, same-process ratio, so it needs no calibration.
    Without a loadable kernel (no C compiler) the native row records
    why, and the numpy path is the only backend.
    """
    from repro.bench.workloads import cartel_workload, congestion_scorer
    from repro.core import kernels
    from repro.core.distribution import prepare_scored_prefix
    from repro.core.dp import dp_distribution

    prefix = prepare_scored_prefix(
        cartel_workload(segments=BACKEND_SEGMENTS),
        congestion_scorer(),
        BACKEND_K,
        p_tau=BACKEND_P_TAU,
    )

    def timed(name: str) -> Any:
        with kernels.pinned(name):
            return time_callable(
                lambda: dp_distribution(
                    prefix, BACKEND_K, max_lines=BACKEND_MAX_LINES
                ),
                repeats=BACKEND_REPEATS,
            )

    python = timed("python")
    rows: list[dict[str, Any]] = [
        {"backend": "python", "n": len(prefix), "seconds": python.seconds}
    ]
    if not kernels.native_available():
        error = kernels.build.load_error() or "kernel not loadable"
        rows.append({"backend": "native", "unavailable": error})
        return rows
    native = timed("native")
    rows.append(
        {
            "backend": "native",
            "n": len(prefix),
            "seconds": native.seconds,
            "identical": _canonical(native.value) == _canonical(python.value),
            "speedup": python.seconds / native.seconds,
        }
    )
    return rows


def check_backend(rows: Sequence[Row]) -> None:
    """The native DP kernel is >= 3x the numpy path on cartel120 k=10, byte-identical."""
    native = rows[-1]
    if "unavailable" in native:
        print(f"native kernel unavailable ({native['unavailable']}), so no bar")
        return
    _require(
        native["identical"],
        "the native backend's distribution differs from the numpy path's",
    )
    _require(
        native["speedup"] >= MIN_BACKEND_SPEEDUP,
        f"native is {native['speedup']:.2f}x python, below "
        f"{MIN_BACKEND_SPEEDUP}x",
    )


# ----------------------------------------------------------------------
# Out-of-core scan-depth pushdown
# ----------------------------------------------------------------------
def _peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    Linux carries a parent's peak into ``ru_maxrss`` across fork and
    exec, so a probe started by a large ``repro figures`` process
    would read that peak as its floor; ``VmHWM`` is the peak of the
    probe's own address space.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss  # bytes on macOS


def storage_probe(mode: str, packed: str, size: str = "0") -> dict[str, Any]:
    """One measurement in a fresh process (see :func:`_probe`).

    ``pack`` packs a ``size``-tuple table into ``packed``; ``base``
    opens it (the RSS floor the query probes share); ``lazy`` and
    ``resident`` run the depth-bounded query, the latter after loading
    the whole relation.
    """
    from repro.api.session import Session
    from repro.api.spec import QuerySpec
    from repro.storage import open_table

    if mode == "pack":
        # Packing a 1M-tuple table peaks above 1 GiB, so it runs in a
        # probe of its own rather than in the process that starts the
        # query probes.
        from repro.datasets.synthetic import (
            MEGroupLayout,
            SyntheticConfig,
            generate_synthetic_table,
        )
        from repro.storage import pack_table

        table = generate_synthetic_table(
            SyntheticConfig(
                tuples=int(size), me_layout=MEGroupLayout(fraction=0.3)
            ),
            seed=97,
        )
        start = time.perf_counter()
        pack_table(table, packed)
        return {"pack_s": time.perf_counter() - start}
    table = open_table(packed)
    if mode == "base":
        return {"latency_s": 0.0, "rss_kb": _peak_rss_kb()}
    if mode == "resident":
        table.tuples  # loads the whole relation
    spec = QuerySpec(
        table="t",
        scorer="score",
        k=STORAGE_K,
        semantics="typical",
        p_tau=STORAGE_P_TAU,
        depth=STORAGE_DEPTH,
    )
    session = Session({"t": table})
    start = time.perf_counter()
    session.execute(spec)
    return {
        "latency_s": time.perf_counter() - start,
        "rss_kb": _peak_rss_kb(),
    }


def _probe(mode: str, packed: Path, size: int = 0) -> dict[str, Any]:
    """Run :func:`storage_probe` in fresh processes.

    Only the lazy latency feeds a bar, so only the lazy probe repeats
    (best latency, worst RSS); the others run once.
    """
    code = (
        "import json, sys\n"
        "from repro.bench.bars import storage_probe\n"
        "print(json.dumps(storage_probe(*sys.argv[1:])))\n"
    )
    results = []
    for _ in range(STORAGE_PROBE_ROUNDS if mode == "lazy" else 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, mode, str(packed), str(size)],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"storage probe {mode} failed:\n{proc.stdout}\n{proc.stderr}"
            )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if mode == "pack":
        return results[0]
    return {
        "latency_s": min(r["latency_s"] for r in results),
        "rss_kb": max(r["rss_kb"] for r in results),
    }


def storage_depth() -> list[Row]:
    """The lazy disk path against the resident path at 100k and 1M tuples.

    Each measurement runs in a fresh process, so each peak RSS is one
    path's own footprint rather than whatever the caller touched.
    """
    root = Path(tempfile.mkdtemp(prefix="repro-bar-storage-"))
    rows: list[Row] = []
    try:
        for size in STORAGE_SIZES:
            packed = root / f"packed-{size}"
            pack = _probe("pack", packed, size)
            base = _probe("base", packed)
            lazy = _probe("lazy", packed)
            resident = _probe("resident", packed)
            lazy_kb = max(0, lazy["rss_kb"] - base["rss_kb"])
            resident_kb = max(1, resident["rss_kb"] - base["rss_kb"])
            rows.append(
                {
                    "tuples": size,
                    "pack_s": pack["pack_s"],
                    "lazy_latency_s": lazy["latency_s"],
                    "resident_latency_s": resident["latency_s"],
                    "lazy_rss_delta_kb": lazy_kb,
                    "resident_rss_delta_kb": resident_kb,
                    "rss_fraction": lazy_kb / resident_kb,
                }
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return rows


def check_storage_depth(rows: Sequence[Row]) -> None:
    """At depth 200, 100k -> 1M tuples: lazy latency grows <= 1.5x, lazy RSS growth < 10% of resident."""
    smallest, largest = rows[0], rows[-1]
    growth = largest["lazy_latency_s"] / max(smallest["lazy_latency_s"], 1e-9)
    _require(
        growth <= MAX_LATENCY_GROWTH,
        f"fixed-depth latency grew {growth:.2f}x from {smallest['tuples']:,}"
        f" to {largest['tuples']:,} tuples, above {MAX_LATENCY_GROWTH}x: the"
        " pushdown pages in more than the prefix",
    )
    _require(
        largest["rss_fraction"] < MAX_RSS_FRACTION,
        f"the lazy query's RSS growth is {100 * largest['rss_fraction']:.1f}%"
        f" of the resident path's, not below {100 * MAX_RSS_FRACTION:.0f}%:"
        " the depth-bounded path materializes the table",
    )
