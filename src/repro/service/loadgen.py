"""A closed-loop load generator for the query service.

``repro loadgen`` drives a running ``repro serve`` instance with a
deterministic mixed-semantics workload: ``concurrency`` client
threads each keep exactly one request in flight (closed loop), drawing
the next request from a seeded rotation over all registered answer
semantics, the distribution and typical endpoints, and a small sweep
of ``k``/``p_tau`` shapes.  429 backpressure responses are retried
after the server's ``Retry-After`` hint and counted separately, so an
overloaded server degrades throughput instead of failing the run.

The same machinery runs in-process in the ``bar_service_batching``
entry of ``repro figures`` (batched vs. unbatched ≥2x) and in the
``service-smoke`` CI job.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.exceptions import ServiceError

#: Endpoint mix of the default workload: (endpoint, extra fields).
#: ``semantics: None`` is filled from the rotation below.
DEFAULT_SEMANTICS_MIX = (
    "typical",
    "u_topk",
    "pt_k",
    "u_kranks",
    "global_topk",
    "expected_ranks",
)

#: (k, p_tau) shapes the workload sweeps.
DEFAULT_SHAPES = ((5, 0.0), (10, 0.0), (5, 0.1))


@dataclass
class LoadgenResult:
    """Aggregate outcome of one closed-loop run."""

    requests: int
    ok: int
    elapsed_s: float
    throughput_rps: float
    latencies_ms: list[float] = field(repr=False, default_factory=list)
    status_counts: dict[int, int] = field(default_factory=dict)
    retried_429: int = 0
    transport_errors: int = 0
    degraded: int = 0

    def percentile_ms(self, q: float) -> float | None:
        if not self.latencies_ms:
            return None
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> dict[str, Any]:
        """JSON-ready summary (printed by ``repro loadgen``)."""
        return {
            "requests": self.requests,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "latency_ms": {
                "p50": self.percentile_ms(0.50),
                "p95": self.percentile_ms(0.95),
                "p99": self.percentile_ms(0.99),
            },
            "status_counts": {
                str(code): count
                for code, count in sorted(self.status_counts.items())
            },
            "retried_429": self.retried_429,
            "transport_errors": self.transport_errors,
            "degraded": self.degraded,
        }


def _retry_after_seconds(headers: Any) -> float | None:
    """The Retry-After hint of a response, if present and numeric."""
    value = headers.get("Retry-After") if headers is not None else None
    try:
        return float(value) if value is not None else None
    except ValueError:
        return None


def _http_json(
    url: str, payload: dict[str, Any] | None, timeout: float
) -> tuple[int, dict[str, Any], float | None]:
    """One request; returns (status, parsed body, Retry-After seconds).

    GET when no payload; the Retry-After element is ``None`` unless
    the server sent a numeric hint (it does on 429).
    """
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read() or b"{}"),
                _retry_after_seconds(response.headers),
            )
    except urllib.error.HTTPError as exc:
        try:
            body = json.loads(exc.read() or b"{}")
        except json.JSONDecodeError:
            body = {}
        return exc.code, body, _retry_after_seconds(exc.headers)


def discover_tables(base_url: str, *, timeout: float = 10.0) -> list[str]:
    """Table names served by a running instance (via ``/healthz``)."""
    status, body, _ = _http_json(f"{base_url}/healthz", None, timeout)
    if status != 200 or "tables" not in body:
        raise ServiceError(
            f"cannot discover tables at {base_url}/healthz "
            f"(status {status})"
        )
    return sorted(body["tables"])


def build_workload(
    tables: list[str],
    requests: int,
    *,
    scorer: str = "score",
    seed: int = 0,
) -> list[tuple[str, dict[str, Any]]]:
    """A deterministic mixed workload: (endpoint, payload) pairs.

    Requests rotate over tables, the semantics mix (via
    ``/v1/answer``), ``/v1/distribution`` and ``/v1/typical``, and the
    ``(k, p_tau)`` shape sweep; a seeded shuffle interleaves the
    groups so batches form from genuinely mixed traffic.
    """
    if not tables:
        raise ServiceError("workload needs >= 1 table")
    workload: list[tuple[str, dict[str, Any]]] = []
    endpoints = (
        [("answer", semantics) for semantics in DEFAULT_SEMANTICS_MIX]
        + [("distribution", None), ("typical", None)]
    )
    for index in range(requests):
        table = tables[index % len(tables)]
        k, p_tau = DEFAULT_SHAPES[index % len(DEFAULT_SHAPES)]
        endpoint, semantics = endpoints[index % len(endpoints)]
        payload: dict[str, Any] = {
            "table": table,
            "scorer": scorer,
            "k": k,
            "p_tau": p_tau,
        }
        if semantics is not None:
            payload["semantics"] = semantics
        workload.append((endpoint, payload))
    random.Random(seed).shuffle(workload)
    return workload


def _run_loadgen_child(kwargs: dict[str, Any]) -> dict[str, Any]:
    """One child process's share of the run (top level: picklable)."""
    return asdict(run_loadgen(**kwargs))


def run_loadgen(
    base_url: str,
    *,
    requests: int = 100,
    concurrency: int = 8,
    tables: list[str] | None = None,
    scorer: str = "score",
    seed: int = 0,
    timeout: float = 60.0,
    max_429_retries: int = 50,
    processes: int = 1,
) -> LoadgenResult:
    """Drive ``requests`` total requests with a closed-loop thread pool.

    ``processes > 1`` splits the workload over that many *client
    processes* (each still running ``concurrency`` closed-loop
    threads), sidestepping the generator's own GIL when benchmarking a
    multi-worker server; results merge into one summary.
    """
    if requests < 1:
        raise ServiceError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ServiceError(f"concurrency must be >= 1, got {concurrency}")
    if processes < 1:
        raise ServiceError(f"processes must be >= 1, got {processes}")
    base_url = base_url.rstrip("/")
    if tables is None:
        tables = discover_tables(base_url, timeout=timeout)
    if processes > 1:
        return _run_multiprocess(
            base_url,
            requests=requests,
            concurrency=concurrency,
            tables=tables,
            scorer=scorer,
            seed=seed,
            timeout=timeout,
            max_429_retries=max_429_retries,
            processes=processes,
        )
    workload = build_workload(tables, requests, scorer=scorer, seed=seed)

    lock = threading.Lock()
    cursor = 0
    latencies: list[float] = []
    status_counts: dict[int, int] = {}
    retried = 0
    transport_errors = 0
    degraded = 0

    def next_index() -> int | None:
        nonlocal cursor
        with lock:
            if cursor >= len(workload):
                return None
            index = cursor
            cursor += 1
            return index

    def client() -> None:
        nonlocal retried, transport_errors, degraded
        while True:
            index = next_index()
            if index is None:
                return
            endpoint, payload = workload[index]
            url = f"{base_url}/v1/{endpoint}"
            start = time.perf_counter()
            retries = 0
            while True:
                try:
                    status, body, retry_after = _http_json(
                        url, payload, timeout
                    )
                except (OSError, urllib.error.URLError):
                    with lock:
                        transport_errors += 1
                        status_counts[599] = status_counts.get(599, 0) + 1
                    break
                if status == 429 and retries < max_429_retries:
                    retries += 1
                    # Honor the server's Retry-After hint; fall back
                    # to a short fixed pause when it is absent.
                    time.sleep(
                        retry_after if retry_after is not None else 0.05
                    )
                    continue
                elapsed_ms = (time.perf_counter() - start) * 1e3
                with lock:
                    latencies.append(elapsed_ms)
                    status_counts[status] = status_counts.get(status, 0) + 1
                    retried += retries
                    if status == 200 and body.get("degraded"):
                        degraded += 1
                break

    threads = [
        threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    ok = status_counts.get(200, 0)
    return LoadgenResult(
        requests=requests,
        ok=ok,
        elapsed_s=elapsed,
        throughput_rps=requests / elapsed if elapsed > 0 else 0.0,
        latencies_ms=latencies,
        status_counts=status_counts,
        retried_429=retried,
        transport_errors=transport_errors,
        degraded=degraded,
    )


def _run_multiprocess(
    base_url: str,
    *,
    requests: int,
    concurrency: int,
    tables: list[str],
    scorer: str,
    seed: int,
    timeout: float,
    max_429_retries: int,
    processes: int,
) -> LoadgenResult:
    """Fan the workload over client processes and merge the results.

    Each child draws a disjoint slice of the request budget with its
    own seed offset (so the interleaving differs per child but the
    whole run stays reproducible) and reports its counters back through
    a ``multiprocessing`` pool.
    """
    processes = min(processes, requests)
    base, remainder = divmod(requests, processes)
    shares = [
        base + (1 if index < remainder else 0)
        for index in range(processes)
    ]
    jobs = [
        {
            "base_url": base_url,
            "requests": share,
            "concurrency": concurrency,
            "tables": tables,
            "scorer": scorer,
            "seed": seed + 1000 * index,
            "timeout": timeout,
            "max_429_retries": max_429_retries,
        }
        for index, share in enumerate(shares)
        if share > 0
    ]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    started = time.perf_counter()
    with ctx.Pool(len(jobs)) as pool:
        child_results = pool.map(_run_loadgen_child, jobs)
    elapsed = time.perf_counter() - started

    latencies: list[float] = []
    status_counts: dict[int, int] = {}
    ok = retried = transport_errors = degraded = 0
    for child in child_results:
        ok += child["ok"]
        retried += child["retried_429"]
        transport_errors += child["transport_errors"]
        degraded += child["degraded"]
        latencies.extend(child["latencies_ms"])
        for code, count in child["status_counts"].items():
            code = int(code)
            status_counts[code] = status_counts.get(code, 0) + count
    return LoadgenResult(
        requests=requests,
        ok=ok,
        elapsed_s=elapsed,
        throughput_rps=requests / elapsed if elapsed > 0 else 0.0,
        latencies_ms=latencies,
        status_counts=status_counts,
        retried_429=retried,
        transport_errors=transport_errors,
        degraded=degraded,
    )
