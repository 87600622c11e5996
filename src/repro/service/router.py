"""The front of the sharded serving tier: route, fan out, roll up.

``repro serve --workers N`` builds one :class:`ShardedQueryService`
in the parent process and N worker processes
(:mod:`repro.service.worker`).  The front implements the same
:class:`~repro.service.server.ServiceProtocol` the HTTP handler speaks,
so ``--workers 1`` (a plain in-process :class:`QueryService`) and
``--workers 8`` serve byte-identical responses through the same
transport.

Routing (one :class:`~repro.service.shard.ShardRing`, shared by
construction with the workers):

* **Query endpoints** (answer / distribution / typical / explain /
  subscribe) route by ``(table, p_tau)`` — the shape the session
  caches and the executor's batch key both key on — so one
  distribution's staged LRU state lives on exactly one worker and
  single-flight keeps holding across processes.
* **Mutations and reloads** serialize per table under a front-side
  lock and fan out to *every* worker, table owner first: the owner
  persists to its WAL shard before acknowledging (fsync-before-ack
  unchanged), then the replicas apply the same deterministic op.  The
  client ack waits for all replicas, so any later read — routed to
  whichever worker owns its query shape — observes the write.
* **Subscriptions** live on the query owner of their shape; sids are
  prefixed ``w{index}-sub-`` so ``unsubscribe`` and ``watch`` route
  from the sid alone, restarts included.

Backpressure is enforced twice with the same bound: the front caps
in-flight requests per worker at the worker's admission bound
(:func:`~repro.service.worker.dispatch_pool_size`) and 429s the
overflow with a derived ``Retry-After``; under that cap the worker's
own executor queue produces the authoritative 429s, which pass
through untouched.

Failure modes: a worker that dies fails its in-flight requests with
500 and ``/healthz`` flips to ``degraded`` naming the dead worker; a
replica that rejects a mutation the owner accepted is reported as a
500 (divergence — restart the server) rather than silently serving
split-brain answers.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import re
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from typing import Any, Mapping

from repro.exceptions import ServiceError
from repro.service.batching import DEFAULT_RETRY_AFTER_S
from repro.service.metrics import ServiceMetrics
from repro.service.server import ServiceHTTPServer, WatchLoop, _Reply
from repro.service.shard import ShardRing, payload_query_key
from repro.service.worker import (
    BOOT_ID,
    WorkerConfig,
    dispatch_pool_size,
    worker_main,
)

#: How long to wait for one worker to build its replica and ack boot.
DEFAULT_BOOT_TIMEOUT_S = 120.0

#: Slack past the request timeout before the front declares 504 on a
#: forwarded request (covers queue hops and response marshalling).
FORWARD_TIMEOUT_SLACK_S = 10.0

#: Endpoints routed by query shape to the ring's query owner.
QUERY_ENDPOINTS = frozenset(
    {"answer", "distribution", "typical", "explain", "subscribe"}
)

#: Endpoints fanned out to every worker, table owner first.
TABLE_ENDPOINTS = frozenset({"mutate", "reload"})

_SID_PREFIX = re.compile(r"^w(\d+)-")


class WorkerHandle:
    """One worker process: its queues, reader thread, pending futures."""

    def __init__(self, index: int, ctx: Any) -> None:
        self.index = index
        self.request_q = ctx.Queue()
        self.response_q = ctx.Queue()
        self.process: Any = None
        self.inflight = 0
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._reader: threading.Thread | None = None
        self._closed = False

    def start_reader(self) -> None:
        self._reader = threading.Thread(
            target=self._read_responses,
            name=f"repro-front-w{self.index}",
            daemon=True,
        )
        self._reader.start()

    def _read_responses(self) -> None:
        """Resolve response messages into their futures; when the
        worker dies, fail everything still pending."""
        import queue as queue_module

        while True:
            try:
                req_id, ok, payload = self.response_q.get(timeout=0.5)
            except queue_module.Empty:
                if self._closed or not self.process.is_alive():
                    self._fail_pending(
                        f"worker w{self.index} is not running"
                    )
                    if self._closed:
                        return
                    # Keep watching: late messages may still surface
                    # from the queue buffer after process exit.
                continue
            except (EOFError, OSError):
                self._fail_pending(f"worker w{self.index} closed its queue")
                return
            with self._lock:
                future = self._pending.pop(req_id, None)
            if future is None:
                continue
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(ServiceError(str(payload)))

    def _fail_pending(self, reason: str) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(ServiceError(reason))

    def submit(self, req_id: int, message: tuple) -> Future:
        future: Future = Future()
        with self._lock:
            self._pending[req_id] = future
        try:
            self.request_q.put(message)
        except (ValueError, OSError) as exc:
            with self._lock:
                self._pending.pop(req_id, None)
            future.set_exception(
                ServiceError(f"worker w{self.index} unreachable: {exc}")
            )
        return future

    def close(self) -> None:
        self._closed = True


class WorkerPool:
    """Boot, address and stop the worker processes."""

    def __init__(
        self,
        workers: int,
        bindings: Mapping[str, str],
        config: WorkerConfig,
        *,
        boot_timeout_s: float = DEFAULT_BOOT_TIMEOUT_S,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.bindings = dict(bindings)
        self.config = config
        # fork shares the parent's loaded modules (fast boot); fall
        # back to the platform default where fork is unavailable.
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        self.handles = [WorkerHandle(i, ctx) for i in range(workers)]
        self.boot_documents: list[dict[str, Any]] = []
        self._req_ids = itertools.count(1)
        for handle in self.handles:
            handle.process = ctx.Process(
                target=worker_main,
                args=(
                    handle.index,
                    workers,
                    self.bindings,
                    config,
                    handle.request_q,
                    handle.response_q,
                ),
                daemon=True,
                name=f"repro-worker-{handle.index}",
            )
            handle.process.start()
        try:
            for handle in self.handles:
                self.boot_documents.append(
                    self._await_boot(handle, boot_timeout_s)
                )
        except Exception:
            self.stop(drain=False, timeout=1.0)
            raise
        for handle in self.handles:
            handle.start_reader()

    @staticmethod
    def _await_boot(handle: WorkerHandle, timeout_s: float) -> dict:
        import queue as queue_module

        try:
            req_id, ok, payload = handle.response_q.get(timeout=timeout_s)
        except queue_module.Empty:
            raise ServiceError(
                f"worker w{handle.index} did not boot within {timeout_s}s"
            ) from None
        if req_id != BOOT_ID:  # pragma: no cover - defensive
            raise ServiceError(
                f"worker w{handle.index} spoke before booting"
            )
        if not ok:
            raise ServiceError(
                f"worker w{handle.index} failed to boot: {payload}"
            )
        return dict(payload)

    def request(
        self, index: int, kind: str, *args: Any, timeout: float
    ) -> Any:
        """One round trip to worker ``index``; raises on death/timeout."""
        handle = self.handles[index]
        req_id = next(self._req_ids)
        future = handle.submit(req_id, (kind, req_id, *args))
        return future.result(timeout)

    def alive(self) -> list[bool]:
        return [bool(h.process.is_alive()) for h in self.handles]

    def stop(self, *, drain: bool, timeout: float) -> None:
        """Stop every worker (drain first when asked), then reap."""
        futures = []
        for handle in self.handles:
            req_id = next(self._req_ids)
            futures.append(
                handle.submit(req_id, ("stop", req_id, drain, timeout))
            )
        deadline = time.monotonic() + (timeout if drain else 1.0) + 5.0
        for handle, future in zip(self.handles, futures):
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                future.result(remaining)
            except Exception:
                pass  # dead or wedged; terminate below
        for handle in self.handles:
            handle.close()
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)


class ShardedQueryService(WatchLoop):
    """The front: ServiceProtocol over a pool of worker processes."""

    def __init__(
        self,
        bindings: Mapping[str, str],
        *,
        workers: int,
        config: WorkerConfig | None = None,
        boot_timeout_s: float = DEFAULT_BOOT_TIMEOUT_S,
        **config_kwargs: Any,
    ) -> None:
        if config is None:
            config = WorkerConfig(**config_kwargs)
        elif config_kwargs:
            raise ServiceError(
                "pass either a WorkerConfig or keyword fields, not both"
            )
        self.ring = ShardRing(workers)
        self.config = config
        self.metrics = ServiceMetrics()
        self.request_timeout_s = config.request_timeout_s
        self.pool = WorkerPool(
            workers, bindings, config, boot_timeout_s=boot_timeout_s
        )
        self._started = time.time()
        self._inflight_limit = dispatch_pool_size(
            config.max_queue, config.threads
        )
        self._inflight = [0] * workers
        self._inflight_lock = threading.Lock()
        #: Last Retry-After hint seen from each worker's 429s; the
        #: front's own rejections reuse it (best available estimate).
        self._last_retry_hint = [DEFAULT_RETRY_AFTER_S] * workers
        self._table_locks: dict[str, threading.Lock] = {
            name: threading.Lock() for name in self.pool.bindings
        }

    # ------------------------------------------------------------------
    # Forwarding plumbing
    # ------------------------------------------------------------------
    def _admit(self, index: int) -> bool:
        with self._inflight_lock:
            if self._inflight[index] >= self._inflight_limit:
                return False
            self._inflight[index] += 1
            return True

    def _release(self, index: int) -> None:
        with self._inflight_lock:
            self._inflight[index] -= 1

    def _forward(
        self, index: int, endpoint: str, payload: dict[str, Any]
    ) -> _Reply:
        """One request to one worker, with front-side admission."""
        if not self._admit(index):
            self.metrics.record_rejection()
            hint = self._last_retry_hint[index]
            return _Reply(
                429,
                {
                    "error": (
                        f"worker w{index} is at capacity "
                        f"({self._inflight_limit} in flight)"
                    ),
                    "retry_after_s": hint,
                },
                retry_after=hint,
            )
        try:
            timeout = self.request_timeout_s + FORWARD_TIMEOUT_SLACK_S
            status, retry_after, body = self.pool.request(
                index, "handle", endpoint, payload, timeout=timeout
            )
        except FutureTimeoutError:
            return _Reply(
                504,
                {
                    "error": (
                        f"worker w{index} did not answer within "
                        f"{self.request_timeout_s}s"
                    )
                },
            )
        except ServiceError as exc:
            return _Reply(500, {"error": str(exc)})
        finally:
            self._release(index)
        if status == 429:
            self.metrics.record_rejection()
            if isinstance(retry_after, (int, float)) and retry_after > 0:
                self._last_retry_hint[index] = float(retry_after)
        return _Reply(status, retry_after=retry_after, body=body)

    def _sid_worker(self, sid: str) -> int | None:
        """The worker index a sid encodes (``w{i}-sub-N``), or None."""
        if self.pool.workers == 1:
            return 0  # worker 0 of 1 keeps the unsharded ``sub-N`` sids
        match = _SID_PREFIX.match(sid or "")
        if match is None:
            return None
        index = int(match.group(1))
        return index if index < self.pool.workers else None

    # ------------------------------------------------------------------
    # ServiceProtocol
    # ------------------------------------------------------------------
    def handle(self, endpoint: str, payload: dict[str, Any]) -> _Reply:
        if endpoint in QUERY_ENDPOINTS:
            owner = self.ring.owner(payload_query_key(payload))
            return self._forward(owner, endpoint, payload)
        if endpoint in TABLE_ENDPOINTS:
            return self._fan_out_table(endpoint, payload)
        if endpoint == "unsubscribe":
            sid = payload.get("sid") if isinstance(payload, dict) else None
            index = self._sid_worker(sid) if isinstance(sid, str) else None
            if index is not None:
                return self._forward(index, endpoint, payload)
            # Unknown shape: let worker 0 produce the canonical
            # 400/removed=false document.
            return self._forward(0, endpoint, payload)
        return _Reply(404, {"error": f"unknown endpoint {endpoint!r}"})

    def _fan_out_table(
        self, endpoint: str, payload: dict[str, Any]
    ) -> _Reply:
        """Mutate/reload: owner first (durability), then every replica.

        Serialized per table so all replicas apply the same op order —
        the invariant that keeps them byte-identical.
        """
        table = payload.get("table") if isinstance(payload, dict) else None
        if not isinstance(table, str) or not table:
            return self._forward(0, endpoint, payload)
        lock = self._table_locks.get(table)
        if lock is None:
            # Unknown table: any worker produces the canonical 404.
            return self._forward(
                self.ring.table_owner(table), endpoint, payload
            )
        with lock:
            owner = self.ring.table_owner(table)
            reply = self._forward(owner, endpoint, payload)
            if reply.status != 200:
                # The owner rejected (or failed) before persisting:
                # nothing was applied anywhere, so the replicas are
                # untouched and consistent.
                return reply
            failures = {}
            for index in range(self.pool.workers):
                if index == owner:
                    continue
                replica = self._forward(index, endpoint, payload)
                if replica.status != 200:
                    failures[f"w{index}"] = replica.document
            if failures:
                return _Reply(
                    500,
                    {
                        "error": (
                            f"{endpoint} diverged: the table owner "
                            f"w{owner} applied the operation but "
                            "replicas rejected it; restart the server "
                            "to re-sync from durable state"
                        ),
                        "table": table,
                        "owner": reply.document,
                        "failures": failures,
                    },
                )
            return reply

    def has_subscription(self, sid: str) -> bool:
        index = self._sid_worker(sid)
        if index is None:
            return False
        try:
            return bool(
                self.pool.request(index, "has_sub", sid, timeout=5.0)
            )
        except Exception:
            return False

    def watch_wait(
        self, sid: str, after: int, timeout_s: float
    ) -> dict[str, Any] | None:
        """The ``watch_wait`` round trip to the sid's worker (see
        :class:`~repro.service.server.WatchLoop`); ``None`` ends the
        watch when no live worker holds the sid."""
        index = self._sid_worker(sid)
        if index is None:
            return None
        try:
            return self.pool.request(
                index,
                "watch_wait",
                sid,
                after,
                timeout_s,
                timeout=timeout_s + FORWARD_TIMEOUT_SLACK_S,
            )
        except Exception:
            return None

    def healthz(self) -> _Reply:
        """Merged liveness: per-worker documents plus the ring map."""
        alive = self.pool.alive()
        documents: dict[str, Any] = {}
        for index in range(self.pool.workers):
            if not alive[index]:
                documents[f"w{index}"] = {"status": "dead"}
                continue
            try:
                status, document = self.pool.request(
                    index, "healthz", timeout=10.0
                )
            except Exception as exc:
                documents[f"w{index}"] = {
                    "status": "unreachable",
                    "error": str(exc),
                }
                alive[index] = False
            else:
                documents[f"w{index}"] = document
        # Each table's authoritative row comes from its WAL owner.
        tables: dict[str, Any] = {}
        for name in sorted(self.pool.bindings):
            owner = self.ring.table_owner(name)
            owner_doc = documents.get(f"w{owner}", {})
            row = owner_doc.get("tables", {}).get(name)
            if row is not None:
                tables[name] = dict(row, shard_owner=owner)
        healthy = all(alive)
        document = {
            "status": "ok" if healthy else "degraded",
            "uptime_s": round(time.time() - self._started, 3),
            "sharding": dict(
                self.ring.describe(),
                inflight_limit=self._inflight_limit,
                alive=sum(1 for a in alive if a),
            ),
            "tables": tables,
            "workers": documents,
        }
        return _Reply(200 if healthy else 503, document)

    def metrics_document(self) -> _Reply:
        """Roll per-worker metrics into one document.

        Counters sum across workers (a fan-out mutation counts once
        per replica — the rollup reports work performed, not client
        operations); gauges take the max.  Per-worker documents ride
        along under ``workers`` for anything the rollup flattens.
        """
        worker_docs: dict[str, Any] = {}
        for index in range(self.pool.workers):
            try:
                _, document = self.pool.request(
                    index, "metrics", timeout=10.0
                )
            except Exception as exc:
                document = {"error": str(exc)}
            worker_docs[f"w{index}"] = document
        front = self.metrics.snapshot()
        merged: dict[str, Any] = {
            "uptime_s": round(time.time() - self._started, 3),
            "sharding": self.ring.describe(),
            "requests": _merge_requests(worker_docs),
            "batches": _merge_batches(worker_docs),
            "queue": _merge_queue(worker_docs, front),
            "degraded": _merge_degraded(worker_docs),
            "watch": front["watch"],
            "standing": _sum_int_documents(worker_docs, "standing"),
            "cache": _merge_cache(worker_docs),
            "fusion": _sum_int_documents(worker_docs, "fusion"),
            "workers": worker_docs,
        }
        return _Reply(200, merged)

    def shutdown(
        self, *, drain: bool = False, timeout: float = 10.0
    ) -> None:
        self.pool.stop(drain=drain, timeout=timeout)


# ----------------------------------------------------------------------
# Metric rollups
# ----------------------------------------------------------------------
def _merge_requests(worker_docs: Mapping[str, Any]) -> dict[str, Any]:
    merged: dict[str, dict[str, Any]] = {}
    for document in worker_docs.values():
        for endpoint, entry in document.get("requests", {}).items():
            row = merged.setdefault(
                endpoint, {"count": 0, "errors": 0, "latency_ms_sum": 0.0}
            )
            row["count"] += entry.get("count", 0)
            row["errors"] += entry.get("errors", 0)
            row["latency_ms_sum"] += entry.get("latency_ms", {}).get(
                "sum", 0.0
            )
    for row in merged.values():
        count = row["count"]
        row["latency_ms_mean"] = (
            round(row.pop("latency_ms_sum") / count, 6) if count else None
        )
    return dict(sorted(merged.items()))


def _merge_batches(worker_docs: Mapping[str, Any]) -> dict[str, Any]:
    count = requests = 0
    for document in worker_docs.values():
        batches = document.get("batches", {})
        count += batches.get("count", 0)
        requests += batches.get("requests", 0)
    return {
        "count": count,
        "requests": requests,
        "mean_size": round(requests / count, 3) if count else None,
    }


def _merge_queue(
    worker_docs: Mapping[str, Any], front: Mapping[str, Any]
) -> dict[str, Any]:
    depth = rejected = max_depth = cache_hits = 0
    for document in worker_docs.values():
        queue = document.get("queue", {})
        depth += queue.get("depth", 0)
        rejected += queue.get("rejected", 0)
        cache_hits += queue.get("cache_hits", 0)
        max_depth = max(max_depth, queue.get("max_depth", 0))
    return {
        "depth": depth,
        "max_depth": max_depth,
        "rejected": rejected,
        "cache_hits": cache_hits,
        "rejected_front": front.get("queue", {}).get("rejected", 0),
    }


def _merge_degraded(worker_docs: Mapping[str, Any]) -> dict[str, Any]:
    count = 0
    reasons: dict[str, int] = {}
    for document in worker_docs.values():
        degraded = document.get("degraded", {})
        count += degraded.get("count", 0)
        for reason, n in degraded.get("reasons", {}).items():
            reasons[reason] = reasons.get(reason, 0) + n
    return {"count": count, "reasons": dict(sorted(reasons.items()))}


def _sum_int_documents(
    worker_docs: Mapping[str, Any], section: str
) -> dict[str, int]:
    merged: dict[str, int] = {}
    for document in worker_docs.values():
        for key, value in document.get(section, {}).items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            merged[key] = merged.get(key, 0) + value
    return dict(sorted(merged.items()))


def _merge_cache(worker_docs: Mapping[str, Any]) -> dict[str, Any]:
    merged: dict[str, dict[str, Any]] = {}
    for document in worker_docs.values():
        for stage, info in document.get("cache", {}).items():
            row = merged.setdefault(stage, {})
            for key, value in info.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                if key == "hit_rate":
                    continue
                row[key] = row.get(key, 0) + value
    for row in merged.values():
        lookups = row.get("hits", 0) + row.get("misses", 0)
        row["hit_rate"] = (
            round(row.get("hits", 0) / lookups, 4) if lookups else None
        )
    return dict(sorted(merged.items()))


def make_sharded_server(
    bindings: Mapping[str, str],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    workers: int,
    **config_kwargs: Any,
) -> ServiceHTTPServer:
    """An HTTP server fronting ``workers`` worker processes."""
    service = ShardedQueryService(
        bindings, workers=workers, **config_kwargs
    )
    return ServiceHTTPServer((host, port), service, verbose=verbose)
