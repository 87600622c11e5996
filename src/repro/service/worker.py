"""The worker-process side of the sharded serving tier.

``repro serve --workers N`` forks N of these (see
:mod:`repro.service.router` for the front).  Each worker is a complete
single-process :class:`~repro.service.server.QueryService` — its own
catalog replica, session caches, batching executor, standing registry
— built by :func:`build_service`, plus a thin message loop speaking
tuples over a pair of ``multiprocessing`` queues:

================  =============================================  =========================================
request                                                           response payload
================  =============================================  =========================================
``("handle", id, endpoint, payload)``                             ``(status, retry_after, body)``
``("healthz", id)`` / ``("metrics", id)``                         ``(status, document)``
``("has_sub", id, sid)``                                          ``bool``
``("watch_wait", id, sid, after, timeout_s)``                     snapshot dict or ``None``
``("stop", id, drain, timeout)``                                  ``"stopped"`` (loop exits)
================  =============================================  =========================================

Responses are ``(id, ok, payload)``; ``ok=False`` carries the error
string.  A ``handle`` response ships the reply's encoded body, which
the front passes through without decoding it.  The boot acknowledgement uses the reserved id :data:`BOOT_ID`
and carries the worker's recovery summary.

Shard ownership (decided by the :class:`~repro.service.shard.ShardRing`
over the *same* worker count on both sides of the queue):

* The worker replicates **every** catalog table, but passes the ring's
  table ownership as ``wal_tables`` — only owned tables attach a WAL
  observer, write snapshots, or discard durable state on reload.
  Non-owned tables recover read-only to the identical version.
* The standing registry's sids are prefixed ``w{index}-sub-`` so the
  front can route ``unsubscribe``/``watch`` from the sid alone, even
  for subscriptions restored from the worker's own durable manifest
  (``subscriptions.w{index}.json``).

Plain ``repro serve`` builds its in-process service with the same
:func:`build_service`, as worker 0 of 1.

Requests are dispatched on a thread pool sized to the executor's
admission bound (:func:`dispatch_pool_size`), so every message is
*running* ``handle`` immediately and a full executor queue surfaces as
a real 429 — the pool never silently buffers past the bound (the front
enforces the same bound on its side and 429s the overflow itself).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.distribution import DEFAULT_P_TAU
from repro.service.catalog import DatasetCatalog
from repro.service.degrade import DegradationPolicy
from repro.service.faults import FaultInjector
from repro.service.server import QueryService
from repro.service.shard import ShardRing
from repro.standing.wal import DurableStore

#: Reserved response id of the one boot acknowledgement.
BOOT_ID = -1

#: Dispatch-pool headroom past the executor's admission bound, for
#: inline endpoints (mutate/subscribe/...) and transport probes that
#: never enter the executor queue.
DISPATCH_SLACK = 8


def dispatch_pool_size(max_queue: int, threads: int) -> int:
    """Concurrent requests one worker accepts before its front 429s.

    The executor admits ``max_queue`` pending plus ``threads`` running
    requests; anything past that must fail fast with backpressure, so
    both the worker's dispatch pool and the front's per-worker inflight
    bound use this same number.
    """
    return max_queue + threads + DISPATCH_SLACK


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one service replica needs besides its bindings.

    ``repro serve`` turns its flags into one of these for either
    deployment; picklable so it crosses the process boundary under
    any multiprocessing start method.
    """

    cache_size: int = 64
    threads: int = 2
    max_queue: int = 128
    max_batch: int = 32
    batched: bool = True
    request_timeout_s: float = 30.0
    degrade: bool = True
    degrade_deadline_s: float = 0.5
    degrade_queue_depth: int = 64
    data_dir: str | None = None
    snapshot_every: int = 256
    warm: int | None = None


def build_service(
    index: int,
    workers: int,
    bindings: Mapping[str, str],
    config: WorkerConfig,
) -> QueryService:
    """Worker ``index`` of ``workers``: a full catalog replica that
    owns its ring shard of the WALs and warm keys.

    Worker 0 of 1 is the in-process server: it owns every table and
    keeps the unsharded durable names, ``subscriptions.json`` and
    ``sub-N`` sids.
    """
    # Injected faults crash the *process* (like a power cut), so the
    # chaos harness can assert real recovery, not a caught exception.
    faults = FaultInjector.from_env(crash_mode="exit")
    wal_tables: set[str] | None = None
    warm_tables: list[str] | None = None
    manifest_name, sid_prefix = "subscriptions.json", "sub-"
    if workers > 1:
        ring = ShardRing(workers)
        wal_tables = {
            name for name in bindings if ring.table_owner(name) == index
        }
        warm_tables = [
            name
            for name in sorted(bindings)
            if ring.query_owner(name, DEFAULT_P_TAU) == index
        ]
        manifest_name = f"subscriptions.w{index}.json"
        sid_prefix = f"w{index}-sub-"
    store = None
    if config.data_dir is not None:
        store = DurableStore(
            config.data_dir,
            snapshot_every=config.snapshot_every,
            faults=faults,
            manifest_name=manifest_name,
        )
    catalog = DatasetCatalog(
        bindings,
        cache_size=config.cache_size,
        store=store,
        wal_tables=wal_tables,
    )
    degradation = None
    if config.degrade:
        degradation = DegradationPolicy(
            deadline_s=config.degrade_deadline_s,
            queue_depth=config.degrade_queue_depth,
        )
    service = QueryService(
        catalog,
        workers=config.threads,
        max_queue=config.max_queue,
        max_batch=config.max_batch,
        batched=config.batched,
        request_timeout_s=config.request_timeout_s,
        degradation=degradation,
        faults=faults,
        sid_prefix=sid_prefix,
    )
    if config.warm is not None:
        # A sharded worker warms only the default-p_tau keys routed to it.
        catalog.warm(config.warm, tables=warm_tables)
    return service


def boot_document(index: int, service: QueryService) -> dict[str, Any]:
    """What one replica loaded, recovered and restored: the sharded
    boot ack's payload, and what either deployment's boot report
    prints."""
    document: dict[str, Any] = {
        "worker": index,
        "tables": service.catalog.describe(),
        "wal_tables": sorted(
            name
            for name in service.catalog.names()
            if service.catalog.owns_wal(name)
        ),
        "restored_subscriptions": list(service.restored_subscriptions),
        "failed_subscriptions": dict(service.failed_subscriptions),
    }
    store = service.catalog.store
    if store is not None:
        document["recovery"] = store.recovery_info
    if service.faults:
        document["faults"] = service.faults.describe()
    return document


def _dispatch(service: Any, message: tuple, response_q: Any) -> None:
    """Serve one queue message; the response mirrors its request id."""
    kind, req_id = message[0], message[1]
    try:
        result: Any
        if kind == "handle":
            reply = service.handle(message[2], message[3])
            result = (reply.status, reply.retry_after, reply.body)
        elif kind == "healthz":
            reply = service.healthz()
            result = (reply.status, reply.document)
        elif kind == "metrics":
            reply = service.metrics_document()
            result = (reply.status, reply.document)
        elif kind == "has_sub":
            result = service.has_subscription(message[2])
        elif kind == "watch_wait":
            result = service.watch_wait(*message[2:5])
        else:
            raise ValueError(f"unknown worker message kind {kind!r}")
    except Exception as exc:
        response_q.put((req_id, False, f"{type(exc).__name__}: {exc}"))
    else:
        response_q.put((req_id, True, result))


def worker_main(
    index: int,
    workers: int,
    bindings: dict[str, str],
    config: WorkerConfig,
    request_q: Any,
    response_q: Any,
) -> None:
    """The worker process entry point: build, ack, serve until stop."""
    import signal

    # A terminal Ctrl-C delivers SIGINT to the whole foreground
    # process group — front *and* workers.  The front coordinates the
    # drain through "stop" messages, so the workers must outlive the
    # signal or the graceful path never runs.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        service = build_service(index, workers, bindings, config)
    except Exception as exc:
        response_q.put(
            (BOOT_ID, False, f"{type(exc).__name__}: {exc}")
        )
        return
    response_q.put((BOOT_ID, True, boot_document(index, service)))
    pool = ThreadPoolExecutor(
        max_workers=dispatch_pool_size(config.max_queue, config.threads),
        thread_name_prefix=f"repro-w{index}",
    )
    while True:
        message = request_q.get()
        if message[0] == "stop":
            _, req_id, drain, timeout = message
            if drain:
                # Graceful: finish every dispatched request (the
                # executor is still running), then drain the executor
                # queue and flush/close this worker's WAL shard.
                pool.shutdown(wait=True)
                service.shutdown(drain=True, timeout=timeout)
            else:
                service.shutdown()
                pool.shutdown(wait=False)
            response_q.put((req_id, True, "stopped"))
            break
        pool.submit(_dispatch, service, message, response_q)
    response_q.close()
    response_q.join_thread()
