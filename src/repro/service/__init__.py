"""The batching concurrent query service (``repro serve``).

Layers:

* :mod:`repro.service.catalog` — named tables (files or generator
  specs) loaded once and kept resident in a shared, thread-safe
  :class:`~repro.api.session.Session` with LRU-bounded staged caches;
* :mod:`repro.service.batching` — the bounded micro-batching executor
  grouping in-flight requests by ``(table, p_tau, algorithm)`` with
  single-flight keys and explicit backpressure;
* :mod:`repro.service.metrics` — per-endpoint latency histograms,
  batch-size distribution and cache hit rates, rendered as JSON;
* :mod:`repro.service.server` — the stdlib HTTP face
  (``POST /v1/answer``, ``/v1/distribution``, ``/v1/typical``, the
  standing-query control plane ``/v1/mutate`` / ``/v1/subscribe`` /
  ``/v1/unsubscribe`` / ``/v1/reload``, the SSE stream
  ``GET /v1/watch``, plus ``GET /healthz``, ``/metrics``);
* :mod:`repro.service.loadgen` — the closed-loop client behind
  ``repro loadgen`` and the batching bar of ``repro figures``;
* :mod:`repro.service.degrade` / :mod:`repro.service.breaker` —
  graceful degradation of overloaded exact work onto bounded
  Monte-Carlo (explicit confidence intervals) and the per
  ``(table, semantics)`` circuit breaker feeding it;
* :mod:`repro.service.faults` — deterministic fault injection
  (``REPRO_FAULTS``) for WAL writes and executor stages, driven by
  ``repro chaos``;
* :mod:`repro.service.shard` / :mod:`repro.service.worker` /
  :mod:`repro.service.router` — the multi-process scale-out tier
  (``repro serve --workers N``): a consistent-hash ring over
  ``(table, p_tau)`` shapes, worker processes each owning a shard of
  the cache/WAL space, and the front router that preserves the
  single-process semantics.
"""

from repro.service.batching import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WORKERS,
    BatchingExecutor,
    batch_key,
)
from repro.service.breaker import CircuitBreaker
from repro.service.catalog import (
    DatasetCatalog,
    load_catalog_file,
    parse_binding,
)
from repro.service.degrade import DegradationPolicy, DegradedAnswer
from repro.service.faults import FaultInjector
from repro.service.loadgen import LoadgenResult, run_loadgen
from repro.service.metrics import ServiceMetrics
from repro.service.router import (
    ShardedQueryService,
    WorkerPool,
    make_sharded_server,
)
from repro.service.server import (
    DEFAULT_REQUEST_TIMEOUT_S,
    MAX_WATCH_TIMEOUT_S,
    QueryService,
    ServiceHTTPServer,
    build_spec,
    make_server,
)
from repro.service.shard import (
    ShardRing,
    payload_query_key,
    query_shard_key,
    table_shard_key,
)
from repro.service.worker import WorkerConfig, dispatch_pool_size

__all__ = [
    "BatchingExecutor",
    "batch_key",
    "DatasetCatalog",
    "load_catalog_file",
    "parse_binding",
    "LoadgenResult",
    "run_loadgen",
    "ServiceMetrics",
    "QueryService",
    "ServiceHTTPServer",
    "build_spec",
    "make_server",
    "DEFAULT_WORKERS",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_REQUEST_TIMEOUT_S",
    "MAX_WATCH_TIMEOUT_S",
    "CircuitBreaker",
    "DegradationPolicy",
    "DegradedAnswer",
    "FaultInjector",
    "ShardRing",
    "ShardedQueryService",
    "WorkerConfig",
    "WorkerPool",
    "dispatch_pool_size",
    "make_sharded_server",
    "payload_query_key",
    "query_shard_key",
    "table_shard_key",
]
