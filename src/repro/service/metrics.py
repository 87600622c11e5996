"""Service metrics: latency histograms, batch sizes, cache hit rates.

Everything is rendered as one JSON document by
:meth:`ServiceMetrics.snapshot` (the ``/metrics`` endpoint)::

    {
      "uptime_s": ...,
      "requests": {"<endpoint>": {"count", "errors", "latency_ms":
                   {"count", "sum", "mean", "p50", "p95", "p99",
                    "buckets": {"<=1": n, ...}}}},
      "batches": {"count", "requests", "mean_size",
                  "sizes": {"1": n, "2": n, "4": n, ...}},
      "queue": {"depth", "max_depth", "rejected", "cache_hits"},
      "degraded": {"count", "reasons": {"deadline": n, "queue": n,
                   "breaker": n}},
      "watch": {"streams", "disconnects"},
      "breaker": <CircuitBreaker.describe(): trips, open, tracked>,
      "cache": <Session.cache_info() plus per-stage hit rates>,
      "fusion": <Session.fusion_info(): batches, groups, fused_specs,
                 sweeps_saved>,
      "storage": per disk-backed table, the page caches'
                 TableStore.cache_info() — hit/miss/eviction counters
                 plus the byte-budget fields (absent for all-resident
                 catalogs)
    }

``queue.cache_hits`` counts the requests the executor answered at
submit from the session's caches.  They never enter a batch, so with
them ``batches.requests + queue.cache_hits`` still adds up to the
requests the executor served.

Histograms use fixed power-of-two bucket upper bounds, so recording
is O(#buckets) with no allocation, and percentiles are read from the
cumulative bucket counts (upper-bound estimates, good to one bucket).
All methods are thread-safe.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any

#: Latency bucket upper bounds, in milliseconds (last bucket is +inf).
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 2048.0, 4096.0,
)

#: Batch-size bucket upper bounds (last bucket is +inf).
BATCH_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


class _Histogram:
    """Fixed-bucket histogram with sum/count (not thread-safe itself;
    callers hold the owning :class:`ServiceMetrics` lock)."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def quantile(self, q: float) -> float | str | None:
        """Upper-bound estimate of the q-quantile from the buckets.

        A quantile past the last bound is the overflow bucket's label
        ``"+inf"``: a float infinity has no strict-JSON form.
        """
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= target and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return "+inf"
        return "+inf"

    def snapshot(self) -> dict[str, Any]:
        labels = [f"<={b:g}" for b in self.bounds] + ["+inf"]
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.total / self.count, 6) if self.count else None,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                label: count
                for label, count in zip(labels, self.counts)
                if count
            },
        }


class ServiceMetrics:
    """Thread-safe counters and histograms for the query service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._requests: dict[str, dict[str, Any]] = {}
        self._batches = _Histogram(tuple(float(b) for b in BATCH_BUCKETS))
        self._batched_requests = 0
        self._queue_depth = 0
        self._max_queue_depth = 0
        self._rejected = 0
        self._cache_hits = 0
        self._degraded: dict[str, int] = {}
        self._watch_streams = 0
        self._watch_disconnects = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(
        self, endpoint: str, seconds: float, *, error: bool = False
    ) -> None:
        """One served request: its endpoint, wall latency and outcome."""
        with self._lock:
            entry = self._requests.get(endpoint)
            if entry is None:
                entry = self._requests[endpoint] = {
                    "count": 0,
                    "errors": 0,
                    "latency": _Histogram(LATENCY_BUCKETS_MS),
                }
            entry["count"] += 1
            if error:
                entry["errors"] += 1
            entry["latency"].observe(seconds * 1e3)

    def record_batch(self, size: int) -> None:
        """One executed micro-batch of ``size`` grouped requests."""
        with self._lock:
            self._batches.observe(float(size))
            self._batched_requests += size

    def record_queue_depth(self, depth: int) -> None:
        """The executor queue depth after an enqueue."""
        with self._lock:
            self._queue_depth = depth
            if depth > self._max_queue_depth:
                self._max_queue_depth = depth

    def record_rejection(self) -> None:
        """One request refused with backpressure (HTTP 429)."""
        with self._lock:
            self._rejected += 1

    def record_cache_hit(self) -> None:
        """One request answered at submit from the session's caches."""
        with self._lock:
            self._cache_hits += 1

    def record_degraded(self, reason: str) -> None:
        """One request re-planned onto the degraded MC tier."""
        with self._lock:
            self._degraded[reason] = self._degraded.get(reason, 0) + 1

    def record_watch_stream(self) -> None:
        """One /v1/watch SSE stream opened."""
        with self._lock:
            self._watch_streams += 1

    def record_watch_disconnect(self) -> None:
        """One watch stream torn down because the client went away."""
        with self._lock:
            self._watch_disconnects += 1

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def snapshot(
        self,
        cache_info: dict[str, dict[str, int]] | None = None,
        fusion_info: dict[str, int] | None = None,
        standing_info: dict[str, int] | None = None,
        breaker_info: dict[str, Any] | None = None,
        storage_info: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """The full metrics document (see the module docstring)."""
        with self._lock:
            requests = {
                endpoint: {
                    "count": entry["count"],
                    "errors": entry["errors"],
                    "latency_ms": entry["latency"].snapshot(),
                }
                for endpoint, entry in sorted(self._requests.items())
            }
            batches = self._batches
            document: dict[str, Any] = {
                "uptime_s": round(time.time() - self._started, 3),
                "requests": requests,
                "batches": {
                    "count": batches.count,
                    "requests": self._batched_requests,
                    "mean_size": (
                        round(self._batched_requests / batches.count, 3)
                        if batches.count
                        else None
                    ),
                    "sizes": {
                        label: count
                        for label, count in zip(
                            [f"<={b}" for b in BATCH_BUCKETS] + ["+inf"],
                            batches.counts,
                        )
                        if count
                    },
                },
                "queue": {
                    "depth": self._queue_depth,
                    "max_depth": self._max_queue_depth,
                    "rejected": self._rejected,
                    "cache_hits": self._cache_hits,
                },
                "degraded": {
                    "count": sum(self._degraded.values()),
                    "reasons": dict(sorted(self._degraded.items())),
                },
                "watch": {
                    "streams": self._watch_streams,
                    "disconnects": self._watch_disconnects,
                },
            }
        if cache_info is not None:
            cache: dict[str, Any] = {}
            for stage, info in cache_info.items():
                lookups = info["hits"] + info["misses"]
                cache[stage] = dict(
                    info,
                    hit_rate=(
                        round(info["hits"] / lookups, 4) if lookups else None
                    ),
                )
            document["cache"] = cache
        if fusion_info is not None:
            document["fusion"] = dict(fusion_info)
        if standing_info is not None:
            document["standing"] = dict(standing_info)
        if breaker_info is not None:
            document["breaker"] = dict(breaker_info)
        if storage_info is not None:
            document["storage"] = dict(storage_info)
        return document
