"""The micro-batching executor: group in-flight requests, run fused.

Requests entering the service queue are grouped by their **batch
key** — :meth:`~repro.api.logical.LogicalPlan.batch_key`, i.e.
``(table, p_tau, algorithm)`` plus the canonical Monte-Carlo knobs
under ``"mc"``; the key derives from the same normalized
:class:`~repro.api.logical.LogicalPlan` the Session's cache keys
derive from, so grouping and caching can never drift.  Requests
sharing a key share the expensive pipeline stages, and a worker hands
the whole group to :meth:`~repro.api.session.Session.execute_many`,
whose planner **fuses** the group's exact dynamic programs: a mixed-k
group over one table runs a single shared-prefix sweep at the largest
``k``, sliced per request (byte-identical to per-request execution) —
instead of one DP per distinct ``(k, algorithm)``.  Keys are
additionally *single-flight*: while one worker is executing a group,
other workers skip that key, so concurrent cold requests for one
distribution never duplicate the DP — they accumulate in the queue
and are served as one warm batch when the key frees up.

A request whose every stage the session already caches never enters
the queue: a batched executor answers it at submit, on the calling
thread, through :meth:`~repro.api.session.Session.cached` (counted as
``queue.cache_hits``).  There is nothing to batch, degrade or fail
for it — a cached exact answer is returned as it is — but a shut
down or draining executor refuses it like any other submit.

Admission control is explicit: the queue is bounded, and a submit
beyond the bound raises :class:`~repro.exceptions.BackpressureError`
(surfaced by the HTTP layer as ``429 Retry-After``), so overload
degrades into fast rejections instead of unbounded memory growth.

Between acceptance and rejection sits **graceful degradation**
(:mod:`repro.service.degrade`): when a policy is installed, exact
``execute`` work whose deadline budget is too small (at submit or
after queueing ate it), or that arrives into a deep queue, or whose
``(table, semantics)`` circuit breaker (:mod:`repro.service.breaker`)
is open, is re-planned through the Monte-Carlo operator with an
epsilon chosen from the remaining budget and answered as a
:class:`~repro.service.degrade.DegradedAnswer` — approximate, but
carrying an explicit confidence interval.  Requests submitted with
``allow_degraded=False`` keep the strict reject/timeout behavior.

Fault points (:mod:`repro.service.faults`): ``exec_delay`` sleeps
every batch before execution, ``exec_error`` fails a batch with
:class:`~repro.exceptions.FaultInjectedError`.

``batched=False`` gives the naive baseline the batching bar
(``repro figures bar_service_batching``) compares against: every
request is queued and executes alone, through a fresh session with
cold caches — exactly what each pre-service entry point (CLI,
one-shot ``Session``) did per invocation.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Hashable, Literal

from repro.api.logical import LogicalPlan
from repro.api.session import MISS, Session
from repro.api.spec import QuerySpec
from repro.exceptions import (
    BackpressureError,
    FaultInjectedError,
    RequestTimeoutError,
    ServiceError,
)
from repro.service.breaker import CircuitBreaker
from repro.service.degrade import (
    DegradationPolicy,
    DegradedAnswer,
    confidence_interval,
)
from repro.service.faults import FaultInjector
from repro.service.metrics import ServiceMetrics

#: The pipeline operation a request runs.
Op = Literal["execute", "distribution"]

#: Default worker-pool size.
DEFAULT_WORKERS = 2

#: Default queue bound (pending requests beyond it are rejected).
DEFAULT_MAX_QUEUE = 128

#: Default cap on how many grouped requests one batch may hold.
DEFAULT_MAX_BATCH = 32

#: Retry-After hint bounds (seconds).  The hint is derived from the
#: live queue depth and the pool's recent drain rate; the bounds keep
#: a cold or pathological estimate from telling clients to hammer the
#: server (or to go away for minutes).
MIN_RETRY_AFTER_S = 0.05
MAX_RETRY_AFTER_S = 10.0

#: The hint before any batch has executed (no drain-rate estimate yet).
DEFAULT_RETRY_AFTER_S = 1.0

#: EWMA smoothing factor for the per-batch latency/size estimates.
_EWMA_ALPHA = 0.3


@dataclass
class _Pending:
    """One queued request.

    :ivar deadline: ``time.monotonic()`` moment after which nobody is
        waiting for the answer anymore (``None`` = wait forever).
        Expired entries are purged from the queue instead of executed,
        so abandoned (504'd) requests neither occupy queue slots nor
        burn worker time.
    :ivar allow_degraded: ``False`` pins the request to the exact
        path (the client opted out of approximate answers).
    :ivar degrade_reason: set (``deadline``/``queue``/``breaker``)
        once the request was re-planned onto the degraded MC tier;
        ``spec`` then already carries the replanned MC shape.
    """

    op: Op
    spec: QuerySpec
    deadline: float | None = None
    allow_degraded: bool = True
    degrade_reason: str | None = None
    future: "Future[Any]" = field(default_factory=Future)

    @property
    def key(self) -> Hashable:
        return batch_key(self.spec)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


def batch_key(spec: QuerySpec) -> Hashable:
    """The grouping key: requests sharing it share pipeline stages.

    Derived from the normalized logical plan — the single source the
    Session's LRU keys also derive from — so service grouping and
    session caching can never drift.  Under ``algorithm="mc"`` the
    sampling knobs participate (in canonical order): MC requests with
    different knobs share neither estimates nor cache entries, so
    grouping them would be a false economy.
    """
    return LogicalPlan.from_spec(spec).batch_key()


class BatchingExecutor:
    """A bounded worker pool executing grouped requests on one Session.

    :param session: the shared session (tables already registered).
    :param workers: worker-thread count.
    :param max_queue: pending-request bound (overflow raises
        :class:`BackpressureError`).
    :param max_batch: largest group one worker executes at once.
    :param batched: ``False`` runs the naive per-request baseline
        (fresh cold session per request, no grouping).
    :param metrics: optional :class:`ServiceMetrics` sink.
    :param degradation: optional :class:`DegradationPolicy`; when set,
        overloaded exact ``execute`` work degrades to bounded MC
        instead of timing out (see the module docstring).
    :param breaker: optional :class:`CircuitBreaker` keyed by
        ``(table, semantics)``; requires ``degradation``.
    :param faults: optional :class:`FaultInjector` for the
        ``exec_delay`` / ``exec_error`` fault points.
    """

    def __init__(
        self,
        session: Session,
        *,
        workers: int = DEFAULT_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
        batched: bool = True,
        metrics: ServiceMetrics | None = None,
        degradation: DegradationPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if breaker is not None and degradation is None:
            raise ServiceError(
                "a circuit breaker requires a degradation policy "
                "(it sheds to the degraded tier)"
            )
        self._session = session
        self._max_queue = max_queue
        self._max_batch = max_batch
        self.batched = batched
        self._metrics = metrics
        self.degradation = degradation
        self.breaker = breaker
        self._faults = faults
        self._pending: list[_Pending] = []
        self._inflight: set[Hashable] = set()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._stopping = False
        self._draining = False
        #: Batches currently executing (drain waits for zero).
        self._active = 0
        #: EWMA of per-batch execution seconds / batch size, feeding
        #: the derived Retry-After hint.
        self._batch_seconds_ewma: float | None = None
        self._batch_size_ewma: float | None = None
        self._worker_count = workers
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        op: Op,
        spec: QuerySpec,
        *,
        timeout_s: float | None = None,
        allow_degraded: bool = True,
    ) -> "Future[Any]":
        """Queue one request; returns its :class:`Future`.

        A batched executor first asks the session for a result whose
        every stage is already cached and, on a hit, returns it in an
        already-resolved future on the calling thread: nothing is
        queued, degraded, fault-injected or executed.

        :param timeout_s: how long the caller will wait for the
            answer; once elapsed, the entry no longer holds a queue
            slot and is failed with :class:`RequestTimeoutError`
            instead of executed.
        :param allow_degraded: ``False`` pins the request to the
            exact path regardless of load (strict clients).
        :raises BackpressureError: when the queue bound is reached
            (after purging expired entries).
        """
        if self.batched:
            if self._stopping or self._draining:
                raise ServiceError("executor is shut down")
            try:
                result = self._session.cached(spec, op)
            except Exception:
                # Planning failed: queue the request, so its run
                # reports the error through the future, as before.
                result = MISS
            if result is not MISS:
                if self._metrics is not None:
                    self._metrics.record_cache_hit()
                future: "Future[Any]" = Future()
                future.set_result(result)
                return future
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        request = _Pending(
            op=op,
            spec=spec,
            deadline=deadline,
            allow_degraded=allow_degraded,
        )
        with self._wakeup:
            if self._stopping or self._draining:
                raise ServiceError("executor is shut down")
            self._purge_expired()
            if len(self._pending) >= self._max_queue:
                if self._metrics is not None:
                    self._metrics.record_rejection()
                error = BackpressureError(
                    f"queue full ({self._max_queue} pending); retry later"
                )
                error.retry_after_s = self._retry_after_locked()
                raise error
            self._maybe_degrade_at_submit(request, timeout_s)
            self._pending.append(request)
            if self._metrics is not None:
                self._metrics.record_queue_depth(len(self._pending))
            self._wakeup.notify()
        return request.future

    def _maybe_degrade_at_submit(
        self, request: _Pending, timeout_s: float | None
    ) -> None:
        """Under the lock: re-plan the request onto the MC tier when an
        admission-time trigger (breaker, deadline, queue depth) fires."""
        policy = self.degradation
        if (
            policy is None
            or request.op != "execute"
            or not request.allow_degraded
            or request.spec.algorithm == "mc"
        ):
            return
        reason = None
        if self.breaker is not None:
            key = (request.spec.table, request.spec.semantics)
            decision = self.breaker.decide(key)
            if decision == "degrade":
                reason = "breaker"
            # "probe" (and "exact") runs the exact plan; its recorded
            # outcome below closes or re-opens the breaker.
        if reason is None and (
            timeout_s is not None and timeout_s <= policy.deadline_s
        ):
            reason = "deadline"
        if reason is None and len(self._pending) >= policy.queue_depth:
            reason = "queue"
        if reason is None:
            return
        budget = timeout_s if timeout_s is not None else policy.deadline_s
        request.spec = policy.degraded_spec(request.spec, budget)
        request.degrade_reason = reason
        if self._metrics is not None:
            self._metrics.record_degraded(reason)

    def _purge_expired(self) -> None:
        """Under the lock: fail and drop deadline-expired entries."""
        now = time.monotonic()
        if not any(request.expired(now) for request in self._pending):
            return
        live: list[_Pending] = []
        for request in self._pending:
            if request.expired(now):
                self._record_timeout(request)
                request.future.set_exception(
                    RequestTimeoutError(
                        "request expired in the queue before execution"
                    )
                )
            else:
                live.append(request)
        self._pending = live

    def _record_timeout(self, request: _Pending) -> None:
        """Feed an exact-path timeout to the circuit breaker."""
        if (
            self.breaker is not None
            and request.op == "execute"
            and request.degrade_reason is None
        ):
            self.breaker.record_failure(
                (request.spec.table, request.spec.semantics)
            )

    def queue_depth(self) -> int:
        """Currently pending (not yet executing) requests."""
        with self._lock:
            return len(self._pending)

    def _retry_after_locked(self) -> float:
        """Under the lock: seconds until the current queue should have
        drained, from the pool's recent per-batch latency and size.

        ``depth / (workers * batch_size / batch_seconds)`` — i.e. the
        queue depth divided by the measured drain rate in requests per
        second — clamped to sane bounds.  Before the first batch
        completes there is no rate estimate and the old fixed hint is
        returned.
        """
        seconds = self._batch_seconds_ewma
        size = self._batch_size_ewma
        if seconds is None or size is None or seconds <= 0.0:
            return DEFAULT_RETRY_AFTER_S
        rate = self._worker_count * max(size, 1.0) / seconds
        hint = (len(self._pending) + 1) / max(rate, 1e-9)
        return round(
            min(max(hint, MIN_RETRY_AFTER_S), MAX_RETRY_AFTER_S), 3
        )

    def retry_after_hint(self) -> float:
        """The current Retry-After hint in (possibly fractional)
        seconds; the HTTP layer sends it on every 429."""
        with self._lock:
            return self._retry_after_locked()

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Pending] | None:
        """Under the lock: claim the next executable group (or None)."""
        self._purge_expired()
        if not self._pending:
            return None
        if not self.batched:
            batch = [self._pending.pop(0)]
        else:
            head_key = None
            for request in self._pending:
                if request.key not in self._inflight:
                    head_key = request.key
                    break
            if head_key is None:
                # Every pending key is being executed by another
                # worker; wait for a completion notification.
                return None
            batch = []
            rest: list[_Pending] = []
            for request in self._pending:
                if request.key == head_key and len(batch) < self._max_batch:
                    batch.append(request)
                else:
                    rest.append(request)
            self._pending = rest
            self._inflight.add(head_key)
        if self._metrics is not None:
            self._metrics.record_queue_depth(len(self._pending))
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                batch = self._take_batch()
                while batch is None:
                    if self._stopping:
                        return
                    self._wakeup.wait()
                    batch = self._take_batch()
                self._active += 1
            try:
                self._execute(batch)
            finally:
                with self._wakeup:
                    self._active -= 1
                    if self.batched:
                        self._inflight.discard(batch[0].key)
                    # Wakes idle workers *and* a drain waiting for the
                    # pool to go quiet.
                    self._wakeup.notify_all()

    def _observe_batch(self, size: int, seconds: float) -> None:
        """Fold one executed batch into the drain-rate EWMAs."""
        with self._lock:
            if self._batch_seconds_ewma is None:
                self._batch_seconds_ewma = seconds
                self._batch_size_ewma = float(size)
            else:
                assert self._batch_size_ewma is not None
                self._batch_seconds_ewma += _EWMA_ALPHA * (
                    seconds - self._batch_seconds_ewma
                )
                self._batch_size_ewma += _EWMA_ALPHA * (
                    size - self._batch_size_ewma
                )

    def _execute(self, batch: list[_Pending]) -> None:
        if self._metrics is not None:
            self._metrics.record_batch(len(batch))
        started = time.perf_counter()
        try:
            self._execute_inner(batch)
        finally:
            self._observe_batch(
                len(batch), time.perf_counter() - started
            )

    def _execute_inner(self, batch: list[_Pending]) -> None:
        session = (
            self._session
            if self.batched
            # Naive baseline: a cold session over the same catalog.
            else Session(self._session.catalog)
        )
        now = time.monotonic()
        live: list[_Pending] = []
        for request in batch:
            if request.expired(now):
                self._record_timeout(request)
                request.future.set_exception(
                    RequestTimeoutError(
                        "request expired in the queue before execution"
                    )
                )
            else:
                self._maybe_degrade_at_execute(request, now)
                live.append(request)
        if not live:
            return
        if self._faults is not None:
            self._faults.delay("exec_delay")
            try:
                self._faults.raise_if("exec_error")
            except FaultInjectedError as exc:
                for request in live:
                    request.future.set_exception(exc)
                return
        if self.batched:
            # One planner pass for the whole group: fusable exact DPs
            # merge into a single shared sweep, everything else runs
            # per spec; per-request errors come back as values.
            results = session.execute_many(
                [request.spec for request in live],
                ops=[request.op for request in live],
                return_exceptions=True,
            )
            for request, result in zip(live, results):
                self._finish(session, request, result)
            return
        for request in live:
            try:
                if request.op == "distribution":
                    result: Any = session.distribution(request.spec)
                else:
                    result = session.execute(request.spec)
            except BaseException as exc:  # propagate to the waiter
                self._finish(session, request, exc)
            else:
                self._finish(session, request, result)

    def _maybe_degrade_at_execute(
        self, request: _Pending, now: float
    ) -> None:
        """Degrade a still-exact request whose budget the queue ate."""
        policy = self.degradation
        if (
            policy is None
            or request.degrade_reason is not None
            or request.op != "execute"
            or not request.allow_degraded
            or request.spec.algorithm == "mc"
            or request.deadline is None
        ):
            return
        remaining = request.deadline - now
        if remaining > policy.deadline_s:
            return
        request.spec = policy.degraded_spec(
            request.spec, max(remaining, 0.0)
        )
        request.degrade_reason = "deadline"
        if self._metrics is not None:
            self._metrics.record_degraded("deadline")

    def _finish(
        self, session: Session, request: _Pending, result: Any
    ) -> None:
        """Resolve one future: record the breaker outcome, wrap
        degraded answers with their confidence interval."""
        if isinstance(result, BaseException):
            if isinstance(result, RequestTimeoutError):
                self._record_timeout(request)
            request.future.set_exception(result)
            return
        if (
            self.breaker is not None
            and request.op == "execute"
            and request.degrade_reason is None
        ):
            self.breaker.record_success(
                (request.spec.table, request.spec.semantics)
            )
        if request.degrade_reason is not None:
            spec = request.spec
            try:
                interval = confidence_interval(session, spec)
            except Exception:  # the answer stands even bound-less
                interval = None
            result = DegradedAnswer(
                answer=result,
                reason=request.degrade_reason,
                epsilon=spec.epsilon or 0.0,
                confidence=spec.confidence,
                interval=interval,
            )
        request.future.set_result(result)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(
        self, *, timeout: float = 5.0, drain: bool = False
    ) -> None:
        """Stop the workers.

        ``drain=False`` (the hard path): pending requests fail with
        :class:`ServiceError` immediately.  ``drain=True`` (graceful
        shutdown): new submissions are refused, but everything already
        admitted executes to completion — the pool stops only once the
        queue is empty and no batch is in flight (bounded by
        ``timeout``; whatever is still pending after it fails as in
        the hard path).
        """
        with self._wakeup:
            if drain:
                self._draining = True
                self._wakeup.notify_all()
                self._wakeup.wait_for(
                    lambda: not self._pending and self._active == 0,
                    timeout=timeout,
                )
            self._stopping = True
            drained = self._pending
            self._pending = []
            self._wakeup.notify_all()
        for request in drained:
            request.future.set_exception(
                ServiceError("executor shut down before execution")
            )
        for thread in self._workers:
            thread.join(timeout)

    def __enter__(self) -> "BatchingExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
