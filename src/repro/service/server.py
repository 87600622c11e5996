"""The stdlib HTTP face of the query service (``repro serve``).

Endpoints::

    POST /v1/answer        any registered semantics over a catalog table
    POST /v1/distribution  the top-k score distribution (pmf document)
    POST /v1/typical       c-Typical-Topk answers
    POST /v1/explain       the request's plan (operators, costs, caches)
    POST /v1/mutate        apply one mutation to a mutable catalog table
    POST /v1/subscribe     register a standing query (returns a sid)
    POST /v1/unsubscribe   drop a standing query
    POST /v1/reload        re-load a catalog table, evicting its caches
    GET  /v1/watch         SSE stream of a subscription's answers
    GET  /healthz          liveness + catalog summary
    GET  /metrics          the ServiceMetrics JSON document

``/v1/mutate`` takes ``{"table", "op", "tid", ...}`` with ``op`` one
of ``insert`` / ``expire`` / ``update_probability`` / ``update_score``
(payload fields per op; see :mod:`repro.standing.changelog`); the
response carries the applied delta and the table's new version.
``/v1/subscribe`` takes the same body as ``/v1/answer`` and returns a
subscription id plus the initial answer; after every mutation the
standing registry brings each affected subscription current (see
:mod:`repro.standing.registry` for the skip/recompute tiers).
``GET /v1/watch?sid=...&after=V&count=N&timeout_s=T`` streams
``text/event-stream`` events — the current snapshot when it is
already past ``after``, then one event per advance — until ``count``
events were sent or ``timeout_s`` elapses (long-poll: try
``curl -N``).

``/v1/explain`` never runs the expensive stages: it lowers the request
through the session's planner and reports the operator tree, the
cost-model estimates and the predicted cache outcome — the service
twin of ``Session.explain`` / ``repro explain``.

Request bodies are JSON objects; ``table`` (a catalog name) and ``k``
are required, everything else has the :class:`~repro.api.spec.QuerySpec`
defaults::

    {"table": "demo", "k": 5, "semantics": "u_topk", "p_tau": 0.1}

Query bodies additionally accept two transport-level controls:
``timeout_s`` (the client's end-to-end deadline budget, capped at the
server's request timeout) and ``allow_degraded`` (default ``true``;
``false`` pins the request to the exact path).  When the request
degrades (deadline, queue depth, or an open circuit breaker — see
:mod:`repro.service.degrade`), the response carries ``degraded:
true``, the trigger under ``degrade_reason``, and a
``confidence_interval`` document bounding the approximate answer.

Status codes: ``200`` success, ``400`` malformed request, ``404``
unknown table or path, ``429`` queue full (with ``Retry-After``),
``504`` request timed out in the queue, ``500`` internal error.
JSON is strict both ways.  A request body holding ``NaN``,
``Infinity``, a number past the float range or nesting too deep to
decode is a ``400 bad JSON body``.  Responses always carry strict
``application/json``: a result with a non-finite number (an
overflowed score sum) is a ``500`` error.  Every response body ends
with an ``elapsed_ms`` field, the server's time on the request.

The server is a ``ThreadingHTTPServer`` so slow clients do not block
each other; actual query execution is delegated to the bounded
:class:`~repro.service.batching.BatchingExecutor`, which is where
admission control and micro-batching happen.

A warm read is one cache lookup and one reused body.  The executor
answers a request whose every stage is cached on the handler thread,
without queueing it.  :class:`QueryService` keeps the body it last
sent for each read shape and sends it again while the session returns
the same answer object, splicing in only ``elapsed_ms``.  The
handler sets ``TCP_NODELAY``, so a keep-alive client's delayed ACK
never holds a reply back.
"""

from __future__ import annotations

import json
import math
import select
import socket
import time
from collections.abc import Callable
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator, Protocol, cast
from urllib.parse import parse_qs

from repro.api.session import DEFAULT_CACHE_SIZE, _LRU
from repro.api.spec import QuerySpec
from repro.core.pmf import ScorePMF
from repro.exceptions import (
    BackpressureError,
    BadRequestError,
    QueryPlanError,
    ReproError,
    RequestTimeoutError,
    ServiceError,
)
from repro.io.json_io import answer_to_jsonable, pmf_to_json
from repro.service.batching import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WORKERS,
    BatchingExecutor,
    Op,
)
from repro.service.breaker import CircuitBreaker
from repro.service.catalog import DatasetCatalog
from repro.service.degrade import DegradationPolicy, DegradedAnswer
from repro.service.faults import FaultInjector
from repro.service.metrics import ServiceMetrics
from repro.standing.registry import StandingRegistry

#: How long a request may wait end to end before ``504``.
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: Hard ceiling on one ``/v1/watch`` stream's lifetime.
MAX_WATCH_TIMEOUT_S = 120.0

#: Longest a watch stream blocks in the registry between disconnect
#: probes; bounds how long a dead client can hold a waiter registered.
WATCH_WAIT_SLICE_S = 1.0

#: Spec fields a request body may set (beyond the required ones).
_OPTIONAL_FIELDS = (
    "scorer",
    "semantics",
    "c",
    "threshold",
    "p_tau",
    "max_lines",
    "algorithm",
    "depth",
    "epsilon",
    "confidence",
    "samples",
    "seed",
)


class _Reply:
    """One endpoint result: HTTP status plus the JSON document.

    ``body`` is the document's strict-JSON wire form when the service
    already encoded it (so it is encoded once, and a sharded front
    passes a worker's bytes through); a reply built from its body
    decodes ``document`` on first access, so in-process callers read
    the complete document the client receives.  ``retry_after`` is set
    on 429 replies: the (possibly fractional) seconds hint derived
    from the live queue depth and the recent batch drain rate, emitted
    as the ``Retry-After`` header.
    """

    __slots__ = ("status", "retry_after", "body", "_document")

    def __init__(
        self,
        status: int,
        document: dict[str, Any] | None = None,
        *,
        retry_after: float | None = None,
        body: bytes | None = None,
    ) -> None:
        self.status = status
        self.retry_after = retry_after
        self.body = body
        self._document = document

    @property
    def document(self) -> dict[str, Any]:
        if self._document is None:
            document: dict[str, Any] = json.loads(cast(bytes, self.body))
            self._document = document
        return self._document


def build_spec(payload: dict[str, Any], endpoint: str) -> QuerySpec:
    """Validate a request body into a :class:`QuerySpec`.

    ``/v1/distribution`` ignores ``semantics``; ``/v1/typical`` forces
    ``semantics="typical"``.  Unknown fields are rejected so typos
    fail loudly instead of silently running defaults.
    """
    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    known = {"table", "k", *_OPTIONAL_FIELDS}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise BadRequestError(f"unknown request fields: {unknown}")
    table = payload.get("table")
    if not isinstance(table, str) or not table:
        raise BadRequestError('"table" must name a catalog table')
    if "k" not in payload:
        raise BadRequestError('"k" is required')
    scorer = payload.get("scorer", "score")
    if not isinstance(scorer, str) or not scorer:
        raise BadRequestError('"scorer" must be an attribute name')
    kwargs: dict[str, Any] = {
        "table": table,
        "scorer": scorer,
        "k": payload["k"],
    }
    for name in _OPTIONAL_FIELDS:
        if name != "scorer" and name in payload:
            kwargs[name] = payload[name]
    if endpoint == "typical":
        if kwargs.setdefault("semantics", "typical") != "typical":
            raise BadRequestError(
                "/v1/typical only serves semantics=typical; use "
                "/v1/answer for other semantics"
            )
    try:
        return QuerySpec(**kwargs)
    except ReproError as exc:
        raise BadRequestError(str(exc)) from exc
    except TypeError as exc:
        raise BadRequestError(f"bad request field: {exc}") from exc


class ServiceProtocol(Protocol):
    """What the HTTP layer needs from a service implementation.

    Satisfied by :class:`QueryService` (single process) and
    :class:`~repro.service.router.ShardedQueryService` (the front of a
    worker pool); the handler is transport only and never looks past
    this surface.
    """

    metrics: ServiceMetrics
    request_timeout_s: float

    def handle(self, endpoint: str, payload: dict[str, Any]) -> _Reply: ...

    def healthz(self) -> _Reply: ...

    def metrics_document(self) -> _Reply: ...

    def has_subscription(self, sid: str) -> bool: ...

    def watch_events(
        self,
        sid: str,
        *,
        after: int,
        count: int,
        timeout_s: float,
        should_stop: Callable[[], bool] | None = None,
    ) -> Iterator[dict[str, Any]]: ...

    def shutdown(
        self, *, drain: bool = False, timeout: float = 10.0
    ) -> None: ...


class WatchLoop:
    """The ``/v1/watch`` loop of both deployments.

    A service supplies :meth:`watch_wait`, one bounded wait for a
    subscription's next snapshot: its registry's, in process, or a
    round trip to the sid's worker, behind the sharded front.
    """

    def watch_wait(
        self, sid: str, after: int, timeout_s: float
    ) -> dict[str, Any] | None:
        """Block at most ``timeout_s`` for a snapshot of ``sid`` past
        version ``after``; the current one on timeout, ``None`` when
        the subscription is gone."""
        raise NotImplementedError

    def watch_events(
        self,
        sid: str,
        *,
        after: int,
        count: int,
        timeout_s: float,
        should_stop: Callable[[], bool] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """``/v1/watch``: yield subscription snapshots as SSE events.

        Yields up to ``count`` snapshot documents: the current one
        immediately when its version already exceeds ``after``, then
        one per maintained advance, until the deadline.  Terminates
        (StopIteration) on timeout or when the subscription vanishes.

        ``should_stop`` is the transport's disconnect probe: when it
        returns true the generator ends immediately instead of holding
        a registry waiter for the rest of the deadline.  Waits are
        sliced to at most :data:`WATCH_WAIT_SLICE_S` so the probe runs
        even while the subscription is idle.
        """
        deadline = time.monotonic() + min(
            max(timeout_s, 0.0), MAX_WATCH_TIMEOUT_S
        )
        watermark = after
        sent = 0
        while sent < count:
            if should_stop is not None and should_stop():
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            snapshot = self.watch_wait(
                sid, watermark, min(remaining, WATCH_WAIT_SLICE_S)
            )
            if snapshot is None:
                return
            if snapshot["version"] <= watermark:
                continue  # wait slice elapsed; loop re-probes and re-checks
            watermark = snapshot["version"]
            sent += 1
            yield snapshot


class QueryService(WatchLoop):
    """Catalog + shared session + executor + metrics, as one object.

    This is the transport-independent core: the HTTP handler (and the
    in-process tests and the service benchmark) call :meth:`handle`
    with parsed JSON and get back a status plus a JSON-ready document.

    :param degradation: when overloaded exact work degrades onto
        Monte-Carlo; a per ``(table, semantics)`` circuit breaker
        feeds it.  ``None`` disables both; the default degrades at the
        :mod:`~repro.service.degrade` defaults.
    """

    #: POST endpoint name -> executor operation.
    ENDPOINT_OPS: dict[str, Op] = {
        "answer": "execute",
        "typical": "execute",
        "distribution": "distribution",
    }

    def __init__(
        self,
        catalog: DatasetCatalog,
        *,
        workers: int = DEFAULT_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
        batched: bool = True,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        degradation: DegradationPolicy | None = DegradationPolicy(),
        faults: FaultInjector | None = None,
        sid_prefix: str = "sub-",
    ) -> None:
        self.catalog = catalog
        self.metrics = ServiceMetrics()
        self.request_timeout_s = request_timeout_s
        self.faults = faults
        self.executor = BatchingExecutor(
            catalog.session,
            workers=workers,
            max_queue=max_queue,
            max_batch=max_batch,
            batched=batched,
            metrics=self.metrics,
            degradation=degradation,
            breaker=None if degradation is None else CircuitBreaker(),
            faults=faults,
        )
        #: ``(endpoint, spec) -> (answer, body)``: the last body sent
        #: for each read shape, reused while the session returns the
        #: same answer object.
        self._bodies = _LRU(DEFAULT_CACHE_SIZE)
        self.standing = StandingRegistry(catalog.session, sid_prefix=sid_prefix)
        #: sids re-registered from the durable manifest at boot, plus
        #: any that failed to restore (surfaced in /healthz).
        self.restored_subscriptions: list[str] = []
        self.failed_subscriptions: dict[str, str] = {}
        self._restore_subscriptions()
        self._started = time.time()

    def _restore_subscriptions(self) -> None:
        """Re-register every manifest subscription under its old sid.

        Runs at boot, after catalog recovery: each restored
        subscription re-evaluates cold against the recovered table, so
        its answer reflects the exact pre-crash version.  A spec that
        no longer evaluates (its table gone from the catalog, say) is
        skipped and reported rather than failing the boot.
        """
        store = self.catalog.store
        if store is None:
            return
        for entry in store.read_manifest():
            sid = entry.get("sid", "?")
            try:
                self.standing.subscribe(
                    QuerySpec.from_jsonable(dict(entry["spec"])), sid=sid
                )
            except Exception as exc:
                self.failed_subscriptions[str(sid)] = (
                    f"{type(exc).__name__}: {exc}"
                )
            else:
                self.restored_subscriptions.append(sid)

    def _persist_manifest(self) -> None:
        """Mirror the active subscriptions into the durable manifest."""
        store = self.catalog.store
        if store is None:
            return
        entries = []
        for sub in self.standing.subscriptions():
            try:
                entries.append(
                    {"sid": sub.sid, "spec": sub.spec.to_jsonable()}
                )
            except ReproError:
                continue  # in-memory spec: not representable, not durable
        store.write_manifest(entries)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    #: Endpoints served inline (no executor queue): planning and the
    #: standing-query control plane, which must stay responsive (and
    #: ordered) even when the query queue is saturated.
    _INLINE_HANDLERS = (
        "explain",
        "mutate",
        "subscribe",
        "unsubscribe",
        "reload",
    )

    def _unknown_table(self, name: object) -> tuple[int, dict[str, Any]]:
        """The 404 of a request naming a table the catalog lacks."""
        return 404, {
            "error": f"unknown table {name!r}",
            "tables": list(self.catalog.names()),
        }

    def handle(self, endpoint: str, payload: dict[str, Any]) -> _Reply:
        """Serve one POST endpoint; never raises.

        The reply carries its strict-JSON body with ``elapsed_ms``
        spliced in as the last field; a document with no such form (a
        non-finite number) is served, and counted, as a 500 error.
        """
        start = time.perf_counter()
        if endpoint in self._INLINE_HANDLERS:
            status, result = getattr(self, f"_{endpoint}")(payload)
        else:
            op = self.ENDPOINT_OPS.get(endpoint)
            if op is None:
                return _Reply(404, {"error": f"unknown endpoint {endpoint!r}"})
            status, result = self._run(endpoint, op, payload)
        retry_after = None
        if isinstance(result, bytes):
            body = result
        else:
            if status == 429:
                retry_after = result.get("retry_after_s")
            try:
                body = _wire_json(result).encode()
            except ValueError as exc:
                status = 500
                body = _wire_json({"error": str(exc)}).encode()
        elapsed = time.perf_counter() - start
        self.metrics.record_request(endpoint, elapsed, error=status != 200)
        return _Reply(
            status,
            retry_after=retry_after,
            body=_with_elapsed(body, elapsed),
        )

    def _explain(
        self, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``/v1/explain``: plan inspection, bypassing the executor
        (planning is cheap and must stay observable under overload)."""
        try:
            spec = build_spec(payload, "explain")
            if spec.table not in self.catalog:
                return self._unknown_table(spec.table)
            document = self.catalog.session.explain(spec)
        except QueryPlanError as exc:
            return 404, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"internal error: {exc}"}
        return 200, document

    # ------------------------------------------------------------------
    # Standing queries: mutation + subscription control plane
    # ------------------------------------------------------------------
    def _mutate(
        self, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``/v1/mutate``: apply one mutation, maintain subscriptions."""
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        table = payload.get("table")
        if not isinstance(table, str) or not table:
            return 400, {"error": '"table" must name a catalog table'}
        if table not in self.catalog:
            return self._unknown_table(table)
        op = payload.get("op")
        mutation = {
            key: value
            for key, value in payload.items()
            if key not in ("table", "op")
        }
        try:
            # Through the catalog, by name, under its reload lock: a
            # mutation racing /v1/reload lands on whichever table
            # object currently holds the name (and its WAL), never on
            # a stale pre-swap reference.
            delta = self.catalog.mutate(
                table, op, mutation, registry=self.standing
            )
        except ReproError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"internal error: {exc}"}
        return 200, {
            "table": table,
            "delta": delta.to_jsonable(),
            "version": delta.version,
        }

    def _subscribe(
        self, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``/v1/subscribe``: register a standing query, answer cold."""
        try:
            spec = build_spec(payload, "subscribe")
            if spec.table not in self.catalog:
                return self._unknown_table(spec.table)
            sub = self.standing.subscribe(spec)
        except ReproError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"internal error: {exc}"}
        self._persist_manifest()
        snapshot = self.standing.snapshot(sub.sid)
        assert snapshot is not None
        return 200, snapshot

    def _unsubscribe(
        self, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``/v1/unsubscribe``: drop a subscription by sid."""
        sid = payload.get("sid") if isinstance(payload, dict) else None
        if not isinstance(sid, str) or not sid:
            return 400, {"error": '"sid" is required'}
        removed = self.standing.unsubscribe(sid)
        if removed:
            self._persist_manifest()
        return 200, {"sid": sid, "removed": removed}

    def _reload(
        self, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """``/v1/reload``: re-load a table from its source, evicting
        every cached stage derived from the replaced object."""
        name = payload.get("table") if isinstance(payload, dict) else None
        if not isinstance(name, str) or not name:
            return 400, {"error": '"table" must name a catalog table'}
        if name not in self.catalog:
            return self._unknown_table(name)
        try:
            return 200, self.catalog.reload(name)
        except ServiceError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"internal error: {exc}"}

    def watch_wait(
        self, sid: str, after: int, timeout_s: float
    ) -> dict[str, Any] | None:
        """One bounded wait in the registry (see :class:`WatchLoop`)."""
        return self.standing.wait(sid, after_version=after, timeout=timeout_s)

    def has_subscription(self, sid: str) -> bool:
        """Whether ``sid`` names a live subscription (transport probe)."""
        return self.standing.get(sid) is not None

    @staticmethod
    def _request_controls(
        payload: dict[str, Any]
    ) -> tuple[dict[str, Any], float | None, bool]:
        """Strip the transport-level fields off a request body.

        ``timeout_s`` (the client's deadline budget) and
        ``allow_degraded`` (strict clients pass ``false``) control
        *how* the request runs, not *what* it computes, so they are
        peeled off before spec validation.
        """
        if not isinstance(payload, dict):
            return payload, None, True
        payload = dict(payload)
        timeout_s = payload.pop("timeout_s", None)
        if timeout_s is not None:
            if (
                not isinstance(timeout_s, (int, float))
                or isinstance(timeout_s, bool)
                or not timeout_s > 0
            ):
                raise BadRequestError(
                    f'"timeout_s" must be a positive number, '
                    f"got {timeout_s!r}"
                )
            timeout_s = float(timeout_s)
        allow_degraded = payload.pop("allow_degraded", True)
        if not isinstance(allow_degraded, bool):
            raise BadRequestError(
                '"allow_degraded" must be a boolean, got '
                f"{allow_degraded!r}"
            )
        return payload, timeout_s, allow_degraded

    def _run(
        self, endpoint: str, op: Op, payload: dict[str, Any]
    ) -> tuple[int, dict[str, Any] | bytes]:
        """Serve one read: an error document, or the answer's body."""
        try:
            payload, timeout_s, allow_degraded = self._request_controls(
                payload
            )
            if timeout_s is None:
                timeout_s = self.request_timeout_s
            else:
                timeout_s = min(timeout_s, self.request_timeout_s)
            spec = build_spec(payload, endpoint)
            if spec.table not in self.catalog:
                return self._unknown_table(spec.table)
            future = self.executor.submit(
                op,
                spec,
                timeout_s=timeout_s,
                allow_degraded=allow_degraded,
            )
            answer = future.result(timeout_s)
        except BadRequestError as exc:
            return 400, {"error": str(exc)}
        except BackpressureError as exc:
            hint = exc.retry_after_s
            if hint is None:
                hint = self.executor.retry_after_hint()
            return 429, {"error": str(exc), "retry_after_s": hint}
        except QueryPlanError as exc:
            return 404, {"error": str(exc)}
        except (RequestTimeoutError, FutureTimeoutError) as exc:
            return 504, {
                "error": str(exc)
                or f"request timed out after {timeout_s}s"
            }
        except ServiceError as exc:
            return 500, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"internal error: {exc}"}
        if isinstance(answer, DegradedAnswer):
            document = _answer_document(endpoint, spec, answer.answer)
            document["degraded"] = True
            document["degrade_reason"] = answer.reason
            document["epsilon"] = answer.epsilon
            document["confidence_interval"] = answer.interval
            return 200, document
        # The document is a function of the spec and the answer alone,
        # and the session hands back the one cached object until a
        # mutation or eviction recomputes it: the body sent for that
        # very object is sent again.
        key = (endpoint, spec)
        sent = self._bodies.get(key)
        if sent is not None and sent[0] is answer:
            return 200, sent[1]
        try:
            body = _wire_json(_answer_document(endpoint, spec, answer))
        except ValueError as exc:
            return 500, {"error": str(exc)}
        encoded = body.encode()
        self._bodies.put(key, (answer, encoded))
        return 200, encoded

    def healthz(self) -> _Reply:
        """Liveness: catalog summary + uptime + executor mode +
        durability/degradation/fault status."""
        document: dict[str, Any] = {
            "status": "ok",
            "uptime_s": round(time.time() - self._started, 3),
            "batched": self.executor.batched,
            "tables": self.catalog.describe(),
            "degradation": self.executor.degradation is not None,
        }
        store = self.catalog.store
        if store is not None:
            document["durability"] = {
                "data_dir": str(store.root),
                "recovery": store.recovery_info,
                "restored_subscriptions": self.restored_subscriptions,
                "failed_subscriptions": self.failed_subscriptions,
            }
        if self.faults is not None and self.faults:
            document["faults"] = self.faults.describe()
        return _Reply(200, document)

    def metrics_document(self) -> _Reply:
        """The metrics JSON document (cache + fusion counters included)."""
        session = self.catalog.session
        breaker = self.executor.breaker
        return _Reply(
            200,
            self.metrics.snapshot(
                session.cache_info(),
                session.fusion_info(),
                self.standing.describe(),
                breaker.describe() if breaker is not None else None,
                self.catalog.storage_info(),
            ),
        )

    def shutdown(
        self, *, drain: bool = False, timeout: float = 10.0
    ) -> None:
        """Stop the executor; ``drain=True`` is the graceful path:
        finish every admitted request, then flush and close the WALs
        so the durable tail holds exactly the acknowledged writes."""
        self.executor.shutdown(drain=drain, timeout=timeout)
        if drain and self.catalog.store is not None:
            self.catalog.store.close()


def _answer_document(
    endpoint: str, spec: QuerySpec, answer: Any
) -> dict[str, Any]:
    """The JSON document of one read's (exact or approximate) answer."""
    document: dict[str, Any] = {
        "table": spec.table,
        "k": spec.k,
    }
    if endpoint == "distribution":
        document.update(json.loads(pmf_to_json(answer)))
    elif endpoint == "typical":
        document["c"] = spec.c
        document["result"] = answer_to_jsonable(answer)
    else:
        document["semantics"] = spec.semantics
        document["answer"] = answer_to_jsonable(answer)
        if isinstance(answer, ScorePMF):
            document["answer_kind"] = "pmf"
    return document


def _with_elapsed(body: bytes, seconds: float) -> bytes:
    """``body``, a non-empty JSON object, with ``elapsed_ms`` as its
    last field."""
    elapsed_ms = repr(round(seconds * 1e3, 3)).encode()
    return body[:-1] + b', "elapsed_ms": ' + elapsed_ms + b"}"


def _wire_json(document: Any) -> str:
    """Strict RFC 8259 JSON for the wire.

    A non-finite float (an overflowed top-k score sum, say) has no
    JSON form; it raises :class:`ValueError` instead of leaking a bare
    ``Infinity``/``NaN`` token that strict clients reject.
    """
    try:
        return json.dumps(document, default=str, allow_nan=False)
    except ValueError:
        raise ValueError(
            "response holds a non-finite number and has no JSON form"
        ) from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text[:32]} is not a finite number")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)  # a 400-digit integer reads as inf
    return int(text)


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP to :class:`QueryService`; JSON in, JSON out."""

    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted socket: a reply goes out as
    #: two writes (headers, body), and Nagle would hold the body until
    #: the client's delayed ACK, ~40 ms on every keep-alive read.
    disable_nagle_algorithm = True
    #: Largest accepted request body.
    MAX_BODY_BYTES = 1 << 20

    @property
    def _service_server(self) -> "ServiceHTTPServer":
        return cast("ServiceHTTPServer", self.server)

    def log_message(self, format: str, *args: Any) -> None:
        if self._service_server.verbose:
            super().log_message(format, *args)

    def _send(self, reply: _Reply) -> None:
        body = reply.body
        if body is None:
            try:
                body = _wire_json(reply.document).encode()
            except ValueError as exc:  # last guard; handle() checks first
                reply = _Reply(500, {"error": str(exc)})
                body = _wire_json(reply.document).encode()
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if reply.status == 429:
            # Derived from queue depth / drain rate (fractional
            # seconds); RFC 7231 only allows integers, but every
            # shipped client parses floats, and our loadgen does too.
            hint = reply.retry_after
            if hint is None:
                hint = reply.document.get("retry_after_s")
            if not isinstance(hint, (int, float)) or hint <= 0:
                hint = 1.0
            self.send_header("Retry-After", f"{float(hint):.3f}")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self._service_server.service
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send(service.healthz())
        elif path == "/metrics":
            self._send(service.metrics_document())
        elif path == "/v1/watch":
            self._watch(service, query)
        else:
            self._send(_Reply(404, {"error": f"unknown path {self.path}"}))

    def _watch(self, service: ServiceProtocol, query: str) -> None:
        """Stream a subscription as chunked ``text/event-stream``."""
        params = parse_qs(query)

        def _int_param(name: str, default: int) -> int:
            try:
                return int(params[name][0])
            except (KeyError, IndexError, ValueError):
                return default

        sid = params.get("sid", [""])[0]
        if not sid or not service.has_subscription(sid):
            self._send(
                _Reply(404, {"error": f"unknown subscription {sid!r}"})
            )
            return
        after = _int_param("after", -1)
        # SSE resume: a reconnecting client reports the last event id
        # (the log version) it saw; the header supersedes ``after``,
        # and the stream immediately replays everything past it — the
        # registry's since-semantics (wait(after_version=...)) deliver
        # the current snapshot the moment version > Last-Event-ID.
        last_event_id = self.headers.get("Last-Event-ID")
        if last_event_id is not None:
            try:
                after = int(last_event_id)
            except ValueError:
                pass
        count = max(1, _int_param("count", 1))
        try:
            timeout_s = float(params["timeout_s"][0])
        except (KeyError, IndexError, ValueError):
            timeout_s = service.request_timeout_s
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        service.metrics.record_watch_stream()
        disconnected = False

        def _client_gone() -> bool:
            nonlocal disconnected
            if not disconnected and self._peer_closed():
                disconnected = True
            return disconnected

        events = service.watch_events(
            sid,
            after=after,
            count=count,
            timeout_s=timeout_s,
            should_stop=_client_gone,
        )
        try:
            for snapshot in events:
                try:
                    payload = _wire_json(snapshot)
                except ValueError as exc:
                    error = _wire_json({"status": 500, "error": str(exc)})
                    self._chunk(f"event: error\ndata: {error}\n\n")
                    break
                self._chunk(
                    f"event: update\nid: {snapshot['version']}\n"
                    f"data: {payload}\n\n"
                )
            if not disconnected:
                self._chunk("event: end\ndata: {}\n\n")
                self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            disconnected = True
        finally:
            # Close the generator *now*: its registry waiter must not
            # outlive the stream (a GC'd generator would release it
            # eventually, but "eventually" is a leak under churn).
            events.close()
            if disconnected:
                service.metrics.record_watch_disconnect()
                self.close_connection = True

    def _peer_closed(self) -> bool:
        """Whether the client hung up (EOF or error on the socket).

        A half-closed SSE client is readable with an empty peek; a
        client that merely pipelined more bytes is readable with data
        and is left alone.
        """
        try:
            readable, _, errored = select.select(
                [self.connection], [], [self.connection], 0
            )
            if errored:
                return True
            if not readable:
                return False
            return self.connection.recv(1, socket.MSG_PEEK) == b""
        except (OSError, ValueError):
            return True

    def _chunk(self, text: str) -> None:
        """One HTTP/1.1 chunked-transfer chunk, flushed immediately."""
        data = text.encode()
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        service = self._service_server.service
        if not self.path.startswith("/v1/"):
            self._send(_Reply(404, {"error": f"unknown path {self.path}"}))
            return
        endpoint = self.path.removeprefix("/v1/")
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > self.MAX_BODY_BYTES:
            self._send(_Reply(400, {"error": "bad Content-Length"}))
            return
        try:
            # Strict RFC 8259: NaN/Infinity tokens and numbers with no
            # finite float value are refused, so none can reach a
            # table and break every later read of it.
            payload = json.loads(
                self.rfile.read(length) or b"{}",
                parse_float=_finite_float,
                parse_int=_finite_int,
                parse_constant=_finite_float,
            )
        except (ValueError, RecursionError) as exc:
            self._send(_Reply(400, {"error": f"bad JSON body: {exc}"}))
            return
        self._send(service.handle(endpoint, payload))


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server owning one service (see
    :class:`ServiceProtocol`)."""

    daemon_threads = True
    #: Listen backlog.  socketserver's default of 5 overflows under a
    #: few concurrent one-shot clients (``repro loadgen``), and every
    #: dropped SYN then waits out the kernel's 1 s retransmit.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: ServiceProtocol,
        *,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        try:
            super().__init__(address, _Handler)
        except Exception as exc:
            # The server owns its service from construction on, so a
            # failed bind stops it (executor threads, workers, WALs).
            service.shutdown()
            if not isinstance(exc, (OSError, OverflowError)):
                raise
            reason = getattr(exc, "strerror", None) or exc
            raise ServiceError(
                f"cannot listen on {address[0]}:{address[1]}: {reason}"
            ) from exc

    def shutdown(self) -> None:
        super().shutdown()
        self.service.shutdown()

    def graceful_shutdown(self, *, timeout: float = 10.0) -> None:
        """Drain, then stop: close the accept loop, let every admitted
        request finish, flush and close the WALs.  The durable tail
        after this returns holds exactly the acknowledged writes —
        this is what SIGTERM/SIGINT run (see ``repro serve``)."""
        super().shutdown()
        self.service.shutdown(drain=True, timeout=timeout)


def make_server(
    catalog: DatasetCatalog,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    **service_kwargs: Any,
) -> ServiceHTTPServer:
    """Build a ready-to-run server (``port=0`` picks a free port)."""
    service = QueryService(catalog, **service_kwargs)
    return ServiceHTTPServer((host, port), service, verbose=verbose)
