"""Spans around the program's public entry points, and their analysis.

Only the traced run installs these wrappers; end-to-end numbers come
from untraced runs.  A span is ``[name, start, end, parent, rid,
tag]``: ``parent`` indexes the span that caused it (``-1`` for none),
``rid`` is the HTTP request it belongs to, and ``tag`` carries the
one fact a layer's metric needs (rows, bytes, semantics, endpoint).
Spans stay in memory and are written out once, when the run ends.

A span's self time is its duration minus the part of it that its
child spans cover.  Work an executor thread does for a request is
parented to the request's ``QueryService.handle`` span through the
``BatchingExecutor.submit`` -> ``Session.execute_many`` hand-off.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

from common import mean, percentile

NO_PARENT = -1

#: Span name -> layer.  The names are the wrapped public functions.
LAYERS = {
    "QueryService.handle": "server",
    "BatchingExecutor.submit": "executor",
    "Session.execute_many": "session",
    "Session.execute": "session",
    "Session.distribution": "session",
    "Planner.lower": "planner",
    "plan.prepare_scored_prefix": "stage1",
    "plan.dp_distribution": "stage2",
    "plan.dp_distribution_sliced": "stage2",
    "plan.mc_distribution": "stage2",
    "plan.k_combo_distribution": "stage2",
    "plan.state_expansion_distribution": "stage2",
    "SemanticsOp.run": "semantics",
    "json_io.answer_to_jsonable": "serialize",
    "json_io.pmf_to_json": "serialize",
    "TableStore.prefix": "storage",
    "MutableUncertainTable.apply_payload": "changelog",
    "StandingRegistry.on_delta": "registry",
    "TableWAL.append": "wal",
    "TableWAL.truncate": "wal",
    "SlidingWindowTopK.append": "window",
    "SlidingWindowTopK.distribution": "window",
}

READ_ENDPOINTS = ("answer", "distribution", "typical")
SEMANTICS = (
    "distribution",
    "expected_ranks",
    "global_topk",
    "pt_k",
    "typical",
    "u_kranks",
    "u_topk",
)
DP_CALLS = ("plan.dp_distribution", "plan.dp_distribution_sliced")


class Tracer:
    """Collects spans from any thread; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.queue_waits: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rids = itertools.count(1)
        #: id(spec) -> (rid, handle span, submit time) across the
        #: executor hand-off.
        self._handoff: dict[int, tuple[int, int, float]] = {}

    def _state(self) -> tuple[list[int], int | None]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
        return local.stack, local.rid

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        tag: Callable[..., Any] | None = None,
        new_request: bool = False,
        nested: bool = True,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``new_request`` starts a request id (the HTTP entry point);
        ``nested=False`` records only the outermost of recursive calls.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, rid = tracer._state()
            if not nested and stack and tracer.spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else NO_PARENT
            if name == "BatchingExecutor.submit":
                # Recorded before the enqueue: a worker may start on
                # the request before submit returns.
                tracer._handoff[id(args[2])] = (
                    rid, parent, time.perf_counter()
                )
            if new_request:
                rid = next(tracer._rids)
            elif not stack and name == "Session.execute_many":
                rid, parent = tracer._adopt(args[1])
            index = tracer._open(name, parent, rid)
            saved = tracer._local.rid
            tracer._local.rid = rid
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                tracer._local.rid = saved
                tracer.spans[index][2] = time.perf_counter()
            if tag is not None:
                tracer.spans[index][5] = tag(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def _open(self, name: str, parent: int, rid: int | None) -> int:
        with self._lock:
            self.spans.append([name, time.perf_counter(), 0.0, parent, rid, None])
            return len(self.spans) - 1

    def _adopt(self, specs: Any) -> tuple[int | None, int]:
        """Executor thread: take over the first queued request's id."""
        now = time.perf_counter()
        adopted: tuple[int | None, int] = (None, NO_PARENT)
        for spec in specs:
            entry = self._handoff.pop(id(spec), None)
            if entry is None:
                continue
            self.queue_waits.append((now, (now - entry[2]) * 1e3))
            if adopted[0] is None:
                adopted = (entry[0], entry[1])
        return adopted

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"spans": self.spans, "queue_waits": self.queue_waits})
        )


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (server and library alike)."""
    import repro.api.plan as plan
    import repro.io.json_io as json_io
    import repro.service.server as server
    from repro.api.physical import SemanticsOp
    from repro.api.planner import Planner
    from repro.api.session import Session
    from repro.core.distribution import storage_pushdown_view
    from repro.core.kernels import resolve_backend
    from repro.service.batching import BatchingExecutor
    from repro.standing.changelog import MutableUncertainTable
    from repro.standing.registry import StandingRegistry
    from repro.standing.wal import TableWAL, encode_record
    from repro.storage.format import TableStore
    from repro.stream.window import SlidingWindowTopK

    def handle_tag(args, kwargs, result):
        payload = args[2] if isinstance(args[2], dict) else {}
        return [args[1], payload.get("table"), payload.get("semantics")]

    def rows_scored(args, kwargs, result):
        table, scorer = args[0], args[1]
        if storage_pushdown_view(table, scorer) is not None:
            return len(result)
        return len(table)

    def dp_tag(args, kwargs, result):
        return [len(args[0]), resolve_backend(kwargs.get("backend"))]

    wrap = tracer.wrap
    wrap(server.QueryService, "handle", "QueryService.handle",
         tag=handle_tag, new_request=True)
    wrap(BatchingExecutor, "submit", "BatchingExecutor.submit")
    wrap(Session, "execute_many", "Session.execute_many",
         tag=lambda a, k, r: len(a[1]))
    wrap(Session, "execute", "Session.execute")
    wrap(Session, "distribution", "Session.distribution")
    wrap(Planner, "lower", "Planner.lower")
    wrap(plan, "prepare_scored_prefix", "plan.prepare_scored_prefix",
         tag=rows_scored)
    wrap(plan, "dp_distribution", "plan.dp_distribution", tag=dp_tag)
    wrap(plan, "dp_distribution_sliced", "plan.dp_distribution_sliced",
         tag=dp_tag)
    for stage in ("mc_distribution", "k_combo_distribution",
                  "state_expansion_distribution"):
        wrap(plan, stage, f"plan.{stage}")
    wrap(SemanticsOp, "run", "SemanticsOp.run",
         tag=lambda a, k, r: a[0].semantics)
    # service.server imported both serializers by name.
    for module in (json_io, server):
        wrap(module, "answer_to_jsonable", "json_io.answer_to_jsonable",
             nested=False)
        wrap(module, "pmf_to_json", "json_io.pmf_to_json",
             tag=lambda a, k, r: len(r), nested=False)
    wrap(TableStore, "prefix", "TableStore.prefix")
    wrap(MutableUncertainTable, "apply_payload",
         "MutableUncertainTable.apply_payload")
    wrap(StandingRegistry, "on_delta", "StandingRegistry.on_delta")
    wrap(TableWAL, "append", "TableWAL.append",
         tag=lambda a, k, r: len(encode_record(a[1])))
    wrap(TableWAL, "truncate", "TableWAL.truncate")
    wrap(SlidingWindowTopK, "append", "SlidingWindowTopK.append")
    wrap(SlidingWindowTopK, "distribution", "SlidingWindowTopK.distribution")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class Spans:
    """Indexed view of one run's spans, limited to the timed window."""

    def __init__(
        self,
        spans: list[list[Any]],
        start: float,
        end: float,
        queue_waits: list[tuple[float, float]] = (),
    ) -> None:
        self.all = spans
        self.queue_waits_ms = [w for t, w in queue_waits if start <= t <= end]
        self.children: dict[int, list[int]] = {}
        for index, span in enumerate(spans):
            if span[3] != NO_PARENT:
                self.children.setdefault(span[3], []).append(index)
        self.window = [
            i for i, span in enumerate(spans) if start <= span[1] <= end
        ]
        self.requests = {
            span[4]: span[5]
            for span in (spans[i] for i in self.window)
            if span[0] == "QueryService.handle" and span[5] is not None
        }

    def named(self, *names: str) -> list[list[Any]]:
        return [self.all[i] for i in self.window if self.all[i][0] in names]

    def outermost(self, layer: str) -> list[int]:
        """Window spans of ``layer`` not nested in the same layer."""
        found = []
        for i in self.window:
            span = self.all[i]
            if LAYERS.get(span[0]) != layer:
                continue
            parent = span[3]
            if parent != NO_PARENT and LAYERS.get(self.all[parent][0]) == layer:
                continue
            found.append(i)
        return found

    def self_ms(self, index: int) -> float:
        """Duration minus the union of the child spans' intervals."""
        span = self.all[index]
        intervals = sorted(
            (max(self.all[c][1], span[1]), min(self.all[c][2], span[2]))
            for c in self.children.get(index, ())
        )
        covered, cursor = 0.0, span[1]
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (span[2] - span[1] - covered) * 1e3

    def layer_self_ms(self, index: int, layer: str) -> float:
        """Self time of ``layer`` in the subtree of one span."""
        total, todo = 0.0, [index]
        while todo:
            current = todo.pop()
            if LAYERS.get(self.all[current][0]) == layer:
                total += self.self_ms(current)
                todo.extend(self.children.get(current, ()))
        return total

    def is_read(self, span: list[Any]) -> bool:
        tag = self.requests.get(span[4])
        return tag is not None and tag[0] in READ_ENDPOINTS

    def of_reads(self, spans: list[list[Any]]) -> list[list[Any]]:
        """The spans working for a read request (all of them when the
        workload makes no HTTP requests)."""
        if not self.requests:
            return spans
        return [span for span in spans if self.is_read(span)]


def duration_ms(span: list[Any]) -> float:
    return (span[2] - span[1]) * 1e3


def _durations(spans: list[list[Any]]) -> list[float]:
    return [duration_ms(span) for span in spans]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _counter(document: dict | None, *path: str) -> float:
    """A ``/metrics`` counter (0 when the section is absent)."""
    value: Any = document or {}
    for key in path:
        value = value.get(key) or {}
    return float(value) if isinstance(value, (int, float)) else 0.0


def _storage_pages(document: dict | None, kind: str) -> float:
    return sum(
        info[kind]
        for caches in ((document or {}).get("storage") or {}).values()
        for info in caches.values()
    )


def layer_metrics(
    spans: Spans,
    *,
    reads: int,
    ops: int,
    client: dict[str, list[float]],
    metrics_before: dict | None,
    metrics_after: dict | None,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced window.

    ``client`` holds the client's own views: ``transport_ms`` (latency
    minus the response's ``elapsed_ms``), ``op_ms`` (raw latency),
    ``body_bytes`` (read response sizes), ``write_ms`` and ``read_ms``.
    ``/metrics`` counters are differenced between the two documents.
    Layers a workload never reaches report zero.
    """
    def counted(*path: str) -> float:
        return _counter(metrics_after, *path) - _counter(metrics_before, *path)

    out: dict[str, tuple[float, str]] = {}
    transport = percentile(client.get("transport_ms", []), 50)
    out["server.transport_ms_p50"] = (transport, "ms")
    out["server.transport_share_p50"] = (
        _per(transport, percentile(client.get("op_ms", []), 50)), "ratio"
    )
    handles = spans.named("QueryService.handle")
    out["server.handle_ms_p50"] = (percentile(_durations(handles), 50), "ms")

    out["executor.queue_wait_ms_p50"] = (percentile(spans.queue_waits_ms, 50), "ms")
    out["executor.batch_size_mean"] = (
        _per(counted("batches", "requests"), counted("batches", "count")), "count"
    )
    out["executor.rejected"] = (counted("queue", "rejected"), "count")
    out["executor.degraded"] = (counted("degraded", "count"), "count")

    per_spec = []
    for root in spans.outermost("session"):
        span = spans.all[root]
        batch = span[5] if span[0] == "Session.execute_many" else 1
        per_spec.append(_per(spans.layer_self_ms(root, "session"), batch))
    out["session.self_ms_p50"] = (percentile(per_spec, 50), "ms")
    lowers = spans.of_reads(spans.named("Planner.lower"))
    out["planner.lower_calls_per_read"] = (_per(len(lowers), reads), "1/read")
    for stage in ("scored", "prefix", "pmf", "answer"):
        hits = counted("cache", stage, "hits")
        lookups = hits + counted("cache", stage, "misses")
        out[f"cache.{stage}.hit_rate"] = (_per(hits, lookups), "ratio")

    prefixes = spans.of_reads(spans.named("plan.prepare_scored_prefix"))
    out["prefix.ms_per_read"] = (_per(sum(_durations(prefixes)), reads), "ms")
    out["prefix.rows_scored_per_read"] = (
        _per(sum(span[5] or 0 for span in prefixes), reads), "rows/read"
    )
    # Stage 1's share of server time on the rank-based reads of the
    # resident 50 000-row table.
    big_ranked = {
        rid for rid, tag in spans.requests.items()
        if tag[1] == "big" and tag[2] in ("u_kranks", "global_topk")
    }
    out["prefix.share_big_ranked"] = (
        _per(
            sum(_durations([s for s in prefixes if s[4] in big_ranked])),
            sum(_durations([s for s in handles if s[4] in big_ranked])),
        ),
        "ratio",
    )

    pages = spans.of_reads(spans.named("TableStore.prefix"))
    out["storage.prefix_ms_per_read"] = (_per(sum(_durations(pages)), reads), "ms")
    for kind in ("hits", "misses"):
        out[f"storage.page_{kind}"] = (
            _storage_pages(metrics_after, kind) - _storage_pages(metrics_before, kind),
            "count",
        )

    dp = spans.named(*DP_CALLS)
    out["dp.ms_per_call"] = (mean(_durations(dp)), "ms")
    out["dp.rows_per_call"] = (mean([float(s[5][0]) for s in dp]), "rows")
    out["dp.backend_native"] = (
        float(any(s[5][1] == "native" for s in dp)), "bool"
    )
    for short, names in (
        ("dp", DP_CALLS),
        ("k_combo", ("plan.k_combo_distribution",)),
        ("state_expansion", ("plan.state_expansion_distribution",)),
        ("mc", ("plan.mc_distribution",)),
    ):
        out[f"stage2.calls.{short}"] = (_per(len(spans.named(*names)), ops), "1/op")

    by_semantics: dict[str, int] = {}
    for endpoint, _, semantics in spans.requests.values():
        if endpoint in READ_ENDPOINTS:
            name = semantics or ("typical" if endpoint == "typical" else "distribution")
            by_semantics[name] = by_semantics.get(name, 0) + 1
    semantics_ms: dict[str, float] = {}
    for span in spans.of_reads(spans.named("SemanticsOp.run")):
        semantics_ms[span[5]] = semantics_ms.get(span[5], 0.0) + duration_ms(span)
    for name in SEMANTICS:
        out[f"semantics.ms_per_read.{name}"] = (
            _per(semantics_ms.get(name, 0.0), by_semantics.get(name, 0)), "ms"
        )

    serialize = spans.of_reads(
        [spans.all[i] for i in spans.outermost("serialize")]
    )
    out["serialize.ms_per_read"] = (_per(sum(_durations(serialize)), reads), "ms")
    out["serialize.bytes_per_read"] = (mean(client.get("body_bytes", [])), "bytes")

    applies = _durations(spans.named("MutableUncertainTable.apply_payload"))
    mutates = _durations([s for s in handles if s[5] and s[5][0] == "mutate"])
    out["changelog.apply_ms_p50"] = (percentile(applies, 50), "ms")
    out["changelog.apply_share_p50"] = (
        _per(percentile(applies, 50), percentile(mutates, 50)), "ratio"
    )
    out["registry.maintain_ms_p50"] = (
        percentile(_durations(spans.named("StandingRegistry.on_delta")), 50), "ms"
    )
    writes = counted("standing", "mutations")
    for tier in ("skip", "patch", "recompute"):
        out[f"registry.{tier}"] = (_per(counted("standing", tier), writes), "1/write")
    wal = spans.named("TableWAL.append")
    out["wal.append_ms_p50"] = (percentile(_durations(wal), 50), "ms")
    out["wal.bytes_per_write"] = (mean([float(s[5]) for s in wal]), "bytes")
    out["wal.snapshots"] = (float(len(spans.named("TableWAL.truncate"))), "count")

    for short, name in (("append", "SlidingWindowTopK.append"),
                        ("query", "SlidingWindowTopK.distribution")):
        out[f"window.{short}_ms_p50"] = (
            percentile(_durations(spans.named(name)), 50), "ms"
        )

    # standing_rw's reads beside its writes, as the client saw them.
    out["client.write_ms_p50"] = (percentile(client.get("write_ms", []), 50), "ms")
    out["client.read_ms_p50"] = (percentile(client.get("read_ms", []), 50), "ms")
    out["client.read_ms_p90"] = (percentile(client.get("read_ms", []), 90), "ms")
    out["trace.spans_per_op"] = (_per(len(spans.window), ops), "1/op")
    return out


def load(path: Path, start: float, end: float) -> Spans:
    document = json.loads(path.read_text())
    return Spans(document["spans"], start, end, document["queue_waits"])
