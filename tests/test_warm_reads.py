"""The warm read path: one cache lookup and one reused body.

Covers :meth:`~repro.api.session.Session.cached` (counters, LRU
recency), the executor answering fully cached requests at submit
(held workers, the queue bound, the unbatched baseline, drain,
degradation), and :class:`~repro.service.server.QueryService` reusing
the encoded body of an answer it already sent (every read endpoint and
semantics, mutations that recompute or skip).  The keep-alive latency
the handler's ``TCP_NODELAY`` buys is tested with the HTTP round trips
in ``test_service.py``.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time

import pytest

from repro.api import QuerySpec
from repro.api.session import DEFAULT_CACHE_SIZE, MISS, Session
from repro.exceptions import BackpressureError, ServiceError
from repro.service import (
    BatchingExecutor,
    DatasetCatalog,
    QueryService,
    ServiceMetrics,
)

LIVE_SPEC = "synthetic:tuples=40,me=0.0,seed=7"

SEMANTICS = (
    "expected_ranks", "global_topk", "pt_k", "typical", "u_kranks", "u_topk",
)

_ELAPSED = re.compile(rb', "elapsed_ms": [0-9][0-9.e+-]*\}$')


@pytest.fixture
def catalog() -> DatasetCatalog:
    return DatasetCatalog([f"live={LIVE_SPEC}", "mini=soldier:"])


def without_elapsed(body: bytes) -> bytes:
    """``body`` minus its trailing ``elapsed_ms`` field (asserted last)."""
    match = _ELAPSED.search(body)
    assert match is not None, body[-80:]
    assert list(json.loads(body))[-1] == "elapsed_ms"
    return body[: match.start()] + b"}"


def stage_lookups(session: Session) -> dict[str, int]:
    info = session.cache_info()
    return {
        stage: info[stage]["hits"] + info[stage]["misses"]
        for stage in ("prefix", "pmf", "answer")
    }


def consulted(spec: QuerySpec, op: str) -> dict[str, int]:
    """Stage lookups one request makes, whichever path serves it."""
    from repro.api.registry import get_semantics

    needs_pmf = op == "distribution" or (
        get_semantics(spec.semantics).requires == "pmf"
    )
    return {
        "prefix": 1,
        "pmf": int(needs_pmf),
        "answer": int(op == "execute"),
    }


# ----------------------------------------------------------------------
# Session.cached
# ----------------------------------------------------------------------
class TestSessionLookup:
    def test_miss_counts_nothing_and_hit_counts_each_stage(
        self, catalog
    ) -> None:
        session = catalog.session
        spec = QuerySpec(table="mini", scorer="score", k=2, p_tau=0.0)
        assert session.cached(spec) is MISS
        assert stage_lookups(session) == {"prefix": 0, "pmf": 0, "answer": 0}
        answer = session.execute(spec)
        before = session.cache_info()
        # The PMF is cached but this c's answer is not: still a miss.
        assert session.cached(spec.with_(c=5)) is MISS
        assert session.cache_info() == before
        assert session.cached(spec) is answer
        assert session.cached(spec, "distribution") is (
            session.distribution(spec)
        )
        after = session.cache_info()
        assert after["prefix"]["hits"] == before["prefix"]["hits"] + 3
        assert after["pmf"]["hits"] == before["pmf"]["hits"] + 3
        assert after["answer"]["hits"] == before["answer"]["hits"] + 1
        assert after["answer"]["misses"] == before["answer"]["misses"]

    def test_lookup_refreshes_recency(self, catalog) -> None:
        session = catalog.session
        base = QuerySpec(table="mini", scorer="score", k=2, p_tau=0.0)
        read = base.with_(semantics="u_topk")
        idle = base.with_(p_tau=0.001)
        answer = session.execute(read)
        session.execute(idle)
        for index in range(DEFAULT_CACHE_SIZE):
            session.execute(base.with_(p_tau=0.002 + 0.001 * index))
            assert session.cached(read) is answer
        # The idle entry aged out; the entry read only through the
        # lookup stayed at the LRU's warm end.
        assert session.cached(idle) is MISS
        assert session.cached(read) is answer


# ----------------------------------------------------------------------
# Hits answered at submit
# ----------------------------------------------------------------------
class TestHitsAtSubmit:
    def test_cached_spec_answers_while_workers_are_held(
        self, catalog, slow_semantics
    ) -> None:
        metrics = ServiceMetrics()
        executor = BatchingExecutor(
            catalog.session, workers=2, max_queue=1, metrics=metrics
        )
        try:
            warm = QuerySpec(table="mini", scorer="score", k=2)
            expected = executor.submit("execute", warm).result(10.0)
            slow = QuerySpec(
                table="mini", scorer="score", k=2, semantics=slow_semantics
            )
            held = []
            for p_tau in (0.01, 0.02):
                held.append(executor.submit("execute", slow.with_(p_tau=p_tau)))
                time.sleep(0.05)  # a worker claims it; the queue empties
            started = time.perf_counter()
            future = executor.submit("execute", warm)
            assert future.done()
            assert future.result(0) is expected
            assert time.perf_counter() - started < 0.1
            cold = executor.submit("execute", warm.with_(c=7))
            assert not cold.done()  # queued behind the held workers
            with pytest.raises(BackpressureError, match="queue full"):
                executor.submit("execute", warm.with_(c=8))
            assert all(isinstance(f.result(10.0), int) for f in held)
            assert cold.result(10.0) is not None
        finally:
            executor.shutdown()
        queue = metrics.snapshot()["queue"]
        assert queue["cache_hits"] == 1
        assert queue["rejected"] == 1

    def test_counters_add_up_over_mixed_paths(self, catalog) -> None:
        """Submitters racing the workers: whichever path serves a
        request, each stage it consults counts exactly one lookup, and
        every request is either batched or a counted hit."""
        metrics = ServiceMetrics()
        session = catalog.session
        executor = BatchingExecutor(
            session, workers=3, max_queue=1024, metrics=metrics
        )
        base = QuerySpec(table="live", scorer="score", k=3, p_tau=0.05)
        shapes = [("distribution", base)] + [
            ("execute", base.with_(semantics=semantics))
            for semantics in SEMANTICS
        ] + [("execute", base.with_(c=5)), ("execute", base.with_(k=4))]
        submitters, rounds = 4, 4
        errors: list[BaseException] = []

        def submit_rounds() -> None:
            try:
                futures = [
                    executor.submit(op, spec)
                    for _ in range(rounds)
                    for op, spec in shapes
                ]
                for future in futures:
                    future.result(30.0)
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submit_rounds)
                for _ in range(submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            # Everything is warm now: a last pass is all hits.
            warm = [executor.submit(op, spec) for op, spec in shapes]
        finally:
            sys.setswitchinterval(switch)
            executor.shutdown()
        assert not errors and not any(t.is_alive() for t in threads)
        assert all(future.done() for future in warm)
        requests = (submitters * rounds + 1) * len(shapes)
        per_pass = {
            stage: sum(consulted(spec, op)[stage] for op, spec in shapes)
            for stage in ("prefix", "pmf", "answer")
        }
        assert stage_lookups(session) == {
            stage: count * (submitters * rounds + 1)
            for stage, count in per_pass.items()
        }
        document = metrics.snapshot()
        hits = document["queue"]["cache_hits"]
        assert len(shapes) <= hits < requests
        assert document["batches"]["requests"] + hits == requests

    def test_unbatched_baseline_never_hits(self, catalog) -> None:
        metrics = ServiceMetrics()
        executor = BatchingExecutor(
            catalog.session, workers=1, batched=False, metrics=metrics
        )
        spec = QuerySpec(table="mini", scorer="score", k=2, p_tau=0.0)
        try:
            catalog.session.execute(spec)  # cached in the shared session
            for _ in range(3):
                executor.submit("execute", spec).result(10.0)
        finally:
            executor.shutdown()
        document = metrics.snapshot()
        assert document["queue"]["cache_hits"] == 0
        assert document["batches"]["requests"] == 3

    def test_draining_executor_refuses_a_cached_spec(
        self, catalog, slow_semantics
    ) -> None:
        executor = BatchingExecutor(catalog.session, workers=1)
        warm = QuerySpec(table="mini", scorer="score", k=2)
        executor.submit("execute", warm).result(10.0)
        slow = executor.submit(
            "execute",
            QuerySpec(
                table="mini", scorer="score", k=2, semantics=slow_semantics
            ),
        )
        time.sleep(0.05)  # the worker is busy: the drain has to wait
        drain = threading.Thread(
            target=executor.shutdown,
            kwargs={"drain": True, "timeout": 10.0},
        )
        drain.start()
        try:
            deadline = time.monotonic() + 5.0
            while not executor._draining and time.monotonic() < deadline:
                time.sleep(0.005)
            assert executor._draining and not slow.done()
            for spec in (warm, warm.with_(c=9)):
                with pytest.raises(ServiceError, match="shut down"):
                    executor.submit("execute", spec)
        finally:
            drain.join(10.0)
        assert not drain.is_alive()
        assert slow.result(0) == 7


class TestDegradationLeavesHitsExact:
    @pytest.fixture
    def service(self, catalog):
        service = QueryService(catalog, workers=2, request_timeout_s=10.0)
        yield service
        service.shutdown()

    def test_tight_deadline(self, service) -> None:
        payload = {"table": "live", "k": 3, "semantics": "u_topk"}
        exact = service.handle("answer", payload)
        tight = service.handle("answer", dict(payload, timeout_s=0.3))
        assert tight.status == 200
        assert "degraded" not in tight.document
        assert without_elapsed(tight.body) == without_elapsed(exact.body)
        cold = service.handle(
            "answer", dict(payload, k=4, timeout_s=0.3)
        )
        assert cold.document["degraded"] is True
        assert cold.document["degrade_reason"] == "deadline"

    def test_open_breaker(self, service) -> None:
        payload = {"table": "live", "k": 3, "semantics": "pt_k"}
        exact = service.handle("answer", payload)
        breaker = service.executor.breaker
        for _ in range(3):
            breaker.record_failure(("live", "pt_k"))
        assert breaker.decide(("live", "pt_k")) == "degrade"
        again = service.handle("answer", payload)
        assert "degraded" not in again.document
        assert without_elapsed(again.body) == without_elapsed(exact.body)
        cold = service.handle("answer", dict(payload, k=4))
        assert cold.document["degraded"] is True
        assert cold.document["degrade_reason"] == "breaker"


# ----------------------------------------------------------------------
# Reused bodies
# ----------------------------------------------------------------------
READS = [("distribution", {}), ("typical", {"c": 3})] + [
    ("answer", {"semantics": semantics}) for semantics in SEMANTICS
]


@pytest.fixture
def encodes(monkeypatch):
    """Counts the serializer calls ``QueryService`` makes."""
    import repro.service.server as server

    calls = []
    for name in ("answer_to_jsonable", "pmf_to_json"):
        original = getattr(server, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(server, name, counted)
    return calls


class TestReusedBodies:
    @pytest.fixture
    def service(self, catalog):
        service = QueryService(catalog, workers=2, request_timeout_s=10.0)
        yield service
        service.shutdown()

    @pytest.mark.parametrize(
        "endpoint, fields", READS, ids=[f"{e}-{f}" for e, f in READS]
    )
    def test_warm_body_is_the_first_body(
        self, service, encodes, endpoint, fields
    ) -> None:
        payload = dict(fields, table="live", k=3, p_tau=0.05)
        first = service.handle(endpoint, payload)
        assert first.status == 200 and encodes
        encodes.clear()
        again = service.handle(endpoint, payload)
        assert again.status == 200
        assert encodes == []  # nothing was re-encoded
        assert without_elapsed(again.body) == without_elapsed(first.body)
        assert again.document == dict(
            first.document, elapsed_ms=again.document["elapsed_ms"]
        )

    @pytest.mark.parametrize(
        "endpoint, fields", READS, ids=[f"{e}-{f}" for e, f in READS]
    )
    def test_recompute_changes_the_body(
        self, service, endpoint, fields
    ) -> None:
        payload = dict(fields, table="live", k=3, p_tau=0.0)
        before = without_elapsed(service.handle(endpoint, payload).body)
        mutation = {
            "table": "live", "op": "insert", "tid": "giant",
            "attributes": {"score": 10_000.0}, "probability": 0.9,
        }
        assert service.handle("mutate", mutation).status == 200
        after = without_elapsed(service.handle(endpoint, payload).body)
        assert after != before
        fresh = QueryService(
            DatasetCatalog([f"live={LIVE_SPEC}"]), workers=1
        )
        try:
            assert fresh.handle("mutate", mutation).status == 200
            assert without_elapsed(
                fresh.handle(endpoint, payload).body
            ) == after
        finally:
            fresh.shutdown()

    def test_skip_reuses_the_body(self, service, encodes) -> None:
        payload = {"table": "live", "k": 2, "semantics": "u_topk",
                   "p_tau": 0.1}
        assert service.handle("subscribe", dict(payload)).status == 200
        first = service.handle("answer", payload)
        encodes.clear()
        reply = service.handle("mutate", {
            "table": "live", "op": "insert", "tid": "low",
            "attributes": {"score": -1_000.0}, "probability": 0.5,
        })
        assert reply.document["version"] == 1
        assert service.standing.describe()["skip"] == 1
        again = service.handle("answer", payload)
        assert encodes == []
        assert without_elapsed(again.body) == without_elapsed(first.body)

    def test_no_json_form_is_not_stored(self, tmp_path) -> None:
        from repro.io.csv_io import write_table_csv
        from tests.conftest import make_table

        huge = make_table([("a", 1e308, 1.0), ("b", 1e308, 1.0)])
        write_table_csv(huge, tmp_path / "huge.csv")
        service = QueryService(
            DatasetCatalog({"huge": str(tmp_path / "huge.csv")}), workers=1
        )
        try:
            for _ in range(2):
                reply = service.handle(
                    "distribution", {"table": "huge", "k": 2, "p_tau": 0.0}
                )
                assert reply.status == 500
                assert "non-finite" in reply.document["error"]
            assert len(service._bodies) == 0
        finally:
            service.shutdown()
