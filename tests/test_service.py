"""Tests for the batching concurrent query service.

Covers the dataset catalog (file + generator sources), the
micro-batching executor (grouping, single-flight, backpressure,
shutdown), request validation, the in-process :class:`QueryService`
endpoint handling, the metrics document, and one real-HTTP round trip
through the loadgen client.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.api import QuerySpec, register_semantics, unregister_semantics
from repro.exceptions import (
    BackpressureError,
    BadRequestError,
    ServiceError,
)
from repro.io.csv_io import write_table_csv
from repro.service import (
    BatchingExecutor,
    DatasetCatalog,
    QueryService,
    ServiceMetrics,
    batch_key,
    build_spec,
    load_catalog_file,
    make_server,
    parse_binding,
    run_loadgen,
)
from repro.service.loadgen import build_workload, discover_tables
from repro.service.metrics import _Histogram
from tests.conftest import make_table

#: A tiny deterministic catalog most tests share.
DEMO_SPEC = "synthetic:tuples=40,me=0.5,seed=3"


@pytest.fixture
def catalog() -> DatasetCatalog:
    return DatasetCatalog([f"demo={DEMO_SPEC}", "mini=soldier:"])


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_generator_sources(self, catalog) -> None:
        assert catalog.names() == ("demo", "mini")
        info = catalog.describe()
        assert info["demo"]["tuples"] == 40
        assert info["demo"]["source"] == DEMO_SPEC
        assert info["mini"]["tuples"] == 7
        assert "demo" in catalog and "nope" not in catalog

    def test_file_source(self, tmp_path) -> None:
        table = make_table([("a", 10.0, 0.5), ("b", 5.0, 0.8)])
        path = tmp_path / "small.csv"
        write_table_csv(table, path)
        loaded = DatasetCatalog({"small": str(path)})
        assert loaded.describe()["small"]["tuples"] == 2

    def test_session_is_shared_and_resident(self, catalog) -> None:
        spec = QuerySpec(table="demo", scorer="score", k=3, p_tau=0.0)
        first = catalog.session.distribution(spec)
        again = catalog.session.distribution(spec)
        assert first is again  # same resident object, not a recompute
        assert catalog.session.cache_info()["pmf"]["hits"] == 1

    def test_warm_precomputes(self, catalog) -> None:
        warmed = catalog.warm(3)
        assert warmed == 2
        info = catalog.session.cache_info()
        assert info["pmf"]["misses"] == 2
        # The warmed shape is a request's default shape (no p_tau
        # given), so the first default request is a pure cache hit.
        catalog.session.distribution(
            QuerySpec(table="demo", scorer="score", k=3)
        )
        assert catalog.session.cache_info()["pmf"]["hits"] == 1

    def test_warm_subset(self, catalog) -> None:
        assert catalog.warm(3, tables=["mini"], p_tau=0.0) == 1
        assert catalog.session.cache_info()["pmf"]["misses"] == 1
        catalog.session.distribution(
            QuerySpec(table="mini", scorer="score", k=3, p_tau=0.0)
        )
        assert catalog.session.cache_info()["pmf"]["hits"] == 1

    def test_bad_bindings(self) -> None:
        with pytest.raises(ServiceError, match="name=source"):
            parse_binding("no-equals-sign")
        with pytest.raises(ServiceError, match=">= 1 table"):
            DatasetCatalog([])
        with pytest.raises(ServiceError, match="cannot load"):
            DatasetCatalog({"x": "/nonexistent/file.csv"})
        with pytest.raises(ServiceError, match="unknown keys"):
            DatasetCatalog({"x": "synthetic:bogus=1"})

    def test_catalog_file(self, tmp_path) -> None:
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"tables": {"demo": DEMO_SPEC}}))
        assert load_catalog_file(path) == {"demo": DEMO_SPEC}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tables": ["nope"]}))
        with pytest.raises(ServiceError, match="catalog file"):
            load_catalog_file(bad)


# ----------------------------------------------------------------------
# Batching executor
# ----------------------------------------------------------------------
class TestBatchingExecutor:
    def test_batch_key_groups_by_table_ptau_algorithm(self) -> None:
        base = QuerySpec(table="demo", scorer="score", k=3, p_tau=0.0)
        assert batch_key(base) == batch_key(base.with_(semantics="u_topk"))
        assert batch_key(base) == batch_key(base.with_(k=5, c=7))
        assert batch_key(base) != batch_key(base.with_(p_tau=0.1))
        assert batch_key(base) != batch_key(base.with_(algorithm="mc"))

    def test_executes_and_shares_cache(self, catalog) -> None:
        executor = BatchingExecutor(catalog.session, workers=2)
        spec = QuerySpec(table="mini", scorer="score", k=2, p_tau=0.0)
        futures = [
            executor.submit("execute", spec.with_(c=c)) for c in (1, 2, 3)
        ]
        results = [future.result(10.0) for future in futures]
        assert all(result is not None for result in results)
        executor.shutdown()
        # All three answers consumed one computed distribution.
        assert catalog.session.cache_info()["pmf"]["misses"] == 1

    def test_single_flight_batches_accumulate(
        self, catalog, slow_semantics
    ) -> None:
        metrics = ServiceMetrics()
        executor = BatchingExecutor(
            catalog.session, workers=2, metrics=metrics
        )
        spec = QuerySpec(
            table="mini", scorer="score", k=2, semantics=slow_semantics
        )
        first = executor.submit("execute", spec)
        time.sleep(0.05)  # let a worker claim it (key goes in flight)
        rest = [
            executor.submit("execute", spec.with_(c=c)) for c in (2, 3, 4)
        ]
        assert first.result(10.0) == 7
        assert [future.result(10.0) for future in rest] == [7, 7, 7]
        executor.shutdown()
        batches = metrics.snapshot()["batches"]
        assert batches["count"] == 2  # [first], then the 3 accumulated
        assert batches["requests"] == 4

    def test_backpressure_rejects_and_counts(
        self, catalog, slow_semantics
    ) -> None:
        metrics = ServiceMetrics()
        executor = BatchingExecutor(
            catalog.session,
            workers=1,
            max_queue=2,
            metrics=metrics,
        )
        spec = QuerySpec(
            table="mini", scorer="score", k=2, semantics=slow_semantics
        )
        first = executor.submit("execute", spec)
        time.sleep(0.05)  # worker claims it; queue is now empty
        accepted = [
            executor.submit("execute", spec.with_(c=c)) for c in (2, 3)
        ]
        with pytest.raises(BackpressureError, match="queue full"):
            executor.submit("execute", spec.with_(c=4))
        assert first.result(10.0) == 7
        for future in accepted:
            assert future.result(10.0) == 7
        executor.shutdown()
        assert metrics.snapshot()["queue"]["rejected"] == 1

    def test_unbatched_mode_is_cold_per_request(self, catalog) -> None:
        executor = BatchingExecutor(
            catalog.session, workers=1, batched=False
        )
        spec = QuerySpec(table="mini", scorer="score", k=2, p_tau=0.0)
        for c in (1, 2):
            executor.submit("execute", spec.with_(c=c)).result(10.0)
        executor.shutdown()
        # The shared session never saw the requests at all.
        assert catalog.session.cache_info()["pmf"]["misses"] == 0

    def test_error_propagates_to_future(self, catalog) -> None:
        executor = BatchingExecutor(catalog.session, workers=1)
        spec = QuerySpec(
            table="mini", scorer="score", k=2, semantics="typical"
        )
        future = executor.submit(
            "execute", spec.with_(semantics="no_such_semantics")
        )
        with pytest.raises(Exception, match="unknown semantics"):
            future.result(10.0)
        executor.shutdown()

    def test_expired_requests_free_their_queue_slots(
        self, catalog, slow_semantics
    ) -> None:
        from repro.exceptions import RequestTimeoutError

        executor = BatchingExecutor(
            catalog.session, workers=1, max_queue=2
        )
        spec = QuerySpec(
            table="mini", scorer="score", k=2, semantics=slow_semantics
        )
        blocker = executor.submit("execute", spec)
        time.sleep(0.05)  # worker claims it; queue is now empty
        # Two zombies-to-be with an already-minuscule deadline fill
        # the queue...
        doomed = [
            executor.submit(
                "execute", spec.with_(c=c), timeout_s=0.01
            )
            for c in (2, 3)
        ]
        time.sleep(0.05)  # both deadlines pass while the worker sleeps
        # ...yet a fresh submit succeeds: the purge frees their slots
        # instead of answering 429.
        fresh = executor.submit("execute", spec.with_(c=4))
        for future in doomed:
            with pytest.raises(RequestTimeoutError, match="expired"):
                future.result(10.0)
        assert blocker.result(10.0) == 7
        assert fresh.result(10.0) == 7
        executor.shutdown()

    def test_queue_depth_metric_drains(self, catalog) -> None:
        metrics = ServiceMetrics()
        executor = BatchingExecutor(
            catalog.session, workers=2, metrics=metrics
        )
        spec = QuerySpec(table="mini", scorer="score", k=2, p_tau=0.0)
        futures = [
            executor.submit("execute", spec.with_(c=c)) for c in (1, 2, 3)
        ]
        for future in futures:
            future.result(10.0)
        executor.shutdown()
        queue = metrics.snapshot()["queue"]
        assert queue["depth"] == 0  # drained, not stuck at last enqueue
        assert queue["max_depth"] >= 1

    def test_shutdown_fails_pending(self, catalog, slow_semantics) -> None:
        executor = BatchingExecutor(catalog.session, workers=1)
        spec = QuerySpec(
            table="mini", scorer="score", k=2, semantics=slow_semantics
        )
        executor.submit("execute", spec)
        time.sleep(0.05)
        pending = executor.submit("execute", spec.with_(p_tau=0.1))
        executor.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            pending.result(1.0)


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
class TestBuildSpec:
    def test_minimal(self) -> None:
        spec = build_spec({"table": "demo", "k": 3}, "answer")
        assert spec.table == "demo"
        assert spec.scorer == "score"
        assert spec.semantics == "typical"

    def test_full(self) -> None:
        spec = build_spec(
            {
                "table": "demo",
                "k": 5,
                "semantics": "pt_k",
                "threshold": 0.4,
                "p_tau": 0.1,
                "algorithm": "mc",
                "samples": 500,
                "seed": 7,
            },
            "answer",
        )
        assert spec.semantics == "pt_k"
        assert spec.samples == 500

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("not a dict", "JSON object"),
            ({"k": 3}, '"table"'),
            ({"table": "demo"}, '"k"'),
            ({"table": "demo", "k": 3, "bogus": 1}, "unknown request"),
            ({"table": "demo", "k": 3, "scorer": 7}, '"scorer"'),
            ({"table": "demo", "k": 0}, "k must be"),
            ({"table": "demo", "k": 3, "p_tau": 2.0}, "p_tau"),
        ],
    )
    def test_rejections(self, payload, message) -> None:
        with pytest.raises(BadRequestError, match=message):
            build_spec(payload, "answer")

    def test_typical_endpoint_forces_typical(self) -> None:
        spec = build_spec({"table": "demo", "k": 3, "c": 5}, "typical")
        assert spec.semantics == "typical" and spec.c == 5
        with pytest.raises(BadRequestError, match="only serves"):
            build_spec(
                {"table": "demo", "k": 3, "semantics": "u_topk"}, "typical"
            )


# ----------------------------------------------------------------------
# QueryService (transport-independent)
# ----------------------------------------------------------------------
class TestQueryService:
    @pytest.fixture
    def service(self, catalog):
        service = QueryService(catalog, workers=2)
        yield service
        service.shutdown()

    def test_answer_endpoint(self, service) -> None:
        reply = service.handle(
            "answer", {"table": "mini", "k": 2, "semantics": "u_topk"}
        )
        assert reply.status == 200
        assert reply.document["semantics"] == "u_topk"
        assert reply.document["answer"]["vector"]

    def test_distribution_endpoint(self, service) -> None:
        reply = service.handle(
            "distribution", {"table": "mini", "k": 2, "p_tau": 0.0}
        )
        assert reply.status == 200
        lines = reply.document["lines"]
        assert lines and abs(
            sum(line["prob"] for line in lines) - 1.0
        ) < 1e-9

    def test_typical_endpoint(self, service) -> None:
        reply = service.handle(
            "typical", {"table": "mini", "k": 2, "c": 2}
        )
        assert reply.status == 200
        assert len(reply.document["result"]["answers"]) == 2

    def test_statuses(self, service) -> None:
        assert service.handle("nope", {}).status == 404
        assert (
            service.handle("answer", {"table": "ghost", "k": 2}).status
            == 404
        )
        assert service.handle("answer", {"table": "mini"}).status == 400

    def test_negative_seed_is_a_400(self, service) -> None:
        reply = service.handle(
            "answer",
            {"table": "mini", "k": 2, "algorithm": "mc", "seed": -1},
        )
        assert reply.status == 400
        assert "seed" in reply.document["error"]

    def test_metrics_document(self, service) -> None:
        service.handle("answer", {"table": "mini", "k": 2})
        service.handle("answer", {"table": "mini"})  # a 400
        document = service.metrics_document().document
        answer = document["requests"]["answer"]
        assert answer["count"] == 2 and answer["errors"] == 1
        assert answer["latency_ms"]["count"] == 2
        assert document["batches"]["requests"] == 1
        assert set(document["cache"]) == {
            "scored",
            "prefix",
            "pmf",
            "answer",
        }
        assert service.healthz().document["status"] == "ok"

    def test_concurrent_overload_yields_429(self, catalog) -> None:
        @register_semantics("slow_429_test", replace=True)
        def _slow(prefix, spec):
            time.sleep(0.3)
            return len(prefix)

        try:
            service = QueryService(catalog, workers=1, max_queue=2)
            payload = {
                "table": "mini",
                "k": 2,
                "semantics": "slow_429_test",
            }
            statuses: list[int] = []
            lock = threading.Lock()

            def call(seed: int) -> None:
                reply = service.handle(
                    "answer", dict(payload, seed=seed)
                )
                with lock:
                    statuses.append(reply.status)

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses.count(429) >= 1
            assert statuses.count(200) >= 3
            rejected = service.metrics.snapshot()["queue"]["rejected"]
            assert rejected == statuses.count(429)
            service.shutdown()
        finally:
            unregister_semantics("slow_429_test")


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_quantiles(self) -> None:
        histogram = _Histogram((1.0, 10.0, 100.0))
        assert histogram.quantile(0.5) is None
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.99) == 100.0
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["buckets"] == {"<=1": 2, "<=10": 1, "<=100": 1}

    def test_overflow_quantile_is_the_bucket_label(self) -> None:
        histogram = _Histogram((1.0, 10.0))
        for value in (0.5, 5000.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.99) == "+inf"
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"<=1": 1, "+inf": 1}
        json.dumps(snapshot, allow_nan=False)  # strict JSON

    def test_cache_hit_rates(self) -> None:
        metrics = ServiceMetrics()
        document = metrics.snapshot(
            {"pmf": {"hits": 3, "misses": 1, "size": 1, "maxsize": 8}}
        )
        assert document["cache"]["pmf"]["hit_rate"] == 0.75


# ----------------------------------------------------------------------
# HTTP round trip + loadgen
# ----------------------------------------------------------------------
class TestHTTP:
    @pytest.fixture
    def server(self, catalog):
        server = make_server(catalog, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        thread.join(5.0)

    def test_discover_and_loadgen(self, server) -> None:
        assert discover_tables(server) == ["demo", "mini"]
        result = run_loadgen(
            server, requests=22, concurrency=4, tables=["mini"], seed=2
        )
        assert result.ok == 22
        assert result.transport_errors == 0
        summary = result.summary()
        assert summary["status_counts"] == {"200": 22}
        assert summary["latency_ms"]["p50"] is not None

    def test_keep_alive_reads_do_not_wait_for_delayed_acks(
        self, server
    ) -> None:
        """Ten warm reads over one connection: with Nagle on, each
        reply's body waited out the client's ~40 ms delayed ACK."""
        host, port = server.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        body = json.dumps({"table": "demo", "k": 3, "p_tau": 0.05}).encode()
        headers = {"Content-Type": "application/json"}
        latencies = []
        try:
            for _ in range(11):  # the first read warms the caches
                started = time.perf_counter()
                connection.request("POST", "/v1/answer", body, headers)
                response = connection.getresponse()
                response.read()
                latencies.append((time.perf_counter() - started) * 1e3)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(latencies[1:]) < 20.0, latencies

    def test_unknown_path_is_404(self, server) -> None:
        from repro.service.loadgen import _http_json

        status, body, _ = _http_json(f"{server}/v2/answer", {"k": 1}, 10.0)
        assert status == 404 and "unknown path" in body["error"]
        status, _, retry_after = _http_json(f"{server}/nope", None, 10.0)
        assert status == 404 and retry_after is None

    def test_workload_is_deterministic(self) -> None:
        first = build_workload(["a", "b"], 30, seed=5)
        second = build_workload(["a", "b"], 30, seed=5)
        assert first == second
        assert first != build_workload(["a", "b"], 30, seed=6)
        endpoints = {endpoint for endpoint, _ in first}
        assert endpoints == {"answer", "distribution", "typical"}
        semantics = {
            payload.get("semantics")
            for endpoint, payload in first
            if endpoint == "answer"
        }
        assert len(semantics) == 6


def _strict_json(raw: bytes):
    """RFC 8259 JSON only: bare NaN/Infinity tokens are an error."""

    def reject(token: str):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(raw, parse_constant=reject)


class TestStrictWireJSON:
    @pytest.fixture
    def http_server(self, tmp_path):
        # Two certain 1e308 scores: every top-2 score sum overflows.
        huge = make_table([("a", 1e308, 1.0), ("b", 1e308, 1.0)])
        infinite = make_table([("a", float("inf"), 0.5), ("b", 1.0, 0.5)])
        write_table_csv(huge, tmp_path / "huge.csv")
        write_table_csv(infinite, tmp_path / "inf.csv")
        catalog = DatasetCatalog({
            "huge": str(tmp_path / "huge.csv"),
            "inf": str(tmp_path / "inf.csv"),
        })
        server = make_server(catalog, port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        thread.join(5.0)

    @pytest.fixture
    def server(self, http_server):
        host, port = http_server.server_address[:2]
        return f"http://{host}:{port}"

    @staticmethod
    def fetch_raw(base: str, endpoint: str, payload: dict | None = None):
        """POST ``payload`` to ``/v1/<endpoint>``; GET ``/<endpoint>``
        when there is no payload."""
        import urllib.error
        import urllib.request

        if payload is None:
            request = urllib.request.Request(f"{base}/{endpoint}")
        else:
            request = urllib.request.Request(
                f"{base}/v1/{endpoint}",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    @pytest.mark.parametrize("endpoint", ["distribution", "typical"])
    def test_overflowed_sum_is_a_500_with_a_json_body(
        self, server, endpoint
    ) -> None:
        status, raw = self.fetch_raw(
            server, endpoint, {"table": "huge", "k": 2, "p_tau": 0.0}
        )
        assert status == 500
        assert "non-finite" in _strict_json(raw)["error"]

    def test_infinite_score_is_rejected_as_a_bad_request(
        self, server
    ) -> None:
        status, raw = self.fetch_raw(
            server, "typical", {"table": "inf", "k": 2, "p_tau": 0.0}
        )
        assert status == 400
        assert "'a' is inf" in _strict_json(raw)["error"]

    def test_overflow_500_counts_as_an_error(self, http_server, server) -> None:
        payload = {"table": "huge", "k": 2, "p_tau": 0.0}
        reply = http_server.service.handle("distribution", payload)
        assert reply.status == 500  # in-process callers see it too
        assert "non-finite" in reply.document["error"]
        json.dumps(reply.document, allow_nan=False)
        self.fetch_raw(server, "distribution", payload)
        status, raw = self.fetch_raw(server, "metrics")
        assert status == 200
        entry = _strict_json(raw)["requests"]["distribution"]
        assert (entry["count"], entry["errors"]) == (2, 2)

    def test_metrics_stay_strict_after_a_slow_request(
        self, http_server, server
    ) -> None:
        # 5000 ms lands past the last latency bucket (4096 ms).
        http_server.service.metrics.record_request(
            "distribution", 5.0, error=False
        )
        status, raw = self.fetch_raw(server, "metrics")
        assert status == 200
        latency = _strict_json(raw)["requests"]["distribution"]["latency_ms"]
        assert latency["p99"] == "+inf"
