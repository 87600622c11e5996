"""Service integration for standing queries.

Covers the mutation/subscription control plane of the
:class:`~repro.service.server.QueryService` in process (``/v1/mutate``,
``/v1/subscribe``, ``/v1/unsubscribe``, ``/v1/reload``), the standing
section of ``/metrics``, mutate-then-requery cache correctness through
the service, the real-HTTP ``GET /v1/watch`` SSE stream (including
``Last-Event-ID`` resume), the durable subscription manifest, the
reload-vs-mutate race, and the bounded sticky-error retry.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import DatasetCatalog, QueryService, make_server
from repro.standing import MAX_STICKY_RETRIES, DurableStore

#: An ME-free mutable table (the skip tier applies) plus the paper toy.
LIVE_SPEC = "synthetic:tuples=40,me=0.0,seed=7"


@pytest.fixture
def catalog() -> DatasetCatalog:
    return DatasetCatalog([f"live={LIVE_SPEC}", "mini=soldier:"])


@pytest.fixture
def service(catalog):
    service = QueryService(catalog, workers=2, request_timeout_s=5.0)
    yield service
    service.shutdown()


def post(service, endpoint, payload):
    reply = service.handle(endpoint, payload)
    return reply.status, reply.document


class TestMutateEndpoint:
    def test_mutation_round_trip(self, service) -> None:
        status, doc = post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "fresh",
            "attributes": {"score": 123.0}, "probability": 0.5,
        })
        assert status == 200
        assert doc["version"] == 1
        assert doc["delta"]["op"] == "insert"
        assert doc["delta"]["tid"] == "fresh"
        status, doc = post(service, "mutate", {
            "table": "live", "op": "expire", "tid": "fresh",
        })
        assert status == 200 and doc["version"] == 2
        assert doc["delta"]["old_attributes"] == {"score": 123.0}

    def test_validation_statuses(self, service) -> None:
        assert post(service, "mutate", {"op": "insert"})[0] == 400
        assert post(service, "mutate", {
            "table": "nope", "op": "insert", "tid": "x",
        })[0] == 404
        assert post(service, "mutate", {
            "table": "live", "op": "teleport", "tid": "x",
        })[0] == 400
        assert post(service, "mutate", {
            "table": "live", "op": "insert",
        })[0] == 400  # tid missing
        # A rejected mutation must not bump the version.
        status, doc = post(service, "mutate", {
            "table": "live", "op": "expire", "tid": "definitely-absent",
        })
        assert status == 400
        status, doc = post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "x",
            "attributes": {"score": 1.0},
        })
        assert status == 200 and doc["version"] == 1

    @pytest.mark.parametrize(
        "op", ["insert", "update_score", "update_probability", "expire"]
    )
    @pytest.mark.parametrize(
        "field, value",
        [
            ("attributes", [1, 2]),
            ("attributes", "x"),
            ("attributes", 5),
            ("probability", "x"),
            ("probability", None),
            ("tid", [1]),
            ("tid", {"a": 1}),
            ("group_with", [1]),
            ("group_with", {"a": 1}),
            # A bool is an int to Python: on a table with integer tids
            # it would join tid 1.
            ("group_with", True),
        ],
    )
    def test_malformed_fields_are_a_400(
        self, service, op, field, value
    ) -> None:
        payload = {"table": "live", "op": op, "tid": "T1"}
        if op == "insert":
            payload.update(
                tid="new", attributes={"score": 1.0}, probability=0.5
            )
        payload[field] = value
        status, doc = post(service, "mutate", payload)
        assert status == 400, doc
        assert f"'{field}' must be" in doc["error"]
        assert service.catalog.describe()["live"]["version"] == 0

    def test_immutable_catalog_refuses(self) -> None:
        catalog = DatasetCatalog([f"live={LIVE_SPEC}"], mutable=False)
        service = QueryService(catalog, workers=1)
        try:
            status, doc = post(service, "mutate", {
                "table": "live", "op": "insert", "tid": "x",
                "attributes": {"score": 1.0},
            })
            assert status == 400
            assert "not mutable" in doc["error"]
        finally:
            service.shutdown()

    def test_mutate_then_requery_reflects_change(self, service) -> None:
        """The satellite regression, end to end through the service:
        version-keyed caches make the re-query miss, not stale-hit."""
        query = {"table": "live", "k": 2, "p_tau": 0.0}
        status, before = post(service, "answer", query)
        assert status == 200
        post(service, "answer", query)  # warm: answer stage hit
        hits = service.catalog.session.cache_info()["answer"]["hits"]
        assert hits >= 1
        status, doc = post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "giant",
            "attributes": {"score": 10_000.0}, "probability": 1.0,
        })
        assert status == 200
        status, after = post(service, "answer", query)
        assert status == 200
        assert after["answer"] != before["answer"]
        info = service.catalog.session.cache_info()
        assert info["answer"]["hits"] == hits  # no stale hit


class TestSubscribeEndpoints:
    def test_subscribe_watch_unsubscribe(self, service) -> None:
        status, sub = post(service, "subscribe", {
            "table": "live", "k": 2, "semantics": "u_topk", "p_tau": 0.1,
        })
        assert status == 200
        sid = sub["sid"]
        assert sub["version"] == 0 and sub["error"] is None
        assert sub["answer"] is not None
        post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "g",
            "attributes": {"score": 10_000.0}, "probability": 0.9,
        })
        events = list(
            service.watch_events(sid, after=0, count=1, timeout_s=2.0)
        )
        assert len(events) == 1
        assert events[0]["version"] == 1
        assert events[0]["tiers"] == {"skip": 0, "recompute": 1}
        # The maintained answer matches a fresh recompute through the
        # ordinary answer endpoint.
        _, direct = post(service, "answer", {
            "table": "live", "k": 2, "semantics": "u_topk", "p_tau": 0.1,
        })
        assert events[0]["answer"] == direct["answer"]
        status, doc = post(service, "unsubscribe", {"sid": sid})
        assert status == 200 and doc["removed"] is True
        status, doc = post(service, "unsubscribe", {"sid": sid})
        assert status == 200 and doc["removed"] is False

    def test_subscribe_validation(self, service) -> None:
        assert post(service, "subscribe", {"table": "nope", "k": 2})[0] \
            == 404
        assert post(service, "subscribe", {"table": "live"})[0] == 400
        assert post(service, "subscribe", {
            "table": "live", "k": 2, "bogus": 1,
        })[0] == 400

    def test_watch_unknown_sid_ends_immediately(self, service) -> None:
        events = list(
            service.watch_events("sub-99", after=-1, count=3, timeout_s=0.2)
        )
        assert events == []

    def test_metrics_standing_section(self, service) -> None:
        post(service, "subscribe", {"table": "live", "k": 2})
        post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "m",
            "attributes": {"score": 5.0}, "probability": 0.5,
        })
        document = service.metrics_document().document
        standing = document["standing"]
        assert standing["active"] == 1
        assert standing["subscriptions"] == 1
        assert standing["mutations"] == 1
        assert "patch" not in standing
        assert standing["skip"] + standing["recompute"] == 1
        # The inline control-plane endpoints are metered too.
        assert document["requests"]["mutate"]["count"] == 1
        assert document["requests"]["subscribe"]["count"] == 1


class TestReloadEndpoint:
    def test_reload_discards_mutations_and_evicts(self, service) -> None:
        _, before = post(service, "answer", {
            "table": "live", "k": 2, "p_tau": 0.0,
        })
        post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "g",
            "attributes": {"score": 10_000.0}, "probability": 1.0,
        })
        post(service, "answer", {"table": "live", "k": 2, "p_tau": 0.0})
        status, doc = post(service, "reload", {"table": "live"})
        assert status == 200
        assert doc["tuples"] == 40  # the mutation is gone
        assert doc["evicted"] >= 1
        # Eviction counters surface per stage in /metrics.
        cache = service.metrics_document().document["cache"]
        assert sum(
            cache[stage]["evictions"] for stage in cache
        ) == doc["evicted"]
        # The reloaded table answers like the pristine one.
        _, after = post(service, "answer", {
            "table": "live", "k": 2, "p_tau": 0.0,
        })
        assert after["answer"] == before["answer"]

    def test_reload_validation(self, service) -> None:
        assert post(service, "reload", {})[0] == 400
        assert post(service, "reload", {"table": "nope"})[0] == 404


class TestHTTPWatch:
    @pytest.fixture
    def server(self, catalog):
        server = make_server(catalog, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        thread.join(5.0)

    @staticmethod
    def post_json(base: str, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            f"{base}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return json.loads(response.read())

    @staticmethod
    def read_sse(response, on_event=None) -> list[dict]:
        """Decode ``event: update`` payloads until the ``end`` event."""
        events = []
        current = None
        for raw in response:
            line = raw.decode().rstrip("\r\n")
            if line.startswith("event: "):
                current = line.removeprefix("event: ")
            elif line.startswith("data: ") and current == "update":
                events.append(json.loads(line.removeprefix("data: ")))
                if on_event is not None:
                    on_event()
            elif current == "end":
                break
        return events

    def test_sse_stream_delivers_updates(self, server) -> None:
        sub = self.post_json(server, "/v1/subscribe", {
            "table": "live", "k": 2, "p_tau": 0.1,
        })
        sid = sub["sid"]
        url = (
            f"{server}/v1/watch?sid={sid}&after=-1&count=2&timeout_s=10"
        )
        collected: list[dict] = []
        snapshot_seen = threading.Event()

        def watch() -> None:
            with urllib.request.urlopen(url, timeout=15.0) as response:
                assert response.headers["Content-Type"] \
                    == "text/event-stream"
                collected.extend(
                    self.read_sse(response, on_event=snapshot_seen.set)
                )

        watcher = threading.Thread(target=watch)
        watcher.start()
        # Event 1 is the current (version-0) snapshot; event 2 arrives
        # only once the mutation below advances the subscription — so
        # wait for the snapshot before mutating.
        assert snapshot_seen.wait(10.0)
        self.post_json(server, "/v1/mutate", {
            "table": "live", "op": "update_score", "tid": "T1",
            "attributes": {"score": 10_000.0},
        })
        watcher.join(15.0)
        assert not watcher.is_alive()
        assert [event["version"] for event in collected] == [0, 1]
        assert collected[1]["error"] is None

    def test_non_finite_snapshot_streams_an_error_event(
        self, server
    ) -> None:
        sub = self.post_json(server, "/v1/subscribe", {
            "table": "live", "k": 2, "p_tau": 0.0,
            "semantics": "distribution",
        })
        for tid in ("T1", "T2"):
            # Two certain 1e308 scores: the top-2 sum overflows.
            self.post_json(server, "/v1/mutate", {
                "table": "live", "op": "update_score", "tid": tid,
                "attributes": {"score": 1e308},
            })
            self.post_json(server, "/v1/mutate", {
                "table": "live", "op": "update_probability", "tid": tid,
                "probability": 1.0,
            })
        url = f"{server}/v1/watch?sid={sub['sid']}&after=-1&timeout_s=10"
        with urllib.request.urlopen(url, timeout=15.0) as response:
            stream = response.read().decode()
        assert "Infinity" not in stream and "NaN" not in stream
        assert "event: update" not in stream
        error = stream.split("event: error\ndata: ", 1)[1].split("\n")[0]
        assert json.loads(error)["status"] == 500
        assert stream.rstrip().endswith("event: end\ndata: {}")

    def test_watch_unknown_sid_is_404(self, server) -> None:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{server}/v1/watch?sid=nope", timeout=5.0
            )
        assert excinfo.value.code == 404

    def test_last_event_id_resumes_and_supersedes_after(
        self, server
    ) -> None:
        """A reconnecting client replays everything past its last seen
        event id, even when the query string says otherwise."""
        sub = self.post_json(server, "/v1/subscribe", {
            "table": "live", "k": 2, "p_tau": 0.1,
        })
        sid = sub["sid"]
        self.post_json(server, "/v1/mutate", {
            "table": "live", "op": "update_score", "tid": "T1",
            "attributes": {"score": 10_000.0},
        })
        # `after=5` alone would wait (and time out) for version 6; the
        # Last-Event-ID header wins and replays version 1 immediately.
        request = urllib.request.Request(
            f"{server}/v1/watch?sid={sid}&after=5&count=1&timeout_s=5",
            headers={"Last-Event-ID": "0"},
        )
        ids: list[int] = []
        with urllib.request.urlopen(request, timeout=10.0) as response:
            events = []
            current = None
            for raw in response:
                line = raw.decode().rstrip("\r\n")
                if line.startswith("event: "):
                    current = line.removeprefix("event: ")
                elif line.startswith("id: "):
                    ids.append(int(line.removeprefix("id: ")))
                elif line.startswith("data: ") and current == "update":
                    events.append(
                        json.loads(line.removeprefix("data: "))
                    )
                elif current == "end":
                    break
        assert [event["version"] for event in events] == [1]
        assert ids == [1]  # the id: line a resuming client tracks


class TestStrictRequestBodies:
    """Over HTTP: a body that is not strict JSON, or that holds a
    number with no finite float value, is a 400 that changes nothing."""

    @pytest.fixture
    def server(self, catalog):
        server = make_server(catalog, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        thread.join(5.0)

    @staticmethod
    def send(base: str, endpoint: str, raw: bytes):
        request = urllib.request.Request(
            f"{base}/v1/{endpoint}",
            data=raw,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def assert_refused(self, base: str, endpoint: str, raw: bytes) -> None:
        status, doc = self.send(base, endpoint, raw)
        assert status == 400, doc
        assert doc["error"].startswith("bad JSON body")
        with urllib.request.urlopen(f"{base}/healthz", timeout=10.0) as r:
            assert json.loads(r.read())["tables"]["live"]["version"] == 0
        status, doc = self.send(
            base, "answer", b'{"table": "live", "k": 3, "p_tau": 0.05}'
        )
        assert status == 200, doc

    @pytest.mark.parametrize("endpoint", ["answer", "mutate"])
    def test_deep_nesting(self, server, endpoint) -> None:
        self.assert_refused(
            server, endpoint, b"[" * 100_000 + b"]" * 100_000
        )

    @pytest.mark.parametrize(
        "number",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" * 401],
        ids=["NaN", "Infinity", "-Infinity", "1e999", "401-digits"],
    )
    @pytest.mark.parametrize(
        "template",
        [
            '{"table": "live", "op": "insert", "tid": "bad", '
            '"attributes": {"score": %s}, "probability": 0.5}',
            '{"table": "live", "op": "update_score", "tid": "T1", '
            '"attributes": {"score": %s}}',
            '{"table": "live", "op": "update_probability", "tid": "T1", '
            '"probability": %s}',
        ],
        ids=["insert", "update_score", "update_probability"],
    )
    def test_numbers_without_a_finite_float(
        self, server, template, number
    ) -> None:
        self.assert_refused(server, "mutate", (template % number).encode())


class TestDurableService:
    def spec_payload(self):
        return {"table": "live", "k": 2, "semantics": "u_topk",
                "p_tau": 0.1}

    def boot(self, tmp_path):
        store = DurableStore(tmp_path)
        catalog = DatasetCatalog([f"live={LIVE_SPEC}"], store=store)
        return QueryService(catalog, workers=1, request_timeout_s=5.0)

    def shutdown(self, service) -> None:
        service.shutdown()
        service.catalog.store.close()

    def test_manifest_restores_subscriptions_at_boot(
        self, tmp_path
    ) -> None:
        first = self.boot(tmp_path)
        try:
            _, sub = post(first, "subscribe", self.spec_payload())
            sid = sub["sid"]
            post(first, "mutate", {
                "table": "live", "op": "insert", "tid": "giant",
                "attributes": {"score": 10_000.0}, "probability": 0.9,
            })
        finally:
            self.shutdown(first)
        second = self.boot(tmp_path)
        try:
            assert second.restored_subscriptions == [sid]
            assert second.failed_subscriptions == {}
            snapshot = second.standing.snapshot(sid)
            # Recovered at the exact pre-crash version, answering
            # identically to a cold recompute over the same state.
            assert snapshot["version"] == 1
            assert snapshot["error"] is None
            _, direct = post(second, "answer", self.spec_payload())
            assert snapshot["answer"] == direct["answer"]
            # Fresh sids never collide with restored ones.
            _, fresh = post(second, "subscribe", self.spec_payload())
            assert fresh["sid"] != sid
        finally:
            self.shutdown(second)

    def test_unsubscribe_updates_the_manifest(self, tmp_path) -> None:
        service = self.boot(tmp_path)
        try:
            _, sub = post(service, "subscribe", self.spec_payload())
            store = service.catalog.store
            assert [e["sid"] for e in store.read_manifest()] == [
                sub["sid"]
            ]
            post(service, "unsubscribe", {"sid": sub["sid"]})
            assert store.read_manifest() == []
        finally:
            self.shutdown(service)

    def test_unrestorable_manifest_entry_is_reported(
        self, tmp_path
    ) -> None:
        store = DurableStore(tmp_path)
        store.write_manifest([
            {"sid": "sub-9",
             "spec": {"table": "gone", "scorer": "score", "k": 2}},
        ])
        store.close()
        service = self.boot(tmp_path)
        try:
            assert service.restored_subscriptions == []
            assert "sub-9" in service.failed_subscriptions
            # The boot survived; fresh sids start past the failed one.
            _, sub = post(service, "subscribe", self.spec_payload())
            assert sub["sid"] == "sub-10"
        finally:
            self.shutdown(service)


class TestReloadMutateRace:
    def test_mutate_during_reload_lands_on_current_table(
        self, service, monkeypatch
    ) -> None:
        """The regression: a mutation admitted while a reload swaps the
        table must land on the table *currently* under the name, never
        on the replaced object (where it would silently vanish)."""
        catalog = service.catalog
        stale = catalog.session.catalog.resolve("live")
        original = DatasetCatalog._load
        in_reload = threading.Event()

        def slow_load(name, source):
            in_reload.set()
            time.sleep(0.3)
            return original(name, source)

        monkeypatch.setattr(
            DatasetCatalog, "_load", staticmethod(slow_load)
        )
        reloader = threading.Thread(
            target=post, args=(service, "reload", {"table": "live"})
        )
        reloader.start()
        assert in_reload.wait(5.0)
        status, doc = post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "raced",
            "attributes": {"score": 77.0}, "probability": 0.5,
        })
        reloader.join(5.0)
        assert not reloader.is_alive()
        assert status == 200 and doc["version"] == 1
        current = catalog.session.catalog.resolve("live")
        assert current is not stale
        assert "raced" in current and current.version == 1
        # The stale object never saw the mutation.
        assert "raced" not in stale and stale.version == 0


class TestStickyRetry:
    def flaky_execute(self, service):
        """Monkeypatch-able session.execute with an on/off failure."""
        session = service.catalog.session
        real = session.execute
        state = {"fail": False}

        def execute(spec):
            if state["fail"]:
                raise RuntimeError("transient scorer failure")
            return real(spec)

        return state, execute

    def break_maintenance(self, service, monkeypatch):
        _, sub = post(service, "subscribe", {
            "table": "live", "k": 2, "semantics": "u_topk", "p_tau": 0.1,
        })
        state, execute = self.flaky_execute(service)
        monkeypatch.setattr(
            service.catalog.session, "execute", execute
        )
        state["fail"] = True
        # A prefix-changing mutation forces re-evaluation, which fails.
        post(service, "mutate", {
            "table": "live", "op": "insert", "tid": "huge",
            "attributes": {"score": 99_999.0}, "probability": 0.95,
        })
        snapshot = service.standing.snapshot(sub["sid"])
        assert snapshot["error"] is not None
        assert snapshot["errors"] == 1
        return sub["sid"], state

    def test_transient_error_heals_on_next_wait_tick(
        self, service, monkeypatch
    ) -> None:
        sid, state = self.break_maintenance(service, monkeypatch)
        state["fail"] = False  # the failure was transient
        time.sleep(0.06)  # past the first retry backoff
        snapshot = service.standing.wait(
            sid, after_version=0, timeout=1.0
        )
        assert snapshot["error"] is None
        assert snapshot["version"] == 1
        assert snapshot["answer"] is not None
        standing = service.metrics_document().document["standing"]
        assert standing["retries"] == 1
        assert standing["subscription_errors"] == {sid: 1}

    def test_persistent_error_retries_are_bounded(
        self, service, monkeypatch
    ) -> None:
        sid, _ = self.break_maintenance(service, monkeypatch)
        # Drain far more wait ticks than the retry budget allows.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            service.standing.wait(sid, after_version=5, timeout=0.05)
            standing = service.metrics_document().document["standing"]
            if standing["retries"] >= MAX_STICKY_RETRIES:
                break
            time.sleep(0.1)
        time.sleep(0.5)  # well past any remaining backoff window
        service.standing.wait(sid, after_version=5, timeout=0.01)
        service.standing.wait(sid, after_version=5, timeout=0.01)
        standing = service.metrics_document().document["standing"]
        assert standing["retries"] == MAX_STICKY_RETRIES
        # 1 maintenance failure + one per consumed retry, then it stops
        # burning recomputes.
        assert standing["subscription_errors"] == {
            sid: 1 + MAX_STICKY_RETRIES
        }
        snapshot = service.standing.snapshot(sid)
        assert snapshot["error"] is not None
