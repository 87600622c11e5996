"""The multi-process sharded serving tier (``serve --workers N``).

Covers the consistent-hash ring (process-stable hashing, vnode
spread, key-family separation), and — against a live two-worker pool
— byte-identical answers versus the single-process service for fresh
queries, maintained standing answers across a mutation burst, routing
stability under catalog reload, sid-prefix routing, front-side
backpressure, and dead-worker degradation in ``/healthz``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.api import QuerySpec
from repro.service import (
    DatasetCatalog,
    QueryService,
    ShardRing,
    ShardedQueryService,
    query_shard_key,
    table_shard_key,
)
from repro.service.loadgen import build_workload
from repro.service.shard import payload_query_key, stable_hash

BINDINGS = {
    "live": "synthetic:tuples=40,me=0.0,seed=7",
    "demo": "synthetic:tuples=50,me=0.4,seed=3",
}

#: Transport fields that legitimately differ between deployments.
_VOLATILE = ("elapsed_ms",)


def scrub(document: dict) -> dict:
    document = dict(document)
    for field in _VOLATILE:
        document.pop(field, None)
    return document


class TestShardRing:
    def test_hash_is_stable_across_processes(self) -> None:
        keys = [query_shard_key("demo", 0.1), table_shard_key("live")]
        script = (
            "from repro.service.shard import stable_hash, "
            "query_shard_key, table_shard_key; "
            "print(stable_hash(query_shard_key('demo', 0.1))); "
            "print(stable_hash(table_shard_key('live')))"
        )
        env = dict(os.environ, PYTHONHASHSEED="random")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.split()
        assert [int(line) for line in output] == [
            stable_hash(key) for key in keys
        ]

    def test_owner_is_deterministic_and_in_range(self) -> None:
        ring = ShardRing(4)
        again = ShardRing(4)
        for table in ("a", "b", "demo", "live"):
            for p_tau in (0.0, 0.1, 0.25):
                key = query_shard_key(table, p_tau)
                assert 0 <= ring.owner(key) < 4
                assert ring.owner(key) == again.owner(key)

    def test_single_worker_owns_everything(self) -> None:
        ring = ShardRing(1)
        assert ring.query_owner("x", 0.3) == 0
        assert ring.table_owner("x") == 0

    def test_vnodes_spread_keys(self) -> None:
        ring = ShardRing(4)
        owners = {
            ring.query_owner(f"table{i}", 0.0) for i in range(64)
        }
        assert len(owners) == 4  # every worker owns some keys

    def test_same_shape_same_owner(self) -> None:
        # Requests that would micro-batch together share a worker.
        ring = ShardRing(8)
        a = payload_query_key({"table": "t", "p_tau": 0.1, "k": 3})
        b = payload_query_key({"table": "t", "p_tau": 0.1, "k": 9})
        assert ring.owner(a) == ring.owner(b)

    def test_malformed_payload_still_routes(self) -> None:
        ring = ShardRing(4)
        for payload in (None, [], {"table": 7}, {"p_tau": "x"}):
            assert 0 <= ring.owner(payload_query_key(payload)) < 4

    def test_rejects_bad_worker_count(self) -> None:
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError):
            ShardRing(0)


@pytest.fixture(scope="module")
def sharded():
    service = ShardedQueryService(
        BINDINGS, workers=2, threads=2, max_queue=32, cache_size=64
    )
    yield service
    service.shutdown(drain=True, timeout=10.0)


@pytest.fixture(scope="module")
def single():
    service = QueryService(
        DatasetCatalog(BINDINGS, cache_size=64),
        workers=2,
        max_queue=32,
    )
    yield service
    service.shutdown()


class TestBuildService:
    """One builder for both deployments: worker 0 of 1 is the
    in-process server and keeps the unsharded durable names."""

    def test_names_follow_the_worker_count(self, tmp_path) -> None:
        from repro.service.worker import WorkerConfig, build_service

        seen = {}
        for workers in (1, 2):
            data_dir = tmp_path / f"of{workers}"
            service = build_service(
                0,
                workers,
                {"live": BINDINGS["live"]},
                WorkerConfig(threads=1, data_dir=str(data_dir)),
            )
            try:
                reply = service.handle("subscribe", {"table": "live", "k": 2})
                files = sorted(p.name for p in data_dir.iterdir() if p.is_file())
                seen[workers] = (reply.document["sid"], files)
            finally:
                service.shutdown(drain=True)
        assert seen[1] == ("sub-1", ["subscriptions.json"])
        assert seen[2] == ("w0-sub-1", ["subscriptions.w0.json"])

    def test_degrade_flag_sets_the_one_degradation_input(self) -> None:
        from repro.service.worker import WorkerConfig, build_service

        bindings = {"live": BINDINGS["live"]}
        for degrade in (True, False):
            service = build_service(
                0,
                1,
                bindings,
                WorkerConfig(threads=1, degrade=degrade, degrade_deadline_s=0.25),
            )
            try:
                policy = service.executor.degradation
                if degrade:
                    assert policy is not None and policy.deadline_s == 0.25
                    assert service.executor.breaker is not None
                else:
                    assert policy is None and service.executor.breaker is None
            finally:
                service.shutdown()


class TestWorkerWarm:
    def test_each_worker_warms_only_its_default_keys(self) -> None:
        from repro.core.distribution import DEFAULT_P_TAU
        from repro.service.worker import WorkerConfig, build_service

        bindings = {
            f"t{i}": f"synthetic:tuples=30,me=0.0,seed={i}"
            for i in range(6)
        }
        ring = ShardRing(2)
        warmed_by: list[set[str]] = []
        for index in range(2):
            owned = {
                name
                for name in bindings
                if ring.query_owner(name, DEFAULT_P_TAU) == index
            }
            assert 0 < len(owned) < len(bindings)
            service = build_service(
                index, 2, bindings, WorkerConfig(threads=1, warm=2)
            )
            try:
                session = service.catalog.session
                assert session.cache_info()["pmf"]["misses"] == len(owned)
                warmed = {
                    name
                    for name in bindings
                    if session.explain(
                        QuerySpec(
                            table=name,
                            scorer="score",
                            k=2,
                            semantics="distribution",
                        )
                    )["cache"]["pmf"]
                    == "hit"
                }
            finally:
                service.shutdown()
            assert warmed == owned
            warmed_by.append(warmed)
        assert warmed_by[0] | warmed_by[1] == set(bindings)


def strip_elapsed(body: bytes) -> bytes:
    """A reply body without its trailing ``elapsed_ms`` field."""
    head, _, tail = body.rpartition(b', "elapsed_ms": ')
    assert head and tail.endswith(b"}"), body[-60:]
    return head + b"}"


def both(sharded, single, endpoint, payload):
    """The same request through both deployments, scrubbed."""
    a = sharded.handle(endpoint, dict(payload))
    b = single.handle(endpoint, dict(payload))
    assert a.status == b.status, (a.status, b.status, a.document)
    return scrub(a.document), scrub(b.document)


class TestShardedEqualsSingle:
    def test_fresh_queries_are_identical(self, sharded, single) -> None:
        workload = build_workload(
            sorted(BINDINGS), requests=24, seed=5
        )
        for endpoint, payload in workload:
            a, b = both(sharded, single, endpoint, payload)
            assert a == b, (endpoint, payload)

    def test_warm_reads_are_byte_identical(self, sharded, single) -> None:
        """A warm read is answered at submit from a reused body on
        both deployments; the front passes the worker's bytes through."""
        before = sharded.metrics_document().document["queue"]
        reads = [
            ("answer", {"table": "demo", "k": 3, "semantics": "u_kranks"}),
            ("distribution", {"table": "demo", "k": 4, "p_tau": 0.02}),
            ("typical", {"table": "live", "k": 3, "c": 2}),
        ]
        for endpoint, payload in reads:
            for _ in range(2):
                a = sharded.handle(endpoint, dict(payload))
                b = single.handle(endpoint, dict(payload))
            assert a.status == b.status == 200
            assert strip_elapsed(a.body) == strip_elapsed(b.body)
        after = sharded.metrics_document().document
        assert after["queue"]["cache_hits"] - before["cache_hits"] >= 3
        assert after["queue"]["cache_hits"] == sum(
            doc["queue"]["cache_hits"] for doc in after["workers"].values()
        )

    def test_error_documents_are_identical(self, sharded, single) -> None:
        cases = [
            ("answer", {"table": "nope", "k": 3}),           # 404
            ("answer", {"table": "live", "k": 0}),           # 400
            ("answer", {"table": "live", "k": 3, "zzz": 1}), # 400 unknown
            ("distribution", {"table": "live"}),             # k missing
        ]
        for endpoint, payload in cases:
            a, b = both(sharded, single, endpoint, payload)
            assert a == b, (endpoint, payload)

    def test_standing_answers_across_mutation_burst(
        self, sharded, single
    ) -> None:
        spec = {"table": "live", "k": 3, "semantics": "u_topk"}
        sub_a = sharded.handle("subscribe", dict(spec))
        sub_b = single.handle("subscribe", dict(spec))
        assert sub_a.status == sub_b.status == 200
        burst = [
            {"op": "insert", "tid": "b1", "probability": 0.9,
             "attributes": {"score": 900.0}},
            {"op": "insert", "tid": "b2", "probability": 0.4,
             "attributes": {"score": 850.0}},
            {"op": "update_probability", "tid": "b1",
             "probability": 0.2},
            {"op": "update_score", "tid": "b2",
             "attributes": {"score": 990.0}},
            {"op": "expire", "tid": "b1"},
        ]
        for mutation in burst:
            a, b = both(
                sharded, single, "mutate", dict(mutation, table="live")
            )
            assert a == b, mutation
        snap_a = next(
            sharded.watch_events(
                sub_a.document["sid"], after=-1, count=1, timeout_s=5.0
            )
        )
        snap_b = next(
            single.watch_events(
                sub_b.document["sid"], after=-1, count=1, timeout_s=5.0
            )
        )
        assert snap_a["version"] == snap_b["version"] == len(burst)
        assert snap_a["answer"] == snap_b["answer"]
        # Fresh queries post-burst agree too (replica consistency).
        for payload in (
            {"table": "live", "k": 3, "semantics": "u_topk"},
            {"table": "live", "k": 5, "semantics": "pt_k",
             "threshold": 0.2},
        ):
            a, b = both(sharded, single, "answer", payload)
            assert a == b
        for service, sub in (
            (sharded, sub_a), (single, sub_b)
        ):
            reply = service.handle(
                "unsubscribe", {"sid": sub.document["sid"]}
            )
            assert reply.status == 200 and reply.document["removed"]

    def test_reload_restores_identity_and_routing(
        self, sharded, single
    ) -> None:
        """Reload drops the burst on every replica; the ring (a pure
        function of the worker count) never moves a key."""
        ring_before = {
            name: sharded.ring.table_owner(name) for name in BINDINGS
        }
        a, b = both(sharded, single, "reload", {"table": "live"})
        assert a["tuples"] == b["tuples"]
        assert {
            name: sharded.ring.table_owner(name) for name in BINDINGS
        } == ring_before
        payload = {"table": "live", "k": 4, "semantics": "u_topk"}
        a, b = both(sharded, single, "answer", payload)
        assert a == b
        versions = {
            doc["tables"]["live"]["version"]
            for doc in sharded.healthz().document["workers"].values()
        }
        assert versions == {0}  # every replica reloaded from source


class TestFrontTransport:
    def test_sid_prefix_routes_and_rejects(self, sharded) -> None:
        assert sharded._sid_worker("w0-sub-3") == 0
        assert sharded._sid_worker("w1-sub-9") == 1
        assert sharded._sid_worker("w7-sub-1") is None  # beyond pool
        assert sharded._sid_worker("sub-1") is None
        assert not sharded.has_subscription("w9-sub-1")
        assert not sharded.has_subscription("garbage")
        reply = sharded.handle("unsubscribe", {"sid": "w1-sub-999"})
        assert reply.status == 200 and not reply.document["removed"]

    def test_front_backpressure_is_429_with_hint(
        self, sharded, monkeypatch
    ) -> None:
        monkeypatch.setattr(sharded, "_inflight_limit", 0)
        reply = sharded.handle("answer", {"table": "live", "k": 3})
        assert reply.status == 429
        assert reply.retry_after is not None
        assert reply.document["retry_after_s"] == reply.retry_after
        assert reply.retry_after > 0

    def test_unknown_endpoint_is_404(self, sharded) -> None:
        assert sharded.handle("frobnicate", {}).status == 404

    def test_metrics_rollup_sections(self, sharded) -> None:
        document = sharded.metrics_document().document
        assert document["sharding"]["workers"] == 2
        assert set(document["workers"]) == {"w0", "w1"}
        assert document["requests"]["answer"]["count"] > 0
        assert "rejected_front" in document["queue"]
        total = sum(
            doc["requests"].get("answer", {}).get("count", 0)
            for doc in document["workers"].values()
        )
        assert document["requests"]["answer"]["count"] == total


class TestWorkerDeath:
    def test_dead_worker_degrades_healthz(self) -> None:
        service = ShardedQueryService(
            {"live": BINDINGS["live"]}, workers=2, threads=1,
            max_queue=8, request_timeout_s=5.0,
        )
        try:
            assert service.healthz().document["status"] == "ok"
            victim = service.pool.handles[1].process
            victim.terminate()
            victim.join(timeout=5.0)
            reply = service.healthz()
            assert reply.status == 503
            assert reply.document["status"] == "degraded"
            assert reply.document["workers"]["w1"]["status"] in (
                "dead", "unreachable"
            )
            # The surviving worker still answers its shard.
            ring = service.ring
            for p_tau in (0.0, 0.05, 0.1, 0.2, 0.3):
                if ring.query_owner("live", p_tau) == 0:
                    reply = service.handle(
                        "answer",
                        {"table": "live", "k": 3, "p_tau": p_tau},
                    )
                    assert reply.status == 200
                    break
        finally:
            service.shutdown(drain=False, timeout=2.0)
