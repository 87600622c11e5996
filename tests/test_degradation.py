"""Graceful degradation: the policy, the circuit breaker, the fault
injector, and the end-to-end degraded answer contract through the
service (``degraded: true`` + a confidence interval that contains the
exact value; strict clients opt out with ``allow_degraded: false``)."""

from __future__ import annotations

import pytest

from repro.exceptions import FaultInjectedError, ServiceError
from repro.semantics.marginals import top_k_probability
from repro.service import DatasetCatalog, QueryService
from repro.service.breaker import CircuitBreaker
from repro.service.degrade import (
    MAX_EPSILON,
    MIN_EPSILON,
    DegradationPolicy,
)
from repro.service.faults import CRASH_EXIT_CODE, FaultInjector
from repro.api.spec import QuerySpec
from repro.uncertain.scoring import ScoredTable, attribute_scorer


class TestDegradationPolicy:
    def test_epsilon_inverts_the_budget(self) -> None:
        policy = DegradationPolicy()
        tight = policy.epsilon_for(10.0, 0.95)
        loose = policy.epsilon_for(0.05, 0.95)
        assert MIN_EPSILON <= tight <= loose <= MAX_EPSILON
        # Clamps on both ends.
        assert policy.epsilon_for(1e6, 0.95) == MIN_EPSILON
        assert policy.epsilon_for(1e-9, 0.95) == MAX_EPSILON
        # Higher confidence needs more samples -> wider at equal budget.
        assert policy.epsilon_for(0.1, 0.99) >= policy.epsilon_for(
            0.1, 0.9
        )

    def test_degraded_spec_replans_through_mc(self) -> None:
        policy = DegradationPolicy()
        spec = QuerySpec(table="t", scorer="score", k=3, samples=777)
        degraded = policy.degraded_spec(spec, 0.2)
        assert degraded.algorithm == "mc"
        assert degraded.samples is None
        assert MIN_EPSILON <= degraded.epsilon <= MAX_EPSILON
        assert degraded.semantics == spec.semantics
        assert degraded.k == spec.k

    def test_validation(self) -> None:
        with pytest.raises(ServiceError):
            DegradationPolicy(deadline_s=0)
        with pytest.raises(ServiceError):
            DegradationPolicy(queue_depth=0)
        with pytest.raises(ServiceError):
            DegradationPolicy(samples_per_second=0)


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = [0.0]
        breaker = CircuitBreaker(
            failures=3, cooldown_s=5.0, clock=lambda: clock[0], **kwargs
        )
        return breaker, clock

    def test_trips_after_consecutive_failures(self) -> None:
        breaker, _ = self.make()
        key = ("live", "u_topk")
        for _ in range(2):
            breaker.record_failure(key)
            assert breaker.decide(key) == "exact"
        breaker.record_failure(key)
        assert breaker.state(key) == "open"
        assert breaker.decide(key) == "degrade"
        assert breaker.trips == 1

    def test_success_resets_the_streak(self) -> None:
        breaker, _ = self.make()
        key = "k"
        breaker.record_failure(key)
        breaker.record_failure(key)
        breaker.record_success(key)
        breaker.record_failure(key)
        breaker.record_failure(key)
        assert breaker.state(key) == "closed"

    def test_cooldown_probe_and_close(self) -> None:
        breaker, clock = self.make()
        key = "k"
        for _ in range(3):
            breaker.record_failure(key)
        clock[0] = 4.9
        assert breaker.decide(key) == "degrade"
        clock[0] = 5.1
        # Exactly one caller gets the probe; the rest keep degrading.
        assert breaker.decide(key) == "probe"
        assert breaker.decide(key) == "degrade"
        breaker.record_success(key)
        assert breaker.decide(key) == "exact"
        assert breaker.state(key) == "closed"

    def test_failed_probe_reopens_with_fresh_cooldown(self) -> None:
        breaker, clock = self.make()
        key = "k"
        for _ in range(3):
            breaker.record_failure(key)
        clock[0] = 6.0
        assert breaker.decide(key) == "probe"
        breaker.record_failure(key)
        assert breaker.state(key) == "open"
        assert breaker.trips == 2
        clock[0] = 10.0  # 4s into the *new* cooldown
        assert breaker.decide(key) == "degrade"
        clock[0] = 11.5
        assert breaker.decide(key) == "probe"

    def test_keys_are_independent(self) -> None:
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure("a")
        assert breaker.decide("a") == "degrade"
        assert breaker.decide("b") == "exact"
        description = breaker.describe()
        assert description["trips"] == 1
        assert description["open"] == ["a"]
        assert description["tracked"] == 1

    def test_validation(self) -> None:
        with pytest.raises(ServiceError):
            CircuitBreaker(failures=0)
        with pytest.raises(ServiceError):
            CircuitBreaker(cooldown_s=0)


class TestFaultInjector:
    def test_grammar(self) -> None:
        faults = FaultInjector(
            "wal_torn_write:0.05, exec_delay:200ms, exec_error:1.0,"
            "slow_point:1.5s"
        )
        description = faults.describe()
        assert description["probabilities"] == {
            "wal_torn_write": 0.05,
            "exec_error": 1.0,
        }
        assert description["delays_s"] == {
            "exec_delay": 0.2,
            "slow_point": 1.5,
        }
        assert bool(faults)
        assert not bool(FaultInjector(""))

    @pytest.mark.parametrize(
        "spec",
        ["nocolon", "p:", ":0.5", "p:maybe", "p:1.5", "p:-0.1"],
    )
    def test_bad_clauses_refuse(self, spec) -> None:
        with pytest.raises(ServiceError):
            FaultInjector(spec)

    def test_from_env(self) -> None:
        assert FaultInjector.from_env({}) is None
        assert FaultInjector.from_env({"REPRO_FAULTS": "  "}) is None
        faults = FaultInjector.from_env(
            {"REPRO_FAULTS": "exec_error:0.5", "REPRO_FAULTS_SEED": "7"}
        )
        assert faults is not None
        twin = FaultInjector("exec_error:0.5", seed=7)
        assert [faults.should("exec_error") for _ in range(20)] == [
            twin.should("exec_error") for _ in range(20)
        ]

    def test_probability_edges(self) -> None:
        always = FaultInjector("p:1.0", seed=0)
        never = FaultInjector("p:0.0", seed=0)
        assert all(always.should("p") for _ in range(5))
        assert not any(never.should("p") for _ in range(5))
        assert always.should("unconfigured") is False
        assert always.fired["p"] == 5

    def test_raise_if_and_crash(self) -> None:
        faults = FaultInjector("exec_error:1.0", seed=0)
        with pytest.raises(FaultInjectedError):
            faults.raise_if("exec_error")
        faults.raise_if("other_point")  # unconfigured: no-op
        with pytest.raises(FaultInjectedError, match="wal_torn_write"):
            faults.crash("wal_torn_write")
        assert CRASH_EXIT_CODE == 70

    def test_delay_sleeps_and_counts(self) -> None:
        faults = FaultInjector("exec_delay:1ms")
        assert faults.delay("exec_delay") == pytest.approx(0.001)
        assert faults.delay("other") == 0.0
        assert faults.fired == {"exec_delay": 1}

    def test_crash_mode_validation(self) -> None:
        with pytest.raises(ServiceError):
            FaultInjector("", crash_mode="explode")


class TestServiceDegradation:
    LIVE_SPEC = "synthetic:tuples=40,me=0.0,seed=7"

    @pytest.fixture
    def service(self):
        catalog = DatasetCatalog([f"live={self.LIVE_SPEC}"])
        service = QueryService(catalog, workers=2, request_timeout_s=10.0)
        yield service
        service.shutdown()

    def post(self, service, endpoint, payload):
        reply = service.handle(endpoint, payload)
        return reply.status, reply.document

    def test_tiny_deadline_degrades_with_honest_interval(
        self, service
    ) -> None:
        status, doc = self.post(service, "answer", {
            "table": "live", "k": 3, "p_tau": 0.0, "timeout_s": 0.3,
        })
        assert status == 200
        assert doc["degraded"] is True
        assert doc["degrade_reason"] == "deadline"
        assert MIN_EPSILON <= doc["epsilon"] <= MAX_EPSILON
        interval = doc["confidence_interval"]
        assert interval["metric"] == "topk_hit_probability"
        assert 0.0 <= interval["low"] <= interval["estimate"] \
            <= interval["high"] <= 1.0
        # The interval contains the exact value it approximates.
        table = service.catalog.session.catalog.resolve("live")
        exact = top_k_probability(
            ScoredTable.from_table(table, attribute_scorer("score")),
            0,
            3,
        )
        assert interval["low"] <= exact <= interval["high"]
        assert interval["tid"] is not None
        # Degradations are metered.
        metrics = service.metrics_document().document
        assert metrics["degraded"]["count"] == 1
        assert metrics["degraded"]["reasons"] == {"deadline": 1}
        assert "breaker" in metrics

    def test_strict_clients_opt_out(self, service) -> None:
        status, doc = self.post(service, "answer", {
            "table": "live", "k": 3, "timeout_s": 0.3,
            "allow_degraded": False,
        })
        assert status == 200
        assert "degraded" not in doc

    def test_explicit_mc_is_never_marked_degraded(self, service) -> None:
        status, doc = self.post(service, "answer", {
            "table": "live", "k": 3, "algorithm": "mc",
            "timeout_s": 0.3,
        })
        assert status == 200
        assert "degraded" not in doc

    def test_degraded_answer_matches_direct_mc(self, service) -> None:
        """The degraded path is a replan, not a different engine: the
        same MC spec submitted directly yields the identical answer."""
        status, degraded = self.post(service, "answer", {
            "table": "live", "k": 3, "semantics": "u_topk",
            "timeout_s": 0.3,
        })
        assert status == 200 and degraded["degraded"] is True
        status, direct = self.post(service, "answer", {
            "table": "live", "k": 3, "semantics": "u_topk",
            "algorithm": "mc", "epsilon": degraded["epsilon"],
        })
        assert status == 200
        assert direct["answer"] == degraded["answer"]

    def test_control_field_validation(self, service) -> None:
        assert self.post(service, "answer", {
            "table": "live", "k": 3, "timeout_s": 0,
        })[0] == 400
        assert self.post(service, "answer", {
            "table": "live", "k": 3, "timeout_s": True,
        })[0] == 400
        assert self.post(service, "answer", {
            "table": "live", "k": 3, "allow_degraded": "yes",
        })[0] == 400

    def test_no_degrade_service_has_no_policy(self) -> None:
        catalog = DatasetCatalog([f"live={self.LIVE_SPEC}"])
        service = QueryService(catalog, workers=1, degradation=None)
        try:
            status, doc = self.post(service, "answer", {
                "table": "live", "k": 3, "timeout_s": 0.3,
            })
            assert status == 200
            assert "degraded" not in doc
            assert service.executor.degradation is None
            assert service.executor.breaker is None
        finally:
            service.shutdown()

    def test_exec_error_fault_surfaces_as_service_error(self) -> None:
        catalog = DatasetCatalog([f"live={self.LIVE_SPEC}"])
        faults = FaultInjector("exec_error:1.0", seed=0)
        service = QueryService(catalog, workers=1, faults=faults)
        try:
            status, doc = self.post(service, "answer", {
                "table": "live", "k": 3,
            })
            assert status == 500
            assert "injected error" in doc["error"]
            # The worker survives the injected failure: disable the
            # fault and the very next request succeeds.
            faults._probabilities["exec_error"] = 0.0
            status, doc = self.post(service, "answer", {
                "table": "live", "k": 3,
            })
            assert status == 200
        finally:
            service.shutdown()
