"""Golden EXPLAIN snapshots across the algorithm-choice matrix, plus
cost-model calibration plumbing.

Every case pins the builtin cost model (so thresholds — and the
per-operator time estimates derived from the builtin unit costs — are
machine independent) and compares the ``physical`` section of the
EXPLAIN document against a literal golden value.
"""

from __future__ import annotations

import json

import pytest

from repro.api import QuerySpec, Session
from repro.api.calibration import (
    CostModel,
    load_cost_model,
    run_calibration,
    write_calibration,
)
from repro.api.logical import LogicalPlan
from repro.api.planner import Planner
from repro.bench.workloads import (
    cartel_workload,
    congestion_scorer,
    synthetic_workload,
)
from repro.datasets.soldier import soldier_table
from repro.exceptions import AlgorithmError
from repro.service.batching import batch_key


@pytest.fixture(autouse=True)
def _pin_python_backend(monkeypatch) -> None:
    """Keep the golden snapshots machine independent.

    On a machine with a C compiler the planner picks the native DP
    backend, which adds a ``backend`` param, a plan note, and a
    different time estimate; pinning ``REPRO_BACKEND=python`` keeps
    the literals below true everywhere.  Backend-specific plan shape
    is covered by ``tests/test_kernel_backend.py``.
    """
    monkeypatch.setenv("REPRO_BACKEND", "python")


@pytest.fixture
def session() -> Session:
    """All matrix tables behind one session with the builtin model."""
    return Session(
        {
            "soldiers": soldier_table(),
            "synth": synthetic_workload(tuples=300, me_fraction=0.0),
            "dense_me": synthetic_workload(tuples=2500, me_fraction=0.9),
        },
        planner=Planner(CostModel()),
    )


def physical(session: Session, spec: QuerySpec) -> dict:
    document = session.explain(spec)
    # The document must be JSON-serializable end to end (the service
    # endpoint and the nightly artifacts depend on it).
    json.dumps(document)
    return document["physical"]


class TestGoldenExplain:
    def test_k_combo_on_tiny_input(self, session) -> None:
        spec = QuerySpec(table="soldiers", scorer="score", k=2, p_tau=0.0)
        assert physical(session, spec) == {
            "algorithm": "k_combo",
            "operators": [
                {
                    "op": "ScorePrefixOp",
                    "params": {
                        "k": 2,
                        "p_tau": 0.0,
                        "rows_in": 7,
                        "rows_out": 7,
                    },
                    "cost_units": 7.0,
                    "est_ms": 0.0105,
                },
                {
                    "op": "KComboOp",
                    "params": {
                        "k": 2,
                        "n": 7,
                        "max_lines": 200,
                        "combinations": 21,
                    },
                    "cost_units": 21.0,
                    "est_ms": 0.042,
                },
                {
                    "op": "SemanticsOp",
                    "params": {
                        "semantics": "typical",
                        "algorithm": "k_combo",
                        "requires": "pmf",
                        "c": 3,
                    },
                },
            ],
            "total_cost_units": 28.0,
            "total_est_ms": 0.0525,
            "notes": ["algorithm resolved by cost model: k_combo"],
        }

    def test_state_expansion_on_short_prefix(self, session) -> None:
        spec = QuerySpec(
            table="synth", scorer="score", k=6, p_tau=0.0, depth=12
        )
        document = physical(session, spec)
        assert document["algorithm"] == "state_expansion"
        assert document["operators"][1] == {
            "op": "StateExpansionOp",
            "params": {
                "k": 6,
                "n": 12,
                "max_lines": 200,
                "p_tau": 0.0,
            },
            "cost_units": 49152.0,  # 12 * 2^12
            "est_ms": 19.6608,
        }

    def test_shared_prefix_dp_independent(self, session) -> None:
        spec = QuerySpec(table="synth", scorer="score", k=10, p_tau=0.0)
        document = physical(session, spec)
        assert document["algorithm"] == "dp"
        assert document["operators"][1] == {
            "op": "SharedPrefixDPOp",
            "params": {
                "k": 10,
                "n": 300,
                "max_lines": 200,
                "me_members": 0,
            },
            "cost_units": 3000.0,  # k * n * (m + 1)
            "est_ms": 0.6,
        }

    def test_shared_prefix_dp_me(self) -> None:
        session = Session(
            {"area": cartel_workload(segments=40)},
            planner=Planner(CostModel()),
        )
        spec = QuerySpec(
            table="area", scorer=congestion_scorer(), k=5, p_tau=0.0
        )
        document = physical(session, spec)
        assert document["algorithm"] == "dp"
        dp = document["operators"][1]
        assert dp["op"] == "SharedPrefixDPOp"
        assert dp["params"]["me_members"] > 0
        assert dp["cost_units"] == (
            5 * dp["params"]["n"] * (dp["params"]["me_members"] + 1)
        )

    def test_per_ending_ablation_explicit(self) -> None:
        # The per-ending ablation is bench-only (repro.bench.ablations):
        # a request naming it fails like any unknown algorithm.
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            QuerySpec(
                table="area",
                scorer=congestion_scorer(),
                k=5,
                p_tau=0.0,
                algorithm="dp_per_ending",
            )

    def test_mc_via_exact_cost_escape_hatch(self, session) -> None:
        spec = QuerySpec(table="dense_me", scorer="score", k=10, p_tau=0.0)
        document = physical(session, spec)
        assert document["algorithm"] == "mc"
        op = document["operators"][1]
        assert op["op"] == "MCSampleOp"
        assert op["params"]["samples"] is None
        assert op["params"]["planned_samples"] > 1000
        assert (
            op["cost_units"]
            == op["params"]["planned_samples"] * op["params"]["n"]
        )
        assert document["notes"] == [
            "algorithm resolved by cost model: mc"
        ]

    def test_prefix_semantics_skip_the_pmf_stage(self, session) -> None:
        spec = QuerySpec(
            table="synth",
            scorer="score",
            k=10,
            p_tau=0.0,
            semantics="u_topk",
        )
        document = physical(session, spec)
        assert [op["op"] for op in document["operators"]] == [
            "ScorePrefixOp",
            "SemanticsOp",
        ]

    def test_cache_prediction_flips_to_hits(self, session) -> None:
        spec = QuerySpec(table="synth", scorer="score", k=10, p_tau=0.0)
        assert session.explain(spec)["cache"] == {
            "prefix": "miss",
            "pmf": "miss",
            "answer": "miss",
        }
        session.execute(spec)
        assert session.explain(spec)["cache"] == {
            "prefix": "hit",
            "pmf": "hit",
            "answer": "hit",
        }


class TestCostModelCalibration:
    def test_builtin_model_matches_frozen_literals(self) -> None:
        from repro.api.calibration import (
            DEFAULT_K_COMBO_MAX_COMBINATIONS,
            DEFAULT_MC_COST_BUDGET,
            DEFAULT_STATE_EXPANSION_MAX_DEPTH,
        )

        model = CostModel()
        assert (
            model.k_combo_max_combinations == DEFAULT_K_COMBO_MAX_COMBINATIONS
        )
        assert (
            model.state_expansion_max_depth
            == DEFAULT_STATE_EXPANSION_MAX_DEPTH
        )
        assert model.mc_cost_budget == DEFAULT_MC_COST_BUDGET
        assert model.source == "builtin"

    def test_calibrated_thresholds_change_routing(self) -> None:
        planner = Planner(CostModel(mc_cost_budget=100))
        assert planner.choose_algorithm(500, 10) == "mc"
        assert Planner(CostModel()).choose_algorithm(500, 10) == "dp"

    def test_calibration_round_trip(self, tmp_path) -> None:
        document = run_calibration(repeats=1, target_ms=100.0)
        assert document["schema"] == 2
        assert document["backends"]["python"]["available"] is True
        assert "native" in document["backends"]
        constants = document["constants"]
        assert constants["mc_cost_budget"] >= 1
        assert constants["k_combo_max_combinations"] >= 1
        assert 1 <= constants["state_expansion_max_depth"] < 24
        assert constants["dp_native_unit_ns"] > 0
        assert "parallel_spawn_ms" not in constants
        path = write_calibration(document, tmp_path / "cal.json")
        model = load_cost_model(path)
        assert model.source == str(path)
        assert model.mc_cost_budget == constants["mc_cost_budget"]
        # A session built on the calibrated planner uses it.
        session = Session(planner=Planner(model))
        assert (
            session.explain(
                QuerySpec(
                    table=soldier_table(), scorer="score", k=2, p_tau=0.0
                )
            )["cost_model"]["source"]
            == str(path)
        )

    def test_calibration_times_warm_probes(self, monkeypatch) -> None:
        """A probe's one-time first-call cost stays out of its rate."""
        import time

        from repro.api.plan import exact_cost
        from repro.core import dp

        real = dp.dp_distribution
        calls = []

        def slow_first_call(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(1.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(dp, "dp_distribution", slow_first_call)
        document = run_calibration(repeats=1, target_ms=100.0)
        # The probe's DP: 150 rows, k = 8, independent tuples.
        first_call_unit_ns = 1.0e9 / exact_cost(150, 8, 0)
        assert document["constants"]["dp_unit_ns"] < first_call_unit_ns / 2
        assert len(calls) >= 2  # one untimed call, then the timed ones

    @pytest.mark.parametrize("switch", ["auto", "python", "native"])
    def test_each_dp_probe_runs_the_engine_it_names(
        self, monkeypatch, engine_runs, switch
    ) -> None:
        """``dp_s`` times only the numpy engine and ``dp_native_s`` only
        the kernel, whatever the switch says; ``mc_cost_budget`` is
        priced at the rate of the engine the switch resolves to."""
        from repro.api import calibration
        from repro.api.plan import exact_cost
        from repro.core import kernels

        has_kernel = kernels.native_available()
        if switch == "native" and not has_kernel:
            pytest.skip("no C compiler / native kernel on this machine")
        monkeypatch.setenv(kernels.BACKEND_ENV, switch)
        probes: list[set[str]] = []
        warm = calibration._warm_seconds

        def engines_per_probe(case, repeats):
            engine_runs.clear()
            seconds = warm(case, repeats)
            probes.append(set(engine_runs))
            return seconds

        monkeypatch.setattr(calibration, "_warm_seconds", engines_per_probe)
        document = run_calibration(repeats=1, target_ms=100.0)
        dp_probes = [engines for engines in probes if engines]
        expected = [{"python"}, {"native"}] if has_kernel else [{"python"}]
        assert dp_probes == expected
        resolved = kernels.resolve_backend()
        seconds = document["probes"][
            "dp_native_s" if resolved == "native" else "dp_s"
        ]
        unit_ns = seconds * 1e9 / exact_cost(150, 8, 0)
        assert document["constants"]["mc_cost_budget"] == int(100e6 / unit_ns)

    def test_schema_1_file_loads_with_backend_defaults(
        self, tmp_path
    ) -> None:
        """Pre-backend calibration files keep working untouched."""
        from repro.api.calibration import DEFAULT_DP_NATIVE_UNIT_NS

        old = tmp_path / "old.json"
        old.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "constants": {
                        "mc_cost_budget": 123,
                        "k_combo_max_combinations": 45,
                        "state_expansion_max_depth": 6,
                        "dp_unit_ns": 7.0,
                        "k_combo_unit_ns": 8.0,
                        "state_unit_ns": 9.0,
                        "mc_world_row_ns": 10.0,
                        "prefix_row_ns": 11.0,
                    },
                }
            )
        )
        model = load_cost_model(old)
        assert model.source == str(old)
        assert model.mc_cost_budget == 123
        assert model.dp_native_unit_ns == DEFAULT_DP_NATIVE_UNIT_NS

    def test_file_with_retired_parallel_spawn_ms_loads(
        self, tmp_path
    ) -> None:
        """Schema-2 files written while the per-ending fan-out existed
        carry ``parallel_spawn_ms``; they load, ignoring it."""
        path = tmp_path / "cal.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 2,
                    "constants": {
                        "mc_cost_budget": 123,
                        "k_combo_max_combinations": 45,
                        "state_expansion_max_depth": 6,
                        "dp_unit_ns": 7.0,
                        "dp_native_unit_ns": 2.0,
                        "k_combo_unit_ns": 8.0,
                        "state_unit_ns": 9.0,
                        "mc_world_row_ns": 10.0,
                        "prefix_row_ns": 11.0,
                        "storage_row_ns": 12.0,
                        "parallel_spawn_ms": 150.0,
                    },
                }
            )
        )
        model = load_cost_model(path)
        assert model.source == str(path)
        assert model.mc_cost_budget == 123
        assert model.dp_native_unit_ns == 2.0
        assert model.storage_row_ns == 12.0
        assert "parallel_spawn_ms" not in model.describe()

    def test_unreadable_calibration_falls_back(self, tmp_path) -> None:
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert load_cost_model(bad) is not None
        assert load_cost_model(bad).source == "builtin"
        assert load_cost_model(tmp_path / "absent.json").source == "builtin"


class TestSharedKeyDerivation:
    """The satellite: one key-derivation source for service + session."""

    def test_batch_key_comes_from_the_logical_plan(self) -> None:
        spec = QuerySpec(table="t", scorer="score", k=5, p_tau=0.1)
        assert batch_key(spec) == LogicalPlan.from_spec(spec).batch_key()

    def test_exact_specs_share_keys_across_mc_knobs(self) -> None:
        base = QuerySpec(table="t", scorer="score", k=5)
        assert batch_key(base) == batch_key(base.with_(seed=9))
        assert batch_key(base) == batch_key(base.with_(epsilon=0.5))

    def test_mc_knobs_split_mc_batch_keys_canonically(self) -> None:
        base = QuerySpec(table="t", scorer="score", k=5, algorithm="mc")
        assert batch_key(base) != batch_key(base.with_(seed=9))
        assert batch_key(base) != batch_key(base.with_(epsilon=0.5))
        assert batch_key(base) == batch_key(
            QuerySpec(table="t", scorer="score", k=8, algorithm="mc")
        )  # k is shareable (fused); the knobs are not

    def test_k_and_semantics_do_not_split_batches(self) -> None:
        base = QuerySpec(table="t", scorer="score", k=5)
        assert batch_key(base) == batch_key(base.with_(k=20))
        assert batch_key(base) == batch_key(base.with_(semantics="u_topk"))

    def test_session_pmf_keys_share_the_same_mc_rule(self) -> None:
        logical = LogicalPlan.from_spec(
            QuerySpec(table="t", scorer="score", k=5, seed=3)
        )
        assert logical.pmf_params("dp") == logical.pmf_params("dp")
        assert logical.mc_params("dp") == ()
        assert logical.mc_params("mc") == (None, 0.95, None, 3)

    def test_explain_renders_the_key_fusion_groups_by(self) -> None:
        from repro.standing import MutableUncertainTable

        table = MutableUncertainTable.from_table(soldier_table())
        session = Session({"s": table})
        spec = QuerySpec(table="s", scorer="score", k=2)

        def fusion_key(spec: QuerySpec) -> str:
            return session.explain(spec)["logical"]["fusion_key"]

        before = fusion_key(spec)
        assert before == repr(session._plan(spec).fusion_key())
        # Any k over one table version fuses; another line budget or
        # a new version of the same table never does.
        assert fusion_key(spec.with_(k=3)) == before
        assert fusion_key(spec.with_(max_lines=50)) != before
        table.expire(table.tids[0])
        assert fusion_key(spec) != before
