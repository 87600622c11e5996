"""The Session's one request pipeline.

Each request is planned once — normalized, its table resolved, its
stage-1 prefix fetched and the plan lowered — and every stage runs
from that plan.  Stage 1 has one implementation: the prefix cache,
then a truncation of the session's scored view of the whole table,
which holds one sort per ``(table, scorer)``.
"""

from __future__ import annotations

import pytest

import repro.api.plan as plan_module
from repro.api import QuerySpec, Session
from repro.api.logical import LogicalPlan
from repro.api.planner import Planner
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_table
from repro.standing.changelog import MutableUncertainTable
from repro.uncertain.scoring import ScoredTable, attribute_scorer


def counted(monkeypatch, owner, name) -> list[int]:
    """Count calls of ``owner.name`` (a function or a classmethod)."""
    calls: list[int] = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def table():
    return generate_synthetic_table(SyntheticConfig(tuples=300), seed=4)


class TestOnePlanPerRequest:
    @pytest.mark.parametrize("batched", [False, True])
    def test_warm_pmf_request_plans_once(
        self, monkeypatch, table, batched
    ) -> None:
        session = Session({"t": table})
        spec = QuerySpec(table="t", scorer="score", k=4, p_tau=1e-3)
        run = (
            (lambda: session.execute_many([spec])[0])
            if batched
            else (lambda: session.execute(spec))
        )
        first = run()
        normalized = counted(monkeypatch, LogicalPlan, "from_spec")
        resolved = counted(monkeypatch, Session, "resolve")
        lowered = counted(monkeypatch, Planner, "lower")
        assert run() is first
        assert (len(normalized), len(resolved), len(lowered)) == (1, 1, 1)

    def test_cold_pmf_request_plans_once(self, monkeypatch, table) -> None:
        session = Session({"t": table})
        lowered = counted(monkeypatch, Planner, "lower")
        session.execute(QuerySpec(table="t", scorer="score", k=4))
        assert len(lowered) == 1


class TestOneStageOne:
    def test_rank_read_after_distribution_read_does_not_rescore(
        self, monkeypatch, table
    ) -> None:
        session = Session({"t": table})
        scorings = counted(monkeypatch, ScoredTable, "from_table")
        stage1 = counted(monkeypatch, plan_module, "prepare_scored_prefix")
        base = QuerySpec(table="t", scorer="score", k=5, p_tau=1e-3)
        pmf = session.distribution(base)
        ranked = [
            session.execute(base.with_(semantics="u_kranks", k=3)),
            session.execute(
                base.with_(semantics="global_topk", p_tau=2e-3)
            ),
            session.execute_many(
                [base.with_(semantics="expected_ranks", p_tau=5e-3)]
            )[0],
        ]
        assert len(scorings) == 1
        assert len(stage1) == 1  # the traced stage-1 seam, once
        # Same answers as a cold session computing each read alone.
        cold = Session({"t": table})
        assert pmf == cold.distribution(base)
        assert ranked[0] == Session({"t": table}).execute(
            base.with_(semantics="u_kranks", k=3)
        )
        assert ranked[1] == Session({"t": table}).execute(
            base.with_(semantics="global_topk", p_tau=2e-3)
        )

    def test_scored_view_holds_one_entry_per_table_and_scorer(
        self,
    ) -> None:
        table = MutableUncertainTable.from_table(
            generate_synthetic_table(SyntheticConfig(tuples=120), seed=2)
        )
        session = Session({"live": table})
        spec = QuerySpec(table="live", scorer="score", k=3, p_tau=1e-3)
        for step in range(20):
            session.execute_many(
                [spec, spec.with_(semantics="u_topk", k=2)]
            )
            table.update_score(
                table.tids[step], {"score": float(1000 + step)}
            )
            assert session.cache_info()["scored"]["size"] == 1
        answer = session.execute(spec)
        assert answer == Session({"live": table}).execute(spec)
        info = session.cache_info()["scored"]
        assert info["size"] == 1
        assert info["evictions"] == 0  # replaced, not invalidated

    def test_each_table_version_is_scored_once(self, monkeypatch) -> None:
        table = MutableUncertainTable.from_table(
            generate_synthetic_table(SyntheticConfig(tuples=40), seed=1)
        )
        session = Session({"live": table})
        spec = QuerySpec(table="live", scorer="score", k=2, p_tau=1e-3)
        scorings = counted(monkeypatch, ScoredTable, "from_table")
        session.execute(spec)
        session.execute(spec.with_(k=3))  # slices the same sort
        assert len(scorings) == 1
        tid = table.tids[0]
        table.update_probability(tid, table[tid].probability / 2)
        session.execute(spec)  # new version: sorted again, replacing
        session.execute(spec.with_(k=3))
        assert len(scorings) == 2
        assert session.cache_info()["scored"]["size"] == 1

    def test_whole_prefix_is_the_table_itself(self, table) -> None:
        scored = ScoredTable.from_table(table, attribute_scorer("score"))
        assert scored.prefix(len(scored)) is scored
        assert scored.prefix(len(scored) + 5) is scored
        assert scored.prefix(3).items == scored.items[:3]

    def test_untruncated_requests_share_the_scored_view(self, table) -> None:
        session = Session({"t": table})
        spec = QuerySpec(table="t", scorer="score", k=2, p_tau=0.0)
        whole = session.scored_prefix(spec)
        assert session.scored_prefix(spec.with_(k=4)) is whole
        assert len(whole) == len(table)
