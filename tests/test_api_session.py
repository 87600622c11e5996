"""Tests for the Session/QuerySpec API and the semantics registry."""

from __future__ import annotations

import pytest

import repro.api.plan as plan_module
from repro.api import (
    DEFAULT_PLANNER,
    QuerySpec,
    Session,
    available_semantics,
    get_semantics,
    register_semantics,
    unregister_semantics,
)
from repro.core.distribution import (
    c_typical_top_k,
    prepare_scored_prefix,
    top_k_score_distribution,
)
from repro.core.pmf import ScorePMF
from repro.datasets.soldier import soldier_table
from repro.exceptions import (
    AlgorithmError,
    InvalidProbabilityError,
    QueryPlanError,
)
from repro.semantics.expected_ranks import expected_rank_topk
from repro.semantics.global_topk import global_topk
from repro.semantics.pt_k import pt_k
from repro.semantics.u_kranks import u_kranks
from repro.semantics.u_topk import u_topk
from tests.conftest import make_table


def make_spec(**overrides) -> QuerySpec:
    params = dict(
        table="soldiers", scorer="score", k=2, p_tau=0.0, algorithm="dp"
    )
    params.update(overrides)
    return QuerySpec(**params)


@pytest.fixture
def session(soldiers) -> Session:
    return Session({"soldiers": soldiers})


class TestQuerySpecValidation:
    def test_valid_spec(self):
        spec = make_spec()
        assert spec.k == 2
        assert spec.semantics == "typical"

    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_bad_k(self, k):
        with pytest.raises(AlgorithmError):
            make_spec(k=k)

    @pytest.mark.parametrize("c", [0, -3, False])
    def test_bad_c(self, c):
        with pytest.raises(AlgorithmError):
            make_spec(c=c)

    @pytest.mark.parametrize("p_tau", [-0.1, 1.0, 1.5])
    def test_bad_p_tau(self, p_tau):
        with pytest.raises(InvalidProbabilityError):
            make_spec(p_tau=p_tau)

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5])
    def test_bad_threshold(self, threshold):
        with pytest.raises(InvalidProbabilityError):
            make_spec(threshold=threshold)

    def test_unknown_algorithm(self):
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            make_spec(algorithm="quantum")

    def test_bad_table(self):
        with pytest.raises(AlgorithmError):
            make_spec(table="")
        with pytest.raises(AlgorithmError):
            make_spec(table=42)

    def test_bad_scorer(self):
        with pytest.raises(AlgorithmError):
            make_spec(scorer=42)

    def test_bad_depth(self):
        with pytest.raises(AlgorithmError):
            make_spec(depth=-1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed(self, seed):
        with pytest.raises(AlgorithmError, match="seed"):
            make_spec(seed=seed)

    def test_bad_max_lines(self):
        with pytest.raises(AlgorithmError):
            make_spec(max_lines=0)

    def test_bad_semantics_name(self):
        with pytest.raises(AlgorithmError):
            make_spec(semantics="")

    def test_frozen(self):
        spec = make_spec()
        with pytest.raises(Exception):
            spec.k = 5  # type: ignore[misc]

    def test_with_copies_and_revalidates(self):
        spec = make_spec()
        assert spec.with_(c=5).c == 5
        assert spec.with_(c=5).k == spec.k
        assert spec.with_() == spec
        with pytest.raises(AlgorithmError):
            spec.with_(k=0)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_semantics()
        for expected in (
            "typical", "u_topk", "pt_k", "u_kranks", "global_topk",
            "expected_ranks", "distribution",
        ):
            assert expected in names

    def test_unknown_semantics(self):
        with pytest.raises(AlgorithmError, match="unknown semantics"):
            get_semantics("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AlgorithmError, match="already registered"):
            register_semantics("typical")(lambda prefix, spec: None)

    def test_custom_semantics_roundtrip(self, session):
        @register_semantics("test_expected_score")
        def _expected_score(prefix, spec):
            return sum(it.score * it.prob for it in prefix)

        try:
            value = session.execute(
                make_spec(semantics="test_expected_score")
            )
            assert value > 0.0
        finally:
            unregister_semantics("test_expected_score")
        with pytest.raises(AlgorithmError):
            get_semantics("test_expected_score")

    def test_handler_runs_standalone(self, soldiers):
        prefix = prepare_scored_prefix(soldiers, "score", 2, p_tau=0.0)
        handler = get_semantics("typical")
        result = handler.run(prefix, make_spec())
        assert [a.score for a in result.answers] == [118.0, 183.0, 235.0]


class TestDispatchMatchesFreeFunctions:
    """Every built-in semantics agrees with its legacy free function."""

    def test_typical(self, session, soldiers):
        via_session = session.execute(make_spec(c=3))
        direct = c_typical_top_k(soldiers, "score", 2, 3, p_tau=0.0)
        assert via_session == direct

    def test_distribution(self, session, soldiers):
        pmf = session.execute(make_spec(semantics="distribution"))
        assert isinstance(pmf, ScorePMF)
        direct = top_k_score_distribution(soldiers, "score", 2, p_tau=0.0)
        assert pmf.scores == direct.scores
        assert pmf.probs == direct.probs

    def test_u_topk(self, session, soldiers):
        assert session.execute(
            make_spec(semantics="u_topk")
        ) == u_topk(soldiers, "score", 2, p_tau=0.0)

    def test_pt_k(self, session, soldiers):
        assert session.execute(
            make_spec(semantics="pt_k", threshold=0.3)
        ) == pt_k(soldiers, "score", 2, 0.3, p_tau=0.0)

    def test_u_kranks(self, session, soldiers):
        assert session.execute(
            make_spec(semantics="u_kranks")
        ) == u_kranks(soldiers, "score", 2, p_tau=0.0)

    def test_global_topk(self, session, soldiers):
        assert session.execute(
            make_spec(semantics="global_topk")
        ) == global_topk(soldiers, "score", 2, p_tau=0.0)

    def test_expected_ranks(self, session, soldiers):
        assert session.execute(
            make_spec(semantics="expected_ranks")
        ) == expected_rank_topk(soldiers, "score", 2, p_tau=0.0)


class TestSessionCaching:
    def test_changed_c_does_not_rerun_dp(self, session, monkeypatch):
        calls = []
        real_dp = plan_module.dp_distribution

        def counting_dp(*args, **kwargs):
            calls.append(1)
            return real_dp(*args, **kwargs)

        monkeypatch.setattr(plan_module, "dp_distribution", counting_dp)
        spec = make_spec(c=3)
        first = session.execute(spec)
        assert len(calls) == 1
        second = session.execute(spec.with_(c=5))
        assert len(calls) == 1  # PMF cache hit: no dp re-run
        assert len(second.answers) >= len(first.answers)
        assert session.cache_info()["pmf"]["hits"] >= 1

    def test_changed_semantics_reuses_prefix(self, session):
        spec = make_spec()
        session.execute(spec)
        before = session.cache_info()["prefix"]["misses"]
        session.execute(spec.with_(semantics="u_kranks"))
        session.execute(spec.with_(semantics="global_topk"))
        info = session.cache_info()["prefix"]
        assert info["misses"] == before
        assert info["hits"] >= 2

    def test_repeated_execute_hits_answer_cache(self, session):
        spec = make_spec()
        first = session.execute(spec)
        second = session.execute(spec)
        assert first is second
        assert session.cache_info()["answer"]["hits"] == 1

    def test_distribution_equivalent_to_free_function(self, session, soldiers):
        spec = make_spec(max_lines=50)
        pmf = session.distribution(spec)
        direct = top_k_score_distribution(
            soldiers, "score", 2, p_tau=0.0, max_lines=50
        )
        assert pmf.scores == direct.scores

    def test_register_invalidates_by_object(self, session, monkeypatch):
        calls = []
        real_dp = plan_module.dp_distribution

        def counting_dp(*args, **kwargs):
            calls.append(1)
            return real_dp(*args, **kwargs)

        monkeypatch.setattr(plan_module, "dp_distribution", counting_dp)
        spec = make_spec()
        session.distribution(spec)
        assert len(calls) == 1
        # Replace the table under the same name: next execution must
        # resolve the new object and recompute.
        replacement = make_table(
            [("a", 10.0, 0.5), ("b", 5.0, 0.5), ("c", 1.0, 0.5)]
        )
        session.register("soldiers", replacement)
        pmf = session.distribution(spec)
        assert len(calls) == 2
        assert max(pmf.scores) == 15.0

    def test_no_answer_collision_across_value_equal_pmfs(self):
        # ScorePMF compares by (scores, probs) only; two tables with
        # coincident distributions but different tuple ids must not
        # share a cached answer.
        table_a = make_table([("a1", 2.0, 0.5), ("a2", 1.0, 0.5)])
        table_b = make_table([("b1", 2.0, 0.5), ("b2", 1.0, 0.5)])
        session = Session({"a": table_a, "b": table_b})
        result_a = session.execute(make_spec(table="a", k=1, c=1))
        result_b = session.execute(make_spec(table="b", k=1, c=1))
        assert result_a is not result_b
        assert result_a.answers[0].vector[0].startswith("a")
        assert result_b.answers[0].vector[0].startswith("b")

    def test_clear_cache(self, session):
        spec = make_spec()
        session.execute(spec)
        session.clear_cache()
        info = session.cache_info()
        assert info["prefix"]["size"] == 0
        assert info["pmf"]["size"] == 0
        assert info["answer"]["size"] == 0

    def test_lru_eviction_bounded(self, soldiers):
        session = Session({"soldiers": soldiers}, cache_size=2)
        for c in range(1, 6):
            session.execute(make_spec(k=2, depth=c))
        assert session.cache_info()["prefix"]["size"] <= 2

    def test_typical_convenience(self, session):
        spec = make_spec(semantics="u_topk")
        result = session.typical(spec, c=2)
        assert len(result.answers) == 2


class TestSessionResolution:
    def test_unknown_table(self, session):
        with pytest.raises(QueryPlanError, match="unknown table"):
            session.execute(make_spec(table="missing"))

    def test_inline_table_object(self, soldiers):
        session = Session()
        spec = make_spec(table=soldiers)
        assert session.execute(spec).answers[0].score == 118.0

    def test_mapping_constructor_and_names(self, soldiers):
        session = Session({"a": soldiers, "b": soldiers})
        assert session.tables() == ("a", "b")
        assert "a" in session.catalog


class TestAutoAlgorithm:
    def test_choose_algorithm_shapes(self):
        choose_algorithm = DEFAULT_PLANNER.choose_algorithm
        assert choose_algorithm(5, 2) == "k_combo"
        assert choose_algorithm(12, 6) in ("state_expansion", "k_combo")
        assert choose_algorithm(500, 10) == "dp"
        assert choose_algorithm(1, 5) == "dp"  # n < k: empty PMF

    def test_auto_matches_dp_results(self, soldiers):
        auto = top_k_score_distribution(
            soldiers, "score", 2, p_tau=0.0, algorithm="auto"
        )
        dp = top_k_score_distribution(
            soldiers, "score", 2, p_tau=0.0, algorithm="dp"
        )
        assert auto.scores == dp.scores
        for a, b in zip(auto.probs, dp.probs):
            assert a == pytest.approx(b)


class TestPTauValidation:
    """Satellite: p_tau outside [0, 1) must be rejected, not treated
    as a silent full scan."""

    @pytest.mark.parametrize("p_tau", [1.0, 2.0, -0.5])
    def test_prepare_scored_prefix_rejects(self, soldiers, p_tau):
        with pytest.raises(InvalidProbabilityError):
            prepare_scored_prefix(soldiers, "score", 2, p_tau=p_tau)

    def test_zero_still_means_full_scan(self, soldiers):
        prefix = prepare_scored_prefix(soldiers, "score", 2, p_tau=0.0)
        assert len(prefix) == len(soldiers)


class TestShortTableConsistency:
    """Satellite: the empty-PMF/min(c, len) guard is shared."""

    def test_session_typical_on_short_table(self):
        # Only 2 tuples can co-exist but k=3: empty distribution.
        table = make_table(
            [("a", 3.0, 0.5), ("b", 2.0, 0.5)], rules=()
        )
        session = Session({"t": table})
        result = session.execute(
            QuerySpec(table="t", scorer="score", k=3, p_tau=0.0)
        )
        assert result.answers == ()
        assert result.expected_distance == 0.0

    def test_c_clamped_to_support(self, session):
        result = session.execute(make_spec(c=99))
        pmf = session.distribution(make_spec())
        assert len(result.answers) == len(pmf)


class TestConsumersRouteThroughSession:
    def test_execute_query_accepts_session(self, soldiers):
        from repro.query.engine import execute_query

        session = Session({"soldiers": soldiers})
        result = execute_query(
            "SELECT soldier FROM soldiers ORDER BY score DESC "
            "LIMIT 2 WITH TYPICAL 3",
            session,
            p_tau=0.0,
        )
        assert [row.score for row in result.answers] == [118.0, 183.0, 235.0]

    def test_sliding_window_reuses_pmf_across_c(self, monkeypatch):
        # The window's session pmf cache serves every c from one dp
        # run.
        from repro.stream.window import SlidingWindowTopK

        calls = []
        real_dp = plan_module.dp_distribution

        def counting_dp(*args, **kwargs):
            calls.append(1)
            return real_dp(*args, **kwargs)

        monkeypatch.setattr(plan_module, "dp_distribution", counting_dp)
        win = SlidingWindowTopK(window=4, k=2, p_tau=0.0, incremental=False)
        for i in range(4):
            win.append({"score": float(i)}, probability=0.9)
        win.typical(1)
        win.typical(2)
        win.typical(3)
        assert len(calls) == 1  # one dp run serves every c

    def test_cli_answer_command(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io.csv_io import write_table_csv

        path = tmp_path / "soldiers.csv"
        write_table_csv(soldier_table(), path)
        code = main(
            ["answer", str(path), "--score", "score", "-k", "2",
             "--semantics", "global_topk", "--p-tau", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "global_topk" in out
