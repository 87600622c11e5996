"""Unit tests for the Monte-Carlo answer engine.

Covers the batched sampler, the confidence-interval calibration (the
true value falls inside the reported interval at the declared
confidence over many seeds), adaptive sample-size control, determinism
under a fixed seed, and the planner's exact-cost escape hatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import DEFAULT_PLANNER, QuerySpec, Session, exact_cost
from repro.api.calibration import DEFAULT_MC_COST_BUDGET
from repro.core.distribution import prepare_scored_prefix
from repro.exceptions import AlgorithmError
from repro.mc.confidence import (
    MCEstimate,
    empirical_bernstein_half_width,
    hoeffding_half_width,
    hoeffding_sample_size,
    proportion_estimate,
)
from repro.mc.engine import (
    DEFAULT_EPSILON,
    MIN_ADAPTIVE_SAMPLES,
    MCEngine,
)
from repro.mc.sampler import BatchWorldSampler
from repro.uncertain.scoring import ScoredTable
from tests.conftest import make_table, oracle_pmf


def _prefix(table, k=2):
    return prepare_scored_prefix(table, "score", k, p_tau=0.0)


@pytest.fixture
def me_table():
    return make_table(
        [("a", 50, 0.5), ("b", 40, 0.4), ("c", 30, 0.9), ("d", 20, 0.6)],
        rules=[("a", "b")],
    )


class TestBatchWorldSampler:
    def test_shape_and_dtype(self, me_table):
        sampler = BatchWorldSampler.from_table(me_table, seed=1)
        exists = sampler.sample(64)
        assert exists.shape == (64, 4)
        assert exists.dtype == bool

    def test_me_rule_respected(self, me_table):
        sampler = BatchWorldSampler.from_table(me_table, seed=2)
        exists = sampler.sample(2000)
        # Columns 0/1 are a, b (table order): never both.
        assert not (exists[:, 0] & exists[:, 1]).any()

    def test_saturated_group_always_produces_member(self):
        t = make_table(
            [("a", 2, 0.5), ("b", 1, 0.5)], rules=[("a", "b")]
        )
        sampler = BatchWorldSampler.from_table(t, seed=3)
        exists = sampler.sample(500)
        assert (exists.sum(axis=1) == 1).all()

    def test_marginal_frequencies(self, me_table):
        sampler = BatchWorldSampler.from_table(me_table, seed=4)
        freq = sampler.sample(40_000).mean(axis=0)
        for column, item in enumerate(me_table):
            assert freq[column] == pytest.approx(
                item.probability, abs=0.02
            )

    def test_from_prefix_uses_rank_columns(self, me_table):
        prefix = _prefix(me_table)
        sampler = BatchWorldSampler.from_prefix(prefix, seed=5)
        assert sampler.labels == tuple(item.tid for item in prefix)
        freq = sampler.sample(40_000).mean(axis=0)
        for pos, item in enumerate(prefix):
            assert freq[pos] == pytest.approx(item.prob, abs=0.02)

    def test_truncated_group_folds_into_absence(self, me_table):
        # Depth 1 keeps only "a" of the (a, b) group: its marginal is
        # unchanged, b simply never appears.
        prefix = prepare_scored_prefix(
            me_table, "score", 1, p_tau=0.0, depth=1
        )
        sampler = BatchWorldSampler.from_prefix(prefix, seed=6)
        freq = sampler.sample(40_000).mean(axis=0)
        assert freq[0] == pytest.approx(0.5, abs=0.02)

    def test_world_sets_match_matrix(self, me_table):
        sampler = BatchWorldSampler.from_table(me_table, seed=7)
        exists = sampler.sample(32)
        worlds = sampler.world_sets(exists)
        tids = me_table.tids
        for row, world in zip(exists, worlds):
            assert world == frozenset(
                tids[i] for i in range(len(tids)) if row[i]
            )

    def test_invalid_count(self, me_table):
        sampler = BatchWorldSampler.from_table(me_table, seed=8)
        with pytest.raises(AlgorithmError):
            sampler.sample(0)


class TestConfidenceMath:
    def test_hoeffding_matches_closed_form(self):
        assert hoeffding_half_width(2000, 0.95) == pytest.approx(
            np.sqrt(np.log(2 / 0.05) / 4000)
        )

    def test_hoeffding_sample_size_inverts_half_width(self):
        samples = hoeffding_sample_size(0.01, 0.95)
        assert hoeffding_half_width(samples, 0.95) <= 0.01
        assert hoeffding_half_width(samples - 1, 0.95) > 0.01

    def test_bernstein_tightens_on_low_variance(self):
        loose = empirical_bernstein_half_width(4000, 0.25, 0.95)
        tight = empirical_bernstein_half_width(4000, 0.001, 0.95)
        assert tight < loose

    def test_proportion_estimate_picks_tighter_bound(self):
        near_deterministic = proportion_estimate(3999, 4000, 0.95)
        assert near_deterministic.method == "bernstein"
        balanced = proportion_estimate(2000, 4000, 0.95)
        assert balanced.method == "hoeffding"
        assert isinstance(balanced, MCEstimate)
        assert balanced.low < 0.5 < balanced.high

    def test_invalid_inputs(self):
        with pytest.raises(AlgorithmError):
            hoeffding_half_width(0, 0.95)
        with pytest.raises(AlgorithmError):
            hoeffding_half_width(10, 1.0)
        with pytest.raises(AlgorithmError):
            hoeffding_sample_size(0.0, 0.95)


class TestCICoverage:
    def test_coverage_rate_meets_declared_confidence(self, me_table):
        """Over many seeds, the truth falls inside the interval at
        least as often as the declared confidence (the bounds are
        conservative, so coverage should comfortably exceed it)."""
        k = 2
        prefix = _prefix(me_table, k)
        exact = oracle_pmf(me_table, k)
        target_score = max(exact, key=exact.get)
        true_mass = exact[target_score]
        # True hit probability of the top-ranked tuple.
        from repro.semantics.marginals import top_k_probability

        true_hit = top_k_probability(prefix, 0, k)

        runs = 200
        confidence = 0.9
        covered_mass = covered_hit = 0
        for seed in range(runs):
            engine = MCEngine(
                prefix, k, samples=1500, confidence=confidence, seed=seed
            ).run()
            if engine.pmf_line_estimate(target_score).contains(true_mass):
                covered_mass += 1
            estimates = dict(engine.topk_probability_estimates())
            if estimates[prefix[0].tid].contains(true_hit):
                covered_hit += 1
        assert covered_mass / runs >= confidence
        assert covered_hit / runs >= confidence


class TestAdaptiveControl:
    def test_tighter_epsilon_needs_more_samples(self, me_table):
        prefix = _prefix(me_table)
        loose = MCEngine(prefix, 2, epsilon=0.05, seed=1).run()
        tight = MCEngine(prefix, 2, epsilon=0.015, seed=1).run()
        assert tight.samples_drawn > loose.samples_drawn

    def test_low_variance_input_stops_early(self):
        noisy = make_table([(f"t{i}", 10 * i, 0.5) for i in range(4)])
        calm = make_table([(f"t{i}", 10 * i, 0.999) for i in range(4)])
        epsilon = 0.02
        noisy_engine = MCEngine(
            _prefix(noisy), 2, epsilon=epsilon, seed=2
        ).run()
        calm_engine = MCEngine(
            _prefix(calm), 2, epsilon=epsilon, seed=2
        ).run()
        # Near-deterministic existence => empirical Bernstein stops at
        # the adaptive floor; the balanced table needs more worlds.
        assert calm_engine.samples_drawn == MIN_ADAPTIVE_SAMPLES
        assert noisy_engine.samples_drawn > calm_engine.samples_drawn

    def test_epsilon_met_when_stopped_adaptively(self, me_table):
        engine = MCEngine(_prefix(me_table), 2, epsilon=0.03, seed=3).run()
        assert engine.stopped_by_epsilon
        assert engine.worst_half_width() <= 0.03

    def test_hoeffding_budget_caps_the_draw(self, me_table):
        engine = MCEngine(_prefix(me_table), 2, epsilon=0.05, seed=4).run()
        assert engine.samples_drawn <= engine.sample_budget()
        # The budget charges the same delta/2 split as the monitor.
        assert engine.sample_budget() == hoeffding_sample_size(0.05, 0.975)

    def test_max_samples_cap(self, me_table):
        engine = MCEngine(
            _prefix(me_table), 2, epsilon=1e-4, max_samples=3000, seed=5
        ).run()
        assert engine.samples_drawn == 3000

    def test_fixed_samples_disable_adaptation(self, me_table):
        engine = MCEngine(_prefix(me_table), 2, samples=777, seed=6).run()
        assert engine.samples_drawn == 777

    def test_default_epsilon_applies(self, me_table):
        engine = MCEngine(_prefix(me_table), 2, seed=7).run()
        assert engine.worst_half_width() <= DEFAULT_EPSILON


class TestDeterminism:
    def test_same_seed_same_estimates(self, me_table):
        prefix = _prefix(me_table)
        a = MCEngine(prefix, 2, samples=5000, seed=42).run()
        b = MCEngine(prefix, 2, samples=5000, seed=42).run()
        assert a.distribution().to_dict() == b.distribution().to_dict()
        assert a.u_topk() == b.u_topk()
        assert a.samples_drawn == b.samples_drawn
        assert [e for _, e in a.topk_probability_estimates()] == [
            e for _, e in b.topk_probability_estimates()
        ]

    def test_different_seed_differs(self, me_table):
        prefix = _prefix(me_table)
        a = MCEngine(prefix, 2, samples=5000, seed=1).run()
        b = MCEngine(prefix, 2, samples=5000, seed=2).run()
        assert a.distribution().to_dict() != b.distribution().to_dict()


class TestEngineEdgeCases:
    def test_prefix_shorter_than_k(self):
        t = make_table([("a", 2, 0.5), ("b", 1, 0.5)])
        engine = MCEngine(_prefix(t, 3), 3, samples=2000, seed=0).run()
        assert engine.distribution().is_empty()
        assert engine.u_topk() is None
        # Hit probability degenerates to the membership probability.
        estimates = dict(engine.topk_probability_estimates())
        assert estimates["a"].value == pytest.approx(0.5, abs=0.05)

    def test_empty_prefix(self):
        empty = ScoredTable((), (), (), ())
        engine = MCEngine(empty, 1, samples=100, seed=0).run()
        assert engine.distribution().is_empty()
        assert engine.u_topk() is None
        assert engine.u_kranks() == []
        assert engine.global_topk() == []

    def test_expected_ranks_requires_tracking(self, me_table):
        engine = MCEngine(_prefix(me_table), 2, samples=100, seed=0).run()
        with pytest.raises(AlgorithmError):
            engine.expected_ranks()

    def test_invalid_parameters(self, me_table):
        prefix = _prefix(me_table)
        with pytest.raises(AlgorithmError):
            MCEngine(prefix, 0)
        with pytest.raises(AlgorithmError):
            MCEngine(prefix, 2, epsilon=0.0)
        with pytest.raises(AlgorithmError):
            MCEngine(prefix, 2, confidence=1.0)
        with pytest.raises(AlgorithmError):
            MCEngine(prefix, 2, samples=0)

    def test_vector_cap_never_drops_mass(self, me_table, monkeypatch):
        """Overflowing MAX_TRACKED_VECTORS costs representative
        vectors only — the estimated PMF keeps every world's mass."""
        import repro.mc.engine as engine_module

        prefix = _prefix(me_table)
        uncapped = MCEngine(prefix, 2, samples=4000, seed=8).run()
        monkeypatch.setattr(engine_module, "MAX_TRACKED_VECTORS", 1)
        capped = MCEngine(prefix, 2, samples=4000, seed=8).run()
        assert capped.distribution().to_dict() == (
            uncapped.distribution().to_dict()
        )
        # Untracked lines surface without a representative vector, and
        # the overflow is observable.
        assert sum(
            vector is None for vector in capped.distribution().vectors
        ) >= 1
        assert capped.untracked_vector_fraction > 0.0
        assert uncapped.untracked_vector_fraction == 0.0
        assert capped.complete_worlds == uncapped.complete_worlds

    def test_distribution_respects_max_lines(self, me_table):
        engine = MCEngine(_prefix(me_table), 2, samples=5000, seed=0).run()
        full = engine.distribution()
        assert len(engine.distribution(max_lines=2)) <= 2
        assert engine.distribution(max_lines=2).total_mass() == (
            pytest.approx(full.total_mass())
        )


class TestPlannerEscapeHatch:
    def test_cost_model_shape(self):
        assert exact_cost(1000, 5) == 5000
        assert exact_cost(1000, 5, me_members=9) == 50_000

    def test_choose_algorithm_prefers_mc_beyond_budget(self):
        choose_algorithm = DEFAULT_PLANNER.choose_algorithm
        assert choose_algorithm(500, 10) == "dp"
        assert choose_algorithm(200_000, 10, me_members=50_000) == "mc"
        assert (
            exact_cost(200_000, 10, 50_000) > DEFAULT_MC_COST_BUDGET
        )
        # Tiny shapes keep their exact baselines.
        assert choose_algorithm(5, 2, me_members=4) == "k_combo"

    def test_session_auto_selects_mc_and_stays_within_epsilon(self):
        """End to end: a table beyond the exact budget is served by MC
        through algorithm="auto" with the requested ±ε."""
        from repro.datasets.synthetic import (
            MEGroupLayout,
            SyntheticConfig,
            generate_synthetic_table,
        )

        config = SyntheticConfig(
            tuples=4000,
            me_layout=MEGroupLayout(fraction=0.9),
        )
        table = generate_synthetic_table(config, seed=5)
        session = Session({"big": table})
        spec = QuerySpec(
            table="big",
            scorer="score",
            k=10,
            p_tau=0.0,
            algorithm="auto",
            semantics="distribution",
            epsilon=0.05,
            seed=9,
        )
        prefix = session.scored_prefix(spec)
        assert exact_cost(
            len(prefix), spec.k, prefix.me_member_count()
        ) > DEFAULT_MC_COST_BUDGET
        pmf = session.execute(spec)
        assert not pmf.is_empty()
        assert 0.0 < pmf.total_mass() <= 1.0 + 1e-9


class TestSessionIntegration:
    def test_mc_answers_are_cached(self, me_table):
        session = Session({"t": me_table})
        spec = QuerySpec(
            table="t",
            scorer="score",
            k=2,
            p_tau=0.0,
            algorithm="mc",
            samples=2000,
            semantics="u_topk",
        )
        first = session.execute(spec)
        second = session.execute(spec)
        assert first is second

    def test_one_engine_serves_all_semantics(self, me_table):
        """Different semantics over the same prefix and knobs share
        one sample set (engine_from_spec caches the ran engine)."""
        from repro.mc.engine import engine_from_spec

        session = Session({"t": me_table})
        spec = QuerySpec(
            table="t", scorer="score", k=2, p_tau=0.0,
            algorithm="mc", samples=3000,
        )
        prefix = session.scored_prefix(spec)
        first = engine_from_spec(prefix, spec)
        assert engine_from_spec(prefix, spec) is first
        # A tracking engine is a superset: it replaces the plain one
        # for subsequent non-tracking requests.
        tracked = engine_from_spec(prefix, spec, track_expected_ranks=True)
        assert tracked is not first
        assert engine_from_spec(prefix, spec) is tracked
        # Different knobs get a fresh sample set.
        assert engine_from_spec(prefix, spec.with_(seed=5)) is not first

    def test_mc_and_exact_answers_do_not_share_cache(self, me_table):
        session = Session({"t": me_table})
        spec = QuerySpec(
            table="t", scorer="score", k=2, p_tau=0.0, semantics="u_topk",
            algorithm="dp",
        )
        exact = session.execute(spec)
        sampled = session.execute(spec.with_(algorithm="mc", samples=4000))
        assert exact is not sampled
        assert sampled.vector == exact.vector

    def test_spec_validates_mc_knobs(self, me_table):
        base = dict(table=me_table, scorer="score", k=2)
        with pytest.raises(Exception):
            QuerySpec(**base, epsilon=-1.0)
        with pytest.raises(Exception):
            QuerySpec(**base, confidence=0.0)
        with pytest.raises(Exception):
            QuerySpec(**base, samples=0)
        with pytest.raises(Exception):
            QuerySpec(**base, seed=1.5)
        spec = QuerySpec(**base, algorithm="mc", epsilon=0.02, samples=100)
        assert spec.mc_params() == (0.02, 0.95, 100, 0)


class TestWorldSamplerEquivalence:
    """The rewritten WorldSampler is statistically equivalent to the
    old per-world loop (byte-identical draws are a documented
    non-goal)."""

    def test_iterator_draws_match_batched_marginals(self, me_table):
        from repro.uncertain.sampling import WorldSampler

        sampler = WorldSampler(me_table, seed=11)
        counts = {tid: 0 for tid in me_table.tids}
        draws = 20_000
        for world in sampler.sample_worlds(draws):
            for tid in world:
                counts[tid] += 1
        for tid in me_table.tids:
            assert counts[tid] / draws == pytest.approx(
                me_table[tid].probability, abs=0.02
            )

    def test_interleaved_single_draws_stay_deterministic(self, me_table):
        from repro.uncertain.sampling import WorldSampler

        a = WorldSampler(me_table, seed=5)
        b = WorldSampler(me_table, seed=5)
        for _ in range(2500):  # spans multiple refill chunks
            assert a.sample_world() == b.sample_world()

    def test_existence_matrix_fast_path(self, me_table):
        from repro.uncertain.sampling import WorldSampler

        sampler = WorldSampler(me_table, seed=6)
        exists = sampler.sample_existence(1000)
        assert exists.shape == (1000, len(me_table))
        assert not (exists[:, 0] & exists[:, 1]).any()


class TestEngineCacheThreads:
    def test_concurrent_knob_sweeps_over_one_prefix(self):
        """Threads that fill and evict one prefix's engine cache at once
        (as the service's MC batches with different knobs do) leave it
        intact: every call returns a ran engine, none raises."""
        import sys
        import threading

        from repro.bench.workloads import synthetic_workload
        from repro.mc.engine import engine_from_spec

        prefix = _prefix(synthetic_workload(tuples=40, me_fraction=0.3), k=3)
        spec = QuerySpec(
            table="t", scorer="score", k=3, p_tau=0.0,
            algorithm="mc", samples=16,
        )
        errors: list[Exception] = []

        def sweep(offset: int) -> None:
            try:
                for seed in range(offset * 400, (offset + 1) * 400):
                    engine = engine_from_spec(prefix, spec.with_(seed=seed))
                    assert engine.samples_drawn == 16
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=sweep, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
