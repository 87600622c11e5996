"""The native kernel backend: byte-identity, fallback, and plumbing.

The compiled DP kernel (:mod:`repro.core.kernels`) must be *invisible*
in every answer: the grid below sweeps mutual-exclusion density, score
ties, ``p_tau`` truncation and explicit depth cuts, and asserts the
native backend's PMFs — scores, probabilities and vectors — are
``==``-identical (bitwise, not approximately) to the numpy path's.

Each comparison runs both engines under the process's one switch,
pinned for the call with :func:`repro.core.kernels.pinned`, so an
ambient ``REPRO_BACKEND`` pin cannot turn it into a same-vs-same
check.  The rest covers the machinery around the kernel: the switch,
forced-fallback when the extension cannot load, the engine surfacing
in EXPLAIN, and the ``max_lines`` slab cap.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.ablations import dp_distribution_per_ending
from repro.bench.workloads import (
    cartel_workload,
    congestion_scorer,
)
from repro.core import kernels
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import (
    _segment_sums,
    _segment_winners,
    dp_distribution,
    dp_distribution_sliced,
    sliceable_depth,
)
from repro.core.kernels import build, native
from repro.exceptions import KernelBackendError
from tests.conftest import random_table

NATIVE = kernels.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="no C compiler / native kernel on this machine"
)


def assert_identical(a, b) -> None:
    """Bitwise PMF equality: scores, probs, and materialized vectors."""
    assert a.scores == b.scores
    assert a.probs == b.probs
    assert a.vectors == b.vectors


def on(backend: str, call):
    """``call()`` with the DP engine switch pinned to ``backend``."""
    with kernels.pinned(backend):
        return call()


def assert_engines_agree(call) -> None:
    """``call()`` gives bitwise-equal PMFs (one or a list) on the native
    engine and on the numpy engine."""
    native_result, python_result = on("native", call), on("python", call)
    if not isinstance(native_result, list):
        native_result, python_result = [native_result], [python_result]
    assert len(native_result) == len(python_result)
    for a, b in zip(native_result, python_result):
        assert_identical(a, b)


@needs_native
class TestByteIdentity:
    """Native output must be ``==``-identical to numpy everywhere."""

    @pytest.mark.parametrize("seed", [3, 11, 23, 47, 91])
    @pytest.mark.parametrize(
        "allow_me,allow_ties",
        [(False, False), (True, False), (False, True), (True, True)],
    )
    @pytest.mark.parametrize("p_tau", [0.0, 0.05])
    def test_grid(self, seed, allow_me, allow_ties, p_tau) -> None:
        rng = np.random.default_rng(seed)
        table = random_table(
            rng, n=12, allow_ties=allow_ties, allow_me=allow_me
        )
        k = int(rng.integers(2, 6))
        depth = int(rng.integers(k, 13))
        prefix = prepare_scored_prefix(
            table, "score", k, p_tau=p_tau, depth=depth
        )
        for max_lines in (8, 200):
            assert_engines_agree(
                lambda: dp_distribution(prefix, k, max_lines=max_lines)
            )

    def test_dense_me_workload(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=40), congestion_scorer(), 8, p_tau=1e-3
        )
        assert_engines_agree(
            lambda: dp_distribution(prefix, 8, max_lines=200)
        )

    def test_per_ending_ablation(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=15), congestion_scorer(), 5, p_tau=0.0
        )
        assert_engines_agree(
            lambda: dp_distribution_per_ending(prefix, 5, max_lines=200)
        )

    def test_sliced_fused_sweep(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=20), congestion_scorer(), 6, p_tau=0.0
        )
        # Same-depth slices are always sliceable; differing depths
        # would need sliceable_depth() and are covered elsewhere.
        requests = ((3, len(prefix)), (6, len(prefix)))
        assert_engines_agree(
            lambda: dp_distribution_sliced(prefix, requests, max_lines=200)
        )

    def test_max_lines_above_slab_cap_falls_back_silently(self) -> None:
        """Huge line budgets run the numpy path even under native."""
        cap = kernels.NATIVE_MAX_LINES
        assert on("native", lambda: kernels.dp_backend(cap)) == "native"
        assert on("native", lambda: kernels.dp_backend(cap + 1)) == "python"
        prefix = prepare_scored_prefix(
            cartel_workload(segments=10), congestion_scorer(), 4, p_tau=0.0
        )
        big = kernels.NATIVE_MAX_LINES * 4
        assert_engines_agree(
            lambda: dp_distribution(prefix, 4, max_lines=big)
        )


@needs_native
class TestExecutorGrowth:
    """The native executor started from one-entry buffers grows each
    one on demand, resumes at the step that found it short, and still
    matches the numpy engine line for line."""

    @pytest.fixture(autouse=True)
    def _smallest_buffers(self, monkeypatch) -> None:
        for name in (
            "_INITIAL_TAGS",
            "_INITIAL_CHUNKS",
            "_INITIAL_WS",
            "_INITIAL_LINES",
        ):
            monkeypatch.setattr(native, name, 1)
        self.grown: list[tuple[int, int]] = []
        grow = native._grow

        def spy(ctx, held, code, need, width) -> None:
            self.grown.append((code, need))
            grow(ctx, held, code, need, width)

        monkeypatch.setattr(native, "_grow", spy)

    def outgrown(self) -> set[str]:
        names = {1: "tags", 2: "chunks", 3: "workspace", 4: "output"}
        return {names[code] for code, need in self.grown if need > 1}

    def prefix(self, k: int):
        return prepare_scored_prefix(
            cartel_workload(segments=20), congestion_scorer(), k, p_tau=0.0
        )

    def test_me_sweep(self) -> None:
        prefix = self.prefix(6)
        assert_engines_agree(lambda: dp_distribution(prefix, 6))
        assert self.outgrown() == {"tags", "chunks", "workspace", "output"}

    def test_sliced_batch(self) -> None:
        prefix = self.prefix(6)
        n = len(prefix)
        depth = next(d for d in range(n - 1, 0, -1) if sliceable_depth(prefix, d))
        requests = [(3, depth), (6, depth), (3, n), (6, n)]
        assert_engines_agree(lambda: dp_distribution_sliced(prefix, requests))
        assert self.outgrown() == {"tags", "chunks", "workspace", "output"}

    def test_per_ending_ablation(self) -> None:
        # Bottom-up programs with blocked exits and rule-tuple units.
        prefix = self.prefix(5)
        assert_engines_agree(lambda: dp_distribution_per_ending(prefix, 5))
        assert {"tags", "chunks", "output"} <= self.outgrown()


def lexsort_winners(probs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The reference: a stable sort by (segment, prob) puts each
    segment's heaviest line, the last one on ties, at the segment's
    end."""
    counts = np.diff(np.append(starts, len(probs)))
    segment_ids = np.repeat(np.arange(len(starts)), counts)
    order = np.lexsort((probs, segment_ids))
    return order[np.append(starts[1:], len(probs)) - 1]


class TestSegmentWinners:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 1e-310, 2.5e-308, 0.25, 1.0]),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=40,
        ),
        st.data(),
    )
    def test_matches_the_lexsort(self, probs, data) -> None:
        probs = np.array(probs)
        cuts = data.draw(
            st.sets(st.integers(1, len(probs) - 1), max_size=len(probs) - 1)
            if len(probs) > 1
            else st.just(set())
        )
        starts = np.array([0, *sorted(cuts)], dtype=np.int64)
        got = _segment_winners(probs, starts)
        assert got.tolist() == lexsort_winners(probs, starts).tolist()


class TestSegmentSums:
    def test_matches_sequential_reference(self) -> None:
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.0, 1.0, size=257)
        segments = np.sort(rng.integers(0, 40, size=257))
        expected = np.zeros(int(segments[-1]) + 1)
        for w, s in zip(weights, segments):
            expected[s] += w
        got = _segment_sums(weights, segments)
        assert got.tolist() == expected.tolist()


class TestBackendResolution:
    @needs_native
    def test_env_forces_native(self, monkeypatch) -> None:
        monkeypatch.setenv(kernels.BACKEND_ENV, "native")
        assert kernels.resolve_backend() == "native"
        assert kernels.dp_backend(200) == "native"

    def test_unknown_backend_raises(self, monkeypatch) -> None:
        with pytest.raises(KernelBackendError):
            kernels.resolve_backend("fortran")
        monkeypatch.setenv(kernels.BACKEND_ENV, "fortran")
        with pytest.raises(KernelBackendError):
            kernels.resolve_backend(None)

    def test_auto_resolves_to_a_concrete_backend(self) -> None:
        assert kernels.resolve_backend(None) in ("python", "native")
        assert kernels.resolve_backend("python") == "python"

    def test_pin_is_scoped(self, monkeypatch) -> None:
        monkeypatch.setenv(kernels.BACKEND_ENV, "auto")
        with kernels.pinned("python"):
            assert kernels.dp_backend(200) == "python"
        assert os.environ[kernels.BACKEND_ENV] == "auto"
        monkeypatch.delenv(kernels.BACKEND_ENV)
        with pytest.raises(RuntimeError):
            with kernels.pinned("python"):
                raise RuntimeError("the block failed")
        assert kernels.BACKEND_ENV not in os.environ

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_pin_runs_the_named_engine(
        self, backend, monkeypatch, engine_runs
    ) -> None:
        """The comparisons above are not same-vs-same: a pin picks the
        engine that runs, whatever the ambient switch says."""
        if backend == "native" and not NATIVE:
            pytest.skip("no C compiler / native kernel on this machine")
        other = "native" if backend == "python" else "python"
        monkeypatch.setenv(kernels.BACKEND_ENV, other)
        prefix = prepare_scored_prefix(
            cartel_workload(segments=10), congestion_scorer(), 4, p_tau=0.0
        )
        on(backend, lambda: dp_distribution(prefix, 4))
        assert engine_runs == [backend]


def test_lowering_leaves_the_engine_to_explain(monkeypatch) -> None:
    """A read's plan carries no engine: only EXPLAIN looks it up."""
    from repro.api import QuerySpec
    from repro.api.calibration import CostModel
    from repro.api.logical import LogicalPlan
    from repro.api.planner import Planner

    def looked_up(max_lines: int) -> str:
        raise AssertionError("lowering looked the DP engine up")

    monkeypatch.setattr(kernels, "dp_backend", looked_up)
    prefix = prepare_scored_prefix(
        cartel_workload(segments=10), congestion_scorer(), 4, p_tau=0.0
    )
    spec = QuerySpec(
        table="area", scorer=congestion_scorer(), k=4, p_tau=0.0,
        semantics="typical",
    )
    physical = Planner(CostModel()).lower(
        LogicalPlan.from_spec(spec), prefix, table_rows=len(prefix)
    )
    assert physical.algorithm == "dp"


class TestForcedFallback:
    """Behavior when the compiled kernel is absent (simulated)."""

    @pytest.fixture(autouse=True)
    def _no_kernel(self, monkeypatch):
        monkeypatch.setattr(build, "_LIB", None)
        monkeypatch.setattr(build, "_ERROR", "simulated: kernel absent")
        yield

    def test_auto_falls_back_to_python(self, monkeypatch) -> None:
        monkeypatch.setenv(kernels.BACKEND_ENV, "auto")
        assert not kernels.native_available()
        assert kernels.resolve_backend(None) == "python"
        assert kernels.dp_backend(200) == "python"

    def test_forced_native_raises(self) -> None:
        with pytest.raises(KernelBackendError, match="simulated"):
            kernels.resolve_backend("native")

    def test_dp_forced_native_raises(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=5), congestion_scorer(), 3, p_tau=0.0
        )
        with pytest.raises(KernelBackendError):
            on("native", lambda: dp_distribution(prefix, 3, max_lines=200))

    def test_backends_report_carries_the_error(self) -> None:
        report = kernels.backends_report()
        assert report["python"]["available"] is True
        assert report["native"]["available"] is False
        assert "simulated" in report["native"]["error"]


@needs_native
class TestPlannerDecision:
    def test_explain_shows_native_backend(self, monkeypatch) -> None:
        from repro.api import QuerySpec, Session
        from repro.api.calibration import CostModel
        from repro.api.planner import Planner

        monkeypatch.setenv(kernels.BACKEND_ENV, "auto")
        session = Session(
            {"area": cartel_workload(segments=40)},
            planner=Planner(CostModel()),
        )
        spec = QuerySpec(
            table="area", scorer=congestion_scorer(), k=5, p_tau=0.0
        )
        physical = session.explain(spec)["physical"]
        dp = physical["operators"][1]
        assert dp["params"]["backend"] == "native"
        assert "dp backend: native (compiled kernel)" in physical["notes"]
        # The native rate prices the estimate below the python rate.
        python_model = CostModel()
        assert dp["est_ms"] < python_model.est_ms(
            dp["cost_units"], python_model.dp_unit_ns
        )

    def test_env_pin_reverts_to_python_plan(self, monkeypatch) -> None:
        from repro.api import QuerySpec, Session
        from repro.api.calibration import CostModel
        from repro.api.planner import Planner

        monkeypatch.setenv(kernels.BACKEND_ENV, "python")
        session = Session(
            {"area": cartel_workload(segments=40)},
            planner=Planner(CostModel()),
        )
        spec = QuerySpec(
            table="area", scorer=congestion_scorer(), k=5, p_tau=0.0
        )
        dp = session.explain(spec)["physical"]["operators"][1]
        assert "backend" not in dp["params"]
