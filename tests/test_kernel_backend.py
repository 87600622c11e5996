"""The native kernel backend: byte-identity, fallback, and plumbing.

The compiled DP kernel (:mod:`repro.core.kernels`) must be *invisible*
in every answer: the grid below sweeps mutual-exclusion density, score
ties, ``p_tau`` truncation and explicit depth cuts, and asserts the
native backend's PMFs — scores, probabilities and vectors — are
``==``-identical (bitwise, not approximately) to the numpy path's.

The rest covers the machinery around the kernel: the
``REPRO_BACKEND`` override, forced-fallback when the extension cannot
load, the planner's backend decision surfacing in EXPLAIN, and the
``max_lines`` slab cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.ablations import dp_distribution_per_ending
from repro.bench.workloads import (
    cartel_workload,
    congestion_scorer,
)
from repro.core import kernels
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import (
    _segment_sums,
    dp_distribution,
    dp_distribution_sliced,
)
from repro.core.kernels import build
from repro.exceptions import KernelBackendError
from tests.conftest import random_table

NATIVE = kernels.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="no C compiler / native kernel on this machine"
)


@pytest.fixture(autouse=True)
def _unpinned_backend(monkeypatch) -> None:
    """Drop any ambient ``REPRO_BACKEND`` pin.

    CI legs run the whole suite with the variable exported; these
    tests compare explicit backends, which the env would silently
    override into vacuous same-vs-same comparisons.
    """
    monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)


def assert_identical(a, b) -> None:
    """Bitwise PMF equality: scores, probs, and materialized vectors."""
    assert a.scores == b.scores
    assert a.probs == b.probs
    assert a.vectors == b.vectors


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
            assert_identical(
                dp_distribution(
                    prefix, k, max_lines=max_lines, backend="native"
                ),
                dp_distribution(
                    prefix, k, max_lines=max_lines, backend="python"
                ),
            )

    def test_dense_me_workload(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=40), congestion_scorer(), 8, p_tau=1e-3
        )
        assert_identical(
            dp_distribution(prefix, 8, max_lines=200, backend="native"),
            dp_distribution(prefix, 8, max_lines=200, backend="python"),
        )

    def test_per_ending_ablation(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=15), congestion_scorer(), 5, p_tau=0.0
        )
        assert_identical(
            dp_distribution_per_ending(
                prefix, 5, max_lines=200, backend="native"
            ),
            dp_distribution_per_ending(
                prefix, 5, max_lines=200, backend="python"
            ),
        )

    def test_sliced_fused_sweep(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=20), congestion_scorer(), 6, p_tau=0.0
        )
        # Same-depth slices are always sliceable; differing depths
        # would need sliceable_depth() and are covered elsewhere.
        requests = ((3, len(prefix)), (6, len(prefix)))
        native = dp_distribution_sliced(
            prefix, requests, max_lines=200, backend="native"
        )
        python = dp_distribution_sliced(
            prefix, requests, max_lines=200, backend="python"
        )
        for a, b in zip(native, python):
            assert_identical(a, b)

    def test_max_lines_above_slab_cap_falls_back_silently(self) -> None:
        """Huge line budgets run the numpy path even under native."""
        assert kernels.native_engine(kernels.NATIVE_MAX_LINES + 1) is None
        prefix = prepare_scored_prefix(
            cartel_workload(segments=10), congestion_scorer(), 4, p_tau=0.0
        )
        big = kernels.NATIVE_MAX_LINES * 4
        assert_identical(
            dp_distribution(prefix, 4, max_lines=big, backend="native"),
            dp_distribution(prefix, 4, max_lines=big, backend="python"),
        )


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
    def test_env_overrides_explicit_backend(self, monkeypatch) -> None:
        monkeypatch.setenv(kernels.BACKEND_ENV, "python")
        assert kernels.resolve_backend("native") == "python"
        assert kernels.resolve_backend("auto") == "python"

    @needs_native
    def test_env_forces_native(self, monkeypatch) -> None:
        monkeypatch.setenv(kernels.BACKEND_ENV, "native")
        assert kernels.resolve_backend("python") == "native"

    def test_unknown_backend_raises(self, monkeypatch) -> None:
        with pytest.raises(KernelBackendError):
            kernels.resolve_backend("fortran")
        monkeypatch.setenv(kernels.BACKEND_ENV, "fortran")
        with pytest.raises(KernelBackendError):
            kernels.resolve_backend(None)

    def test_auto_resolves_to_a_concrete_backend(self) -> None:
        assert kernels.resolve_backend(None) in ("python", "native")
        assert kernels.resolve_backend("python") == "python"


class TestForcedFallback:
    """Behavior when the compiled kernel is absent (simulated)."""

    @pytest.fixture(autouse=True)
    def _no_kernel(self, monkeypatch):
        monkeypatch.setattr(build, "_LIB", None)
        monkeypatch.setattr(build, "_ERROR", "simulated: kernel absent")
        yield

    def test_auto_falls_back_to_python(self) -> None:
        assert not kernels.native_available()
        assert kernels.resolve_backend(None) == "python"
        assert kernels.native_engine(200) is None

    def test_forced_native_raises(self) -> None:
        with pytest.raises(KernelBackendError, match="simulated"):
            kernels.resolve_backend("native")

    def test_dp_forced_native_raises(self) -> None:
        prefix = prepare_scored_prefix(
            cartel_workload(segments=5), congestion_scorer(), 3, p_tau=0.0
        )
        with pytest.raises(KernelBackendError):
            dp_distribution(prefix, 3, max_lines=200, backend="native")

    def test_backends_report_carries_the_error(self) -> None:
        report = kernels.backends_report()
        assert report["python"]["available"] is True
        assert report["native"]["available"] is False
        assert "simulated" in report["native"]["error"]


@needs_native
class TestPlannerDecision:
    def test_explain_shows_native_backend(self) -> None:
        from repro.api import QuerySpec, Session
        from repro.api.calibration import CostModel
        from repro.api.planner import Planner

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
