"""Tests for the persisted perf baseline (``repro bench``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.baseline import (
    _calibration_factory,
    check_against_baseline,
    read_baseline,
    run_baseline,
    workload_factories,
    write_baseline,
)
from repro.cli import main


class TestBaselineModule:
    def test_tiny_workloads_subset_of_full(self):
        tiny = set(workload_factories(tiny_only=True))
        full = set(workload_factories())
        assert tiny < full
        assert all(name.startswith("tiny_") for name in tiny)

    def test_run_baseline_shape(self):
        data = run_baseline(tiny_only=True, repeats=1)
        assert data["schema"] == 1
        assert data["meta"]["tiny_only"] is True
        assert data["meta"]["backend"] in ("python", "native")
        assert data["calibration"]["seconds"] > 0.0
        for entry in data["workloads"].values():
            assert entry["seconds"] > 0.0

    def test_roundtrip(self, tmp_path):
        data = run_baseline(tiny_only=True, repeats=1)
        path = tmp_path / "bench.json"
        write_baseline(data, path)
        assert read_baseline(path) == json.loads(path.read_text())

    def test_check_flags_regressions_only(self):
        committed = {"workloads": {"w": {"seconds": 0.1}}}
        ok = {"workloads": {"w": {"seconds": 0.25}}}
        slow = {"workloads": {"w": {"seconds": 0.5}}}
        unknown = {"workloads": {"new": {"seconds": 99.0}}}
        assert check_against_baseline(ok, committed) == []
        assert len(check_against_baseline(slow, committed)) == 1
        assert check_against_baseline(unknown, committed) == []

    def test_calibration_probe_runs_no_repro_code(self, monkeypatch):
        # The probe must time the machine, not whichever DP backend
        # loads, so it must never reach the dynamic program.
        import repro.bench.baseline
        import repro.core.dp

        def refuse(*args, **kwargs):
            raise AssertionError("calibration probe ran the DP")

        for module in (repro.core.dp, repro.bench.baseline):
            monkeypatch.setattr(module, "dp_distribution", refuse)
        probe = _calibration_factory()
        assert probe() == pytest.approx(probe())

    def test_check_normalizes_by_calibration(self):
        # A uniformly 5x-slower machine (same calibration ratio) must
        # not trip the guard; a genuine 5x relative slowdown must.
        committed = {
            "calibration": {"seconds": 0.01},
            "workloads": {"w": {"seconds": 0.1}},
        }
        slower_machine = {
            "calibration": {"seconds": 0.05},
            "workloads": {"w": {"seconds": 0.5}},
        }
        real_regression = {
            "calibration": {"seconds": 0.01},
            "workloads": {"w": {"seconds": 0.5}},
        }
        assert check_against_baseline(slower_machine, committed) == []
        assert len(check_against_baseline(real_regression, committed)) == 1


class TestBenchCLI:
    def test_bench_tiny_writes_json(self, tmp_path, capsys):
        path = tmp_path / "BENCH_core.json"
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--json", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert set(data["workloads"]) == set(
            workload_factories(tiny_only=True)
        )

    def test_bench_check_passes_against_self(self, tmp_path, capsys):
        # Best of three on both sides: one timing of a 2 ms workload
        # can read 3x slow on a busy machine.
        path = tmp_path / "BENCH_core.json"
        assert main(
            ["bench", "--tiny", "--repeats", "3", "--json", str(path)]
        ) == 0
        assert main(
            ["bench", "--tiny", "--repeats", "3", "--check", str(path)]
        ) == 0
        assert "perf guard ok" in capsys.readouterr().out

    def test_bench_check_fails_on_regression(self, tmp_path, capsys):
        path = tmp_path / "BENCH_core.json"
        baseline = {
            "schema": 1,
            "workloads": {
                name: {"seconds": 1e-9}
                for name in workload_factories(tiny_only=True)
            },
        }
        path.write_text(json.dumps(baseline))
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--check", str(path)]
        ) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err
