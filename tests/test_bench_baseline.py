"""Tests for the persisted perf baseline (``repro bench``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.baseline import (
    _calibration_factory,
    check_against_baseline,
    read_baseline,
    run_baseline,
    timed_backends,
    uncompared_backends,
    workload_factories,
    write_baseline,
)
from repro.cli import main
from repro.core import kernels


class TestBaselineModule:
    def test_tiny_workloads_subset_of_full(self):
        tiny = set(workload_factories(tiny_only=True))
        full = set(workload_factories())
        assert tiny < full
        assert all(name.startswith("tiny_") for name in tiny)

    def test_run_baseline_shape(self):
        data = run_baseline(tiny_only=True, repeats=1)
        assert data["schema"] == 2
        assert data["meta"]["tiny_only"] is True
        assert data["meta"]["backends"] == timed_backends()
        assert data["calibration"]["seconds"] > 0.0
        for entry in data["workloads"].values():
            assert list(entry) == data["meta"]["backends"]
            assert all(seconds > 0.0 for seconds in entry.values())

    def test_timed_backends(self, monkeypatch):
        monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
        native = ["native"] if kernels.native_available() else []
        assert timed_backends() == ["python"] + native
        monkeypatch.setenv(kernels.BACKEND_ENV, "python")
        assert timed_backends() == ["python"]

    def test_check_reads_both_schemas(self):
        # A schema-1 entry was recorded on python: only the python
        # column of a schema-2 run is compared against it.
        schema1 = {"schema": 1, "workloads": {"w": {"seconds": 0.1}}}
        schema2 = {"schema": 2, "workloads": {"w": {"python": 0.1,
                                                    "native": 0.01}}}
        native_slow = {"workloads": {"w": {"python": 0.1, "native": 0.05}}}
        python_slow = {"workloads": {"w": {"python": 0.5, "native": 0.01}}}
        assert check_against_baseline(native_slow, schema1) == []
        assert len(check_against_baseline(python_slow, schema1)) == 1
        assert check_against_baseline(schema2, schema2) == []
        (line,) = check_against_baseline(native_slow, schema2)
        assert line.startswith("w (native):")
        # A backend only one side timed is not compared.
        python_only = {"workloads": {"w": {"python": 0.1}}}
        assert check_against_baseline(python_only, schema2) == []
        assert check_against_baseline(schema2, python_only) == []

    def test_uncompared_backends(self):
        schema1 = {"schema": 1, "workloads": {"w": {"seconds": 0.1}}}
        schema2 = {"workloads": {"w": {"python": 0.1, "native": 0.01}}}
        python_only = {"workloads": {"w": {"python": 0.1}}}
        native_only = {"workloads": {"w": {"native": 0.01}}}
        assert uncompared_backends(schema2, schema2) == []
        assert uncompared_backends(python_only, schema2) == []
        assert uncompared_backends(schema2, schema1) == ["native"]
        assert uncompared_backends(native_only, schema1) == ["native"]
        # A workload the committed file lacks compares nothing either.
        other = {"workloads": {"v": {"python": 0.1, "native": 0.01}}}
        assert uncompared_backends(other, schema2) == ["python", "native"]

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

    def test_bench_check_fails_when_nothing_is_compared(
        self, tmp_path, capsys
    ):
        # A baseline that shares no (workload, backend) timing with the
        # run cannot vouch for it, on any backend pin.
        path = tmp_path / "BENCH_core.json"
        timings = {"python": 1.0, "native": 1.0}
        path.write_text(json.dumps(
            {"schema": 2, "workloads": {"no_such_workload": timings}}
        ))
        assert main(
            ["bench", "--tiny", "--repeats", "1", "--check", str(path)]
        ) == 1
        err = capsys.readouterr().err
        for backend in timed_backends():
            assert f"{backend}: not compared" in err
