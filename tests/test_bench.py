"""Tests for the benchmark harness (fast smoke subset)."""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pytest

from repro.bench.figures import (
    EXPERIMENTS,
    MC_SAMPLES,
    MC_TUPLES,
    fig02_possible_worlds,
    fig03_toy_distribution,
    main,
)
from repro.bench.reporting import format_table, print_series
from repro.bench.runner import time_callable
from repro.bench.workloads import (
    cartel_workload,
    congestion_scorer,
    soldier_workload,
    synthetic_workload,
)


class TestRunner:
    def test_time_callable_returns_value(self):
        result = time_callable(lambda: 41 + 1)
        assert result.value == 42
        assert result.seconds >= 0.0

    def test_repeats_take_minimum(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        result = time_callable(fn, repeats=3)
        assert len(calls) == 3

    def test_each_timed_run_starts_after_a_full_collection(self):
        # Collections of generation 0 raise generation 1's count; a
        # run timed without a full collection first would start with
        # that garbage pending and could pay for collecting it.
        for _ in range(3):
            gc.collect(0)
        counts = time_callable(gc.get_count, repeats=2).value
        assert counts[1:] == (0, 0)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 100, "b": 5.0}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.346" in text  # floatfmt applied

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_custom_columns(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_table_ragged_rows_and_tuples(self):
        text = format_table([{"a": 1}, {"b": (2.5, 3.0)}])
        header, _, first, second = text.splitlines()
        assert header.split() == ["a", "b"]
        assert first.split() == ["1"]
        assert second.split() == ["2.5/3"]

    def test_print_series(self, capsys):
        print_series("My experiment", [{"x": 1}])
        out = capsys.readouterr().out
        assert "My experiment" in out
        assert "x" in out


class TestWorkloads:
    def test_soldier_workload(self):
        assert len(soldier_workload()) == 7

    def test_cartel_workload_deterministic(self):
        a = cartel_workload(seed=1, segments=20)
        b = cartel_workload(seed=1, segments=20)
        assert [t.tid for t in a] == [t.tid for t in b]

    def test_synthetic_workload_knobs(self):
        t = synthetic_workload(tuples=50, me_fraction=0.0)
        assert len(t) == 50
        assert t.explicit_rules == ()

    def test_congestion_scorer(self):
        from repro.uncertain.model import UncertainTuple

        scorer = congestion_scorer()
        t = UncertainTuple(
            "x", {"speed_limit": 50, "length": 100, "delay": 20}, 1.0
        )
        assert scorer(t) == pytest.approx(10.0)


#: Registry entries fast enough for tier-1 (about 1.5 s together).
FAST_EXPERIMENTS = (
    "fig02", "fig03", "fig09", "fig11", "fig14", "fig15",
    "ablation_coalescing", "ablation_session_cache",
)


def synthetic(config, **columns):
    return {"config": config, "u_topk_score": 1.0, **columns}


#: Hand-built rows that satisfy every requirement of an entry's check
#: but its last one, so the whole check runs and then must fail.
BROKEN_ROWS = {
    "fig08": ("outside the support", [
        {"area": "a", "u_topk_score": 9.0, "u_topk_prob": 0.01,
         "typical": (1.0, 5.0), "min": 2.0, "max": 9.0},
    ]),
    "fig09": ("3x band", [
        {"k": k, "scan_depth": d} for k, d in ((10, 20), (20, 30), (30, 90))
    ]),
    "fig10": ("k-Combo: empty", [
        {"algorithm": "main (dp)", "k": 5, "lines": 9},
        {"algorithm": "StateExpansion", "k": 1, "lines": 9},
        {"algorithm": "k-Combo", "k": 1, "lines": 0},
    ]),
    "fig11": ("do not grow", [
        {"me_portion_config": 0.1, "me_tuple_fraction": 0.5, "lines": 3},
        {"me_portion_config": 0.2, "me_tuple_fraction": 0.4, "lines": 3},
    ]),
    "fig12": ("exceed the budget", [{"max_lines": 50, "output_lines": 51}]),
    "fig13": ("does not shift left", [
        synthetic("rho=+0.0", **{"E[S]": 100.0, "u_topk_pctl": 0.9}),
        synthetic("rho=+0.8", **{"E[S]": 110.0, "u_topk_pctl": 0.9}),
        synthetic("rho=-0.8", **{"E[S]": 105.0, "u_topk_pctl": 0.9}),
    ]),
    "fig14": ("does not grow", [
        synthetic("sigma=60", span90=100.0, std=10.0),
        synthetic("sigma=100", span90=200.0, std=9.0),
    ]),
    "fig15": ("more than 10%", [
        synthetic("gaps=1-8", **{"E[S]": 100.0}),
        synthetic("gaps=1-40", **{"E[S]": 120.0}),
    ]),
    "fig16": ("not extreme", [
        synthetic("sizes=2-3", span90=100.0, **{"E[S]": 100.0}),
        synthetic("sizes=2-10", span90=200.0, u_topk_pctl=0.5,
                  **{"E[S]": 90.0}),
    ]),
    "ablation_lead_regions": ("two grid widths", [
        {"mass": 1.0, "support_span": 200.0, "wasserstein_vs_other": 5.0},
        {"mass": 1.0},
    ]),
    "ablation_coalescing": ("lost", [
        {"max_lines": 10, "wasserstein_error": 0.1, "grid_width": 1.0,
         "mass_error": 1e-6},
    ]),
    "ablation_scan_depth": ("more than the full mass", [
        {"p_tau": 0.1, "scan_depth": 10, "mass": 0.9,
         "mass_lost_vs_full": 0.1},
        {"p_tau": 0.01, "scan_depth": 20, "mass": 1.0,
         "mass_lost_vs_full": -1e-6},
    ]),
    "ablation_session_cache": ("0.90x the cold run", [
        {"request": "cold", "speedup_vs_cold": 1.0},
        {"request": "warm", "speedup_vs_cold": 0.9},
    ]),
    "ablation_shared_prefix": ("0.90x the per-ending", [
        {"me_fraction": 0.5, "mass": 1.0, "per_ending_mass": 1.0,
         "wasserstein": 0.1, "grid_width": 1.0, "speedup": 0.9},
    ]),
    "ablation_mc": ("more than 2%", [
        {"ms": 100.0},
        {"ms": 50.0},
        {"speedup_vs_loop": 20.0, "worlds": MC_SAMPLES, "tuples": MC_TUPLES},
        {"ms": 100.0, "E[S]": 100.0},
        {"ms": 10.0, "E[S]": 110.0},
    ]),
    "semantics": ("below 0.3", [
        {"answers": 1},
        {"answers": 3},
        {"semantics": "u_kranks", "k": 10, "answers": 10},
        {"min_prob": 0.2},
        {"semantics": "global_topk", "k": 10, "answers": 10},
    ]),
    "bar_service_batching": ("1.90x unbatched, below 2.0x", [
        {"mode": "unbatched", "requests": 60, "ok": 60},
        {"mode": "batched", "requests": 60, "ok": 60, "speedup": 1.9},
    ]),
    "bar_service_scaling": ("1.90x one process, below 2.0x", [
        {"workers": 1, "cores": 4, "requests": 48, "failed": 0},
        {"workers": 4, "cores": 4, "requests": 48, "failed": 0,
         "speedup": 1.9},
    ]),
    "bar_standing": ("2.90x recompute, below 3.0x", [
        {"mode": "recompute"},
        {"mode": "maintained", "subscriptions": 20, "match_cold": 20,
         "speedup": 2.9},
    ]),
    "bar_plan_fusion": ("1.40x unfused, below 1.5x", [
        {"path": "unfused"},
        {"path": "fused", "requests": 12, "dp_sweeps": 1,
         "equal_answers": 12, "speedup": 1.4},
    ]),
    "bar_backend": ("2.90x python, below 3.0x", [
        {"backend": "python"},
        {"backend": "native", "identical": True, "speedup": 2.9},
    ]),
    "bar_storage_depth": ("12.0% of the resident", [
        {"tuples": 100_000, "lazy_latency_s": 0.010},
        {"tuples": 1_000_000, "lazy_latency_s": 0.012,
         "rss_fraction": 0.12},
    ]),
}

#: Rows on which a bar's speed would hold but what it computed is
#: wrong, so the check must fail before it reads the speedup.
WRONG_BAR_ROWS = [
    ("bar_service_batching", "unbatched: 1 of 60 requests failed", [
        {"mode": "unbatched", "requests": 60, "ok": 59},
        {"mode": "batched", "requests": 60, "ok": 60, "speedup": 4.0},
    ]),
    ("bar_service_scaling", "4 worker\\(s\\): 2 of 48 requests failed", [
        {"workers": 1, "cores": 4, "requests": 48, "failed": 0},
        {"workers": 4, "cores": 4, "requests": 48, "failed": 2,
         "speedup": 3.0},
    ]),
    ("bar_standing", "1 of 20 maintained answers differ", [
        {"mode": "recompute"},
        {"mode": "maintained", "subscriptions": 20, "match_cold": 19,
         "speedup": 9.0},
    ]),
    ("bar_plan_fusion", "ran 2 DP sweeps", [
        {"path": "unfused"},
        {"path": "fused", "requests": 12, "dp_sweeps": 2,
         "equal_answers": 12, "speedup": 2.0},
    ]),
    ("bar_plan_fusion", "1 of 12 fused answers differ", [
        {"path": "unfused"},
        {"path": "fused", "requests": 12, "dp_sweeps": 1,
         "equal_answers": 11, "speedup": 2.0},
    ]),
    ("bar_backend", "differs from the numpy path", [
        {"backend": "python"},
        {"backend": "native", "identical": False, "speedup": 8.0},
    ]),
    ("bar_storage_depth", "grew 2.00x", [
        {"tuples": 100_000, "lazy_latency_s": 0.010},
        {"tuples": 1_000_000, "lazy_latency_s": 0.020,
         "rss_fraction": 0.02},
    ]),
]

#: Rows from a machine that cannot measure the bar: one core, or no
#: loadable DP kernel.  The check holds and says why.
UNMEASURABLE_BAR_ROWS = {
    "bar_service_scaling": ("one core", [
        {"workers": 1, "cores": 1, "requests": 48, "failed": 0},
        {"workers": 4, "cores": 1, "requests": 48, "failed": 0,
         "speedup": 0.5},
    ]),
    "bar_backend": ("native kernel unavailable", [
        {"backend": "python", "n": 136, "seconds": 1.5},
        {"backend": "native", "unavailable": "no C compiler"},
    ]),
}


class TestFigureFunctions:
    def test_fig02_rows(self):
        EXPERIMENTS["fig02"].check(fig02_possible_worlds())

    def test_fig03_contains_paper_numbers(self):
        EXPERIMENTS["fig03"].check(fig03_toy_distribution())

    @pytest.mark.parametrize("name", FAST_EXPERIMENTS)
    def test_fast_claims_hold(self, name):
        experiment = EXPERIMENTS[name]
        experiment.check(experiment.run())

    def test_checks_reject_broken_rows(self):
        rows = fig02_possible_worlds()
        with pytest.raises(AssertionError, match="17 worlds"):
            EXPERIMENTS["fig02"].check(rows[1:])
        rows = fig03_toy_distribution()
        with pytest.raises(AssertionError, match="U-Topk rows"):
            EXPERIMENTS["fig03"].check(rows[:-1])

    @pytest.mark.parametrize("name", sorted(BROKEN_ROWS))
    def test_check_fails_on_rows_that_break_its_claim(self, name):
        message, rows = BROKEN_ROWS[name]
        with pytest.raises(AssertionError, match=message):
            EXPERIMENTS[name].check(rows)

    @pytest.mark.parametrize(
        "name, message, rows", WRONG_BAR_ROWS,
        ids=[f"{name}-{index}" for index, (name, _, _) in
             enumerate(WRONG_BAR_ROWS)],
    )
    def test_bar_fails_on_what_it_computed(self, name, message, rows):
        with pytest.raises(AssertionError, match=message):
            EXPERIMENTS[name].check(rows)

    @pytest.mark.parametrize("name", sorted(UNMEASURABLE_BAR_ROWS))
    def test_bar_holds_where_it_cannot_measure(self, name, capsys):
        reason, rows = UNMEASURABLE_BAR_ROWS[name]
        EXPERIMENTS[name].check(rows)
        assert reason in capsys.readouterr().out

    def test_registry_complete(self):
        for name in (
            "fig02", "fig03", "fig08", "fig09", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16",
            "ablation_lead_regions", "ablation_coalescing",
            "ablation_scan_depth", "ablation_session_cache",
            "ablation_shared_prefix", "ablation_mc", "semantics",
            "bar_service_batching", "bar_service_scaling",
            "bar_standing", "bar_plan_fusion", "bar_backend",
            "bar_storage_depth",
        ):
            assert name in EXPERIMENTS
        for name, experiment in EXPERIMENTS.items():
            assert callable(experiment.check), name
            assert experiment.check.__doc__, f"{name} states no claim"

    def test_main_rejects_unknown(self, capsys):
        assert main(["not_an_experiment"]) == 2

    def test_main_runs_named_experiment(self, capsys):
        assert main(["fig02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "claim: The toy table has 18 possible worlds" in out
        assert "fig02: holds" in out

    def test_main_fails_and_names_a_failed_claim(self, monkeypatch, capsys):
        def check(rows):
            """A claim the rows break."""
            raise AssertionError("broken on purpose")

        monkeypatch.setitem(
            EXPERIMENTS, "fig03", EXPERIMENTS["fig03"]._replace(check=check)
        )
        assert main(["fig02", "fig03"]) == 1
        captured = capsys.readouterr()
        assert "fig02: holds" in captured.out
        assert "fig03: FAILED: broken on purpose" in captured.out
        assert "1 of 2 claims failed: fig03" in captured.err

    def test_main_fails_and_names_a_failed_bar(self, monkeypatch, capsys):
        _, rows = BROKEN_ROWS["bar_service_batching"]
        entry = EXPERIMENTS["bar_service_batching"]
        monkeypatch.setitem(
            EXPERIMENTS, "bar_service_batching",
            entry._replace(run=lambda: rows),
        )
        assert main(["bar_service_batching"]) == 1
        captured = capsys.readouterr()
        assert "claim: Batched serving is >= 2x" in captured.out
        assert (
            "bar_service_batching: FAILED: batched serving is 1.90x"
            in captured.out
        )
        assert "1 of 1 claims failed: bar_service_batching" in captured.err

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM"
    )
    def test_storage_probe_reads_its_own_peak_rss(self):
        # A child's ru_maxrss starts at its parent's peak, so a probe
        # started by a large process would read that peak, and the
        # lazy path's RSS growth would vanish.  The probe started here
        # by a parent holding 128 MiB must read only its own.
        script = (
            "import subprocess, sys\n"
            "ballast = b'x' * (128 << 20)\n"
            "probe = 'from repro.bench.bars import _peak_rss_kb; "
            "print(_peak_rss_kb())'\n"
            "out = subprocess.run([sys.executable, '-c', probe],\n"
            "                     capture_output=True, text=True, check=True)\n"
            "print(out.stdout.strip())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.strip()) < 100 * 1024

    def test_gate_holds_under_optimize(self):
        # Checks raise explicitly, so ``python -O`` (which strips
        # ``assert``) cannot switch the gate off.
        script = (
            "import repro.bench.figures as f\n"
            "e = f.EXPERIMENTS['fig02']\n"
            "f.EXPERIMENTS['fig02'] = e._replace(run=lambda: e.run()[1:])\n"
            "raise SystemExit(f.main(['fig02']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 1, result.stderr
        assert "fig02: FAILED: 17 worlds" in result.stdout
