"""Tests for the command-line interface."""

from __future__ import annotations

import json
import shlex

import pytest

import repro.cli
from repro.cli import (
    build_parser,
    load_table,
    main,
    resolve_cli_scorer,
    save_table,
)
from repro.datasets.soldier import soldier_table
from repro.io.csv_io import write_table_csv
from repro.io.json_io import write_table_json
from repro.uncertain.model import UncertainTuple


@pytest.fixture
def soldier_csv(tmp_path):
    path = tmp_path / "soldiers.csv"
    write_table_csv(soldier_table(), path)
    return str(path)


@pytest.fixture
def soldier_json(tmp_path):
    path = tmp_path / "soldiers.json"
    write_table_json(soldier_table(), path)
    return str(path)


class TestHelpers:
    def test_load_csv_and_json(self, soldier_csv, soldier_json):
        assert len(load_table(soldier_csv)) == 7
        assert len(load_table(soldier_json)) == 7

    def test_save_round_trip(self, tmp_path):
        table = soldier_table()
        out = tmp_path / "t.json"
        save_table(table, out)
        assert len(load_table(out)) == 7

    def test_scorer_bare_attribute(self):
        # Bare identifiers stay strings: the engine resolves them, and
        # string equality against a packed table's scorer is what lets
        # the storage layer serve the query lazily.
        assert resolve_cli_scorer("score") == "score"
        assert resolve_cli_scorer("final_score") == "final_score"

    def test_scorer_expression(self):
        scorer = resolve_cli_scorer("score * 2")
        assert scorer(UncertainTuple("t", {"score": 5}, 0.5)) == 10.0


class TestDistributionCommand:
    def test_basic_output(self, soldier_csv, capsys):
        code = main(
            ["distribution", soldier_csv, "--score", "score", "-k", "2",
             "--p-tau", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E[S]=164.10" in out
        assert "118" in out

    def test_json_output(self, soldier_csv, capsys):
        code = main(
            ["distribution", soldier_csv, "--score", "score", "-k", "2",
             "--p-tau", "0", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        scores = {line["score"] for line in doc["lines"]}
        assert 118.0 in scores

    def test_histogram_and_u_topk(self, soldier_csv, capsys):
        code = main(
            ["distribution", soldier_csv, "--score", "score", "-k", "2",
             "--p-tau", "0", "--histogram", "8", "--u-topk"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "U-Top2" in out
        assert "#" in out

    def test_algorithm_choice(self, soldier_csv, capsys):
        code = main(
            ["distribution", soldier_csv, "--score", "score", "-k", "2",
             "--p-tau", "0", "--algorithm", "k_combo"]
        )
        assert code == 0


class TestTypicalCommand:
    def test_typical_answers(self, soldier_csv, capsys):
        code = main(
            ["typical", soldier_csv, "--score", "score", "-k", "2",
             "-c", "3", "--p-tau", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for score in ("118", "183", "235"):
            assert score in out


class TestQueryCommand:
    def test_query_over_csv(self, soldier_csv, capsys):
        code = main(
            [
                "query",
                "SELECT soldier FROM soldiers ORDER BY score DESC "
                "LIMIT 2 WITH TYPICAL 2",
                "--table", f"soldiers={soldier_csv}",
                "--p-tau", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "typical score" in out

    def test_bad_binding_reports_error(self, capsys):
        code = main(
            ["query", "SELECT a FROM t ORDER BY a LIMIT 1",
             "--table", "nonsense"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_reports_error(self, soldier_csv, capsys):
        code = main(
            ["query", "SELECT FROM ORDER", "--table",
             f"soldiers={soldier_csv}"]
        )
        assert code == 1


class TestGenerateCommand:
    @pytest.mark.parametrize("dataset", ["soldier", "cartel", "synthetic"])
    def test_generate_each_dataset(self, dataset, tmp_path, capsys):
        out = tmp_path / f"{dataset}.csv"
        code = main(
            ["generate", dataset, "--out", str(out), "--size", "15",
             "--seed", "3"]
        )
        assert code == 0
        assert out.exists()
        table = load_table(out)
        assert len(table) >= 1

    def test_generate_json(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["generate", "soldier", "--out", str(out)]) == 0
        assert len(load_table(out)) == 7


class TestFiguresCommand:
    def test_runs_toy_figure(self, capsys):
        assert main(["figures", "fig02"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "nope"]) == 2


def docstring_commands() -> list[str]:
    """The ``repro ...`` lines of the CLI module docstring, with
    backslash continuations joined."""
    commands, pending = [], ""
    for raw in repro.cli.__doc__.splitlines():
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        if line.startswith("repro "):
            commands.append(line)
    return commands


class TestModuleDocstring:
    @pytest.mark.parametrize("command", docstring_commands())
    def test_documented_command_parses(self, command):
        # argparse exits 2 on an unknown option or a missing one.
        build_parser().parse_args(shlex.split(command, comments=True)[1:])


class TestServeBootReport:
    """``repro serve`` prints either deployment's boot report from its
    replicas' boot documents through one function."""

    def test_in_process_and_sharded_reports(self, tmp_path, capsys) -> None:
        from types import SimpleNamespace

        from repro.cli import _print_boot_report
        from repro.service.worker import WorkerConfig, boot_document, build_service

        source = "synthetic:tuples=40,me=0.0,seed=7"
        config = WorkerConfig(threads=1, data_dir=str(tmp_path))
        service = build_service(0, 1, {"live": source}, config)
        try:
            document = boot_document(0, service)
        finally:
            service.shutdown(drain=True)
        server = SimpleNamespace(server_address=("127.0.0.1", 8123))
        recovered = (
            "recovered live: version 0 (snapshot None + 0 WAL records, "
            "0 torn bytes truncated)"
        )
        _print_boot_report(server, config, [document])
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "repro serve: listening on http://127.0.0.1:8123 (batched)",
            f"  table live: 40 tuples (0 ME rules) from {source}",
            f"  {recovered}",
        ]
        assert lines[3].startswith("endpoints: POST /v1/answer")
        _print_boot_report(
            server, config, [document, dict(document, worker=1, wal_tables=[])]
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            "repro serve: listening on http://127.0.0.1:8123 "
            "(batched, 2 worker processes)",
            "  worker w0: replicates 1 tables, owns WAL for ['live']",
            f"    {recovered}",
            "  worker w1: replicates 1 tables, owns WAL for none",
            f"    {recovered}",
        ]


class TestServeOnBoundPort:
    """``repro serve`` on a port another socket holds exits 1 with one
    ``error:`` line, and its service is stopped, not left running."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_error_line_and_exit_1(self, workers) -> None:
        import os
        import socket
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--table", "demo=synthetic:tuples=20,me=0,seed=1",
                 "--port", str(port), "--threads", "1",
                 "--workers", str(workers)],
                capture_output=True, text=True, env=env, timeout=120,
            )
        assert proc.returncode == 1, proc.stderr
        errors = [
            line for line in proc.stderr.splitlines()
            if line.startswith("error:")
        ]
        assert errors == [
            f"error: cannot listen on 127.0.0.1:{port}: "
            "Address already in use"
        ], proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failed_bind_stops_the_service(self) -> None:
        import socket
        from types import SimpleNamespace

        from repro.exceptions import ServiceError
        from repro.service import ServiceHTTPServer

        stopped = []
        service = SimpleNamespace(shutdown=lambda: stopped.append(True))
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            address = holder.getsockname()
            with pytest.raises(ServiceError, match="cannot listen on"):
                ServiceHTTPServer(address, service)
        assert stopped == [True]
