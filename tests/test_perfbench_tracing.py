"""The benchmark's tracer still finds every attribute it wraps.

``perfbench/tracing.py`` wraps public entry points by name (``Session``,
``Planner``, ``SemanticsOp``, the ``repro.api.plan`` stage functions,
the serializers, ...).  Renaming one of them would otherwise only show
up as a crash of a traced benchmark run.  The check imports the tracer
in a fresh interpreter (so the wrappers never leak into this process),
installs it, and writes no bytecode next to the benchmark sources.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing
from repro.api.planner import Planner

tracing.install(tracing.Tracer())
assert hasattr(Planner.lower, "__wrapped__"), "install wrapped nothing"
print("ok")
"""


def test_tracer_install_resolves_every_wrapped_attribute() -> None:
    code = PROBE.format(
        perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src")
    )
    result = subprocess.run(
        [sys.executable, "-B", "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
