"""The benchmark's tracer still finds every attribute it wraps, and its
tag functions still read the arguments they expect.

``perfbench/tracing.py`` wraps public entry points by name (``Session``,
``Planner``, ``SemanticsOp``, the ``repro.api.plan`` stage functions,
the serializers, ...) and tags some spans from the wrapped call's
arguments: the DP's rows and engine, the rows a prefix scored, a
semantics name.  Renaming one of them, or changing its signature,
would otherwise only show up as a crash of a traced benchmark run.
The check imports the tracer in a fresh interpreter (so the wrappers
never leak into this process), installs it, runs one distribution and
one answer through a ``Session``, and writes no bytecode next to the
benchmark sources.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing
from repro.api import QuerySpec, Session
from repro.api.planner import Planner
from repro.bench.workloads import cartel_workload, congestion_scorer

tracer = tracing.Tracer()
tracing.install(tracer)
assert hasattr(Planner.lower, "__wrapped__"), "install wrapped nothing"
session = Session({{"area": cartel_workload(segments=10)}})
spec = QuerySpec(table="area", scorer=congestion_scorer(), k=3, p_tau=0.0)
session.distribution(spec)
session.execute(spec.with_(k=4, semantics="typical"))
print(json.dumps({{name: tag for name, _, _, _, _, tag in tracer.spans}}))
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
    tags = json.loads(result.stdout)
    rows, backend = tags["plan.dp_distribution"]
    assert rows > 0
    assert backend in ("python", "native")
    assert tags["plan.prepare_scored_prefix"] > 0
    assert "Planner.lower" in tags
    assert tags["SemanticsOp.run"] == "typical"
