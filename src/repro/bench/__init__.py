"""Experiment harness regenerating the paper's evaluation.

Each ``figXX_*`` function in :mod:`repro.bench.figures` reproduces one
figure of Section 5 (plus the Figure 2/3 motivating example) and
returns structured rows; :mod:`repro.bench.reporting` renders them the
way the paper reports them.  The registry
:data:`repro.bench.figures.EXPERIMENTS` pairs every figure and ablation
with a check of the paper's claim about its rows, and every speed bar
of :mod:`repro.bench.bars` with a check of its threshold::

    repro figures               # run and check everything (exit 1 on a failed claim)
    repro figures fig10         # one experiment
    repro figures bar_backend   # one bar
"""

from repro.bench.reporting import format_table, print_series
from repro.bench.runner import time_callable
from repro.bench.workloads import (
    cartel_workload,
    soldier_workload,
    synthetic_workload,
)

__all__ = [
    "format_table",
    "print_series",
    "time_callable",
    "cartel_workload",
    "soldier_workload",
    "synthetic_workload",
]
