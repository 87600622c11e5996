"""Unified Session/QuerySpec API over an explicit plan layer.

The package-level surface:

* :class:`~repro.api.spec.QuerySpec` — one frozen value describing a
  top-k request (table, scorer, k, semantics, and every tuning knob);
* :mod:`~repro.api.registry` — the pluggable answer-semantics
  registry (``@register_semantics``) with the paper's semantics and
  all rival baselines pre-registered (:mod:`repro.api.builtin`);
* the **logical→physical plan layer** — specs normalize into a
  :class:`~repro.api.logical.LogicalPlan` (the single source of every
  batch/cache key), which the cost-calibrated
  :class:`~repro.api.planner.Planner` lowers into a
  :class:`~repro.api.physical.PhysicalPlan` of executable operators;
  ``repro calibrate`` (:mod:`repro.api.calibration`) prices the cost
  model per machine;
* :class:`~repro.api.session.Session` — executes plans with every
  stage memoized, so one computed distribution serves typical answers
  at any ``c``, histograms at any precision, and comparisons across
  semantics without recomputation; :meth:`Session.execute_many` fuses
  a mixed-``k`` batch into one shared DP sweep, and
  :meth:`Session.explain` renders any request's operator tree with
  cost estimates and predicted cache hits.

Quickstart::

    from repro.api import QuerySpec, Session
    from repro.datasets.soldier import soldier_table

    session = Session({"soldiers": soldier_table()})
    spec = QuerySpec(table="soldiers", scorer="score", k=2, p_tau=0.0)

    result = session.execute(spec)                 # c-Typical-Topk
    pmf = session.distribution(spec)               # cached PMF
    more = session.execute(spec.with_(c=5))        # no dp re-run
    rival = session.execute(spec.with_(semantics="u_topk"))
"""

from repro.api.calibration import (
    CostModel,
    load_cost_model,
    run_calibration,
    write_calibration,
)
from repro.api.logical import LogicalPlan
from repro.api.physical import PhysicalPlan
from repro.api.plan import distribution_from_prefix, exact_cost
from repro.api.planner import DEFAULT_PLANNER, Planner
from repro.api.registry import (
    SemanticsHandler,
    available_semantics,
    get_semantics,
    register_semantics,
    unregister_semantics,
)
from repro.api import builtin as _builtin  # noqa: F401  (registers built-ins)
from repro.mc import semantics as _mc_semantics  # noqa: F401  (mc variants)
from repro.api.session import DEFAULT_CACHE_SIZE, Session
from repro.api.spec import (
    DEFAULT_C,
    DEFAULT_MC_CONFIDENCE,
    DEFAULT_THRESHOLD,
    SPEC_ALGORITHMS,
    QuerySpec,
)

__all__ = [
    "QuerySpec",
    "Session",
    "LogicalPlan",
    "PhysicalPlan",
    "Planner",
    "DEFAULT_PLANNER",
    "CostModel",
    "load_cost_model",
    "run_calibration",
    "write_calibration",
    "SemanticsHandler",
    "register_semantics",
    "unregister_semantics",
    "get_semantics",
    "available_semantics",
    "exact_cost",
    "distribution_from_prefix",
    "SPEC_ALGORITHMS",
    "DEFAULT_C",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MC_CONFIDENCE",
    "DEFAULT_CACHE_SIZE",
]
