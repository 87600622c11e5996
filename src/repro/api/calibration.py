"""Cost-model calibration: measured per-unit costs, persisted per machine.

The planner prices each physical operator in *cost units* — abstract,
machine-independent work counts (DP cell updates, enumerated
combinations, expanded states, sampled world-rows).  Turning units
into milliseconds — and deriving the ``auto`` thresholds — needs
per-machine unit costs, which is what ``repro calibrate`` measures:

* ``dp_unit_ns`` — one unit of the exact shared-prefix DP on the
  numpy engine (:func:`~repro.api.plan.exact_cost` units, i.e.
  ``k·n·(m+1)``), and ``dp_native_unit_ns`` the same on the compiled
  kernel, where it loads;
* ``k_combo_unit_ns`` — one enumerated k-combination;
* ``state_unit_ns`` — one expanded state row
  (``n · 2^n`` units for a depth-``n`` prefix);
* ``mc_world_row_ns`` — one sampled world-row of the Monte-Carlo
  engine (``worlds · n`` units);
* ``prefix_row_ns`` — scoring/sorting one table row (stage 1);
* ``storage_row_ns`` — materializing one prefix row from a packed
  on-disk table (stage 1 under scan-depth pushdown).

From those, the ``auto`` thresholds are derived instead of frozen:

* ``mc_cost_budget`` — the exact-DP unit count affordable within
  ``--target-ms`` (default 1000 ms, matching the intent of the frozen
  literal: "the exact sweep at the budget takes on the order of a
  second") at the rate of the engine this machine's DPs run on;
  beyond it ``auto`` routes to the sampling estimator;
* ``k_combo_max_combinations`` — combinations affordable within
  ``--small-case-ms`` (default 0.5 ms: exhaustive enumeration is the
  cheapest plan only while it is effectively free);
* ``state_expansion_max_depth`` — the largest prefix depth whose
  ``n · 2^n`` state expansion fits the same small-case budget.

Without a calibration file the planner falls back to the builtin
:data:`DEFAULT_COST_MODEL`, whose thresholds are exactly the
pre-calibration frozen literals — so behavior (and every golden
answer) is unchanged until an operator opts in by running
``repro calibrate``.  The file lives at
``~/.cache/repro/calibration.json`` by default; the
``REPRO_CALIBRATION`` environment variable overrides the path (set it
to an empty string to disable loading entirely).
"""

from __future__ import annotations

import json
import math
import os
import platform
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

#: ``auto`` threshold defaults — the pre-calibration frozen literals.
DEFAULT_K_COMBO_MAX_COMBINATIONS = 256
DEFAULT_STATE_EXPANSION_MAX_DEPTH = 12
DEFAULT_MC_COST_BUDGET = 5_000_000

#: Builtin per-unit costs (ns), used only for EXPLAIN time estimates
#: until a machine is calibrated; ballpark figures for a mid-range
#: x86 core.
DEFAULT_DP_UNIT_NS = 200.0
DEFAULT_DP_NATIVE_UNIT_NS = 60.0
DEFAULT_K_COMBO_UNIT_NS = 2_000.0
DEFAULT_STATE_UNIT_NS = 400.0
DEFAULT_MC_WORLD_ROW_NS = 30.0
DEFAULT_PREFIX_ROW_NS = 1_500.0
DEFAULT_STORAGE_ROW_NS = 2_500.0

#: Calibration knob defaults (milliseconds).
DEFAULT_TARGET_MS = 1_000.0
DEFAULT_SMALL_CASE_MS = 0.5

#: Persisted-file schema version.  Schema 2 added the kernel-backend
#: rate ``dp_native_unit_ns`` and the ``backends`` report section;
#: schema-1 files still load, with the builtin defaults filling the new
#: fields.  Constants this version no longer reads (such as the retired
#: ``parallel_spawn_ms``) are ignored on load.
SCHEMA = 2
_ACCEPTED_SCHEMAS = (1, 2)


@dataclass(frozen=True)
class CostModel:
    """Planner constants: ``auto`` thresholds plus per-unit costs.

    ``source`` records provenance: ``"builtin"`` for the frozen
    defaults, else the path of the calibration file.
    """

    k_combo_max_combinations: int = DEFAULT_K_COMBO_MAX_COMBINATIONS
    state_expansion_max_depth: int = DEFAULT_STATE_EXPANSION_MAX_DEPTH
    mc_cost_budget: int = DEFAULT_MC_COST_BUDGET
    dp_unit_ns: float = DEFAULT_DP_UNIT_NS
    dp_native_unit_ns: float = DEFAULT_DP_NATIVE_UNIT_NS
    k_combo_unit_ns: float = DEFAULT_K_COMBO_UNIT_NS
    state_unit_ns: float = DEFAULT_STATE_UNIT_NS
    mc_world_row_ns: float = DEFAULT_MC_WORLD_ROW_NS
    prefix_row_ns: float = DEFAULT_PREFIX_ROW_NS
    storage_row_ns: float = DEFAULT_STORAGE_ROW_NS
    source: str = "builtin"

    def est_ms(self, units: float, unit_ns: float) -> float:
        """``units`` of work at ``unit_ns`` each, in milliseconds."""
        return round(units * unit_ns / 1e6, 4)

    def describe(self) -> dict[str, Any]:
        """JSON-ready dump (the ``cost_model`` section of EXPLAIN)."""
        return asdict(self)


#: The frozen-literal model every planner starts from.
DEFAULT_COST_MODEL = CostModel()


def calibration_path() -> Path | None:
    """Where the persisted calibration lives on this machine.

    ``REPRO_CALIBRATION`` overrides the default
    ``~/.cache/repro/calibration.json``; an empty value disables
    calibration loading (``None`` is returned).
    """
    override = os.environ.get("REPRO_CALIBRATION")
    if override is not None:
        return Path(override).expanduser() if override else None
    return Path("~/.cache/repro/calibration.json").expanduser()


def load_cost_model(path: str | Path | None = None) -> CostModel:
    """The machine's cost model: calibrated when available.

    Falls back to :data:`DEFAULT_COST_MODEL` when the file is absent,
    unreadable, or from a different schema — calibration must never be
    able to break planning.
    """
    target = Path(path) if path is not None else calibration_path()
    if target is None or not target.is_file():
        return DEFAULT_COST_MODEL
    try:
        document = json.loads(target.read_text())
        if document.get("schema") not in _ACCEPTED_SCHEMAS:
            return DEFAULT_COST_MODEL
        constants = document["constants"]
        return replace(
            DEFAULT_COST_MODEL,
            k_combo_max_combinations=int(
                constants["k_combo_max_combinations"]
            ),
            state_expansion_max_depth=int(
                constants["state_expansion_max_depth"]
            ),
            mc_cost_budget=int(constants["mc_cost_budget"]),
            dp_unit_ns=float(constants["dp_unit_ns"]),
            k_combo_unit_ns=float(constants["k_combo_unit_ns"]),
            state_unit_ns=float(constants["state_unit_ns"]),
            mc_world_row_ns=float(constants["mc_world_row_ns"]),
            prefix_row_ns=float(constants["prefix_row_ns"]),
            # Added after schema 1 shipped: older calibration files
            # simply keep the builtin rates for fields they predate.
            storage_row_ns=float(
                constants.get("storage_row_ns", DEFAULT_STORAGE_ROW_NS)
            ),
            dp_native_unit_ns=float(
                constants.get("dp_native_unit_ns", DEFAULT_DP_NATIVE_UNIT_NS)
            ),
            source=str(target),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return DEFAULT_COST_MODEL


# ----------------------------------------------------------------------
# The micro-benchmark (``repro calibrate``)
# ----------------------------------------------------------------------
def _warm_seconds(case: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall seconds of ``case()`` after one untimed call.

    The untimed call pays the one-time costs (lazy imports, a kernel
    load, first-touch allocations) that a per-unit rate must not carry.
    """
    from repro.bench.runner import time_callable

    case()
    return time_callable(case, repeats=repeats).seconds


def run_calibration(
    *,
    target_ms: float = DEFAULT_TARGET_MS,
    small_case_ms: float = DEFAULT_SMALL_CASE_MS,
    repeats: int = 3,
) -> dict[str, Any]:
    """Measure per-unit costs and derive the ``auto`` thresholds.

    Returns the JSON-ready calibration document (probes, derived
    constants, metadata); persist it with :func:`write_calibration`.
    """
    from repro.api.plan import exact_cost
    from repro.bench.workloads import synthetic_workload
    from repro.core import kernels
    from repro.core.distribution import prepare_scored_prefix
    from repro.core.dp import DEFAULT_MAX_LINES, dp_distribution
    from repro.core.k_combo import k_combo_distribution
    from repro.core.state_expansion import state_expansion_distribution
    from repro.mc.engine import MCEngine

    table = synthetic_workload(tuples=220, me_fraction=0.0, seed=7)

    # Stage 1: score + rank-order + truncate, per row.
    prefix_rows = 220
    prefix_s = _warm_seconds(
        lambda: prepare_scored_prefix(table, "score", 8, p_tau=0.0),
        repeats,
    )

    # Exact DP, per exact_cost unit (independent shape; the ME factor
    # is already part of the unit count), on each engine this machine
    # has: each probe pins the engine it names.
    dp_prefix = prepare_scored_prefix(table, "score", 8, p_tau=0.0)
    dp_prefix = dp_prefix.prefix(150)
    dp_units = exact_cost(len(dp_prefix), 8, 0)

    def dp_seconds(backend: str) -> float:
        with kernels.pinned(backend):
            return _warm_seconds(
                lambda: dp_distribution(dp_prefix, 8), repeats
            )

    backends = kernels.backends_report()
    dp_s = dp_seconds("python")
    dp_native_s: float | None = None
    if backends["native"]["available"]:
        dp_native_s = dp_seconds("native")

    # k-Combo, per enumerated combination.
    combo_prefix = dp_prefix.prefix(12)
    combo_units = math.comb(12, 4)
    combo_s = _warm_seconds(
        lambda: k_combo_distribution(combo_prefix, 4), repeats
    )

    # State expansion, per ``n · 2^n`` state-row unit.
    state_prefix = dp_prefix.prefix(12)
    state_units = 12 * 2**12
    state_s = _warm_seconds(
        lambda: state_expansion_distribution(state_prefix, 4, p_tau=0.0),
        repeats,
    )

    # Monte-Carlo engine, per sampled world-row.
    mc_prefix = dp_prefix.prefix(128)
    mc_samples = 2_048
    mc_units = mc_samples * len(mc_prefix)

    def mc_case() -> object:
        return MCEngine(mc_prefix, 8, samples=mc_samples, seed=0).run()

    mc_s = _warm_seconds(mc_case, repeats)

    # Packed-storage prefix materialization, per prefix row: pack a
    # small table to a scratch directory and time cold-cache prefix
    # reads through the page decoder.
    import shutil
    import tempfile

    from repro.storage import open_store, pack_table

    storage_dir = tempfile.mkdtemp(prefix="repro-calibrate-")
    try:
        pack_table(table, storage_dir, scorer="score", page_size=64)
        store = open_store(storage_dir)
        storage_rows = len(store)

        def storage_case() -> object:
            store.clear_page_cache()
            return store.prefix(storage_rows)

        storage_s = _warm_seconds(storage_case, repeats)
    finally:
        shutil.rmtree(storage_dir, ignore_errors=True)

    dp_unit_ns = dp_s * 1e9 / dp_units
    k_combo_unit_ns = combo_s * 1e9 / combo_units
    state_unit_ns = state_s * 1e9 / state_units
    mc_world_row_ns = mc_s * 1e9 / mc_units
    prefix_row_ns = prefix_s * 1e9 / prefix_rows
    storage_row_ns = storage_s * 1e9 / storage_rows

    small_case_ns = small_case_ms * 1e6
    state_depth = 1
    while (
        state_depth < 24
        and (state_depth + 1) * 2 ** (state_depth + 1) * state_unit_ns
        <= small_case_ns
    ):
        state_depth += 1

    dp_native_unit_ns = (
        dp_native_s * 1e9 / dp_units
        if dp_native_s is not None
        else DEFAULT_DP_NATIVE_UNIT_NS
    )

    # The MC escape hatch prices exact work at the rate of the engine
    # the planner's DPs will run on.
    resolved_unit_ns = dp_unit_ns
    if kernels.dp_backend(DEFAULT_MAX_LINES) == "native":
        resolved_unit_ns = dp_native_unit_ns
    constants = {
        "mc_cost_budget": max(1, int(target_ms * 1e6 / resolved_unit_ns)),
        "k_combo_max_combinations": max(
            1, int(small_case_ns / k_combo_unit_ns)
        ),
        "state_expansion_max_depth": state_depth,
        "dp_unit_ns": round(dp_unit_ns, 3),
        "dp_native_unit_ns": round(dp_native_unit_ns, 3),
        "k_combo_unit_ns": round(k_combo_unit_ns, 3),
        "state_unit_ns": round(state_unit_ns, 3),
        "mc_world_row_ns": round(mc_world_row_ns, 3),
        "prefix_row_ns": round(prefix_row_ns, 3),
        "storage_row_ns": round(storage_row_ns, 3),
    }
    probes = {
        "prefix_s": prefix_s,
        "dp_s": dp_s,
        "k_combo_s": combo_s,
        "state_expansion_s": state_s,
        "mc_s": mc_s,
        "storage_s": storage_s,
    }
    if dp_native_s is not None:
        probes["dp_native_s"] = dp_native_s
    return {
        "schema": SCHEMA,
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "repeats": repeats,
            "target_ms": target_ms,
            "small_case_ms": small_case_ms,
        },
        "probes": probes,
        "backends": backends,
        "constants": constants,
    }


def write_calibration(
    document: dict[str, Any], path: str | Path | None = None
) -> Path:
    """Persist a calibration document; returns the written path."""
    target = Path(path) if path is not None else calibration_path()
    if target is None:
        raise ValueError(
            "calibration persistence is disabled (REPRO_CALIBRATION is "
            "empty); pass an explicit path"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2) + "\n")
    return target
