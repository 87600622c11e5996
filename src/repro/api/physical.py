"""Physical operators: the executable lowering of a logical plan.

A :class:`PhysicalPlan` is an operator tree the
:class:`~repro.api.planner.Planner` produces from a
:class:`~repro.api.logical.LogicalPlan` once the stage-1 prefix shape
(``n``, ``k``, the mutual-exclusion member count ``m``) is known:

    ScorePrefixOp ── <pmf op> ── SemanticsOp

where the pmf operator is one of

* :class:`SharedPrefixDPOp` — the Section-3.3.3 forward sweep (the
  production exact engine; O(kmn));
* :class:`KComboOp` — exhaustive k-combination enumeration;
* :class:`StateExpansionOp` — the possible-states baseline;
* :class:`MCSampleOp` — the vectorized Monte-Carlo estimator;

or absent entirely for prefix-consuming semantics (U-Topk, PT-k, …).
:class:`FusedSweepOp` is the batch-fusion operator: one shared-prefix
sweep serving several ``(k, depth)`` slices
(:func:`repro.core.dp.dp_distribution_sliced`).

Stage 1 (:class:`ScorePrefixOp`) is priced and rendered here but run
by the Session, which truncates its cached sort of the table; the
other operators execute through the stage-function namespace of
:mod:`repro.api.plan` (one patchable seam for tests and plugins), so a
plan's answers are byte-identical to the pre-planner engine.  Each
operator prices itself in machine-independent *cost units*; the
planner's :class:`~repro.api.calibration.CostModel` turns units into
per-machine time estimates for EXPLAIN.

Adding a new stage-2 operator is four steps (see CONTRIBUTING.md):
subclass :class:`_PmfOp` with ``run``/``cost_units``/``unit_ns``/
``describe``, map an algorithm name to it in ``PMF_OPERATORS``, build
it in :meth:`~repro.api.planner.Planner.lower` when it needs more
than ``k``/``n``/``max_lines``, and add the name to
:data:`repro.core.distribution.ALGORITHMS` so specs accept it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.api.logical import LogicalPlan
from repro.core import kernels
from repro.core.pmf import ScorePMF
from repro.uncertain.scoring import ScoredTable

#: Exponent cap for state-space unit counts (keeps them finite).
_MAX_STATE_EXPONENT = 60


@dataclass(frozen=True)
class PhysicalOp:
    """One executable operator of a physical plan."""

    name = "PhysicalOp"

    def cost_units(self) -> float:
        """Machine-independent work estimate (operator-family units)."""
        raise NotImplementedError

    def unit_ns(self, model) -> float:
        """The cost-model rate this operator's units are priced at."""
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """JSON-ready parameters (the EXPLAIN node body)."""
        raise NotImplementedError

    def explain(self, model) -> dict[str, Any]:
        """The full EXPLAIN node: name, parameters, cost estimates."""
        units = self.cost_units()
        return {
            "op": self.name,
            "params": self.describe(),
            "cost_units": round(units, 1),
            "est_ms": model.est_ms(units, self.unit_ns(model)),
        }


@dataclass(frozen=True)
class ScorePrefixOp(PhysicalOp):
    """Stage 1: score, rank-order and Theorem-2-truncate the table.

    ``storage`` records where the rows come from: ``"ram"`` scores and
    sorts the resident relation (cost tracks ``rows_in``), ``"disk"``
    streams the pre-ranked prefix pages of a packed table (cost tracks
    ``rows_out`` — the scan-depth pushdown's whole point).
    """

    name = "ScorePrefixOp"
    k: int = 0
    p_tau: float = 0.0
    depth: int | None = None
    rows_in: int = 0
    rows_out: int = 0
    storage: str = "ram"

    def cost_units(self) -> float:
        if self.storage == "disk":
            return float(self.rows_out)
        return float(self.rows_in)

    def unit_ns(self, model) -> float:
        if self.storage == "disk":
            return model.storage_row_ns
        return model.prefix_row_ns

    def describe(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "k": self.k,
            "p_tau": self.p_tau,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
        }
        if self.depth is not None:
            document["depth"] = self.depth
        if self.storage != "ram":
            document["storage"] = self.storage
        return document


@dataclass(frozen=True)
class _PmfOp(PhysicalOp):
    """Shared shape of the stage-2 (score-distribution) operators."""

    k: int = 0
    n: int = 0
    max_lines: int = 0

    def run(self, prefix: ScoredTable, spec) -> ScorePMF:
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        return {"k": self.k, "n": self.n, "max_lines": self.max_lines}


@dataclass(frozen=True)
class SharedPrefixDPOp(_PmfOp):
    """The O(kmn) shared-prefix dynamic program (``algorithm="dp"``)."""

    name = "SharedPrefixDPOp"
    me_members: int = 0

    def run(self, prefix: ScoredTable, spec) -> ScorePMF:
        from repro.api import plan as stages

        return stages.dp_distribution(
            prefix, self.k, max_lines=self.max_lines
        )

    def cost_units(self) -> float:
        from repro.api.plan import exact_cost

        return float(exact_cost(self.n, self.k, self.me_members))

    def native(self) -> bool:
        """Whether the compiled kernel runs this DP (asked by EXPLAIN
        only, so lowering a read never looks the engine up)."""
        return kernels.dp_backend(self.max_lines) == "native"

    def unit_ns(self, model) -> float:
        if self.native():
            return model.dp_native_unit_ns
        return model.dp_unit_ns

    def describe(self) -> dict[str, Any]:
        document = {**super().describe(), "me_members": self.me_members}
        if self.native():
            document["backend"] = "native"
        return document


@dataclass(frozen=True)
class KComboOp(_PmfOp):
    """Exhaustive k-combination enumeration (``algorithm="k_combo"``)."""

    name = "KComboOp"

    def run(self, prefix: ScoredTable, spec) -> ScorePMF:
        from repro.api import plan as stages

        return stages.k_combo_distribution(
            prefix, self.k, max_lines=self.max_lines
        )

    def cost_units(self) -> float:
        if self.n < self.k:
            return 0.0
        # Capped: C(n, k) exceeds float range long before anyone would
        # actually run the enumeration, and EXPLAIN must not crash on
        # an explicitly-requested k_combo over a large prefix.
        return float(min(math.comb(self.n, self.k), 10**18))

    def unit_ns(self, model) -> float:
        return model.k_combo_unit_ns

    def describe(self) -> dict[str, Any]:
        return {
            **super().describe(),
            "combinations": int(self.cost_units()),
        }


@dataclass(frozen=True)
class StateExpansionOp(_PmfOp):
    """The possible-states baseline (``algorithm="state_expansion"``)."""

    name = "StateExpansionOp"
    p_tau: float = 0.0

    def run(self, prefix: ScoredTable, spec) -> ScorePMF:
        from repro.api import plan as stages

        return stages.state_expansion_distribution(
            prefix, self.k, p_tau=self.p_tau, max_lines=self.max_lines
        )

    def cost_units(self) -> float:
        return float(
            self.n * 2 ** min(self.n, _MAX_STATE_EXPONENT)
        )

    def unit_ns(self, model) -> float:
        return model.state_unit_ns

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "p_tau": self.p_tau}


@dataclass(frozen=True)
class MCSampleOp(_PmfOp):
    """The vectorized Monte-Carlo estimator (``algorithm="mc"``)."""

    name = "MCSampleOp"
    epsilon: float | None = None
    confidence: float = 0.95
    samples: int | None = None
    seed: int = 0

    def run(self, prefix: ScoredTable, spec) -> ScorePMF:
        from repro.api import plan as stages

        return stages.mc_distribution(prefix, spec)

    def planned_samples(self) -> int:
        """Worlds the engine will draw (fixed, or the a-priori cap)."""
        if self.samples is not None:
            return self.samples
        from repro.mc.confidence import hoeffding_sample_size
        from repro.mc.engine import DEFAULT_EPSILON, DEFAULT_MAX_SAMPLES

        epsilon = self.epsilon if self.epsilon is not None else DEFAULT_EPSILON
        split = 1.0 - (1.0 - self.confidence) / 2.0
        return min(
            DEFAULT_MAX_SAMPLES, hoeffding_sample_size(epsilon, split)
        )

    def cost_units(self) -> float:
        return float(self.planned_samples() * max(1, self.n))

    def unit_ns(self, model) -> float:
        return model.mc_world_row_ns

    def describe(self) -> dict[str, Any]:
        return {
            **super().describe(),
            "epsilon": self.epsilon,
            "confidence": self.confidence,
            "samples": self.samples,
            "planned_samples": self.planned_samples(),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class FusedSweepOp:
    """One shared sweep serving several ``(k, depth)`` slices.

    The batch-fusion operator: requests over one table/scorer whose
    exact DP can be sliced byte-identically run as a single
    :func:`repro.core.dp.dp_distribution_sliced` call at the deepest
    prefix and largest ``k``.  Fusion always pays (one sweep instead
    of several), so the planner never prices it and EXPLAIN, which
    renders single requests, never shows it.
    """

    requests: tuple[tuple[int, int], ...] = ()
    max_lines: int = 0

    def run(self, scored: ScoredTable) -> list[ScorePMF]:
        from repro.api import plan as stages

        return stages.dp_distribution_sliced(
            scored, self.requests, max_lines=self.max_lines
        )


@dataclass(frozen=True)
class SemanticsOp(PhysicalOp):
    """Stage 3: apply the registered answer semantics."""

    name = "SemanticsOp"
    semantics: str = ""
    algorithm: str = ""
    requires: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def run(self, prefix: ScoredTable, spec, *, pmf: ScorePMF | None) -> Any:
        from repro.api.registry import get_semantics

        return get_semantics(self.semantics, self.algorithm).run(
            prefix, spec, pmf=pmf
        )

    def cost_units(self) -> float:
        return 0.0

    def unit_ns(self, model) -> float:
        return 0.0

    def explain(self, model) -> dict[str, Any]:
        return {"op": self.name, "params": self.describe()}

    def describe(self) -> dict[str, Any]:
        return {
            "semantics": self.semantics,
            "algorithm": self.algorithm,
            "requires": self.requires,
            **dict(self.params),
        }


#: Stage-2 operator per concrete algorithm name.
PMF_OPERATORS: dict[str, type[_PmfOp]] = {
    "dp": SharedPrefixDPOp,
    "k_combo": KComboOp,
    "state_expansion": StateExpansionOp,
    "mc": MCSampleOp,
}


@dataclass(frozen=True)
class PhysicalPlan:
    """A lowered, executable plan for one request.

    :ivar logical: the normalized request.
    :ivar algorithm: the resolved concrete algorithm.
    :ivar prefix_op: stage 1.
    :ivar pmf_op: stage 2, or ``None`` for prefix-consuming semantics.
    :ivar semantics_op: stage 3 (absent for raw ``distribution`` runs
        driven through :meth:`~repro.api.session.Session.distribution`).
    """

    logical: LogicalPlan
    algorithm: str
    prefix_op: ScorePrefixOp
    pmf_op: _PmfOp | None = None
    semantics_op: SemanticsOp | None = None
    notes: tuple[str, ...] = field(default=())

    def operators(self) -> Sequence[PhysicalOp]:
        ops: list[PhysicalOp] = [self.prefix_op]
        if self.pmf_op is not None:
            ops.append(self.pmf_op)
        if self.semantics_op is not None:
            ops.append(self.semantics_op)
        return ops

    def cost_units(self) -> float:
        return sum(op.cost_units() for op in self.operators())

    def explain(self, model) -> dict[str, Any]:
        """The ``physical`` section of an EXPLAIN document."""
        nodes = [op.explain(model) for op in self.operators()]
        total_ms = sum(node.get("est_ms", 0.0) for node in nodes)
        document: dict[str, Any] = {
            "algorithm": self.algorithm,
            "operators": nodes,
            "total_cost_units": round(self.cost_units(), 1),
            "total_est_ms": round(total_ms, 4),
        }
        notes = list(self.notes)
        if isinstance(self.pmf_op, SharedPrefixDPOp) and self.pmf_op.native():
            notes.append("dp backend: native (compiled kernel)")
        if notes:
            document["notes"] = notes
        return document
