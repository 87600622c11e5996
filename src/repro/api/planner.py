"""The cost-based planner: logical → physical lowering and fusion.

The planner owns three decisions:

1. **Algorithm choice** (``algorithm="auto"``): pick the cheapest
   stage-2 operator from the problem shape, using the machine's
   :class:`~repro.api.calibration.CostModel` thresholds — exhaustive
   k-Combo while the combination count is trivial, StateExpansion on
   very short prefixes, the O(kmn) shared-prefix DP everywhere else,
   and the Monte-Carlo estimator once the exact-cost model exceeds
   the sampling budget (Figure 10's crossover, priced per machine).
2. **Lowering**: produce the :class:`~repro.api.physical.PhysicalPlan`
   operator tree — with per-operator cost estimates — that
   ``Session.execute``/``distribution`` run and ``EXPLAIN`` renders.
3. **Multi-query fusion** (:meth:`Planner.fuse`): given a batch of
   in-flight requests, merge the exact-DP requests over one
   ``(table, scorer, max_lines)`` into a single
   :class:`~repro.api.physical.FusedSweepOp` at the deepest prefix
   and largest ``k``, whose per-``(k, depth)`` slices are
   byte-identical to dedicated runs (see
   :func:`repro.core.dp.dp_distribution_sliced`).  Fusion is strictly
   opportunistic: a request joins a group only when slicing is
   *provably* byte-identical — same depth for independent prefixes,
   :func:`repro.core.dp.sliceable_depth` for mutual-exclusion
   prefixes — and everything else falls back to the ordinary
   per-request path.  Answers therefore never depend on what a
   request happened to be batched with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.api.calibration import CostModel, load_cost_model
from repro.api.logical import LogicalPlan
from repro.api.physical import (
    FusedSweepOp,
    MCSampleOp,
    PhysicalPlan,
    PMF_OPERATORS,
    ScorePrefixOp,
    SemanticsOp,
    SharedPrefixDPOp,
    StateExpansionOp,
    _PmfOp,
)
from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable


@dataclass(frozen=True)
class FusionCandidate:
    """One batch request the planner may fuse.

    :ivar index: the request's position in the submitted batch.
    :ivar fusion_key: the request's fusion group, as the session's
        planned request keys it: table (by identity), version, scorer
        and ``max_lines``.
    :ivar prefix: the request's own resolved stage-1 prefix.
    :ivar k: the request's top-k size.
    :ivar depth: ``len(prefix)`` (the request's own scan depth).
    :ivar has_me: whether the request's own prefix carries mutual
        exclusion (routes it to the forward sweep; independent
        prefixes use the bottom-up program and fuse per depth).
    """

    index: int
    fusion_key: Hashable
    prefix: ScoredTable
    k: int
    depth: int
    has_me: bool
    max_lines: int


@dataclass(frozen=True)
class FusionGroup:
    """Several batch requests served by one shared sweep."""

    anchor: ScoredTable
    op: FusedSweepOp
    members: tuple[FusionCandidate, ...]


class Planner:
    """Cost-calibrated logical→physical planner.

    :param cost_model: explicit constants; ``None`` loads the
        machine's persisted calibration (or the builtin defaults).
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self._model = cost_model

    @property
    def cost_model(self) -> CostModel:
        model = self._model
        if model is None:
            model = load_cost_model()
            self._model = model
        return model

    # ------------------------------------------------------------------
    # Algorithm choice
    # ------------------------------------------------------------------
    def choose_algorithm(
        self, n: int, k: int, depth: int | None = None, *, me_members: int = 0
    ) -> str:
        """Pick a concrete algorithm from the problem shape.

        ``n`` is the scanned prefix length (the effective input size
        after Theorem-2 truncation or an explicit ``depth`` override).
        The baselines are exponential in general but cheapest on tiny
        inputs (Figure 10): exhaustive k-Combo when there are only a
        handful of k-combinations, StateExpansion on very short
        prefixes, and the O(kn) dynamic program everywhere else —
        unless the exact-cost model exceeds the cost model's MC
        budget, in which case the Monte-Carlo estimator (sampled
        answers with confidence bounds) takes over.
        """
        model = self.cost_model
        size = n if depth is None else min(n, depth)
        if size < k:
            return "dp"  # no full vector exists; dp returns the empty PMF
        if math.comb(size, k) <= model.k_combo_max_combinations:
            return "k_combo"
        if size <= model.state_expansion_max_depth:
            return "state_expansion"
        if exact_cost(size, k, me_members) > model.mc_cost_budget:
            return "mc"
        # "dp" is the shared-prefix engine: on mutual-exclusion inputs
        # it realizes the Section-3.3.3 O(kmn) bound.
        return "dp"

    def resolve_algorithm(self, spec, n: int, *, me_members: int = 0) -> str:
        """The concrete algorithm a spec runs over a length-``n`` prefix."""
        if spec.algorithm == "auto":
            return self.choose_algorithm(
                n, spec.k, spec.depth, me_members=me_members
            )
        return spec.algorithm

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def lower(
        self,
        logical: LogicalPlan,
        prefix: ScoredTable,
        *,
        table_rows: int,
        include_semantics: bool = True,
        storage: str = "ram",
    ) -> PhysicalPlan:
        """Lower a logical plan over a resolved stage-1 prefix.

        :param table_rows: the unresolved table's row count (stage-1
            cost input).
        :param include_semantics: ``False`` for raw ``distribution``
            runs, which stop after stage 2.
        :param storage: where stage 1 reads from — ``"ram"`` (score
            and sort the resident relation) or ``"disk"`` (stream the
            pre-ranked prefix of a packed table); prices the prefix
            operator accordingly.
        """
        spec = logical.spec
        n = len(prefix)
        me_members = prefix.me_member_count()
        algorithm = self.resolve_algorithm(spec, n, me_members=me_members)
        prefix_op = ScorePrefixOp(
            k=spec.k,
            p_tau=spec.p_tau,
            depth=spec.depth,
            rows_in=table_rows,
            rows_out=n,
            storage=storage,
        )
        requires = logical.requires
        if include_semantics:
            # Variant-aware: an algorithm variant of the semantics may
            # consume a different stage than the default registration.
            from repro.api.registry import get_semantics

            requires = get_semantics(spec.semantics, algorithm).requires
        needs_pmf = not include_semantics or requires != "prefix"
        pmf_op: _PmfOp | None = None
        if needs_pmf:
            op_type = PMF_OPERATORS.get(algorithm)
            if op_type is None:
                raise AlgorithmError(f"unknown algorithm {algorithm!r}")
            common = {"k": spec.k, "n": n, "max_lines": spec.max_lines}
            if op_type is SharedPrefixDPOp:
                pmf_op = SharedPrefixDPOp(**common, me_members=me_members)
            elif op_type is StateExpansionOp:
                pmf_op = StateExpansionOp(**common, p_tau=spec.p_tau)
            elif op_type is MCSampleOp:
                pmf_op = MCSampleOp(
                    **common,
                    epsilon=spec.epsilon,
                    confidence=spec.confidence,
                    samples=spec.samples,
                    seed=spec.seed,
                )
            else:
                pmf_op = op_type(**common)
        semantics_op = None
        if include_semantics:
            params: tuple[tuple[str, object], ...] = ()
            if spec.semantics == "typical":
                params = (("c", spec.c),)
            elif spec.semantics == "pt_k":
                params = (("threshold", spec.threshold),)
            semantics_op = SemanticsOp(
                semantics=spec.semantics,
                algorithm=algorithm,
                requires=requires,
                params=params,
            )
        notes: tuple[str, ...] = ()
        if spec.algorithm == "auto":
            notes = (f"algorithm resolved by cost model: {algorithm}",)
        return PhysicalPlan(
            logical=logical,
            algorithm=algorithm,
            prefix_op=prefix_op,
            pmf_op=pmf_op,
            semantics_op=semantics_op,
            notes=notes,
        )

    # ------------------------------------------------------------------
    # Multi-query fusion
    # ------------------------------------------------------------------
    def fuse(
        self, candidates: Sequence[FusionCandidate]
    ) -> list[FusionGroup]:
        """Merge fusable exact-DP requests into shared sweeps.

        Candidates must already resolve to ``algorithm="dp"`` with an
        uncached PMF (the caller filters).  Returns only groups that
        actually save work (two or more distinct ``(k, depth)``
        slices, or several requests sharing one slice).
        """
        from repro.core.dp import sliceable_depth

        buckets: dict[Hashable, list[FusionCandidate]] = {}
        for candidate in candidates:
            buckets.setdefault(candidate.fusion_key, []).append(candidate)

        groups: list[FusionGroup] = []
        for bucket in buckets.values():
            me = [c for c in bucket if c.has_me]
            independent = [c for c in bucket if not c.has_me]

            # Independent prefixes: the bottom-up program slices per
            # column, so only equal-depth requests share a sweep.
            by_depth: dict[int, list[FusionCandidate]] = {}
            for candidate in independent:
                by_depth.setdefault(candidate.depth, []).append(candidate)
            for same_depth in by_depth.values():
                self._emit(groups, same_depth[0].prefix, same_depth)

            # Mutual-exclusion prefixes: the forward sweep slices any
            # (k, depth) whose prefix sees the same rule-tuple
            # structure; anchor at the deepest, regroup the rest.
            remaining = sorted(me, key=lambda c: -c.depth)
            while remaining:
                anchor = remaining[0]
                taken = [
                    c
                    for c in remaining
                    if c.depth == anchor.depth
                    or sliceable_depth(anchor.prefix, c.depth)
                ]
                remaining = [c for c in remaining if c not in taken]
                self._emit(groups, anchor.prefix, taken)
        return groups

    def _emit(
        self,
        groups: list[FusionGroup],
        anchor: ScoredTable,
        members: list[FusionCandidate],
    ) -> None:
        requests = tuple(
            sorted({(c.k, c.depth) for c in members})
        )
        if len(requests) < 2:
            # A single distinct slice gains nothing over the ordinary
            # path (duplicates already share its cache entry).
            return
        op = FusedSweepOp(requests=requests, max_lines=members[0].max_lines)
        groups.append(
            FusionGroup(anchor=anchor, op=op, members=tuple(members))
        )


def exact_cost(n: int, k: int, me_members: int = 0) -> int:
    """Cost-model units of the exact shared-prefix DP: O(k·n·(m+1)).

    ``m`` is the number of tuples sharing an ME group with another
    tuple (the Section-3.3.3 bound); independent prefixes cost O(kn).
    """
    return k * n * (me_members + 1)


#: The process-wide planner (lazy calibration load).  Sessions may be
#: built with their own planner/cost model; everything else shares
#: this one.
DEFAULT_PLANNER = Planner()
