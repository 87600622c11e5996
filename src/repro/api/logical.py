"""The logical plan: one :class:`~repro.api.spec.QuerySpec`, normalized.

A :class:`LogicalPlan` is the planner's view of a request — the spec's
knobs reduced to hashable, canonical form, plus the stage DAG the
request flows through:

    resolve table ── score/rank/truncate ──┬── pmf ── semantics
                                           └────────  semantics
                                         (prefix-consuming semantics)

Every cache and grouping key in the system derives from this one
normalization, so the service's batch grouping and the Session's LRU
keys can never drift apart:

* :meth:`LogicalPlan.prefix_params` — the stage-1 key tail;
* :meth:`LogicalPlan.pmf_params` — the stage-2 key tail (the
  Monte-Carlo knobs participate exactly when the resolved algorithm
  is ``"mc"``, in one canonical order);
* :meth:`LogicalPlan.answer_params` — the stage-3 key tail;
* :meth:`LogicalPlan.batch_key` — the service's micro-batch grouping
  key (requests sharing it share pipeline stages).

The Session composes these parameter tails with the resolved *objects*
(table, prefix, PMF — hashed by identity), which is what keeps cache
entries from leaking across re-registered tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.api.spec import QuerySpec
from repro.uncertain.table import UncertainTable


class ByIdentity:
    """Hashable identity wrapper for unhashable key components.

    Holds a strong reference, so the wrapped object cannot be
    collected and its ``id`` recycled while the key is alive.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ByIdentity) and other.obj is self.obj

    def __repr__(self) -> str:
        return f"ByIdentity({type(self.obj).__name__}@{id(self.obj):#x})"


def hashable(value: Any) -> Hashable:
    """``value`` if hashable, else an identity wrapper."""
    try:
        hash(value)
    except TypeError:
        return ByIdentity(value)
    return value


@dataclass(frozen=True)
class LogicalPlan:
    """A spec normalized into the planner's canonical form.

    :ivar spec: the originating (already validated) spec.
    :ivar table_key: hashable table reference — the catalog name, or
        an identity wrapper around an in-memory table.
    :ivar scorer_key: hashable scorer reference — the attribute name,
        or an identity wrapper around the callable.
    :ivar mc: the Monte-Carlo knobs in canonical order
        ``(epsilon, confidence, samples, seed)``.
    :ivar requires: the stage the semantics consumes (``"prefix"`` or
        ``"pmf"``), or ``None`` when the semantics is not registered
        (execution will raise; planning still describes the request).
    """

    spec: QuerySpec
    table_key: Hashable
    scorer_key: Hashable
    mc: tuple
    requires: str | None

    @classmethod
    def from_spec(cls, spec: QuerySpec) -> "LogicalPlan":
        """Normalize a spec (pure; no catalog access)."""
        table_key = (
            ByIdentity(spec.table)
            if isinstance(spec.table, UncertainTable)
            else spec.table
        )
        requires: str | None
        try:
            from repro.api.registry import get_semantics

            requires = get_semantics(spec.semantics).requires
        except Exception:
            requires = None
        return cls(
            spec=spec,
            table_key=table_key,
            scorer_key=hashable(spec.scorer),
            mc=(spec.epsilon, spec.confidence, spec.samples, spec.seed),
            requires=requires,
        )

    # ------------------------------------------------------------------
    # Stage DAG
    # ------------------------------------------------------------------
    def stages(self) -> tuple[str, ...]:
        """The pipeline stages this request flows through, in order."""
        if self.requires == "prefix":
            return ("resolve", "prefix", "semantics")
        return ("resolve", "prefix", "pmf", "semantics")

    # ------------------------------------------------------------------
    # Key derivation (the single source shared by Session and service)
    # ------------------------------------------------------------------
    def mc_params(self, algorithm: str) -> tuple:
        """The MC knob tail: non-empty exactly under ``"mc"``.

        Exact-algorithm entries deliberately exclude the sampling
        knobs, so they are shared across specs differing only in a
        knob.
        """
        return self.mc if algorithm == "mc" else ()

    def prefix_params(self) -> tuple:
        """Stage-1 key tail (composed with the resolved table)."""
        spec = self.spec
        return (self.scorer_key, spec.k, spec.p_tau, spec.depth)

    def pmf_params(self, algorithm: str) -> tuple:
        """Stage-2 key tail (composed with the prefix object).

        :param algorithm: the *resolved* concrete algorithm.
        """
        spec = self.spec
        return (
            spec.k,
            algorithm,
            spec.max_lines,
            spec.p_tau,
        ) + self.mc_params(algorithm)

    def answer_params(self, algorithm: str) -> tuple:
        """Stage-3 key tail (composed with the consumed stage object)."""
        spec = self.spec
        return (
            algorithm,
            spec.semantics,
            spec.k,
            spec.c,
            spec.threshold,
        ) + self.mc_params(algorithm)

    def batch_key(self) -> Hashable:
        """The service grouping key: requests sharing it share stages.

        ``(table, p_tau, algorithm)`` plus — under ``"mc"`` — the
        sampling knobs in canonical order, since MC requests with
        different knobs share neither estimates nor cache entries.
        """
        spec = self.spec
        return (
            self.table_key,
            spec.p_tau,
            spec.algorithm,
        ) + self.mc_params(spec.algorithm)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-ready summary (the ``logical`` section of EXPLAIN)."""
        spec = self.spec
        document: dict[str, Any] = {
            "table": (
                spec.table
                if isinstance(spec.table, str)
                else (
                    f"<{getattr(spec.table, 'storage_kind', 'in-memory')}"
                    f" table {getattr(spec.table, 'name', '')!r}>"
                )
            ),
            "scorer": (
                spec.scorer
                if isinstance(spec.scorer, str)
                else f"<callable {getattr(spec.scorer, '__name__', '?')}>"
            ),
            "k": spec.k,
            "semantics": spec.semantics,
            "requires": self.requires,
            "stages": list(self.stages()),
            "p_tau": spec.p_tau,
            "max_lines": spec.max_lines,
            "algorithm": spec.algorithm,
        }
        if spec.depth is not None:
            document["depth"] = spec.depth
        if spec.semantics == "typical":
            document["c"] = spec.c
        if spec.semantics == "pt_k":
            document["threshold"] = spec.threshold
        if spec.algorithm == "mc":
            document["mc"] = {
                "epsilon": spec.epsilon,
                "confidence": spec.confidence,
                "samples": spec.samples,
                "seed": spec.seed,
            }
        return document
