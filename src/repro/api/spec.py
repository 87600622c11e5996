"""The :class:`QuerySpec`: one frozen value describing a top-k request.

Every knob the paper's algorithms expose — the table, the scoring
function, ``k``, the Theorem-2 threshold ``p_tau``, the coalescing
budget ``max_lines``, the Section-3 algorithm, an explicit scan-depth
override — plus the *answer semantics* to apply (c-Typical-Topk, or
any of the registered rival semantics) and its parameters (``c``,
PT-k's ``threshold``).

A spec validates itself on construction, so an invalid combination
fails fast and with the same exception types the underlying layers
raise.  Specs are immutable; derive variations with :meth:`~QuerySpec.with_`::

    spec = QuerySpec(table="soldiers", scorer="score", k=2, p_tau=0.0)
    spec5 = spec.with_(c=5)            # same plan, different c
    rival = spec.with_(semantics="u_topk")

Because a spec is a plain frozen value, the :class:`~repro.api.session.Session`
can derive *stage keys* from it: two specs that differ only in ``c``
share a score-distribution cache entry, and two that differ only in
``semantics`` share a scored-prefix entry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

from repro.core.distribution import ALGORITHMS, DEFAULT_P_TAU, ScorerLike
from repro.core.dp import DEFAULT_MAX_LINES
from repro.exceptions import AlgorithmError, InvalidProbabilityError
from repro.uncertain.table import UncertainTable

#: Algorithm names accepted by a spec: the Section-3 exact algorithms,
#: the Monte-Carlo estimator ``"mc"``, and ``"auto"``, which lets the
#: planner pick from the problem shape (including the exact-cost
#: escape hatch to ``"mc"``).
SPEC_ALGORITHMS = ("auto", "mc") + ALGORITHMS

#: Default number of typical answers (matches the query layer's
#: ``WITH TYPICAL`` default and the paper's running ``c = 3``).
DEFAULT_C = 3

#: Default PT-k membership threshold.
DEFAULT_THRESHOLD = 0.5

#: Default Monte-Carlo CI confidence level.
DEFAULT_MC_CONFIDENCE = 0.95

#: A table reference: a catalog name, or an in-memory table directly.
TableRef = Union[str, UncertainTable]


@dataclass(frozen=True)
class QuerySpec:
    """A complete, validated description of one top-k request.

    :ivar table: catalog table name, or an :class:`UncertainTable`.
    :ivar scorer: scoring callable or numeric attribute name.
    :ivar k: top-k size (>= 1).
    :ivar semantics: registered answer semantics name
        (see :mod:`repro.api.registry`); default ``"typical"``.
    :ivar c: number of typical answers for ``"typical"`` (>= 1).
    :ivar threshold: membership threshold for ``"pt_k"``, in (0, 1].
    :ivar p_tau: Theorem-2 truncation threshold, in [0, 1); 0 scans
        the full table.
    :ivar max_lines: line-coalescing budget (>= 1).
    :ivar algorithm: ``"auto"``, ``"mc"`` or one of the Section-3
        algorithms.
    :ivar depth: explicit scan-depth override (``None`` = Theorem 2).
    :ivar epsilon: MC target CI half-width ±ε (``None`` = the engine
        default); only consulted when ``"mc"`` runs.
    :ivar confidence: MC confidence level, in (0, 1).
    :ivar samples: explicit MC world count (disables adaptive
        sample-size control); ``None`` = adaptive.
    :ivar seed: MC sampling seed (estimates are deterministic per seed).
    """

    table: TableRef
    scorer: ScorerLike
    k: int
    semantics: str = "typical"
    c: int = DEFAULT_C
    threshold: float = DEFAULT_THRESHOLD
    p_tau: float = DEFAULT_P_TAU
    max_lines: int = DEFAULT_MAX_LINES
    algorithm: str = "auto"
    depth: int | None = None
    epsilon: float | None = None
    confidence: float = DEFAULT_MC_CONFIDENCE
    samples: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.table, UncertainTable) and not (
            isinstance(self.table, str) and self.table
        ):
            raise AlgorithmError(
                "table must be a non-empty catalog name or an "
                f"UncertainTable, got {self.table!r}"
            )
        if not callable(self.scorer) and not isinstance(self.scorer, str):
            raise AlgorithmError(
                "scorer must be callable or an attribute name, got "
                f"{self.scorer!r}"
            )
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise AlgorithmError(f"k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.semantics, str) or not self.semantics:
            raise AlgorithmError(
                f"semantics must be a non-empty name, got {self.semantics!r}"
            )
        if not isinstance(self.c, int) or isinstance(self.c, bool) or self.c < 1:
            raise AlgorithmError(f"c must be an integer >= 1, got {self.c!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise InvalidProbabilityError(
                f"threshold must be in (0, 1], got {self.threshold!r}"
            )
        if not 0.0 <= self.p_tau < 1.0:
            raise InvalidProbabilityError(
                f"p_tau must be in [0, 1), got {self.p_tau!r}"
            )
        if not isinstance(self.max_lines, int) or self.max_lines < 1:
            raise AlgorithmError(
                f"max_lines must be an integer >= 1, got {self.max_lines!r}"
            )
        if self.algorithm not in SPEC_ALGORITHMS:
            raise AlgorithmError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{SPEC_ALGORITHMS}"
            )
        if self.depth is not None and (
            not isinstance(self.depth, int) or self.depth < 0
        ):
            raise AlgorithmError(
                f"depth must be None or an integer >= 0, got {self.depth!r}"
            )
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise AlgorithmError(
                f"epsilon must be None or > 0, got {self.epsilon!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise InvalidProbabilityError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        if self.samples is not None and (
            not isinstance(self.samples, int)
            or isinstance(self.samples, bool)
            or self.samples < 1
        ):
            raise AlgorithmError(
                f"samples must be None or an integer >= 1, got "
                f"{self.samples!r}"
            )
        if (
            not isinstance(self.seed, int)
            or isinstance(self.seed, bool)
            or self.seed < 0
        ):
            raise AlgorithmError(
                f"seed must be an integer >= 0, got {self.seed!r}"
            )

    def with_(self, **changes) -> "QuerySpec":
        """A copy with ``changes`` applied (and re-validated).

        >>> base = QuerySpec(table="t", scorer="score", k=2)
        >>> base.with_(c=5).c
        5
        >>> base.with_(c=5) == base
        False
        >>> base.with_() == base
        True
        """
        return dataclasses.replace(self, **changes)

    def to_jsonable(self) -> dict:
        """The spec as a JSON-ready field mapping (defaults omitted).

        Only representable for *named* specs — a catalog-name table
        and an attribute-name scorer — which is exactly what service
        clients submit; the durable subscription manifest
        round-trips these through :meth:`from_jsonable`.
        """
        if not isinstance(self.table, str):
            raise AlgorithmError(
                "only specs over a named catalog table are serializable"
            )
        if not isinstance(self.scorer, str):
            raise AlgorithmError(
                "only specs with an attribute-name scorer are serializable"
            )
        document = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if (
                field.default is not dataclasses.MISSING
                and value == field.default
            ):
                continue
            document[field.name] = value
        return document

    @classmethod
    def from_jsonable(cls, document: dict) -> "QuerySpec":
        """Rebuild a spec serialized by :meth:`to_jsonable`."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise AlgorithmError(f"unknown spec fields: {unknown}")
        return cls(**document)

    def mc_params(self) -> tuple:
        """The Monte-Carlo estimation knobs (the MC engine's sample-set
        key), ordered like :attr:`repro.api.logical.LogicalPlan.mc`."""
        return (self.epsilon, self.confidence, self.samples, self.seed)
