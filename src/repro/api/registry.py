"""The pluggable answer-semantics registry.

The paper's central observation is that one computed score
distribution (or one scored prefix) serves many *answer semantics*:
the paper's own c-Typical-Topk, and the rival semantics it compares
against (U-Topk, U-kRanks, PT-k, Global-Topk, expected ranks).  This
module gives them all one uniform shape so sessions, the CLI and the
query layer can dispatch by name:

    run(prefix: ScoredTable, spec: QuerySpec) -> Answer

Handlers declare which pipeline stage they consume:

* ``requires="prefix"`` — the handler works directly on the scored,
  truncated prefix (the marginal semantics and U-Topk);
* ``requires="pmf"`` — the handler consumes the top-k score
  distribution (typical answers, the distribution itself); a
  :class:`~repro.api.session.Session` hands such handlers its cached
  :class:`~repro.core.pmf.ScorePMF` so that e.g. changing only ``c``
  never re-runs the dynamic program.

Register your own semantics with the decorator::

    from repro.api import register_semantics

    @register_semantics("expected_score")
    def _expected_score(prefix, spec):
        ...

and any session (and the ``repro answer`` CLI command) can run it.

A semantics may additionally register *algorithm variants*: an
implementation dispatched only when the session's planner resolves a
specific concrete algorithm.  The Monte-Carlo engine registers one for
every built-in prefix semantics under ``algorithm="mc"``
(:mod:`repro.mc.semantics`), so ``spec.with_(algorithm="mc")`` — or
the planner's own exact-cost escape hatch — transparently swaps the
exact implementations for sampled estimates::

    @register_semantics("u_topk", algorithm="mc")
    def _u_topk_mc(prefix, spec):
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable

#: The two pipeline stages a handler may consume.
_STAGES = ("prefix", "pmf")


@dataclass(frozen=True)
class SemanticsHandler:
    """One registered answer semantics.

    :ivar name: registry name (e.g. ``"typical"``).
    :ivar fn: the implementation; receives ``(prefix, spec)`` when
        ``requires == "prefix"`` and ``(pmf, spec)`` when
        ``requires == "pmf"``.
    :ivar requires: the pipeline stage consumed.
    :ivar description: one-line human description (CLI help).
    :ivar algorithm: ``None`` for the default implementation, or the
        concrete algorithm name this variant is dispatched under.
    """

    name: str
    fn: Callable[..., Any]
    requires: str = "prefix"
    description: str = ""
    algorithm: str | None = None

    def run(
        self,
        prefix: ScoredTable,
        spec,
        *,
        pmf=None,
    ) -> Any:
        """Execute the semantics over a scored prefix.

        ``pmf`` lets a caller that already holds the prefix's score
        distribution (a session cache) pass it in; when the handler
        requires the PMF and none is given, it is computed on the fly.
        """
        if self.requires == "pmf":
            if pmf is None:
                from repro.api.plan import distribution_from_prefix

                pmf = distribution_from_prefix(prefix, spec)
            return self.fn(pmf, spec)
        return self.fn(prefix, spec)


_REGISTRY: dict[str, SemanticsHandler] = {}

#: Algorithm-specific variants, keyed by ``(name, algorithm)``.
_VARIANTS: dict[tuple[str, str], SemanticsHandler] = {}


def register_semantics(
    name: str,
    *,
    requires: str = "prefix",
    description: str = "",
    replace: bool = False,
    algorithm: str | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class-decorator factory registering an answer semantics.

    :param name: registry name; lookups are exact.
    :param requires: ``"prefix"`` or ``"pmf"`` (the stage consumed).
    :param description: one-line description shown by the CLI.
    :param replace: allow overwriting an existing registration.
    :param algorithm: register an *algorithm variant* instead of the
        default implementation; it is dispatched only when a session
        resolves that concrete algorithm for a spec.
    """
    if requires not in _STAGES:
        raise AlgorithmError(
            f"requires must be one of {_STAGES}, got {requires!r}"
        )
    if not isinstance(name, str) or not name:
        raise AlgorithmError(f"semantics name must be non-empty, got {name!r}")

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        doc_line = description
        if not doc_line and fn.__doc__:
            doc_line = fn.__doc__.strip().splitlines()[0]
        handler = SemanticsHandler(
            name=name,
            fn=fn,
            requires=requires,
            description=doc_line,
            algorithm=algorithm,
        )
        if algorithm is None:
            if name in _REGISTRY and not replace:
                raise AlgorithmError(
                    f"semantics {name!r} is already registered; pass "
                    "replace=True to overwrite"
                )
            _REGISTRY[name] = handler
        else:
            key = (name, algorithm)
            if key in _VARIANTS and not replace:
                raise AlgorithmError(
                    f"semantics {name!r} already has an {algorithm!r} "
                    "variant; pass replace=True to overwrite"
                )
            _VARIANTS[key] = handler
        return fn

    return decorate


def get_semantics(
    name: str, algorithm: str | None = None
) -> SemanticsHandler:
    """Look up a handler; raises :class:`AlgorithmError` if missing.

    :param algorithm: the resolved concrete algorithm; when a variant
        is registered for ``(name, algorithm)`` it wins, otherwise the
        default implementation is returned.
    """
    if algorithm is not None:
        variant = _VARIANTS.get((name, algorithm))
        if variant is not None:
            return variant
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise AlgorithmError(
            f"unknown semantics {name!r}; registered: {known}"
        ) from None


def available_semantics() -> tuple[str, ...]:
    """Registered semantics names, sorted."""
    return tuple(sorted(_REGISTRY))


def unregister_semantics(name: str, algorithm: str | None = None) -> None:
    """Remove a registration (primarily for tests and plugins).

    Without ``algorithm``, the default implementation *and* every
    variant of ``name`` are removed; with it, only that variant.
    """
    if algorithm is not None:
        _VARIANTS.pop((name, algorithm), None)
        return
    _REGISTRY.pop(name, None)
    for key in [k for k in _VARIANTS if k[0] == name]:
        _VARIANTS.pop(key, None)
