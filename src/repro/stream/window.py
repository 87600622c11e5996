"""Sliding-window maintenance of the top-k score distribution.

:class:`SlidingWindowTopK` keeps the last ``window`` tuples of an
uncertain stream in one live
:class:`~repro.standing.changelog.MutableUncertainTable`: a slide is
one ``expire`` of the oldest tuple and one ``insert`` of the new one.
Tuples may declare an ME-group label; the live tuples sharing a label
form one ME rule, and a label with a single live member is a
singleton (expired members simply fold back into the group's "absent"
mass, which is sound for the first-k-existing semantics because an
expired tuple can no longer appear in any answer).

The window's query is one standing subscription of a private
:class:`~repro.standing.registry.StandingRegistry`, made at the first
query.  Maintenance is lazy: each later query hands the registry the
deltas applied since the previous one, and the registry keeps the
answer when every delta provably misses the subscription's Theorem-2
prefix (:func:`~repro.standing.registry.classify_delta`), else
evaluates once — through the same planner, dynamic program and kernel
backends as any other request.  Repeated queries over a window whose
prefix did not move return the same object, and
:meth:`SlidingWindowTopK.typical` at a new ``c`` reuses the maintained
distribution instead of re-running the dynamic program.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping, NamedTuple

from repro.api.session import Session
from repro.api.spec import DEFAULT_MC_CONFIDENCE, QuerySpec
from repro.core.distribution import DEFAULT_P_TAU
from repro.core.dp import DEFAULT_MAX_LINES
from repro.core.pmf import ScorePMF
from repro.core.typical import TypicalResult
from repro.exceptions import AlgorithmError, DataModelError, ScoringError
from repro.standing.changelog import Delta, MutableUncertainTable
from repro.standing.registry import StandingRegistry, Subscription
from repro.uncertain.model import UncertainTuple, validate_probability
from repro.uncertain.scoring import finite_score
from repro.uncertain.table import UncertainTable, check_rule_mass


class WindowSnapshot(NamedTuple):
    """Immutable view of one window state.

    :ivar table: the window contents as an uncertain table.
    :ivar pmf: the top-k score distribution of the window.
    :ivar arrivals: total number of tuples ever appended.
    """

    table: UncertainTable
    pmf: ScorePMF
    arrivals: int


class SlidingWindowTopK:
    """Top-k score distributions over the last ``window`` arrivals.

    :param window: window size W (>= 1), counted in tuples.
    :param k: top-k size (>= 1, must be <= window).
    :param score_attribute: the numeric attribute used as the score.
    :param p_tau: Theorem-2 truncation threshold for queries.
    :param max_lines: line-coalescing budget for queries.
    :param incremental: ignored.  Accepted so existing callers keep
        working; every window is maintained the same way.
    :param algorithm: the query pipeline's algorithm (default
        ``"dp"``).  ``"mc"`` serves every query from the Monte-Carlo
        answer engine — the escape hatch for windows too wide for the
        exact sweep.  ``"auto"`` lets the planner apply its
        exact-cost model per query.
    :param epsilon: MC target CI half-width ±ε (``algorithm="mc"``).
    :param confidence: MC confidence level.
    :param samples: explicit MC world count (disables adaptive
        sample-size control).
    :param seed: MC sampling seed.

    Every query knob is validated here, by the window's
    :class:`~repro.api.spec.QuerySpec`, so a bad one fails at
    construction rather than at the first query.

    >>> win = SlidingWindowTopK(window=4, k=2)
    >>> for i in range(6):
    ...     tid = win.append({"score": float(i)}, probability=0.9)
    >>> len(win)
    4
    >>> win.distribution().scores[-1]   # best total = 5 + 4
    9.0
    """

    def __init__(
        self,
        window: int,
        k: int,
        *,
        score_attribute: str = "score",
        p_tau: float = DEFAULT_P_TAU,
        max_lines: int = DEFAULT_MAX_LINES,
        incremental: bool = True,
        algorithm: str = "dp",
        epsilon: float | None = None,
        confidence: float = DEFAULT_MC_CONFIDENCE,
        samples: int | None = None,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise AlgorithmError(f"window must be >= 1, got {window}")
        if not 1 <= k <= window:
            raise AlgorithmError(
                f"k must be in [1, window={window}], got {k}"
            )
        self._window = window
        self._table = MutableUncertainTable((), name="window")
        self._spec = QuerySpec(
            table=self._table,
            scorer=score_attribute,
            k=k,
            semantics="distribution",
            p_tau=p_tau,
            max_lines=max_lines,
            algorithm=algorithm,
            epsilon=epsilon,
            confidence=confidence,
            samples=samples,
            seed=seed,
        )
        #: ``(tid, ME-group label or None)`` in arrival order.
        self._entries: deque[tuple[Any, Any]] = deque()
        #: ME-group label -> its live tids, in arrival order.
        self._members: dict[Any, list[Any]] = {}
        self._arrivals = 0
        self._auto_tids = 0
        # Stage caches are keyed by table version; a handful of entries
        # suffice for the current version's chain.
        self._registry = StandingRegistry(Session(cache_size=8))
        self._sub: Subscription | None = None
        #: Deltas applied since the subscription was last maintained.
        self._pending: list[Delta] = []

    # ------------------------------------------------------------------
    # Stream maintenance
    # ------------------------------------------------------------------
    def append(
        self,
        attributes: Mapping[str, Any],
        *,
        probability: float,
        group: Any = None,
        tid: Any = None,
    ) -> Any:
        """Append one uncertain tuple, expiring the oldest if full.

        The slide is checked whole before it changes anything, so a
        rejected append leaves the window — its tuples, length,
        arrivals, next auto tid and answers — unchanged.

        :param attributes: tuple attributes (must contain the score
            attribute).
        :param probability: membership probability.
        :param group: optional ME-group label; tuples sharing a live
            label are mutually exclusive.
        :param tid: optional explicit tuple id (auto-assigned when
            omitted).  It may reuse the id of the tuple this slide
            expires.
        :returns: the tuple id.
        :raises ScoringError: when the score is not numeric, NaN or
            ±inf.
        :raises DataModelError: when the score attribute is missing,
            or ``tid`` is already in the window and does not expire
            on this slide.
        :raises MutualExclusionError: when the group's live tuples
            after this slide (a member expiring on it no longer
            counts) would have total probability above 1.
        """
        name = self._spec.scorer
        if name not in attributes:
            raise DataModelError(
                f"attributes missing score attribute {name!r}"
            )
        try:
            score = float(attributes[name])
        except (TypeError, ValueError):
            raise ScoringError(
                f"attribute {name!r} is not numeric: {attributes[name]!r}"
            ) from None
        probability = validate_probability(
            probability, context="window append"
        )
        full = len(self._entries) == self._window
        expiring = self._entries[0][0] if full else None
        auto = self._auto_tids
        if tid is None:
            # Skip ids a caller gave explicitly, or no auto id would
            # be accepted until that tuple expires.
            while f"s{auto}" in self._table and f"s{auto}" != expiring:
                auto += 1
        new_tid = f"s{auto}" if tid is None else tid
        # Reject unrankable (NaN) and infinite scores here, with the
        # message the scored-table sort raises, rather than fail every
        # query until the row expires.
        finite_score(score, new_tid)
        # What the insert would reject, checked against the table as
        # the expiry leaves it, before either runs.
        if new_tid in self._table and new_tid != expiring:
            raise DataModelError(f"duplicate tuple id {new_tid!r}")
        partners = [m for m in self._members.get(group, ()) if m != expiring]
        if partners:
            rows = {member: self._table[member] for member in partners}
            rows[new_tid] = UncertainTuple(new_tid, attributes, probability)
            check_rule_mass((*partners, new_tid), rows)
        if tid is None:
            self._auto_tids = auto + 1
        deltas = []
        if full:
            old_tid, old_group = self._entries.popleft()
            deltas.append(self._table.expire(old_tid))
            if old_group is not None:
                members = self._members[old_group]
                members.remove(old_tid)
                if not members:
                    del self._members[old_group]
        group_with = partners[0] if partners else None
        deltas.append(
            self._table.insert(
                new_tid, attributes, probability, group_with=group_with
            )
        )
        if group is not None:
            self._members.setdefault(group, []).append(new_tid)
        self._entries.append((new_tid, group))
        self._arrivals += 1
        if self._sub is not None:
            self._pending += deltas
            if len(self._pending) > self._window:
                # A skip needs every pending delta to miss the prefix,
                # and all its rows leave within W slides: rather than
                # hold and classify more, the next query evaluates cold.
                self._unsubscribe()
        return new_tid

    def extend(
        self,
        rows: Iterable[tuple[Mapping[str, Any], float]],
        *,
        group: Any = None,
    ) -> list[Any]:
        """Append several ``(attributes, probability)`` rows."""
        return [
            self.append(attributes, probability=probability, group=group)
            for attributes, probability in rows
        ]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def arrivals(self) -> int:
        """Total tuples ever appended."""
        return self._arrivals

    @property
    def k(self) -> int:
        """The query's k."""
        return self._spec.k

    @property
    def window(self) -> int:
        """The window size W."""
        return self._window

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def table(self) -> UncertainTable:
        """The current window as an immutable uncertain table (O(1)).

        A group label with a single live member is a singleton; a
        label whose live mass would exceed 1 was rejected at
        :meth:`append`, so the table is always valid.
        """
        return self._table.frozen()

    def _unsubscribe(self) -> None:
        assert self._sub is not None
        self._registry.unsubscribe(self._sub.sid)
        self._sub = None
        self._pending.clear()

    def _maintained(self) -> Subscription:
        """The window's subscription, current with the table.

        Subscribes cold at the first query; later queries hand the
        registry every delta since the previous one in one call.
        """
        if self._sub is not None and self._pending:
            self._registry.on_delta(self._table, *self._pending)
            self._pending.clear()
            if self._sub.error is not None:
                # Subscribing again re-raises the failure with its own
                # exception class, or recovers from a transient one.
                self._unsubscribe()
        if self._sub is None:
            self._sub = self._registry.subscribe(self._spec)
        return self._sub

    def distribution(self) -> ScorePMF:
        """Top-k score distribution of the current window.

        The same object until a slide moves the window's Theorem-2
        prefix.
        """
        return self._maintained().answer

    def typical(self, c: int) -> TypicalResult:
        """c-Typical-Topk answers of the current window.

        Different ``c`` values over an unchanged window reuse the
        maintained distribution (the end-of-Section-4 pattern).
        """
        self._maintained()
        return self._registry.session.execute(
            self._spec.with_(semantics="typical", c=c)
        )

    def snapshot(self) -> WindowSnapshot:
        """Freeze the current window state for downstream analysis."""
        return WindowSnapshot(self.table(), self.distribution(), self._arrivals)

    def expected_top_k_score(self) -> float:
        """E[top-k total score] of the current window."""
        return self.distribution().expectation()
