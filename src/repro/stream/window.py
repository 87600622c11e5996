"""Sliding-window maintenance of the top-k score distribution.

:class:`SlidingWindowTopK` keeps the last ``window`` tuples of an
uncertain stream.  Tuples may declare an ME-group label; a group is
live only while at least two of its members are inside the window
(expired members simply fold back into the group's "absent" mass,
which is sound for the first-k-existing semantics because an expired
tuple can no longer appear in any answer).

Every query materializes the window as an uncertain table (memoized
until the next slide) and runs it through a private
:class:`~repro.api.session.Session` — the same planner, dynamic
program and kernel backends as any other request.  The session's
stage caches are keyed by the materialized table, so repeated queries
over an unchanged window stay memoized and
:meth:`SlidingWindowTopK.typical` at a new ``c`` reuses the cached
distribution instead of re-running the dynamic program.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping, NamedTuple

from repro.api.session import Session
from repro.api.spec import DEFAULT_MC_CONFIDENCE, SPEC_ALGORITHMS, QuerySpec
from repro.core.distribution import DEFAULT_P_TAU
from repro.core.dp import DEFAULT_MAX_LINES
from repro.core.pmf import ScorePMF
from repro.core.typical import TypicalResult
from repro.exceptions import (
    AlgorithmError,
    DataModelError,
    InvalidProbabilityError,
    ScoringError,
)
from repro.uncertain.model import UncertainTuple, validate_probability
from repro.uncertain.scoring import finite_score
from repro.uncertain.table import UncertainTable


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
        working; every query runs the session path over the
        materialized window.
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

    >>> win = SlidingWindowTopK(window=4, k=2)
    >>> for i in range(6):
    ...     win.append({"score": float(i)}, probability=0.9)
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
        if not 0.0 <= p_tau < 1.0:
            # Validated up front: a bad threshold fails at
            # construction, not on the first query.
            raise InvalidProbabilityError(
                f"p_tau must be in [0, 1), got {p_tau!r}"
            )
        if algorithm not in SPEC_ALGORITHMS:
            raise AlgorithmError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{SPEC_ALGORITHMS}"
            )
        self._window = window
        self._k = k
        self._score_attribute = score_attribute
        self._p_tau = p_tau
        self._max_lines = max_lines
        self._algorithm = algorithm
        self._epsilon = epsilon
        self._confidence = confidence
        self._samples = samples
        self._seed = seed
        #: ``(tuple, ME-group label or None)`` in arrival order.
        self._entries: deque[tuple[UncertainTuple, Any]] = deque()
        self._arrivals = 0
        self._auto_tids = 0
        # Stage caches live in a private session keyed by the
        # materialized window table; a handful of entries suffice.
        self._session = Session(cache_size=8)
        self._cached_table: UncertainTable | None = None

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

        :param attributes: tuple attributes (must contain the score
            attribute).
        :param probability: membership probability.
        :param group: optional ME-group label; tuples sharing a live
            label are mutually exclusive.
        :param tid: optional explicit tuple id (auto-assigned when
            omitted).
        :returns: the tuple id.
        :raises ScoringError: when the score is not numeric, NaN or
            ±inf; the window is left unchanged.
        """
        if self._score_attribute not in attributes:
            raise DataModelError(
                f"attributes missing score attribute "
                f"{self._score_attribute!r}"
            )
        try:
            score = float(attributes[self._score_attribute])
        except (TypeError, ValueError):
            raise ScoringError(
                f"attribute {self._score_attribute!r} is not numeric: "
                f"{attributes[self._score_attribute]!r}"
            ) from None
        probability = validate_probability(
            probability, context="window append"
        )
        new_tid = f"s{self._auto_tids}" if tid is None else tid
        # Reject unrankable (NaN) and infinite scores here, with the
        # message the scored-table sort raises, rather than fail every
        # query until the row expires.
        finite_score(score, new_tid)
        if tid is None:
            self._auto_tids += 1
        self._entries.append(
            (UncertainTuple(new_tid, attributes, probability), group)
        )
        self._arrivals += 1
        while len(self._entries) > self._window:
            self._entries.popleft()
        if self._cached_table is not None:
            # No query reads the previous window again: release its
            # cached stages now instead of when the LRUs evict them.
            self._session.invalidate_table(self._cached_table)
            self._cached_table = None
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
        return self._k

    @property
    def window(self) -> int:
        """The window size W."""
        return self._window

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def table(self) -> UncertainTable:
        """The current window as an uncertain table (memoized).

        Group labels with a single surviving member degrade to
        singleton groups; group masses above 1 (possible when old
        members expired and new ones arrived under the same label) are
        rejected by table validation — use distinct labels per logical
        entity generation to avoid this.
        """
        if self._cached_table is not None:
            return self._cached_table
        groups: dict[Any, list[Any]] = {}
        for row, group in self._entries:
            if group is not None:
                groups.setdefault(group, []).append(row.tid)
        rules = [
            tuple(members)
            for members in groups.values()
            if len(members) > 1
        ]
        self._cached_table = UncertainTable(
            [row for row, _group in self._entries], rules, name="window"
        )
        return self._cached_table

    def _spec(self) -> QuerySpec:
        """The spec of the window's standing query (current contents)."""
        return QuerySpec(
            table=self.table(),
            scorer=self._score_attribute,
            k=self._k,
            p_tau=self._p_tau,
            max_lines=self._max_lines,
            algorithm=self._algorithm,
            epsilon=self._epsilon,
            confidence=self._confidence,
            samples=self._samples,
            seed=self._seed,
        )

    def distribution(self) -> ScorePMF:
        """Top-k score distribution of the current window.

        The session's stage caches return the same object until the
        window slides.
        """
        return self._session.distribution(self._spec())

    def typical(self, c: int) -> TypicalResult:
        """c-Typical-Topk answers of the current window.

        Different ``c`` values over an unchanged window reuse the
        cached distribution (the end-of-Section-4 pattern).
        """
        return self._session.execute(self._spec().with_(c=c))

    def snapshot(self) -> WindowSnapshot:
        """Freeze the current window state for downstream analysis."""
        return WindowSnapshot(self.table(), self.distribution(), self._arrivals)

    def expected_top_k_score(self) -> float:
        """E[top-k total score] of the current window."""
        return self.distribution().expectation()
