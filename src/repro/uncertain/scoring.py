"""Scoring functions and the rank-ordered algorithm input.

All algorithms in :mod:`repro.core` and :mod:`repro.semantics` operate
on a :class:`ScoredTable`: the tuples of an uncertain table with their
scores, sorted in the canonical order required by the paper's
algorithms — descending by ``(score, probability)`` (Section 3.4;
probability-descending inside a tie group is what makes Theorem 3
hold), with the stable original order breaking remaining ties.

Scoring functions may be *non-injective* (ties allowed); the sorted
table exposes the resulting *tie groups* (Section 2.3) and the
mutual-exclusion structure in positional form (*lead tuples* and *lead
tuple regions*, Section 3.3.3).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ScoringError
from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import UncertainTable

#: A scoring function maps an uncertain tuple to a real number.
Scorer = Callable[[UncertainTuple], float]


def attribute_scorer(name: str) -> Scorer:
    """Score tuples by a single numeric attribute.

    >>> s = attribute_scorer("score")
    >>> s(UncertainTuple("t", {"score": 49}, 0.4))
    49.0
    """

    def score(t: UncertainTuple) -> float:
        try:
            return float(t[name])
        except KeyError:
            raise ScoringError(
                f"tuple {t.tid!r} has no attribute {name!r}"
            ) from None
        except (TypeError, ValueError):
            raise ScoringError(
                f"attribute {name!r} of tuple {t.tid!r} is not numeric: "
                f"{t[name]!r}"
            ) from None

    score.__name__ = f"attribute_scorer[{name}]"
    return score


def expression_scorer(expression: str) -> Scorer:
    """Score tuples by an arithmetic expression over their attributes.

    The expression uses the query layer's grammar, e.g.
    ``"speed_limit / (length / delay)"`` — the congestion score of the
    paper's CarTel experiment (Section 5.2).
    """
    # Imported lazily: the query layer depends on this module.
    from repro.query.parser import parse_expression

    node = parse_expression(expression)

    def score(t: UncertainTuple) -> float:
        value = node.evaluate(t)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScoringError(
                f"expression {expression!r} returned non-numeric "
                f"{value!r} for tuple {t.tid!r}"
            )
        return float(value)

    score.__name__ = f"expression_scorer[{expression}]"
    return score


def finite_score(score: float, tid: Any) -> float:
    """``score``, or :class:`~repro.exceptions.ScoringError` when it is
    NaN (unrankable) or ±inf (every top-k total would be infinite).

    >>> finite_score(float("inf"), "t1")
    Traceback (most recent call last):
    ...
    repro.exceptions.ScoringError: score of tuple 't1' is inf
    """
    if not math.isfinite(score):
        shown = "NaN" if math.isnan(score) else str(score)
        raise ScoringError(f"score of tuple {tid!r} is {shown}")
    return score


class ScoredItem(NamedTuple):
    """One scored tuple in canonical rank order.

    :ivar tid: tuple id in the originating table.
    :ivar score: the tuple's score ``s(t)``.
    :ivar prob: membership probability.
    :ivar group: dense ME-group id from the originating table.
    """

    tid: Any
    score: float
    prob: float
    group: int


class ScoredTable:
    """Rank-ordered scored tuples plus positional ME/tie structure.

    Positions are 0-based indices into the canonical sort order
    (descending ``(score, prob)``).  The class pre-computes everything
    the dynamic-programming algorithms need:

    * :meth:`group_positions` — positions of an ME group's members;
    * :meth:`is_lead` — whether the tuple at a position is a *lead
      tuple* (the highest-ranked member of its group);
    * :meth:`lead_regions` — maximal contiguous runs of lead tuples;
    * :meth:`tie_ranges` — maximal runs of equal score (tie groups).
    """

    def __init__(self, items: Sequence[ScoredItem]) -> None:
        self._items = tuple(items)
        self._positions_by_group: dict[int, list[int]] = {}
        for pos, item in enumerate(self._items):
            self._positions_by_group.setdefault(item.group, []).append(pos)
        self._is_lead = [
            self._positions_by_group[item.group][0] == pos
            for pos, item in enumerate(self._items)
        ]
        self._me_members: int | None = None
        # Cached numeric columns (read-only): the algorithms and the
        # streaming layer consume scores/probabilities as arrays, so
        # they are materialized once instead of per call.
        self._score_column = np.array(
            [item.score for item in self._items], dtype=np.float64
        )
        self._prob_column = np.array(
            [item.prob for item in self._items], dtype=np.float64
        )
        self._score_column.setflags(write=False)
        self._prob_column.setflags(write=False)
        # Tie structure, precomputed once: tie_range_end() is queried
        # per position by the scan-depth logic, and tie_ranges() /
        # has_ties() by the tie-aware algorithms.
        self._tie_ranges: tuple[tuple[int, int], ...] = tuple(
            self._compute_tie_ranges()
        )
        self._tie_end = [0] * len(self._items)
        for start, end in self._tie_ranges:
            for pos in range(start, end):
                self._tie_end[pos] = end
        self._has_ties = any(
            end - start > 1 for start, end in self._tie_ranges
        )

    def _compute_tie_ranges(self) -> Iterator[tuple[int, int]]:
        i = 0
        n = len(self._items)
        while i < n:
            j = i + 1
            while j < n and self._items[j].score == self._items[i].score:
                j += 1
            yield (i, j)
            i = j

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls, table: UncertainTable, scorer: Scorer
    ) -> "ScoredTable":
        """Score and sort every tuple of ``table``.

        Raises :class:`~repro.exceptions.ScoringError` when the scorer
        returns NaN or ±inf (NaN scores cannot be ranked; an infinite
        score makes every top-k total score infinite).
        """
        items = []
        for t in table:
            s = float(scorer(t))
            if not math.isfinite(s):  # checked inline: stage 1's hot loop
                finite_score(s, t.tid)  # raises
            items.append(
                ScoredItem(t.tid, s, t.probability, table.group_of(t.tid))
            )
        items.sort(key=lambda it: (-it.score, -it.prob))
        return cls(items)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[ScoredItem]:
        return iter(self._items)

    def __getitem__(self, pos: int) -> ScoredItem:
        return self._items[pos]

    @property
    def items(self) -> tuple[ScoredItem, ...]:
        """All items in canonical rank order."""
        return self._items

    def prefix(self, n: int) -> "ScoredTable":
        """The first ``n`` items as a new scored table.

        Groups keep their original ids, so a group may be *reduced* (a
        prefix cuts off low-ranked members) — exactly the truncation
        semantics of Section 3.3.2.  A prefix covering every item is
        the (immutable) table itself, not a copy.
        """
        if n >= len(self._items):
            return self
        return ScoredTable(self._items[:n])

    # ------------------------------------------------------------------
    # Scores / probabilities as columns
    # ------------------------------------------------------------------
    @property
    def score_column(self) -> np.ndarray:
        """Scores in rank order as a cached read-only float64 array."""
        return self._score_column

    @property
    def prob_column(self) -> np.ndarray:
        """Probabilities in rank order as a cached read-only array."""
        return self._prob_column

    def scores(self) -> list[float]:
        """Scores in rank order (non-increasing)."""
        return self._score_column.tolist()

    def probabilities(self) -> list[float]:
        """Membership probabilities in rank order."""
        return self._prob_column.tolist()

    def max_top_k_score(self, k: int) -> float:
        """Largest possible top-k total score (sum of the k best)."""
        return float(self._score_column[:k].sum())

    def min_top_k_score(self, k: int) -> float:
        """Smallest possible top-k total score among the scanned items
        (sum of the k worst) — the ``s_min`` of Section 3.2.1."""
        return float(self._score_column[-k:].sum())

    # ------------------------------------------------------------------
    # Mutual-exclusion structure
    # ------------------------------------------------------------------
    def group_positions(self, group: int) -> Sequence[int]:
        """Positions (ascending) of the group's members in this table."""
        return tuple(self._positions_by_group.get(group, ()))

    def groups(self) -> Sequence[int]:
        """Group ids present, in order of their highest-ranked member."""
        seen: dict[int, None] = {}
        for item in self._items:
            seen.setdefault(item.group, None)
        return tuple(seen)

    def is_lead(self, pos: int) -> bool:
        """True when the tuple at ``pos`` is the first of its ME group."""
        return self._is_lead[pos]

    def lead_regions(self) -> list[tuple[int, int]]:
        """Maximal contiguous lead-tuple runs as ``(start, end)`` spans.

        Spans are half-open 0-based ``[start, end)``.  Section 3.3.3:
        one dynamic program per region (instead of per tuple) suffices
        because region tuples behave independently.
        """
        regions: list[tuple[int, int]] = []
        start: int | None = None
        for pos, lead in enumerate(self._is_lead):
            if lead and start is None:
                start = pos
            elif not lead and start is not None:
                regions.append((start, pos))
                start = None
        if start is not None:
            regions.append((start, len(self._items)))
        return regions

    def me_member_count(self) -> int:
        """Number of tuples sharing an ME group with another tuple
        (the ``m`` of the O(kmn) bound in Section 3.3.3; computed on
        first use — every plan's lowering reads it)."""
        if self._me_members is None:
            self._me_members = sum(
                len(positions)
                for positions in self._positions_by_group.values()
                if len(positions) > 1
            )
        return self._me_members

    # ------------------------------------------------------------------
    # Tie structure
    # ------------------------------------------------------------------
    def tie_ranges(self) -> list[tuple[int, int]]:
        """Maximal equal-score runs as half-open ``(start, end)`` spans
        (precomputed at construction)."""
        return list(self._tie_ranges)

    def has_ties(self) -> bool:
        """True when the scoring function was non-injective here
        (precomputed at construction)."""
        return self._has_ties

    def tie_range_end(self, pos: int) -> int:
        """End (exclusive) of the tie group containing position ``pos``.

        Used by the scan-depth logic: the scan must stop at a tie-group
        boundary (Section 3.1, remark after Theorem 2).  O(1): the tie
        structure is precomputed at construction.
        """
        return self._tie_end[pos]

    def __repr__(self) -> str:
        return f"ScoredTable(items={len(self._items)})"
