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
from itertools import islice, repeat
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

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
    """Rank-ordered scored tuples as columns, plus positional ME/tie
    structure.

    Positions are 0-based indices into the canonical sort order
    (descending ``(score, prob)``, stable).  The table holds four
    columns in that order: read-only float64 scores and probabilities,
    int64 dense ME-group ids, and the tuple ids.  A packed on-disk
    table (:mod:`repro.storage`) is served by this same class over its
    memory-mapped columns, with its store as the tid column.

    Everything else is derived from the columns on first use and
    memoized — :class:`ScoredItem` rows (built once, on first item
    access) and the structure the dynamic programs need:

    * :meth:`group_positions` — positions of an ME group's members;
    * :meth:`is_lead` — whether the tuple at a position is a *lead
      tuple* (the highest-ranked member of its group);
    * :meth:`lead_regions` — maximal contiguous runs of lead tuples;
    * :meth:`tie_ranges` — maximal runs of equal score (tie groups).

    Tables are immutable and hashed by identity (cache keys hold them).
    """

    def __init__(
        self,
        scores: np.ndarray,
        probs: np.ndarray,
        groups: np.ndarray,
        tids: Iterable[Any],
    ) -> None:
        self._scores = _read_only(scores, np.float64)
        self._probs = _read_only(probs, np.float64)
        self._groups = _read_only(groups, np.int64)
        self._tids = tids
        self._items: tuple[ScoredItem, ...] | None = None
        self._positions: dict[int, tuple[int, ...]] | None = None
        self._lead: list[bool] | None = None
        self._ties: tuple[tuple[int, int], ...] | None = None
        self._me_members: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls, table: UncertainTable, scorer: Scorer
    ) -> "ScoredTable":
        """Score every tuple of ``table`` once and rank-order the rows.

        Sorts one version (:meth:`UncertainTable.frozen`): a mutation
        landing mid-sort cannot mix its rows or groups into the result.
        One stable ``np.lexsort`` on ``(-score, -prob)`` keeps equal
        rows in table order.  Raises
        :class:`~repro.exceptions.ScoringError` when the scorer returns
        NaN or ±inf (NaN scores cannot be ranked; an infinite score
        makes every top-k total score infinite), naming the first such
        tuple in table order.
        """
        table = table.frozen()
        tids: list[Any] = []
        scores: list[float] = []
        probs: list[float] = []
        groups: list[int] = []
        for t in table:
            s = float(scorer(t))
            if not math.isfinite(s):  # checked inline: stage 1's hot loop
                finite_score(s, t.tid)  # raises
            tids.append(t.tid)
            scores.append(s)
            probs.append(t.probability)
            groups.append(table.group_of(t.tid))
        score_column = np.array(scores, dtype=np.float64)
        prob_column = np.array(probs, dtype=np.float64)
        order = np.lexsort((-prob_column, -score_column))
        return cls(
            score_column[order],
            prob_column[order],
            np.array(groups, dtype=np.int64)[order],
            tuple(map(tids.__getitem__, order.tolist())),
        )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._scores)

    def __iter__(self) -> Iterator[ScoredItem]:
        return iter(self.items)

    def __getitem__(self, pos: int) -> ScoredItem:
        items = self._items
        if items is None:
            items = self.items
        return items[pos]

    @property
    def items(self) -> tuple[ScoredItem, ...]:
        """All items in canonical rank order (built on first access)."""
        items = self._items
        if items is None:
            rows = zip(
                self._tids,
                self._scores.tolist(),
                self._probs.tolist(),
                self._groups.tolist(),
            )
            # tuple.__new__ skips the named tuple's Python-level
            # __new__, halving the per-row cost (every cold read
            # builds its prefix's items).
            items = self._items = tuple(
                map(tuple.__new__, repeat(ScoredItem), rows)
            )
        return items

    def prefix(self, n: int) -> "ScoredTable":
        """The first ``n`` items as a new scored table.

        Groups keep their original ids, so a group may be *reduced* (a
        prefix cuts off low-ranked members) — exactly the truncation
        semantics of Section 3.3.2.  A prefix covering every item is
        the (immutable) table itself, not a copy.  A packed table's
        prefix comes from its store, which decodes only the prefix's
        tid pages.
        """
        if n >= len(self):
            return self
        cut = getattr(self._tids, "prefix", None)
        if cut is not None:
            return cut(n)
        return ScoredTable(
            self._scores[:n],
            self._probs[:n],
            self._groups[:n],
            tuple(islice(self._tids, n)),
        )

    # ------------------------------------------------------------------
    # Scores / probabilities / groups as columns
    # ------------------------------------------------------------------
    @property
    def score_column(self) -> np.ndarray:
        """Scores in rank order as a read-only float64 array."""
        return self._scores

    @property
    def prob_column(self) -> np.ndarray:
        """Probabilities in rank order as a read-only float64 array."""
        return self._probs

    @property
    def group_column(self) -> np.ndarray:
        """Dense ME-group ids in rank order as a read-only int64 array."""
        return self._groups

    @property
    def tid_column(self) -> Sequence[Any]:
        """Tuple ids in rank order, indexable by position.

        A packed table's whole-table view reads them from its items.
        """
        tids = self._tids
        if isinstance(tids, tuple):
            return tids
        return tuple(item.tid for item in self.items)

    def scores(self) -> list[float]:
        """Scores in rank order (non-increasing)."""
        return self._scores.tolist()

    def probabilities(self) -> list[float]:
        """Membership probabilities in rank order."""
        return self._probs.tolist()

    def max_top_k_score(self, k: int) -> float:
        """Largest possible top-k total score (sum of the k best)."""
        return float(self._scores[:k].sum())

    def min_top_k_score(self, k: int) -> float:
        """Smallest possible top-k total score among the scanned items
        (sum of the k worst) — the ``s_min`` of Section 3.2.1."""
        return float(self._scores[-k:].sum())

    # ------------------------------------------------------------------
    # Mutual-exclusion structure
    # ------------------------------------------------------------------
    def _positions_by_group(self) -> dict[int, tuple[int, ...]]:
        positions = self._positions
        if positions is None:
            grouped: dict[int, list[int]] = {}
            for pos, group in enumerate(self._groups.tolist()):
                grouped.setdefault(group, []).append(pos)
            positions = self._positions = {
                group: tuple(members) for group, members in grouped.items()
            }
        return positions

    def group_positions(self, group: int) -> Sequence[int]:
        """Positions (ascending) of the group's members in this table."""
        return self._positions_by_group().get(group, ())

    def groups(self) -> Sequence[int]:
        """Group ids present, in order of their highest-ranked member."""
        return tuple(self._positions_by_group())

    def is_lead(self, pos: int) -> bool:
        """True when the tuple at ``pos`` is the first of its ME group."""
        lead = self._lead
        if lead is None:
            lead = [False] * len(self)
            for positions in self._positions_by_group().values():
                lead[positions[0]] = True
            self._lead = lead
        return lead[pos]

    def lead_regions(self) -> list[tuple[int, int]]:
        """Maximal contiguous lead-tuple runs as ``(start, end)`` spans.

        Spans are half-open 0-based ``[start, end)``.  Section 3.3.3:
        one dynamic program per region (instead of per tuple) suffices
        because region tuples behave independently.
        """
        regions: list[tuple[int, int]] = []
        start: int | None = None
        for pos in range(len(self)):
            lead = self.is_lead(pos)
            if lead and start is None:
                start = pos
            elif not lead and start is not None:
                regions.append((start, pos))
                start = None
        if start is not None:
            regions.append((start, len(self)))
        return regions

    def me_member_count(self) -> int:
        """Number of tuples sharing an ME group with another tuple
        (the ``m`` of the O(kmn) bound in Section 3.3.3; computed on
        first use — every plan's lowering reads it)."""
        if self._me_members is None:
            _, counts = np.unique(self._groups, return_counts=True)
            self._me_members = int(counts[counts > 1].sum())
        return self._me_members

    # ------------------------------------------------------------------
    # Tie structure
    # ------------------------------------------------------------------
    def tie_ranges(self) -> list[tuple[int, int]]:
        """Maximal equal-score runs as half-open ``(start, end)`` spans."""
        if self._ties is None:
            scores = self._scores
            cuts = (np.flatnonzero(scores[1:] != scores[:-1]) + 1).tolist()
            bounds = [0, *cuts, len(scores)] if len(scores) else []
            self._ties = tuple(zip(bounds[:-1], bounds[1:]))
        return list(self._ties)

    def has_ties(self) -> bool:
        """True when the scoring function was non-injective here."""
        return len(self.tie_ranges()) < len(self)

    def tie_range_end(self, pos: int) -> int:
        """End (exclusive) of the tie group containing position ``pos``.

        Used by the scan-depth logic: the scan must stop at a tie-group
        boundary (Section 3.1, remark after Theorem 2).  Scans the
        score column forward in growing blocks, so it reads only that
        tie group (a packed table's pages included).
        """
        scores = self._scores
        score = scores[pos]
        end, block = pos + 1, 64
        while end < len(scores):
            differs = np.flatnonzero(scores[end : end + block] != score)
            if differs.size:
                return end + int(differs[0])
            end += block
            block *= 2
        return len(scores)

    def __repr__(self) -> str:
        return f"ScoredTable(items={len(self)})"


def _read_only(column: Any, dtype: type) -> np.ndarray:
    """A read-only ndarray view of ``column`` (no copy when the dtype
    already matches — a memory-mapped column stays on disk)."""
    view = np.asarray(column, dtype=dtype).view()
    view.setflags(write=False)
    return view
