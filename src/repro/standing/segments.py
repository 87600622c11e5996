"""Rank-ordered segment index behind the standing-query prefix mirror.

:class:`RankedSegments` keeps a changing set of ``(tid, score, prob)``
entries in the canonical rank order of the paper's algorithms —
descending ``(score, prob)`` with a caller-supplied arrival sequence
breaking remaining ties, i.e. exactly the stable
:class:`~repro.uncertain.scoring.ScoredTable` sort — split into small
contiguous *segments* with per-segment probability-mass sums.
:class:`repro.standing.registry.PrefixMirror` uses it to keep a
mutable table's scored rank order (and Theorem-2 scan depth) current
per mutation, so a standing query's prefix stage is patched in
O(segment) instead of re-scored and re-sorted in O(n log n).

``insert``/``remove`` edit exactly one segment (splitting it at twice
the target size).  :meth:`RankedSegments.scan_depth` replicates
:func:`repro.core.scan_depth.scan_depth` for singleton ME groups
(``mu`` degenerates to the plain prefix mass), using the per-segment
mass sums to skip whole segments in O(1) while the accumulated mass
cannot yet reach the threshold.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any

from repro.core.scan_depth import scan_depth_threshold

#: Default rows per segment; splits happen at twice this.
DEFAULT_SEGMENT_SIZE = 32


def rank_key(score: float, prob: float, seq: int) -> tuple:
    """The canonical sort key: descending ``(score, prob)``, arrival
    (``seq``) breaking full ties — the stable :class:`ScoredTable`
    order when ``seq`` follows table position."""
    return (-score, -prob, seq)


class RankEntry:
    """One indexed tuple: its rank key plus the raw columns."""

    __slots__ = ("key", "tid", "score", "prob")

    def __init__(self, key: tuple, tid: Any, score: float, prob: float):
        self.key = key
        self.tid = tid
        self.score = score
        self.prob = prob

    def __lt__(self, other: "RankEntry") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankEntry(tid={self.tid!r}, score={self.score}, prob={self.prob})"


class RankSegment:
    """A contiguous run of rank-ordered entries with a mass sum."""

    __slots__ = ("entries", "mass")

    def __init__(self, entries: list[RankEntry]):
        self.entries = entries
        self.mass = sum(e.prob for e in entries)


class RankedSegments:
    """A mutable rank index over ``(tid, score, prob)`` entries.

    :param segment_size: target rows per segment (splits at twice it).
    """

    def __init__(self, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> None:
        self._segment_size = max(2, segment_size)
        self._segments: list[RankSegment] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, tid: Any, score: float, prob: float, seq: int) -> None:
        """Add one entry at its canonical rank position (O(segment))."""
        entry = RankEntry(rank_key(score, prob, seq), tid, score, prob)
        if not self._segments:
            self._segments.append(RankSegment([entry]))
            self._count += 1
            return
        index = max(
            0,
            bisect_left([seg.entries[0].key for seg in self._segments], entry.key) - 1,
        )
        segment = self._segments[index]
        insort(segment.entries, entry)
        segment.mass += prob
        self._count += 1
        if len(segment.entries) > 2 * self._segment_size:
            mid = len(segment.entries) // 2
            right = RankSegment(segment.entries[mid:])
            del segment.entries[mid:]
            segment.mass = sum(e.prob for e in segment.entries)
            self._segments.insert(index + 1, right)

    def remove(self, tid: Any, score: float, prob: float, seq: int) -> None:
        """Drop the entry with this exact rank key (O(segment)).

        :raises KeyError: when no entry matches ``tid`` at the key.
        """
        key = rank_key(score, prob, seq)
        for si, segment in enumerate(self._segments):
            if segment.entries and segment.entries[-1].key >= key:
                position = bisect_left([e.key for e in segment.entries], key)
                while position < len(segment.entries):
                    if segment.entries[position].tid == tid:
                        segment.mass -= segment.entries[position].prob
                        del segment.entries[position]
                        self._count -= 1
                        if not segment.entries:
                            del self._segments[si]
                        return
                    position += 1
                break
        raise KeyError(f"tuple {tid!r} not in the rank index")

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def entry_at(self, index: int) -> RankEntry:
        """The entry at a global rank position (O(#segments))."""
        for segment in self._segments:
            if index < len(segment.entries):
                return segment.entries[index]
            index -= len(segment.entries)
        raise IndexError(index)

    def rows(self, depth: int) -> list[RankEntry]:
        """The first ``depth`` entries in rank order."""
        out: list[RankEntry] = []
        for segment in self._segments:
            take = depth - len(out)
            if take <= 0:
                break
            out.extend(segment.entries[:take])
        return out

    # ------------------------------------------------------------------
    # Theorem-2 depth (singleton groups)
    # ------------------------------------------------------------------
    def scan_depth(self, k: int, p_tau: float) -> int:
        """Theorem-2 depth over the rank order.

        Replicates :func:`repro.core.scan_depth.scan_depth` for
        singleton groups (``mu`` is the plain prefix mass), using the
        per-segment mass sums to skip whole segments in O(1) while the
        accumulated mass cannot yet reach the threshold.
        """
        if p_tau <= 0.0:
            return self._count
        threshold = scan_depth_threshold(k, p_tau)
        mass = 0.0
        position = 0
        stop = None
        for segment in self._segments:
            if mass + segment.mass < threshold:
                # No row inside can satisfy mu >= threshold yet.
                mass += segment.mass
                position += len(segment.entries)
                continue
            for entry in segment.entries:
                if mass >= threshold and position >= k:
                    stop = position
                    break
                mass += entry.prob
                position += 1
            if stop is not None:
                break
        if stop is None:
            return self._count
        # Extend to the stopping tuple's tie-group boundary.
        stop_score = self.entry_at(stop).score
        if self.entry_at(stop - 1).score != stop_score:
            return stop
        end = stop + 1
        while end < self._count and self.entry_at(end).score == stop_score:
            end += 1
        return end
