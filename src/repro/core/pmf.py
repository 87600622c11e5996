"""The top-k total-score distribution returned to applications.

:class:`ScorePMF` is a discrete probability mass function over top-k
total scores, each line optionally carrying a representative top-k
tuple vector (the most probable vector attaining that score, as
recorded by the algorithms of Section 3).  It supports the two usages
of Section 2.2: arbitrary-granularity histogram access and feeding the
c-Typical-Topk selection of Section 4.

The total mass can be below 1: the distribution ranges over possible
worlds that contain at least ``k`` tuples, truncated at the Theorem-2
scan depth (see DESIGN.md, "Semantics decisions").
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from repro.exceptions import AlgorithmError, EmptyDistributionError

#: Representative vector type: tuple of tids in rank order, or None
#: when the producing algorithm did not record vectors.
Vector = tuple


class ScoreLine(NamedTuple):
    """One vertical line of the PMF.

    :ivar score: a top-k total score (or a coalesced average).
    :ivar prob: probability mass at this line.
    :ivar vector: most probable top-k tuple vector with this score, or
        ``None`` when vectors were not tracked.
    """

    score: float
    prob: float
    vector: Vector | None


class ScorePMF:
    """Immutable discrete distribution of top-k total scores.

    Lines are stored sorted ascending by score; equal scores are merged
    at construction (probabilities summed, higher-probability vector
    kept — the paper's merge rule).

    :param lines: iterable of ``(score, prob, vector)`` triples or
        :class:`ScoreLine` items.  Probabilities must be non-negative.
    """

    __slots__ = ("_scores", "_probs", "_vectors")

    def __init__(self, lines: Iterable[tuple]) -> None:
        merged: dict[float, tuple[float, Vector | None]] = {}
        for entry in lines:
            score, prob, vector = entry
            score = float(score)
            prob = float(prob)
            if prob < 0.0:
                raise AlgorithmError(
                    f"negative probability {prob!r} at score {score!r}"
                )
            if score in merged:
                old_prob, old_vec = merged[score]
                # Keep the representative vector of the heavier line.
                best = old_vec if old_prob >= prob else vector
                if best is None:
                    best = old_vec if old_vec is not None else vector
                merged[score] = (old_prob + prob, best)
            else:
                merged[score] = (prob, vector)
        ordered = sorted(merged.items())
        self._scores: tuple[float, ...] = tuple(s for s, _ in ordered)
        self._probs: tuple[float, ...] = tuple(pv[0] for _, pv in ordered)
        self._vectors: tuple[Vector | None, ...] = tuple(
            pv[1] for _, pv in ordered
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(
        cls,
        pmf: Mapping[float, float],
        vectors: Mapping[float, Vector] | None = None,
    ) -> "ScorePMF":
        """Build from ``score -> prob`` (and optional vectors) mappings."""
        vecs = vectors or {}
        return cls((s, p, vecs.get(s)) for s, p in pmf.items())

    @classmethod
    def merge(cls, pmfs: Iterable["ScorePMF"]) -> "ScorePMF":
        """Union of several PMFs (equal scores merged, masses added)."""

        def all_lines() -> Iterator[ScoreLine]:
            for pmf in pmfs:
                yield from pmf

        return cls(all_lines())

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._scores)

    def __iter__(self) -> Iterator[ScoreLine]:
        return (
            ScoreLine(s, p, v)
            for s, p, v in zip(self._scores, self._probs, self._vectors)
        )

    def __getitem__(self, index: int) -> ScoreLine:
        return ScoreLine(
            self._scores[index], self._probs[index], self._vectors[index]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScorePMF):
            return NotImplemented
        return self._scores == other._scores and self._probs == other._probs

    def __hash__(self) -> int:
        return hash((self._scores, self._probs))

    @property
    def scores(self) -> tuple[float, ...]:
        """Distinct scores, ascending."""
        return self._scores

    @property
    def probs(self) -> tuple[float, ...]:
        """Probability mass per score, aligned with :attr:`scores`."""
        return self._probs

    @property
    def vectors(self) -> tuple[Vector | None, ...]:
        """Representative vectors, aligned with :attr:`scores`."""
        return self._vectors

    def to_dict(self) -> dict[float, float]:
        """Plain ``score -> prob`` dictionary."""
        return dict(zip(self._scores, self._probs))

    # ------------------------------------------------------------------
    # Mass / moments
    # ------------------------------------------------------------------
    def total_mass(self) -> float:
        """Total probability (1 minus truncated/short-world mass)."""
        return sum(self._probs)

    def is_empty(self) -> bool:
        """True when there are no lines."""
        return not self._scores

    def normalized(self) -> "ScorePMF":
        """Rescale so the mass is exactly 1 (conditional distribution)."""
        mass = self.total_mass()
        if mass <= 0.0:
            raise EmptyDistributionError("cannot normalize an empty PMF")
        return ScorePMF(
            (s, p / mass, v)
            for s, p, v in zip(self._scores, self._probs, self._vectors)
        )

    def expectation(self) -> float:
        """Mean total score, E[S] (w.r.t. the normalized distribution).

        For the paper's toy example this is the 164.1 of Section 1.
        """
        mass = self.total_mass()
        if mass <= 0.0:
            raise EmptyDistributionError("empty PMF has no expectation")
        return sum(s * p for s, p in zip(self._scores, self._probs)) / mass

    def variance(self) -> float:
        """Variance of the total score (normalized)."""
        mean = self.expectation()
        mass = self.total_mass()
        second = sum(s * s * p for s, p in zip(self._scores, self._probs))
        return max(second / mass - mean * mean, 0.0)

    def std(self) -> float:
        """Standard deviation of the total score."""
        return math.sqrt(self.variance())

    # ------------------------------------------------------------------
    # Tail / quantile queries
    # ------------------------------------------------------------------
    def prob_greater(self, score: float, *, strict: bool = True) -> float:
        """P(S > score) — or P(S >= score) when ``strict`` is False.

        (Unnormalized: relative to the PMF's own mass.)
        """
        side = "right" if strict else "left"
        index = bisect.bisect_right(self._scores, score) if side == "right" \
            else bisect.bisect_left(self._scores, score)
        return sum(self._probs[index:])

    def prob_less(self, score: float, *, strict: bool = True) -> float:
        """P(S < score) — or P(S <= score) when ``strict`` is False."""
        index = bisect.bisect_left(self._scores, score) if strict \
            else bisect.bisect_right(self._scores, score)
        return sum(self._probs[:index])

    def cdf(self, score: float) -> float:
        """Normalized cumulative probability P(S <= score)."""
        mass = self.total_mass()
        if mass <= 0.0:
            raise EmptyDistributionError("empty PMF has no CDF")
        return self.prob_less(score, strict=False) / mass

    def quantile(self, q: float) -> float:
        """Smallest score with normalized CDF >= q, for q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise AlgorithmError(f"quantile level {q!r} outside [0, 1]")
        if self.is_empty():
            raise EmptyDistributionError("empty PMF has no quantiles")
        mass = self.total_mass()
        target = q * mass
        running = 0.0
        for s, p in zip(self._scores, self._probs):
            running += p
            if running >= target - 1e-15:
                return s
        return self._scores[-1]

    def mode(self) -> ScoreLine:
        """The highest-probability line."""
        if self.is_empty():
            raise EmptyDistributionError("empty PMF has no mode")
        index = max(range(len(self._probs)), key=self._probs.__getitem__)
        return self[index]

    def support_span(self) -> float:
        """max score - min score (0 for a single line)."""
        if self.is_empty():
            return 0.0
        return self._scores[-1] - self._scores[0]

    def span_containing(self, mass_fraction: float) -> float:
        """Width of the shortest score interval holding the fraction.

        Used by the Figure 14/16 experiments ("the span of the
        significant portion of the distribution").
        """
        if not 0.0 < mass_fraction <= 1.0:
            raise AlgorithmError(
                f"mass fraction {mass_fraction!r} outside (0, 1]"
            )
        if self.is_empty():
            raise EmptyDistributionError("empty PMF has no span")
        target = mass_fraction * self.total_mass()
        best = self._scores[-1] - self._scores[0]
        left = 0
        running = 0.0
        for right in range(len(self._scores)):
            running += self._probs[right]
            while running - self._probs[left] >= target - 1e-15:
                running -= self._probs[left]
                left += 1
            if running >= target - 1e-15:
                best = min(best, self._scores[right] - self._scores[left])
        return best

    # ------------------------------------------------------------------
    # Conditioning
    # ------------------------------------------------------------------
    def restricted_to(
        self,
        low: float = float("-inf"),
        high: float = float("inf"),
    ) -> "ScorePMF":
        """The sub-distribution with scores in ``[low, high]``.

        Masses are *not* renormalized (chain with :meth:`normalized`
        for the conditional distribution).  Supports the usage the
        paper sketches at the end of Section 4: "medical personnel
        would probably examine the high score range of the
        distribution".

        >>> pmf = ScorePMF([(1, 0.25, None), (2, 0.25, None),
        ...                 (3, 0.5, None)])
        >>> pmf.restricted_to(low=2).scores
        (2.0, 3.0)
        """
        if low > high:
            raise AlgorithmError(
                f"empty restriction: low {low!r} > high {high!r}"
            )
        return ScorePMF(
            (s, p, v)
            for s, p, v in zip(self._scores, self._probs, self._vectors)
            if low <= s <= high
        )

    def tail_expectation(self, threshold: float) -> float:
        """E[S | S > threshold] — the expected score of the tail.

        Raises :class:`EmptyDistributionError` when no mass lies above
        the threshold.
        """
        tail = self.restricted_to(low=threshold)
        tail = ScorePMF(
            (s, p, v) for s, p, v in zip(
                tail.scores, tail.probs, tail.vectors
            ) if s > threshold
        )
        return tail.expectation()

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def coalesced(self, max_lines: int) -> "ScorePMF":
        """A copy reduced to at most ``max_lines`` lines (Section 3.2.1)."""
        from repro.core.coalesce import coalesce_lines

        lines = [list(line) for line in self]
        return ScorePMF(coalesce_lines(lines, max_lines))

    def histogram(
        self, bucket_width: float, *, origin: float | None = None
    ) -> list[tuple[float, float, float]]:
        """Equi-width histogram ``(low, high, prob)`` at any granularity.

        This is usage (1) of Section 2.2: "an application can access
        the distribution at any granularity of precision".

        :param bucket_width: width of each bucket (> 0).
        :param origin: left edge of the bucket grid; defaults to the
            smallest score.
        """
        if bucket_width <= 0.0:
            raise AlgorithmError(
                f"bucket width must be positive, got {bucket_width!r}"
            )
        if self.is_empty():
            return []
        start = self._scores[0] if origin is None else origin
        buckets: dict[int, float] = {}
        for s, p in zip(self._scores, self._probs):
            index = int(math.floor((s - start) / bucket_width))
            buckets[index] = buckets.get(index, 0.0) + p
        return [
            (
                start + index * bucket_width,
                start + (index + 1) * bucket_width,
                prob,
            )
            for index, prob in sorted(buckets.items())
        ]

    def top_lines(self, count: int) -> list[ScoreLine]:
        """The ``count`` heaviest lines, by probability descending."""
        order = sorted(
            range(len(self._probs)),
            key=lambda i: (-self._probs[i], self._scores[i]),
        )
        return [self[i] for i in order[:count]]

    def __repr__(self) -> str:
        return (
            f"ScorePMF(lines={len(self._scores)}, "
            f"mass={self.total_mass():.4f}, "
            f"span=[{self._scores[0] if self._scores else float('nan'):.4g}, "
            f"{self._scores[-1] if self._scores else float('nan'):.4g}])"
        )

    def summary(self) -> str:
        """Human-readable one-paragraph summary (for examples/benches)."""
        if self.is_empty():
            return "empty score distribution"
        mode = self.mode()
        return (
            f"{len(self)} lines, mass {self.total_mass():.4f}, "
            f"E[S]={self.expectation():.2f}, std={self.std():.2f}, "
            f"range [{self._scores[0]:.2f}, {self._scores[-1]:.2f}], "
            f"mode {mode.score:.2f} (p={mode.prob:.4f})"
        )


def vector_as_tids(vector: Vector | None) -> tuple[Any, ...]:
    """Normalize a representative vector to a plain tuple of tids."""
    if vector is None:
        return ()
    return tuple(vector)
