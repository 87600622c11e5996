"""The vectorized Monte Carlo answer engine.

:class:`MCEngine` draws possible worlds of a scored prefix in batches
(:class:`~repro.mc.sampler.BatchWorldSampler`) and evaluates the top-k
of every world *simultaneously* on the existence matrix.  Because the
prefix is already in canonical rank order, the per-world top-k is a
cumulative-count mask rather than a sort: with ``C`` the inclusive
cumulative existence count along the rank axis, tuple ``j`` is in the
top-k of world ``s`` exactly when ``exists[s, j] and C[s, j] <= k``
(this replaces the batched argpartition a sorted input makes
unnecessary).  One pass accumulates every statistic the registered
answer semantics need:

* per-score world counts + the most frequent top-k vector per score
  (the estimated score PMF / typical answers);
* per-position top-k hit counts (PT-k, Global-Topk);
* per-(position, rank) counts (U-kRanks);
* per-vector counts (U-Topk);
* optionally per-position rank sums (expected ranks).

Every estimator reports a confidence interval
(:mod:`repro.mc.confidence`), and the engine's *adaptive sample-size
control* keeps drawing batches until the worst CI half-width over the
monitored top-k hit probabilities reaches a target ±ε (or a sample
cap).  The Hoeffding bound is data independent, so the engine never
draws more than :func:`~repro.mc.confidence.hoeffding_sample_size`
worlds; the empirical-Bernstein bound lets low-variance inputs stop
much earlier.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any

import numpy as np

from repro.core.pmf import ScorePMF
from repro.core.typical import TypicalResult, select_typical_clamped
from repro.exceptions import AlgorithmError
from repro.mc.confidence import (
    MCEstimate,
    empirical_bernstein_half_width,
    hoeffding_half_width,
    hoeffding_sample_size,
    proportion_estimate,
)
from repro.mc.sampler import BatchWorldSampler
from repro.semantics.expected_ranks import ExpectedRankAnswer
from repro.semantics.u_kranks import URankAnswer
from repro.semantics.u_topk import UTopkResult
from repro.uncertain.scoring import ScoredTable

#: Default CI confidence level.
DEFAULT_CONFIDENCE = 0.95

#: Default target CI half-width ±ε of the adaptive control.
DEFAULT_EPSILON = 0.01

#: Worlds drawn per batch.
DEFAULT_BATCH_SIZE = 4096

#: Hard cap on adaptively drawn worlds.
DEFAULT_MAX_SAMPLES = 262_144

#: Adaptive control never stops before this many worlds.
MIN_ADAPTIVE_SAMPLES = 1024

#: Distinct top-k vectors tracked individually (for U-Topk and the
#: per-line representative vectors); further *new* vectors only bump
#: an untracked counter.  Score masses are accumulated separately, so
#: hitting the cap (diffuse adversarial inputs only) costs
#: representative vectors, never probability mass.
MAX_TRACKED_VECTORS = 100_000


class MCEngine:
    """Monte-Carlo estimation of every answer semantics over a prefix.

    :param prefix: the scored, rank-ordered (and possibly truncated)
        input — the same stage-1 artifact the exact algorithms consume.
    :param k: top-k size (>= 1).
    :param epsilon: target CI half-width of the adaptive control;
        ``None`` uses :data:`DEFAULT_EPSILON` (ignored when ``samples``
        is given).
    :param confidence: CI confidence level in (0, 1).
    :param samples: draw exactly this many worlds (disables adaptive
        control).
    :param max_samples: adaptive-control cap on drawn worlds.
    :param batch_size: worlds per vectorized draw.
    :param seed: seed or Generator; estimates are deterministic for a
        fixed seed.
    :param track_expected_ranks: also accumulate per-position rank
        sums (needed only by the expected-ranks semantics).
    """

    def __init__(
        self,
        prefix: ScoredTable,
        k: int,
        *,
        epsilon: float | None = None,
        confidence: float = DEFAULT_CONFIDENCE,
        samples: int | None = None,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        batch_size: int = DEFAULT_BATCH_SIZE,
        seed: int | np.random.Generator | None = 0,
        track_expected_ranks: bool = False,
    ) -> None:
        if k < 1:
            raise AlgorithmError(f"k must be >= 1, got {k}")
        if epsilon is not None and epsilon <= 0.0:
            raise AlgorithmError(f"epsilon must be > 0, got {epsilon!r}")
        if not 0.0 < confidence < 1.0:
            raise AlgorithmError(
                f"confidence must be in (0, 1), got {confidence!r}"
            )
        if samples is not None and samples < 1:
            raise AlgorithmError(f"samples must be >= 1, got {samples!r}")
        if max_samples < 1:
            raise AlgorithmError(
                f"max_samples must be >= 1, got {max_samples!r}"
            )
        if batch_size < 1:
            raise AlgorithmError(
                f"batch_size must be >= 1, got {batch_size!r}"
            )
        self._prefix = prefix
        self._k = k
        self._epsilon = DEFAULT_EPSILON if epsilon is None else epsilon
        self._confidence = confidence
        self._fixed_samples = samples
        self._max_samples = max_samples
        self._batch_size = batch_size
        self._sampler = BatchWorldSampler.from_prefix(prefix, seed)
        self._track_ranksums = track_expected_ranks

        n = len(prefix)
        self._n = n
        self._scores = prefix.score_column
        # Multi-member group position arrays (for expected-rank sums).
        self._multi_groups = [
            np.array(prefix.group_positions(gid), dtype=np.intp)
            for gid in prefix.groups()
            if len(prefix.group_positions(gid)) > 1
        ]

        self._samples = 0
        self._valid = 0
        self._untracked = 0
        self._hit_counts = np.zeros(n, dtype=np.int64)
        self._rank_counts = np.zeros((k, n), dtype=np.int64)
        # Score masses are accumulated independently of the tracked
        # vectors (score_counts is bounded by distinct totals, not
        # by distinct vectors), so the MAX_TRACKED_VECTORS cap can
        # only cost representative vectors — never probability mass.
        self._score_counts: dict[float, int] = {}
        self._vector_counts: dict[tuple[int, ...], int] = {}
        self._vector_scores: dict[tuple[int, ...], float] = {}
        self._rank_sums = np.zeros(n, dtype=np.float64)
        self._stopped_by_epsilon = False

    # ------------------------------------------------------------------
    # Sampling loop
    # ------------------------------------------------------------------
    @property
    def prefix(self) -> ScoredTable:
        """The scored prefix being sampled."""
        return self._prefix

    @property
    def k(self) -> int:
        """The top-k size."""
        return self._k

    @property
    def confidence(self) -> float:
        """The CI confidence level."""
        return self._confidence

    @property
    def samples_drawn(self) -> int:
        """Worlds drawn so far (0 before :meth:`run`)."""
        return self._samples

    @property
    def stopped_by_epsilon(self) -> bool:
        """True when adaptive control met the ±ε target (vs the cap)."""
        return self._stopped_by_epsilon

    @property
    def complete_worlds(self) -> int:
        """Sampled worlds holding at least ``k`` tuples (the PMF's
        support); the remainder is the estimated short-world mass."""
        return self._valid

    @property
    def untracked_vector_fraction(self) -> float:
        """Fraction of sampled worlds whose top-k vector fell past the
        :data:`MAX_TRACKED_VECTORS` cap.

        Score masses are unaffected (they are accumulated per score),
        but U-Topk and the per-line representative vectors only see
        the tracked population; a materially non-zero fraction means
        the input is too diffuse for vector-level estimates.
        """
        if self._samples < 1:
            return 0.0
        return self._untracked / self._samples

    def sample_budget(self) -> int:
        """The adaptive control's a-priori draw budget.

        The Hoeffding width is data independent, so the number of
        worlds guaranteeing every monitored CI fits in ±ε is known
        before sampling; the budget charges the same δ/2 the reported
        intervals charge Hoeffding, keeping budget and monitor
        consistent.  The ``max_samples`` cap wins when smaller.
        """
        split = 1.0 - (1.0 - self._confidence) / 2.0
        return min(
            self._max_samples,
            hoeffding_sample_size(self._epsilon, split),
        )

    def run(self) -> "MCEngine":
        """Draw worlds until the stopping rule fires (idempotent)."""
        if self._samples:
            return self
        if self._fixed_samples is not None:
            self._draw(self._fixed_samples)
            return self
        budget = self.sample_budget()
        floor = min(MIN_ADAPTIVE_SAMPLES, budget)
        while self._samples < budget:
            if self._samples < floor:
                # First stop at the adaptive floor, so near-
                # deterministic inputs can finish with a tiny draw.
                step = floor - self._samples
            else:
                step = min(self._batch_size, budget - self._samples)
            self._draw(step)
            if self._samples < floor:
                continue
            if self.worst_half_width() <= self._epsilon:
                self._stopped_by_epsilon = True
                break
        if not self._stopped_by_epsilon:
            self._stopped_by_epsilon = (
                self.worst_half_width() <= self._epsilon
            )
        return self

    def _draw(self, count: int) -> None:
        """Draw ``count`` worlds in batches and fold them in."""
        remaining = count
        while remaining > 0:
            size = min(self._batch_size, remaining)
            self._ingest(self._sampler.sample(size))
            remaining -= size

    def _ingest(self, exists: np.ndarray) -> None:
        """Fold one existence matrix into the accumulators."""
        k = self._k
        batch = exists.shape[0]
        self._samples += batch
        if self._n == 0:
            return
        cum = np.cumsum(exists, axis=1, dtype=np.int32)
        in_topk = exists & (cum <= k)
        self._hit_counts += in_topk.sum(axis=0)
        # Rank counts via scatter-add over the ~k hits per world
        # (cheap) instead of k full-matrix comparisons (expensive).
        hit_rows, hit_cols = np.nonzero(in_topk)
        np.add.at(
            self._rank_counts, (cum[hit_rows, hit_cols] - 1, hit_cols), 1
        )
        totals = cum[:, -1]
        valid = totals >= k
        valid_count = int(valid.sum())
        self._valid += valid_count
        if valid_count:
            rows = in_topk[valid]
            # nonzero is row-major, so each world's k positions come
            # out contiguous and ascending: reshape = top-k vectors.
            vectors = np.nonzero(rows)[1].reshape(valid_count, k)
            unique, counts = np.unique(vectors, axis=0, return_counts=True)
            scores = self._scores[unique].sum(axis=1)
            for row, count, score in zip(unique, counts, scores):
                count = int(count)
                score = float(score)
                self._score_counts[score] = (
                    self._score_counts.get(score, 0) + count
                )
                key = tuple(int(p) for p in row)
                if key in self._vector_counts:
                    self._vector_counts[key] += count
                elif len(self._vector_counts) < MAX_TRACKED_VECTORS:
                    self._vector_counts[key] = count
                    self._vector_scores[key] = score
                else:
                    self._untracked += count
        if self._track_ranksums:
            own_group = exists.astype(np.int64)
            for positions in self._multi_groups:
                group_existing = exists[:, positions].sum(axis=1)
                own_group[:, positions] = group_existing[:, None]
            absent_rank = 1 + totals[:, None] - own_group
            ranks = np.where(exists, cum, absent_rank)
            self._rank_sums += ranks.sum(axis=0, dtype=np.float64)

    # ------------------------------------------------------------------
    # Adaptive-control monitor
    # ------------------------------------------------------------------
    def worst_half_width(self) -> float:
        """Largest CI half-width over the monitored top-k hit
        probabilities (the adaptive control's stopping quantity).

        The Hoeffding width is one data-independent scalar valid for
        *every* estimated proportion; the per-position
        empirical-Bernstein widths tighten it on low-variance inputs.
        """
        if self._samples < 1:
            return float("inf")
        samples = self._samples
        split = 1.0 - (1.0 - self._confidence) / 2.0
        hoeffding = hoeffding_half_width(samples, split)
        if self._n == 0:
            return hoeffding
        p = self._hit_counts / samples
        variance = p * (1.0 - p)
        if samples > 1:
            variance = variance * (samples / (samples - 1.0))
        # The bound is monotone in the variance, so the worst position
        # is the one with the largest sample variance.
        bernstein = empirical_bernstein_half_width(
            samples, float(variance.max()), split
        )
        return min(hoeffding, bernstein)

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------
    def _proportion(self, successes: float) -> MCEstimate:
        self.run()
        return proportion_estimate(successes, self._samples, self._confidence)

    def distribution(self, max_lines: int | None = None) -> ScorePMF:
        """The estimated top-k total-score distribution.

        Line masses are world frequencies relative to *all* samples
        (mass below 1 estimates the short-world probability, matching
        the exact algorithms' convention); each line carries the most
        frequent top-k vector attaining its score.

        :param max_lines: optional coalescing budget (Section 3.2.1),
            applied exactly like the exact engines apply theirs.
        """
        self.run()
        by_score: dict[float, tuple[int, tuple[int, ...]]] = {}
        for key, count in self._vector_counts.items():
            score = self._vector_scores[key]
            best = by_score.get(score)
            if best is None or count > best[0]:
                by_score[score] = (count, key)
        lines = []
        for score, count in self._score_counts.items():
            best = by_score.get(score)
            vector = (
                None
                if best is None
                else tuple(self._prefix[pos].tid for pos in best[1])
            )
            lines.append((score, count / self._samples, vector))
        pmf = ScorePMF(lines)
        if max_lines is not None and len(pmf) > max_lines:
            pmf = pmf.coalesced(max_lines)
        return pmf

    def pmf_line_estimate(self, score: float) -> MCEstimate:
        """CI-carrying estimate of the probability mass at ``score``."""
        self.run()
        return self._proportion(self._score_counts.get(float(score), 0))

    def typical(self, c: int, *, max_lines: int | None = None) -> TypicalResult:
        """c-Typical-Topk answers selected from the estimated PMF."""
        return select_typical_clamped(self.distribution(max_lines), c)

    def topk_probability_estimates(self) -> list[tuple[Any, MCEstimate]]:
        """Estimated top-k membership probability per tuple, rank order."""
        self.run()
        return [
            (self._prefix[pos].tid, self._proportion(int(self._hit_counts[pos])))
            for pos in range(self._n)
        ]

    def rank_probability_estimate(self, pos: int, rank: int) -> MCEstimate:
        """Estimated P(tuple at ``pos`` occupies ``rank``), 1-based rank."""
        self.run()
        if not 1 <= rank <= self._k:
            raise AlgorithmError(f"rank must be in [1, {self._k}], got {rank}")
        return self._proportion(int(self._rank_counts[rank - 1, pos]))

    def vector_estimate(self, vector: tuple[Any, ...]) -> MCEstimate:
        """Estimated probability that ``vector`` (tids, rank order) is
        the first-k-existing configuration."""
        self.run()
        position_of = {
            self._prefix[pos].tid: pos for pos in range(self._n)
        }
        try:
            key = tuple(sorted(position_of[tid] for tid in vector))
        except KeyError:
            return self._proportion(0)
        return self._proportion(self._vector_counts.get(key, 0))

    # ------------------------------------------------------------------
    # Answer-semantics adapters (exact-engine result types)
    # ------------------------------------------------------------------
    def u_topk(self) -> UTopkResult | None:
        """The most frequently observed top-k vector (U-Topk estimate)."""
        self.run()
        if not self._vector_counts:
            return None
        best_key = min(
            self._vector_counts,
            key=lambda key: (-self._vector_counts[key], key),
        )
        vector = tuple(self._prefix[pos].tid for pos in best_key)
        probability = self._vector_counts[best_key] / self._samples
        return UTopkResult(
            vector, probability, float(self._vector_scores[best_key])
        )

    def u_kranks(self) -> list[URankAnswer]:
        """Most frequent tuple per rank (U-kRanks estimate)."""
        self.run()
        answers: list[URankAnswer] = []
        for rank in range(self._k):
            counts = self._rank_counts[rank]
            if self._n == 0 or counts.max() == 0:
                continue
            pos = int(counts.argmax())
            answers.append(
                URankAnswer(
                    rank + 1,
                    self._prefix[pos].tid,
                    int(counts[pos]) / self._samples,
                )
            )
        return answers

    def pt_k(self, threshold: float) -> list[tuple[Any, float]]:
        """Tuples with estimated top-k probability >= ``threshold``."""
        if not 0.0 < threshold <= 1.0:
            raise AlgorithmError(
                f"threshold must be in (0, 1], got {threshold!r}"
            )
        self.run()
        answers = [
            (self._prefix[pos].tid, int(self._hit_counts[pos]) / self._samples)
            for pos in range(self._n)
        ]
        answers = [pair for pair in answers if pair[1] >= threshold]
        answers.sort(key=lambda pair: -pair[1])
        return answers

    def global_topk(self) -> list[tuple[Any, float]]:
        """The k tuples with the highest estimated top-k probability."""
        self.run()
        answers = [
            (self._prefix[pos].tid, int(self._hit_counts[pos]) / self._samples)
            for pos in range(self._n)
        ]
        answers.sort(key=lambda pair: -pair[1])
        return answers[: self._k]

    def expected_ranks(self) -> list[ExpectedRankAnswer]:
        """The k tuples with the smallest estimated expected rank.

        Per world the rank of an existing tuple is its position among
        the world's existing tuples; an absent tuple is charged one
        plus the number of existing tuples outside its ME group — the
        sampled analogue of the closed form in
        :mod:`repro.semantics.expected_ranks`.
        """
        if not self._track_ranksums:
            raise AlgorithmError(
                "engine was built without track_expected_ranks=True"
            )
        self.run()
        answers = [
            ExpectedRankAnswer(
                self._prefix[pos].tid,
                float(self._rank_sums[pos]) / self._samples,
                self._prefix[pos].prob,
            )
            for pos in range(self._n)
        ]
        answers.sort(key=lambda a: a.expected_rank)
        return answers[: self._k]

    def __repr__(self) -> str:
        return (
            f"MCEngine(n={self._n}, k={self._k}, "
            f"samples={self._samples}, complete={self._valid}, "
            f"epsilon={self._epsilon}, confidence={self._confidence})"
        )


# ----------------------------------------------------------------------
# Spec integration
# ----------------------------------------------------------------------
#: Ran engines per live prefix, keyed by ``(k, mc knobs, tracked)``.
#: One engine pass accumulates the statistics of *every* semantics, so
#: running e.g. pt_k, global_topk and u_kranks over the same prefix
#: and knobs must not redraw the sample set per call.  Weakly keyed:
#: entries die with their prefix (the Session's prefix cache keeps hot
#: prefixes alive).  Guarded by :data:`_ENGINE_CACHE_LOCK`: service
#: executor threads run MC batches with different knobs over one
#: prefix at once.
_ENGINE_CACHE: "weakref.WeakKeyDictionary[ScoredTable, dict]" = (
    weakref.WeakKeyDictionary()
)
_ENGINE_CACHE_LOCK = threading.Lock()

#: Engines remembered per prefix (knob sweeps evict oldest-first).
_ENGINE_CACHE_PER_PREFIX = 8


def engine_from_spec(
    prefix: ScoredTable, spec, *, track_expected_ranks: bool = False
) -> MCEngine:
    """A ran engine configured from a :class:`~repro.api.spec.QuerySpec`'s
    MC knobs (``epsilon``, ``confidence``, ``samples``, ``seed``).

    Cached per ``(prefix, k, knobs)``: repeated calls — including for
    *different* semantics — share one sample set.  An engine tracking
    expected ranks is a superset and also serves non-tracking requests.
    """
    base = (spec.k,) + spec.mc_params()
    wanted = (True,) if track_expected_ranks else (True, False)
    with _ENGINE_CACHE_LOCK:
        per_prefix = _ENGINE_CACHE.setdefault(prefix, {})
        for tracked in wanted:
            engine = per_prefix.get(base + (tracked,))
            if engine is not None:
                return engine
    # Run outside the lock: two threads missing on one key may both
    # run the (deterministic) engine, and the later one is kept.
    engine = MCEngine(
        prefix,
        spec.k,
        epsilon=spec.epsilon,
        confidence=spec.confidence,
        samples=spec.samples,
        seed=spec.seed,
        track_expected_ranks=track_expected_ranks,
    ).run()
    with _ENGINE_CACHE_LOCK:
        per_prefix[base + (track_expected_ranks,)] = engine
        while len(per_prefix) > _ENGINE_CACHE_PER_PREFIX:
            per_prefix.pop(next(iter(per_prefix)))
    return engine


def mc_distribution(prefix: ScoredTable, spec) -> ScorePMF:
    """Stage-2 entry point: the estimated PMF under ``algorithm="mc"``."""
    return engine_from_spec(prefix, spec).distribution(
        max_lines=spec.max_lines
    )
