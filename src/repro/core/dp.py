"""The main dynamic-programming algorithm (Sections 3.2–3.4).

The distribution of top-j total scores "starting from row r" is built
bottom-up: the distribution at ``(r, j)`` combines the one at
``(r+1, j)`` (row r absent, probabilities scaled by ``1 - p_r``) with
the one at ``(r+1, j-1)`` shifted by row r's score and scaled by
``p_r`` (Figure 5).  Line coalescing (Section 3.2.1) bounds every
intermediate distribution to a constant number of lines, giving the
O(kn) bound for independent tuples.

Mutual exclusion (Section 3.3) is handled by fixing the *last* (k-th)
tuple of the vector: with the ending fixed, row order is irrelevant, so
every other ME group can be compressed into a *rule tuple* whose "take"
step adds each constituent ``(score, prob)`` separately and whose
"skip" step multiplies by ``1 - (group mass above the ending)``.
Vectors ending anywhere in a *lead-tuple region* (a maximal contiguous
run of tuples that each rank first in their group) share one dynamic
program whose *exit points* — the auxiliary column-0 cells of Figure 6
— are enabled exactly at the region rows and blocked elsewhere.

Ties (Section 3.4) need no structural change: the canonical
``(score desc, prob desc)`` order of :class:`ScoredTable` makes the
per-configuration probabilities come out right (Theorem 3) and the
recorded representative vector the most probable one.

Shared-prefix sweep (the O(kmn) bound)
--------------------------------------
The mutual-exclusion path does *not* launch an independent bottom-up
dynamic program per ending unit.  Instead a single forward sweep walks
the table once in rank order, maintaining the DP column states of the
independent (singleton-group) tuples incrementally; each ME group's
members-so-far are collected as the sweep passes them.  Reaching an
ending unit, the per-ending work is only (a) folding the current rule
tuples — at most ``m`` of them — on top of the shared prefix state and
(b) attaching the ending's own rows, which realizes the per-ending
O(km) cost (hence O(kmn) total) of Section 3.3.3 instead of re-running
the whole O(kn) program per ending.  The former per-ending
implementation lives on, with the Section-3.3.2 per-tuple variant, in
:mod:`repro.bench.ablations` for the ablations of ``repro figures``.

Implementation notes
--------------------
Cell distributions are ``(scores, probs, vectors)`` triples with the
numeric columns as ascending numpy arrays.  Inside the dynamic
programs a row is known only by its rank position in the
:class:`ScoredTable`, and a representative vector is an int64 id into
a vector arena (:class:`_Arena`, or the native engine's registries)
that records, per line, its parent vector and the position it adds.
No Python object is built per line: a final cell's vectors are walked
into a ``(lines, k)`` int64 array of positions, and only the lines
that survive the last reduce become tid tuples (:func:`_cell_to_pmf`).
Distribution unions concatenate their already-ascending parts and
take one stable ``np.argsort`` (:func:`_stable_merge`), so equal
scores keep part order: the permutation of the native kernel's
sequential merge.  Intermediate coalescing uses an equi-width grid
over the cell's own span (weighted-mean score, summed probability,
heavier line's vector per occupied bucket): every merge joins lines at
most ``cell span / max_lines`` apart, and since intermediate spans
never exceed the final span (Section 3.2.1), the merge radius is
bounded by the same δ as the paper's closest-pair strategy.  The
public :func:`repro.core.coalesce.coalesce_lines` keeps the exact
pairwise strategy for presentation-time coalescing.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.core.pmf import ScorePMF
from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable

#: Default cap on the number of lines kept per distribution; the paper
#: uses c' = 200 as its running example (Section 3.2.1).
DEFAULT_MAX_LINES = 200

# ----------------------------------------------------------------------
# Sweep accounting (used by fusion tests and service metrics)
# ----------------------------------------------------------------------
_SWEEP_LOCK = threading.Lock()
_SWEEP_COUNT = 0


def _count_sweep() -> None:
    global _SWEEP_COUNT
    with _SWEEP_LOCK:
        _SWEEP_COUNT += 1


def dp_sweep_count() -> int:
    """Dynamic programs launched since import (monotonic counter).

    Each bottom-up program (:func:`_dp_run` — single- or multi-k) and
    each forward shared-prefix sweep counts once, regardless of how
    many ``(k, depth)`` slices it serves; the per-ending ablation
    counts once per ending unit.  Fusion tests snapshot this counter
    to assert that a mixed-k batch paid exactly one sweep.
    """
    with _SWEEP_LOCK:
        return _SWEEP_COUNT

#: A cell distribution: (scores ascending, probs, vectors) or None.
_Cell = tuple

#: Smallest probability mass a coalesced line may keep: the smallest
#: *normal* double (~2.2e-308).  Below it, masses are subnormal and
#: weighted-mean scores are too quantized to preserve the ascending
#: invariant of the merge step (and can reach NaN at exactly 0).
_MIN_CELL_MASS = float(np.finfo(np.float64).tiny)


class _Unit:
    """One DP row: an independent tuple or a compressed rule tuple.

    :ivar constituents: ``(score, prob, pos)`` per original tuple,
        ``pos`` being its rank position; a plain tuple has exactly one
        constituent.
    :ivar absent_prob: probability that no constituent exists
        (``1 - sum of constituent probabilities``, clamped at 0).
    """

    __slots__ = ("constituents", "absent_prob")

    def __init__(self, constituents: Sequence[tuple[float, float, int]]):
        self.constituents = tuple(constituents)
        mass = sum(p for _, p, _ in constituents)
        self.absent_prob = max(0.0, 1.0 - mass)


def _rows(scored: ScoredTable) -> list[tuple[float, float, int]]:
    """Each row's ``(score, prob, rank position)`` constituent."""
    return list(
        zip(
            scored.score_column.tolist(),
            scored.prob_column.tolist(),
            range(len(scored)),
        )
    )


class _Arena:
    """Representative vectors as int64 ids over two flat arrays.

    Every "take" step of one dynamic program appends a run of new ids:
    each line records its parent vector's id in ``parents`` and the
    rank position it adds in ``positions``.  Id 0 is the empty vector.
    Vectors therefore live as int64 arrays inside the DP (every
    per-line operation is numpy fancy indexing), and walking a cell's
    length-``k`` vectors is ``k`` gathers (:meth:`walk`).
    """

    __slots__ = ("parents", "positions", "size")

    def __init__(self) -> None:
        self.parents = np.zeros(1024, dtype=np.int64)
        self.positions = np.zeros(1024, dtype=np.int64)
        self.size = 1

    def extend(self, pos: int, parent_ids: np.ndarray) -> np.ndarray:
        """New ids for lines adding position ``pos`` to ``parent_ids``."""
        base = self.size
        end = base + len(parent_ids)
        if end > len(self.parents):
            # Ids at or past ``base`` are rewritten before any is read.
            grown = max(end, 2 * len(self.parents))
            self.parents = np.resize(self.parents, grown)
            self.positions = np.resize(self.positions, grown)
        self.parents[base:end] = parent_ids
        self.positions[base:end] = pos
        self.size = end
        return np.arange(base, end, dtype=np.int64)

    def walk(self, ids: np.ndarray, k: int) -> np.ndarray:
        """Length-``k`` vectors as ``(lines, k)`` positions, last pick
        first."""
        rows = np.empty((len(ids), k), dtype=np.int64)
        for step in range(k):
            rows[:, step] = self.positions[ids]
            ids = self.parents[ids]
        return rows

    def mark(self) -> int:
        """Checkpoint for :meth:`release` (the next id)."""
        return self.size

    def release(self, mark: int) -> None:
        """Drop every id appended since ``mark``.

        The shared-prefix sweep uses per-ending folds as scratch work:
        once an emitted cell's vectors are walked, its ids are dead,
        and releasing them keeps the arena's footprint proportional to
        the shared prefix instead of the whole sweep.  Ids appended
        before the mark stay valid.
        """
        self.size = mark


def _segment_sums(weights: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Per-segment sums with a strictly sequential accumulation order.

    ``np.bincount`` scatter-adds ``weights[i]`` into its segment's
    accumulator in index order, so each segment's sum is the plain
    left-to-right total — an association that is identical on every
    platform and trivially replicated by the native kernel's C loop.
    ``np.add.reduceat`` makes no such promise (its order follows the
    SIMD lane width), which is why it is banned from the reduce path.
    """
    return np.bincount(segments, weights=weights)


def _segment_winners(probs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Index of the heaviest line per segment (vectorized).

    Sorting by (segment id, prob) puts each segment's heaviest line
    last within its run, so the positions just before the next
    segment's start are the per-segment argmaxes.
    """
    counts = np.diff(np.append(starts, len(probs)))
    if counts.max() == 1:
        return starts
    segment_ids = np.repeat(np.arange(len(starts)), counts)
    order = np.lexsort((probs, segment_ids))
    return order[np.append(starts[1:], len(probs)) - 1]


def _stable_merge(parts: list[_Cell]) -> _Cell:
    """Union of cells whose first column is ascending, still ascending.

    One stable ``np.argsort`` over the concatenated scores: equal
    scores keep part order, the permutation the native kernel's
    sequential merge produces.
    """
    if len(parts) == 1:
        return parts[0]
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(columns[0], kind="stable")
    return tuple(column[order] for column in columns)


def _reduce_cell(
    scores: np.ndarray,
    probs: np.ndarray,
    vectors: np.ndarray,
    max_lines: int,
) -> _Cell:
    """Merge equal scores, then grid-coalesce to ``max_lines`` lines.

    ``scores`` must already be ascending; ``vectors`` is an aligned
    int64 array (arena ids inside a DP, line ids at the cross-ending
    merge).  Equal scores always merge (probabilities summed,
    heavier line's vector kept — the step-3 merge rule of Section 3.2);
    the grid pass runs only when the line budget is exceeded, and every
    grid merge joins lines at most ``cell span / max_lines`` apart —
    the same radius bound as the paper's closest-pair strategy, because
    intermediate spans never exceed the final span (Section 3.2.1).

    Deep dense-ME sweeps (full-table ``p_tau=0`` over hundreds of rule
    tuples) multiply so many existence factors that a bucket's whole
    mass underflows into the subnormal range or to exactly ``0.0``;
    the weighted-mean score of such a bucket is ``0/0`` (NaN) or so
    quantized by subnormal arithmetic that it lands outside its own
    bucket, breaking the ascending-score invariant every merge depends
    on.  A line whose mass cannot even be represented as a normal
    float is unobservable noise, so those buckets are dropped (see
    :data:`_MIN_CELL_MASS`).

    Segment sums go through :func:`_segment_sums` (a ``np.bincount``
    scatter-add) rather than ``np.add.reduceat``: the reduceat
    summation order is SIMD-width dependent, while the bincount loop
    is strictly sequential per segment — the association the native
    kernel backend replicates exactly, keeping both backends
    byte-identical on every platform.
    """
    if len(scores) > 1:
        dup = scores[1:] == scores[:-1]
        if dup.any():
            boundaries = np.r_[True, ~dup]
            starts = np.flatnonzero(boundaries)
            segments = np.cumsum(boundaries) - 1
            vectors = vectors[_segment_winners(probs, starts)]
            probs = _segment_sums(probs, segments)
            scores = scores[starts]
    if len(scores) > max_lines:
        low = scores[0]
        width = (scores[-1] - low) / max_lines
        bucket = np.minimum(
            ((scores - low) / width).astype(np.int64), max_lines - 1
        )
        boundaries = np.r_[True, bucket[1:] != bucket[:-1]]
        starts = np.flatnonzero(boundaries)
        segments = np.cumsum(boundaries) - 1
        vectors = vectors[_segment_winners(probs, starts)]
        weighted = _segment_sums(probs * scores, segments)
        probs = _segment_sums(probs, segments)
        with np.errstate(invalid="ignore"):
            scores = weighted / probs
        dead = probs < _MIN_CELL_MASS
        if dead.any():
            live = ~dead
            scores = scores[live]
            probs = probs[live]
            vectors = vectors[live]
    return scores, probs, vectors


def _combine(
    unit: _Unit,
    skip_cell: _Cell | None,
    take_cell: _Cell | None,
    arena: _Arena,
    max_lines: int,
) -> _Cell | None:
    """One distribution-merging step (Section 3.2, steps 1-3).

    ``skip_cell`` is ``D[r+1][j]`` (unit absent), ``take_cell`` is
    ``D[r+1][j-1]`` (one constituent exists and is prepended).
    """
    parts: list[_Cell] = []
    if skip_cell is not None and unit.absent_prob > 0.0:
        scores, probs, vectors = skip_cell
        parts.append((scores, probs * unit.absent_prob, vectors))
    if take_cell is not None:
        scores, probs, vectors = take_cell
        for c_score, c_prob, c_pos in unit.constituents:
            parts.append(
                (
                    scores + c_score,
                    probs * c_prob,
                    arena.extend(c_pos, vectors),
                )
            )
    if not parts:
        return None
    return _reduce_cell(*_stable_merge(parts), max_lines)


class _PythonEngine:
    """The numpy cell engine (always available).

    The DP control flow in this module — sweep order, column pruning,
    emit points — is parameterized over an *engine* so the compiled
    backend (:class:`repro.core.kernels.native.NativeEngine`) shares
    the orchestration by construction and can only differ in how a
    cell's arrays are combined, never in which combinations happen.
    Both engines produce bit-identical cells.

    Engine protocol:

    * ``const_cell()`` — the {0.0: 1.0} distribution, empty vector;
    * ``new_chain(ncols)`` — storage handle for one DP column chain
      (meaningful to the native engine's ping/pong slabs; ``None``
      here);
    * ``fold_into(chain, unit, pairs)`` — one :func:`_combine` per
      ``(skip, take)`` pair;
    * ``take_reduce(cell, constituent)`` — attach one ``(score, prob,
      pos)`` as the last pick and reduce, exported as ``(scores,
      probs, ids)``;
    * ``export_cell(cell)`` — a final cell as numpy arrays;
    * ``positions(ids, k)`` — length-``k`` vectors as a ``(lines, k)``
      int64 array of rank positions, last pick first;
    * ``mark()`` / ``release(mark)`` — scratch vector-arena windows.
    """

    backend = "python"

    __slots__ = ("max_lines", "arena")

    def __init__(self, max_lines: int) -> None:
        self.max_lines = max_lines
        self.arena = _Arena()

    def const_cell(self) -> _Cell:
        return (np.zeros(1), np.ones(1), np.zeros(1, dtype=np.int64))

    def new_chain(self, ncols: int) -> None:
        return None

    def fold_into(
        self, chain: None, unit: _Unit, pairs: Sequence[tuple]
    ) -> list[_Cell | None]:
        return [
            _combine(unit, skip, take, self.arena, self.max_lines)
            for skip, take in pairs
        ]

    def take_reduce(self, cell: _Cell | None, constituent) -> _Cell | None:
        return _combine(
            _Unit((constituent,)), None, cell, self.arena, self.max_lines
        )

    def export_cell(self, cell: _Cell) -> _Cell:
        return cell

    def positions(self, ids: np.ndarray, k: int) -> np.ndarray:
        return self.arena.walk(ids, k)

    def mark(self):
        return self.arena.mark()

    def release(self, mark) -> None:
        self.arena.release(mark)


def _engine_for(backend: str | None, max_lines: int):
    """Build the cell engine for one DP run.

    ``backend`` is the resolved planner choice (or ``None`` for auto);
    the ``REPRO_BACKEND`` environment variable overrides either way.
    Line budgets beyond the native slab cap silently use the python
    engine — the budgets that large only appear in exact-reference
    test helpers, and the outputs are identical regardless.
    """
    from repro.core import kernels

    if kernels.resolve_backend(backend) == "native":
        engine = kernels.native_engine(max_lines)
        if engine is not None:
            return engine
    return _PythonEngine(max_lines)


def _dp_run_multi(
    units: Sequence[_Unit],
    ks: Sequence[int],
    exit_enabled: Sequence[bool],
    max_lines: int,
    backend: str | None = None,
) -> dict[int, _Cell | None]:
    """One bottom-up dynamic program, read out at several columns.

    ``exit_enabled[r]`` states whether a top-k vector may *end* with
    the tuple at row ``r`` (i.e. whether the column-0 cell below row
    ``r`` holds the enabling distribution ``(0, 1)`` instead of the
    blocking ``(0, 0)`` of Section 3.3.2).

    The recurrence of column ``j`` reads only columns ``j`` and
    ``j - 1``, so computing extra columns never changes a column's
    cells: the ``k``-column of a multi-k run is byte-identical to a
    dedicated ``k``-run (the column-range pruning below only widens).
    Returns the final row-0 cells per requested ``k`` — vectors as
    ``(lines, k)`` rank positions (the engine's ``positions``) — with
    ``None`` where no vector can be formed.
    """
    _count_sweep()
    n = len(units)
    ks = sorted(set(ks))
    results: dict[int, _Cell | None] = {k: None for k in ks}
    live = [k for k in ks if k <= n]
    if not live:
        return results
    k_min, k_max = live[0], live[-1]
    engine = _engine_for(backend, max_lines)
    exit_cell = engine.const_cell()
    chain = engine.new_chain(k_max + 1)
    # below[j] holds D[r+1][j]; initially r+1 == n (virtual bottom row).
    below: list[_Cell | None] = [None] * (k_max + 1)
    for r in range(n - 1, -1, -1):
        unit = units[r]
        # Column 0 below row r: the exit point after picking row r last.
        below[0] = exit_cell if exit_enabled[r] else None
        cur: list[_Cell | None] = [None] * (k_max + 1)
        # Only columns completable from above matter: rows 0..r-1 can
        # supply at most r more picks (j >= k_min - r) and rows r..n-1
        # at most n - r picks (j <= n - r).
        j_low = max(1, k_min - r)
        j_high = min(k_max, n - r)
        js = range(j_low, j_high + 1)
        outs = engine.fold_into(
            chain, unit, [(below[j], below[j - 1]) for j in js]
        )
        for j, out in zip(js, outs):
            cur[j] = out
        below = cur
    for k in live:
        final = below[k]
        if final is not None:
            scores, probs, ids = engine.export_cell(final)
            results[k] = (scores, probs, engine.positions(ids, k))
    return results


def _dp_run(
    units: Sequence[_Unit],
    k: int,
    exit_enabled: Sequence[bool],
    max_lines: int,
    backend: str | None = None,
) -> _Cell | None:
    """One bottom-up dynamic program over ``units`` (single read-out).

    Returns the final cell — row 0, column k — with vectors as
    ``(lines, k)`` rank positions, or ``None`` when no vector can be
    formed.
    """
    return _dp_run_multi(units, (k,), exit_enabled, max_lines, backend)[k]


def _merge_cells(cells: list[_Cell], max_lines: int) -> _Cell | None:
    """Union of per-ending final cells, reduced to the line budget.

    Equal scores merge exactly; the line budget is enforced by the same
    grid coalescing as the intermediate distributions.  The cells'
    vectors are ``(lines, k)`` position rows: the union reduces line
    ids (indices into the cells' concatenation) and then gathers only
    the surviving lines' rows.
    """
    if not cells:
        return None
    scores = np.concatenate([cell[0] for cell in cells])
    order = np.argsort(scores, kind="stable")
    probs = np.concatenate([cell[1] for cell in cells])[order]
    scores, probs, lines = _reduce_cell(scores[order], probs, order, max_lines)
    sizes = np.array([len(cell[0]) for cell in cells])
    starts = np.cumsum(sizes) - sizes
    owners = np.searchsorted(starts, lines, side="right") - 1
    rows = np.empty((len(lines), cells[0][2].shape[1]), dtype=np.int64)
    for index, (owner, line) in enumerate(
        zip(owners.tolist(), (lines - starts[owners]).tolist())
    ):
        rows[index] = cells[owner][2][line]
    return scores, probs, rows


def _cell_to_pmf(cell: _Cell | None, scored: ScoredTable) -> ScorePMF:
    """Convert a final DP cell into a public :class:`ScorePMF`.

    The cell's vectors are position rows in pick order.  The ME
    programs pick rule tuples by their highest member, which may
    interleave ranks; sorted, a row is the vector in rank order, as
    presentation (and Definition 2) wants, and only then are its
    positions mapped to tids.
    """
    if cell is None:
        return ScorePMF(())
    scores, probs, rows = cell
    tids = scored.tid_column
    vectors = [
        tuple(map(tids.__getitem__, row))
        for row in np.sort(rows, axis=1).tolist()
    ]
    return ScorePMF(zip(scores.tolist(), probs.tolist(), vectors))


def dp_distribution(
    scored: ScoredTable,
    k: int,
    *,
    max_lines: int = DEFAULT_MAX_LINES,
    backend: str | None = None,
) -> ScorePMF:
    """Top-k total-score distribution of a rank-ordered scored table.

    ``scored`` should already be truncated to the Theorem-2 scan depth
    (the :func:`repro.core.distribution.top_k_score_distribution`
    facade does this).  Handles independent tuples, mutual exclusion
    and score ties, per Sections 3.2–3.4.

    :param scored: canonical rank-ordered input.
    :param k: how many tuples a top-k vector holds (>= 1).
    :param max_lines: coalescing budget per distribution.
    :param backend: kernel backend — ``python``, ``native`` or
        ``auto``/``None``; results are byte-identical either way (the
        ``REPRO_BACKEND`` environment variable overrides).
    :returns: the (possibly sub-unit-mass) score distribution, each
        line carrying the most probable vector attaining its score.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    n = len(scored)
    if n < k:
        return ScorePMF(())

    if scored.me_member_count() == 0:
        # Basic case (Section 3.2): tuples are independent; a single
        # dynamic program with every exit point enabled suffices.
        units = [_Unit((row,)) for row in _rows(scored)]
        cell = _dp_run(units, k, [True] * n, max_lines, backend)
    else:
        # Mutual-exclusion case (Section 3.3): one shared-prefix forward
        # sweep over all ending units (Section 3.3.3, the O(kmn) path).
        partial = _shared_prefix_sweep(scored, k, max_lines, backend)
        cell = _merge_cells(partial, max_lines)
    return _cell_to_pmf(cell, scored)


def me_straddle_intervals(scored: ScoredTable) -> tuple[tuple[int, int], ...]:
    """Depth intervals that split a multi-member group to a singleton.

    For each multi-member ME group with sorted member positions
    ``p0 < p1 < ...``, any truncation depth ``d`` with
    ``p0 < d <= p1`` keeps exactly one member — the depth-``d`` prefix
    then treats the survivor as an *independent* tuple, while a deeper
    sweep compresses it into a rule tuple, so sliced results would not
    be byte-identical to a dedicated run.  The planner refuses to fuse
    requests whose depth falls inside any returned ``(p0, p1]``
    interval (and requests whose depth is ``<= p0`` for every group,
    whose prefix is therefore independent, take the bottom-up path).
    """
    intervals = []
    for g in scored.groups():
        positions = scored.group_positions(g)
        if len(positions) > 1:
            intervals.append((positions[0], positions[1]))
    return tuple(intervals)


def sliceable_depth(scored: ScoredTable, depth: int) -> bool:
    """Whether ``depth`` may be sliced from a fused ME sweep of
    ``scored``: the depth-prefix must see the exact same rule-tuple
    structure the full sweep sees (no straddled group, and at least
    one multi-member group fully inside the prefix)."""
    has_me = False
    for p0, p1 in me_straddle_intervals(scored):
        if p0 < depth <= p1:
            return False
        if p1 < depth:
            has_me = True
    return has_me


def dp_distribution_sliced(
    scored: ScoredTable,
    requests: Sequence[tuple[int, int]],
    *,
    max_lines: int = DEFAULT_MAX_LINES,
    backend: str | None = None,
) -> list[ScorePMF]:
    """Several ``(k, depth)`` distributions from one dynamic program.

    This is the fused execution path behind
    :meth:`repro.api.session.Session.execute_many`: each returned PMF
    is byte-identical to
    ``dp_distribution(scored.prefix(depth), k, max_lines=max_lines)``
    while the sweep itself runs once.

    Two regimes:

    * **mutual exclusion** (``scored.me_member_count() > 0``): the
      forward shared-prefix sweep serves any mix of ``k`` and
      ``depth``, as long as every depth passes
      :func:`sliceable_depth` (callers group accordingly);
    * **independent tuples**: the bottom-up program is sliced per
      column, which requires every request to share the same depth
      (``len(scored)`` — nested-depth independent requests cannot
      share a bottom-up program, whose sub-problems are suffixes).

    :raises AlgorithmError: on an invalid ``k``/``depth`` or a request
        mix the single sweep cannot serve byte-identically.
    """
    if not requests:
        return []
    n = len(scored)
    for k, depth in requests:
        if k < 1:
            raise AlgorithmError(f"k must be >= 1, got {k}")
        if not 0 <= depth <= n:
            raise AlgorithmError(
                f"depth must be in [0, {n}], got {depth}"
            )

    if scored.me_member_count() == 0:
        if any(depth != n for _, depth in requests):
            raise AlgorithmError(
                "independent-prefix requests must all share the sweep "
                "depth; group nested depths into separate sweeps"
            )
        units = [_Unit((row,)) for row in _rows(scored)]
        cells = _dp_run_multi(
            units, [k for k, _ in requests], [True] * n, max_lines, backend
        )
        return [_cell_to_pmf(cells[k], scored) for k, _ in requests]

    for _, depth in requests:
        if depth < n and not sliceable_depth(scored, depth):
            raise AlgorithmError(
                f"depth {depth} cannot be sliced from this sweep: the "
                "prefix's rule-tuple structure differs (straddled or "
                "absent ME group)"
            )
    partial = _shared_prefix_sweep_multi(scored, requests, max_lines, backend)
    return [
        _cell_to_pmf(_merge_cells(cells, max_lines), scored)
        for cells in partial
    ]


def _fold_unit(
    state: list[_Cell | None],
    unit: _Unit,
    engine,
    chain,
    low: int = 0,
) -> list[_Cell | None]:
    """Advance forward DP columns by one unit (non-destructively).

    ``state[j]`` is the distribution over picking exactly ``j``
    constituents among the folded units, with the absent factor of
    every unpicked unit applied — i.e. the transposed view of the
    bottom-up recurrence, which yields the same distributions because
    the unit set is what matters, not the fold order.

    ``low`` prunes columns that can no longer matter: when only ``r``
    folds remain before the last read of column ``k-1``, a column
    ``j < k-1-r`` cannot climb there in time, so callers pass
    ``low = k-1-r`` (the mirror of the ``j_low``/``j_high`` range
    pruning in :func:`_dp_run`).  Pruned columns are ``None``.
    """
    columns = len(state)
    js = list(range(columns - 1, max(low, 1) - 1, -1))
    pairs = [(state[j], state[j - 1]) for j in js]
    if low == 0:
        js.append(0)
        pairs.append((state[0], None))
    outs = engine.fold_into(chain, unit, pairs)
    new: list[_Cell | None] = [None] * columns
    for j, out in zip(js, outs):
        new[j] = out
    return new


def _shared_prefix_sweep_multi(
    scored: ScoredTable,
    requests: Sequence[tuple[int, int]],
    max_lines: int,
    backend: str | None = None,
) -> list[list[_Cell]]:
    """Per-ending final cells from one forward pass (Section 3.3.3),
    sliced per ``(k, depth)`` request.

    The sweep maintains, incrementally:

    * ``ind_state`` — DP columns ``0..k_max-1`` over every
      singleton-group tuple passed so far (the shared compressed
      prefix);
    * ``members[g]`` — the constituents of each multi-member group
      passed so far (the group's rule tuple, grown member-by-member
      instead of being rebuilt from scratch per ending).

    Reaching an ending unit, only the current rule tuples (at most the
    paper's ``m``) are folded on top of the shared state — excluding
    the ending's own group, whose mates are absent with probability 1
    once the ending is fixed — and the ending's own rows are attached.
    Lead-tuple regions pay the rule fold once and then extend the
    state row by row, emitting one exit cell per region row.

    Multi-request slicing: each request ``(k, depth)`` collects the
    exit cells at column ``k - 1`` for ending positions ``< depth``.
    A per-ending cell depends only on the rows *above* the ending and
    on its own column, so the collected cells — and hence the merged
    per-request distribution — are byte-identical to a dedicated
    sweep over ``scored.prefix(depth)`` with that ``k``, provided no
    multi-member group of ``scored`` is split by ``depth`` down to a
    single member (the planner's straddle check; see
    :func:`dp_distribution_sliced`).  Column-range pruning is driven
    by the smallest requested ``k``, which only widens the computed
    range and never changes a column's cells.

    Each emitted cell is kept as ``(scores, probs, rows)``: its
    vectors are walked into ``(lines, k)`` rank positions at once, and
    the per-ending fold ids are then released from the arena, so the
    arena footprint tracks the shared prefix, not the whole sweep.
    Only the lines that survive a request's final reduce become tid
    tuples (:func:`_merge_cells`, :func:`_cell_to_pmf`).
    """
    _count_sweep()
    engine = _engine_for(backend, max_lines)
    k_min = min(k for k, _ in requests)
    k_max = max(k for k, _ in requests)
    multi = {
        g
        for g in scored.groups()
        if len(scored.group_positions(g)) > 1
    }
    rows = _rows(scored)
    groups = scored.group_column.tolist()
    members: dict[int, list[tuple[float, float, int]]] = {g: [] for g in multi}
    rule_order: list[int] = []  # multi groups by first (lead) appearance
    rule_cache: dict[int, _Unit] = {}
    ind_state: list[_Cell | None] = (
        [engine.const_cell()] + [None] * (k_max - 1)
    )
    # The shared prefix and the per-ending scratch folds advance on
    # separate chains: scratch ping/pong must never clobber the live
    # shared-prefix cells it reads from.
    ind_chain = engine.new_chain(k_max)
    scratch_chain = engine.new_chain(k_max)

    def folded_rules(
        exclude_group: int | None, row_slack: int
    ) -> list[_Cell | None]:
        """Fold the current rule tuples on top of the shared state.

        ``row_slack`` is how many more per-row folds the caller will
        apply before its last exit (region width minus one); it widens
        the column range that can still reach ``k_min - 1``.
        """
        rules = [
            g for g in rule_order if g != exclude_group and members[g]
        ]
        state = ind_state
        for index, g in enumerate(rules):
            unit = rule_cache.get(g)
            if unit is None:
                unit = rule_cache[g] = _Unit(members[g])
            remaining = len(rules) - index - 1 + row_slack
            state = _fold_unit(
                state, unit, engine, scratch_chain,
                max(0, k_min - 1 - remaining),
            )
        return state

    partial: list[list[_Cell]] = [[] for _ in requests]

    def emit(state: list[_Cell | None], pos: int) -> None:
        for index, (k, depth) in enumerate(requests):
            if pos >= depth:
                continue
            exported = engine.take_reduce(state[k - 1], rows[pos])
            if exported is not None:
                scores, probs, ids = exported
                partial[index].append(
                    (scores, probs, engine.positions(ids, k))
                )

    for start, end in _ending_units(scored):
        # Emit this span's exit cells from the state accumulated so
        # far; the fold chunks are scratch, released after emitting.
        if end > k_min - 1:
            scratch = engine.mark()
            if end - start == 1 and not scored.is_lead(start):
                state = folded_rules(groups[start], 0)
                emit(state, start)
            else:
                state = folded_rules(None, end - start - 1)
                for pos in range(start, end):
                    emit(state, pos)
                    if pos + 1 < end:
                        state = _fold_unit(
                            state,
                            _Unit((rows[pos],)),
                            engine,
                            scratch_chain,
                            max(0, k_min - 1 - (end - 2 - pos)),
                        )
            engine.release(scratch)
        # Advance the shared prefix past the span's rows.
        for pos in range(start, end):
            group = groups[pos]
            if group in multi:
                if not members[group]:
                    rule_order.append(group)
                members[group].append(rows[pos])
                rule_cache.pop(group, None)
            else:
                ind_state = _fold_unit(
                    ind_state,
                    _Unit((rows[pos],)),
                    engine,
                    ind_chain,
                )
    return partial


def _shared_prefix_sweep(
    scored: ScoredTable,
    k: int,
    max_lines: int,
    backend: str | None = None,
) -> list[_Cell]:
    """Per-ending final cells for one ``k`` over the whole table."""
    return _shared_prefix_sweep_multi(
        scored, [(k, len(scored))], max_lines, backend
    )[0]


def _ending_units(scored: ScoredTable) -> list[tuple[int, int]]:
    """Ending units as half-open spans, in position order.

    Lead-tuple regions come out as multi-position spans; every non-lead
    tuple is its own single-position span.  Together the spans tile
    ``[0, len(scored))``, so every possible ending position is covered
    exactly once (no double counting across dynamic programs).
    """
    spans: list[tuple[int, int]] = []
    pos = 0
    n = len(scored)
    while pos < n:
        if scored.is_lead(pos):
            end = pos + 1
            while end < n and scored.is_lead(end):
                end += 1
            spans.append((pos, end))
            pos = end
        else:
            spans.append((pos, pos + 1))
            pos += 1
    return spans
