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
Every dynamic program is lowered once into a :class:`_Program`: a flat
int32 array of steps over a few *state slots* (each one DP state, a
row of column cells), plus a unit table (:class:`_Units`: each unit's
constituents as rank positions, and its absent probability).  Every
decision of the recurrence — unit order, which rule tuples an ending
excludes, the column range a fold can still affect, the emit points —
is made by the lowering (:func:`_dp_run_multi`,
:func:`_sweep_program`).  An *engine* only runs the steps: the numpy
engine (:class:`_PythonEngine`) walks them with :func:`_combine`, and
the native engine (:mod:`repro.core.kernels.native`) hands the whole
program to one C call.  Both return each request's lines as one
``(scores, probs, rows)`` triple in emit order, byte for byte alike.

Cell distributions are ``(scores, probs, vectors)`` triples with the
numeric columns as ascending numpy arrays.  Inside the dynamic
programs a row is known only by its rank position in the
:class:`ScoredTable`, and a representative vector is an int64 id into
a vector arena (:class:`_Arena`, or the native kernel's chunk
registry) that records, per line, its parent vector and the position
it adds.  No Python object is built per line: an emitted or exported
cell's vectors are walked into a ``(lines, k)`` int32 array of
positions, and only the lines that survive the last reduce become tid
tuples (:func:`_cell_to_pmf`).  Distribution unions concatenate their
already-ascending parts and take one stable ``np.argsort``
(:func:`_stable_merge`), so equal scores keep part order: the
permutation of the native kernel's sequential merge.  Intermediate
coalescing uses an equi-width grid over the cell's own span
(weighted-mean score, summed probability, heavier line's vector per
occupied bucket): every merge joins lines at most ``cell span /
max_lines`` apart, and since intermediate spans never exceed the final
span (Section 3.2.1), the merge radius is bounded by the same δ as the
paper's closest-pair strategy.  The public
:func:`repro.core.coalesce.coalesce_lines` keeps the exact pairwise
strategy for presentation-time coalescing.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Sequence

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

    Each bottom-up program (:func:`_dp_run_multi`, one or more k) and
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
        """Length-``k`` vectors as ``(lines, k)`` int32 positions, last
        pick first."""
        rows = np.empty((len(ids), k), dtype=np.int32)
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
    """Index of the heaviest line per segment, the last one on ties.

    Two linear passes: each segment's maximum (``np.maximum.reduceat``
    is exact in any order), then the largest index holding it.  This
    is the choice of a stable sort by (segment, prob) and of the
    native kernel's running ``>=`` — for finite probabilities, which
    every cell holds: a NaN would pick a different line.
    """
    counts = np.diff(np.append(starts, len(probs)))
    if counts.max() == 1:
        return starts
    best = np.repeat(np.maximum.reduceat(probs, starts), counts)
    hits = np.where(probs == best, np.arange(len(probs)), -1)
    return np.maximum.reduceat(hits, starts)


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
    constituents: Sequence[tuple[float, float, int]],
    absent_prob: float,
    skip_cell: _Cell | None,
    take_cell: _Cell | None,
    arena: _Arena,
    max_lines: int,
) -> _Cell | None:
    """One distribution-merging step (Section 3.2, steps 1-3).

    ``skip_cell`` is ``D[r+1][j]`` (the unit absent, with probability
    ``absent_prob``), ``take_cell`` is ``D[r+1][j-1]`` (one of the
    unit's ``(score, prob, pos)`` constituents exists and is
    prepended).
    """
    parts: list[_Cell] = []
    if skip_cell is not None and absent_prob > 0.0:
        scores, probs, vectors = skip_cell
        parts.append((scores, probs * absent_prob, vectors))
    if take_cell is not None:
        scores, probs, vectors = take_cell
        for c_score, c_prob, c_pos in constituents:
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


def _concat_cells(cells: Sequence[_Cell]) -> _Cell | None:
    """The cells' lines as one cell, in order (``None`` when none)."""
    if len(cells) > 1:
        cells = [tuple(np.concatenate(column) for column in zip(*cells))]
    return cells[0] if cells and len(cells[0][0]) else None


# ----------------------------------------------------------------------
# Programs: a dynamic program lowered to steps an engine runs
# ----------------------------------------------------------------------
#: Step opcodes (``_kernel.c`` mirrors them); a step is ``_STEP_WIDTH``
#: int32 fields (units, slots, columns, positions and requests), the
#: unused ones 0.
_FOLD, _EMIT, _EXPORT, _EXIT, _MARK, _RELEASE = range(6)
_STEP_WIDTH = 6


class _Units(NamedTuple):
    """A program's unit table.

    Unit ``u``'s constituents are the rank positions ``pos[off[u]:
    off[u] + length[u]]``, and ``absent[u]`` is the probability that
    none of them exists; ``scores`` and ``probs`` are the prefix's
    columns, indexed by rank position.
    """

    off: np.ndarray
    length: np.ndarray
    pos: np.ndarray
    absent: np.ndarray
    scores: np.ndarray
    probs: np.ndarray


class _Program(NamedTuple):
    """One dynamic program, lowered.

    ``steps`` is an ``(nsteps, _STEP_WIDTH)`` int32 array over
    ``nslots`` state slots of ``ncols`` column cells each (all start
    with no cell):

    * ``(_FOLD, unit, src, dst, lo, hi)`` — for ``lo <= j <= hi``,
      ``dst[j]`` is the :func:`_combine` of ``unit`` over ``src[j]``
      (skip) and ``src[j - 1]`` (take; none at ``j = 0``); every other
      column of ``dst`` holds no cell;
    * ``(_EMIT, slot, col, pos, request)`` — attach row ``pos`` as the
      last pick of ``slot[col]`` and append the reduced lines, with
      their ``col + 1``-pick vectors, to the request;
    * ``(_EXPORT, slot, col, request)`` — append ``slot[col]``'s lines
      with their ``col``-pick vectors;
    * ``(_EXIT, slot, on)`` — column 0 of ``slot`` becomes the exit
      cell {0.0: 1.0} with the empty vector when ``on``, else no cell;
    * ``(_MARK,)`` / ``(_RELEASE,)`` — drop every vector id made
      between them (the sweep's per-ending scratch).

    ``walks[r]`` is the picks per vector of request ``r``.
    """

    steps: np.ndarray
    units: _Units
    ncols: int
    nslots: int
    walks: list[int]
    max_lines: int


class _PythonEngine:
    """The numpy engine: walks a :class:`_Program` with :func:`_combine`.

    An engine's one method, ``run(program)``, returns each request's
    lines as one ``(scores, probs, rows)`` triple in emit order —
    ``rows`` the ``(lines, k)`` int32 rank positions of the vectors,
    last pick first — or ``None``.  This engine is the reference the
    native one (:mod:`repro.core.kernels.native`) matches byte for byte.
    """

    def run(self, program: _Program) -> list[_Cell | None]:
        off, length, positions, absent, scores, probs = (
            column.tolist() for column in program.units
        )
        arena = _Arena()
        max_lines = program.max_lines
        exit_cell = (np.zeros(1), np.ones(1), np.zeros(1, dtype=np.int64))
        slots = [[None] * program.ncols for _ in range(program.nslots)]
        out: list[list[_Cell]] = [[] for _ in program.walks]
        mark = 0
        for op, a, b, c, d, e in program.steps.tolist():
            if op == _FOLD:
                at = positions[off[a] : off[a] + length[a]]
                unit = ([(scores[p], probs[p], p) for p in at], absent[a])
                src = slots[b]
                dst = slots[c] = [None] * program.ncols
                for j in range(d, e + 1):
                    take = src[j - 1] if j else None
                    dst[j] = _combine(*unit, src[j], take, arena, max_lines)
            elif op == _EMIT:
                take = slots[a][b]
                if take is not None:
                    size = arena.mark()
                    ending = [(scores[c], probs[c], c)]
                    cell = _combine(ending, 0.0, None, take, arena, max_lines)
                    out[d].append((*cell[:2], arena.walk(cell[2], b + 1)))
                    arena.release(size)
            elif op == _EXPORT:
                cell = slots[a][b]
                if cell is not None:
                    out[c].append((*cell[:2], arena.walk(cell[2], b)))
            elif op == _EXIT:
                slots[a][0] = exit_cell if b else None
            elif op == _MARK:
                mark = arena.mark()
            else:
                arena.release(mark)
        return [_concat_cells(cells) for cells in out]


def _run(program: _Program, backend: str | None) -> list[_Cell | None]:
    """Run one lowered dynamic program (counted by :func:`dp_sweep_count`).

    ``backend`` is the resolved planner choice (or ``None`` for auto);
    the ``REPRO_BACKEND`` environment variable overrides either way.
    Line budgets beyond the native slab cap silently use the python
    engine — the budgets that large only appear in exact-reference
    test helpers, and the outputs are identical regardless.
    """
    from repro.core import kernels

    _count_sweep()
    engine = None
    if kernels.resolve_backend(backend) == "native":
        engine = kernels.native_engine(program.max_lines)
    return (engine or _PythonEngine()).run(program)


def _row_units(scored: ScoredTable) -> _Units:
    """Every row of ``scored`` a unit of its own, in rank order."""
    iota = np.arange(len(scored))
    probs = scored.prob_column
    return _Units(
        iota,
        np.ones_like(iota),
        iota,
        np.maximum(0.0, 1.0 - probs),
        scored.score_column,
        probs,
    )


def _dp_run_multi(
    units: _Units,
    ks: Sequence[int],
    exit_enabled: Sequence[bool],
    max_lines: int,
    backend: str | None = None,
) -> dict[int, _Cell | None]:
    """One bottom-up dynamic program, read out at several columns.

    ``exit_enabled[r]`` states whether a top-k vector may *end* with
    unit ``r`` (i.e. whether the column-0 cell below row ``r`` holds
    the enabling distribution ``(0, 1)`` instead of the blocking
    ``(0, 0)`` of Section 3.3.2).

    Row ``r`` (taken from the bottom) reads one slot and writes the
    other; before its fold, an ``_EXIT`` step sets the read slot's
    column 0 to that exit point.  The recurrence of column ``j`` reads
    only columns ``j`` and ``j - 1``, so computing extra columns never
    changes a column's cells: the ``k``-column of a multi-k run is
    byte-identical to a dedicated ``k``-run (the column-range pruning
    below only widens).  Returns the final row-0 cells per requested
    ``k`` — vectors as ``(lines, k)`` rank positions — with ``None``
    where no vector can be formed.
    """
    n = len(units.off)
    ks = sorted(set(ks))
    results: dict[int, _Cell | None] = dict.fromkeys(ks)
    live = [k for k in ks if k <= n]
    if not live:
        _count_sweep()
        return results
    k_min, k_max = live[0], live[-1]
    r = np.arange(n - 1, -1, -1)
    src = np.arange(n) & 1
    steps = np.zeros((n, 2, _STEP_WIDTH), dtype=np.int32)
    steps[:, 0, 0] = _EXIT
    steps[:, 0, 1] = src
    steps[:, 0, 2] = np.asarray(exit_enabled, dtype=bool)[r]
    steps[:, 1, 0] = _FOLD
    steps[:, 1, 1] = r
    steps[:, 1, 2] = src
    steps[:, 1, 3] = 1 - src
    # Only columns completable from above matter: rows 0..r-1 can
    # supply at most r more picks (j >= k_min - r) and rows r..n-1 at
    # most n - r picks (j <= n - r).
    steps[:, 1, 4] = np.maximum(1, k_min - r)
    steps[:, 1, 5] = np.minimum(k_max, n - r)
    exports = [(_EXPORT, n & 1, k, index, 0, 0) for index, k in enumerate(live)]
    program = _Program(
        np.concatenate([steps.reshape(-1, _STEP_WIDTH), np.int32(exports)]),
        units,
        k_max + 1,
        2,
        live,
        max_lines,
    )
    results.update(zip(live, _run(program, backend)))
    return results


def _merge_cells(cell: _Cell | None, max_lines: int) -> _Cell | None:
    """A request's emitted lines reduced to one distribution.

    ``cell`` holds every ending's final lines in emit order.  Equal
    scores merge exactly; the line budget is enforced by the same grid
    coalescing as the intermediate distributions.  The reduce runs on
    line ids (one stable argsort of the scores), and only the
    surviving lines' position rows are gathered.
    """
    if cell is None:
        return None
    scores, probs, rows = cell
    order = np.argsort(scores, kind="stable")
    scores, probs, lines = _reduce_cell(
        scores[order], probs[order], order, max_lines
    )
    return scores, probs, rows[lines]


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
        cell = _dp_run_multi(
            _row_units(scored), (k,), [True] * n, max_lines, backend
        )[k]
    else:
        # Mutual-exclusion case (Section 3.3): one shared-prefix forward
        # sweep over all ending units (Section 3.3.3, the O(kmn) path).
        program = _sweep_program(scored, [(k, n)], max_lines)
        cell = _merge_cells(_run(program, backend)[0], max_lines)
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
        cells = _dp_run_multi(
            _row_units(scored),
            [k for k, _ in requests],
            [True] * n,
            max_lines,
            backend,
        )
        return [_cell_to_pmf(cells[k], scored) for k, _ in requests]

    for _, depth in requests:
        if depth < n and not sliceable_depth(scored, depth):
            raise AlgorithmError(
                f"depth {depth} cannot be sliced from this sweep: the "
                "prefix's rule-tuple structure differs (straddled or "
                "absent ME group)"
            )
    program = _sweep_program(scored, requests, max_lines)
    return [
        _cell_to_pmf(_merge_cells(cell, max_lines), scored)
        for cell in _run(program, backend)
    ]




def _sweep_program(
    scored: ScoredTable,
    requests: Sequence[tuple[int, int]],
    max_lines: int,
) -> _Program:
    """Lower the forward shared-prefix sweep (Section 3.3.3).

    Slots 0 and 1 take turns holding the shared prefix state: DP
    columns ``0..k_max-1`` over every singleton-group tuple passed so
    far.  Each multi-member group's members passed so far form its rule
    tuple, one unit per member added.  At an ending unit, the current
    rule tuples are folded on top of the shared state, in order of
    their first member and without the ending's own group (its mates
    are absent once the ending exists), then the ending's rows are
    attached; a lead-tuple region folds the rules once and extends the
    state row by row.  These folds are scratch, in slots 2 and 3
    between a ``_MARK`` and a ``_RELEASE``.  A fold with ``r`` folds
    left before the last read of column ``k_min - 1`` cannot lift a
    column below ``k_min - 1 - r`` there in time, so its range starts
    at that column.  A span's rule chain is lowered as one numpy block:
    the Python work follows the rows and spans, not the rule folds.

    Each request ``(k, depth)`` emits column ``k - 1`` at the ending
    positions ``< depth``.  An ending's lines depend only on the rows
    above it and on its own column, so they are byte-identical to a
    dedicated sweep over ``scored.prefix(depth)`` with that ``k``,
    provided no multi-member group is split by ``depth`` down to one
    member (the planner's straddle check; see
    :func:`dp_distribution_sliced`).  Pruning by the smallest ``k``
    only widens the computed range and never changes a column's cells.
    """
    n = len(scored)
    k_min = min(k for k, _ in requests)
    last = max(k for k, _ in requests) - 1
    probs = scored.prob_column.tolist()
    groups = scored.group_column.tolist()
    multi = {g for g in scored.groups() if len(scored.group_positions(g)) > 1}
    # Each group's members sit together, in rank order, in ``order``:
    # a rule tuple is a prefix of its group's run.  Unit ``pos`` is row
    # ``pos`` alone; rule units follow, one per member added.
    order = np.argsort(scored.group_column, kind="stable")
    where = np.empty(n, dtype=np.int64)
    where[order] = np.arange(n)
    starts = where.tolist()
    rule_off: list[int] = []
    rule_len: list[int] = []
    rule_absent: list[float] = []
    rule_of: dict[int, int] = {}  # group -> rule index (first member order)
    mates: dict[int, list[float]] = {}  # group -> member probs so far
    rule_unit = np.zeros(len(multi), dtype=np.int64)  # rule index -> unit
    # A chain of rule folds alternates between scratch slots 2 and 3.
    iota = np.arange(len(multi))
    chain_steps = np.zeros((len(multi), _STEP_WIDTH), dtype=np.int32)
    chain_steps[:, 0] = _FOLD
    chain_steps[:, 2] = 3 - (iota & 1)
    chain_steps[:, 3] = 2 + (iota & 1)
    chain_steps[:, 5] = last
    blocks: list[np.ndarray] = []  # the program so far, but for `steps`
    steps = [_EXIT, 0, 1, 0, 0, 0]
    ind = 0
    for start, end in _ending_units(scored):
        # Emit this span's exit cells from the state accumulated so
        # far; the folds are scratch, released after emitting.
        if end > k_min - 1:
            slack = end - start - 1
            chain = rule_unit[: len(rule_of)]
            if slack == 0 and not scored.is_lead(start):
                own = rule_of[groups[start]]
                chain = np.concatenate((chain[:own], chain[own + 1 :]))
            cur = ind
            count = len(chain)
            steps += (_MARK, 0, 0, 0, 0, 0)
            if count:
                block = chain_steps[:count].copy()
                block[:, 1] = chain
                block[0, 2] = ind
                block[:, 4] = np.maximum(0, k_min - count - slack + iota[:count])
                blocks += (np.int32(steps), block.ravel())
                steps = []
                cur = 2 + ((count - 1) & 1)
            for pos in range(start, end):
                for index, (k, depth) in enumerate(requests):
                    if pos < depth:
                        steps += (_EMIT, cur, k - 1, pos, index, 0)
                if pos + 1 < end:
                    low = max(0, k_min - 1 - (end - 2 - pos))
                    nxt = 5 - cur if cur > 1 else 2
                    steps += (_FOLD, pos, cur, nxt, low, last)
                    cur = nxt
            steps += (_RELEASE, 0, 0, 0, 0, 0)
        # Advance the shared prefix past the span's rows.
        for pos in range(start, end):
            group = groups[pos]
            if group in multi:
                members = mates.get(group)
                if members is None:
                    members = mates[group] = []
                    rule_of[group] = len(rule_of)
                members.append(probs[pos])
                rule_unit[rule_of[group]] = n + len(rule_off)
                rule_off.append(starts[pos] + 1 - len(members))
                rule_len.append(len(members))
                rule_absent.append(max(0.0, 1.0 - sum(members)))
            else:
                steps += (_FOLD, pos, ind, 1 - ind, 0, last)
                ind = 1 - ind
    units = _Units(
        np.concatenate([where, rule_off]).astype(np.int64),
        np.concatenate([np.ones(n), rule_len]).astype(np.int64),
        order,
        np.concatenate([np.maximum(0.0, 1.0 - scored.prob_column), rule_absent]),
        scored.score_column,
        scored.prob_column,
    )
    blocks.append(np.int32(steps))
    return _Program(
        np.concatenate(blocks).reshape(-1, _STEP_WIDTH),
        units,
        last + 1,
        4,
        [k for k, _ in requests],
        max_lines,
    )


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
