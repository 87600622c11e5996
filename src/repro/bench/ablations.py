"""Ablation twins of production engines.

Earlier shapes of the production code, kept only so the registry's
ablations (``repro figures <entry>``) can measure what the production
engines save, and so the tests can use them as independent references:

* :func:`dp_distribution_per_ending` — one bottom-up dynamic program
  per ending unit (``repro figures ablation_shared_prefix``, the
  ``me_per_ending_*`` workload of ``repro bench``);
* :func:`dp_distribution_without_lead_regions` — the "simple
  extension" of Section 3.3.2, one program per ending tuple
  (``repro figures ablation_lead_regions``);
* :func:`sample_worlds_per_world` — the possible-world sampler the
  batched Monte-Carlo engine replaced (``repro figures ablation_mc``).

Each computes what its production counterpart computes; the DP twins
reuse the production cell machinery, and none is reachable from a
query path.
"""

from __future__ import annotations

import numpy as np

from repro.core.dp import (
    DEFAULT_MAX_LINES,
    _Cell,
    _cell_to_pmf,
    _concat_cells,
    _dp_run_multi,
    _ending_units,
    _merge_cells,
    _row_units,
    _Units,
)
from repro.core.pmf import ScorePMF
from repro.exceptions import AlgorithmError
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable


def _compressed_units(
    scored: ScoredTable,
    cutoff: int,
    exclude_group: int | None,
) -> list[list[int]]:
    """Rule tuples for the rows above ``cutoff`` (positions < cutoff),
    as their members' rank positions.

    Every ME group is reduced to its members ranked above the cutoff
    (the truncation of Section 3.3.2) and compressed into one rule
    tuple.  ``exclude_group`` (the ending tuple's own group) is removed
    entirely: given that the ending tuple exists, its group mates are
    absent with probability 1 and must not contribute ``1 - p``
    factors.  Units are ordered by their highest-ranked member for
    determinism (order is semantically irrelevant once the ending is
    fixed).
    """
    members_by_group: dict[int, list[int]] = {}
    groups = scored.group_column[:cutoff].tolist()
    for pos, group in enumerate(groups):
        if group != exclude_group:
            members_by_group.setdefault(group, []).append(pos)
    return list(members_by_group.values())


def _bottom_up(
    scored: ScoredTable,
    members: list[list[int]],
    k: int,
    exits: list[bool],
    max_lines: int,
    backend: str | None = None,
) -> _Cell | None:
    """Final cell of one bottom-up program over units given by their
    constituents' rank positions (a unit's absent probability sums its
    constituents' probabilities left to right, as the sweep's rule
    tuples do)."""
    probs = scored.prob_column.tolist()
    length = np.array([len(unit) for unit in members], dtype=np.int64)
    units = _Units(
        np.cumsum(length) - length,
        length,
        np.array([pos for unit in members for pos in unit], dtype=np.int64),
        np.array([max(0.0, 1.0 - sum(probs[p] for p in unit)) for unit in members]),
        scored.score_column,
        scored.prob_column,
    )
    return _dp_run_multi(units, (k,), exits, max_lines, backend)[k]


def _per_ending_cell(
    scored: ScoredTable,
    k: int,
    start: int,
    end: int,
    max_lines: int,
    backend: str | None = None,
) -> _Cell | None:
    """Final cell of one ending unit's bottom-up program (or None).

    The per-span unit of work of :func:`dp_distribution_per_ending`.
    """
    if end <= k - 1:
        # A top-k vector's ending tuple sits at position >= k - 1.
        return None
    if end - start == 1 and not scored.is_lead(start):
        units = _compressed_units(scored, start, scored[start].group)
        units.append([start])
        exits = [False] * len(units)
        exits[-1] = True
    else:
        units = _compressed_units(scored, start, None)
        exits = [False] * len(units)
        for pos in range(start, end):
            units.append([pos])
            exits.append(True)
    return _bottom_up(scored, units, k, exits, max_lines, backend)


def dp_distribution_per_ending(
    scored: ScoredTable,
    k: int,
    *,
    max_lines: int = DEFAULT_MAX_LINES,
    backend: str | None = None,
) -> ScorePMF:
    """Ablation: one bottom-up dynamic program per ending unit.

    This is the pre-shared-prefix implementation of the ME path: every
    ending unit (lead-tuple region or individual non-lead tuple)
    launches a fresh bottom-up dynamic program and rebuilds the
    compressed prefix units from scratch, degrading toward O(kEn) with
    E ending units.  Semantically equivalent to :func:`dp_distribution`
    (which realizes the Section-3.3.3 O(kmn) bound by sharing the
    prefix state); kept for ``repro figures ablation_shared_prefix``,
    mirroring :func:`dp_distribution_without_lead_regions`.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    n = len(scored)
    if n < k:
        return ScorePMF(())

    if scored.me_member_count() == 0:
        units = _row_units(scored)
        cells = _dp_run_multi(units, (k,), [True] * n, max_lines, backend)
        return _cell_to_pmf(cells[k], scored)

    partial = []
    for start, end in _ending_units(scored):
        cell = _per_ending_cell(scored, k, start, end, max_lines, backend)
        if cell is not None:
            partial.append(cell)
    return _cell_to_pmf(_merge_cells(_concat_cells(partial), max_lines), scored)


def dp_distribution_without_lead_regions(
    scored: ScoredTable,
    k: int,
    *,
    max_lines: int = DEFAULT_MAX_LINES,
) -> ScorePMF:
    """Ablation: the "simple extension" of Section 3.3.2.

    Runs one dynamic program per ending *tuple* (positions k-1 .. n-1),
    never batching lead-tuple regions.  Semantically identical to
    :func:`dp_distribution`; asymptotically slower when most tuples are
    independent.  ``repro figures ablation_lead_regions`` uses it to
    quantify the Section 3.3.3 refinement.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    n = len(scored)
    if n < k:
        return ScorePMF(())
    partial: list[_Cell] = []
    for pos in range(k - 1, n):
        units = _compressed_units(scored, pos, scored[pos].group)
        units.append([pos])
        exits = [False] * len(units)
        exits[-1] = True
        cell = _bottom_up(scored, units, k, exits, max_lines)
        if cell is not None:
            partial.append(cell)
    return _cell_to_pmf(_merge_cells(_concat_cells(partial), max_lines), scored)


def sample_worlds_per_world(
    table: UncertainTable, count: int, seed: int
) -> list[frozenset]:
    """Ablation: the pre-batched ``WorldSampler``.

    One O(#groups) Python pass and one ``searchsorted`` per world,
    where :class:`~repro.mc.sampler.BatchWorldSampler` draws every
    world of a batch in a few numpy operations.
    """
    rng = np.random.default_rng(seed)
    group_tids = []
    group_cumprobs = []
    for members in table.groups:
        probs = np.array(
            [table[tid].probability for tid in members], dtype=float
        )
        group_tids.append(tuple(members))
        group_cumprobs.append(np.cumsum(probs))
    worlds = []
    for _ in range(count):
        tids = []
        draws = rng.random(len(group_tids))
        for members, cum, u in zip(group_tids, group_cumprobs, draws):
            index = int(np.searchsorted(cum, u, side="right"))
            if index < len(members):
                tids.append(members[index])
        worlds.append(frozenset(tids))
    return worlds
