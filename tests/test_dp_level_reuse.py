"""Rule-chain level reuse in the shared-prefix sweep's lowering.

:func:`repro.core.dp._sweep_program` keeps each level of a span's rule
chain in its own slot and reuses it in the next span while the shared
state and the units up to it are unchanged, folding only the levels
from the first unit that differs and the missing low columns of kept
levels.  :func:`reference_sweep_program` below is the lowering without
reuse (every span folds its whole chain into two scratch slots); the
programs of both must give byte-identical lines on both engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.distribution import prepare_scored_prefix
from repro.core.dp import (
    _EMIT,
    _EXIT,
    _EXPORT,
    _FOLD,
    _MARK,
    _RELEASE,
    _STEP_WIDTH,
    _ending_units,
    _Program,
    _PythonEngine,
    _sweep_program,
    _Units,
    sliceable_depth,
)
from repro.core.kernels import native
from repro.datasets.specs import generate_from_spec
from repro.datasets.synthetic import (
    MEGroupLayout,
    SyntheticConfig,
    generate_synthetic_table,
)
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from tests.conftest import make_table, random_table

NATIVE = kernels.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="no C compiler / native kernel on this machine"
)


def reference_sweep_program(scored, requests, max_lines) -> _Program:
    """The sweep lowered without level reuse: every span folds its whole
    rule chain, alternating between scratch slots 2 and 3 under one
    mark that the span releases after emitting."""
    n = len(scored)
    k_min = min(k for k, _ in requests)
    last = max(k for k, _ in requests) - 1
    probs = scored.prob_column.tolist()
    groups = scored.group_column.tolist()
    multi = {g for g in scored.groups() if len(scored.group_positions(g)) > 1}
    order = np.argsort(scored.group_column, kind="stable")
    where = np.empty(n, dtype=np.int64)
    where[order] = np.arange(n)
    starts = where.tolist()
    rule_off: list[int] = []
    rule_len: list[int] = []
    rule_absent: list[float] = []
    rule_of: dict[int, int] = {}
    mates: dict[int, list[float]] = {}
    rule_unit = np.zeros(len(multi), dtype=np.int64)
    iota = np.arange(len(multi))
    chain_steps = np.zeros((len(multi), _STEP_WIDTH), dtype=np.int32)
    chain_steps[:, 0] = _FOLD
    chain_steps[:, 2] = 3 - (iota & 1)
    chain_steps[:, 3] = 2 + (iota & 1)
    chain_steps[:, 5] = last
    blocks: list[np.ndarray] = []
    steps = [3, 0, 1, 0, 0, 0]  # _EXIT, slot 0, on
    ind = 0
    for start, end in _ending_units(scored):
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


def engines() -> list:
    found = [_PythonEngine()]
    if NATIVE:
        found.append(kernels.native_engine())
    return found


def assert_same_lines(a: list, b: list) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is None or y is None:
            assert x is None and y is None
            continue
        for column_x, column_y in zip(x, y):
            assert column_x.dtype == column_y.dtype
            assert column_x.tobytes() == column_y.tobytes()


def check_reads(program: _Program) -> int:
    """Run ``program`` over cell liveness alone and assert that no step
    reads a cell whose ids a release has dropped.  Returns how many
    cells a release dropped from the slots of levels below its own."""
    shape = (program.nslots, program.ncols)
    born = np.full(shape, -1)  # id block of a cell's lines; -1 for none
    dead = np.zeros(shape, dtype=bool)
    marks = [0] * program.nslots
    top = below = 0
    for op, a, b, c, d, e in program.steps.tolist():
        if op == _FOLD:
            for j in range(d, e + 1):
                assert not dead[b, j] and not (j and dead[b, j - 1])
                born[c, j] = top
                dead[c, j] = False
                top += 1
        elif op in (_EMIT, _EXPORT):
            assert not dead[a, b]
        elif op == _EXIT:
            born[a, 0] = -1
            dead[a, 0] = False
        elif op == _MARK:
            marks[a] = top
        elif op == _RELEASE:
            top = marks[a]
            drop = born >= top
            below += int(drop[2 : 2 + a].sum())
            dead |= drop
            born[drop] = -1
    return below


def assert_reuse_is_invisible(scored, requests, max_lines=200) -> None:
    """The reusing program reads no released cell, and its lines equal
    the reference program's, byte for byte, on every engine available."""
    program = _sweep_program(scored, requests, max_lines)
    reference = reference_sweep_program(scored, requests, max_lines)
    check_reads(program)
    expected = _PythonEngine().run(reference)
    for engine in engines():
        assert_same_lines(engine.run(program), expected)
        assert_same_lines(engine.run(reference), expected)


def rule_fold_work(program: _Program) -> int:
    """Columns × constituents over the program's rule-unit folds."""
    steps = program.steps
    rows = len(program.units.scores)
    folds = steps[(steps[:, 0] == _FOLD) & (steps[:, 1] >= rows)]
    width = np.maximum(0, folds[:, 5] - folds[:, 4] + 1)
    return int((width * program.units.length[folds[:, 1]]).sum())


def scored_of(table) -> ScoredTable:
    return ScoredTable.from_table(table, attribute_scorer("score"))


def dense_table(tuples: int, fraction: float, seed: int, gap=(1, 8)):
    layout = MEGroupLayout(size_range=(2, 4), gap_range=gap, fraction=fraction)
    return generate_synthetic_table(
        SyntheticConfig(tuples=tuples, me_layout=layout), seed=seed
    )


class TestByteIdentity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_tables_with_ties(self, seed) -> None:
        rng = np.random.default_rng(1000 + seed)
        scored = scored_of(random_table(rng, n=int(rng.integers(8, 40))))
        while scored.me_member_count() == 0:
            scored = scored_of(random_table(rng, n=int(rng.integers(8, 40))))
        n = len(scored)
        k = int(rng.integers(1, min(n, 8) + 1))
        assert_reuse_is_invisible(scored, [(k, n)], max_lines=8)
        assert_reuse_is_invisible(scored, [(k, n)])

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dense_me(self, fraction, seed) -> None:
        scored = scored_of(dense_table(120, fraction, seed))
        for k in (1, 3, 6):
            assert_reuse_is_invisible(scored, [(k, len(scored))], max_lines=24)

    def test_wide_gaps_and_ties(self) -> None:
        table = dense_table(150, 0.9, 7, gap=(1, 40))
        rows = [
            (t.tid, round(float(t["score"]) / 25.0) * 25.0, t.probability)
            for t in table
        ]
        scored = scored_of(make_table(rows, rules=table.explicit_rules))
        assert_reuse_is_invisible(scored, [(4, len(scored))], max_lines=16)

    @pytest.mark.parametrize("p_tau", [1e-3, 0.01, 0.05])
    def test_cold_reads_prefixes(self, p_tau) -> None:
        table = generate_from_spec("synthetic:tuples=2000,me=0.5,seed=101")
        for k in (5, 10):
            prefix = prepare_scored_prefix(table, "score", k, p_tau=p_tau)
            assert_reuse_is_invisible(prefix, [(k, len(prefix))])

    def test_straddled_groups_and_sliced_requests(self) -> None:
        scored = scored_of(dense_table(90, 0.7, 11))
        n = len(scored)
        depths = [d for d in range(8, n) if sliceable_depth(scored, d)]
        straddled = [d for d in range(8, n) if not sliceable_depth(scored, d)]
        assert depths and straddled
        requests = [(2, depths[0]), (5, depths[len(depths) // 2]), (3, n), (7, n)]
        assert_reuse_is_invisible(scored, requests, max_lines=32)
        # A prefix cut inside a group sees that group's survivor as an
        # independent row: its own sweep, with different rule chains.
        cut = scored.prefix(straddled[-1])
        assert_reuse_is_invisible(cut, [(4, len(cut))], max_lines=32)


class TestReuse:
    def test_rule_fold_work_is_pinned(self) -> None:
        table = generate_from_spec("synthetic:tuples=2000,me=0.5,seed=101")
        work = {}
        for k, p_tau in ((5, 0.01), (10, 0.01)):
            prefix = prepare_scored_prefix(table, "score", k, p_tau=p_tau)
            requests = [(k, len(prefix))]
            work[k] = (
                rule_fold_work(reference_sweep_program(prefix, requests, 200)),
                rule_fold_work(_sweep_program(prefix, requests, 200)),
            )
        assert work == {5: (1729, 745), 10: (3093, 1628)}

    def test_releases_drop_extended_columns_of_kept_levels(self) -> None:
        """A release inside a run of extended levels also drops the low
        columns that the levels kept below it gained after its mark;
        the lowering then folds them again before reading them."""
        dropped = 0
        for seed in range(20):
            scored = scored_of(dense_table(60, 0.9, seed))
            requests = [(5, len(scored))]
            dropped = check_reads(_sweep_program(scored, requests, 16))
            if dropped:
                assert_reuse_is_invisible(scored, requests, 16)
                break
        assert dropped


@needs_native
class TestGrowthAcrossLevelMarks:
    """From one-entry buffers, every buffer grows mid-program while kept
    levels hold their marks, and the resumed run still matches the
    numpy engine."""

    def test_every_grow_code_fires(self, monkeypatch) -> None:
        for name in (
            "_INITIAL_TAGS",
            "_INITIAL_CHUNKS",
            "_INITIAL_WS",
            "_INITIAL_LINES",
        ):
            monkeypatch.setattr(native, name, 1)
        grown: list[tuple[int, int]] = []  # (code, step that found it short)
        grow = native._grow

        def spy(ctx, held, code, need, width) -> None:
            if need > 1:
                grown.append((code, int(ctx[native._X["step"]])))
            grow(ctx, held, code, need, width)

        monkeypatch.setattr(native, "_grow", spy)
        scored = scored_of(dense_table(160, 0.9, 4))
        requests = [(3, len(scored)), (6, len(scored))]
        program = _sweep_program(scored, requests, 40)
        steps = program.steps
        kept = np.flatnonzero((steps[:, 0] == _RELEASE) & (steps[:, 1] > 0))
        assert_same_lines(
            kernels.native_engine().run(program), _PythonEngine().run(program)
        )
        assert {code for code, step in grown if step > kept[0]} == {1, 2, 3, 4}


@needs_native
def test_line_budgets_above_the_id_layout_are_refused() -> None:
    """A vector id keeps its line in 11 bits: the kernel refuses a
    budget above ``NATIVE_MAX_LINES`` instead of walking wrong ids."""
    scored = scored_of(dense_table(20, 0.9, 1))
    program = _sweep_program(scored, [(2, len(scored))], 2048)
    with pytest.raises(ValueError, match="above the kernel's"):
        kernels.native_engine().run(program)
