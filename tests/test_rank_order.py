"""The one rank order: :meth:`ScoredTable.from_table` and packed tables.

Every algorithm reads the table sorted by descending ``(score, prob)``,
stable on ties (Section 3.4), with lead, tie and group structure
derived from it.  The property tests hold the columnar sort and its
derived structure to a per-row reference written here; the packed
tests hold a packed table's scored view to its resident twin.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distribution import prepare_scored_prefix
from repro.core.scan_depth import scan_depth, scan_depth_threshold
from repro.exceptions import ScoringError
from repro.storage import open_table, pack_table
from repro.uncertain.model import UncertainTuple
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from repro.uncertain.table import UncertainTable

SCORER = attribute_scorer("score")


@st.composite
def tables(draw) -> UncertainTable:
    """Small tables rich in score ties, equal probabilities, signed
    zeros and ME groups."""
    n = draw(st.integers(min_value=0, max_value=14))
    scores = draw(
        st.lists(
            st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, 2.5]),
            min_size=n,
            max_size=n,
        )
    )
    probs = draw(
        st.lists(
            st.sampled_from([0.1, 0.5, 0.9, 1.0]), min_size=n, max_size=n
        )
    )
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n)
    )
    members: dict[int, list[int]] = {}
    for row, label in enumerate(labels):
        members.setdefault(label, []).append(row)
    rules = [rows for rows in members.values() if len(rows) > 1]
    for rows in rules:
        for row in rows:  # keep every group's mass <= 1
            probs[row] /= len(rows)
    tuples = [
        UncertainTuple(f"t{row}", {"score": scores[row]}, probs[row])
        for row in range(n)
    ]
    return UncertainTable(
        tuples, [tuple(f"t{row}" for row in rows) for rows in rules]
    )


def reference_rows(table: UncertainTable) -> list[tuple]:
    """The canonical order as Python's stable sort builds it."""
    rows = [
        (t.tid, float(t["score"]), t.probability, table.group_of(t.tid))
        for t in table
    ]
    return sorted(rows, key=lambda row: (-row[1], -row[2]))


def bits(rows) -> list[tuple]:
    """Rows with floats as reprs, so ``-0.0`` and ``0.0`` differ."""
    return [(tid, repr(s), repr(p), g) for tid, s, p, g in rows]


def assert_structure_matches(scored: ScoredTable, rows: list[tuple]) -> None:
    """Lead flags, tie ranges and group positions against a per-row
    reference over ``rows`` (already in rank order)."""
    seen: set[int] = set()
    leads = []
    positions: dict[int, list[int]] = {}
    for pos, (_tid, _score, _prob, group) in enumerate(rows):
        leads.append(group not in seen)
        seen.add(group)
        positions.setdefault(group, []).append(pos)
    ties = []
    for pos, row in enumerate(rows):
        if pos and row[1] == rows[pos - 1][1]:
            ties[-1] = (ties[-1][0], pos + 1)
        else:
            ties.append((pos, pos + 1))
    regions = []
    for pos, lead in enumerate(leads):
        if lead and regions and regions[-1][1] == pos:
            regions[-1] = (regions[-1][0], pos + 1)
        elif lead:
            regions.append((pos, pos + 1))

    assert [scored.is_lead(pos) for pos in range(len(rows))] == leads
    assert scored.lead_regions() == regions
    assert scored.tie_ranges() == ties
    assert scored.has_ties() == (len(ties) < len(rows))
    assert [scored.tie_range_end(pos) for pos in range(len(rows))] == [
        end for start, end in ties for _ in range(start, end)
    ]
    assert list(scored.groups()) == list(positions)
    for group, members in positions.items():
        assert scored.group_positions(group) == tuple(members)
    assert scored.me_member_count() == sum(
        len(members) for members in positions.values() if len(members) > 1
    )


def reference_scan_depth(rows: list[tuple], k: int, p_tau: float) -> int:
    """The Theorem-2 scan as a per-row loop over ranked ``rows``."""
    threshold = scan_depth_threshold(k, p_tau)
    prefix_mass = 0.0
    group_mass_above: dict[int, float] = {}
    for pos, (_tid, score, prob, group) in enumerate(rows):
        own = group_mass_above.get(group, 0.0)
        if prefix_mass - own >= threshold and pos >= k:
            end = pos
            if rows[pos - 1][1] == score:
                while end < len(rows) and rows[end][1] == score:
                    end += 1
            return end
        prefix_mass += prob
        group_mass_above[group] = own + prob
    return len(rows)


class TestOneSort:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_order_and_structure_match_a_stable_sort(self, table) -> None:
        scored = ScoredTable.from_table(table, SCORER)
        rows = reference_rows(table)
        assert bits(scored) == bits(rows)
        columns = (scored.score_column, scored.prob_column, scored.group_column)
        assert [column.dtype for column in columns] == [
            np.float64, np.float64, np.int64,
        ]
        assert not any(column.flags.writeable for column in columns)
        tids = [row[0] for row in rows]
        assert bits(zip(tids, *(c.tolist() for c in columns))) == bits(rows)
        assert_structure_matches(scored, rows)
        for depth in range(len(rows)):
            assert_structure_matches(scored.prefix(depth), rows[:depth])

    @settings(max_examples=100, deadline=None)
    @given(
        tables(),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.6, 0.1, 1e-3]),
    )
    def test_scan_depth_matches_a_per_row_scan(self, table, k, p_tau) -> None:
        scored = ScoredTable.from_table(table, SCORER)
        assert scan_depth(scored, k, p_tau) == reference_scan_depth(
            reference_rows(table), k, p_tau
        )

    def test_first_offending_tuple_in_table_order(self) -> None:
        bad = float("nan")
        tuples = [
            UncertainTuple("a", {"score": 3.0}, 0.5),
            UncertainTuple("b", {"score": bad}, 0.5),
            UncertainTuple("c", {}, 0.5),
            UncertainTuple("d", {"score": float("inf")}, 0.5),
        ]
        with pytest.raises(ScoringError, match="tuple 'b' is NaN"):
            ScoredTable.from_table(UncertainTable(tuples), SCORER)
        tuples[1] = UncertainTuple("b", {"score": 1.0}, 0.5)
        with pytest.raises(ScoringError, match="'c' has no attribute"):
            ScoredTable.from_table(UncertainTable(tuples), SCORER)

    def test_tables_compare_by_identity(self) -> None:
        table = UncertainTable([UncertainTuple("a", {"score": 1.0}, 0.5)])
        first = ScoredTable.from_table(table, SCORER)
        second = ScoredTable.from_table(table, SCORER)
        assert first != second
        assert len({first, second, first}) == 2


def synthetic(rows: int, *, me: float, ties: bool, seed: int) -> UncertainTable:
    """``rows`` tuples; a fraction ``me`` of them in ME groups of 2–4."""
    rng = np.random.default_rng(seed)
    grid = 12 if ties else 10**6
    scores = rng.integers(0, grid, size=rows).astype(float)
    probs = rng.uniform(0.05, 1.0, size=rows)
    if ties:
        probs = np.round(probs, 1).clip(0.1, 1.0)
    order = list(rng.permutation(rows))
    rules = []
    in_groups = int(me * rows)
    while in_groups >= 2 and len(order) >= 2:
        size = min(int(rng.integers(2, 5)), in_groups, len(order))
        members = [order.pop() for _ in range(size)]
        in_groups -= size
        probs[members] /= size
        rules.append(tuple(f"t{m}" for m in members))
    return UncertainTable(
        [
            UncertainTuple(f"t{i}", {"score": scores[i]}, float(probs[i]))
            for i in range(rows)
        ],
        rules,
    )


class TestPackedIsTheSameRankOrder:
    @pytest.mark.parametrize("p_tau", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("me", [0.0, 0.5, 0.9])
    def test_prefixes_match_resident(self, tmp_path, me, ties, p_tau) -> None:
        table = synthetic(300, me=me, ties=ties, seed=int(me * 10) + ties)
        pack_table(table, tmp_path / "packed", page_size=16)
        disk = open_table(tmp_path / "packed")
        packed = disk.lazy_scored("score")
        resident = ScoredTable.from_table(table, SCORER)
        assert type(packed) is ScoredTable
        for k in (1, 3, 10):
            cold = prepare_scored_prefix(table, "score", k, p_tau=p_tau)
            pushed = prepare_scored_prefix(disk, "score", k, p_tau=p_tau)
            assert type(pushed) is type(cold) is ScoredTable
            assert len(pushed) == len(cold)
            for column in ("score_column", "prob_column", "group_column"):
                a, b = getattr(cold, column), getattr(pushed, column)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            assert bits(pushed) == bits(cold)
            rows = [tuple(item) for item in cold]
            assert_structure_matches(pushed, rows)
            if p_tau > 0.0:
                assert scan_depth(packed, k, p_tau) == scan_depth(
                    resident, k, p_tau
                )
        assert not disk.is_resident

    @pytest.mark.parametrize("me", [0.0, 0.9])
    def test_deep_scans_cross_column_blocks(self, tmp_path, me) -> None:
        table = synthetic(3000, me=me, ties=True, seed=5)
        table = UncertainTable(
            [t.with_probability(t.probability / 20) for t in table],
            table.explicit_rules,
        )
        pack_table(table, tmp_path / "packed", page_size=64)
        packed = open_table(tmp_path / "packed").lazy_scored("score")
        resident = ScoredTable.from_table(table, SCORER)
        rows = reference_rows(table)
        depths = []
        for k in (1, 5, 20):
            for p_tau in (0.1, 1e-3):
                expected = reference_scan_depth(rows, k, p_tau)
                assert scan_depth(resident, k, p_tau) == expected
                assert scan_depth(packed, k, p_tau) == expected
                depths.append(expected)
        assert max(depths) > 2 * 256  # past the scan's second block

    def test_shallow_scan_decodes_only_its_tid_pages(self, tmp_path) -> None:
        table = synthetic(4000, me=0.5, ties=True, seed=9)
        page_size = 16
        pack_table(table, tmp_path / "packed", page_size=page_size)
        disk = open_table(tmp_path / "packed")
        store = disk.store
        packed = disk.lazy_scored("score")
        depth = scan_depth(packed, 2, 0.1)
        assert store.cache_info()["item_pages"]["misses"] == 0
        prefix = packed.prefix(depth)
        assert [item.tid for item in prefix]  # build the items
        pages = math.ceil(depth / page_size)
        assert pages < math.ceil(len(table) / page_size) // 10
        assert store.cache_info()["item_pages"]["misses"] == pages
