"""Replay oracle for mutation streams on a :class:`MutableUncertainTable`.

A mutation validates only the tuple and the ME rule it touches and
derives the next state from the previous one.  This suite holds that
path to the full constructor: seeded random streams of all four
operations (``group_with`` joins and new rules, expiries that shrink a
rule to a singleton, probability updates that would push a rule's mass
over 1, and rejected operations) run through ``apply_payload``, while
an independent plain-Python replay keeps the accepted operations as a
list of rows and a list of rules.

* After every accepted operation the table's ``tuples``, ``groups``,
  ``group_of``, ``explicit_rules``, ``me_tuple_fraction()`` and
  ``version`` equal those of an :class:`UncertainTable` built from the
  replay.
* A rejected operation raises the exception class the constructor (or
  :class:`UncertainTuple`) raises for the same candidate, and leaves
  the table's state object and version as they were.  An unknown tid
  names no candidate; it raises :class:`DataModelError`, as
  :meth:`UncertainTable.subset` does.

``REPRO_DIFF_SEED`` shifts every stream's seed and ``REPRO_DIFF_DEPTH``
adds streams, as in ``tests/test_differential.py``; the effective seed
is part of each case id.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from repro.exceptions import DataModelError
from repro.standing import MutableUncertainTable
from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import GROUP_MASS_EPSILON, UncertainTable

#: Seed offset, rotated by the CI fuzz smoke.
SEED_OFFSET = int(os.environ.get("REPRO_DIFF_SEED", "0"))

#: Depth multiplier (nightly runs 5): each shape runs ``2 * depth``
#: streams.
DIFF_DEPTH = max(1, int(os.environ.get("REPRO_DIFF_DEPTH", "1")))

STREAM_SEEDS = tuple(range(2 * DIFF_DEPTH))

#: Operations per stream.
STEPS = 400


class Replay:
    """The accepted operations, replayed as plain Python lists."""

    def __init__(self, rows: list[tuple], rules: list[list]) -> None:
        self.rows = list(rows)  # (tid, attributes, probability)
        self.rules = [list(rule) for rule in rules]

    def _index(self, tid) -> int:
        for index, row in enumerate(self.rows):
            if row[0] == tid:
                return index
        raise DataModelError(f"unknown tuple id {tid!r}")

    def _rule_of(self, tid) -> list | None:
        return next((rule for rule in self.rules if tid in rule), None)

    def candidate(self, op: str, payload: dict) -> "Replay":
        """The contents after ``op``; raises :class:`DataModelError`
        for an unknown tid (a candidate the constructor never sees)."""
        out = Replay(self.rows, self.rules)
        tid = payload["tid"]
        if op == "insert":
            out.rows.append(
                (tid, payload["attributes"], payload["probability"])
            )
            partner = payload.get("group_with")
            if partner is not None:
                rule = out._rule_of(partner)
                if rule is None:
                    out.rules.append([partner, tid])
                else:
                    rule.append(tid)
        elif op == "expire":
            del out.rows[out._index(tid)]
            rule = out._rule_of(tid)
            if rule is not None:
                rule.remove(tid)
                if len(rule) < 2:
                    out.rules.remove(rule)
        else:
            index = out._index(tid)
            _, attributes, probability = out.rows[index]
            if op == "update_probability":
                probability = payload["probability"]
            else:
                attributes = {**attributes, **payload["attributes"]}
            out.rows[index] = (tid, attributes, probability)
        return out

    def table(self) -> UncertainTable:
        """The constructor's view: raises what it rejects."""
        return UncertainTable(
            [UncertainTuple(*row) for row in self.rows],
            [tuple(rule) for rule in self.rules],
            name="live",
        )

    def outcome(self, op: str, payload: dict):
        """``(next replay, oracle table)`` or the exception raised."""
        try:
            nxt = self.candidate(op, payload)
            return nxt, nxt.table()
        except DataModelError as exc:  # every rejection's base class
            return exc


def random_op(rng, replay: Replay, fresh, stats: dict) -> tuple[str, dict]:
    """One random operation against the replay's current contents.

    Most operations are valid; some carry exactly one defect.  Masses
    are aimed near the rule's headroom, so some overflow and a few
    land on the ``1 + GROUP_MASS_EPSILON`` border.
    """
    tids = [row[0] for row in replay.rows]
    prob_of = {row[0]: row[2] for row in replay.rows}

    def mass_aimed(others: float) -> float:
        if rng.random() < 0.1:
            return 1.0 + GROUP_MASS_EPSILON - others  # the border
        headroom = max(1.0 - others, 0.01)
        return float(min(headroom * rng.uniform(0.2, 1.3), 1.0))

    roll = rng.random()
    if roll < 0.05 and tids:
        stats["defect"] += 1
        op = ["expire", "update_probability", "update_score"][
            rng.integers(3)
        ]
        payload = {"tid": f"absent{next(fresh)}"}
        payload.update(probability=0.5, attributes={"score": 1.0})
        return op, payload
    if (roll < 0.45 and len(tids) < 24) or len(tids) < 4:
        payload = {
            "tid": f"n{next(fresh)}",
            "attributes": {"score": float(rng.integers(1, 40)) * 5.0},
            "probability": float(rng.uniform(0.05, 0.95)),
        }
        kind = rng.random()
        if kind < 0.05 and tids:
            stats["defect"] += 1
            payload["tid"] = tids[rng.integers(len(tids))]  # duplicate
        elif kind < 0.1:
            stats["defect"] += 1
            payload["probability"] = [0.0, -0.2, 1.5][rng.integers(3)]
        elif kind < 0.15:
            stats["defect"] += 1
            payload["group_with"] = f"absent{next(fresh)}"
        elif kind < 0.55 and tids and stats["me"]:
            partner = tids[rng.integers(len(tids))]
            payload["group_with"] = partner
            rule = replay._rule_of(partner) or [partner]
            stats["join" if len(rule) > 1 else "new_rule"] += 1
            payload["probability"] = mass_aimed(
                sum(prob_of[m] for m in rule)
            )
        return "insert", payload
    victim = tids[rng.integers(len(tids))]
    rule = replay._rule_of(victim)
    if roll < 0.65:
        if rule is not None and len(rule) == 2:
            stats["dissolve"] += 1
        return "expire", {"tid": victim}
    if roll < 0.85:
        if rng.random() < 0.1:
            stats["defect"] += 1
            return "update_probability", {"tid": victim, "probability": 2.0}
        if rule is not None:
            stats["rule_update"] += 1
            others = sum(prob_of[m] for m in rule if m != victim)
            return "update_probability", {
                "tid": victim, "probability": mass_aimed(others),
            }
        return "update_probability", {
            "tid": victim, "probability": float(rng.uniform(0.05, 1.0)),
        }
    return "update_score", {
        "tid": victim,
        "attributes": {"score": float(rng.integers(1, 40)) * 5.0},
    }


def assert_same(table: MutableUncertainTable, oracle: UncertainTable) -> None:
    assert table.tuples == oracle.tuples
    assert table.tids == oracle.tids
    assert len(table) == len(oracle)
    assert table.groups == oracle.groups
    assert {tid: table.group_of(tid) for tid in table.tids} == {
        tid: oracle.group_of(tid) for tid in oracle.tids
    }
    assert table.explicit_rules == oracle.explicit_rules
    assert table.me_tuple_fraction() == oracle.me_tuple_fraction()


SHAPES = {
    # Singletons only: the paths the benchmark's writes take.
    "singletons": dict(rules=(), me=False),
    # ME-free at the start; group_with builds the first rules.
    "me_free_start": dict(rules=(), me=True),
    # Rules from the start, the first one already near mass 1.
    "me": dict(rules=(("t0", "t1"), ("t2", "t3", "t4"), ("t5", "t6")), me=True),
}

CASES = [
    pytest.param(shape, seed + SEED_OFFSET, id=f"{shape}-s{seed + SEED_OFFSET}")
    for shape in SHAPES
    for seed in STREAM_SEEDS
]


@pytest.mark.parametrize("shape,seed", CASES)
def test_stream_matches_replay(shape: str, seed: int) -> None:
    config = SHAPES[shape]
    rng = np.random.default_rng(seed)
    members = {tid for rule in config["rules"] for tid in rule}
    rows = [
        (
            f"t{i}",
            {"score": float(rng.integers(1, 40)) * 5.0},
            float(rng.uniform(0.05, 0.3) if f"t{i}" in members
                  else rng.uniform(0.05, 0.95)),
        )
        for i in range(12)
    ]
    replay = Replay(rows, [list(rule) for rule in config["rules"]])
    table = MutableUncertainTable.from_table(replay.table())
    assert_same(table, replay.table())
    stats = dict.fromkeys(
        ("defect", "join", "new_rule", "dissolve", "rule_update"), 0
    )
    stats["me"] = config["me"]
    fresh = itertools.count()
    accepted = rejected = 0
    for step in range(STEPS):
        op, payload = random_op(rng, replay, fresh, stats)
        expected = replay.outcome(op, payload)
        before = table._state
        if isinstance(expected, Exception):
            with pytest.raises(DataModelError) as info:
                table.apply_payload(op, payload)
            assert type(info.value) is type(expected), (step, op, payload)
            assert table._state is before, (step, op, payload)
            assert table.version == accepted
            rejected += 1
            continue
        replay, oracle = expected
        delta = table.apply_payload(op, payload)
        accepted += 1
        assert delta.version == table.version == accepted
        assert_same(table, oracle)
    assert accepted > STEPS // 2 and rejected > 0
    if config["me"]:
        # The stream reached every rule-changing path.
        assert stats["join"] and stats["new_rule"] and stats["dissolve"]
        assert stats["rule_update"]


def test_border_mass_rejects_as_the_constructor_does() -> None:
    """Rule masses a few ulps either side of ``1 + GROUP_MASS_EPSILON``:
    the mutation sums the touched rule in member order, like the
    constructor, so both accept or both reject each candidate."""
    outcomes = set()
    for x, y in ((0.1, 0.2), (0.3, 0.35), (0.45, 0.05), (0.7, 0.1)):
        border = 1.0 + GROUP_MASS_EPSILON - x - y
        for ulps in range(-4, 5):
            probability = border + ulps * 2.0**-52
            replay = Replay(
                [("a", {"score": 1.0}, x), ("b", {"score": 2.0}, y),
                 ("c", {"score": 3.0}, 0.5)],
                [["a", "b"]],
            )
            for op, payload in (
                ("insert", {
                    "tid": "d", "attributes": {"score": 4.0},
                    "probability": probability, "group_with": "b",
                }),
                ("update_probability", {"tid": "c", "probability": 0.5}),
            ):
                if op == "update_probability":
                    # c joins the rule first, then takes the border mass.
                    replay = Replay(replay.rows, [["a", "b", "c"]])
                    replay.rows[2] = ("c", {"score": 3.0}, 0.01)
                    payload["probability"] = probability
                expected = replay.outcome(op, payload)
                table = MutableUncertainTable.from_table(replay.table())
                if isinstance(expected, Exception):
                    with pytest.raises(type(expected)):
                        table.apply_payload(op, payload)
                    assert table.version == 0
                    outcomes.add("reject")
                else:
                    table.apply_payload(op, payload)
                    assert_same(table, expected[1])
                    outcomes.add("accept")
    assert outcomes == {"accept", "reject"}
