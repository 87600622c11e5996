"""Differential suite for the standing-query maintainer.

Randomized mutation streams drive a :class:`StandingRegistry`; at
every table version, every subscription's *maintained* answer must be
byte-identical (as canonical JSON) to a cold recompute on a fresh
immutable copy of the table — for all six registered semantics, under
Theorem-2 truncation, explicit depths, and ME-rule tables (which
exercise the recompute tier), including inserts whose ME group
straddles the Theorem-2 stop.

``REPRO_DIFF_SEED`` shifts every stream's seed (the CI fuzz smoke
rotates it daily) and ``REPRO_DIFF_DEPTH=N`` runs ``N`` times as many
streams per test, as in ``tests/test_differential.py``.  The defaults
run the fixed seeds.  Case ids are stream indexes, so a failure
reproduces with the printed environment and the case id.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api.registry import available_semantics
from repro.api.session import Session
from repro.api.spec import QuerySpec
from repro.core.scan_depth import scan_depth, scan_depth_threshold
from repro.io.json_io import answer_to_jsonable
from repro.standing import MutableUncertainTable, StandingRegistry
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from repro.uncertain.table import UncertainTable

SEMANTICS = sorted(available_semantics())

#: Seed offset, rotated by the CI fuzz smoke.
SEED_OFFSET = int(os.environ.get("REPRO_DIFF_SEED", "0"))

#: Stream multiplier (the nightly workflow runs 5).
DIFF_DEPTH = max(1, int(os.environ.get("REPRO_DIFF_DEPTH", "1")))


def streams(count: int) -> range:
    """Stream indexes for a test that runs ``count`` at depth 1."""
    return range(count * DIFF_DEPTH)


def canonical(answer) -> str:
    """An answer's byte-identity fingerprint."""
    return json.dumps(answer_to_jsonable(answer), sort_keys=True)


def cold_answer(table: MutableUncertainTable, spec: QuerySpec):
    """Recompute ``spec`` from scratch on a frozen copy of ``table``.

    A fresh immutable table and a fresh session: no cached stage and
    no version key can leak in.
    """
    frozen = UncertainTable(
        table.tuples, table.explicit_rules, name=table.name
    )
    session = Session({"live": frozen})
    return session.execute(spec.with_(table="live"))


def random_mutation(rng, table: MutableUncertainTable, counter):
    """Apply one random mutation; returns the delta."""
    ops = ["insert"]
    if len(table) > 3:
        ops += ["expire", "update_probability", "update_score"]
    op = ops[rng.integers(len(ops))]
    tids = table.tids
    if op == "insert":
        tid = f"m{next(counter)}"
        group_with = None
        if table.explicit_rules and rng.random() < 0.4:
            rule = table.explicit_rules[
                rng.integers(len(table.explicit_rules))
            ]
            group_with = rule[rng.integers(len(rule))]
        probability = float(rng.uniform(0.05, 0.95))
        if group_with is not None:
            gid = table.group_of(group_with)
            headroom = 1.0 - table.group_mass(gid)
            if headroom <= 0.05:
                group_with = None
            else:
                probability = float(
                    rng.uniform(0.01, max(0.011, headroom * 0.9))
                )
        return table.insert(
            tid,
            {"score": float(rng.integers(1, 40)) * 5.0},
            probability,
            group_with=group_with,
        )
    victim = tids[rng.integers(len(tids))]
    if op == "expire":
        return table.expire(victim)
    if op == "update_probability":
        gid = table.group_of(victim)
        others = table.group_mass(gid) - table[victim].probability
        cap = max(0.02, (1.0 - others) * 0.95)
        return table.update_probability(
            victim, float(rng.uniform(0.01, cap))
        )
    return table.update_score(
        victim, {"score": float(rng.integers(1, 40)) * 5.0}
    )


def straddling_insert(rng, table: MutableUncertainTable, counter, *, k, p_tau):
    """Insert a row that scores just below the Theorem-2 stop and joins
    the ME group of a prefix row whose mass above the stop exceeds the
    stop's margin over the threshold; ``None`` when no group can.

    The scan excludes a row's own group mass, so the new row cannot
    stop it: the stop moves down past a row scoring below every prefix
    row, which only ``classify_delta``'s ME-straddle rule catches.
    """
    scored = ScoredTable.from_table(table, attribute_scorer("score"))
    depth = scan_depth(scored, k, p_tau)
    if depth == len(scored):
        return None
    prefix = [scored[pos] for pos in range(depth)]
    # Summed in scan order, as scan_depth accumulates it.
    margin = sum(item.prob for item in prefix) - scan_depth_threshold(k, p_tau)
    above: dict[int, float] = {}
    for item in prefix:
        above[item.group] = above.get(item.group, 0.0) + item.prob
    anchors = [
        item
        for item in prefix
        if above[item.group] > margin and table.group_mass(item.group) < 0.9
    ]
    if not anchors:
        return None
    anchor = anchors[rng.integers(len(anchors))]
    headroom = 1.0 - table.group_mass(anchor.group)
    low, high = scored[depth].score, prefix[-1].score
    return table.insert(
        f"x{next(counter)}",
        {"score": low + (high - low) * float(rng.uniform(0.25, 0.75))},
        float(rng.uniform(0.01, headroom * 0.9)),
        group_with=anchor.tid,
    )


def run_stream(
    seed: int,
    *,
    rules,
    specs,
    steps: int = 25,
    rows: int = 50,
    mutate=random_mutation,
) -> dict:
    """Drive one mutation stream and check every version."""
    import itertools

    rng = np.random.default_rng(seed)
    base = [
        (f"t{i}", float(rng.integers(1, 40)) * 5.0,
         float(rng.uniform(0.4, 0.95)))
        for i in range(rows)
    ]
    for rule in rules:
        # Keep each explicit group's mass safely below 1.
        members = set(rule)
        base = [
            (tid, score, prob / (2 * len(members)) if tid in members
             else prob)
            for tid, score, prob in base
        ]
    from tests.conftest import make_table

    table = MutableUncertainTable.from_table(
        make_table(base, rules, name="live")
    )
    registry = StandingRegistry(Session({"live": table}))
    subs = [registry.subscribe(spec.with_(table="live")) for spec in specs]
    counter = itertools.count()
    tiers = {"skip": 0, "recompute": 0}
    for _ in range(steps):
        delta = mutate(rng, table, counter)
        registry.on_delta(table, delta)
        for sub in subs:
            assert sub.version == delta.version, (seed, delta)
            assert sub.error is None, (seed, delta, sub.error)
            assert canonical(sub.answer) == canonical(
                cold_answer(table, sub.spec)
            ), (seed, delta, sub.spec.semantics)
    for sub in subs:
        for tier, count in sub.tiers.items():
            tiers[tier] += count
    return tiers


def six_specs(**overrides) -> list[QuerySpec]:
    return [
        QuerySpec(
            table="live", scorer="score", k=3, semantics=semantics,
            **overrides,
        )
        for semantics in SEMANTICS
    ]


class TestMaintainedAnswersMatchCold:
    def test_registry_covers_all_registered_semantics(self) -> None:
        # The paper's six semantics must all be on the differential.
        assert {
            "typical", "u_topk", "pt_k", "u_kranks", "global_topk",
            "expected_ranks",
        } <= set(SEMANTICS)

    @pytest.mark.parametrize("stream", streams(4))
    def test_truncated_me_free_stream(self, stream) -> None:
        tiers = run_stream(
            SEED_OFFSET + stream, rules=(), specs=six_specs(p_tau=0.05)
        )
        # The stream is mixed enough to exercise both tiers.
        assert tiers["skip"] > 0 and tiers["recompute"] > 0

    @pytest.mark.parametrize("stream", streams(3))
    def test_me_rule_stream_falls_back_soundly(self, stream) -> None:
        rules = [("t0", "t1"), ("t2", "t3", "t4")]
        tiers = run_stream(
            SEED_OFFSET + 100 + stream,
            rules=rules,
            specs=six_specs(p_tau=0.05),
        )
        # Truncating subscriptions over ME tables may skip (the delta
        # provably misses the prefix); the rest recompute.
        assert tiers["recompute"] > 0

    @pytest.mark.parametrize("stream", streams(3))
    def test_me_group_straddling_the_stop(self, stream) -> None:
        # Half the steps insert below the stop into a prefix row's
        # group; the stop then moves, so no such insert may skip.
        straddles = []

        def mutate(rng, table, counter):
            if rng.random() < 0.5:
                delta = straddling_insert(
                    rng, table, counter, k=3, p_tau=0.05
                )
                if delta is not None:
                    straddles.append(delta)
                    return delta
            return random_mutation(rng, table, counter)

        run_stream(
            SEED_OFFSET + 400 + stream,
            rules=(),
            specs=six_specs(p_tau=0.05),
            mutate=mutate,
        )
        assert straddles

    @pytest.mark.parametrize("stream", streams(2))
    def test_explicit_depth_stream(self, stream) -> None:
        run_stream(
            SEED_OFFSET + 200 + stream,
            rules=[("t0", "t1")],
            specs=six_specs(depth=8),
        )

    @pytest.mark.parametrize("stream", streams(2))
    def test_untruncated_stream(self, stream) -> None:
        tiers = run_stream(
            SEED_OFFSET + 300 + stream,
            rules=(),
            specs=six_specs(p_tau=0.0),
            rows=15,
        )
        # p_tau = 0 scans the whole table: nothing is ever skippable.
        assert tiers["skip"] == 0
