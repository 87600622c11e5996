"""Units for :mod:`repro.standing`: mutable tables and their deltas, the
delta-applicability classifier, the registry — plus the Session's
table-version cache keys the subsystem rides on."""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from repro.api.session import Session
from repro.api.spec import QuerySpec
from repro.exceptions import (
    DataModelError,
    MutualExclusionError,
    ScoringError,
)
from repro.standing import (
    MUTATION_OPS,
    RECOMPUTE,
    SKIP,
    Delta,
    MutableUncertainTable,
    PrefixFingerprint,
    StandingRegistry,
    classify_delta,
)
from repro.uncertain.scoring import ScoredTable, attribute_scorer
from repro.uncertain.table import UncertainTable

from tests.conftest import make_table


def mutable(rows, rules=(), name="live") -> MutableUncertainTable:
    return MutableUncertainTable.from_table(make_table(rows, rules, name))


class TestMutableTable:
    def test_mutations_bump_version_and_log(self) -> None:
        table = mutable([("a", 10, 0.5), ("b", 20, 0.4)])
        assert table.version == 0
        d1 = table.insert("c", {"score": 30}, 0.9)
        d2 = table.update_probability("a", 0.7)
        d3 = table.update_score("b", {"score": 25})
        d4 = table.expire("c")
        assert (d1.version, d2.version, d3.version, d4.version) == (
            1, 2, 3, 4,
        )
        assert table.version == 4 == d4.version
        assert table["a"].probability == 0.7
        assert table["b"]["score"] == 25
        assert "c" not in table

    def test_insert_preserves_arrival_order(self) -> None:
        table = mutable([("a", 10, 0.5)])
        table.insert("b", {"score": 30}, 0.4)
        assert table.tids == ("a", "b")
        table.expire("a")
        table.insert("c", {"score": 5}, 0.2)
        assert table.tids == ("b", "c")

    def test_insert_group_with_builds_me_rule(self) -> None:
        table = mutable([("a", 10, 0.5), ("b", 20, 0.4)])
        delta = table.insert("c", {"score": 30}, 0.3, group_with="a")
        assert set(delta.group) == {"a", "c"}
        assert table.group_of("a") == table.group_of("c")
        delta = table.insert("d", {"score": 1}, 0.1, group_with="c")
        assert set(delta.group) == {"a", "c", "d"}

    def test_rejected_mutation_leaves_state_untouched(self) -> None:
        table = mutable([("a", 10, 0.4), ("b", 20, 0.5)], [("a", "b")])
        with pytest.raises(MutualExclusionError):
            # Would push the group's mass over 1.
            table.update_probability("a", 0.6)
        assert table.version == 0
        assert table["a"].probability == 0.4
        with pytest.raises(DataModelError):
            table.insert("a", {"score": 1}, 0.1)
        with pytest.raises(DataModelError):
            table.expire("zz")
        assert table.version == 0

    def test_expire_reduces_me_rules(self) -> None:
        table = mutable(
            [("a", 10, 0.4), ("b", 20, 0.3), ("c", 5, 0.2)],
            [("a", "b", "c")],
        )
        delta = table.expire("b")
        assert set(delta.group) == {"a", "b", "c"}
        assert table.group_of("a") == table.group_of("c")
        table.expire("c")
        assert table.explicit_rules == ()

    def test_deltas_carry_old_and_new_payloads(self) -> None:
        table = mutable([("a", 10, 0.5)])
        d = table.update_score("a", {"score": 99})
        assert d.old_attributes == {"score": 10}
        assert d.attributes == {"score": 99}
        d = table.expire("a")
        assert d.old_probability == 0.5
        assert d.old_attributes == {"score": 99}

    def test_apply_payload_dispatch_and_validation(self) -> None:
        table = mutable([("a", 10, 0.5)])
        delta = table.apply_payload(
            "insert", {"tid": "b", "attributes": {"score": 7}}
        )
        assert delta.probability == 1.0  # default
        with pytest.raises(DataModelError):
            table.apply_payload("insert", {})
        with pytest.raises(DataModelError):
            table.apply_payload("update_probability", {"tid": "a"})
        with pytest.raises(DataModelError):
            table.apply_payload("teleport", {"tid": "a"})


def python_calls(fn) -> int:
    """Python-level calls (``call`` and ``c_call`` profile events) made
    while running ``fn()``; a count, so it does not depend on the
    machine."""
    calls = 0

    def profile(frame, event, arg) -> None:
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def write_calls(rows: int, *, rule_size: int = 0) -> dict[str, int]:
    """Calls per ``apply_payload`` op on a ``rows``-row table, whose
    rows form rules of ``rule_size`` members when ``rule_size > 0``
    (the ops then touch a rule)."""
    table = mutable(
        [(f"t{i}", float(i % 97), 0.9 / max(rule_size, 1))
         for i in range(rows)],
        [
            tuple(f"t{i + j}" for j in range(rule_size))
            for i in range(0, rows, rule_size)
        ] if rule_size else (),
    )
    insert = {"tid": "new", "attributes": {"score": 5.0},
              "probability": 0.05}
    if rule_size:
        insert["group_with"] = "t1"
    ops = [
        ("insert", insert),
        ("update_probability", {"tid": "t2", "probability": 0.01}),
        ("update_score", {"tid": "t2", "attributes": {"score": 7.0}}),
        ("expire", {"tid": "t2"}),
    ]
    return {
        op: python_calls(lambda: table.apply_payload(op, payload))
        for op, payload in ops
    }


class TestWriteCost:
    """A mutation validates and copies what it touches: its
    Python-level work does not grow with the table."""

    #: Calls a 20k-row write may make beyond a 1k-row one.
    SLACK = 4

    @pytest.mark.parametrize("rule_size", [0, 4])
    def test_python_calls_do_not_grow_with_rows(self, rule_size) -> None:
        small = write_calls(1_000, rule_size=rule_size)
        large = write_calls(20_000, rule_size=rule_size)
        for op in MUTATION_OPS:
            assert large[op] <= small[op] + self.SLACK, (op, small, large)


class TestClassifyDelta:
    def fingerprint(self, prefix_rows, table_rows) -> PrefixFingerprint:
        prefix = ScoredTable.from_table(
            make_table(prefix_rows), attribute_scorer("score")
        )
        return PrefixFingerprint.of(prefix, table_rows)

    def test_untruncated_prefix_never_skips(self) -> None:
        fp = self.fingerprint([("a", 30, 0.9), ("b", 20, 0.8)], 2)
        assert not fp.truncated
        delta = Delta(version=1, op="insert", tid="z", group=("z",))
        assert classify_delta(fp, delta, new_score=1.0) == RECOMPUTE

    def test_below_boundary_outside_prefix_skips(self) -> None:
        fp = self.fingerprint([("a", 30, 0.9), ("b", 20, 0.8)], 10)
        delta = Delta(version=1, op="insert", tid="z", group=("z",))
        assert classify_delta(fp, delta, new_score=19.9) == SKIP
        # At or above the boundary: could join / displace prefix rows.
        assert classify_delta(fp, delta, new_score=20.0) == RECOMPUTE
        assert classify_delta(fp, delta, new_score=25.0) == RECOMPUTE

    def test_prefix_member_or_straddling_group_patches(self) -> None:
        fp = self.fingerprint([("a", 30, 0.9), ("b", 20, 0.8)], 10)
        inside = Delta(version=1, op="expire", tid="a", group=("a",))
        assert classify_delta(fp, inside, old_score=30.0) == RECOMPUTE
        straddle = Delta(
            version=1, op="expire", tid="z", group=("z", "b")
        )
        assert classify_delta(fp, straddle, old_score=1.0) == RECOMPUTE

    def test_update_needs_both_sides_below_boundary(self) -> None:
        fp = self.fingerprint([("a", 30, 0.9), ("b", 20, 0.8)], 10)
        delta = Delta(version=1, op="update_score", tid="z", group=("z",))
        assert (
            classify_delta(fp, delta, old_score=5.0, new_score=10.0)
            == SKIP
        )
        assert (
            classify_delta(fp, delta, old_score=5.0, new_score=50.0)
            == RECOMPUTE
        )
        assert (
            classify_delta(fp, delta, old_score=50.0, new_score=5.0)
            == RECOMPUTE
        )

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("-inf"), float("inf")]
    )
    def test_non_finite_score_never_skips(self, bad) -> None:
        fp = self.fingerprint([("a", 30, 0.9), ("b", 20, 0.8)], 10)
        insert = Delta(version=1, op="insert", tid="z", group=("z",))
        assert classify_delta(fp, insert, new_score=bad) == RECOMPUTE
        update = Delta(version=1, op="update_score", tid="z", group=("z",))
        assert (
            classify_delta(fp, update, old_score=bad, new_score=5.0)
            == RECOMPUTE
        )


class TestStandingRegistry:
    def setup_registry(self, rows, rules=()):
        table = mutable(rows, rules)
        session = Session({"live": table})
        return table, StandingRegistry(session)

    def test_subscribe_evaluates_cold(self) -> None:
        table, reg = self.setup_registry(
            [("a", 30, 0.9), ("b", 20, 0.8), ("c", 10, 0.7)]
        )
        sub = reg.subscribe(
            QuerySpec(table="live", scorer="score", k=2, p_tau=0.0)
        )
        assert sub.version == 0
        assert sub.answer is not None
        assert sub.fingerprint is not None
        assert not sub.fingerprint.truncated

    def test_mutation_tiers_and_watch(self) -> None:
        rows = [(f"t{i}", 100 - i, 0.95) for i in range(30)]
        table, reg = self.setup_registry(rows)
        sub = reg.subscribe(
            QuerySpec(
                table="live", scorer="score", k=2,
                semantics="u_topk", p_tau=0.1,
            )
        )
        assert sub.fingerprint.truncated
        before = sub.answer
        # Far below the boundary: provably invisible to the query.
        reg.mutate("live", "insert", {
            "tid": "low", "attributes": {"score": -1000},
            "probability": 0.5,
        })
        assert sub.version == 1
        assert sub.tiers[SKIP] == 1
        assert sub.answer is before  # retained, not recomputed
        # Above every score: lands in the prefix.
        reg.mutate("live", "insert", {
            "tid": "high", "attributes": {"score": 1000},
            "probability": 0.9,
        })
        assert sub.version == 2
        assert sub.tiers[RECOMPUTE] == 1
        assert sub.answer is not before
        snapshot = reg.wait(sub.sid, after_version=1, timeout=1.0)
        assert snapshot is not None and snapshot["version"] == 2

    def test_one_tier_for_the_deltas_since_the_last_maintenance(
        self,
    ) -> None:
        rows = [(f"t{i}", 100 - i, 0.95) for i in range(30)]
        table, reg = self.setup_registry(rows)
        sub = reg.subscribe(
            QuerySpec(
                table="live", scorer="score", k=2,
                semantics="u_topk", p_tau=0.1,
            )
        )
        before = sub.answer
        # "low" is gone again before maintenance runs: its insert is
        # scored from the delta, not the live table.
        reg.on_delta(
            table,
            table.insert("low", {"score": -1000}, 0.5),
            table.expire("low"),
            table.expire("t29"),
        )
        assert (sub.version, sub.tiers, sub.error) == (
            3, {SKIP: 1, RECOMPUTE: 0}, None,
        )
        assert sub.answer is before
        reg.on_delta(
            table,
            table.insert("high", {"score": 1000}, 0.9),
            table.expire("high"),
        )
        assert (sub.version, sub.tiers, sub.error) == (
            5, {SKIP: 1, RECOMPUTE: 1}, None,
        )
        assert reg.describe()["mutations"] == 5

    def test_subscriptions_share_one_dp_after_a_prefix_delta(
        self, monkeypatch
    ) -> None:
        from repro.api import plan

        runs = []
        dp = plan.dp_distribution

        def counted(*args, **kwargs):
            runs.append(len(args[0]))
            return dp(*args, **kwargs)

        monkeypatch.setattr(plan, "dp_distribution", counted)
        rows = [(f"t{i}", 100 - i, 0.95) for i in range(30)]
        table, reg = self.setup_registry(rows)
        subs = [
            reg.subscribe(
                QuerySpec(
                    table="live", scorer="score", k=2,
                    semantics=semantics, p_tau=0.1, algorithm="dp",
                )
            )
            for semantics in ("typical", "distribution")
        ]
        assert len(runs) == 1  # one prefix, one PMF, two answers
        # Above every score: lands in both subscriptions' prefix.
        reg.mutate("live", "insert", {
            "tid": "high", "attributes": {"score": 1000},
            "probability": 0.9,
        })
        assert [sub.tiers[RECOMPUTE] for sub in subs] == [1, 1]
        assert len(runs) == 2
        assert subs[0].fingerprint.prefix is subs[1].fingerprint.prefix

    def test_me_rules_fall_back_to_recompute(self) -> None:
        rows = [(f"t{i}", 100 - i, 0.9) for i in range(25)]
        rows[0] = ("t0", 100, 0.5)
        rows[1] = ("t1", 99, 0.5)
        table, reg = self.setup_registry(rows, [("t0", "t1")])
        sub = reg.subscribe(
            QuerySpec(table="live", scorer="score", k=2, p_tau=0.1)
        )
        reg.mutate("live", "insert", {
            "tid": "high", "attributes": {"score": 1000},
            "probability": 0.5,
        })
        assert sub.tiers["recompute"] == 1
        assert sub.error is None

    def test_maintenance_error_is_sticky_until_repaired(self) -> None:
        table, reg = self.setup_registry(
            [("a", 30, 0.9), ("b", 20, 0.8)]
        )
        sub = reg.subscribe(
            QuerySpec(table="live", scorer="score", k=1, p_tau=0.0)
        )
        # A tuple the scorer rejects: maintenance must surface the
        # error (and keep the version advancing for watchers).
        reg.mutate("live", "insert", {"tid": "bad", "attributes": {}})
        assert sub.error is not None
        assert sub.version == 1
        reg.mutate("live", "expire", {"tid": "bad"})
        assert sub.error is None
        assert sub.version == 2

    def test_non_finite_insert_below_boundary_errors_like_a_cold_read(
        self,
    ) -> None:
        rows = [(f"t{i}", 100 - i, 0.95) for i in range(30)]
        table = mutable(rows)
        session = Session({"live": table})
        reg = StandingRegistry(session)
        spec = QuerySpec(
            table="live", scorer="score", k=2, semantics="u_topk",
            p_tau=0.1,
        )
        sub = reg.subscribe(spec)
        assert sub.fingerprint.truncated
        # -inf sorts below the boundary, but no cold read accepts it.
        reg.mutate("live", "insert", {
            "tid": "low", "attributes": {"score": float("-inf")},
            "probability": 0.5,
        })
        with pytest.raises(ScoringError) as cold:
            Session({"live": table}).execute(spec)
        assert sub.error == f"ScoringError: {cold.value}"
        assert sub.version == 1
        assert reg.snapshot(sub.sid)["answer"] is None
        with pytest.raises(ScoringError):
            session.execute(spec)  # no stale prefix re-seeded

    def test_unsubscribe_stops_maintenance(self) -> None:
        table, reg = self.setup_registry([("a", 30, 0.9)])
        sub = reg.subscribe(
            QuerySpec(table="live", scorer="score", k=1, p_tau=0.0)
        )
        assert reg.unsubscribe(sub.sid)
        assert not reg.unsubscribe(sub.sid)
        reg.mutate("live", "insert", {
            "tid": "b", "attributes": {"score": 1}, "probability": 0.5,
        })
        assert sub.version == 0  # no longer maintained
        assert reg.wait(sub.sid, after_version=0, timeout=0.05) is None


class TestSessionVersionKeys:
    """The satellite regression: mutate-then-requery must miss."""

    def setup_session(self):
        table = mutable(
            [("a", 30, 0.9), ("b", 20, 0.8), ("c", 10, 0.7)]
        )
        return table, Session({"live": table})

    def test_mutate_then_requery_misses_every_stage(self) -> None:
        table, session = self.setup_session()
        spec = QuerySpec(table="live", scorer="score", k=2, p_tau=0.0)
        first = session.execute(spec)
        assert session.execute(spec) is first  # warm: answer hit
        info = session.cache_info()
        assert info["answer"]["hits"] == 1
        table.update_score("c", {"score": 1000})
        second = session.execute(spec)
        assert second is not first
        info = session.cache_info()
        assert info["answer"]["hits"] == 1  # no stale hit after mutate
        # The new answer reflects the mutation.
        assert session.scored_prefix(spec)[0].tid == "c"

    def test_distribution_misses_after_mutation(self) -> None:
        table, session = self.setup_session()
        spec = QuerySpec(table="live", scorer="score", k=2, p_tau=0.0)
        pmf = session.distribution(spec)
        assert session.distribution(spec) is pmf
        table.update_probability("a", 0.1)
        assert session.distribution(spec) is not pmf

    def test_seed_prefix_keeps_downstream_chain_warm(self) -> None:
        table, session = self.setup_session()
        spec = QuerySpec(table="live", scorer="score", k=2, p_tau=0.0)
        answer = session.execute(spec)
        prefix = session.scored_prefix(spec)
        misses = session.cache_info()["pmf"]["misses"]
        table.update_probability("a", table["a"].probability)  # bump
        session.seed_prefix(spec, prefix)
        assert session.execute(spec) is answer
        # Same prefix object => the pmf/answer stages never re-ran.
        assert session.cache_info()["pmf"]["misses"] == misses

    def test_invalidate_table_chains_through_stages(self) -> None:
        table, session = self.setup_session()
        spec = QuerySpec(table="live", scorer="score", k=2, p_tau=0.0)
        session.execute(spec)
        session.execute_many([spec.with_(k=1)])  # seeds the scored stage
        evicted = session.invalidate_table(table)
        assert evicted >= 3  # prefix + pmf + answer at least
        info = session.cache_info()
        assert info["prefix"]["size"] == 0
        assert info["pmf"]["size"] == 0
        assert info["answer"]["size"] == 0
        assert sum(
            info[stage]["evictions"]
            for stage in ("scored", "prefix", "pmf", "answer")
        ) == evicted

    def test_immutable_tables_report_version_zero(self) -> None:
        table = make_table([("a", 10, 0.5)])
        assert isinstance(table, UncertainTable)
        assert table.version == 0
        mut = MutableUncertainTable.from_table(table)
        mut.insert("b", {"score": 1}, 0.5)
        assert table.version == 0 and mut.version == 1


#: Eight rows t0..t7, scores 100 - i, p = 0.4, one rule (t6, t7).
EIGHT_ROWS = [(f"t{i}", 100 - i, 0.4) for i in range(8)]
EIGHT_RULES = [("t6", "t7")]


def writes_on_second_call(table: MutableUncertainTable, tid: str):
    """A scorer that expires ``tid`` on its second call: a write that
    lands mid-sort."""
    calls = []

    def score(t) -> float:
        calls.append(t.tid)
        if len(calls) == 2:
            table.expire(tid)
        return float(t["score"])

    return score


class TestOneVersionPerRead:
    """Readers take one frozen version; writers publish whole ones."""

    def test_mid_sort_write_leaves_the_sort_on_one_version(self) -> None:
        table = mutable(EIGHT_ROWS, EIGHT_RULES)
        scored = ScoredTable.from_table(
            table, writes_on_second_call(table, "t0")
        )
        assert [item.tid for item in scored] == [t for t, _, _ in EIGHT_ROWS]
        assert len(set(scored.group_column.tolist())) == 7
        assert table.version == 1 and "t0" not in table

    def test_mid_sort_expire_of_an_unread_row(self) -> None:
        table = mutable(EIGHT_ROWS, EIGHT_RULES)
        scored = ScoredTable.from_table(
            table, writes_on_second_call(table, "t7")
        )
        assert len(scored) == 8
        assert "t7" not in table

    def test_mid_sort_write_through_the_session(self) -> None:
        table = mutable(EIGHT_ROWS, EIGHT_RULES)
        spec = QuerySpec(
            table="live",
            scorer=writes_on_second_call(table, "t0"),
            k=2,
            p_tau=0.0,
            semantics="distribution",
        )
        raced = Session({"live": table}).execute(spec)
        cold = Session({"t": make_table(EIGHT_ROWS, EIGHT_RULES)}).execute(
            QuerySpec(
                table="t",
                scorer="score",
                k=2,
                p_tau=0.0,
                semantics="distribution",
            )
        )
        assert list(raced) == list(cold)

    def test_a_batch_fuses_only_plans_of_one_version(self) -> None:
        rows = [(f"t{i}", 100 - i, 0.4) for i in range(9)]
        rules = [("t1", "t2")]
        table = mutable(rows, rules)

        def spec(table_ref, scorer, k):
            return QuerySpec(
                table=table_ref,
                scorer=scorer,
                k=k,
                p_tau=0.0,
                semantics="distribution",
                algorithm="dp",
            )

        session = Session({"live": table})
        scorer = writes_on_second_call(table, "t0")
        raced = session.execute_many(
            [spec("live", scorer, 2), spec("live", scorer, 3)]
        )
        # The k=2 plan sorted version 0; the write landed before the
        # k=3 plan froze version 1.
        before = make_table(rows, rules)
        after = make_table(rows[1:], rules)
        assert list(raced[0]) == list(
            Session({"t": before}).execute(spec("t", "score", 2))
        )
        assert list(raced[1]) == list(
            Session({"t": after}).execute(spec("t", "score", 3))
        )
        assert session.fusion_info()["groups"] == 0

    def test_concurrent_readers_derive_consistent_views(self) -> None:
        """Readers deriving a version's groups while a writer publishes
        the next ones: each frozen version's derived views agree with
        its own rows and rules."""
        table = mutable(EIGHT_ROWS, EIGHT_RULES)
        stop = threading.Event()
        errors: list[BaseException] = []
        checked = [0]

        def write() -> None:
            try:
                for i in itertools.count():
                    if stop.is_set():
                        return
                    tid = f"w{i}"
                    table.insert(tid, {"score": i % 50}, 0.05,
                                 group_with="t7" if i % 3 else None)
                    table.update_probability("t1", 0.1 + (i % 5) / 10)
                    table.expire(tid)
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        def read() -> None:
            try:
                while not stop.is_set():
                    frozen = table.frozen()
                    groups = frozen.groups
                    tids = frozen.tids
                    assert sorted(tid for g in groups for tid in g) == \
                        sorted(tids)
                    for tid in tids:
                        assert tid in groups[frozen.group_of(tid)]
                    rules = frozen.explicit_rules
                    assert tuple(groups[: len(rules)]) == rules
                    assert frozen.tuples == tuple(frozen)
                    checked[0] += 1
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(30.0)
        finally:
            stop.set()
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert checked[0] > 0 and table.version > 0

    def test_frozen_is_unchanged_by_later_mutations(self) -> None:
        table = mutable(EIGHT_ROWS, EIGHT_RULES)
        frozen = table.frozen()
        tuples, groups = frozen.tuples, frozen.groups
        table.expire("t6")
        table.insert("t8", {"score": 200}, 0.5, group_with="t7")
        table.update_probability("t1", 0.9)
        assert type(frozen) is UncertainTable
        assert frozen.frozen() is frozen
        assert frozen.version == 0 and table.version == 3
        assert frozen.tuples == tuples and frozen.groups == groups
        assert frozen["t1"].probability == 0.4
        assert table.frozen().version == 3

    def test_from_table_leaves_its_source_untouched(self) -> None:
        source = make_table(EIGHT_ROWS, EIGHT_RULES)
        tuples, groups = source.tuples, source.groups
        table = MutableUncertainTable.from_table(source, start_version=5)
        assert table.version == 5 and table.tuples == tuples
        table.expire("t7")
        table.insert("t9", {"score": 1}, 0.5, group_with="t0")
        assert source.tuples == tuples and source.groups == groups
        assert source.version == 0 and "t9" not in source
        assert source.explicit_rules == (("t6", "t7"),)

