"""Mutable uncertain tables and the delta records of their mutations.

A :class:`MutableUncertainTable` is an :class:`~repro.uncertain.table.
UncertainTable` whose contents may change *in place* through four
operations — :meth:`~MutableUncertainTable.insert`,
:meth:`~MutableUncertainTable.expire`,
:meth:`~MutableUncertainTable.update_probability` and
:meth:`~MutableUncertainTable.update_score` — each of which:

* validates exactly what the full :class:`~repro.uncertain.table.
  UncertainTable` constructor would newly find in the candidate: a
  duplicate tid on insert, an unknown tid, an unknown ``group_with``,
  the probability (through :class:`~repro.uncertain.model.
  UncertainTuple`) and, when the mutation changes an ME rule's mass,
  that one rule's mass, summed in member order as the constructor sums
  it.  A rejected mutation raises the constructor's exception class
  and leaves the version and state untouched;
* derives the next :class:`~repro.uncertain.table.TableState` from the
  current one by copying only the containers it touches (one C-level
  ``dict.copy()`` of the tuples plus, for ME-rule members, the rule
  maps) and publishes it, with the next
  :attr:`~repro.uncertain.table.UncertainTable.version` inside it, in
  one assignment (every :class:`~repro.api.session.Session` cache key
  includes the version, so stale stage entries can never be hit after
  a mutation).  Python-level work per mutation does not depend on the
  table's size;
* returns a :class:`Delta` record carrying both the old and the new
  payload plus the affected ME group's membership — everything the
  standing-query maintainer (:mod:`repro.standing.registry`) needs to
  classify the mutation against a subscription *without* consulting
  historical table state — and hands it to the table's observer (the
  write-ahead log, :mod:`repro.standing.wal`, is the durable record).

Readers never see a mix of two versions, and no read lock makes
that so: the table holds its rows, rules and version in one
immutable value, each accessor reads that value once, and a mutation
replaces it in one attribute assignment.  A reader that reads the
table more than once (a sort, a filter then a subset) takes
:meth:`~repro.uncertain.table.UncertainTable.frozen` first and reads
that one version throughout.

Ordering guarantee: ``insert`` appends (so insertion order keeps
following arrival order), ``expire`` preserves the relative order of
the survivors, and the update operations keep the tuple at its
position.  Equal ``(score, prob)`` rows therefore keep ranking in
arrival order under the stable rank sort, version after version.
Dense group ids follow the constructor's numbering: rules in rule
order (a new rule goes after the existing ones), then singletons in
table order (a rule shrunk to one member disappears, and its survivor
becomes a singleton at its table position).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.exceptions import DataModelError, MutualExclusionError
from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import TableState, UncertainTable, check_rule_mass

#: The four mutation operations, as they appear in :attr:`Delta.op`.
MUTATION_OPS = ("insert", "expire", "update_probability", "update_score")


@dataclass(frozen=True)
class Delta:
    """One table mutation.

    :ivar version: the table version this mutation produced (versions
        are dense: the delta at version ``v`` turns state ``v-1`` into
        state ``v``).
    :ivar op: one of :data:`MUTATION_OPS`.
    :ivar tid: the affected tuple id.
    :ivar probability: the new membership probability (``insert`` /
        ``update_probability``), else ``None``.
    :ivar attributes: the new attribute mapping (``insert`` /
        ``update_score``; the latter records the *merged* result).
    :ivar old_probability: the pre-mutation probability (every op but
        ``insert``).
    :ivar old_attributes: the pre-mutation attributes (every op but
        ``insert``).
    :ivar group: the tids of the affected tuple's ME group, including
        the tuple itself — post-state for ``insert``, pre-state
        otherwise.  The maintainer's straddle check intersects this
        with a subscription's prefix, so it needs no table history.
    """

    version: int
    op: str
    tid: Any
    probability: float | None = None
    attributes: Mapping[str, Any] | None = None
    old_probability: float | None = None
    old_attributes: Mapping[str, Any] | None = None
    group: tuple = ()

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-ready record (the service's mutation response body)."""
        document: dict[str, Any] = {
            "version": self.version,
            "op": self.op,
            "tid": self.tid,
            "group": list(self.group),
        }
        if self.probability is not None:
            document["probability"] = self.probability
        if self.attributes is not None:
            document["attributes"] = dict(self.attributes)
        if self.old_probability is not None:
            document["old_probability"] = self.old_probability
        if self.old_attributes is not None:
            document["old_attributes"] = dict(self.old_attributes)
        return document


def _check_tid(key: str, value: Any) -> None:
    """A payload's tuple id is a string or an integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DataModelError(
            f"{key!r} must be a string or an integer, got "
            f"{type(value).__name__}"
        )


class MutableUncertainTable(UncertainTable):
    """An uncertain table with in-place, versioned mutations.

    All mutations are serialized through one re-entrant lock, validated
    against the touched tuple and ME rule, and published in one
    assignment (see the module docstring), so a rejected mutation has
    no effect and each read sees one whole version.  Reads go through
    the inherited :class:`UncertainTable` interface unchanged;
    :meth:`frozen` pins the current version for readers that read more
    than once.
    """

    def __init__(
        self,
        tuples: Iterable[UncertainTuple],
        rules: Iterable[Sequence[Any]] = (),
        *,
        name: str = "uncertain",
        start_version: int = 0,
    ) -> None:
        super().__init__(tuples, rules, name=name)
        self._state = replace(self._state, version=start_version)
        self._mutex = threading.RLock()
        self._observer: Any = None

    @classmethod
    def from_table(
        cls, table: UncertainTable, *, start_version: int = 0
    ) -> "MutableUncertainTable":
        """A mutable table starting from ``table``'s current contents
        (versions continue from ``start_version`` — 0 unless
        recovering).  Shares the source's state instead of rebuilding
        and re-validating it; mutations never touch the source."""
        mutable = cls((), name=table.name, start_version=start_version)
        mutable._state = replace(table._state, version=start_version)
        return mutable

    def frozen(self) -> UncertainTable:
        """The current version as an immutable table sharing this
        table's state (O(1); later mutations leave it untouched)."""
        return UncertainTable._of(self._state, self._name)

    def attach_observer(self, observer: Any) -> None:
        """Install a callable invoked with every applied :class:`Delta`.

        The observer runs under the table's mutation mutex, *after* the
        state swap but before the mutation returns — so observer
        invocation order always matches version order, which is what
        lets the write-ahead log (:mod:`repro.standing.wal`) persist
        records densely.  An observer exception propagates to the
        mutator (the mutation is already applied in memory; durability
        hooks treat that as a fatal fault — see the WAL module).  Pass
        ``None`` to detach.
        """
        with self._mutex:
            self._observer = observer

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _publish(self, state: TableState, delta: Delta) -> Delta:
        """Publish a validated next state, then notify the observer."""
        # One assignment publishes rows, rules and version together:
        # a reader holds the old value or the new one, never a mix,
        # which keeps the session's version-keyed caches sound without
        # a read lock.
        self._state = state
        if self._observer is not None:
            self._observer(delta)
        return delta

    def insert(
        self,
        tid: Any,
        attributes: Mapping[str, Any],
        probability: float,
        *,
        group_with: Any = None,
    ) -> Delta:
        """Append a new tuple; optionally join an existing ME group.

        :param group_with: a tid whose ME group the new tuple joins: a
            rule member's rule gains the new tuple as its last member;
            a singleton partner becomes the new rule
            ``(group_with, tid)`` after the existing rules.
        """
        with self._mutex:
            state = self._state
            if tid in state.by_tid:
                raise DataModelError(f"duplicate tuple id {tid!r}")
            new = UncertainTuple(tid, attributes, probability)
            by_tid = state.by_tid.copy()
            by_tid[tid] = new
            rules, rule_of = state.rules, state.rule_of
            group: tuple = (tid,)
            if group_with is not None:
                if group_with not in state.by_tid:
                    raise MutualExclusionError(
                        f"group_with references unknown tuple id "
                        f"{group_with!r}"
                    )
                rid = rule_of.get(group_with)
                if rid is None:
                    # Rules keep id order: the last id is the largest.
                    rid = next(reversed(rules), -1) + 1
                    group = (group_with, tid)
                else:
                    group = rules[rid] + (tid,)
                check_rule_mass(group, by_tid)
                rules = {**rules, rid: group}
                rule_of = {**rule_of, group_with: rid, tid: rid}
            version = state.version + 1
            return self._publish(
                TableState(by_tid, rules, rule_of, version),
                Delta(
                    version=version,
                    op="insert",
                    tid=tid,
                    probability=new.probability,
                    attributes=dict(new.attributes),
                    group=group,
                ),
            )

    def expire(self, tid: Any) -> Delta:
        """Remove a tuple; its ME rule sheds the member (a rule reduced
        below two members disappears, its survivor going singleton)."""
        with self._mutex:
            state = self._state
            old = state.by_tid.get(tid)
            if old is None:
                raise DataModelError(f"unknown tuple id {tid!r}")
            by_tid = state.by_tid.copy()
            del by_tid[tid]
            rules, rule_of = state.rules, state.rule_of
            rid = rule_of.get(tid)
            if rid is None:
                group: tuple = (tid,)
            else:
                group = rules[rid]
                rest = tuple(member for member in group if member != tid)
                rules, rule_of = rules.copy(), rule_of.copy()
                if len(rest) >= 2:
                    rules[rid] = rest
                    del rule_of[tid]
                else:
                    del rules[rid]
                    for member in group:
                        del rule_of[member]
            version = state.version + 1
            return self._publish(
                TableState(by_tid, rules, rule_of, version),
                Delta(
                    version=version,
                    op="expire",
                    tid=tid,
                    old_probability=old.probability,
                    old_attributes=dict(old.attributes),
                    group=group,
                ),
            )

    def _updated(
        self,
        state: TableState,
        tid: Any,
        change: Callable[[UncertainTuple], UncertainTuple],
    ) -> tuple[UncertainTuple, UncertainTuple, dict, tuple]:
        """Tuple ``tid`` replaced by ``change(old)`` at its position:
        ``(old, updated, next tuples by tid, pre-state group)``."""
        old = state.by_tid.get(tid)
        if old is None:
            raise DataModelError(f"unknown tuple id {tid!r}")
        updated = change(old)
        by_tid = state.by_tid.copy()
        by_tid[tid] = updated
        rid = state.rule_of.get(tid)
        group = (tid,) if rid is None else state.rules[rid]
        return old, updated, by_tid, group

    def update_probability(self, tid: Any, probability: float) -> Delta:
        """Change a tuple's membership probability in place."""
        with self._mutex:
            state = self._state
            old, updated, by_tid, group = self._updated(
                state, tid, lambda old: old.with_probability(probability)
            )
            if len(group) > 1:
                check_rule_mass(group, by_tid)
            version = state.version + 1
            return self._publish(
                TableState(by_tid, state.rules, state.rule_of, version),
                Delta(
                    version=version,
                    op="update_probability",
                    tid=tid,
                    probability=updated.probability,
                    old_probability=old.probability,
                    group=group,
                ),
            )

    def update_score(
        self, tid: Any, attributes: Mapping[str, Any]
    ) -> Delta:
        """Merge new attribute values into a tuple (re-scoring it under
        attribute scorers; the delta records the merged result)."""
        with self._mutex:
            state = self._state
            old, updated, by_tid, group = self._updated(
                state, tid, lambda old: old.with_attributes(**dict(attributes))
            )
            version = state.version + 1
            return self._publish(
                TableState(by_tid, state.rules, state.rule_of, version),
                Delta(
                    version=version,
                    op="update_score",
                    tid=tid,
                    attributes=dict(updated.attributes),
                    old_probability=old.probability,
                    old_attributes=dict(old.attributes),
                    group=group,
                ),
            )

    def apply_payload(self, op: str, payload: Mapping[str, Any]) -> Delta:
        """Dispatch a JSON mutation payload (the service's entry point).

        Field types are checked before the mutation runs: ``tid``
        (and ``group_with`` when present) must be a string or an
        integer, ``attributes`` an object and ``probability`` a number,
        so a malformed payload raises :class:`DataModelError` and
        leaves the table untouched.

        :param op: one of :data:`MUTATION_OPS`.
        :param payload: keyword payload; ``tid`` is always required,
            the rest depends on the operation.
        """
        try:
            tid = payload["tid"]
        except KeyError:
            raise DataModelError("mutation payload requires 'tid'") from None
        _check_tid("tid", tid)
        group_with = payload.get("group_with")
        if group_with is not None:
            _check_tid("group_with", group_with)
        attributes = payload.get("attributes")
        if attributes is not None and not isinstance(attributes, Mapping):
            raise DataModelError(
                "'attributes' must be an object, got "
                f"{type(attributes).__name__}"
            )
        probability = payload.get("probability", 1.0)
        if isinstance(probability, bool) or not isinstance(
            probability, (int, float)
        ):
            raise DataModelError(
                "'probability' must be a number, got "
                f"{type(probability).__name__}"
            )
        if op == "insert":
            return self.insert(
                tid,
                dict(attributes or {}),
                probability,
                group_with=group_with,
            )
        if op == "expire":
            return self.expire(tid)
        if op == "update_probability":
            if "probability" not in payload:
                raise DataModelError(
                    "update_probability requires 'probability'"
                )
            return self.update_probability(tid, probability)
        if op == "update_score":
            if not attributes:
                raise DataModelError(
                    "update_score requires a non-empty 'attributes'"
                )
            return self.update_score(tid, dict(attributes))
        raise DataModelError(
            f"unknown mutation op {op!r}; expected one of {MUTATION_OPS}"
        )

    def __repr__(self) -> str:
        state = self._state
        return (
            f"MutableUncertainTable(name={self._name!r}, "
            f"tuples={len(state.by_tid)}, version={state.version})"
        )
