"""Mutable uncertain tables and their append-only change log.

A :class:`MutableUncertainTable` is an :class:`~repro.uncertain.table.
UncertainTable` whose contents may change *in place* through four
operations — :meth:`~MutableUncertainTable.insert`,
:meth:`~MutableUncertainTable.expire`,
:meth:`~MutableUncertainTable.update_probability` and
:meth:`~MutableUncertainTable.update_score` — each of which:

* re-validates every table invariant (unique tids, disjoint ME rules,
  group mass <= 1) by *probing*: the candidate state is constructed as
  a throwaway immutable table first, so a rejected mutation raises and
  leaves the live table untouched;
* publishes the candidate's :class:`~repro.uncertain.table.TableState`
  with the next :attr:`~repro.uncertain.table.UncertainTable.version`
  inside it (which every :class:`~repro.api.session.Session` cache key
  includes, so stale stage entries can never be hit after a mutation);
* appends a :class:`Delta` record to the table's :class:`ChangeLog`,
  carrying both the old and the new payload plus the affected ME
  group's membership — everything the standing-query maintainer
  (:mod:`repro.standing.registry`) needs to classify the mutation
  against a subscription *without* consulting historical table state.

Readers never see a mix of two versions, and no read lock makes
that so: the table holds its rows, groups and version in one
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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import DataModelError, MutualExclusionError
from repro.uncertain.model import UncertainTuple
from repro.uncertain.table import UncertainTable

#: The four mutation operations, as they appear in :attr:`Delta.op`.
MUTATION_OPS = ("insert", "expire", "update_probability", "update_score")


@dataclass(frozen=True)
class Delta:
    """One table mutation, as recorded in the change log.

    :ivar version: the table version this mutation produced (the log
        is dense: the delta at version ``v`` turns state ``v-1`` into
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


class ChangeLog:
    """An append-only, thread-safe sequence of :class:`Delta` records.

    Versions are dense and start at ``base + 1``, so ``log.since(v)``
    yields exactly the mutations a consumer at version ``v`` has not
    seen.  ``base`` is 0 for a fresh table and the snapshot version for
    a table recovered from a WAL-over-snapshot boot
    (:mod:`repro.standing.wal`) — versions keep counting from where the
    pre-crash process left off.
    """

    __slots__ = ("_deltas", "_lock", "_base")

    def __init__(self, base: int = 0) -> None:
        self._deltas: list[Delta] = []
        self._lock = threading.Lock()
        self._base = base

    @property
    def version(self) -> int:
        """The version of the latest recorded delta (``base`` when
        empty)."""
        with self._lock:
            return self._deltas[-1].version if self._deltas else self._base

    def append(self, delta: Delta) -> None:
        """Record one mutation; versions must arrive dense and ordered."""
        with self._lock:
            expected = (
                self._deltas[-1].version if self._deltas else self._base
            ) + 1
            if delta.version != expected:
                raise DataModelError(
                    f"change log expected version {expected}, "
                    f"got {delta.version}"
                )
            self._deltas.append(delta)

    def since(self, version: int) -> tuple[Delta, ...]:
        """Every delta with ``delta.version > version``, in order.

        Versions are dense, so this is an O(1) slice, not a scan.
        """
        with self._lock:
            if not self._deltas:
                return ()
            first = self._deltas[0].version
            start = max(0, version - first + 1)
            return tuple(self._deltas[start:])

    def __len__(self) -> int:
        with self._lock:
            return len(self._deltas)

    def __iter__(self) -> Iterator[Delta]:
        with self._lock:
            snapshot = tuple(self._deltas)
        return iter(snapshot)


class MutableUncertainTable(UncertainTable):
    """An uncertain table with in-place, change-logged mutations.

    All mutations are serialized through one re-entrant lock, validated
    by probing and published in one assignment (see the module
    docstring), so a rejected mutation has no effect and each read
    sees one whole version.  Reads go through the inherited
    :class:`UncertainTable` interface unchanged; :meth:`frozen` pins
    the current version for readers that read more than once.
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
        self._state = self._state._replace(version=start_version)
        self._mutex = threading.RLock()
        self._log = ChangeLog(base=start_version)
        self._observer: Any = None

    @classmethod
    def from_table(
        cls, table: UncertainTable, *, start_version: int = 0
    ) -> "MutableUncertainTable":
        """A mutable table starting from ``table``'s current contents
        (fresh log; versions continue from ``start_version`` — 0 unless
        recovering).  Shares the source's state instead of rebuilding
        and re-validating it; mutations never touch the source."""
        mutable = cls((), name=table.name, start_version=start_version)
        mutable._state = table._state._replace(version=start_version)
        return mutable

    def frozen(self) -> UncertainTable:
        """The current version as an immutable table sharing this
        table's state (O(1); later mutations leave it untouched)."""
        return UncertainTable._of(self._state, self._name)

    @property
    def log(self) -> ChangeLog:
        """This table's change log (one delta per version bump)."""
        return self._log

    def attach_observer(self, observer: Any) -> None:
        """Install a callable invoked with every applied :class:`Delta`.

        The observer runs under the table's mutation mutex, *after* the
        state swap and the change-log append but before the mutation
        returns — so observer invocation order always matches version
        order, which is what lets the write-ahead log
        (:mod:`repro.standing.wal`) persist records densely.  An
        observer exception propagates to the mutator (the mutation is
        already applied in memory; durability hooks treat that as a
        fatal fault — see the WAL module).  Pass ``None`` to detach.
        """
        with self._mutex:
            self._observer = observer

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _adopt(self, tuples, rules, make_delta) -> Delta:
        """Validate the candidate state, then publish it.

        The probe table runs the full :class:`UncertainTable`
        constructor — duplicate tids, malformed rules and group mass
        violations raise *before* anything is published.
        """
        probe = UncertainTable(tuples, rules, name=self._name)
        state = probe._state._replace(version=self._state.version + 1)
        # One assignment publishes rows, groups and version together:
        # a reader holds the old value or the new one, never a mix,
        # which keeps the session's version-keyed caches sound without
        # a read lock.
        self._state = state
        delta = make_delta(state.version)
        self._log.append(delta)
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

        :param group_with: a tid whose ME group the new tuple joins (a
            singleton partner becomes an explicit two-member rule).
        """
        with self._mutex:
            state = self._state
            if tid in state.by_tid:
                raise DataModelError(f"duplicate tuple id {tid!r}")
            new = UncertainTuple(tid, attributes, probability)
            tuples = state.tuples + (new,)
            rules = [list(g) for g in self.explicit_rules]
            group = (tid,)
            if group_with is not None:
                if group_with not in state.by_tid:
                    raise MutualExclusionError(
                        f"group_with references unknown tuple id "
                        f"{group_with!r}"
                    )
                joined = False
                for rule in rules:
                    if group_with in rule:
                        rule.append(tid)
                        group = tuple(rule)
                        joined = True
                        break
                if not joined:
                    rules.append([group_with, tid])
                    group = (group_with, tid)
            return self._adopt(
                tuples,
                [tuple(rule) for rule in rules],
                lambda v: Delta(
                    version=v,
                    op="insert",
                    tid=tid,
                    probability=new.probability,
                    attributes=dict(new.attributes),
                    group=group,
                ),
            )

    def expire(self, tid: Any) -> Delta:
        """Remove a tuple; its ME rule sheds the member (rules reduced
        below two members disappear, their survivor going singleton)."""
        with self._mutex:
            state = self._state
            old = state.by_tid.get(tid)
            if old is None:
                raise DataModelError(f"unknown tuple id {tid!r}")
            group = state.groups[state.group_of[tid]]
            tuples = [t for t in state.tuples if t.tid != tid]
            rules = [
                reduced
                for g in self.explicit_rules
                if len(reduced := tuple(x for x in g if x != tid)) >= 2
            ]
            return self._adopt(
                tuples,
                rules,
                lambda v: Delta(
                    version=v,
                    op="expire",
                    tid=tid,
                    old_probability=old.probability,
                    old_attributes=dict(old.attributes),
                    group=group,
                ),
            )

    def update_probability(self, tid: Any, probability: float) -> Delta:
        """Change a tuple's membership probability in place."""
        with self._mutex:
            state = self._state
            old = state.by_tid.get(tid)
            if old is None:
                raise DataModelError(f"unknown tuple id {tid!r}")
            updated = old.with_probability(probability)
            tuples = [updated if t.tid == tid else t for t in state.tuples]
            group = state.groups[state.group_of[tid]]
            return self._adopt(
                tuples,
                self.explicit_rules,
                lambda v: Delta(
                    version=v,
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
            old = state.by_tid.get(tid)
            if old is None:
                raise DataModelError(f"unknown tuple id {tid!r}")
            updated = old.with_attributes(**dict(attributes))
            tuples = [updated if t.tid == tid else t for t in state.tuples]
            group = state.groups[state.group_of[tid]]
            return self._adopt(
                tuples,
                self.explicit_rules,
                lambda v: Delta(
                    version=v,
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

        Field types are checked before any candidate is built: ``tid``
        must be a string or an integer, ``attributes`` an object and
        ``probability`` a number, so a malformed payload raises
        :class:`DataModelError` and leaves the table untouched.

        :param op: one of :data:`MUTATION_OPS`.
        :param payload: keyword payload; ``tid`` is always required,
            the rest depends on the operation.
        """
        try:
            tid = payload["tid"]
        except KeyError:
            raise DataModelError("mutation payload requires 'tid'") from None
        if isinstance(tid, bool) or not isinstance(tid, (str, int)):
            raise DataModelError(
                "'tid' must be a string or an integer, got "
                f"{type(tid).__name__}"
            )
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
                group_with=payload.get("group_with"),
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
            f"tuples={len(state.tuples)}, version={state.version})"
        )
