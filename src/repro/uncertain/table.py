"""The uncertain table (x-relation) with mutual-exclusion rules.

An :class:`UncertainTable` holds :class:`~repro.uncertain.model.UncertainTuple`
rows plus a set of *mutual exclusion rules*.  Each rule names a set of
tuples (an *ME group*) of which at most one can appear in a possible
world; the probabilities inside one group must sum to at most 1
(Section 2.1 of the paper).  Tuples not named by any rule form implicit
singleton groups.  Groups are independent of each other.

A table's contents at one version are one immutable :class:`TableState`
held in one attribute: the tuples by tid in table order, the explicit
rules in rule order, and the version.  Every accessor reads it once, a
mutable table (:class:`repro.standing.changelog.MutableUncertainTable`)
derives its next version from the previous one by copying only the
containers a mutation touches and publishes it in one assignment, and
:meth:`UncertainTable.frozen` hands a reader one version to read as
often as it likes.  The whole-table views (the tuple sequence and the
dense group ids) are derived once per version, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import DataModelError, MutualExclusionError
from repro.uncertain.model import PROBABILITY_EPSILON, UncertainTuple

#: Tolerance for the "group mass <= 1" constraint.
GROUP_MASS_EPSILON = 1e-9


def check_rule_mass(
    members: tuple[Any, ...], by_tid: Mapping[Any, UncertainTuple]
) -> None:
    """Raise :class:`MutualExclusionError` when an ME rule's mass
    exceeds 1 (within :data:`GROUP_MASS_EPSILON`).

    The mass is summed in member order, so the constructor and a
    mutation that touches one rule reject the same borderline floats.
    """
    mass = 0.0
    for tid in members:
        mass += by_tid[tid].probability
    if mass > 1.0 + GROUP_MASS_EPSILON:
        raise MutualExclusionError(
            f"ME rule {members!r} has total probability {mass:.6f} > 1"
        )


@dataclass(slots=True, eq=False, repr=False)
class TableState:
    """One version of a table's contents.

    Its stored fields never change once published (only the derived
    views are filled in, once): a mutation copies the containers it
    touches and shares the rest, so versions may share containers.

    Stored:

    :ivar by_tid: tuple id -> tuple; its insertion order is the table
        order.
    :ivar rules: rule id -> member tids, in rule order.  Rule ids never
        change, so dropping a rule renumbers nothing.
    :ivar rule_of: tuple id -> rule id, for the tuples a rule names.
    :ivar version: the data version (0 for immutable tables).

    Derived once per version, on first use (only whole-table readers
    need them; see :meth:`derived`), else ``None``:

    :ivar tuples: the tuples, in table order.
    :ivar groups: group members by dense id: the rules in rule order,
        then singletons in table order.
    :ivar group_of: tuple id -> dense group id.
    """

    by_tid: dict[Any, UncertainTuple]
    rules: dict[int, tuple[Any, ...]]
    rule_of: dict[Any, int]
    version: int
    tuples: tuple[UncertainTuple, ...] | None = None
    groups: tuple[tuple[Any, ...], ...] | None = None
    group_of: dict[Any, int] | None = None

    def derived(self) -> "TableState":
        """This state with its derived views filled.

        Two threads deriving at once compute equal values, so the race
        is harmless; ``group_of`` is assigned last, so a reader that
        sees it set sees the other views set too.
        """
        if self.group_of is None:
            rule_of = self.rule_of
            groups = (
                *self.rules.values(),
                *((tid,) for tid in self.by_tid if tid not in rule_of),
            )
            self.tuples = tuple(self.by_tid.values())
            self.groups = groups
            self.group_of = {
                tid: gid for gid, members in enumerate(groups)
                for tid in members
            }
        return self


class UncertainTable:
    """An uncertain relation: tuples + mutual-exclusion rules.

    :param tuples: the uncertain tuples; tids must be unique.
    :param rules: iterable of tid collections, each naming one ME group.
        Groups must be disjoint, reference existing tids, contain at
        least two tuples (singletons are implicit), and have total
        probability mass at most 1.
    :param name: optional table name (used by the query layer).

    >>> t = UncertainTable(
    ...     [UncertainTuple("a", {"x": 1}, 0.5),
    ...      UncertainTuple("b", {"x": 2}, 0.5)],
    ...     rules=[("a", "b")],
    ... )
    >>> t.group_of("a") == t.group_of("b")
    True
    """

    def __init__(
        self,
        tuples: Iterable[UncertainTuple],
        rules: Iterable[Sequence[Any]] = (),
        *,
        name: str = "uncertain",
    ) -> None:
        rows = tuple(tuples)
        by_tid: dict[Any, UncertainTuple] = {}
        for t in rows:
            if t.tid in by_tid:
                raise DataModelError(f"duplicate tuple id {t.tid!r}")
            by_tid[t.tid] = t

        # Group ids are dense integers; explicit rules first, then
        # implicit singletons in table order.
        group_of: dict[Any, int] = {}
        groups: list[tuple[Any, ...]] = []
        for rule in rules:
            members = tuple(rule)
            if len(members) < 2:
                raise MutualExclusionError(
                    f"ME rule {members!r} must name at least two tuples"
                )
            gid = len(groups)
            for tid in members:
                if tid not in by_tid:
                    raise MutualExclusionError(
                        f"ME rule references unknown tuple id {tid!r}"
                    )
                if tid in group_of:
                    raise MutualExclusionError(
                        f"tuple id {tid!r} appears in more than one ME rule"
                    )
                group_of[tid] = gid
            check_rule_mass(members, by_tid)
            groups.append(members)
        # Each rule's id is its dense group id.
        rule_members, rule_of = dict(enumerate(groups)), dict(group_of)
        for t in rows:
            if t.tid not in group_of:
                group_of[t.tid] = len(groups)
                groups.append((t.tid,))
        self._name = name
        # The derived views come for free here.
        self._state = TableState(
            by_tid, rule_members, rule_of, 0, rows, tuple(groups), group_of
        )

    @classmethod
    def _of(cls, state: TableState, name: str) -> "UncertainTable":
        """A table holding ``state`` as it is: no copy and no checks,
        since every state comes out of the constructor or a validated
        mutation."""
        table = cls.__new__(cls)
        table._name = name
        table._state = state
        return table

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The table name (used by the query layer)."""
        return self._name

    @property
    def version(self) -> int:
        """Monotonic data version; 0 for immutable tables.

        Mutable subclasses (:class:`repro.standing.changelog.
        MutableUncertainTable`) bump it on every in-place mutation.
        The :class:`~repro.api.session.Session` keys every cached
        stage by ``(table, version, ...)``, so a bumped version can
        never be served a stale prefix/PMF/answer entry.
        """
        return self._state.version

    def frozen(self) -> "UncertainTable":
        """This table at its current version, as an immutable table.

        A reader that reads a table more than once (sorts it, filters
        then subsets it, projects answers through it) takes one frozen
        version first, so a concurrent mutation cannot hand it rows of
        one version and groups of another.  An immutable table is one
        version already and returns itself.
        """
        return self

    def __len__(self) -> int:
        return len(self._state.by_tid)

    def __iter__(self) -> Iterator[UncertainTuple]:
        return iter(self._state.by_tid.values())

    def __getitem__(self, tid: Any) -> UncertainTuple:
        return self._state.by_tid[tid]

    def __contains__(self, tid: Any) -> bool:
        return tid in self._state.by_tid

    @property
    def tuples(self) -> Sequence[UncertainTuple]:
        """The tuples, in insertion order."""
        return self._state.derived().tuples

    @property
    def tids(self) -> Sequence[Any]:
        """Tuple ids, in insertion order."""
        return tuple(self._state.by_tid)

    # ------------------------------------------------------------------
    # Mutual exclusion structure
    # ------------------------------------------------------------------
    @property
    def groups(self) -> Sequence[tuple[Any, ...]]:
        """All ME groups (explicit rules first, singletons after)."""
        return self._state.derived().groups

    @property
    def explicit_rules(self) -> Sequence[tuple[Any, ...]]:
        """Only the explicit multi-tuple ME rules, in rule order."""
        return tuple(self._state.rules.values())

    def group_of(self, tid: Any) -> int:
        """The dense integer group id of tuple ``tid``."""
        state = self._state
        group_of = state.group_of
        if group_of is None:  # stage 1 calls this once per row
            group_of = state.derived().group_of
        return group_of[tid]

    def group_members(self, gid: int) -> tuple[Any, ...]:
        """The tids belonging to group ``gid``."""
        return self._state.derived().groups[gid]

    def group_mass(self, gid: int) -> float:
        """Total membership probability of the group (<= 1)."""
        state = self._state.derived()
        return sum(state.by_tid[tid].probability for tid in state.groups[gid])

    def me_tuple_fraction(self) -> float:
        """Fraction of tuples that are mutually exclusive with others.

        This is the quantity varied in Figure 11 of the paper.
        """
        state = self._state
        if not state.by_tid:
            return 0.0
        return len(state.rule_of) / len(state.by_tid)

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------
    def subset(self, tids: Iterable[Any], *, name: str | None = None) -> "UncertainTable":
        """A new table restricted to ``tids``; ME rules are reduced.

        Rules that retain at least two members survive (with their
        remaining members); rules reduced to 0/1 member disappear.
        """
        state = self._state
        keep = set(tids)
        unknown = keep - set(state.by_tid)
        if unknown:
            raise DataModelError(f"unknown tuple ids in subset: {sorted(map(repr, unknown))}")
        tuples = [t for t in state.by_tid.values() if t.tid in keep]
        rules = []
        for g in state.rules.values():
            reduced = tuple(tid for tid in g if tid in keep)
            if len(reduced) >= 2:
                rules.append(reduced)
        return UncertainTable(tuples, rules, name=name or self._name)

    def map_attributes(
        self, fn, *, name: str | None = None
    ) -> "UncertainTable":
        """Apply ``fn(tuple) -> Mapping`` to every tuple's attributes."""
        state = self._state
        tuples = [
            UncertainTuple(t.tid, fn(t), t.probability)
            for t in state.by_tid.values()
        ]
        return UncertainTable(
            tuples, state.rules.values(), name=name or self._name
        )

    def attribute_names(self) -> tuple[str, ...]:
        """Union of attribute names across tuples, in first-seen order."""
        seen: dict[str, None] = {}
        for t in self._state.by_tid.values():
            for key in t.attributes:
                seen.setdefault(key, None)
        return tuple(seen)

    def total_expected_tuples(self) -> float:
        """Expected number of existing tuples (sum of probabilities)."""
        return sum(t.probability for t in self._state.by_tid.values())

    def validate(self) -> None:
        """Re-check all invariants; raises on violation.

        Construction already validates, but generators that mutate
        tuples in place may call this as a final sanity pass.
        """
        state = self._state.derived()
        for g in state.groups:
            mass = sum(state.by_tid[tid].probability for tid in g)
            if mass > 1.0 + GROUP_MASS_EPSILON:
                raise MutualExclusionError(
                    f"group {g!r} has probability mass {mass:.6f} > 1"
                )
        for t in state.tuples:
            if not (0.0 < t.probability <= 1.0 + PROBABILITY_EPSILON):
                raise DataModelError(
                    f"tuple {t.tid!r} has invalid probability {t.probability}"
                )

    def __repr__(self) -> str:
        n_rules = len(self.explicit_rules)
        return (
            f"UncertainTable(name={self._name!r}, tuples={len(self)}, "
            f"rules={n_rules})"
        )


def table_from_rows(
    rows: Iterable[Mapping[str, Any]],
    *,
    probability_key: str = "probability",
    tid_key: str | None = None,
    group_key: str | None = None,
    name: str = "uncertain",
) -> UncertainTable:
    """Build an :class:`UncertainTable` from plain dict rows.

    :param rows: mappings; one becomes one tuple.
    :param probability_key: key holding the membership probability
        (removed from the attributes).
    :param tid_key: key holding the tuple id; when ``None`` sequential
        integer ids are assigned.
    :param group_key: optional key holding an ME-group label; rows that
        share a label (other than ``None``) become one ME group.
    :param name: table name.
    """
    tuples: list[UncertainTuple] = []
    groups: dict[Any, list[Any]] = {}
    for index, row in enumerate(rows):
        attrs = dict(row)
        try:
            prob = attrs.pop(probability_key)
        except KeyError:
            raise DataModelError(
                f"row {index} is missing probability key {probability_key!r}"
            ) from None
        tid = attrs.pop(tid_key) if tid_key else index
        label = attrs.pop(group_key, None) if group_key else None
        tuples.append(UncertainTuple(tid, attrs, prob))
        if label is not None:
            groups.setdefault(label, []).append(tid)
    rules = [tuple(members) for members in groups.values() if len(members) > 1]
    return UncertainTable(tuples, rules, name=name)
