"""A lazy table over a packed :class:`~repro.storage.format.TableStore`.

:class:`DiskBackedTable` is an :class:`~repro.uncertain.table.
UncertainTable` subclass whose tuples/rules stay on disk until a
non-pushdown access forces them.  Pushdown-eligible queries (the
spec's scorer string equals the packing scorer) get the store's
rank-ordered :class:`~repro.uncertain.scoring.ScoredTable` via
:meth:`~DiskBackedTable.lazy_scored` — the same class the resident
path sorts into, over the memory-mapped columns, so the Theorem-2
scan and the prefix it cuts read O(depth) pages.  Everything else
transparently falls back to full reconstruction, with identical dense
group ids and therefore identical answers.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.storage.format import TableStore
from repro.uncertain.model import UncertainTuple
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable


class DiskBackedTable(UncertainTable):
    """An uncertain table whose data lives in a packed directory.

    Construction opens only ``meta.json`` and the memory-maps — no
    tuple is decoded.  The pushdown path never materializes anything
    beyond the query's prefix pages; any access that genuinely needs
    the relation (iteration, ``group_of``, a different scorer, WAL
    wrapping) triggers a one-time full reconstruction that yields
    *exactly* the packed table — same insertion order, same dense
    group ids — so both paths answer queries byte-identically.

    Several workers opening the same directory share the physical
    pages through the OS page cache: the catalog's ``disk:`` specs
    replace N in-RAM replicas with one on-disk copy.
    """

    def __init__(self, path: str | Path) -> None:
        self._store = TableStore(path)
        self._resident = False
        self._resident_lock = threading.Lock()
        # The base-class state is installed on first materialization;
        # until then every inherited accessor is overridden below.
        # UncertainTable.__init__ preserves a pre-set _version, so the
        # deferred call cannot reset cache-key versioning.
        self._version = 0
        self._name = self._store.name
        self._scored: ScoredTable | None = None

    # ------------------------------------------------------------------
    # Pushdown surface
    # ------------------------------------------------------------------
    @property
    def store(self) -> TableStore:
        """The backing packed-table store."""
        return self._store

    @property
    def storage_kind(self) -> str:
        """``"disk"`` — the planner's storage-aware cost hook."""
        return "disk"

    def lazy_scored(self, scorer: Any) -> ScoredTable | None:
        """The packed rank order, iff ``scorer`` matches the pack order.

        Pushdown is only sound when the query ranks by the attribute
        the table was packed on; any other scorer returns ``None`` and
        the caller falls back to the resident path.
        """
        if not (isinstance(scorer, str) and scorer == self._store.scorer):
            return None
        if self._scored is None:
            self._scored = self._store.scored()
        return self._scored

    def me_rule_count(self) -> int:
        """Number of explicit ME rules, without materializing."""
        return int(self._store.meta["explicit_rules"])

    @property
    def is_resident(self) -> bool:
        """Whether the fallback reconstruction has run."""
        return self._resident

    # ------------------------------------------------------------------
    # Fallback materialization
    # ------------------------------------------------------------------
    def _ensure_resident(self) -> None:
        if self._resident:
            return
        with self._resident_lock:
            if self._resident:
                return
            rebuilt = self._store.reconstruct()
            super().__init__(
                rebuilt.tuples,
                rebuilt.explicit_rules,
                name=self._store.name,
            )
            self._resident = True

    # Every inherited accessor that touches the relation routes
    # through the one-time reconstruction.
    def __len__(self) -> int:
        return self._store.count

    def __iter__(self) -> Iterator[UncertainTuple]:
        self._ensure_resident()
        return super().__iter__()

    def __getitem__(self, tid: Any) -> UncertainTuple:
        self._ensure_resident()
        return super().__getitem__(tid)

    def __contains__(self, tid: Any) -> bool:
        self._ensure_resident()
        return super().__contains__(tid)

    @property
    def tuples(self) -> Sequence[UncertainTuple]:
        self._ensure_resident()
        return UncertainTable.tuples.fget(self)  # type: ignore[attr-defined]

    @property
    def tids(self) -> Sequence[Any]:
        self._ensure_resident()
        return UncertainTable.tids.fget(self)  # type: ignore[attr-defined]

    @property
    def groups(self) -> Sequence[tuple[Any, ...]]:
        self._ensure_resident()
        return UncertainTable.groups.fget(self)  # type: ignore[attr-defined]

    @property
    def explicit_rules(self) -> Sequence[tuple[Any, ...]]:
        self._ensure_resident()
        return UncertainTable.explicit_rules.fget(self)  # type: ignore[attr-defined]

    def group_of(self, tid: Any) -> int:
        self._ensure_resident()
        return super().group_of(tid)

    def group_members(self, gid: int) -> tuple[Any, ...]:
        self._ensure_resident()
        return super().group_members(gid)

    def group_mass(self, gid: int) -> float:
        self._ensure_resident()
        return super().group_mass(gid)

    def me_tuple_fraction(self) -> float:
        self._ensure_resident()
        return super().me_tuple_fraction()

    def subset(
        self, tids: Iterable[Any], *, name: str | None = None
    ) -> UncertainTable:
        self._ensure_resident()
        return super().subset(tids, name=name)

    def map_attributes(
        self, fn: Any, *, name: str | None = None
    ) -> UncertainTable:
        self._ensure_resident()
        return super().map_attributes(fn, name=name)

    def attribute_names(self) -> tuple[str, ...]:
        # Recorded at pack time; no materialization needed.
        return tuple(self._store.meta["attributes"])

    def total_expected_tuples(self) -> float:
        # The probability column is already on disk.
        return float(self._store.probs.sum())

    def validate(self) -> None:
        self._ensure_resident()
        super().validate()

    def __repr__(self) -> str:
        state = "resident" if self._resident else "lazy"
        return (
            f"DiskBackedTable(path={str(self._store.path)!r}, "
            f"tuples={self._store.count}, {state})"
        )


def open_table(path: str | Path) -> DiskBackedTable:
    """Open a packed directory as a (lazy) :class:`DiskBackedTable`."""
    return DiskBackedTable(path)
