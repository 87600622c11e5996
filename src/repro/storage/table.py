"""A lazy table over a packed :class:`~repro.storage.format.TableStore`.

:class:`DiskBackedTable` is an :class:`~repro.uncertain.table.
UncertainTable` subclass whose tuples/rules stay on disk until a
non-pushdown access forces them.  Pushdown-eligible queries (the
spec's scorer string equals the packing scorer) get the store's
rank-ordered :class:`~repro.uncertain.scoring.ScoredTable` via
:meth:`~DiskBackedTable.lazy_scored` — the same class the resident
path sorts into, over the memory-mapped columns, so the Theorem-2
scan and the prefix it cuts read O(depth) pages.  Everything else
loads the relation once, with identical dense group ids and therefore
identical answers.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Any

from repro.storage.format import TableStore
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import TableState, UncertainTable


class DiskBackedTable(UncertainTable):
    """An uncertain table whose data lives in a packed directory.

    Construction opens only ``meta.json`` and the memory-maps — no
    tuple is decoded.  The pushdown path never materializes anything
    beyond the query's prefix pages; the first access that genuinely
    needs the relation (iteration, ``group_of``, a different scorer,
    WAL wrapping) loads the table's state once from
    :meth:`TableStore.reconstruct`, which yields *exactly* the packed
    table — same insertion order, same dense group ids — so both
    paths answer queries byte-identically.

    Several workers opening the same directory share the physical
    pages through the OS page cache: the catalog's ``disk:`` specs
    replace N in-RAM replicas with one on-disk copy.
    """

    def __init__(self, path: str | Path) -> None:
        self._store = TableStore(path)
        self._name = self._store.name
        self._scored: ScoredTable | None = None

    @functools.cached_property
    def _state(self) -> TableState:  # type: ignore[override, misc]
        """The relation, reconstructed on first access (once)."""
        return self._store.reconstruct()._state

    # ------------------------------------------------------------------
    # Answers that need no load
    # ------------------------------------------------------------------
    @property
    def store(self) -> TableStore:
        """The backing packed-table store."""
        return self._store

    @property
    def storage_kind(self) -> str:
        """``"disk"`` — the planner's storage-aware cost hook."""
        return "disk"

    @property
    def version(self) -> int:
        """Always 0: a packed table is immutable."""
        return 0

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
        """Whether the relation has been loaded."""
        return "_state" in self.__dict__

    def __len__(self) -> int:
        return self._store.count

    def attribute_names(self) -> tuple[str, ...]:
        # Recorded at pack time.
        return tuple(self._store.meta["attributes"])

    def total_expected_tuples(self) -> float:
        # The probability column is already on disk.
        return float(self._store.probs.sum())

    def __repr__(self) -> str:
        state = "resident" if self.is_resident else "lazy"
        return (
            f"DiskBackedTable(path={str(self._store.path)!r}, "
            f"tuples={self._store.count}, {state})"
        )


def open_table(path: str | Path) -> DiskBackedTable:
    """Open a packed directory as a (lazy) :class:`DiskBackedTable`."""
    return DiskBackedTable(path)
