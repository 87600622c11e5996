"""The dataset catalog: named resident tables behind one Session.

A :class:`DatasetCatalog` loads every configured table **once at
startup** — from ``.csv``/``.json`` files or from one-line generator
specs (:mod:`repro.datasets.specs`) — and keeps it resident inside a
shared, thread-safe :class:`~repro.api.session.Session`.  The
session's staged LRU caches are the "conditioned distribution
computed once, reused across queries" of the serving architecture:
the first request against a ``(table, scorer, k, p_tau)`` shape pays
for the scored prefix and the DP/MC distribution; every later request
— any semantics, any ``c`` — is a cache lookup bounded by the
configured LRU capacity.

Catalog entries are declared as ``name=source`` strings::

    readings=path/to/readings.csv
    demo=synthetic:tuples=400,me=0.9,seed=5
    soldiers=soldier:
    events=disk:path/to/packed_dir

or as a JSON catalog file ``{"tables": {"name": "source", ...}}``.

``disk:`` sources open a directory produced by ``repro pack`` as a
lazy, read-only :class:`~repro.storage.table.DiskBackedTable`: queries
on the packing scorer stream prefix pages straight off disk, and —
because the columns are memory-mapped — N sharded workers serving the
same spec share **one** on-disk copy through the OS page cache instead
of holding N in-RAM replicas.  Disk tables are never wrapped mutable
and never WAL-recovered; ``/v1/mutate`` on one fails with the ordinary
not-mutable error.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.api.session import DEFAULT_CACHE_SIZE, Session
from repro.api.spec import QuerySpec
from repro.core.distribution import DEFAULT_P_TAU
from repro.datasets.specs import generate_from_spec, is_generator_spec
from repro.exceptions import ServiceError
from repro.io import load_table_file
from repro.standing.changelog import Delta, MutableUncertainTable
from repro.standing.registry import StandingRegistry
from repro.standing.wal import DurableStore
from repro.uncertain.table import UncertainTable


@dataclass(frozen=True)
class TableEntry:
    """One catalog table: where it came from and its shape."""

    name: str
    source: str
    tuples: int
    me_rules: int


#: Source prefix naming a packed on-disk table (``repro pack`` output).
DISK_SOURCE_PREFIX = "disk:"


def is_disk_source(source: str) -> bool:
    """Whether a catalog source names a packed on-disk table."""
    return source.startswith(DISK_SOURCE_PREFIX)


def me_rule_count(table: UncertainTable) -> int:
    """Explicit ME-rule count without forcing a lazy table resident."""
    fast = getattr(table, "me_rule_count", None)
    if fast is not None:
        return int(fast())
    return len(table.explicit_rules)


def parse_binding(binding: str) -> tuple[str, str]:
    """Split one ``name=source`` catalog binding."""
    name, sep, source = binding.partition("=")
    name = name.strip()
    if not sep or not name or not source:
        raise ServiceError(
            f"catalog binding must be name=source, got {binding!r}"
        )
    return name, source


def load_catalog_file(path: str | Path) -> dict[str, str]:
    """``name -> source`` bindings of a JSON catalog file."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ServiceError(f"cannot read catalog file {path}: {exc}") from exc
    tables = document.get("tables")
    if not isinstance(tables, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in tables.items()
    ):
        raise ServiceError(
            f"catalog file {path} must hold "
            '{"tables": {"name": "source", ...}}'
        )
    return tables


class DatasetCatalog:
    """Named tables loaded at startup, resident in one shared Session.

    :param bindings: ``name -> source`` mapping or an iterable of
        ``name=source`` strings; a source is a table-file path or a
        generator spec.
    :param cache_size: per-stage LRU capacity of the shared session
        (bounds the resident prefix/PMF/answer state).
    :param mutable: load every table as a
        :class:`~repro.standing.changelog.MutableUncertainTable`, so
        ``/v1/mutate`` (and the standing-query registry) can change it
        in place.  The default; pass ``False`` for a read-only catalog.
    :param store: optional :class:`~repro.standing.wal.DurableStore`
        (``repro serve --data-dir``).  Mutable tables then boot by
        WAL-over-snapshot recovery — each at its exact pre-crash
        version — and every accepted mutation is persisted before it
        is acknowledged; a :meth:`reload` discards the table's durable
        state (the source is the truth a reload returns to).
    :param wal_tables: the tables this process *owns* durably (the
        sharded-serving tier's per-worker WAL ownership).  ``None`` —
        the default, and the whole story for single-process serving —
        owns everything.  Non-owned tables still recover from the
        store (read-only: identical state, no writes) so every worker
        replica boots at the same version; only the owner appends WAL
        records, writes snapshots, or discards durable state on
        reload.
    """

    def __init__(
        self,
        bindings: Mapping[str, str] | Iterable[str],
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        mutable: bool = True,
        store: DurableStore | None = None,
        wal_tables: set[str] | frozenset[str] | None = None,
    ) -> None:
        if not isinstance(bindings, Mapping):
            bindings = dict(parse_binding(entry) for entry in bindings)
        if not bindings:
            raise ServiceError("the dataset catalog must name >= 1 table")
        if store is not None and not mutable:
            raise ServiceError(
                "a durable store requires a mutable catalog"
            )
        self._entries: dict[str, TableEntry] = {}
        self._mutable = mutable
        self.store = store
        self._wal_tables = (
            None if wal_tables is None else frozenset(wal_tables)
        )
        # Serializes reload against mutate: a mutation admitted while
        # a reload is swapping the table object must land on whichever
        # object is current under the name, never on a stale reference
        # captured before the swap.
        self._reload_lock = threading.RLock()
        self.session = Session(cache_size=cache_size)
        for name, source in bindings.items():
            self._install(name, source)

    def owns_wal(self, name: str) -> bool:
        """Whether this process persists ``name``'s WAL/snapshots."""
        return self._wal_tables is None or name in self._wal_tables

    def _install(self, name: str, source: str) -> UncertainTable:
        table: UncertainTable
        if is_disk_source(source):
            # Packed tables stay on disk, shared and read-only: no
            # mutable wrapping (which would materialize a full
            # resident copy) and no WAL recovery (there is nothing to
            # replay onto an immutable table).
            table = self._load(name, source)
        elif self._mutable and self.store is not None:
            table = self.store.recover_or_load(
                name,
                lambda: self._load(name, source),
                read_only=not self.owns_wal(name),
            )
        else:
            table = self._load(name, source)
            if self._mutable:
                table = MutableUncertainTable.from_table(table)
        self.session.register(name, table)
        self._entries[name] = TableEntry(
            name=name,
            source=source,
            tuples=len(table),
            me_rules=me_rule_count(table),
        )
        return table

    @staticmethod
    def _load(name: str, source: str) -> UncertainTable:
        try:
            if is_disk_source(source):
                from repro.storage import open_table

                return open_table(source[len(DISK_SOURCE_PREFIX) :])
            if is_generator_spec(source):
                return generate_from_spec(source)
            return load_table_file(source)
        except ServiceError:
            raise
        except Exception as exc:
            raise ServiceError(
                f"cannot load catalog table {name!r} from {source!r}: {exc}"
            ) from exc

    def reload(self, name: str) -> dict[str, Any]:
        """Re-load one table from its source and drop its cached stages.

        The freshly loaded table replaces the old object under the
        name; :meth:`Session.invalidate_table` then evicts every
        prefix/PMF/answer entry derived from the *old* object (the
        eviction counts surface per stage in ``/metrics``).  Mutations
        applied since the original load are discarded — the source is
        the truth a reload returns to.
        """
        with self._reload_lock:
            entry = self._entries.get(name)
            if entry is None:
                raise ServiceError(f"unknown catalog table {name!r}")
            old = self.session.catalog.resolve(name)
            if self.store is not None and self.owns_wal(name):
                self.store.discard(name)
            table = self._install(name, entry.source)
            evicted = self.session.invalidate_table(old)
            return {
                "table": name,
                "source": entry.source,
                "tuples": len(table),
                "evicted": evicted,
            }

    def mutate(
        self,
        name: str,
        op: str,
        payload: Mapping[str, Any],
        *,
        registry: StandingRegistry | None = None,
    ) -> Delta:
        """Apply one mutation to the table *currently* under ``name``.

        Resolves the table by name under the reload lock, so a
        mutation racing a :meth:`reload` always lands on whichever
        object holds the name when the mutation is admitted — never on
        a stale reference captured before the swap (which would mutate
        an unreachable table and silently drop the change).  When a
        durable store is attached, the table's WAL observer fires
        inside ``apply_payload``, so the record is on disk before this
        returns.

        :param registry: the
            :class:`~repro.standing.registry.StandingRegistry` over this
            catalog's session that applies the mutation and maintains
            its subscriptions on the table before returning; ``None``
            applies it with no subscription to maintain.
        """
        with self._reload_lock:
            if registry is None:
                registry = StandingRegistry(self.session)  # none to maintain
            return registry.mutate(name, op, payload)

    def names(self) -> tuple[str, ...]:
        """Catalog table names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> dict[str, dict[str, Any]]:
        """Per-table metadata for ``/healthz`` and startup logging.

        ``tuples`` and ``version`` report the table's *live* state
        (mutations included), not the as-loaded shape — the chaos
        harness reads the recovered version from here.
        """
        document = {}
        for name, entry in sorted(self._entries.items()):
            table = self.session.catalog.resolve(name)
            document[name] = {
                "source": entry.source,
                "tuples": len(table),
                "me_rules": me_rule_count(table),
                "version": getattr(table, "version", 0),
            }
        return document

    def storage_info(self) -> dict[str, Any] | None:
        """Page-cache counters of every disk-backed table, or ``None``.

        One entry per packed table (``item_pages``, with byte-budget
        fields) — the ``storage`` section of ``/metrics``.  An
        all-resident catalog reports ``None`` so the section is simply
        absent.
        """
        document: dict[str, Any] = {}
        for name in self.names():
            table = self.session.catalog.resolve(name)
            store = getattr(table, "store", None)
            if store is not None and hasattr(store, "cache_info"):
                document[name] = store.cache_info()
        return document or None

    def warm(
        self,
        k: int,
        *,
        scorer: str = "score",
        p_tau: float = DEFAULT_P_TAU,
        tables: Iterable[str] | None = None,
    ) -> int:
        """Precompute each table's prefix + distribution for a shape.

        Returns the number of tables warmed.  Useful at startup so the
        first real request never pays the cold DP cost; ``p_tau``
        defaults to the one requests default to.  ``tables`` limits
        warming to a subset (a sharded worker's own keys).
        """
        names = self.names() if tables is None else tuple(tables)
        for name in names:
            self.session.distribution(
                QuerySpec(table=name, scorer=scorer, k=k, p_tau=p_tau)
            )
        return len(names)
