"""Out-of-core scored tables with scan-depth pushdown.

The storage layer keeps uncertain tables on disk in rank order (see
:mod:`repro.storage.format`) and serves the paper's Theorem-2 access
pattern — "the ordered prefix up to depth d" — without loading the
table.  :mod:`repro.storage.table` wraps
a packed directory as a :class:`DiskBackedTable` the whole engine
(sessions, the service catalog, the CLI) treats as an ordinary
:class:`~repro.uncertain.table.UncertainTable`, while pushdown-eligible
queries stream only their prefix pages.
"""

from repro.storage.format import (
    DEFAULT_PAGE_SIZE,
    STORAGE_SCHEMA,
    StorageFormatError,
    TableStore,
    is_packed_dir,
    open_store,
    pack_table,
)
from repro.storage.table import DiskBackedTable, open_table

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "STORAGE_SCHEMA",
    "DiskBackedTable",
    "StorageFormatError",
    "TableStore",
    "is_packed_dir",
    "open_store",
    "open_table",
    "pack_table",
]
