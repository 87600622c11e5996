"""Standing queries: mutable tables, deltas, delta maintenance.

The subsystem has three layers:

* :mod:`repro.standing.changelog` — :class:`MutableUncertainTable`,
  whose in-place mutations are validated against the touched tuple and
  ME rule, version-bumped, and returned (and handed to the table's
  observer) as :class:`Delta` records;
* :mod:`repro.standing.registry` — the :class:`StandingRegistry`,
  which keeps registered queries' materialized answers current
  through the skip / recompute tiers, given the deltas since the last
  maintenance (one per service mutation; every slide since the last
  query for a sliding window, :mod:`repro.stream.window`) — see that
  module's docstring for the Theorem-2 applicability argument;
* :mod:`repro.standing.wal` — durability: an fsync'd, CRC-framed
  write-ahead log per mutable table plus periodic snapshot
  compaction and the durable subscription manifest, so ``repro serve
  --data-dir`` recovers every table at its exact pre-crash version;
* the service endpoints (``/v1/mutate``, ``/v1/subscribe``,
  ``/v1/watch``) in :mod:`repro.service.server`, which expose both
  over HTTP with long-poll watching.
"""

from repro.standing.changelog import (
    MUTATION_OPS,
    Delta,
    MutableUncertainTable,
)
from repro.standing.registry import (
    MAX_STICKY_RETRIES,
    RECOMPUTE,
    SKIP,
    PrefixFingerprint,
    StandingRegistry,
    Subscription,
    classify_delta,
)
from repro.standing.wal import (
    DurableStore,
    TableWAL,
    delta_to_wire,
    read_wal_records,
    scan_wal,
    snapshot_document,
    table_from_snapshot,
)

__all__ = [
    "MUTATION_OPS",
    "Delta",
    "MutableUncertainTable",
    "RECOMPUTE",
    "SKIP",
    "PrefixFingerprint",
    "StandingRegistry",
    "Subscription",
    "classify_delta",
    "MAX_STICKY_RETRIES",
    "DurableStore",
    "TableWAL",
    "delta_to_wire",
    "read_wal_records",
    "scan_wal",
    "snapshot_document",
    "table_from_snapshot",
]
