"""Durability for mutable tables: write-ahead log + snapshots.

The serving tier keeps every mutable table and the
standing-subscription registry in process memory — all of it gone on a
crash.  This module makes that state recoverable:

* :class:`TableWAL` — an append-only, fsync'd log of mutation records.
  Each record is framed ``<u32 length><u32 crc32><body>`` with a JSON
  body ``{"v": version, "op": op, "payload": {...}}`` — exactly the
  wire shape :meth:`~repro.standing.changelog.MutableUncertainTable.
  apply_payload` accepts, so replay *is* re-application and recovered
  state is byte-identical to the pre-crash state by construction.
* **Snapshots** — a JSON image of the table (tuples, rules, version)
  written atomically every ``snapshot_every`` records, after which the
  WAL is truncated.  Recovery is snapshot + WAL suffix, so replay cost
  is bounded regardless of table lifetime.
* :class:`DurableStore` — the per-``--data-dir`` layout::

      <data_dir>/tables/<name>.wal
      <data_dir>/tables/<name>.snapshot.json
      <data_dir>/subscriptions.json

  plus the durable standing-subscription manifest, so a restarted
  server re-registers every subscription at boot.

Failure semantics during recovery (:func:`read_wal_records`):

* a **torn tail** — the file ends before a frame completes (the
  signature of a crash mid-append) — is truncated: every complete
  record before it is replayed, the partial bytes are discarded;
* a **CRC mismatch** on a fully framed record means corruption (a bit
  flip, a partial overwrite) and recovery *refuses* with
  :class:`~repro.exceptions.WALCorruptError` naming the file and
  offset — silently dropping acknowledged mutations is worse than
  failing loudly;
* a **version mismatch** between a record and the table it replays
  into likewise refuses — it means the snapshot and the log disagree.

The WAL write happens in the mutable table's *observer* hook
(:meth:`~repro.standing.changelog.MutableUncertainTable.
attach_observer`), which runs under the table's mutation mutex after
the state swap — so the log's record order always matches the version
order, and a mutation is only acknowledged to the client after its
record is on disk.  Fault injection (``REPRO_FAULTS`` with
``wal_torn_write:p``, see :mod:`repro.service.faults`) cuts a record
mid-frame and simulates the crash that real torn writes accompany.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.exceptions import DataModelError, DurabilityError, WALCorruptError
from repro.io.json_io import table_from_document, table_to_document
from repro.standing.changelog import Delta, MutableUncertainTable
from repro.uncertain.table import UncertainTable

#: Frame header: little-endian u32 body length + u32 CRC32 of the body.
_FRAME_HEADER = struct.Struct("<II")

#: Default number of WAL records between snapshot compactions.
DEFAULT_SNAPSHOT_EVERY = 256

#: Largest accepted record body (corrupt length fields fail fast
#: instead of attempting a gigabyte read).
MAX_RECORD_BYTES = 16 << 20


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
def encode_record(document: dict[str, Any]) -> bytes:
    """One framed WAL record: header + canonical JSON body."""
    body = json.dumps(
        document, separators=(",", ":"), sort_keys=True, default=str
    ).encode()
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def delta_to_wire(delta: Delta) -> dict[str, Any]:
    """A delta as a replayable ``apply_payload`` record.

    The payload reconstructs the original mutation call: for an insert
    that joined an ME group, any *other* member of the delta's recorded
    group identifies the same rule, so ``group_with`` survives the
    round trip even though the original argument is not stored.
    """
    payload: dict[str, Any] = {"tid": delta.tid}
    if delta.op == "insert":
        payload["attributes"] = dict(delta.attributes or {})
        payload["probability"] = delta.probability
        partner = next(
            (tid for tid in delta.group if tid != delta.tid), None
        )
        if partner is not None:
            payload["group_with"] = partner
    elif delta.op == "update_probability":
        payload["probability"] = delta.probability
    elif delta.op == "update_score":
        payload["attributes"] = dict(delta.attributes or {})
    # "expire" needs only the tid.
    return {"v": delta.version, "op": delta.op, "payload": payload}


def read_wal_records(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every complete, checksummed record of a WAL file.

    Stops silently at a torn tail (incomplete frame at EOF); raises
    :class:`WALCorruptError` on a CRC mismatch or an implausible
    length field.  Use :func:`scan_wal` to also learn the byte offset
    where the valid prefix ends.
    """
    for record, _offset in scan_wal(path)[0]:
        yield record


def scan_wal(
    path: str | Path,
) -> tuple[list[tuple[dict[str, Any], int]], int]:
    """Parse a WAL file into ``([(record, start_offset), ...], end)``.

    ``end`` is the byte offset just past the last complete record —
    the truncation point for a torn tail.
    """
    path = Path(path)
    records: list[tuple[dict[str, Any], int]] = []
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return records, 0
    offset = 0
    header = _FRAME_HEADER.size
    while True:
        if offset + header > len(data):
            break  # torn (or clean EOF): header incomplete
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            raise WALCorruptError(
                f"{path}: record at offset {offset} declares an "
                f"implausible length ({length} bytes); refusing to "
                "recover from a corrupt log"
            )
        body_end = offset + header + length
        if body_end > len(data):
            break  # torn tail: body incomplete
        body = data[offset + header : body_end]
        if zlib.crc32(body) != crc:
            raise WALCorruptError(
                f"{path}: record at offset {offset} fails its CRC "
                "check; refusing to recover from a corrupt log "
                "(a torn *tail* would have been truncated instead)"
            )
        try:
            record = json.loads(body)
        except json.JSONDecodeError as exc:
            raise WALCorruptError(
                f"{path}: record at offset {offset} passes its CRC "
                f"but is not valid JSON: {exc}"
            ) from exc
        records.append((record, offset))
        offset = body_end
    return records, offset


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (best effort on platforms without it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp + fsync + rename."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def snapshot_document(table: UncertainTable) -> dict[str, Any]:
    """A JSON image of a table's full state at its current version:
    the :func:`~repro.io.json_io.table_to_document` document plus the
    version."""
    current = table.frozen()
    return {**table_to_document(current), "version": current.version}


def table_from_snapshot(document: dict[str, Any]) -> MutableUncertainTable:
    """Rebuild a mutable table from a snapshot, at its saved version."""
    try:
        return MutableUncertainTable.from_table(
            table_from_document(document),
            start_version=int(document["version"]),
        )
    except (DataModelError, KeyError, TypeError, ValueError) as exc:
        raise DurabilityError(f"malformed snapshot document: {exc}") from exc


# ----------------------------------------------------------------------
# The per-table write-ahead log
# ----------------------------------------------------------------------
class TableWAL:
    """Appendable, fsync'd mutation log for one table.

    Not opened directly in most code — :class:`DurableStore` owns the
    file layout and the snapshot/compaction policy.  Thread-safe; in
    the serving path appends additionally arrive pre-serialized by the
    table's mutation mutex (the observer hook).

    :param faults: optional
        :class:`~repro.service.faults.FaultInjector`; the
        ``wal_torn_write`` point cuts a record mid-frame and then
        simulates the crash a real torn write accompanies.
    """

    def __init__(self, path: str | Path, *, faults: Any = None) -> None:
        self.path = Path(path)
        self._faults = faults
        self._lock = threading.Lock()
        self._file = open(self.path, "ab")
        self.records_written = 0

    def append(self, document: dict[str, Any]) -> None:
        """Frame, append and fsync one record before returning."""
        frame = encode_record(document)
        with self._lock:
            if self._faults is not None and self._faults.should(
                "wal_torn_write"
            ):
                # Simulate the crash a torn write accompanies: persist
                # a strict prefix of the frame, then die.  Recovery
                # truncates exactly this tail.
                cut = max(1, int(len(frame) * self._faults.fraction()))
                self._file.write(frame[: min(cut, len(frame) - 1)])
                self._file.flush()
                os.fsync(self._file.fileno())
                self._faults.crash("wal_torn_write")
            self._file.write(frame)
            self._file.flush()
            os.fsync(self._file.fileno())
            self.records_written += 1

    def append_delta(self, delta: Delta) -> None:
        self.append(delta_to_wire(delta))

    def truncate(self, offset: int = 0) -> None:
        """Cut the file to ``offset`` bytes (0 = empty, post-snapshot)."""
        with self._lock:
            self._file.truncate(offset)
            self._file.seek(0, os.SEEK_END)
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "TableWAL":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# The data-dir store
# ----------------------------------------------------------------------
class DurableStore:
    """Snapshots + WALs + the subscription manifest under one data dir.

    The store is the single integration point the service layer uses:

    * :meth:`recover_or_load` — boot path: snapshot + WAL replay when
      durable state exists (tables come back at their exact pre-crash
      version), else a cold load from the source plus a fresh
      version-0 snapshot.  Either way the returned table carries an
      attached observer that appends every future delta to its WAL and
      compacts into a snapshot every ``snapshot_every`` records.
    * :meth:`write_manifest` / :meth:`read_manifest` — the durable
      subscription manifest (JSON, atomically replaced).
    * :meth:`discard` — drop a table's durable state (the reload
      endpoint's return-to-source semantics).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        faults: Any = None,
        manifest_name: str = "subscriptions.json",
    ) -> None:
        if snapshot_every < 1:
            raise DurabilityError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.root = Path(root)
        self._manifest_name = manifest_name
        self.snapshot_every = snapshot_every
        self._faults = faults
        self._wals: dict[str, TableWAL] = {}
        self._lock = threading.Lock()
        self.tables_dir.mkdir(parents=True, exist_ok=True)
        #: Recovery outcomes per table (surfaced in startup logging and
        #: the chaos harness): name -> {"snapshot_version", "replayed",
        #: "truncated_bytes", "version"}.
        self.recovery_info: dict[str, dict[str, Any]] = {}

    @property
    def tables_dir(self) -> Path:
        return self.root / "tables"

    @property
    def manifest_path(self) -> Path:
        return self.root / self._manifest_name

    def wal_path(self, name: str) -> Path:
        return self.tables_dir / f"{name}.wal"

    def snapshot_path(self, name: str) -> Path:
        return self.tables_dir / f"{name}.snapshot.json"

    # ------------------------------------------------------------------
    # Boot: recovery
    # ------------------------------------------------------------------
    def recover_or_load(
        self,
        name: str,
        loader: Callable[[], UncertainTable],
        *,
        read_only: bool = False,
    ) -> MutableUncertainTable:
        """The table under ``name``, recovered or cold-loaded.

        Recovery replays the WAL suffix over the latest snapshot via
        ``apply_payload`` — the same dispatch live mutations take — so
        the recovered table (contents *and* version) is byte-identical
        to what a cold process that applied the same mutation prefix
        would hold.

        ``read_only=True`` is the sharded-serving replica path: the
        table recovers to the identical state but this process writes
        *nothing* — no base snapshot on a cold load, no torn-tail
        truncation, and no WAL observer.  Only the shard owner of a
        table persists; replicas stay current via the router's
        mutation fan-out instead.
        """
        snapshot_path = self.snapshot_path(name)
        info: dict[str, Any] = {
            "snapshot_version": None,
            "replayed": 0,
            "truncated_bytes": 0,
        }
        if snapshot_path.exists():
            try:
                document = json.loads(snapshot_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise DurabilityError(
                    f"cannot read snapshot {snapshot_path}: {exc}"
                ) from exc
            table = table_from_snapshot(document)
            info["snapshot_version"] = table.version
        else:
            table = MutableUncertainTable.from_table(loader())
            if not read_only:
                # Persist the base image immediately: a crash before
                # the first compaction must still find a replay base.
                self._write_snapshot(name, table)
        info["replayed"], info["truncated_bytes"] = self._replay(
            name, table, truncate_torn=not read_only
        )
        info["version"] = table.version
        self.recovery_info[name] = info
        if not read_only:
            self.attach(name, table)
        return table

    def _replay(
        self,
        name: str,
        table: MutableUncertainTable,
        *,
        truncate_torn: bool = True,
    ) -> tuple[int, int]:
        """Apply the WAL suffix to ``table``; returns (replayed,
        torn bytes truncated)."""
        wal_path = self.wal_path(name)
        records, end = scan_wal(wal_path)
        replayed = 0
        for record, offset in records:
            version = record.get("v")
            if version is None or version <= table.version:
                continue  # pre-snapshot record left by an older layout
            if version != table.version + 1:
                raise WALCorruptError(
                    f"{wal_path}: record at offset {offset} carries "
                    f"version {version} but the table is at "
                    f"{table.version}; snapshot and log disagree"
                )
            try:
                delta = table.apply_payload(
                    record["op"], record["payload"]
                )
            except Exception as exc:
                raise WALCorruptError(
                    f"{wal_path}: record at offset {offset} "
                    f"(version {version}) does not re-apply: {exc}"
                ) from exc
            if delta.version != version:
                raise WALCorruptError(
                    f"{wal_path}: replaying the record at offset "
                    f"{offset} produced version {delta.version}, "
                    f"expected {version}"
                )
            replayed += 1
        torn = 0
        try:
            size = wal_path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size > end:
            torn = size - end
            if truncate_torn:
                with open(wal_path, "ab") as handle:
                    handle.truncate(end)
                    handle.flush()
                    os.fsync(handle.fileno())
        return replayed, torn

    # ------------------------------------------------------------------
    # Live appends + compaction
    # ------------------------------------------------------------------
    def attach(self, name: str, table: MutableUncertainTable) -> None:
        """Open the table's WAL and install the append/compact observer."""
        with self._lock:
            old = self._wals.pop(name, None)
            if old is not None:
                old.close()
            wal = TableWAL(self.wal_path(name), faults=self._faults)
            self._wals[name] = wal

        def observe(delta: Delta) -> None:
            # Under the table's mutation mutex: record order == version
            # order, and the mutation is not acknowledged until the
            # record (or a compacting snapshot) is on disk.
            wal.append_delta(delta)
            if wal.records_written >= self.snapshot_every:
                self._write_snapshot(name, table)
                wal.truncate(0)
                wal.records_written = 0

        table.attach_observer(observe)

    def _write_snapshot(self, name: str, table: UncertainTable) -> None:
        document = snapshot_document(table)
        _atomic_write(
            self.snapshot_path(name),
            json.dumps(document, separators=(",", ":"), default=str).encode(),
        )

    def discard(self, name: str) -> None:
        """Drop a table's durable state (snapshot + WAL)."""
        with self._lock:
            wal = self._wals.pop(name, None)
            if wal is not None:
                wal.close()
        for path in (self.snapshot_path(name), self.wal_path(name)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        _fsync_dir(self.tables_dir)

    # ------------------------------------------------------------------
    # The subscription manifest
    # ------------------------------------------------------------------
    def write_manifest(self, entries: list[dict[str, Any]]) -> None:
        """Atomically replace the durable subscription manifest."""
        _atomic_write(
            self.manifest_path,
            json.dumps(
                {"subscriptions": entries}, indent=2, default=str
            ).encode(),
        )

    def read_manifest(self) -> list[dict[str, Any]]:
        """The persisted subscription entries ([] when absent)."""
        try:
            document = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return []
        except (OSError, json.JSONDecodeError) as exc:
            raise DurabilityError(
                f"cannot read subscription manifest "
                f"{self.manifest_path}: {exc}"
            ) from exc
        entries = document.get("subscriptions")
        if not isinstance(entries, list):
            raise DurabilityError(
                f"malformed subscription manifest {self.manifest_path}"
            )
        return entries

    def close(self) -> None:
        with self._lock:
            for wal in self._wals.values():
                wal.close()
            self._wals.clear()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
