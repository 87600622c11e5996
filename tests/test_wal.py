"""Units for :mod:`repro.standing.wal`: record framing, scan/torn-tail
semantics, snapshots, the per-table WAL, and the DurableStore's
recover/attach/compact/manifest lifecycle."""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.exceptions import DurabilityError, ServiceError, WALCorruptError
from repro.service.faults import FaultInjector
from repro.standing import (
    DurableStore,
    MutableUncertainTable,
    TableWAL,
    delta_to_wire,
    read_wal_records,
    scan_wal,
    snapshot_document,
    table_from_snapshot,
)

from tests.conftest import make_table


def mutable(rows, rules=(), name="live") -> MutableUncertainTable:
    return MutableUncertainTable.from_table(make_table(rows, rules, name))


class TestFraming:
    def test_round_trip(self, tmp_path) -> None:
        path = tmp_path / "t.wal"
        documents = [
            {"v": 1, "op": "insert", "payload": {"tid": "a"}},
            {"v": 2, "op": "expire", "payload": {"tid": "a"}},
        ]
        with TableWAL(path) as wal:
            for document in documents:
                wal.append(document)
        assert list(read_wal_records(path)) == documents

    def test_missing_file_reads_empty(self, tmp_path) -> None:
        assert list(read_wal_records(tmp_path / "absent.wal")) == []
        assert scan_wal(tmp_path / "absent.wal") == ([], 0)

    @pytest.mark.parametrize("cut", [1, 4, 7, 8, 9])
    def test_torn_tail_is_truncated_silently(self, tmp_path, cut) -> None:
        path = tmp_path / "t.wal"
        first = {"v": 1, "op": "expire", "payload": {"tid": "a"}}
        with TableWAL(path) as wal:
            wal.append(first)
            wal.append({"v": 2, "op": "expire", "payload": {"tid": "b"}})
        data = path.read_bytes()
        end_of_first = scan_wal(path)[0][1][1]
        # Keep record 1 plus `cut` bytes of record 2's frame.
        path.write_bytes(data[: end_of_first + cut])
        records, end = scan_wal(path)
        assert [record for record, _ in records] == [first]
        assert end == end_of_first

    def test_bit_flip_refuses_with_offset(self, tmp_path) -> None:
        path = tmp_path / "t.wal"
        with TableWAL(path) as wal:
            wal.append({"v": 1, "op": "expire", "payload": {"tid": "a"}})
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x40  # flip a bit inside the body
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptError, match="offset 0"):
            scan_wal(path)

    def test_implausible_length_refuses(self, tmp_path) -> None:
        path = tmp_path / "t.wal"
        path.write_bytes(struct.pack("<II", 1 << 30, 0) + b"xx")
        with pytest.raises(WALCorruptError, match="implausible"):
            scan_wal(path)

    def test_valid_crc_invalid_json_refuses(self, tmp_path) -> None:
        path = tmp_path / "t.wal"
        body = b"not json"
        path.write_bytes(
            struct.pack("<II", len(body), zlib.crc32(body)) + body
        )
        with pytest.raises(WALCorruptError, match="not valid JSON"):
            scan_wal(path)


class TestDeltaToWire:
    def test_all_ops_replay_identically(self) -> None:
        source = mutable([("a", 10, 0.5), ("b", 20, 0.4)])
        replayed = mutable([("a", 10, 0.5), ("b", 20, 0.4)])
        deltas = [
            source.insert("c", {"score": 30}, 0.3),
            source.insert("d", {"score": 5}, 0.2, group_with="c"),
            source.update_probability("a", 0.8),
            source.update_score("b", {"score": 25}),
            source.expire("a"),
        ]
        for delta in deltas:
            wire = delta_to_wire(delta)
            assert wire["v"] == delta.version
            out = replayed.apply_payload(wire["op"], wire["payload"])
            assert out.version == delta.version
        assert replayed.version == source.version
        assert snapshot_document(replayed) == snapshot_document(source)

    def test_insert_group_with_survives(self) -> None:
        table = mutable([("a", 10, 0.5)])
        delta = table.insert("b", {"score": 20}, 0.3, group_with="a")
        wire = delta_to_wire(delta)
        assert wire["payload"]["group_with"] == "a"


class TestSnapshots:
    def test_round_trip_preserves_state_and_version(self) -> None:
        table = mutable(
            [("a", 10, 0.5), ("b", 20, 0.4)], rules=[("a", "b")]
        )
        table.insert("c", {"score": 30}, 0.9)
        rebuilt = table_from_snapshot(snapshot_document(table))
        assert rebuilt.version == table.version == 1
        assert snapshot_document(rebuilt) == snapshot_document(table)
        # The rebuilt table keeps mutating from its restored version.
        assert rebuilt.expire("c").version == 2

    def test_malformed_snapshot_refuses(self) -> None:
        with pytest.raises(DurabilityError):
            table_from_snapshot({"tuples": "nope"})


class TestDurableStore:
    ROWS = [("a", 10, 0.5), ("b", 20, 0.4), ("c", 30, 0.9)]

    def loader(self):
        return make_table(self.ROWS, (), "live")

    def test_cold_load_writes_base_snapshot(self, tmp_path) -> None:
        with DurableStore(tmp_path) as store:
            table = store.recover_or_load("live", self.loader)
            assert table.version == 0
            assert store.snapshot_path("live").exists()
            assert store.recovery_info["live"]["version"] == 0

    def test_mutations_recover_exactly(self, tmp_path) -> None:
        with DurableStore(tmp_path) as store:
            table = store.recover_or_load("live", self.loader)
            table.insert("d", {"score": 40}, 0.7)
            table.update_probability("a", 0.6)
            table.expire("b")
            image = snapshot_document(table)
        with DurableStore(tmp_path) as store:
            recovered = store.recover_or_load(
                "live", lambda: pytest.fail("must not cold-load")
            )
            assert recovered.version == 3
            assert snapshot_document(recovered) == image
            info = store.recovery_info["live"]
            assert info == {
                "snapshot_version": 0,
                "replayed": 3,
                "truncated_bytes": 0,
                "version": 3,
            }

    def test_compaction_truncates_wal_and_recovers(self, tmp_path) -> None:
        with DurableStore(tmp_path, snapshot_every=2) as store:
            table = store.recover_or_load("live", self.loader)
            for i in range(5):
                table.insert(f"n{i}", {"score": 100 + i}, 0.5)
            image = snapshot_document(table)
            # 5 appends with compaction every 2: snapshot at v2 and v4,
            # one live record (v5) left in the log.
            assert len(scan_wal(store.wal_path("live"))[0]) == 1
            snap = json.loads(store.snapshot_path("live").read_text())
            assert snap["version"] == 4
        with DurableStore(tmp_path, snapshot_every=2) as store:
            recovered = store.recover_or_load(
                "live", lambda: pytest.fail("must not cold-load")
            )
            assert recovered.version == 5
            assert snapshot_document(recovered) == image
            assert store.recovery_info["live"]["snapshot_version"] == 4
            assert store.recovery_info["live"]["replayed"] == 1

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path) -> None:
        with DurableStore(tmp_path) as store:
            table = store.recover_or_load("live", self.loader)
            table.insert("d", {"score": 40}, 0.7)
            table.insert("e", {"score": 50}, 0.3)
            wal_path = store.wal_path("live")
            image_before_tear = snapshot_document(table)
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-5])  # tear the last record
        with DurableStore(tmp_path) as store:
            recovered = store.recover_or_load(
                "live", lambda: pytest.fail("must not cold-load")
            )
            # The torn record (v2) is gone; v1 survived.
            assert recovered.version == 1
            assert recovered["d"]["score"] == 40
            assert "e" not in recovered
            assert image_before_tear["version"] == 2
            assert store.recovery_info["live"]["truncated_bytes"] > 0
            # The tail is physically gone: the log now ends cleanly.
            assert scan_wal(wal_path)[1] == wal_path.stat().st_size

    def test_version_gap_refuses(self, tmp_path) -> None:
        with DurableStore(tmp_path) as store:
            table = store.recover_or_load("live", self.loader)
            table.insert("d", {"score": 40}, 0.7)
            table.insert("e", {"score": 50}, 0.3)
            wal_path = store.wal_path("live")
        records, _ = scan_wal(wal_path)
        # Rewrite the log with only the *second* record: v2 over a v0
        # snapshot is a gap, not a suffix.
        with open(wal_path, "wb"):
            pass
        with TableWAL(wal_path) as wal:
            wal.append(records[1][0])
        with DurableStore(tmp_path) as store:
            with pytest.raises(WALCorruptError, match="disagree"):
                store.recover_or_load("live", self.loader)

    def test_discard_returns_to_source(self, tmp_path) -> None:
        with DurableStore(tmp_path) as store:
            table = store.recover_or_load("live", self.loader)
            table.insert("d", {"score": 40}, 0.7)
            store.discard("live")
            assert not store.wal_path("live").exists()
            assert not store.snapshot_path("live").exists()
            fresh = store.recover_or_load("live", self.loader)
            assert fresh.version == 0 and "d" not in fresh

    def test_manifest_round_trip(self, tmp_path) -> None:
        with DurableStore(tmp_path) as store:
            assert store.read_manifest() == []
            entries = [{"sid": "sub-1", "spec": {"table": "live", "k": 2}}]
            store.write_manifest(entries)
            assert store.read_manifest() == entries
            store.manifest_path.write_text('{"subscriptions": 3}')
            with pytest.raises(DurabilityError, match="malformed"):
                store.read_manifest()

    def test_snapshot_every_validation(self, tmp_path) -> None:
        with pytest.raises(DurabilityError):
            DurableStore(tmp_path, snapshot_every=0)


class TestTornWriteFault:
    def test_injected_torn_write_leaves_strict_prefix(self, tmp_path) -> None:
        faults = FaultInjector("wal_torn_write:1.0", seed=1)
        with DurableStore(tmp_path, faults=faults) as store:
            table = store.recover_or_load(
                "live", lambda: make_table([("a", 10, 0.5)], (), "live")
            )
            with pytest.raises(ServiceError, match="wal_torn_write"):
                table.insert("b", {"score": 20}, 0.4)
            wal_path = store.wal_path("live")
        # The file holds a strict prefix of one frame: scan truncates.
        records, end = scan_wal(wal_path)
        assert records == [] and end == 0
        assert wal_path.stat().st_size > 0
        with DurableStore(tmp_path) as store:
            recovered = store.recover_or_load(
                "live", lambda: pytest.fail("must not cold-load")
            )
            assert recovered.version == 0
            assert "b" not in recovered
