"""Unit tests for the out-of-core storage layer.

Format roundtrip, pushdown paging, the lazy ``DiskBackedTable``
lifecycle, ``repro pack``, and the catalog's
``disk:`` sources.  The cross-semantics byte-identity sweep lives in
``test_storage_differential.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.calibration import (
    DEFAULT_STORAGE_ROW_NS,
    SCHEMA,
    load_cost_model,
)
from repro.api.session import Session
from repro.api.spec import QuerySpec
from repro.core.distribution import resolve_scorer, storage_pushdown_view
from repro.core.scan_depth import scan_depth
from repro.datasets.synthetic import (
    MEGroupLayout,
    SyntheticConfig,
    generate_synthetic_table,
)
from repro.exceptions import ServiceError
from repro.io import load_table_file
from repro.service.catalog import DatasetCatalog
from repro.storage import (
    DiskBackedTable,
    StorageFormatError,
    is_packed_dir,
    open_store,
    open_table,
    pack_table,
)
from repro.uncertain.scoring import ScoredTable, expression_scorer
from repro.uncertain.table import UncertainTable
from tests.conftest import make_table


def small_table(n: int = 500, me: float = 0.5, seed: int = 7):
    return generate_synthetic_table(
        SyntheticConfig(tuples=n, me_layout=MEGroupLayout(fraction=me)),
        seed=seed,
    )


@pytest.fixture
def packed(tmp_path):
    """A packed 500-tuple table with small pages, plus its source."""
    table = small_table()
    out = tmp_path / "packed"
    summary = pack_table(table, out, page_size=64)
    return table, out, summary


# ----------------------------------------------------------------------
# Format + store
# ----------------------------------------------------------------------
def test_pack_summary_and_meta(packed):
    table, out, summary = packed
    assert summary["tuples"] == len(table)
    assert summary["explicit_rules"] == len(table.explicit_rules)
    assert summary["pages"] == -(-len(table) // 64)
    assert is_packed_dir(out)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["scorer"] == "score"
    assert meta["page_size"] == 64


def test_prefix_byte_identity_across_page_boundaries(packed):
    table, out, _ = packed
    store = open_store(out)
    resident = ScoredTable.from_table(table, resolve_scorer("score"))
    for depth in (0, 1, 63, 64, 65, 128, 200, len(table)):
        lazy = store.prefix(depth)
        ref = resident.prefix(depth)
        assert lazy.items == ref.items
        assert lazy.tie_ranges() == ref.tie_ranges()
        assert lazy.lead_regions() == ref.lead_regions()


def test_page_cache_hits(packed):
    _, out, _ = packed
    store = open_store(out)
    store.prefix(100)
    before = store.cache_info()["item_pages"]
    store.prefix(100)
    after = store.cache_info()["item_pages"]
    assert after["hits"] > before["hits"]
    assert after["misses"] == before["misses"]
    store.clear_page_cache()
    assert store.cache_info()["item_pages"]["size"] == 0


def test_page_cache_byte_budget(packed, monkeypatch):
    from repro.storage import format as storage_format

    _, out, _ = packed
    # A budget far below one decoded page: the cache keeps exactly the
    # most recent page (never evicting the entry just inserted) and
    # counts every capacity eviction.
    monkeypatch.setattr(storage_format, "ITEM_CACHE_BYTES", 64)
    tight = open_store(out)
    tight.prefix(200)  # several pages at page_size=64
    info = tight.cache_info()["item_pages"]
    assert info["max_bytes"] == 64
    assert info["size"] == 1
    assert info["capacity_evictions"] >= 2
    assert 0 < info["current_bytes"]
    # Re-reading the prefix must still be byte-identical (the budget
    # trades hits, never answers).
    assert tight.prefix(200).items == open_store(out).prefix(200).items

    monkeypatch.undo()
    roomy = open_store(out)
    roomy.prefix(200)
    info = roomy.cache_info()["item_pages"]
    assert info["capacity_evictions"] == 0
    assert info["current_bytes"] <= info["max_bytes"]


def test_lru_byte_accounting():
    from repro.api.session import _LRU

    cache = _LRU(8, max_bytes=100)
    cache.put("a", "A", nbytes=40)
    cache.put("b", "B", nbytes=40)
    assert cache.current_bytes == 80
    cache.put("c", "C", nbytes=40)  # over budget: evicts "a"
    assert cache.current_bytes == 80
    assert cache.get("a") is None
    assert cache.capacity_evictions == 1
    # Re-putting a key replaces its size instead of double counting.
    cache.put("b", "B2", nbytes=10)
    assert cache.current_bytes == 50
    cache.clear()
    assert cache.current_bytes == 0
    info = cache.info()
    assert info["max_bytes"] == 100
    # Unbudgeted caches keep their historical info() shape.
    assert "max_bytes" not in _LRU(8).info()


def test_reconstruct_identity(packed):
    table, out, _ = packed
    rebuilt = open_store(out).reconstruct()
    assert rebuilt.tuples == table.tuples
    assert rebuilt.explicit_rules == table.explicit_rules
    assert all(
        rebuilt.group_of(t.tid) == table.group_of(t.tid) for t in table
    )


def test_schema1_directory_with_unread_sidecars_answers_identically(packed):
    """Earlier schema-1 writers also packed ``gend.i8`` and the meta
    keys ``page_mass``, ``page_spill``, ``me_members`` and
    ``has_ties``.  Such a directory still opens and answers exactly
    like the resident table, on the pushdown and the fallback path."""
    table, out, _ = packed
    scored = open_store(out).scored()
    gend = np.empty(len(scored), dtype="<i8")
    for group in scored.groups():
        positions = scored.group_positions(group)
        gend[list(positions)] = positions[-1]
    gend.tofile(out / "gend.i8")
    meta = json.loads((out / "meta.json").read_text())
    ends = [min((page + 1) * 64, len(scored)) for page in range(meta["pages"])]
    meta.update(
        me_members=scored.me_member_count(),
        has_ties=scored.has_ties(),
        page_mass=[float(scored.prob_column[:end].sum()) for end in ends],
        page_spill=[int(gend[:end].max()) for end in ends],
    )
    (out / "meta.json").write_text(json.dumps(meta))

    disk = open_table(out)
    ram, lazy = Session({"t": table}), Session({"t": disk})
    double = expression_scorer("score * 2")
    for scorer in ("score", double):
        for semantics in ("typical", "u_topk"):
            spec = QuerySpec(
                table="t", scorer=scorer, k=4, semantics=semantics
            )
            assert repr(lazy.execute(spec)) == repr(ram.execute(spec))
        assert disk.is_resident == (scorer is double)


def test_empty_table_packs(tmp_path):
    table = UncertainTable([], name="empty")
    pack_table(table, tmp_path / "e")
    store = open_store(tmp_path / "e")
    assert len(store) == 0
    assert len(store.prefix(10)) == 0
    assert len(store.reconstruct()) == 0


def test_open_store_rejects_garbage(tmp_path):
    with pytest.raises(StorageFormatError):
        open_store(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "meta.json").write_text('{"schema": 999}')
    with pytest.raises(StorageFormatError):
        open_store(bad)


def test_pack_rejects_bad_arguments(tmp_path):
    table = small_table(20)
    with pytest.raises(StorageFormatError):
        pack_table(table, tmp_path / "x", scorer="")
    with pytest.raises(StorageFormatError):
        pack_table(table, tmp_path / "x", page_size=0)


# ----------------------------------------------------------------------
# The lazy table
# ----------------------------------------------------------------------
def test_disk_table_pushdown_stays_lazy(packed):
    table, out, _ = packed
    disk = open_table(out)
    resident = ScoredTable.from_table(table, resolve_scorer("score"))
    lazy = disk.lazy_scored("score")
    assert lazy is not None
    assert scan_depth(lazy, 5, 1e-3) == scan_depth(resident, 5, 1e-3)
    assert len(disk) == len(table)
    assert disk.me_rule_count() == len(table.explicit_rules)
    assert disk.attribute_names() == table.attribute_names()
    assert disk.total_expected_tuples() == pytest.approx(
        table.total_expected_tuples()
    )
    assert disk.version == 0
    assert disk.frozen() is disk
    spec = QuerySpec(table="t", scorer="score", k=5, semantics="typical")
    assert repr(Session({"t": disk}).execute(spec)) == repr(
        Session({"t": table}).execute(spec)
    )
    assert not disk.is_resident


def test_disk_table_lazy_view_columns(packed):
    table, out, _ = packed
    lazy = open_table(out).lazy_scored("score")
    resident = ScoredTable.from_table(table, resolve_scorer("score"))
    np.testing.assert_array_equal(
        lazy.score_column, resident.score_column
    )
    np.testing.assert_array_equal(lazy.prob_column, resident.prob_column)
    assert lazy[0] == resident[0]
    assert lazy[-1] == resident[len(resident) - 1]
    with pytest.raises(IndexError):
        lazy[len(resident)]
    assert lazy.me_member_count() == resident.me_member_count()
    assert lazy.has_ties() == resident.has_ties()


def test_disk_table_scorer_mismatch_falls_back(packed):
    table, out, _ = packed
    disk = open_table(out)
    assert disk.lazy_scored("other_attribute") is None
    assert disk.lazy_scored(lambda t: 0.0) is None
    assert storage_pushdown_view(disk, "score") is not None
    assert storage_pushdown_view(table, "score") is None


def test_disk_table_materializes_on_relation_access(packed):
    table, out, _ = packed
    disk = open_table(out)
    tid = table.tuples[0].tid
    assert not disk.is_resident
    assert disk[tid] == table[tid]
    assert disk.is_resident
    assert disk.group_of(tid) == table.group_of(tid)
    assert list(disk) == list(table)
    assert disk.explicit_rules == table.explicit_rules
    disk.validate()


def test_load_table_file_opens_packed_dirs(packed, tmp_path):
    _, out, _ = packed
    loaded = load_table_file(out)
    assert isinstance(loaded, DiskBackedTable)
    empty = tmp_path / "not-packed"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        load_table_file(empty)


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
def test_session_explain_reports_disk_storage(packed):
    table, out, _ = packed
    spec = QuerySpec(table="t", scorer="score", k=5, p_tau=1e-3)
    disk_op = Session({"t": open_table(out)}).explain(spec)["physical"][
        "operators"
    ][0]
    ram_op = Session({"t": table}).explain(spec)["physical"]["operators"][0]
    assert disk_op["params"]["storage"] == "disk"
    assert "storage" not in ram_op["params"]
    # Disk pricing tracks the prefix, not the table.
    assert disk_op["cost_units"] == disk_op["params"]["rows_out"]
    assert ram_op["cost_units"] == ram_op["params"]["rows_in"]


def test_cost_model_storage_rate_defaults_for_old_files(tmp_path):
    path = tmp_path / "calibration.json"
    constants = {
        "k_combo_max_combinations": 100,
        "state_expansion_max_depth": 10,
        "mc_cost_budget": 1000,
        "dp_unit_ns": 1.0,
        "k_combo_unit_ns": 1.0,
        "state_unit_ns": 1.0,
        "mc_world_row_ns": 1.0,
        "prefix_row_ns": 1.0,
    }
    path.write_text(
        json.dumps({"schema": SCHEMA, "constants": constants})
    )
    model = load_cost_model(path)
    assert model.mc_cost_budget == 1000
    assert model.storage_row_ns == DEFAULT_STORAGE_ROW_NS


# ----------------------------------------------------------------------
# CLI + catalog
# ----------------------------------------------------------------------
def test_cli_pack_and_answer(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "packed"
    assert (
        main(
            [
                "pack",
                "synthetic:tuples=300,me=0.5,seed=3",
                "--out",
                str(out),
                "--page-size",
                "128",
                "--json",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["tuples"] == 300
    assert is_packed_dir(out)
    assert (
        main(
            [
                "answer",
                str(out),
                "--score",
                "score",
                "-k",
                "3",
                "--semantics",
                "typical",
                "--json",
            ]
        )
        == 0
    )
    answer = json.loads(capsys.readouterr().out)
    assert answer["answers"]


def test_catalog_disk_source(packed):
    _, out, _ = packed
    catalog = DatasetCatalog({"events": f"disk:{out}"})
    table = catalog.session.catalog.resolve("events")
    assert isinstance(table, DiskBackedTable)
    entry = catalog.describe()["events"]
    assert entry["tuples"] == 500
    assert entry["me_rules"] > 0
    pmf = catalog.session.distribution(
        QuerySpec(table="events", scorer="score", k=3, p_tau=1e-3)
    )
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-2)
    # Serving stayed lazy, and mutations are rejected like any other
    # immutable table.
    assert not table.is_resident
    with pytest.raises(ServiceError, match="not mutable"):
        catalog.mutate("events", "expire", {"tid": "T1"})
    reloaded = catalog.reload("events")
    assert reloaded["tuples"] == 500


def test_metrics_storage_section(packed):
    from repro.service.server import QueryService

    _, out, _ = packed
    catalog = DatasetCatalog({"events": f"disk:{out}"})
    service = QueryService(catalog, workers=1)
    try:
        service.handle("answer", {"table": "events", "k": 3})
        document = service.metrics_document().document
        pages = document["storage"]["events"]["item_pages"]
        assert pages["misses"] > 0
        assert pages["current_bytes"] > 0
        assert pages["max_bytes"] > 0
        assert "capacity_evictions" in pages
    finally:
        service.shutdown()
    # All-resident catalogs carry no storage section at all.
    resident = DatasetCatalog({"demo": "synthetic:tuples=50,seed=1"})
    assert resident.storage_info() is None


def test_catalog_disk_source_skips_wal(tmp_path, packed):
    from repro.standing.wal import DurableStore

    _, out, _ = packed
    store = DurableStore(tmp_path / "state")
    catalog = DatasetCatalog(
        {"events": f"disk:{out}", "demo": "synthetic:tuples=50,seed=1"},
        store=store,
    )
    disk = catalog.session.catalog.resolve("events")
    assert isinstance(disk, DiskBackedTable)
    # The mutable sibling recovered through the store as usual.
    catalog.mutate("demo", "expire", {"tid": "T1"})


def test_pack_ties_roundtrip(tmp_path):
    table = make_table(
        [
            ("a", 30.0, 0.3),
            ("b", 30.0, 0.5),
            ("c", 30.0, 0.2),
            ("d", 20.0, 0.7),
            ("e", 20.0, 0.7),
            ("f", 10.0, 0.4),
        ],
        rules=[("a", "d"), ("b", "f")],
    )
    pack_table(table, tmp_path / "ties", page_size=2)
    store = open_store(tmp_path / "ties")
    resident = ScoredTable.from_table(table, resolve_scorer("score"))
    assert store.prefix(len(table)).items == resident.items
    lazy = open_table(tmp_path / "ties").lazy_scored("score")
    for pos in range(len(table)):
        assert lazy.tie_range_end(pos) == resident.tie_range_end(pos)
