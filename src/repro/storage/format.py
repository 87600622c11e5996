"""The on-disk scored-table format and its reader.

A *packed table* is a directory holding one scored, rank-ordered
uncertain table in columnar form, written once by :func:`pack_table`
(``repro pack``) and served by :class:`TableStore` without ever
loading the table:

* ``meta.json`` — schema, shape, the packing scorer, the page size,
  the explicit-rule count and the attribute names;
* ``score.f8`` / ``prob.f8`` — float64 score and membership
  probability per rank position (the canonical sort order of
  :class:`~repro.uncertain.scoring.ScoredTable`: descending
  ``(score, prob)``, stable);
* ``group.i8`` — the dense ME-group id of each position, exactly as
  assigned by the originating
  :class:`~repro.uncertain.table.UncertainTable`;
* ``order.i8`` — the tuple's original insertion index, so the full
  :class:`UncertainTable` (tuples *and* rules, with identical dense
  group ids) can be reconstructed for non-pushdown access paths;
* ``tid.dat`` + ``tid.off`` / ``attr.dat`` + ``attr.off`` — tuple ids
  and attribute mappings as concatenated JSON blobs with ``uint64``
  offset tables (``n + 1`` entries), so decoding a prefix touches
  only the prefix's bytes.

All numeric columns are little-endian and memory-mapped read-only;
the OS page cache is the sharing mechanism — N server workers opening
one packed directory hold one physical copy of the hot pages instead
of N in-RAM replicas.

The format exists to serve exactly one pushdown primitive — Theorem
2's contract that a query touches only a rank-ordered prefix:
:meth:`TableStore.scored` is the table's
:class:`~repro.uncertain.scoring.ScoredTable` over the mapped columns,
whose Theorem-2 scan reads O(depth) pages, and
:meth:`TableStore.prefix` materializes the ordered prefix up to a
depth ``d``, decoding tid pages only that far.  A prefix may cut an
ME group: the members below the cut are truncated away exactly as
Section 3.3.2's scan-depth truncation prescribes.

A schema-1 directory may also hold a ``gend.i8`` column and the meta
keys ``page_mass``, ``page_spill``, ``me_members`` and ``has_ties``;
readers ignore them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.exceptions import DataModelError
from repro.uncertain.scoring import ScoredTable
from repro.uncertain.table import UncertainTable

#: Rows per page: the unit of decode, caching and I/O alignment.
DEFAULT_PAGE_SIZE = 4096

#: Persisted-format schema version.
STORAGE_SCHEMA = 1

#: The marker file naming a packed-table directory.
META_FILE = "meta.json"

#: Columnar files: (filename, numpy dtype).
_COLUMNS = (
    ("score.f8", "<f8"),
    ("prob.f8", "<f8"),
    ("group.i8", "<i8"),
    ("order.i8", "<i8"),
)


#: Byte budget of the per-store decoded tid-page cache.  The entry
#: count (64 pages) bounds small-tuple tables; the byte budget bounds
#: tables with large tid blobs, where 64 pages of 4096 rows each could
#: otherwise dwarf the mapped columns.
ITEM_CACHE_BYTES = 16 * 1024 * 1024

#: Rough decoded footprint of one cached tid beyond its blob bytes
#: (the Python object and its list slot, priced generously).
_ITEM_OVERHEAD_BYTES = 120


class StorageFormatError(DataModelError):
    """A packed-table directory is missing, corrupt, or incompatible."""


def is_packed_dir(path: str | Path) -> bool:
    """Whether ``path`` is a packed-table directory (has ``meta.json``)."""
    return (Path(path) / META_FILE).is_file()


def _encode_blobs(values: Iterator[Any]) -> tuple[bytes, np.ndarray]:
    """JSON-encode ``values`` into one blob plus its offset table."""
    offsets = [0]
    parts: list[bytes] = []
    total = 0
    for value in values:
        data = json.dumps(value, separators=(",", ":")).encode("utf-8")
        parts.append(data)
        total += len(data)
        offsets.append(total)
    return b"".join(parts), np.asarray(offsets, dtype="<u8")


def pack_table(
    table: UncertainTable,
    out_dir: str | Path,
    *,
    scorer: str = "score",
    page_size: int = DEFAULT_PAGE_SIZE,
) -> dict[str, Any]:
    """Pack ``table`` into the on-disk scored-table format.

    The table is scored and rank-ordered with exactly the resident
    pipeline's stage-1 code (:meth:`ScoredTable.from_table` over the
    attribute scorer), then its columns are written as they are — so
    the packed directory's :meth:`TableStore.scored` view holds the
    in-RAM path's columns.

    :param scorer: the numeric attribute the rank order is built on;
        queries naming the same scorer string are served by pushdown,
        anything else falls back to full materialization.
    :param page_size: rows per page (decode/caching unit).
    :returns: a JSON-ready summary of what was written.
    """
    from repro.core.distribution import resolve_scorer

    if not isinstance(scorer, str) or not scorer:
        raise StorageFormatError(
            f"pack scorer must be a non-empty attribute name, got {scorer!r}"
        )
    if page_size < 1:
        raise StorageFormatError(f"page_size must be >= 1, got {page_size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    table = table.frozen()
    scored = ScoredTable.from_table(table, resolve_scorer(scorer))
    n = len(scored)
    insertion_of_tid = {t.tid: index for index, t in enumerate(table.tuples)}

    scores = np.asarray(scored.score_column, dtype="<f8")
    probs = np.asarray(scored.prob_column, dtype="<f8")
    groups = np.asarray(scored.group_column, dtype="<i8")
    order = np.asarray(
        [insertion_of_tid[item.tid] for item in scored], dtype="<i8"
    )

    for (filename, _dtype), column in zip(
        _COLUMNS, (scores, probs, groups, order)
    ):
        column.tofile(out / filename)

    tid_blob, tid_off = _encode_blobs(item.tid for item in scored)
    (out / "tid.dat").write_bytes(tid_blob)
    tid_off.tofile(out / "tid.off")
    attr_blob, attr_off = _encode_blobs(
        dict(table[item.tid].attributes) for item in scored
    )
    (out / "attr.dat").write_bytes(attr_blob)
    attr_off.tofile(out / "attr.off")

    pages = max(1, -(-n // page_size)) if n else 0
    meta = {
        "schema": STORAGE_SCHEMA,
        "format": "repro-scored-table",
        "name": table.name,
        "tuples": n,
        "scorer": scorer,
        "page_size": page_size,
        "pages": pages,
        "explicit_rules": len(table.explicit_rules),
        "attributes": list(table.attribute_names()),
    }
    (out / META_FILE).write_text(json.dumps(meta, indent=2) + "\n")
    bytes_written = sum(
        (out / name).stat().st_size
        for name in (
            [filename for filename, _ in _COLUMNS]
            + ["tid.dat", "tid.off", "attr.dat", "attr.off", META_FILE]
        )
    )
    return {
        "path": str(out),
        "tuples": n,
        "pages": pages,
        "explicit_rules": meta["explicit_rules"],
        "scorer": scorer,
        "page_size": page_size,
        "bytes": bytes_written,
    }


class TableStore:
    """Read side of a packed-table directory.

    Columns are memory-mapped lazily and read-only; tuple ids decode
    per *page* through a small LRU, so serving "the ordered prefix up
    to depth ``d``" touches O(d) bytes regardless of the table size
    (attributes decode only for a full fallback reconstruction).  The
    store is also the tid column of its :meth:`scored` view: iterating
    it yields the tuple ids in rank order, page by page.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        meta_path = self.path / META_FILE
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageFormatError(
                f"cannot read packed table at {self.path}: {exc}"
            ) from exc
        if (
            meta.get("format") != "repro-scored-table"
            or meta.get("schema") != STORAGE_SCHEMA
        ):
            raise StorageFormatError(
                f"{meta_path} is not a schema-{STORAGE_SCHEMA} packed table"
            )
        self.meta: Mapping[str, Any] = meta
        self.count: int = int(meta["tuples"])
        self.page_size: int = int(meta["page_size"])
        self.scorer: str = str(meta["scorer"])
        self.name: str = str(meta["name"])
        self._arrays: dict[str, np.ndarray] = {}
        # The page cache reuses the session's staged-LRU machinery
        # (thread-safe, counted) — one tid cache shared by every
        # prefix of this store.  Imported lazily here to keep the
        # storage package importable without the api layer.  Beyond
        # the entry count, it carries a byte budget (decoded page
        # sizes come from the blob offset tables, so a store with
        # huge tuples cannot balloon a 64-entry cache).
        from repro.api.session import _LRU

        self._item_pages = _LRU(64, max_bytes=ITEM_CACHE_BYTES)

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def _column(self, filename: str, dtype: str) -> np.ndarray:
        array = self._arrays.get(filename)
        if array is None:
            target = self.path / filename
            if self.count == 0:
                array = np.empty(0, dtype=dtype)
            else:
                try:
                    array = np.memmap(
                        target, dtype=dtype, mode="r", shape=(self.count,)
                    )
                except (OSError, ValueError) as exc:
                    raise StorageFormatError(
                        f"cannot map column {target}: {exc}"
                    ) from exc
            self._arrays[filename] = array
        return array

    @property
    def scores(self) -> np.ndarray:
        """Scores per rank position (memory-mapped, read-only)."""
        return self._column("score.f8", "<f8")

    @property
    def probs(self) -> np.ndarray:
        """Membership probabilities per rank position."""
        return self._column("prob.f8", "<f8")

    @property
    def groups(self) -> np.ndarray:
        """Dense ME-group id per rank position."""
        return self._column("group.i8", "<i8")

    @property
    def orders(self) -> np.ndarray:
        """Original insertion index per rank position."""
        return self._column("order.i8", "<i8")

    def _offsets(self, stem: str) -> np.ndarray:
        """The ``n + 1``-entry offset table of a ``.dat/.off`` pair."""
        filename = f"{stem}.off"
        offsets = self._arrays.get(filename)
        if offsets is None:
            offsets = np.memmap(
                self.path / filename,
                dtype="<u8",
                mode="r",
                shape=(self.count + 1,),
            )
            self._arrays[filename] = offsets
        return offsets

    def _blob_slice(
        self, stem: str, start: int, stop: int
    ) -> list[Any]:
        """Decode JSON blobs ``start .. stop`` of a ``.dat/.off`` pair."""
        if stop <= start:
            return []
        offsets = self._offsets(stem)
        lo = int(offsets[start])
        hi = int(offsets[stop])
        with open(self.path / f"{stem}.dat", "rb") as handle:
            handle.seek(lo)
            blob = handle.read(hi - lo)
        out = []
        base = lo
        for index in range(start, stop):
            a = int(offsets[index]) - base
            b = int(offsets[index + 1]) - base
            out.append(json.loads(blob[a:b]))
        return out

    # ------------------------------------------------------------------
    # The pushdown primitive
    # ------------------------------------------------------------------
    def _page_tids(self, page: int) -> list[Any]:
        """The ``page``-th page of rank-ordered tuple ids (LRU-cached)."""
        cached = self._item_pages.get(page)
        if cached is not None:
            return cached
        start = page * self.page_size
        stop = min(start + self.page_size, self.count)
        tids = self._blob_slice("tid", start, stop)
        self._item_pages.put(
            page, tids, nbytes=self._page_nbytes("tid", start, stop)
        )
        return tids

    def _page_nbytes(self, stem: str, start: int, stop: int) -> int:
        """Approximate decoded size of a cached page.

        Blob bytes come exactly from the offset table; the decoded
        Python objects on top are priced at a flat per-row overhead.
        """
        if stop <= start:
            return 0
        offsets = self._offsets(stem)
        blob = int(offsets[stop]) - int(offsets[start])
        return blob + (stop - start) * _ITEM_OVERHEAD_BYTES

    def __iter__(self) -> Iterator[Any]:
        """Tuple ids in rank order, decoded page by page."""
        for page in range(-(-self.count // self.page_size)):
            yield from self._page_tids(page)

    def scored(self) -> ScoredTable:
        """The whole table's rank order over the mapped columns.

        The store is the view's tid column, so the view's
        :meth:`~ScoredTable.prefix` comes back here (:meth:`prefix`).
        """
        return ScoredTable(self.scores, self.probs, self.groups, self)

    def prefix(self, depth: int) -> ScoredTable:
        """Materialize the ordered prefix up to ``depth`` as a
        :class:`ScoredTable` — *the* pushdown primitive.

        Decodes only the tid pages up to ``depth``; the columns are
        copied out of the maps.  Same class, columns, tids and derived
        structure as the resident path's ``from_table(...).prefix``.
        """
        depth = max(0, min(depth, self.count))
        tids: list[Any] = []
        for page in range(-(-depth // self.page_size)):
            tids.extend(self._page_tids(page))
        return ScoredTable(
            np.array(self.scores[:depth]),
            np.array(self.probs[:depth]),
            np.array(self.groups[:depth]),
            tuple(tids[:depth]),
        )

    def clear_page_cache(self) -> None:
        """Drop decoded pages (calibration and tests)."""
        self._item_pages.clear()

    def cache_info(self) -> dict[str, dict[str, int]]:
        """Hit/miss counters of the page cache."""
        return {"item_pages": self._item_pages.info()}

    # ------------------------------------------------------------------
    # Fallback reconstruction
    # ------------------------------------------------------------------
    def reconstruct(self) -> UncertainTable:
        """The original :class:`UncertainTable`, rebuilt in full.

        Insertion order comes from the ``order`` column and explicit
        rules from the dense group ids (rule gids precede singleton
        gids by construction), so the reconstruction assigns exactly
        the packed group ids — queries on it are byte-identical to
        queries on the table that was packed.
        """
        from repro.uncertain.model import UncertainTuple

        n = self.count
        order = self.orders
        probs = self.probs
        groups = self.groups
        tids = self._blob_slice("tid", 0, n)
        attrs = self._blob_slice("attr", 0, n)
        tuples: list[UncertainTuple | None] = [None] * n
        rule_members: dict[int, list[tuple[int, Any]]] = {}
        rule_count = int(self.meta["explicit_rules"])
        for rank in range(n):
            insertion = int(order[rank])
            tid = tids[rank]
            tuples[insertion] = UncertainTuple(
                tid, attrs[rank], float(probs[rank])
            )
            gid = int(groups[rank])
            if gid < rule_count:
                rule_members.setdefault(gid, []).append((insertion, tid))
        rules = [
            tuple(tid for _, tid in sorted(rule_members[gid]))
            for gid in range(rule_count)
        ]
        return UncertainTable(
            [t for t in tuples if t is not None], rules, name=self.name
        )

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"TableStore(path={str(self.path)!r}, tuples={self.count}, "
            f"scorer={self.scorer!r})"
        )


def open_store(path: str | Path) -> TableStore:
    """Open a packed-table directory as a :class:`TableStore`."""
    return TableStore(path)
