"""The native DP engine: slab-resident cells driving ``_kernel.c``.

:mod:`repro.core.dp` parameterizes its control flow (sweep order,
column pruning, emit points) over an *engine* object; this module is
the compiled implementation.  The numpy twin is
``repro.core.dp._PythonEngine`` — both expose the same few methods,
so the DP orchestration is shared by construction and only the cell
arithmetic differs in implementation (never in result: the kernel
reproduces every float op, merge permutation and tie rule bit for
bit; see the header comment of ``_kernel.c``).

Memory model
------------
Cells live in preallocated float64 *slabs* instead of per-cell numpy
arrays: a cell handle is the plain tuple ``(slab, off, m, tag_off)``
— scores at ``slab[off:off+m]``, probs at ``slab[off+cap:...]``, and
the per-line vector ids (*tags*) at ``tags[tag_off:tag_off+m]`` in a
single shared int64 bump slab.  Each DP chain owns two ping/pong
buffers: a fold reads the current buffer and writes the other, so no
call ever aliases its output over an input.  The vector arena mirrors
``dp._Arena`` as flat int64 registries (per chunk: base id, tag-slab
offset and the rank position it adds), walked in C by
``repro_vectors``.

Everything python does per fold is O(columns) bookkeeping — header
assembly into preallocated buffers whose addresses are fetched once —
so the per-``_combine`` cost drops from several numpy kernel
launches to a share of one C call per fold.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dp import _MIN_CELL_MASS, _Unit

__all__ = ["NativeEngine"]

#: Initial tag-slab / chunk-registry / workspace sizes (all grow).
_INITIAL_TAGS = 4096
_INITIAL_CHUNKS = 1024
_WS_SEGMENTS_F = 6
_WS_SEGMENTS_I = 3


class _Chain:
    """One DP column chain: two ping/pong slabs of ``ncols`` cells."""

    __slots__ = ("slabs", "active")

    def __init__(self, slab_a: int, slab_b: int) -> None:
        self.slabs = (slab_a, slab_b)
        self.active = 0

    @property
    def out_slab(self) -> int:
        return self.slabs[1 - self.active]

    def swap(self) -> None:
        self.active = 1 - self.active


class NativeEngine:
    """Drives ``repro_fold``/``repro_vectors`` for one DP run."""

    backend = "native"

    def __init__(self, lib, max_lines: int) -> None:
        self._fold = lib.fold
        self._vectors = lib.vectors
        self.max_lines = max_lines
        self.cap = max_lines

        # f64 cell slabs; index 0 is the constant cell (0.0, 1.0).
        self._slabs: list[np.ndarray] = []
        self._slab_ptrs = np.zeros(64, dtype=np.int64)
        const = np.zeros(2 * self.cap, dtype=np.float64)
        const[self.cap] = 1.0
        self._add_slab(const)
        self._const_cell = (0, 0, 1, 0)

        # Shared int64 tag slab; tags[0] = 0 is the empty vector.
        self._tags = np.zeros(_INITIAL_TAGS, dtype=np.int64)
        self._tags_ptr = self._tags.ctypes.data
        self._bump = 1

        # Vector arena registries (the native _Arena): chunk 0 is the
        # sentinel so real ids (>= 1) always bisect past it.
        self._chunk_bases = np.zeros(_INITIAL_CHUNKS, dtype=np.int64)
        self._chunk_offs = np.zeros(_INITIAL_CHUNKS, dtype=np.int64)
        self._chunk_pos = np.zeros(_INITIAL_CHUNKS, dtype=np.int64)
        self._chunk_bases_ptr = self._chunk_bases.ctypes.data
        self._chunk_offs_ptr = self._chunk_offs.ctypes.data
        self._chunk_pos_ptr = self._chunk_pos.ctypes.data
        self._nchunks = 1
        self._arena_size = 1

        # Scratch workspace for the kernel (grown on demand).
        self._ws_cap = 0
        self._ws = np.empty(0, dtype=np.float64)
        self._wsi = np.empty(0, dtype=np.int64)
        self._ws_ptr = 0
        self._wsi_ptr = 0
        self._grow_ws(8 * self.cap)

        # Header buffers, pointers fetched once.
        self._ihdr = np.empty(512, dtype=np.int64)
        self._ihdr_ptr = self._ihdr.ctypes.data
        self._fhdr = np.empty(128, dtype=np.float64)
        self._fhdr_ptr = self._fhdr.ctypes.data
        self._out_lens = np.empty(256, dtype=np.int64)
        self._out_lens_ptr = self._out_lens.ctypes.data

        # The emit chain: take_reduce folds one column into it.
        self._emit_chain = self.new_chain(1)

    # -- slab / buffer management ------------------------------------

    def _add_slab(self, buf: np.ndarray) -> int:
        index = len(self._slabs)
        if index >= len(self._slab_ptrs):
            grown = np.zeros(2 * len(self._slab_ptrs), dtype=np.int64)
            grown[:index] = self._slab_ptrs[:index]
            self._slab_ptrs = grown
        self._slabs.append(buf)
        self._slab_ptrs[index] = buf.ctypes.data
        return index

    def _grow_ws(self, need: int) -> None:
        new_cap = max(need, 2 * self._ws_cap)
        self._ws = np.empty(_WS_SEGMENTS_F * new_cap, dtype=np.float64)
        self._wsi = np.empty(_WS_SEGMENTS_I * new_cap, dtype=np.int64)
        self._ws_cap = new_cap
        self._ws_ptr = self._ws.ctypes.data
        self._wsi_ptr = self._wsi.ctypes.data

    def _ensure_tags(self, need: int) -> None:
        if need <= len(self._tags):
            return
        grown = np.zeros(max(need, 2 * len(self._tags)), dtype=np.int64)
        grown[: self._bump] = self._tags[: self._bump]
        self._tags = grown
        self._tags_ptr = grown.ctypes.data

    def _ensure_chunks(self, need: int) -> None:
        if need <= len(self._chunk_bases):
            return
        size = max(need, 2 * len(self._chunk_bases))
        self._chunk_bases = np.resize(self._chunk_bases, size)
        self._chunk_offs = np.resize(self._chunk_offs, size)
        self._chunk_pos = np.resize(self._chunk_pos, size)
        self._chunk_bases_ptr = self._chunk_bases.ctypes.data
        self._chunk_offs_ptr = self._chunk_offs.ctypes.data
        self._chunk_pos_ptr = self._chunk_pos.ctypes.data

    def _ensure_hdrs(self, ints: int, floats: int, ncols: int) -> None:
        if ints > len(self._ihdr):
            self._ihdr = np.empty(max(ints, 2 * len(self._ihdr)), np.int64)
            self._ihdr_ptr = self._ihdr.ctypes.data
        if floats > len(self._fhdr):
            self._fhdr = np.empty(
                max(floats, 2 * len(self._fhdr)), np.float64
            )
            self._fhdr_ptr = self._fhdr.ctypes.data
        if ncols > len(self._out_lens):
            self._out_lens = np.empty(
                max(ncols, 2 * len(self._out_lens)), np.int64
            )
            self._out_lens_ptr = self._out_lens.ctypes.data

    # -- the engine protocol -----------------------------------------

    def const_cell(self) -> tuple:
        """The distribution {score 0.0: prob 1.0}, empty vector."""
        return self._const_cell

    def new_chain(self, ncols: int) -> _Chain:
        size = ncols * 2 * self.cap
        return _Chain(
            self._add_slab(np.empty(size, dtype=np.float64)),
            self._add_slab(np.empty(size, dtype=np.float64)),
        )

    def fold_into(
        self, chain: _Chain, unit, pairs: Sequence[tuple]
    ) -> list[tuple | None]:
        """Advance one unit over ``pairs`` of ``(skip, take)`` cells.

        The fused equivalent of one ``dp._combine`` per pair, in a
        single kernel call; returns the output cell handles (``None``
        where a pair had no parts), written to the chain's inactive
        buffer, which then becomes the active one.
        """
        ncols = len(pairs)
        if ncols == 0:
            return []
        consts = unit.constituents
        nconst = len(consts)
        cap = self.cap
        self._ensure_hdrs(
            6 + (7 + nconst) * ncols, 2 + 2 * nconst, ncols
        )
        self._ensure_tags(self._bump + ncols * cap)
        self._ensure_chunks(self._nchunks + ncols * nconst)

        out_slab = chain.out_slab
        hdr = [ncols, self.max_lines, nconst, out_slab, cap, 0]
        need_ws = 1
        for skip, take in pairs:
            if skip is None:
                hdr += (-1, 0, 0, 0)
                total = 0
            else:
                hdr += (skip[0], skip[1], skip[2], skip[3])
                total = skip[2]
            if take is None:
                hdr += (-1, 0, 0)
            else:
                hdr += (take[0], take[1], take[2])
                total += nconst * take[2]
            if total > need_ws:
                need_ws = total
        if need_ws > self._ws_cap:
            self._grow_ws(need_ws)

        # Register one arena chunk per (column, constituent) take part;
        # the kernel synthesizes line j's tag as base + j, exactly like
        # dp._Arena.extend.
        bases = self._chunk_bases
        offs = self._chunk_offs
        positions = self._chunk_pos
        count = self._nchunks
        size = self._arena_size
        for skip, take in pairs:
            if take is None:
                hdr += (0,) * nconst
                continue
            take_m = take[2]
            take_tag = take[3]
            for _score, _prob, pos in consts:
                bases[count] = size
                offs[count] = take_tag
                positions[count] = pos
                hdr.append(size)
                count += 1
                size += take_m
        self._nchunks = count
        self._arena_size = size

        self._ihdr[: len(hdr)] = hdr
        fhdr = [unit.absent_prob, _MIN_CELL_MASS]
        for score, _prob, _pos in consts:
            fhdr.append(score)
        for _score, prob, _pos in consts:
            fhdr.append(prob)
        self._fhdr[: len(fhdr)] = fhdr

        while True:
            appended = self._fold(
                self._ihdr_ptr,
                self._fhdr_ptr,
                self._slab_ptrs.ctypes.data,
                self._tags_ptr,
                self._bump,
                self._ws_ptr,
                self._ws_cap,
                self._wsi_ptr,
                self._out_lens_ptr,
            )
            if appended >= 0:
                break
            self._grow_ws(2 * self._ws_cap)

        lens = self._out_lens[:ncols].tolist()
        outs: list[tuple | None] = []
        tag_off = self._bump
        stride = 2 * cap
        for slot, m in enumerate(lens):
            if m < 0:
                outs.append(None)
            else:
                outs.append((out_slab, slot * stride, m, tag_off))
                tag_off += m
        self._bump += appended
        chain.swap()
        return outs

    def take_reduce(self, cell: tuple | None, constituent) -> tuple | None:
        """Attach one ``(score, prob, pos)`` as the last pick, then reduce.

        A one-column fold whose unit has that row as its only
        constituent and no skip part, like the numpy engine's
        ``_combine``.  Returns exported numpy arrays ``(scores, probs,
        ids)`` or ``None``.
        """
        if cell is None:
            return None
        unit = _Unit((constituent,))
        out = self.fold_into(self._emit_chain, unit, [(None, cell)])[0]
        if out is None:
            return None
        return self.export_cell(out)

    def export_cell(self, cell: tuple) -> tuple:
        """Copy a slab cell out as ``(scores, probs, ids)`` arrays."""
        slab, off, m, tag_off = cell
        buf = self._slabs[slab]
        return (
            buf[off : off + m].copy(),
            buf[off + self.cap : off + self.cap + m].copy(),
            self._tags[tag_off : tag_off + m].copy(),
        )

    def positions(self, ids: np.ndarray, k: int) -> np.ndarray:
        """Length-``k`` vectors as ``(lines, k)`` rank positions, last
        pick first (walked in C)."""
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        rows = np.empty((len(ids), k), dtype=np.int64)
        self._vectors(
            ids.ctypes.data,
            len(ids),
            k,
            self._chunk_bases_ptr,
            self._chunk_offs_ptr,
            self._chunk_pos_ptr,
            self._nchunks,
            self._tags_ptr,
            rows.ctypes.data,
        )
        return rows

    def mark(self) -> tuple[int, int, int]:
        """Checkpoint of (chunk count, arena size, tag bump)."""
        return self._nchunks, self._arena_size, self._bump

    def release(self, mark: tuple[int, int, int]) -> None:
        """Drop every chunk and tag appended since ``mark``."""
        self._nchunks, self._arena_size, self._bump = mark
