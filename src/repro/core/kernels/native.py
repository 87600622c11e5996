"""The native DP engine: one ``repro_run`` call per dynamic program.

:mod:`repro.core.dp` lowers each dynamic program into a
:class:`~repro.core.dp._Program` — every decision of the sweep (order,
rule exclusion, column pruning, emit points) is made there — and an
engine only runs it.  The numpy twin is ``repro.core.dp._PythonEngine``;
this module hands the whole program to the C entry point ``repro_run``
(``_kernel.c``), whose cell arithmetic reproduces the numpy engine's
bit for bit (see the kernel's header comment).

Memory model
------------
The engine passes one int64 *context* array: the addresses of the
program's arrays and of its buffers, their capacities, and the run
state (:data:`_CONTEXT` follows the kernel's field order).  Slot cells
live in one float64 slab sized from the program (slots × columns ×
``max_lines`` lines).  Vector ids (*tags*), the arena's chunk registry,
the kernel's workspace and the emitted lines live in buffers that
start at fixed capacities (:data:`_INITIAL_TAGS` and its siblings;
pages never written cost no memory).  A step that finds a buffer
short writes nothing and returns its code, and
:meth:`NativeEngine.run` grows that buffer (at least doubling it),
keeping its live part, and calls again to resume at the same step.
The Python work per dynamic program is a few allocations and calls,
whatever the number of folds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NativeEngine"]

#: Context fields, in the order of the kernel's ``X_*`` enum.
_CONTEXT = """
    steps nsteps unit_off unit_len unit_pos unit_absent
    scores probs ncols max_lines row_width slabs cells
    tags tags_cap chunk_base chunk_off chunk_pos chunks_cap
    ws wsi ws_cap out_scores out_probs out_req out_rows out_cap
    step bump nchunks arena mark_bump mark_chunks mark_arena nout need
""".split()
_X = {name: index for index, name in enumerate(_CONTEXT)}

#: Initial capacities: tags, arena chunks, workspace lines, output
#: lines.  Every DP of perfbench's ``cold_reads`` fits them, so it runs
#: in one call; at k <= 10 each buffer stays under 2 MiB, below the
#: size at which numpy advises huge pages, so a small DP touches none.
_INITIAL_TAGS = 1 << 17
_INITIAL_CHUNKS = 1 << 12
_INITIAL_WS = 1 << 11
_INITIAL_LINES = 1 << 15

#: Growable buffers: field -> (the kernel's ``GROW_*`` code, dtype,
#: entries per unit of capacity; 0 for the output rows' width).
_BUFFERS = {
    "tags": (1, np.int64, 1),
    "chunk_base": (2, np.int64, 1),
    "chunk_off": (2, np.int64, 1),
    "chunk_pos": (2, np.int64, 1),
    "ws": (3, np.float64, 6),
    "wsi": (3, np.int64, 3),
    "out_scores": (4, np.float64, 1),
    "out_probs": (4, np.float64, 1),
    "out_req": (4, np.int32, 1),
    "out_rows": (4, np.int32, 0),
}
#: ``GROW_*`` code -> (capacity field, live-count field).
_CAPACITY = {
    1: ("tags_cap", "bump"),
    2: ("chunks_cap", "nchunks"),
    3: ("ws_cap", None),
    4: ("out_cap", "nout"),
}


class NativeEngine:
    """Runs a :class:`~repro.core.dp._Program` in one ``repro_run``."""

    __slots__ = ("_run",)

    def __init__(self, lib) -> None:
        self._run = lib.run

    def run(self, program) -> list:
        """Each request's lines as one ``(scores, probs, rows)`` triple
        in emit order (``None`` for a request with no line)."""
        ctx = np.zeros(len(_CONTEXT), dtype=np.int64)
        held: dict[str, np.ndarray] = {}
        width = max(program.walks)
        units = program.units
        for name, array, dtype in (
            ("steps", program.steps, np.int32),
            ("unit_off", units.off, np.int64),
            ("unit_len", units.length, np.int64),
            ("unit_pos", units.pos, np.int64),
            ("unit_absent", units.absent, np.float64),
            ("scores", units.scores, np.float64),
            ("probs", units.probs, np.float64),
        ):
            held[name] = np.ascontiguousarray(array, dtype=dtype)
        cells = program.nslots * program.ncols
        held["slabs"] = np.empty(cells * 2 * program.max_lines)
        held["cells"] = np.full(2 * cells, -1, dtype=np.int64)
        for name, array in held.items():
            ctx[_X[name]] = array.ctypes.data
        ctx[_X["nsteps"]] = len(program.steps)
        ctx[_X["ncols"]] = program.ncols
        ctx[_X["max_lines"]] = program.max_lines
        ctx[_X["row_width"]] = width
        initial = (_INITIAL_TAGS, _INITIAL_CHUNKS, _INITIAL_WS, _INITIAL_LINES)
        for code, size in zip(_CAPACITY, initial):
            _grow(ctx, held, code, size, width)
        # Tag 0 is the empty vector; chunk 0 is a sentinel below id 1.
        for name in ("tags", "chunk_base", "chunk_off", "chunk_pos"):
            held[name][0] = 0
        ctx[_X["bump"]] = ctx[_X["nchunks"]] = ctx[_X["arena"]] = 1

        address = ctx.ctypes.data
        while code := self._run(address):
            _grow(ctx, held, code, int(ctx[_X["need"]]), width)

        nout = int(ctx[_X["nout"]])
        requests = held["out_req"][:nout]
        scores = held["out_scores"][:nout]
        probs = held["out_probs"][:nout]
        rows = held["out_rows"][: nout * width].reshape(nout, width)
        outputs: list = []
        for index, walk in enumerate(program.walks):
            mine = requests == index
            if mine.all():  # one request: its lines, in place
                outputs.append((scores, probs, rows[:, :walk]) if nout else None)
            elif mine.any():
                outputs.append((scores[mine], probs[mine], rows[mine, :walk]))
            else:
                outputs.append(None)
        return outputs


def _grow(ctx: np.ndarray, held: dict, code: int, need: int, width: int) -> None:
    """Grow buffer ``code`` to at least ``need`` entries, keeping its
    live part, and rebind it in the context."""
    cap_field, live_field = _CAPACITY[code]
    size = max(need, 2 * int(ctx[_X[cap_field]]))
    live = int(ctx[_X[live_field]]) if live_field else 0
    for name, (owner, dtype, per) in _BUFFERS.items():
        if owner == code:
            per = per or width
            grown = np.empty(size * per, dtype=dtype)
            if live:
                grown[: live * per] = held[name][: live * per]
            held[name] = grown
            ctx[_X[name]] = grown.ctypes.data
    ctx[_X[cap_field]] = size
