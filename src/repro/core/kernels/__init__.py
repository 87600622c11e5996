"""The DP engines, and the one switch that picks which of them runs.

The numpy engine in :mod:`repro.core.dp` is always available; this
package adds a compiled engine (``_kernel.c`` driven through ctypes,
see :mod:`repro.core.kernels.build`).  Outputs are byte-identical
across engines, so the choice only trades wall-clock, never answers.

The choice is a property of the process, made here and nowhere else:
the ``REPRO_BACKEND`` environment variable names it.

``python``
    The numpy engine.  Always available.
``native``
    The compiled kernel: one C call runs a whole lowered program.
    Forcing it on a machine where the extension cannot build or load
    raises :class:`repro.exceptions.KernelBackendError` before any DP
    runs.
``auto`` (or unset)
    ``native`` when loadable, else ``python``.

:func:`dp_backend` answers which engine runs a DP with a given line
budget; :func:`repro.core.dp._run` is its one DP caller, and EXPLAIN
asks it for its ``backend`` param, its plan note and its rate.  Code
that must run a named engine (the speed bars, ``repro calibrate``'s
probes, ``repro bench``, engine-comparison tests) sets the same
switch for a scope with :func:`pinned`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.core.kernels import build
from repro.exceptions import KernelBackendError

__all__ = [
    "BACKEND_ENV",
    "NATIVE_MAX_LINES",
    "backends_report",
    "dp_backend",
    "native_available",
    "native_engine",
    "pinned",
    "resolve_backend",
]

#: The switch: the environment variable naming the DP engine.
BACKEND_ENV = "REPRO_BACKEND"

#: Line budgets above this run the numpy engine even under the native
#: switch: the native engine's slabs hold ``max_lines`` lines per DP
#: cell, and budgets that large only appear in exact-reference test
#: helpers where coalescing is disabled entirely.
NATIVE_MAX_LINES = 1024

_VALID = ("python", "native", "auto")


def native_available() -> bool:
    """Whether the compiled kernel loaded (building it on first ask)."""
    return build.load() is not None


def resolve_backend(requested: str | None = None) -> str:
    """Resolve a switch value to a concrete ``python``/``native``.

    ``requested`` is a value of the switch; ``None`` reads the
    process's switch, ``REPRO_BACKEND`` (unset means ``auto``).

    :raises KernelBackendError: on an unknown name, or when ``native``
        is forced but the compiled kernel is unavailable.
    """
    if requested is None:
        requested = os.environ.get(BACKEND_ENV, "")
    choice = requested.strip().lower() or "auto"
    if choice not in _VALID:
        raise KernelBackendError(
            f"unknown kernel backend {choice!r}; expected one of {_VALID}"
        )
    if choice == "python":
        return "python"
    if native_available():
        return "native"
    if choice == "native":
        reason = build.load_error() or "no C compiler and no prebuilt kernel"
        raise KernelBackendError(
            f"kernel backend 'native' is unavailable: {reason}"
        )
    return "python"


def dp_backend(max_lines: int) -> str:
    """The engine that runs a DP with line budget ``max_lines``.

    The switch's engine, except that budgets above
    :data:`NATIVE_MAX_LINES` run the numpy engine.

    :raises KernelBackendError: as :func:`resolve_backend`.
    """
    backend = resolve_backend()  # a bad switch raises at any budget
    return "python" if max_lines > NATIVE_MAX_LINES else backend


def native_engine():
    """A fresh :class:`~repro.core.kernels.native.NativeEngine`, for a
    DP that :func:`dp_backend` gave to the native engine."""
    from repro.core.kernels.native import NativeEngine

    return NativeEngine(build.load())


@contextmanager
def pinned(backend: str) -> Iterator[None]:
    """Run the block with the switch set to ``backend``.

    It writes ``os.environ``, which every thread of the process reads,
    so it is for single-threaded tools (``repro bench``, the speed
    bars, ``repro calibrate``, tests), never the serving path.
    """
    before = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = backend
    try:
        yield
    finally:
        if before is None:
            del os.environ[BACKEND_ENV]
        else:
            os.environ[BACKEND_ENV] = before


def backends_report() -> dict:
    """Which backends this machine can run (for ``repro calibrate``)."""
    available = native_available()
    native: dict = {"available": available}
    if available:
        lib = build.load()
        assert lib is not None
        native["strategy"] = lib.strategy
        native["path"] = lib.path
    else:
        native["error"] = (
            build.load_error() or "no C compiler and no prebuilt kernel"
        )
    return {"python": {"available": True}, "native": native}
