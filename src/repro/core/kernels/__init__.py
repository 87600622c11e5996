"""Kernel backends for the DP inner loop.

The numpy implementation in :mod:`repro.core.dp` is always available;
this package adds a compiled backend (``_kernel.c`` driven through
ctypes, see :mod:`repro.core.kernels.build`).  Outputs are
byte-identical across backends — the planner and the
``REPRO_BACKEND`` override only trade wall-clock, never answers.

Backend names:

``python``
    The numpy path.  Always available.
``native``
    The compiled fused-fold kernel.  Forcing it on a machine where
    the extension cannot build or load raises
    :class:`repro.exceptions.KernelBackendError`.
``auto``
    ``native`` when loadable, else ``python`` (the default).

The ``REPRO_BACKEND`` environment variable always wins over both the
planner's choice and explicit ``backend=`` arguments, so CI and
debugging sessions can pin a backend without touching call sites.
"""

from __future__ import annotations

import os

from repro.core.kernels import build
from repro.exceptions import KernelBackendError

__all__ = [
    "BACKEND_ENV",
    "NATIVE_MAX_LINES",
    "backends_report",
    "native_available",
    "native_engine",
    "resolve_backend",
]

#: Environment override knob.
BACKEND_ENV = "REPRO_BACKEND"

#: Line budgets above this fall back to the numpy path even under the
#: native backend: the native engine preallocates per-column slabs of
#: ``max_lines`` doubles, and budgets that large only appear in
#: exact-reference test helpers where coalescing is disabled entirely.
NATIVE_MAX_LINES = 1024

_VALID = ("python", "native", "auto")


def native_available() -> bool:
    """Whether the compiled kernel loaded (building it on first ask)."""
    return build.load() is not None


def resolve_backend(requested: str | None = None) -> str:
    """Resolve a backend request to a concrete ``python``/``native``.

    ``requested`` is typically the planner's per-op choice (or ``None``
    for ``auto``); the ``REPRO_BACKEND`` environment variable, when
    set, overrides it.

    :raises KernelBackendError: on an unknown name, or when ``native``
        is forced but the compiled kernel is unavailable.
    """
    env = os.environ.get(BACKEND_ENV, "").strip().lower()
    choice = env or (requested or "auto").strip().lower()
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


def native_engine(max_lines: int):
    """A fresh :class:`~repro.core.kernels.native.NativeEngine`.

    ``None`` when the compiled kernel is unavailable or ``max_lines``
    exceeds :data:`NATIVE_MAX_LINES` (callers fall back to python).
    """
    if max_lines > NATIVE_MAX_LINES:
        return None
    lib = build.load()
    if lib is None:
        return None
    from repro.core.kernels.native import NativeEngine

    return NativeEngine(lib, max_lines)


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
