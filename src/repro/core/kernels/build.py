"""Compile and load the native DP kernel (``_kernel.c``).

The kernel is a plain C shared library with no ``Python.h``
dependency, so it builds with nothing but a C compiler::

    cc -O3 -fPIC -shared -o _repro_kernel.so _kernel.c

Resolution order when loading:

1. a prebuilt ``_repro_kernel.so`` sitting next to this module (what a
   wheel built by ``_build/backend.py`` ships when the build machine
   had a compiler);
2. a cached build under ``$REPRO_KERNEL_CACHE`` (default
   ``~/.cache/repro/kernels``), keyed by the source digest and
   platform so upgrades never load a stale binary;
3. a fresh compile into that cache, silently skipped when no compiler
   is on ``PATH`` — ``pip install`` never requires one.

The library binds through ``ctypes``, which ships with every
supported CPython: raw buffer addresses cross as plain integers at
~200 ns a call.  Every failure is recorded rather than raised; callers
see ``load() is None`` plus :func:`load_error`, and the pure-numpy
backend stays available.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable

__all__ = [
    "KernelLib",
    "ensure_built",
    "load",
    "load_error",
]

#: Name of a prebuilt library shipped inside the package directory.
PREBUILT_NAME = "_repro_kernel.so"

_SOURCE = Path(__file__).with_name("_kernel.c")

_UNSET = object()
_LIB: object = _UNSET
_ERROR: str | None = None


class KernelLib:
    """Loaded kernel entry points plus provenance for reporting.

    :ivar fold: ``repro_fold`` — fused combine over DP columns.
    :ivar vectors: ``repro_vectors`` — arena ids to rank-position rows.
    :ivar strategy: binding used (``ctypes``).
    :ivar path: the shared library file that was loaded.
    """

    __slots__ = ("fold", "vectors", "strategy", "path")

    def __init__(
        self,
        fold: Callable[..., int],
        vectors: Callable[..., None],
        strategy: str,
        path: str,
    ) -> None:
        self.fold = fold
        self.vectors = vectors
        self.strategy = strategy
        self.path = path


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "kernels"


def _source_digest() -> str:
    return hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:12]


def _compiler() -> str | None:
    override = os.environ.get("CC")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    from shutil import which

    for name in candidates:
        if name and which(name):
            return name
    return None


def compile_kernel(source: Path, target: Path) -> None:
    """Compile ``source`` into the shared library ``target`` (atomic).

    :raises RuntimeError: when no compiler is available or it fails.
    """
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix=target.stem + ".", dir=str(target.parent)
    )
    os.close(fd)
    cmd = [cc, "-O3", "-fPIC", "-shared", "-o", tmp, str(source)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(cmd)} failed: {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def ensure_built() -> Path | None:
    """Locate (or build) the shared library; ``None`` when impossible.

    Never raises: a missing compiler or a failed compile records the
    reason for :func:`load_error` and returns ``None``.
    """
    global _ERROR
    prebuilt = _SOURCE.with_name(PREBUILT_NAME)
    if prebuilt.exists():
        return prebuilt
    platform_tag = sysconfig.get_platform().replace("-", "_")
    name = (
        f"_repro_kernel-{_source_digest()}-{platform_tag}"
        f"-cp{sys.version_info.major}{sys.version_info.minor}.so"
    )
    target = _cache_dir() / name
    if target.exists():
        return target
    try:
        compile_kernel(_SOURCE, target)
    except (RuntimeError, OSError) as exc:
        _ERROR = f"native kernel build failed: {exc}"
        return None
    return target


_FOLD_ARGS = [
    ctypes.c_void_p,  # ihdr
    ctypes.c_void_p,  # fhdr
    ctypes.c_void_p,  # slabs
    ctypes.c_void_p,  # tags
    ctypes.c_longlong,  # tag_start
    ctypes.c_void_p,  # ws
    ctypes.c_longlong,  # ws_cap
    ctypes.c_void_p,  # wsi
    ctypes.c_void_p,  # out_lens
]

_VECTORS_ARGS = [
    ctypes.c_void_p,  # ids
    ctypes.c_longlong,  # n
    ctypes.c_longlong,  # k
    ctypes.c_void_p,  # bases
    ctypes.c_void_p,  # offs
    ctypes.c_void_p,  # positions
    ctypes.c_longlong,  # nchunks
    ctypes.c_void_p,  # tags
    ctypes.c_void_p,  # out
]


def _bind_ctypes(path: Path) -> KernelLib:
    lib = ctypes.CDLL(str(path))
    fold = lib.repro_fold
    fold.restype = ctypes.c_longlong
    fold.argtypes = _FOLD_ARGS
    vectors = lib.repro_vectors
    vectors.restype = None
    vectors.argtypes = _VECTORS_ARGS
    return KernelLib(fold, vectors, "ctypes", str(path))


def load() -> KernelLib | None:
    """The loaded kernel, building it on first use; cached per process."""
    global _LIB, _ERROR
    if _LIB is not _UNSET:
        return _LIB if isinstance(_LIB, KernelLib) else None
    path = ensure_built()
    if path is None:
        _LIB = None
        return None
    try:
        lib = _bind_ctypes(path)
    except Exception as exc:  # noqa: BLE001 - record, fall back
        _LIB = None
        _ERROR = f"native kernel load failed: {exc}"
        return None
    _LIB = lib
    _ERROR = None
    return lib


def load_error() -> str | None:
    """Why the native kernel is unavailable (``None`` when it loaded)."""
    return _ERROR
