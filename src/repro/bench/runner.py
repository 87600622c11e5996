"""The registry's entry type and the one best-of wall-clock timer.

:class:`Experiment` is the entry type of
:data:`repro.bench.figures.EXPERIMENTS`, and checks raise through
:func:`_require`.  The figure generators time single runs (the paper
reports one execution time per configuration); the ablations, the
bars and ``repro calibrate`` take the best of several.  Each timed run
starts after a full garbage collection, so it pays for its own garbage
and not for a collection of the heap that earlier work left behind.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Mapping, NamedTuple, Sequence

Row = Mapping[str, Any]


class Experiment(NamedTuple):
    """One registry entry.

    :ivar title: the banner printed above the series.
    :ivar run: zero-argument generator of the series' rows.
    :ivar check: raises :class:`AssertionError` when the rows break the
        claim; the first line of its docstring states the claim.
    """

    title: str
    run: Callable[[], list[Row]]
    check: Callable[[Sequence[Row]], None]


def _require(condition: bool, message: str) -> None:
    """Raise ``AssertionError(message)`` unless ``condition`` holds.

    Checks call this rather than ``assert``, which ``python -O``
    strips.
    """
    if not condition:
        raise AssertionError(message)


class TimedResult(NamedTuple):
    """Result + wall-clock seconds of a timed call.

    :ivar value: the callable's return value (from the last repeat).
    :ivar seconds: best-of-``repeats`` wall-clock duration.
    """

    value: Any
    seconds: float


def time_callable(
    fn: Callable[[], Any], *, repeats: int = 1
) -> TimedResult:
    """Run ``fn`` ``repeats`` times; report the fastest duration.

    Every run starts after ``gc.collect()``: otherwise a generation-2
    collection that the earlier work made due can land inside a short
    run and cost it several times its own duration.

    :param repeats: >= 1; the minimum is the conventional robust
        estimator for CPU-bound work.
    """
    best = float("inf")
    value: Any = None
    for _ in range(max(1, repeats)):
        gc.collect()
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return TimedResult(value, best)
