"""The one best-of wall-clock timer.

The figure generators time single runs (the paper reports one
execution time per configuration); the ablations, ``repro
calibrate`` and the backend bar take the best of several.
"""

from __future__ import annotations

import time
from typing import Any, Callable, NamedTuple


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

    :param repeats: >= 1; the minimum is the conventional robust
        estimator for CPU-bound work.
    """
    best = float("inf")
    value: Any = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return TimedResult(value, best)
