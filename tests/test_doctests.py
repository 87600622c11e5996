"""Every docstring example in the ``repro`` package runs as written.

Walks every module of the package, as the install smoke imports them,
and runs its doctests, so an example that drifts from the code fails
here instead of misleading a reader.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import repro


def test_docstring_examples_run_as_written() -> None:
    failed: list[str] = []
    attempted = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        result = doctest.testmod(module, report=False)
        attempted += result.attempted
        if result.failed:
            failed.append(info.name)
    assert not failed, f"doctest examples fail in {failed} (see the captured stdout)"
    # The walk really reached the package's examples.
    assert attempted >= 60, attempted
