"""Start one ``repro serve`` process for the HTTP workloads.

Usage: ``server_child.py [--trace-out PATH] -- <repro serve arguments>``

With ``--trace-out`` the span wrappers are installed before the
service is built, and the spans are written to PATH after the server
drains on SIGTERM.  Without it the program runs untouched.  If the
benchmark that started this process dies, the process stops itself.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path

from common import pin_program, use_source


def _exit_with_parent(parent: int) -> None:
    """Drain and exit once the benchmark process is gone."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGTERM)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1:]
    trace_out = Path(own[own.index("--trace-out") + 1]) if own else None
    pin_program()
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    use_source()
    tracer = None
    if trace_out is not None:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
