"""Run the machine probe on request, on the program's CPU.

The HTTP workloads' program runs in the server process, so the
reference must track the speed of that CPU, not the client's.  Each
line read from stdin runs ``common.probe`` once and answers with its
time in ms; end of input ends the process.
"""

from __future__ import annotations

import sys

from common import pin_program, probe


def main() -> int:
    pin_program()
    for _ in sys.stdin:
        sys.stdout.write(f"{probe()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
