"""Run a command under three string-hash seeds; its output must not move.

``python3 tools/hashseeds.py <command ...>`` runs the command with
``PYTHONHASHSEED=0``, again with ``3`` and again with ``7``, prints the
first run's output and exits with its status -- or with 1 when another run
prints different bytes or exits differently.  ``make audit`` and every
gate lane of CI (``python -m repro gates <gate> --ci``) wrap their sweep
in it: ``audit-run`` prints no wall-clock time, so a report that moves
between the runs leans on string-hash order.
"""

from __future__ import annotations

import os
import subprocess
import sys

SEEDS = ("0", "3", "7")


def main(command: list[str]) -> int:
    first, *others = [
        subprocess.run(
            command, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in SEEDS
    ]
    sys.stdout.buffer.write(first.stdout)
    sys.stdout.flush()
    sys.stderr.buffer.write(first.stderr)
    seeds = ", ".join(SEEDS)
    if any(
        (run.stdout, run.returncode) != (first.stdout, first.returncode)
        for run in others
    ):
        print(f"PYTHONHASHSEED {seeds}: the outputs differ", file=sys.stderr)
        return 1
    print(f"PYTHONHASHSEED {seeds}: outputs identical", file=sys.stderr)
    return first.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
