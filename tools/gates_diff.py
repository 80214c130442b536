"""Every audit gate's rendered report, this checkout against a base.

``make gates-diff BASE=<rev> [SWEEP=20] [EXPECT=seed,seed] [JOBS=4]``

A change that only speeds the simulator up, or only reshapes code, must
leave every gate's report byte-identical for the same seeds (ROADMAP aim
2).  This runs the ``audit-run`` commands of every gate -- each row of this
checkout's ``repro.audit.PROFILES`` at its full sweep, as ``python -m
repro gates`` runs it -- in ``BASE`` (a revision, checked out into a
temporary ``git worktree``, or a directory that already holds a checkout)
and in this checkout, and compares what they print, seed by seed:

- every command gets ``--sweep SWEEP`` on both sides;
- both sides run under ``PYTHONHASHSEED=0``: a run whose event order leans
  on string-hash order (``audit-failover`` seed 16 did, until PR 18)
  otherwise differs between two processes of the *same* tree;
- lines that mention wall-clock time are dropped before comparing;
- per gate it prints ``identical``, or the seeds that differ with the lines
  that do (``footer`` is the telemetry a sweep prints after its seeds).

Seeds named in ``--expect`` may differ (a bug fix changes the runs that hit
the bug); the footer of a sweep may differ when one of its expected seeds
did.  Any other difference, and a gate that exits differently on the two
sides, makes the exit status 1.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

from ledger_pairs import REPO_ROOT, base_tree

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.audit import PROFILES  # noqa: E402 - needs src/ on sys.path

SEED_HEADER = re.compile(r"^audit run: seed=(\d+) ")
FOOTER = "footer"


def with_sweep(arguments: list[str], sweep: int, jobs: int) -> list[str]:
    """``arguments`` sweeping ``sweep`` seeds over ``jobs`` worker
    processes."""
    out = list(arguments)
    out[out.index("--sweep") + 1] = str(sweep)
    return [*out, "--jobs", str(jobs)]


def render(tree: Path, arguments: list[str]) -> dict[str, list[str]]:
    """Run one command in ``tree``; its output by seed, plus the footer
    (which also records the exit status)."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", "audit-run", *arguments],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": "0"},
    )
    blocks: dict[str, list[str]] = {FOOTER: []}
    current = blocks[FOOTER]
    for line in done.stdout.splitlines():
        header = SEED_HEADER.match(line)
        if header:
            current = blocks.setdefault(header.group(1), [])
        elif line.startswith("sweep: "):
            current = blocks[FOOTER]
        if line.strip() and "wall" not in line.lower():
            current.append(line)
    blocks[FOOTER].append(f"exit status {done.returncode}")
    if done.returncode not in (0, 1):  # 1 is a gate that found something
        blocks[FOOTER] += done.stderr.splitlines()[-5:]
    return blocks


def differing(base: dict, change: dict) -> dict[str, list[str]]:
    """block name -> the lines that differ, for every block that does."""
    out = {}
    names = sorted(
        set(base) | set(change),
        key=lambda name: (name == FOOTER, int(name) if name != FOOTER else 0),
    )
    for name in names:
        before, after = base.get(name, []), change.get(name, [])
        if before != after:
            out[name] = [
                line for line in difflib.ndiff(before, after)
                if line[:1] in "+-"
            ]
    return out


def compare(tree: Path, gate: str, arguments: list[str], expected: set) -> int:
    """Run one gate command on both sides and print the verdict; returns
    the number of differing blocks nobody expected."""
    label = f"{gate:<16}{' '.join(arguments)}"
    diffs = differing(render(tree, arguments), render(REPO_ROOT, arguments))
    if not diffs:
        print(f"{label}\n    identical", flush=True)
        return 0
    # A sweep's footer aggregates its seeds: it may move when an expected
    # seed did, never on its own.
    allowed = expected | {FOOTER} if expected & set(diffs) else expected
    surprising = set(diffs) - allowed
    print(f"{label}\n    DIFFERS: " + ", ".join(
        f"{'' if name == FOOTER else 'seed '}{name}"
        f"{'' if name in surprising else ' (expected)'}"
        for name in diffs
    ))
    for name, lines in diffs.items():
        print(f"    -- {name} (- base, + change)")
        for line in lines:
            print(f"    {line}")
    sys.stdout.flush()
    return len(surprising)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision (or checkout directory) to compare to")
    parser.add_argument("--sweep", type=int, default=20,
                        help="seeds per gate command")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--expect", default="",
                        help="comma-separated seeds that are allowed to differ")
    args = parser.parse_args(argv)
    expected = {seed for seed in args.expect.split(",") if seed}
    with base_tree(args.base) as tree:
        unexpected = sum(
            compare(
                tree, row.gate, with_sweep(arguments, args.sweep, args.jobs),
                expected,
            )
            for row in PROFILES.values()
            for arguments in row.gate_commands()
        )
    if unexpected:
        print(f"\n{unexpected} unexpected difference(s) against {args.base}")
        return 1
    print(f"\nno unexpected difference against {args.base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
