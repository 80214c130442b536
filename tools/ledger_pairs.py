"""Alternating parent/change pairs of benchmark workloads.

``make ledger-pairs BASE=<rev> WORKLOAD=<name|a,b|all> [PAIRS=10] [SEED=1]``

Host time on a small box drifts by tens of percent over minutes, so one
before/after pair proves nothing (bench/README.md "The speed gauge").  This
runs ``python3 -m bench run --workload W --seed S --trace 0`` once per side
per pair -- ``BASE`` checked out into a temporary ``git worktree``, the
change from this checkout -- alternating which side goes first, and prints
for every end-to-end metric of BENCHMARK.json each side's median and
quartiles, the pairs the change won, and the verdict of the
choosing-metrics rule:

- ``identical``  every run of both sides gave the same value (simulated
  metrics must, for a change that only speeds the simulator up);
- ``gain``       the change won at least nine tenths of the pairs (ties
  count for neither side) and the medians are apart by more than the
  distance between the base's own quartiles -- over at least ten pairs;
  with fewer the same outcome reads ``ahead``, which is no claim;
- ``regressed``  the change's median is worse than the base's by more than
  the metric's bound;
- ``unresolved`` the base's own runs spread wider than the bound;
- ``no worse``   none of the above.

``WORKLOAD`` may be a comma-separated list, or ``all`` for every workload
of BENCHMARK.json: each gets its own pairs and its own table, so a claim on
one workload and the what-must-not-move evidence for the others come from
one command.

``BASE`` may also be a directory that already holds a checkout (a clone
made elsewhere); it is then used as it is and left alone.

Every run compiles the program from source, as a fresh checkout does: the
child gets ``PYTHONDONTWRITEBYTECODE=1`` and a ``PYTHONPYCACHEPREFIX`` of
its own, new and empty, so a ``__pycache__`` one tree has from earlier use
cannot make its ``setup_s`` look shorter than the other's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def base_tree(base: str):
    """The tree to compare against: ``base`` itself when it is a directory
    (used as it is and left alone), else that revision checked out into a
    temporary ``git worktree`` that is removed afterwards."""
    if Path(base).is_dir():
        yield Path(base).resolve()
        return
    worktree = Path(tempfile.mkdtemp(prefix="base-tree-"))
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(worktree), base],
        cwd=REPO_ROOT, check=True, capture_output=True,
    )
    try:
        yield worktree
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(worktree)],
            cwd=REPO_ROOT, check=False, capture_output=True,
        )


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One end-to-end run in ``tree``, compiling from source (no bytecode
    cache read or written); the contract line's metric values."""
    with tempfile.TemporaryDirectory(prefix="pycache-") as cache:
        env = {
            **os.environ,
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPYCACHEPREFIX": cache,
        }
        done = subprocess.run(
            [
                sys.executable, "-m", "bench", "run", "--workload", workload,
                "--seed", str(seed), "--trace", "0",
            ],
            cwd=tree, capture_output=True, text=True, env=env,
        )
    if done.returncode != 0:
        raise SystemExit(
            f"bench run failed in {tree} (exit {done.returncode}):\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    contract = json.loads(done.stdout.strip().splitlines()[-1])
    if contract["failed"]:
        print(f"  note: {contract['failed']} failed operations in {tree}")
    return {name: m["value"] for name, m in contract["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], change: list[float], lower: bool, bound: float):
    """(pairs won by the change, pairs decided, verdict) for one metric."""
    sign = -1.0 if lower else 1.0  # so that bigger ``sign * value`` is better
    won = sum(sign * c > sign * b for b, c in zip(base, change))
    lost = sum(sign * c < sign * b for b, c in zip(base, change))
    if won == 0 and lost == 0:
        return won, 0, "identical"
    b_q1, b_median, b_q3 = quartiles(base)
    c_median = quartiles(change)[1]
    better_by = sign * (c_median - b_median)
    if won >= 0.9 * len(base) and better_by > b_q3 - b_q1:
        return won, won + lost, "gain" if len(base) >= 10 else "ahead"
    if -better_by > bound * abs(b_median):
        return won, won + lost, "regressed"
    if b_q3 - b_q1 > bound * abs(b_median):
        return won, won + lost, "unresolved"
    return won, won + lost, "no worse"


def report(spec: dict, base_runs: list[dict], change_runs: list[dict]) -> None:
    print(
        f"{'metric':<24}{'base q1 / median / q3':>34}"
        f"{'change q1 / median / q3':>34}{'delta':>9}{'won':>7}  verdict"
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [run[name] for run in base_runs]
        change = [run[name] for run in change_runs]
        won, decided, word = verdict(
            base, change, metric["better"] == "lower", metric["bound"]
        )
        b, c = quartiles(base), quartiles(change)
        delta = (c[1] - b[1]) / b[1] * 100.0 if b[1] else 0.0
        print(
            f"{name:<24}"
            f"{b[0]:>11.4f} /{b[1]:>10.4f} /{b[2]:>10.4f}"
            f"{c[0]:>11.4f} /{c[1]:>10.4f} /{c[2]:>10.4f}"
            f"{delta:>+8.1f}%{won:>4}/{decided:<2}  {word}"
        )


def run_pairs(
    spec: dict, base: str, base_tree: Path, workload: str, pairs: int, seed: int
) -> None:
    """``pairs`` alternating runs of ``workload`` on each side, then its table."""
    base_runs: list[dict] = []
    change_runs: list[dict] = []
    for pair in range(pairs):
        sides = [("base", base_tree, base_runs),
                 ("change", REPO_ROOT, change_runs)]
        if pair % 2:
            sides.reverse()
        for _label, tree, runs in sides:
            runs.append(run_once(tree, workload, seed))
        print(
            f"{workload} pair {pair + 1:>2}/{pairs} "
            f"({sides[0][0]} first): host_us_per_op "
            f"base {base_runs[-1]['host_us_per_op']:.1f}  "
            f"change {change_runs[-1]['host_us_per_op']:.1f}",
            flush=True,
        )
    print(f"\n{workload}, seed {seed}, {pairs} alternating pairs, base {base}")
    report(spec, base_runs, change_runs)
    print(flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision (or checkout directory) to compare to")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {unknown}; BENCHMARK.json has {known}")

    with base_tree(args.base) as tree:
        for workload in workloads:
            run_pairs(spec, args.base, tree, workload, args.pairs, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
