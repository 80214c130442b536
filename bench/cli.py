"""``python3 -m bench run`` and ``python3 -m bench compare``.

``run --workload NAME`` runs one workload in this process and ends with
the benchmark contract's JSON line.  ``run`` without ``--workload`` runs
all four one after another, each in its own fresh subprocess (single
process, single thread; the box has 2 cores), and merges their records
into one result file for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from bench import OUT_DIR, REPO_ROOT, ensure_repro_importable


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload (default: BENCHMARK.json)",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced pass that yields the per-layer metrics",
    )
    run.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every round (the smoke test uses 0.02)",
    )
    run.add_argument(
        "--rounds", type=int, default=None,
        help="run exactly this many rounds instead of filling --seconds",
    )
    run.add_argument("--out", help="result file of a run of all workloads")
    compare = commands.add_parser(
        "compare", help="compare two result files of a run of all workloads"
    )
    compare.add_argument("before")
    compare.add_argument("after")
    compare.add_argument(
        "--exact", action="store_true",
        help="same code on both sides: any simulated difference fails",
    )
    return parser


def _run_one(args) -> int:
    ensure_repro_importable()
    from bench import harness  # imports the program under test

    if args.workload not in harness.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"known: {sorted(harness.WORKLOADS)}", file=sys.stderr,
        )
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = harness.load_spec()["run_seconds"]
    record = harness.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.scale,
        args.rounds,
    )
    print(harness.contract_line(record), flush=True)
    return 0 if record["correct"] else 1


def _run_all(args) -> int:
    """Each workload in a fresh subprocess; the traced pass runs too when
    ``--trace 1`` is given (end-to-end numbers never come from it)."""
    ensure_repro_importable()
    from bench import harness

    merged = {"seed": args.seed, "scale": args.scale, "workloads": {}}
    status = 0
    for name in harness.WORKLOADS:
        entry = merged["workloads"][name] = {}
        for trace in range(args.trace + 1):
            command = [
                sys.executable, "-m", "bench", "run", "--workload", name,
                "--seed", str(args.seed), "--trace", str(trace),
                "--scale", str(args.scale),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.rounds is not None:
                command += ["--rounds", str(args.rounds)]
            code = subprocess.run(command, cwd=REPO_ROOT).returncode
            status = status or code
            path = OUT_DIR / f"{name}.trace{trace}.seed{args.seed}.json"
            if code in (0, 1) and path.is_file():
                key = "per_layer" if trace else "end_to_end"
                entry[key] = json.loads(path.read_text())
    out = args.out or OUT_DIR / f"run.seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1)
    print(f"results: {out}")
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.before, args.after, args.exact)
    try:
        if args.workload is not None:
            return _run_one(args)
        return _run_all(args)
    except FileNotFoundError as error:
        # A checkout that holds only the benchmark: no result, nonzero.
        print(f"bench: {error}", file=sys.stderr)
        return 3
