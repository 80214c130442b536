"""Which events a benchmark workload runs, and what each kind costs.

``make ledger-events WORKLOAD=<name> [SEED=1] [ROUNDS=2]``

Runs rounds of one workload of BENCHMARK.json -- the benchmark's own
``run_round``, imported read-only -- with a counting ``EventLoop.step``
installed at class level, and prints one row per kind of callback the loop
ran inside the timed windows: events per operation, host microseconds per
event, and the kind's share of the window.  Network deliveries are split by
payload type and periodic storage-node ticks by the tick they run, because
"``_deliver``: 40 %" names no code to look at and "``_deliver[WriteBatch]``:
21.8 us x 3.66 per op" does.

One more row, ``(cyclic collector)``, times CPython's cyclic garbage
collections inside the windows through ``gc.callbacks`` (collections per
operation, host microseconds per collection, share of the window; the
full, generation-2 collections get a row of their own).  A collection runs
inside whichever event's allocation triggered it, so its time is also in
that event's row: the collector rows overlap the others, they do not add.

This is the table a perf issue starts from: the traced pass of
``python3 -m bench run --trace 1`` says which *layer* the time is in; this
says which *event* -- and so how many times per operation the fixed cost of
that path is paid.

The numbers are for ranking, not for claims: the counter itself costs about
a microsecond per event, the window marker makes the workload attach its
simulated-time taps, and nothing here corrects for the box's drift.  Claims
go through ``make ledger-pairs``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

import bench  # noqa: E402 - needs the repo root on sys.path

bench.ensure_repro_importable()

from bench.workloads import WORKLOADS  # noqa: E402
from repro.sim.events import EventLoop  # noqa: E402


class WindowMarker:
    """Stands where a workload takes its tracer, wraps nothing and opens no
    spans: the workload tells it when the timed window starts and ends,
    which is all it records."""

    def __init__(self) -> None:
        self.open = False

    def start_window(self) -> None:
        self.open = True

    def end_window(self) -> None:
        self.open = False

    def wrap(self, function, layer: str, name: str):
        return function

    def generator_spans(self, generator, layer: str, name: str, txn=None):
        return generator


def kind_of(callback, args) -> str:
    """A name for the event: the callback, qualified by what it carries
    when the callback alone says too little."""
    owner = getattr(callback, "__self__", None)
    name = getattr(callback, "__qualname__", None) or repr(callback)
    if owner is not None:
        name = f"{type(owner).__name__}.{callback.__name__}"
    if name == "Network._deliver":
        return f"{name}[{type(args[0].payload).__name__}]"
    for arg in args:
        # A timer that carries the method it runs (storage-node ticks).
        if getattr(arg, "__self__", None) is not None:
            return f"{name}[{arg.__name__}]"
    return name


class EventMix:
    """Per-kind event counts and host time, inside marked windows only."""

    def __init__(self, marker: WindowMarker) -> None:
        self.marker = marker
        self.events: Counter = Counter()
        self.ns: Counter = Counter()

    def counting_step(self, original):
        marker, events, ns = self.marker, self.events, self.ns

        def step(loop) -> bool:
            if not marker.open:
                return original(loop)
            # Look at what ``step`` will run next.  Cancelled timers leave
            # stale heap heads; sweep them exactly as ``step`` would.
            heap, entries = loop._heap, loop._entries
            while heap and heap[0][1] not in entries:
                heapq.heappop(heap)
                loop._stale -= 1
            if not heap:
                return original(loop)
            kind = kind_of(*entries[heap[0][1]])
            start = perf_counter_ns()
            ran = original(loop)
            ns[kind] += perf_counter_ns() - start
            events[kind] += 1
            return ran

        return step


class CollectorClock:
    """A ``gc.callbacks`` entry: the cyclic collections that start inside
    a marked window, counted and timed, all and full (generation 2)."""

    def __init__(self, marker: WindowMarker) -> None:
        self.marker = marker
        self.collections: Counter = Counter()
        self.ns: Counter = Counter()
        self._started = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter_ns() if self.marker.open else None
        elif self._started is not None:
            spent = perf_counter_ns() - self._started
            self._started = None
            kinds = ["(cyclic collector)"]
            if info["generation"] == 2:
                kinds.append("(cyclic collector, full collections)")
            for kind in kinds:
                self.collections[kind] += 1
                self.ns[kind] += spent


def run(workload, seed: int, rounds: int, scale: float):
    """(mix, collector, operations, window seconds, check errors) over
    ``rounds``."""
    marker = WindowMarker()
    mix = EventMix(marker)
    collector = CollectorClock(marker)
    original = vars(EventLoop)["step"]
    EventLoop.step = mix.counting_step(original)
    gc.callbacks.append(collector)
    ops, window_s, errors = 0, 0.0, []
    try:
        for i in range(rounds):
            result = workload.run_round(seed + i, scale, tracer=marker)
            ops += result.ops
            window_s += result.timed_s
            errors += result.check_errors
    finally:
        EventLoop.step = original
        gc.callbacks.remove(collector)
    return mix, collector, ops, window_s, errors


def report(name, seed, rounds, scale, mix, collector, ops, window_s) -> None:
    total_events = sum(mix.events.values())
    in_events_s = sum(mix.ns.values()) / 1e9
    print(
        f"{name}: seeds {seed}..{seed + rounds - 1}, scale {scale:g}: "
        f"{ops} ops, {total_events} events "
        f"({total_events / max(1, ops):.1f} per op), "
        f"window {window_s:.2f}s host "
        f"({window_s * 1e6 / max(1, ops):.1f} us/op, counter included)"
    )
    print(f"{'event':<58}{'per op':>9}{'us/event':>10}{'share':>8}")
    rows = [(kind, mix.events[kind], ns) for kind, ns in mix.ns.most_common()]
    rows += [
        (kind, collector.collections[kind], ns)
        for kind, ns in collector.ns.items()
    ]
    for kind, count, ns in rows:
        print(
            f"{kind:<58}{count / max(1, ops):>9.2f}"
            f"{ns / 1e3 / count:>10.1f}"
            f"{ns / 1e9 / window_s:>8.1%}"
        )
    outside = max(0.0, window_s - in_events_s)
    print(
        f"{'(outside events: client loop, gauge, counter)':<58}"
        f"{'':>9}{'':>10}{outside / window_s:>8.1%}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=known)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink each round (the smoke test uses 0.02)")
    args = parser.parse_args(argv)
    mix, collector, ops, window_s, errors = run(
        WORKLOADS[args.workload], args.seed, args.rounds, args.scale
    )
    report(args.workload, args.seed, args.rounds, args.scale,
           mix, collector, ops, window_s)
    for error in errors:
        print(f"output check failed: {error}")
    if not mix.events:
        print("no event ran inside a timed window")
    return 1 if errors or not mix.events else 0


if __name__ == "__main__":
    sys.exit(main())
