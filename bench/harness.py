"""Runs one workload and turns its rounds into named metrics.

Simulated metrics come from a fixed number of rounds, so they repeat
exactly; host metrics are a median over every round the time budget
allowed (see :mod:`bench.metrics` for the two clocks).
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

from bench import OUT_DIR, REPO_ROOT
from bench.gauge import SpeedGauge, slowdown
from bench.metrics import (
    load_spec,
    percentile,
    quartiles,
    ratio,
    self_time_metric,
)
from bench.trace import LAYERS, Tracer
from bench.workloads import WORKLOADS, RoundResult

# ----------------------------------------------------------------------
# End-to-end pass
# ----------------------------------------------------------------------
def run_isolated(workload, seed: int, scale: float) -> RoundResult:
    """Run one round in a forked child and wait for it.

    Every round then starts from the same heap (no fragmentation or
    collector state inherited from the round before) and has a peak RSS of
    its own, so memory is a median over rounds and not the high-water mark
    of whichever seed was worst.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            result = workload.run_round(seed, scale)
            # Per-layer counts and samples are read by the traced pass only.
            result.counts = result.samples = None
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        except BaseException:  # noqa: BLE001 - reported, then the child exits
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(
            f"{workload.name} round (seed {seed}) died with status {status}"
        )
    result = pickle.loads(payload)  # written by our own child, just above
    result.peak_rss_mb = usage.ru_maxrss / 1024.0
    return result


def measure_import_s(repeats: int) -> float:
    """Median seconds a fresh interpreter takes to start and import the
    benchmark with the program under test, at the gauge's reference speed.

    The one import this process did itself is a single noisy sample (it
    moved by 40 % between two runs of the same code), so set-up's import
    part is measured ``repeats`` times in children, each bracketed by its
    own gauge samples: over 24 trials the raw median ranged 0.26-0.52 s,
    the gauged one 0.26-0.31 s.
    """
    gauged = []
    for _ in range(repeats):
        gauge = SpeedGauge()
        for _ in range(5):
            gauge.sample()
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c",
             "import bench; bench.ensure_repro_importable(); "
             "import bench.harness"],
            cwd=REPO_ROOT, check=True, timeout=120,
        )
        elapsed = perf_counter() - start
        for _ in range(5):
            gauge.sample()
        gauged.append(elapsed / slowdown(gauge.seconds, gauge.samples))
    return statistics.median(gauged)


def run_end_to_end(workload, seed, seconds, scale, rounds, log) -> dict:
    """Untraced rounds: the first ``sim_rounds`` always run and define the
    simulated metrics; more rounds follow until the timed windows add up
    to ``seconds`` and only feed the host medians."""
    fixed = rounds if rounds is not None else workload.sim_rounds
    results: list[RoundResult] = []
    timed = 0.0
    while len(results) < fixed or (rounds is None and timed < seconds):
        result = run_isolated(workload, seed + len(results), scale)
        timed += result.timed_s
        if len(results) >= fixed:
            # Only host numbers are read from the extra rounds.
            result.commit_ms = result.read_ms = result.op_marks_ns = ()
        results.append(result)
        log(
            f"  round {len(results):>2} seed {result.seed}: "
            f"{result.host_us_per_op:9.1f} us/op  {result.ops} ops in "
            f"{result.timed_s:.2f}s host (box x{result.slowdown:.2f}) / "
            f"{result.sim_ms:.0f}ms simulated"
        )
    return {"rounds": results, "sim": results[:fixed]}


def end_to_end_metrics(run: dict, import_s: float) -> tuple[dict, dict]:
    """(declared end-to-end metrics, extra values worth printing)."""
    rounds, sim = run["rounds"], run["sim"]
    per_op = [r.host_us_per_op for r in rounds]
    commit_ms = [x for r in sim for x in r.commit_ms]
    read_ms = [x for r in sim for x in r.read_ms]
    mttr_ms = [x for r in sim for x in r.mttr_ms]
    q1, q2, q3 = quartiles(per_op)
    metrics = {
        # Each round's part at the reference speed of its own window.
        "setup_s": import_s
        + statistics.median(r.setup_s / r.slowdown for r in rounds),
        "host_us_per_op": q2,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        "commit_p50_ms": percentile(commit_ms, 0.50),
        # The tail is a median over rounds, not pooled: one audit seed that
        # crashes mid-commit would otherwise own the top percent (pooled,
        # the spread across seeds was 8-13 %).
        "commit_p99_ms": statistics.median(
            percentile(r.commit_ms, 0.99) for r in sim
        ),
        # A median over rounds, not a pooled rate: one audit seed whose
        # repairs take 100 simulated seconds to settle would set the latter.
        "sim_commit_rate_per_s": statistics.median(
            ratio(r.commits * 1000.0, r.sim_ms) for r in sim
        ),
    }
    extra = {
        "import_s": import_s,
        "rounds": len(rounds),
        "sim_rounds": len(sim),
        "host_us_per_op_q1": q1,
        "host_us_per_op_q3": q3,
        "host_us_per_op_raw": statistics.median(
            r.timed_s * 1e6 / max(1, r.ops) for r in rounds
        ),
        "slowdown": statistics.median(r.slowdown for r in rounds),
        "commit_samples": len(commit_ms),
        "read_samples": len(read_ms),
        "mttr_samples": len(mttr_ms),
        # Printed for the workloads that have them; declared per-layer,
        # because not every workload can produce them (see README).
        "read_p50_ms": percentile(read_ms, 0.50),
        "read_p99_ms": percentile(read_ms, 0.99),
        "repair_mttr_p50_ms": percentile(mttr_ms, 0.50),
        "failed_op_share": failed_op_share(sim),
    }
    return metrics, extra


def failed_op_share(rounds) -> float:
    return ratio(
        sum(r.failed + r.refused for r in rounds),
        sum(r.attempted for r in rounds),
    )


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def run_traced(workload, seed, scale, log) -> dict:
    """Per seed: an untraced reference round, the same round traced, and
    (commit_burst only) the same round with the auditor armed."""
    scale *= workload.trace_scale
    tracer = Tracer()
    reference, traced, armed = [], [], []
    for index in range(workload.trace_rounds):
        round_seed = seed + index
        reference.append(workload.run_round(round_seed, scale))
        tracer.install()
        try:
            traced.append(workload.run_round(round_seed, scale, tracer))
        finally:
            tracer.uninstall()
        if workload.measures_armed_auditor:
            armed.append(workload.run_round(round_seed, scale, armed=True))
        log(
            f"  seed {round_seed}: reference "
            f"{reference[-1].host_us_per_op:.1f} us/op, traced "
            f"{traced[-1].host_us_per_op:.1f} us/op"
        )
        if reference[-1].commit_ms != traced[-1].commit_ms:
            traced[-1].check_errors.append(
                f"seed {round_seed}: tracing changed the simulated results"
            )
    return {
        "rounds": reference + traced + armed,
        "reference": reference,
        "traced": traced,
        "armed": armed,
        "tracer": tracer,
    }


def _growth(marks) -> float:
    """Last-quarter / first-quarter host time per operation in a round."""
    n = len(marks) - 1
    if n < 8:
        return 0.0
    quarter = n // 4
    return ratio(marks[n] - marks[n - quarter], marks[quarter] - marks[0])


def per_layer_metrics(run: dict) -> dict:
    reference, traced, armed = run["reference"], run["traced"], run["armed"]
    tracer: Tracer = run["tracer"]
    counts = sum((r.counts for r in traced), Counter())
    if armed:
        counts["auditor.events"] = sum(
            r.counts["auditor.events"] for r in armed
        )

    def pooled(key):
        return [x for r in traced for x in r.samples.get(key, ())]

    ops = sum(r.ops for r in traced)
    commits = sum(r.commits for r in traced)
    reads = sum(r.reads for r in traced)
    aborts = sum(r.aborts for r in traced)
    reference_s = sum(r.host_s for r in reference)
    traced_slowdown = slowdown(
        sum(r.gauge_s for r in traced), sum(r.gauge_samples for r in traced)
    )
    boxcar = pooled("boxcar_wait_ms")
    metrics = {
        "sim.events.executed_per_op": ratio(counts["events"], ops),
        "sim.events.host_us_per_event": ratio(
            reference_s * 1e6, sum(r.counts["events"] for r in reference)
        ),
        "sim.network.msgs_per_commit": ratio(counts["net.sent"], commits),
        "sim.network.wire_bytes_per_commit": ratio(
            counts["net.wire_bytes"], commits
        ),
        "sim.network.wire_to_logical_ratio": ratio(
            counts["net.wire_bytes"], counts["net.logical_bytes"]
        ),
        "sim.network.write_oneway_ms_p50": percentile(
            pooled("write_oneway_ms"), 0.50
        ),
        "sim.network.dropped_share": ratio(
            counts["net.dropped"], counts["net.sent"]
        ),
        "db.driver.records_per_batch": ratio(
            counts["driver.records"], counts["driver.batches"]
        ),
        "db.driver.boxcar_wait_ms_p50": percentile(boxcar, 0.50),
        "db.driver.boxcar_wait_ms_p99": percentile(boxcar, 0.99),
        "db.driver.resubmit_share": ratio(
            counts["driver.resubmitted"], counts["driver.batches"]
        ),
        "db.driver.storage_reads_per_read": ratio(
            counts["driver.reads_issued"], reads
        ),
        "db.driver.hedge_share": ratio(
            counts["driver.hedges"], counts["driver.reads_issued"]
        ),
        "db.wire.elided_share": ratio(
            counts["driver.elided"], counts["driver.flushed"]
        ),
        "core.commit.queue_wait_ms_mean": ratio(
            counts["commit.total_wait_ms"], counts["commit.acknowledged"]
        ),
        "core.commit.max_queue_depth": max(
            r.counts["commit.max_queue_depth"] for r in traced
        ),
        "core.consistency.acks_per_commit": ratio(
            counts["driver.acks"], commits
        ),
        "db.locks.abort_share": ratio(aborts, commits + aborts),
        "db.buffer_cache.hit_rate": ratio(
            counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"]
        ),
        "db.buffer_cache.evictions_per_op": ratio(
            counts["cache.evictions"], ops
        ),
        "db.replica.lag_lsn_p99": percentile(pooled("replica_lag_lsn"), 0.99),
        "db.replica.discard_share": ratio(
            counts["replica.discarded"],
            counts["replica.applied"] + counts["replica.discarded"],
        ),
        "storage.node.batches_per_ack": ratio(
            counts["node.write_batches"], counts["node.acks_sent"]
        ),
        "storage.node.ack_turnaround_ms_p50": percentile(
            pooled("ack_turnaround_ms"), 0.50
        ),
        "storage.node.reads_answered_per_read": ratio(
            counts["node.reads_answered"], reads
        ),
        "storage.node.gossip_records_per_commit": ratio(
            counts["node.gossip_records_pulled"], commits
        ),
        "storage.node.rejection_share": ratio(
            counts["node.rejections_sent"],
            counts["node.write_batches"] + counts["node.reads_answered"]
            + counts["node.rejections_sent"],
        ),
        "storage.segment.coalesce_apps_per_record": ratio(
            counts["segment.coalesce_applications"],
            counts["segment.records_received"],
        ),
        "storage.segment.duplicate_share": ratio(
            counts["segment.duplicates"],
            counts["segment.records_received"] + counts["segment.duplicates"],
        ),
        "storage.segment.hot_log_size_end": ratio(
            counts["segment.hot_log_size_end"], len(traced)
        ),
        "repair.detection_ms_p50": percentile(
            [x for r in traced for x in r.detection_ms], 0.50
        ),
        "repair.replaced": counts["repair.replaced"],
        "repair.rolled_back": counts["repair.rolled_back"],
        "audit.auditor.events_per_op": ratio(
            counts["auditor.events"], sum(r.ops for r in armed) or ops
        ),
        "audit.auditor.armed_overhead_ratio": ratio(
            sum(r.host_s for r in armed), reference_s
        ),
        "workloads.host_us_per_op_growth": statistics.median(
            _growth(r.op_marks_ns) for r in reference
        ),
        "trace.overhead_ratio": ratio(
            sum(r.host_s for r in traced), reference_s
        ),
        "read_p50_ms": percentile(
            [x for r in traced for x in r.read_ms], 0.50
        ),
        "read_p99_ms": percentile(
            [x for r in traced for x in r.read_ms], 0.99
        ),
        "repair_mttr_p50_ms": percentile(
            [x for r in traced for x in r.mttr_ms], 0.50
        ),
        "failed_op_share": failed_op_share(traced),
    }
    for layer in LAYERS:
        metrics[self_time_metric(layer)] = ratio(
            tracer.self_ns[layer] / 1e3 / traced_slowdown, ops
        )
    return metrics


# ----------------------------------------------------------------------
# One workload, start to finish
# ----------------------------------------------------------------------
def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def _round_record(result: RoundResult) -> dict:
    return {
        "seed": result.seed,
        "setup_s": result.setup_s,
        "timed_s": result.timed_s,
        "slowdown": result.slowdown,
        "peak_rss_mb": result.peak_rss_mb,
        "sim_ms": result.sim_ms,
        "host_us_per_op": result.host_us_per_op,
        "attempted": result.attempted,
        "ops": result.ops,
        "failed": result.failed,
        "refused": result.refused,
        "commits": result.commits,
        "aborts": result.aborts,
        "reads": result.reads,
        "info": result.info,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float,
    rounds: int | None, log=print,
) -> dict:
    """Run ``name`` once; returns the result record (also written to
    ``bench/out/``)."""
    spec = load_spec()
    workload = WORKLOADS[name]
    log(f"{name}: seed {seed}, {'traced' if trace else 'end-to-end'} pass")
    extra: dict = {}
    if trace:
        run = run_traced(workload, seed, scale, log)
        values = per_layer_metrics(run)
        declared = spec["per_layer"]
    else:
        run = run_end_to_end(workload, seed, seconds, scale, rounds, log)
        # A run of exactly --rounds rounds is a smoke or development run:
        # one import sample is enough there.
        import_s = measure_import_s(5 if rounds is None else 1)
        values, extra = end_to_end_metrics(run, import_s)
        declared = spec["end_to_end"]
    results = run["rounds"]
    # Fixed work, so exactly repeatable (the totals below also cover the
    # extra rounds the time budget allowed).
    repeatable = run["sim"] if not trace else results
    failures = sum((r.failures for r in results), Counter())
    check_errors = [e for r in results for e in r.check_errors]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(trace),
        **environment(),
        "correct": not check_errors,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "refused": sum(r.refused for r in results),
        "repeatable_counts": {
            key: sum(getattr(r, key) for r in repeatable)
            for key in ("attempted", "failed", "refused", "commits", "aborts",
                        "reads")
        },
        "failures": dict(failures),
        "check_errors": check_errors,
        "metrics": metrics,
        "extra": extra,
        "rounds": [_round_record(r) for r in results],
    }
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        trace_path = OUT_DIR / f"trace_{name}.json"
        trace_path.write_text(json.dumps(run["tracer"].summary()))
        log(f"  spans: {trace_path.relative_to(REPO_ROOT)}")
    path = OUT_DIR / f"{name}.trace{int(trace)}.seed{seed}.json"
    path.write_text(json.dumps(record, indent=1))
    _print_record(record, log)
    return record


def _print_record(record: dict, log) -> None:
    for name, metric in record["metrics"].items():
        log(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    extra = record["extra"]
    if extra:
        log(
            f"  host_us_per_op quartiles {extra['host_us_per_op_q1']:.1f} / "
            f"{extra['host_us_per_op_q3']:.1f} over {extra['rounds']} rounds"
            f" (raw median {extra['host_us_per_op_raw']:.1f}, box "
            f"x{extra['slowdown']:.2f}); simulated metrics from the first "
            f"{extra['sim_rounds']}"
        )
        log(f"  commit latency samples: {extra['commit_samples']}")
        if extra["read_samples"]:
            log(
                f"  read_p50_ms {extra['read_p50_ms']:.4f}  read_p99_ms "
                f"{extra['read_p99_ms']:.4f}  ({extra['read_samples']} samples)"
            )
        if extra["mttr_samples"]:
            log(
                f"  repair_mttr_p50_ms {extra['repair_mttr_p50_ms']:.1f} "
                f"({extra['mttr_samples']} samples)"
            )
    attempted = record["attempted"]
    share = ratio(record["failed"] + record["refused"], attempted)
    log(
        f"  failed_op_share {share:.6f}  ({record['failed']} failed, "
        f"{record['refused']} refused under chaos, {attempted} attempted)"
    )
    if record["failures"]:
        top = max(record["failures"].items(), key=lambda item: item[1])
        log(f"  top failure: {top[0]} x{top[1]}")
    for error in record["check_errors"][:10]:
        log(f"  CHECK FAILED: {error}")


def contract_line(record: dict) -> str:
    """The benchmark contract's last line of standard output."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )
