"""C2 -- boxcar strategies and write-path jitter (section 2.2).

"There is a challenge in deciding, with each record, whether to issue the
write, to improve latency, or to wait for subsequent records, to improve
write efficiency and throughput.  Waiting creates performance jitter since
early requests entering the boxcar have to wait for later requests or a
timeout to fill the request.  Jitter is greatest under low load when the
boxcar times out.  ...  Aurora handles this by submitting the asynchronous
network operation when it receives the first redo log record in the boxcar
but continuing to fill the buffer until the network operation executes."

The bench sweeps offered load for all three driver modes and reports commit
latency plus batching efficiency.  Expected shape: TIMEOUT's latency is
dominated by the timer at low load and converges at high load; AURORA
matches IMMEDIATE's latency at every load while sending far fewer network
operations at high load.
"""

from repro import AuroraCluster, ClusterConfig
from repro.db.driver import BoxcarMode
from repro.workloads import WorkloadGenerator, WorkloadRunner, profile

from .conftest import fmt, percentile, print_table

LOADS = [  # (label, transactions per ms, seed)
    ("trickle 0.02/ms", 0.02, 512),
    ("light 0.2/ms", 0.2, 534),
    ("heavy 2.0/ms", 2.0, 558),
]
MODES = [BoxcarMode.AURORA, BoxcarMode.TIMEOUT, BoxcarMode.IMMEDIATE]


def run_cell(mode, rate, seed):
    config = ClusterConfig(seed=seed)
    config.instance.driver.boxcar_mode = mode
    config.instance.driver.boxcar_timeout = 4.0
    config.instance.driver.boxcar_max_records = 16
    cluster = AuroraCluster.build(config)
    generator = WorkloadGenerator(profile("trickle"), seed=seed)
    runner = WorkloadRunner(cluster, generator)
    stats = runner.run_open_loop(rate_per_ms=rate, duration_ms=400.0)
    driver_stats = cluster.writer.driver.stats
    records_per_batch = (
        driver_stats.records_sent / driver_stats.batches_sent
        if driver_stats.batches_sent
        else 0.0
    )
    return {
        "p50": percentile(stats.commit_latencies, 0.5),
        "p99": percentile(stats.commit_latencies, 0.99),
        "records_per_batch": records_per_batch,
        "committed": stats.committed,
    }


def test_c2_boxcar_jitter_sweep(benchmark):
    def sweep():
        table = {}
        for mode in MODES:
            for label, rate, seed in LOADS:
                table[(mode, label)] = run_cell(mode, rate, seed=seed)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for mode in MODES:
        for label, _rate, _seed in LOADS:
            cell = table[(mode, label)]
            rows.append(
                [
                    mode.value, label, fmt(cell["p50"]), fmt(cell["p99"]),
                    fmt(cell["records_per_batch"], 1), cell["committed"],
                ]
            )
    print_table(
        "C2: commit latency vs offered load per boxcar mode",
        ["mode", "load", "p50 ms", "p99 ms", "rec/batch", "commits"],
        rows,
    )

    def cell(mode, label):
        return table[(mode, label)]

    trickle = LOADS[0][0]
    heavy = LOADS[2][0]
    # 1. "Jitter is greatest under low load when the boxcar times out":
    #    the TIMEOUT boxcar's trickle latency carries the 4ms timer.
    assert cell(BoxcarMode.TIMEOUT, trickle)["p50"] > (
        cell(BoxcarMode.AURORA, trickle)["p50"] + 3.0
    )
    # 2. Aurora adds (almost) no latency versus no batching at all.
    assert cell(BoxcarMode.AURORA, trickle)["p50"] < (
        cell(BoxcarMode.IMMEDIATE, trickle)["p50"] + 0.2
    )
    # 3. ... while batching meaningfully under load.
    assert cell(BoxcarMode.AURORA, heavy)["records_per_batch"] > 1.5 * (
        cell(BoxcarMode.IMMEDIATE, heavy)["records_per_batch"]
    )
    # 4. The TIMEOUT penalty shrinks as load fills boxcars.
    timeout_gap_trickle = (
        cell(BoxcarMode.TIMEOUT, trickle)["p50"]
        - cell(BoxcarMode.AURORA, trickle)["p50"]
    )
    timeout_gap_heavy = (
        cell(BoxcarMode.TIMEOUT, heavy)["p50"]
        - cell(BoxcarMode.AURORA, heavy)["p50"]
    )
    assert timeout_gap_heavy < timeout_gap_trickle


def test_c2_per_record_boxcar_delay(benchmark):
    """Direct measurement of time records spend waiting in write buffers."""

    def run():
        results = {}
        for mode in MODES:
            config = ClusterConfig(seed=501)
            config.instance.driver.boxcar_mode = mode
            config.instance.driver.boxcar_timeout = 4.0
            cluster = AuroraCluster.build(config)
            db = cluster.session()
            for i in range(40):
                db.write(f"k{i}", i)
                cluster.run_for(5.0)  # low load: boxcars never fill
            results[mode] = cluster.writer.driver.stats.boxcar_delays
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [mode.value, fmt(percentile(delays, 0.5)),
         fmt(percentile(delays, 0.99)), fmt(max(delays))]
        for mode, delays in results.items()
    ]
    print_table(
        "C2b: per-record time in the write buffer at low load (ms)",
        ["mode", "p50", "p99", "max"],
        rows,
    )
    # AURORA's bound is the boxcar window: the driver's
    # SUBMIT_DELAY_MS of 0.05 ms (the paper's sub-millisecond "submit the
    # async op on the first record, fill until it executes" strategy).
    # The simulator-wide batching defaults -- this window, the 32-record
    # cap, and the replication-stream frame window derived from it -- are
    # catalogued in docs/PERF.md; change them there and this bound moves.
    assert max(results[BoxcarMode.AURORA]) <= 0.06
    assert percentile(results[BoxcarMode.TIMEOUT], 0.5) >= 3.9
    assert max(results[BoxcarMode.IMMEDIATE]) == 0.0

