"""Measurements on one simulated cluster: ``AuroraCluster.build`` makes
it, the functions below drive it and return what they saw as tables."""

from __future__ import annotations

from repro.analysis.cost import (
    CostModel,
    SegmentMix,
    measured_amplification_from_cluster,
    sync_write_amplification,
    wire_compression_from_network,
)
from repro.baselines import AriesRecoveryModel, LeaseFencing
from repro.claims.table import Table
from repro.db.cluster import AuroraCluster
from repro.db.driver import BoxcarMode
from repro.db.proxy import ConnectionProxy, ProxyConfig
from repro.db.session import Session
from repro.history import check
from repro.sim.events import Future
from repro.sim.latency import CompositeLatency, LogNormalLatency
from repro.storage.backend import resolve_backend
from repro.storage.messages import ReadBlockRequest, ReadBlockResponse
from repro.workloads import (
    WorkloadGenerator,
    WorkloadRunner,
    percentile,
    profile,
)
from repro.workloads.sessions import SessionScaleConfig, SessionScaleWorkload


def noisy(intra_tail_ms: float, cross_tail_ms: float, share: float) -> dict:
    """Latency models with occasional slow outliers (a busy node): that
    share of messages draws from a tail with the given median."""
    return dict(
        intra_az_latency=CompositeLatency(
            LogNormalLatency(0.25, 0.35),
            LogNormalLatency(intra_tail_ms, 0.4), share,
        ),
        cross_az_latency=CompositeLatency(
            LogNormalLatency(1.0, 0.40),
            LogNormalLatency(cross_tail_ms, 0.4), share,
        ),
    )


def fill(db, count: int, key: str = "key{:03d}") -> None:
    """``count`` single-row transactions, each committed before the next."""
    for i in range(count):
        db.write(key.format(i), i)


def commit_stream(cluster, db, keys, gap_ms: float = 0.0):
    """Open-loop arrivals, the paper's worker-thread model: each key is
    put in its own transaction whose commit is enqueued and not waited
    for, ``gap_ms`` apart.  Returns the commit futures and the
    key -> value dict that fills as commits are acknowledged."""
    futures, acknowledged = [], {}
    for value, key in enumerate(keys):
        txn = db.begin()
        db.put(txn, key, value)
        future = db.commit_async(txn)
        future.add_done_callback(
            lambda _f, k=key, v=value: acknowledged.__setitem__(k, v)
        )
        futures.append(future)
        if gap_ms:
            cluster.run_for(gap_ms)
    return futures, acknowledged


def recover(cluster):
    """Recover the crashed writer: the new session and what recovery found."""
    process = cluster.recover_writer()
    db = Session(cluster.writer)
    return db, db.drive(process)


def commit_percentiles(cluster) -> tuple[float, float]:
    latencies = cluster.writer.stats.commit_latencies
    return percentile(latencies, 0.5), percentile(latencies, 0.99)


# ----------------------------------------------------------------------
# A1, A2: ablations
# ----------------------------------------------------------------------
def a1_gossip_repair(backend: str) -> list[Table]:
    def convergence_ms(gossip_interval_ms: float) -> float:
        """A segment down during a burst of writes, then restored: how
        long until gossip brings it back to the fleet SCL."""
        cluster = AuroraCluster.build(
            seed=810, backend=backend, gossip_interval=gossip_interval_ms
        )
        db = cluster.session()
        cluster.failures.crash_node("pg0-f")
        fill(db, 30, "key{:02d}")
        target_scl = max(cluster.segment_scls(0).values())
        cluster.failures.restore_node("pg0-f")
        restored_at = cluster.loop.now
        lagging = cluster.nodes["pg0-f"].segment
        for _ in range(100_000):
            if lagging.scl >= target_scl:
                return cluster.loop.now - restored_at
            cluster.run_for(1.0)
        raise AssertionError("gossip never converged")

    sweep = Table(
        "A1: time for a restored segment to re-converge via gossip (ms)",
        [("gossip interval (ms)", ".0f"), ("convergence (ms)", ".1f")],
        [[interval, convergence_ms(interval)]
         for interval in (5.0, 20.0, 80.0, 320.0)],
    )

    # A segment that falls behind every peer's GC horizon cannot catch up
    # record by record; it must hydrate a materialized baseline (the
    # mechanism recovery and membership repair share).
    cluster = AuroraCluster.build(
        seed=811, backend=backend, backup_interval=40.0, gc_interval=20.0
    )
    db = cluster.session()
    cluster.failures.crash_node("pg0-f")
    fill(db, 40, "key{:02d}")
    cluster.run_for(600)  # coalesce + backup + GC: hot logs drain
    lagging = cluster.nodes["pg0-f"].segment
    peer_horizon = max(
        cluster.nodes[f"pg0-{c}"].segment.gc_horizon for c in "abcde"
    )
    scl_behind = lagging.scl
    cluster.failures.restore_node("pg0-f")
    restored_at = cluster.loop.now
    target = max(cluster.segment_scls(0).values())
    while lagging.scl < target:
        cluster.run_for(5.0)
        assert cluster.loop.now - restored_at < 30_000
    hydration = Table(
        "A1b: baseline hydration once the hot logs are gone",
        [("converged (ms)", ".1f"), "adopted gc_horizon", "serving reads",
         "peers' gc_horizon", "its SCL while down"],
        [[
            cluster.loop.now - restored_at,
            lagging.gc_horizon,
            lagging.read_block(
                cluster.writer.root_leaf_block, lagging.scl
            ) is not None,
            peer_horizon,
            scl_behind,
        ]],
    )
    return [sweep, hydration]


def a2_scaleout(backend: str) -> list[Table]:
    def run_volume(pg_count: int) -> list:
        cluster = AuroraCluster.build(
            seed=820, backend=backend, pg_count=pg_count, blocks_per_pg=512
        )
        db = cluster.session()

        def write_path_messages() -> int:
            by_type = cluster.network.stats.by_type
            return by_type.get("WriteBatch", 0) + by_type.get("WriteAck", 0)

        base_messages = write_path_messages()
        fill(db, 40)
        return [
            pg_count, len(cluster.nodes), *commit_percentiles(cluster),
            (write_path_messages() - base_messages) / 40,
        ]

    volumes = Table(
        "A2: commit cost vs volume size (same 40-txn workload)",
        ["PGs", "segments", ("p50 ms", ".3f"), ("p99 ms", ".3f"),
         ("write msgs/txn", ".1f")],
        [run_volume(count) for count in (1, 4, 16)],
    )

    # A transaction spanning N PGs sends N write-quorum streams: fill the
    # volume so the B-tree spans all four PGs.
    cluster = AuroraCluster.build(
        seed=821, backend=backend, pg_count=4, blocks_per_pg=8
    )
    db = cluster.session()
    fill(db, 300)
    cluster.run_for(30)
    used_pgs = {
        node.segment.pg_index
        for node in cluster.nodes.values()
        if node.segment.hot_log_size or node.segment.blocks
    }
    spanning = Table(
        "A2b: a B-tree spanning every PG of a 4-PG volume",
        ["PGs the B-tree spans", ("commit p50 ms", ".3f")],
        [[sorted(used_pgs), commit_percentiles(cluster)[0]]],
    )
    return [volumes, spanning]


# ----------------------------------------------------------------------
# C2: boxcar strategies
# ----------------------------------------------------------------------
C2_LOADS = [  # (label, transactions per ms, seed)
    ("trickle 0.02/ms", 0.02, 512),
    ("light 0.2/ms", 0.2, 534),
    ("heavy 2.0/ms", 2.0, 558),
]
BOXCAR_MODES = [BoxcarMode.AURORA, BoxcarMode.TIMEOUT, BoxcarMode.IMMEDIATE]


def c2_boxcar_jitter(backend: str) -> list[Table]:
    def run_cell(mode: BoxcarMode, label: str, rate: float, seed: int) -> list:
        cluster = AuroraCluster.build(
            seed=seed, backend=backend, boxcar_mode=mode, boxcar_timeout=4.0,
            boxcar_max_records=16,
        )
        generator = WorkloadGenerator(profile("trickle"), seed=seed)
        stats = WorkloadRunner(cluster, generator).run_open_loop(
            rate_per_ms=rate, duration_ms=400.0
        )
        driver = cluster.writer.driver.stats
        return [
            mode.value, label,
            percentile(stats.commit_latencies, 0.5),
            percentile(stats.commit_latencies, 0.99),
            driver.records_sent / driver.batches_sent
            if driver.batches_sent else 0.0,
            stats.committed,
        ]

    sweep = Table(
        "C2: commit latency vs offered load per boxcar mode",
        ["mode", "load", ("p50 ms", ".3f"), ("p99 ms", ".3f"),
         ("rec/batch", ".1f"), "commits"],
        [run_cell(mode, *load) for mode in BOXCAR_MODES for load in C2_LOADS],
    )

    def buffer_delays(mode: BoxcarMode) -> list:
        """Time records spend waiting in the write buffer at low load."""
        cluster = AuroraCluster.build(
            seed=501, backend=backend, boxcar_mode=mode, boxcar_timeout=4.0
        )
        db = cluster.session()
        for i in range(40):
            db.write(f"k{i}", i)
            cluster.run_for(5.0)  # low load: boxcars never fill
        delays = cluster.writer.driver.stats.boxcar_delays
        return [mode.value, percentile(delays, 0.5),
                percentile(delays, 0.99), max(delays)]

    delays = Table(
        "C2b: per-record time in the write buffer at low load (ms)",
        ["mode", ("p50", ".3f"), ("p99", ".3f"), ("max", ".3f")],
        [buffer_delays(mode) for mode in BOXCAR_MODES],
    )
    return [sweep, delays]


# ----------------------------------------------------------------------
# C3: read routing
# ----------------------------------------------------------------------
C3_KEYS = 240


def _cold_cache_world(seed: int, backend: str, hedge: bool = True):
    overrides = {} if hedge else {"hedge_multiplier": 10_000.0}
    cluster = AuroraCluster.build(
        seed=seed, backend=backend, **noisy(6.0, 10.0, 0.03),
        cache_capacity=8,  # force storage reads
        hedge_sweep_interval=0.5, **overrides,
    )
    db = cluster.session()
    fill(db, C3_KEYS)
    cluster.run_for(50)
    return cluster, db


def _read_every_other_key(db) -> None:
    for i in range(0, C3_KEYS, 2):
        assert db.get(f"key{i:03d}") == i


def _measure_reads(cluster, db) -> tuple[list[float], float]:
    stats = cluster.writer.driver.stats
    base_issued = stats.reads_issued
    base_latencies = len(stats.read_latencies)
    _read_every_other_key(db)
    latencies = stats.read_latencies[base_latencies:]
    issued = stats.reads_issued - base_issued
    return latencies, issued / max(1, len(latencies))


def _quorum_read_policy(cluster, db) -> tuple[list[float], float]:
    """The naive alternative: 3 parallel reads per miss, first wins."""
    driver = cluster.writer.driver
    latencies = []
    ios = 0

    def quorum_read(block, pg_index, read_point):
        nonlocal ios
        future = Future(cluster.loop)
        start = cluster.loop.now

        def first(rpc) -> None:
            reply = rpc.result()
            if isinstance(reply, ReadBlockResponse) and not future.done:
                latencies.append(cluster.loop.now - start)
                future.set_result((reply.image, reply.version_lsn))

        candidates = driver._read_candidates(  # noqa: SLF001 - probe
            pg_index, read_point, frozenset()
        )[:3]
        for segment in candidates:
            ios += 1
            driver._rpc(  # noqa: SLF001 - probe
                segment,
                ReadBlockRequest(
                    pg_index=pg_index, block=block,
                    read_point=read_point, epochs=driver.epochs,
                ),
            ).add_done_callback(first)
        return future

    driver.read_block = quorum_read  # the probe replaces the driver's read
    _read_every_other_key(db)
    return latencies, ios / max(1, len(latencies))


def c3_read_hedging(backend: str) -> list[Table]:
    def summary(name: str, latencies: list[float], ios: float) -> list:
        return [name, percentile(latencies, 0.5),
                percentile(latencies, 0.99), max(latencies), ios]

    healthy = Table(
        "C3: cold-cache reads, healthy fleet (ms)",
        ["policy", ("p50", ".3f"), ("p99", ".3f"), ("max", ".3f"),
         ("IOs/read", ".2f")],
        [
            summary("aurora (hedged)",
                    *_measure_reads(*_cold_cache_world(601, backend))),
            summary("quorum-3",
                    *_quorum_read_policy(*_cold_cache_world(602, backend))),
        ],
    )

    def degraded(name: str, hedge: bool) -> list:
        cluster, db = _cold_cache_world(603, backend, hedge=hedge)
        victim = cluster.writer.driver.latency_tracker.ranked(
            [f"pg0-{c}" for c in "abcdef"]
        )[0]
        cluster.failures.slow_node(victim, 40.0)
        row = summary(name, *_measure_reads(cluster, db))
        return [*row, cluster.writer.driver.stats.hedges_issued]

    tail = Table(
        "C3b: reads with the preferred segment degraded 40x (ms)",
        ["policy", ("p50", ".3f"), ("p99", ".3f"), ("max", ".3f"),
         ("IOs/read", ".2f"), "hedges"],
        [degraded("aurora (hedged)", hedge=True),
         degraded("no hedge (D6 ablation)", hedge=False)],
    )
    return [healthy, tail]


# ----------------------------------------------------------------------
# C4: read replicas and the serving tier
# ----------------------------------------------------------------------
def c4_replicas(backend: str) -> list[Table]:
    def with_replicas(replica_count: int) -> list:
        cluster = AuroraCluster.build(seed=700, backend=backend)
        for i in range(replica_count):
            cluster.add_replica(f"r{i}")
        db = cluster.session()
        fill(db, 60)
        cluster.run_for(50)
        lags = [replica.replica_lag for replica in cluster.replicas.values()]
        reads_served = 0
        for name in cluster.replicas:
            rs = cluster.replica_session(name)
            for i in range(0, 60, 10):
                assert rs.get(f"key{i:03d}") == i
                reads_served += 1
        return [replica_count, *commit_percentiles(cluster),
                max(lags) if lags else 0, reads_served]

    scaling = Table(
        "C4: writer commit latency vs replica count",
        ["replicas", ("commit p50 ms", ".3f"), ("commit p99 ms", ".3f"),
         "max lag (LSN)", "replica reads"],
        [with_replicas(count) for count in (0, 1, 3, 5)],
    )

    cluster = AuroraCluster.build(seed=701, backend=backend)
    replica = cluster.add_replica("r1")
    db = cluster.session()
    commit_stream(cluster, db, [f"key{i:03d}" for i in range(150)], 0.5)
    samples = replica.stats.lag_samples
    cluster.run_for(50)
    lag = Table(
        "C4b: replica lag under sustained writes (LSN)",
        ["samples", "p50", "p99", "final", "chunks applied",
         "records discarded (uncached)"],
        [[len(samples), percentile(samples, 0.5), percentile(samples, 0.99),
          replica.replica_lag, replica.stats.chunks_applied,
          replica.stats.records_discarded]],
    )

    # Attaching a replica moves no data -- durable state is shared -- and
    # its first read works at once, from shared storage.
    cluster = AuroraCluster.build(seed=702, backend=backend)
    db = cluster.session()
    fill(db, 100)
    cluster.run_for(20)
    before = cluster.network.stats.messages_sent
    cluster.add_replica("late")
    attach_messages = cluster.network.stats.messages_sent - before
    attach = Table(
        "C4c: attaching a replica to a 100-txn volume",
        ["messages to attach", "first read of key050"],
        [[attach_messages, cluster.replica_session("late").get("key050")]],
    )

    cluster = AuroraCluster.build(seed=703, backend=backend)
    cluster.add_replica("r1")
    db = cluster.session()
    _futures, acknowledged = commit_stream(
        cluster, db, [f"key{i:03d}" for i in range(60)], 0.3
    )
    crash_at = cluster.loop.now
    cluster.crash_writer()
    new_writer, recovery = cluster.promote_replica("r1")
    db = Session(new_writer)
    db.drive(recovery)
    failover_ms = cluster.loop.now - crash_at
    promotion = Table(
        "C4d: promoting a replica after a writer crash",
        ["acknowledged", "recovered", ("failover ms", ".1f")],
        [[len(acknowledged),
          sum(1 for k, v in acknowledged.items() if db.get(k) == v),
          failover_ms]],
    )
    return [scaling, lag, attach, promotion]


def c4_session_scaling(backend: str) -> list[Table]:
    def tier(sessions: int) -> list:
        """``sessions`` logical sessions through the proxy over two
        replicas, steady state, no chaos."""
        cluster = AuroraCluster.build(seed=704, backend=backend)
        for i in range(2):
            cluster.add_replica(f"r{i}")
        cluster.run_for(100)
        proxy = ConnectionProxy(cluster, ProxyConfig(pool_size=64))
        workload = SessionScaleWorkload(
            proxy,
            SessionScaleConfig(
                sessions=sessions, horizon_ms=6_000.0, think_ms=30_000.0,
                seed=704,
            ),
        )
        workload.run()
        judged = check(workload.history)
        lag = proxy.lag.samples
        return [
            sessions, workload.stats.ops_completed,
            percentile(lag, 0.95) if lag else 0.0,
            max(lag) if lag else 0.0,
            proxy.stats.replica_reads, proxy.stats.writer_reads,
            proxy.stats.pool_waits, judged.count("private"),
            judged.count("shared"),
        ]

    return [Table(
        "C4: proxied session scaling vs replica time lag",
        ["sessions", "ops", ("lag p95 ms", ".3f"), ("lag max ms", ".3f"),
         "replica reads", "writer reads", "pool waits", "RYW violations",
         "consistency violations"],
        [tier(sessions) for sessions in (1_000, 10_000, 50_000)],
    )]


# ----------------------------------------------------------------------
# C5: epochs versus leases
# ----------------------------------------------------------------------
DETECTION_MS = 500.0  # failure-detector delay, charged to both designs


def c5_fencing(backend: str) -> list[Table]:
    # Failover dead time: after the writer dies, how long until a
    # successor may safely write?  Under epochs it is one recovery.
    cluster = AuroraCluster.build(seed=710, backend=backend)
    db = cluster.session()
    fill(db, 30, "k{}")
    cluster.run_for(20)
    crash_at = cluster.loop.now
    cluster.crash_writer()
    cluster.run_for(DETECTION_MS)
    db, _result = recover(cluster)
    db.write("fenced-in", 1)  # first post-failover write
    epoch_total = cluster.loop.now - crash_at
    rows = [["epochs (Aurora)", DETECTION_MS, epoch_total - DETECTION_MS,
             epoch_total]]
    for lease_s in (1, 5, 10, 30):
        lease = LeaseFencing(lease_duration_ms=lease_s * 1000.0)
        lease.acquire("old-writer", now=0.0)
        # Worst case: the holder renewed just before dying at t=0.
        dead = lease.failover_dead_time_ms(
            holder_crash_at=0.0, detection_delay_ms=DETECTION_MS
        )
        rows.append(
            [f"lease {lease_s}s", DETECTION_MS, dead - DETECTION_MS, dead]
        )
    failover = Table(
        "C5: writer failover dead time (ms)",
        ["fencing", ("detection", ".0f"), ("fence wait", ".1f"),
         ("total unavailable", ".1f")],
        rows,
    )

    # Epoch-fenced membership change: commits keep flowing.  A lease-
    # fenced change would stall them for the residual lease term.
    cluster = AuroraCluster.build(seed=711, backend=backend)
    db = cluster.session()
    db.write("seed", 0)
    cluster.failures.crash_node("pg0-f")
    stalls = []

    def timed_writes(tag: str) -> None:
        for i in range(20):
            start = cluster.loop.now
            db.write(f"{tag}{i:02d}", i)
            stalls.append(cluster.loop.now - start)

    candidate = cluster.begin_segment_replacement(0, "pg0-f")
    hydration = cluster.hydrate_segment(0, candidate)
    timed_writes("during")
    db.drive(hydration)
    cluster.finalize_segment_replacement(0, "pg0-f")
    timed_writes("after")
    lease = LeaseFencing(lease_duration_ms=10_000.0)
    lease.acquire("pg0-f", now=0.0)
    change = Table(
        "C5b: membership change I/O impact (ms)",
        ["case", ("ms", ".3f")],
        [
            ["epochs: worst commit during change", max(stalls)],
            ["epochs: mean commit during change", sum(stalls) / len(stalls)],
            ["lease 10s: I/O stall to fence the suspect",
             lease.fencing_wait_ms(now=100.0)],
        ],
    )
    return [failover, change]


# ----------------------------------------------------------------------
# C6: cost amplification, measured
# ----------------------------------------------------------------------
def c6_bytes(backend: str) -> list[Table]:
    def stored(name: str, on: str, **overrides) -> list:
        cluster = AuroraCluster.build(seed=720, backend=on, **overrides)
        db = cluster.session()
        for i in range(80):
            db.write(f"key{i:03d}", "x" * 64)
        cluster.run_for(250)
        for node in cluster.nodes.values():
            node.segment.coalesce()
        measured = measured_amplification_from_cluster(cluster)
        return [name, int(measured["block_bytes"]),
                int(measured["log_bytes"]), measured["amplification"]]

    # The three configurations compared, whatever backend is selected.
    bytes_held = Table(
        "C6b: measured bytes in simulated clusters (same workload)",
        ["configuration", "block bytes", "log bytes",
         ("amplification", ".2f")],
        [stored("6 full copies", "aurora"),
         stored("3 full + 3 tail", "aurora", full_tail=True),
         stored("taurus 2 page + 3 log", "taurus")],
    )

    # Head to head against the Aurora baseline for the selected backend:
    # sync-path wire copies per redo byte (analytic, from the replication
    # config) cross-checked by counting WriteBatch messages for the same
    # commit stream.
    def write_path(name: str, on: str) -> list:
        cluster = AuroraCluster.build(seed=906, backend=on)
        db = cluster.session()
        for i in range(40):
            db.write(f"key{i:03d}", "x" * 32)
        replication = resolve_backend(on).replication()
        return [
            name, sync_write_amplification(replication),
            cluster.network.stats.by_type["WriteBatch"],
            CostModel(log_to_block_ratio=0.1).amplification(
                SegmentMix.from_replication(replication)
            ),
        ]

    write_amplification = Table(
        "C6c: write amplification by backend (40 commits)",
        ["backend", "sync copies/commit", "WriteBatch msgs",
         ("storage amplification", ".2f")],
        [write_path(backend, backend),
         write_path("aurora (baseline)", "aurora")],
    )

    # On-wire bytes under redo compression.  The driver delta-encodes
    # consecutive LSNs and elides superseded same-transaction payloads
    # inside each boxcar (repro.db.wire); the network counts both the
    # compressed wire bytes and the uncompressed logical bytes of every
    # WriteBatch copy it carries.
    def on_the_wire(name: str, compression: bool) -> list:
        cluster = AuroraCluster.build(
            seed=907, backend=backend, wire_compression=compression
        )
        cluster.network.set_stats_detail(True)
        db = cluster.session()
        # Self-overwriting transactions: the elision-friendly shape.
        for i in range(30):
            txn = db.begin()
            for v in range(3):
                db.put(txn, f"key{i:03d}", "x" * 24 if v < 2 else v)
            db.commit(txn)
        wire = wire_compression_from_network(cluster.network.stats)
        driver = cluster.writer.driver.stats
        return [
            name, int(wire["wire_bytes"]), int(wire["logical_bytes"]),
            wire["compression_ratio"] if compression else "-",
            wire["savings_pct"] if compression else "-",
            driver.records_elided, driver.wire_bytes, driver.logical_bytes,
        ]

    wire = Table(
        "C6d: WriteBatch bytes on the wire (90 same-row overwrites)",
        ["wire format", "wire bytes", "logical bytes", ("ratio", ".2f"),
         ("savings %", ".1f"), "records elided", "driver wire bytes",
         "driver logical bytes"],
        [on_the_wire("compressed", True), on_the_wire("uncompressed", False)],
    )
    return [bytes_held, write_amplification, wire]


# ----------------------------------------------------------------------
# C8: recovery without redo replay
# ----------------------------------------------------------------------
C8_HISTORY = (25, 100, 400)


def c8_recovery(backend: str) -> list[Table]:
    def recovery_ms(txn_count: int) -> float:
        cluster = AuroraCluster.build(
            seed=800 + txn_count, backend=backend, backup_interval=50.0,
            gc_interval=25.0,
        )
        db = cluster.session()
        fill(db, txn_count, "key{:05d}")
        cluster.run_for(400)  # steady-state coalesce/backup/GC churn
        cluster.crash_writer()
        db, _result = recover(cluster)
        assert db.get(f"key{txn_count - 1:05d}") == txn_count - 1
        return cluster.writer.stats.recovery_durations[-1]

    aries = AriesRecoveryModel()
    return [Table(
        "C8: recovery time vs committed history (ms, simulated)",
        ["txns committed", ("Aurora recovery", ".2f"),
         ("ARIES replay (no ckpt)", ".3f")],
        [
            # ~2.5 records per txn (row delta + commit + splits).
            [count, recovery_ms(count),
             aries.recovery_time_ms(int(count * 2.5))]
            for count in C8_HISTORY
        ],
    )]


# ----------------------------------------------------------------------
# F2-F5: the figures that need a live cluster
# ----------------------------------------------------------------------
def f2_storage_pipeline(backend: str) -> list[Table]:
    cluster = AuroraCluster.build(
        seed=202, backend=backend, backup_interval=100.0, gc_interval=50.0,
        scrub_interval=300.0,
    )
    db = cluster.session()
    # Cut pg0-f off from the writer only: writes miss it, gossip heals it.
    cluster.network.partition({cluster.writer.name}, {"pg0-f"})
    fill(db, 40)
    cluster.network.heal_all_partitions()
    cluster.run_for(1_500)  # several backup/gc/scrub cycles
    rows = []
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        segment = node.segment
        rows.append([
            name,
            segment.stats["records_received"],
            node.counters["acks_sent"],
            segment.stats["records_gossiped_in"],
            segment.stats["coalesce_applications"],
            node.counters["backups_taken"],
            segment.stats["gc_records_dropped"],
            node.counters["scrub_runs"],
            segment.scl,
            segment.hot_log_size,
        ])
    return [
        Table(
            "Figure 2: storage node activities (40 txns, pg0-f fed by "
            "gossip)",
            ["segment", "received", "acks", "gossiped-in", "coalesced",
             "backups", "gc-dropped", "scrubs", "SCL", "hotlog"],
            rows,
        ),
        Table("Figure 2: the backup archive", ["objects in S3"],
              [[len(cluster.s3)]]),
    ]


def f3_live_cluster(backend: str) -> list[Table]:
    cluster = AuroraCluster.build(
        seed=203, backend=backend, pg_count=2, blocks_per_pg=16
    )
    db = cluster.session()
    # Fill enough rows to spill block allocation into PG1 (block
    # allocation walks PG0 first); an ascending fill leaves its leaves
    # full, so splits consume ~1 block per 16 rows.
    fill(db, 240)
    cluster.run_for(50)
    driver = cluster.writer.driver
    rows = []
    for pg, tracker in driver.pg_trackers.items():
        scls = cluster.segment_scls(pg).values()
        rows.append([f"PGCL(PG{pg})", tracker.pgcl,
                     sum(1 for scl in scls if scl >= tracker.pgcl)])
    rows += [["VCL", driver.vcl, "-"], ["VDL", driver.vdl, "-"]]
    return [Table(
        "Figure 3 (live cluster): consistency points",
        ["point", "LSN", "segments at or past it"],
        rows,
    )]


def f4_crash_recovery(backend: str) -> list[Table]:
    cluster = AuroraCluster.build(seed=204, backend=backend)
    db = cluster.session()
    # Slow two segments so the log has a ragged edge at crash time.
    cluster.failures.slow_node("pg0-e", 30.0)
    cluster.failures.slow_node("pg0-f", 30.0)
    _futures, acknowledged = commit_stream(
        cluster, db, [f"key{i:02d}" for i in range(30)]
    )
    cluster.run_for(6.0)  # cut mid-stream: some acked, some in flight
    pre_crash_scls = cluster.segment_scls(0)
    pre_crash_next_lsn = cluster.writer.allocator.next_lsn
    cluster.crash_writer()
    db, result = recover(cluster)
    post_scls = cluster.segment_scls(0)
    return [Table(
        "Figure 4: log truncation during crash recovery",
        ["quantity", "value"],
        [
            ["SCLs at crash", sorted(pre_crash_scls.values())],
            ["recovered VCL", result.vcl],
            ["recovered VDL", result.vdl],
            ["truncation range",
             f"[{result.truncation.first}..{result.truncation.last}]"],
            ["SCLs after truncation", sorted(post_scls.values())],
            ["highest pre-crash LSN", pre_crash_next_lsn - 1],
            ["first post-recovery LSN", cluster.writer.allocator.next_lsn],
            ["acked commits", len(acknowledged)],
            ["acked commits recovered",
             sum(1 for k, v in acknowledged.items() if db.get(k) == v)],
        ],
    )]


def f5_membership_change(backend: str) -> list[Table]:
    cluster = AuroraCluster.build(seed=206, backend=backend)
    db = cluster.session()
    phases = []

    def commit_burst(phase: str, tag: str) -> None:
        before = len(cluster.writer.stats.commit_latencies)
        fill(db, 30, tag + "{:03d}")
        latencies = cluster.writer.stats.commit_latencies[before:]
        phases.append([phase, sum(latencies) / len(latencies),
                       max(latencies), len(latencies)])

    state = cluster.metadata.membership(0)
    epochs = [["epoch 1 (healthy)", state.epoch, sorted(state.members)]]
    commit_burst("steady state", "steady")

    cluster.failures.crash_node("pg0-f")
    candidate = cluster.begin_segment_replacement(0, "pg0-f")
    state = cluster.metadata.membership(0)
    epochs.append(["epoch 2 (F suspect, +G)", state.epoch,
                   [len(state.member_groups()), "groups"]])
    hydration = cluster.hydrate_segment(0, candidate)
    commit_burst("during transition", "during")
    db.drive(hydration)
    cluster.finalize_segment_replacement(0, "pg0-f")
    state = cluster.metadata.membership(0)
    epochs.append(["epoch 3 (G active)", state.epoch, sorted(state.members)])
    commit_burst("after finalize", "after")

    # "ensuring each transition is reversible": F comes back mid-change.
    undone = AuroraCluster.build(seed=207, backend=backend)
    db = undone.session()
    db.write("seed", 0)
    returned = undone.begin_segment_replacement(0, "pg0-f")
    db.write("mid-transition", 1)
    undone.rollback_segment_replacement(0, "pg0-f")
    db.write("post-rollback", 2)
    state = undone.metadata.membership(0)
    return [
        Table("Figure 5: membership change epochs",
              ["stage", "membership epoch", "members / groups"], epochs),
        Table("Figure 5: the replacement", ["suspect (F)", "candidate (G)"],
              [["pg0-f", candidate]]),
        Table("Commit latency across the change (ms)",
              ["phase", ("mean", ".3f"), ("max", ".3f"), "count"], phases),
        Table("Figure 5: rollback (F comes back mid-change)",
              ["epoch", "members", "stable", "candidate",
               "read of mid-transition"],
              [[state.epoch, sorted(state.members), state.is_stable,
                returned, db.get("mid-transition")]]),
    ]
