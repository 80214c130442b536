"""The four workloads and the benchmark's own client loops.

Each workload is a sequence of *rounds*.  A round builds a fresh cluster
from its seed, times one window of client traffic against it, and checks
the outputs.  Sizes are the shapes fixed in ISSUE 11; ``scale`` shrinks a
round (smoke test, traced pass), the harness chooses how many rounds.

The client loops here replace ``repro.workloads.WorkloadRunner`` on
purpose: that runner treats a client process that died with an exception
as "finished", so a failing run looks like a short fast one.  These loops
catch per operation, count everything that is not a lock conflict as a
failure, and count operations that never finish.
"""

from __future__ import annotations

import dataclasses
import gc
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from repro.audit import AuditRunConfig, Auditor, run_audit
from repro.db.cluster import AuroraCluster, ClusterConfig
from repro.db.session import Session
from repro.errors import LockConflictError
from repro.sim.events import EventLoop
from repro.sim.process import Process
from repro.workloads import OpKind, WorkloadConfig, WorkloadGenerator, profile

from bench.gauge import EVENTS_PER_CLOCK_CHECK, SpeedGauge, slowdown
from bench.trace import GAUGE_LAYER, SimTaps

#: Simulated ms a round may take before its unfinished operations are
#: counted as failed (healthy rounds need 1-12 simulated seconds).
ROUND_SIM_LIMIT_MS = 120_000.0
CHECK_ERRORS_KEPT = 5


@dataclass
class RoundResult:
    """What one round measured.  Times are host seconds unless ``_ms``."""

    seed: int
    #: Raw host seconds: before the window, and the window itself with
    #: the gauge's kernel runs taken out.
    setup_s: float = 0.0
    timed_s: float = 0.0
    #: The gauge's kernel runs inside the window (see bench/gauge.py).
    gauge_s: float = 0.0
    gauge_samples: int = 0
    sim_ms: float = 0.0
    #: Client operations started / finished with a definite outcome
    #: (commit ack, lock-conflict rollback, read result; audit steps).
    attempted: int = 0
    ops: int = 0
    failed: int = 0
    #: Operations the audit's own client saw refused or timed out while
    #: chaos held the volume unavailable (its NO-WAIT lock conflicts
    #: included).  Expected and deterministic per seed, so they are not
    #: ``failed``, but they do count in ``failed_op_share``.
    refused: int = 0
    failures: Counter = field(default_factory=Counter)
    commits: int = 0
    aborts: int = 0
    reads: int = 0
    commit_ms: list = field(default_factory=list)
    read_ms: list = field(default_factory=list)
    mttr_ms: list = field(default_factory=list)
    detection_ms: list = field(default_factory=list)
    #: Host clock at each finished operation (for the growth metric).
    op_marks_ns: list = field(default_factory=list)
    check_errors: list = field(default_factory=list)
    #: ``ru_maxrss`` of the forked child the round ran in (end-to-end pass).
    peak_rss_mb: float = 0.0
    #: Raw per-layer counts and simulated-time samples, window only.
    counts: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        return slowdown(self.gauge_s, self.gauge_samples)

    @property
    def host_s(self) -> float:
        """The timed window at the gauge's reference speed."""
        return self.timed_s / self.slowdown

    @property
    def host_us_per_op(self) -> float:
        return self.host_s * 1e6 / max(1, self.ops)

    def close_window(self, wall_s: float, gauge: SpeedGauge) -> None:
        self.timed_s = wall_s - gauge.seconds
        if not gauge.samples:
            gauge.sample()  # a window shorter than the sampling period
        self.gauge_s = gauge.seconds
        self.gauge_samples = gauge.samples


def _plain(generator, *_span):
    return generator


def _gauge_sampler(gauge: SpeedGauge, tracer):
    """``gauge.sample``, booked to its own layer when tracing so the
    kernel's time is in no layer's self time."""
    if tracer is None:
        return gauge.sample
    return tracer.wrap(gauge.sample, GAUGE_LAYER, "sample")


@contextmanager
def _gauged_steps(gauge: SpeedGauge, tracer):
    """Sample ``gauge`` from inside any loop that steps the simulator: for
    ``run_audit``, whose loop-driving code is not the benchmark's."""
    original = vars(EventLoop)["step"]  # the tracer's wrapper when tracing
    sample = _gauge_sampler(gauge, tracer)
    count = 0

    def step(loop):
        nonlocal count
        count += 1
        if count % EVENTS_PER_CLOCK_CHECK == 0 and gauge.due():
            sample()
        return original(loop)

    EventLoop.step = step
    try:
        yield
    finally:
        EventLoop.step = original


# ----------------------------------------------------------------------
# Per-layer counts, read from the public stats objects
# ----------------------------------------------------------------------
def layer_counts(cluster) -> Counter:
    """Flat additive counters of one cluster (subtract two snapshots)."""
    counts: Counter = Counter()
    counts["events"] = cluster.loop.events_executed
    net = cluster.network.stats
    counts["net.sent"] = net.messages_sent
    counts["net.dropped"] = net.messages_dropped
    counts["net.wire_bytes"] = net.wire_bytes_sent
    counts["net.logical_bytes"] = net.logical_bytes_sent
    writer = cluster.writer
    instances = [writer, *cluster.replicas.values()]
    stats = writer.driver.stats
    counts["driver.batches"] = stats.batches_sent
    counts["driver.records"] = stats.records_sent
    counts["driver.flushed"] = len(stats.boxcar_delays)
    counts["driver.acks"] = stats.acks_received
    counts["driver.resubmitted"] = stats.batches_resubmitted
    counts["driver.elided"] = stats.records_elided
    commit = writer.driver.commit_queue.stats
    counts["commit.acknowledged"] = commit.acknowledged
    counts["commit.total_wait_ms"] = commit.total_wait
    counts["locks.conflicts"] = writer.locks.conflicts
    for instance in instances:
        counts["driver.reads_issued"] += instance.driver.stats.reads_issued
        counts["driver.hedges"] += instance.driver.stats.hedges_issued
        cache = instance.cache.stats
        counts["cache.hits"] += cache.hits
        counts["cache.misses"] += cache.misses
        counts["cache.evictions"] += cache.evictions
    for replica in cluster.replicas.values():
        counts["replica.applied"] += replica.stats.records_applied
        counts["replica.discarded"] += replica.stats.records_discarded
        counts[f"replica.lag_samples.{replica.name}"] = len(
            replica.stats.lag_samples
        )
    for node in cluster.nodes.values():
        for key in ("write_batches", "acks_sent", "rejections_sent",
                    "reads_answered", "gossip_records_pulled"):
            counts[f"node.{key}"] += node.counters[key]
        for key in ("records_received", "duplicates",
                    "coalesce_applications"):
            counts[f"segment.{key}"] += node.segment.stats[key]
    if cluster.auditor is not None:
        counts["auditor.events"] = cluster.auditor.events_seen
    return counts


def end_state(cluster, before: Counter) -> tuple[Counter, dict]:
    """Window counts (now minus ``before``) plus the non-additive values
    and simulated-time samples taken after ``before``."""
    counts = layer_counts(cluster)
    counts.subtract(before)
    writer = cluster.writer
    counts["commit.max_queue_depth"] = (
        writer.driver.commit_queue.stats.max_queue_depth
    )
    counts["segment.hot_log_size_end"] = sum(
        node.segment.hot_log_size for node in cluster.nodes.values()
    )
    lag = []
    for replica in cluster.replicas.values():
        skip = before[f"replica.lag_samples.{replica.name}"]
        lag.extend(replica.stats.lag_samples[skip:])
    samples = {
        "boxcar_wait_ms": writer.driver.stats.boxcar_delays[
            before["driver.flushed"]:
        ],
        "replica_lag_lsn": lag,
    }
    return counts, samples


# ----------------------------------------------------------------------
# Client loops
# ----------------------------------------------------------------------
class ClientRound:
    """One cluster, the clients driving it, and the round's bookkeeping."""

    def __init__(self, cluster, result: RoundResult, tracer=None) -> None:
        self.cluster = cluster
        self.loop = cluster.loop
        self.writer = cluster.writer
        self.result = result
        self.tracer = tracer
        self._spans = tracer.generator_spans if tracer is not None else _plain
        #: key -> value of its last acknowledged write (None = deleted).
        self.last_acked: dict = {}
        self._running = 0
        self._planned = 0

    # -- spawning -------------------------------------------------------
    def spawn(self, client) -> None:
        """Start a client generator as a simulated process."""
        self._running += 1
        process = Process(
            self.loop, self._spans(client, "workloads", "client")
        )
        process.completion.add_done_callback(self._on_client_done)

    def _on_client_done(self, completion) -> None:
        self._running -= 1
        error = completion.exception()
        if error is not None:
            # The loops below catch per operation, so this is a harness
            # bug or a failure outside any operation; the operations the
            # client never reached are counted as unfinished by run().
            self.result.failures[type(error).__name__] += 1

    def _done(self) -> None:
        self.result.ops += 1
        self.result.op_marks_ns.append(perf_counter_ns())

    def _fail(self, error: Exception) -> None:
        self.result.failed += 1
        self.result.failures[type(error).__name__] += 1

    def _check_failed(self, message: str) -> None:
        """One wrong output fails the run; the first few say what."""
        if len(self.result.check_errors) < CHECK_ERRORS_KEPT:
            self.result.check_errors.append(message)

    # -- writer ---------------------------------------------------------
    def transaction(self, operations, started: float):
        """One transaction on the writer, latency counted from ``started``."""
        result = self.result
        writer = self.writer
        spans = self._spans
        result.attempted += 1
        txn = None
        try:
            txn = writer.begin()
            tid = txn.txn_id
            writes = {}
            try:
                for op in operations:
                    if op.kind is OpKind.WRITE:
                        yield from spans(
                            writer.put(txn, op.key, op.value),
                            "db.instance", "put", tid,
                        )
                        writes[op.key] = op.value
                    elif op.kind is OpKind.DELETE:
                        yield from spans(
                            writer.delete(txn, op.key),
                            "db.instance", "delete", tid,
                        )
                        writes[op.key] = None
                    else:
                        yield from spans(
                            writer.get(op.key, txn), "db.instance", "get", tid
                        )
            except LockConflictError:
                yield from spans(
                    writer.rollback(txn), "db.instance", "rollback", tid
                )
                result.aborts += 1
                self._done()
                return
            yield writer.commit(txn)
            result.commits += 1
            result.commit_ms.append(self.loop.now - started)
            self.last_acked.update(writes)
            self._done()
        except Exception as error:  # noqa: BLE001 - client boundary: count and go on
            self._fail(error)
            yield from self._abandon(txn)

    def _abandon(self, txn):
        """Best-effort rollback so a failed transaction's locks do not
        turn every later transaction on its keys into a conflict."""
        if txn is None:
            return
        try:
            yield from self.writer.rollback(txn)
        except Exception:  # noqa: BLE001 - already counted as failed
            pass

    def closed_loop_writer(self, generator: WorkloadGenerator, count: int):
        self._planned += count
        for _ in range(count):
            operations = generator.next_transaction()
            yield from self.transaction(operations, self.loop.now)

    def open_loop_arrivals(
        self, generator: WorkloadGenerator, rng: random.Random,
        rate_per_ms: float, duration_ms: float,
    ):
        """Poisson arrivals on the simulated clock; each transaction runs
        as its own process and is timed from when it was due."""
        loop = self.loop
        due = loop.now
        end = due + duration_ms
        late = 0.0
        while due < end:
            late = max(late, loop.now - due)
            self._planned += 1
            self.spawn(
                self.transaction(generator.next_transaction(), due)
            )
            due += rng.expovariate(rate_per_ms)
            yield max(0.0, due - loop.now)
        self.result.info["generator_late_ms_max"] = late

    # -- replicas -------------------------------------------------------
    def closed_loop_reader(
        self, replica, keys: list, rng: random.Random, count: int,
        written: dict,
    ):
        """Point reads of preloaded keys; every result must be a value
        that was at some time written to that key."""
        self._planned += count
        result = self.result
        loop = self.loop
        for _ in range(count):
            key = keys[rng.randrange(len(keys))]
            started = loop.now
            result.attempted += 1
            try:
                value = yield from self._spans(
                    replica.get(key), "db.replica", "get"
                )
            except Exception as error:  # noqa: BLE001 - client boundary
                self._fail(error)
                continue
            result.reads += 1
            result.read_ms.append(loop.now - started)
            if value not in written[key]:
                self._check_failed(
                    f"replica {replica.name} read {key!r} -> {value!r}, "
                    "never written to it"
                )
            self._done()

    # -- driving --------------------------------------------------------
    def run(self) -> None:
        """Time the window: step the loop until every client has ended."""
        loop = self.loop
        result = self.result
        before = layer_counts(self.cluster)
        taps = SimTaps() if self.tracer is not None else None
        if taps is not None:
            self.cluster.network.add_tap(taps)
        limit = loop.now + ROUND_SIM_LIMIT_MS
        gauge = SpeedGauge()
        sample = _gauge_sampler(gauge, self.tracer)
        step = loop.step
        gc.collect()
        sim_start = loop.now
        if self.tracer is not None:
            self.tracer.start_window()
        start = perf_counter()
        drained = False
        while self._running and loop.now < limit and not drained:
            for _ in range(EVENTS_PER_CLOCK_CHECK):
                if not self._running:
                    break
                if not step():
                    drained = True
                    break
            if gauge.due():
                sample()
        result.close_window(perf_counter() - start, gauge)
        if self.tracer is not None:
            self.tracer.end_window()
        result.sim_ms = loop.now - sim_start
        unfinished = max(self._planned, result.attempted) - (
            result.ops + result.failed
        )
        if unfinished:
            result.failed += unfinished
            result.failures["Unfinished"] += unfinished
        result.attempted = max(self._planned, result.attempted)
        result.counts, result.samples = end_state(self.cluster, before)
        if taps is not None:
            result.samples["write_oneway_ms"] = taps.write_oneway_ms
            result.samples["ack_turnaround_ms"] = taps.ack_turnaround_ms

    def verify_last_acked(self) -> None:
        """Every key's last acknowledged value reads back on the writer."""
        session = Session(self.writer)
        for key, expected in self.last_acked.items():
            got = session.get(key)
            if got != expected:
                self._check_failed(
                    f"writer read {key!r} -> {got!r}, last acked {expected!r}"
                )


def _build(seed: int, config: ClusterConfig, replicas: int, armed: bool):
    cluster = AuroraCluster.build(config, seed=seed)
    if armed:
        cluster.arm_auditor(Auditor())
    for _ in range(replicas):
        cluster.add_replica()
    return cluster


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """What the harness needs from a workload besides ``run_round``."""

    name: str
    why: str
    #: Rounds that always run and alone define the simulated metrics.
    sim_rounds: int
    #: The traced pass: seeds per pass and how much each round shrinks.
    trace_rounds = 2
    trace_scale = 0.5
    #: The traced pass also runs each round with ``cluster.arm_auditor``.
    measures_armed_auditor = False


class CommitBurst(Workload):
    """Closed loop, 16 writers, write-only mix, cache fits."""

    name = "commit_burst"
    why = (
        "commit path at saturation: boxcar, 6-way fan-out, ack fan-in all "
        "busy, zero storage reads; batching at its best"
    )
    sim_rounds = 4
    #: The never-measured "one attribute load when unarmed" claim.
    measures_armed_auditor = True
    clients = 16
    txns = 4800
    keys = 20_000

    def run_round(self, seed, scale=1.0, tracer=None, armed=False):
        result = RoundResult(seed=seed)
        start = perf_counter()
        cluster = _build(seed, ClusterConfig(seed=seed), 1, armed)
        generator = WorkloadGenerator(
            dataclasses.replace(profile("write_only"), key_count=self.keys),
            seed=seed,
        )
        per_client = max(1, int(self.txns * scale) // self.clients)
        round_ = ClientRound(cluster, result, tracer)
        for _ in range(self.clients):
            round_.spawn(round_.closed_loop_writer(generator, per_client))
        result.setup_s = perf_counter() - start
        round_.run()
        round_.verify_last_acked()
        return result


class CommitTrickle(Workload):
    """Open loop, Poisson 0.5 txn per simulated ms, one put per txn."""

    name = "commit_trickle"
    why = (
        "the boxcar dilemma's other side: a wider window shows as worse "
        "commit latency; host time is background timers, not commit fan-in"
    )
    sim_rounds = 3
    rate_per_ms = 0.5
    duration_ms = 12_000.0

    def run_round(self, seed, scale=1.0, tracer=None, armed=False):
        result = RoundResult(seed=seed)
        start = perf_counter()
        cluster = _build(seed, ClusterConfig(seed=seed), 0, armed)
        generator = WorkloadGenerator(profile("trickle"), seed=seed)
        round_ = ClientRound(cluster, result, tracer)
        round_.spawn(
            round_.open_loop_arrivals(
                generator,
                random.Random(seed),
                self.rate_per_ms,
                max(20.0, self.duration_ms * scale),
            )
        )
        # The arrival process is a client for bookkeeping but not an
        # operation: it is neither planned nor counted.
        result.setup_s = perf_counter() - start
        round_.run()
        round_.verify_last_acked()
        return result


class ReplicaRead(Workload):
    """4 writers beside 8 cache-missing replica readers, one grey node."""

    name = "replica_read"
    why = (
        "reads without quorum: replica apply, routing around a slow node, "
        "segment version reads, while the same layers carry writes"
    )
    sim_rounds = 3
    keys = 5_000
    writers = 4
    readers = 8
    txns = 4_000
    reads = 12_000
    preload_batch = 50

    def run_round(self, seed, scale=1.0, tracer=None, armed=False):
        result = RoundResult(seed=seed)
        start = perf_counter()
        config = ClusterConfig(seed=seed)
        config.replica.cache_capacity = 64
        cluster = _build(seed, config, 2, armed)
        # The key space keeps its size down to half scale (the traced
        # pass), so the replicas' cache misses as in a full round; only
        # the smoke test preloads less.
        key_count = max(128, int(self.keys * min(1.0, 2 * scale)))
        keys = [f"key{i:08d}" for i in range(key_count)]
        written = {key: {f"init-{key}"} for key in keys}
        session = cluster.session()
        for low in range(0, len(keys), self.preload_batch):
            txn = session.begin()
            for key in keys[low:low + self.preload_batch]:
                session.put(txn, key, f"init-{key}")
            session.commit(txn)
        cluster.run_for(100.0)
        nodes = sorted(cluster.nodes)
        cluster.failures.slow_node(nodes[seed % len(nodes)], 8.0)
        generator = _RecordingGenerator(
            WorkloadConfig(
                key_count=key_count, write_fraction=1.0, delete_fraction=0.0,
                zipf_theta=0.4, min_ops=1, max_ops=3,
            ),
            seed, written,
        )
        round_ = ClientRound(cluster, result, tracer)
        per_writer = max(1, int(self.txns * scale) // self.writers)
        per_reader = max(1, int(self.reads * scale) // self.readers)
        for _ in range(self.writers):
            round_.spawn(round_.closed_loop_writer(generator, per_writer))
        reader_rng = random.Random(seed + 1)
        replicas = list(cluster.replicas.values())
        for index in range(self.readers):
            round_.spawn(
                round_.closed_loop_reader(
                    replicas[index % len(replicas)], keys, reader_rng,
                    per_reader, written,
                )
            )
        result.setup_s = perf_counter() - start
        round_.run()
        round_.verify_last_acked()
        return result


class _RecordingGenerator(WorkloadGenerator):
    """Adds every value it generates to ``written[key]`` before a client
    issues it (a replica may see a commit the client has not yet been told
    of)."""

    def __init__(self, config: WorkloadConfig, seed: int, written: dict):
        super().__init__(config, seed=seed)
        self.written = written

    def next_transaction(self):
        operations = super().next_transaction()
        for op in operations:
            self.written[op.key].add(op.value)
        return operations


class ChaosAudit(Workload):
    """One ``run_audit`` per round: chaos, crash recovery, healing."""

    name = "chaos_audit"
    why = (
        "the traffic the repo serves all day (make audit, CI); the only "
        "workload where failures, repair, recovery, membership and the "
        "auditor do the work"
    )
    sim_rounds = 24
    trace_rounds = 4
    trace_scale = 1.0
    steps = 1500

    def run_round(self, seed, scale=1.0, tracer=None, armed=False):
        result = RoundResult(seed=seed)
        start = perf_counter()
        steps = max(30, int(self.steps * scale))
        config = AuditRunConfig(
            seed=seed, steps=steps, detailed_stats=tracer is not None
        )
        taps = SimTaps() if tracer is not None else None
        gauge = SpeedGauge()
        result.setup_s = perf_counter() - start
        gc.collect()
        with _captured_clusters(taps) as clusters, _gauged_steps(gauge, tracer):
            if tracer is not None:
                tracer.start_window()
            try:
                report = run_audit(config)
            finally:
                if tracer is not None:
                    tracer.end_window()
        cluster = clusters[0]
        result.close_window(report.wall_clock_s, gauge)
        result.sim_ms = report.sim_time_ms
        result.attempted = result.ops = steps
        result.refused = report.availability_errors
        result.commits = report.commit_acks
        result.commit_ms = list(cluster.writer.stats.commit_latencies)
        if report.repairs is not None:
            result.mttr_ms = list(report.repairs.mttr.samples)
            result.detection_ms = list(report.repairs.detection.samples)
            result.counts["repair.replaced"] = report.repairs.replaced
            result.counts["repair.rolled_back"] = report.repairs.rolled_back
        if report.violations:
            result.check_errors.extend(
                f"seed {seed}: {v.invariant}: {v.subject}"
                for v in report.violations
            )
        if report.unrepaired:
            result.check_errors.append(
                f"seed {seed}: {report.unrepaired} segments unrepaired"
            )
        if not report.ok and not result.check_errors:
            result.check_errors.append(f"seed {seed}: audit gate failed")
        counts, result.samples = end_state(cluster, Counter())
        result.counts.update(counts)
        if taps is not None:
            result.samples["write_oneway_ms"] = taps.write_oneway_ms
            result.samples["ack_turnaround_ms"] = taps.ack_turnaround_ms
        return result


@contextmanager
def _captured_clusters(taps=None):
    """Collect the clusters ``run_audit`` builds (it does not return them),
    so the writer's commit latencies and the layers' counters can be read;
    ``taps`` is attached to each as it is built."""
    clusters: list = []
    original = vars(AuroraCluster)["build"]

    def build(cls, *args, **kwargs):
        cluster = original.__func__(cls, *args, **kwargs)
        if taps is not None:
            cluster.network.add_tap(taps)
        clusters.append(cluster)
        return cluster

    AuroraCluster.build = classmethod(build)
    try:
        yield clusters
    finally:
        AuroraCluster.build = original


WORKLOADS = {
    w.name: w for w in (CommitBurst(), CommitTrickle(), ReplicaRead(),
                        ChaosAudit())
}
