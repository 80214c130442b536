"""Measurements against what the paper rejects: the same commit stream
through Aurora and through consensus per write (Multi-Paxos, 2PC) on
identical simulated networks, and the multi-writer journal against 2PC
between partitions."""

from __future__ import annotations

import random

from repro.baselines import PaxosCluster, TwoPhaseCommitCluster
from repro.claims.cluster import commit_stream, noisy
from repro.claims.table import Table
from repro.db.cluster import AuroraCluster
from repro.db.driver import BoxcarMode
from repro.multiwriter import MultiWriterCluster
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.workloads import percentile

C1_COMMITS = 150
#: 2 % of messages from a busy node: intra-AZ 3 ms, cross-AZ 8 ms medians.
C1_NOISE = (3.0, 8.0, 0.02)


def _noisy_network(seed: int) -> tuple[EventLoop, Network]:
    """A bare loop and network for a baseline protocol, with the latency
    models the Aurora cluster beside it runs on."""
    loop = EventLoop()
    models = noisy(*C1_NOISE)
    return loop, Network(
        loop, random.Random(seed), intra_az=models["intra_az_latency"],
        cross_az=models["cross_az_latency"],
    )


def _two_phase_latencies(loop, network, rng, count: int,
                         participants: int = 6, slow: str = "") -> list[float]:
    """``count`` 2PC commits; ``slow`` names a participant 25x slower."""
    tpc = TwoPhaseCommitCluster(
        loop, network, rng, participant_count=participants
    )
    if slow:
        network.set_latency_scale(slow, 25.0)
    futures = [tpc.commit() for _ in range(count)]
    loop.run_until_idle()
    assert all(f.done for f in futures)
    return tpc.coordinator.commit_latencies


def c1_commit_latency(backend: str) -> list[Table]:
    def aurora(pipelined: bool) -> tuple[list[float], float]:
        cluster = AuroraCluster.build(
            seed=301, backend=backend, **noisy(*C1_NOISE)
        )
        db = cluster.session()
        keys = [f"k{i:03d}" for i in range(C1_COMMITS)]
        if pipelined:
            # Paced open-loop arrivals; nobody waits synchronously.
            futures, _acked = commit_stream(cluster, db, keys, 0.4)
            for future in futures:
                db.drive(future)
        else:  # ablation D2: one commit at a time
            for value, key in enumerate(keys):
                db.write(key, value)
        messages = cluster.network.stats.messages_sent
        return cluster.writer.stats.commit_latencies, messages / C1_COMMITS

    def paxos() -> tuple[list[float], float]:
        loop, network = _noisy_network(302)
        cluster = PaxosCluster(
            loop, network, random.Random(302), acceptor_count=6
        )
        election = cluster.elect()
        loop.run_until_idle()
        assert election.result()
        base_messages = network.stats.messages_sent
        futures = [cluster.propose(i) for i in range(C1_COMMITS)]
        loop.run_until_idle()
        assert all(f.done for f in futures)
        per_commit = (network.stats.messages_sent - base_messages) / C1_COMMITS
        return cluster.leader.commit_latencies, per_commit

    def two_phase() -> tuple[list[float], float]:
        loop, network = _noisy_network(303)
        latencies = _two_phase_latencies(
            loop, network, random.Random(303), C1_COMMITS
        )
        return latencies, network.stats.messages_sent / C1_COMMITS

    def summary(name: str, latencies: list[float], msgs: float) -> list:
        p50, p99 = percentile(latencies, 0.5), percentile(latencies, 0.99)
        mean = sum(latencies) / len(latencies)
        return [name, p50, p99, p99 / p50, max(latencies) / mean, msgs]

    latency = Table(
        f"C1: commit latency over {C1_COMMITS} commits (ms)",
        ["system", ("p50", ".3f"), ("p99", ".3f"), ("p99/p50", ".2f"),
         ("peak/avg", ".2f"), ("msgs/commit", ".1f")],
        [
            summary(f"Aurora ({backend} backend)", *aurora(pipelined=True)),
            summary(f"Aurora sync ({backend} backend)",
                    *aurora(pipelined=False)),
            summary("Multi-Paxos / write", *paxos()),
            summary("2PC / write", *two_phase()),
        ],
    )

    def burst(name: str, mode: BoxcarMode) -> list:
        cluster = AuroraCluster.build(
            seed=306, backend=backend, **noisy(*C1_NOISE), boxcar_mode=mode
        )
        db = cluster.session()
        # Concurrent open-loop burst: all workers enqueue at once, so
        # consecutive records share boxcar windows.
        futures, _acked = commit_stream(
            cluster, db, [f"k{i:03d}" for i in range(C1_COMMITS)]
        )
        for future in futures:
            db.drive(future)
        by_type = cluster.network.stats.by_type
        batches = by_type["WriteBatch"]
        records = by_type.get("WriteBatch.records", batches)
        return [name, batches, records, records / batches]

    batching = Table(
        f"C1c: WriteBatch messages for {C1_COMMITS} burst commits",
        ["driver", "WriteBatch msgs", "records carried",
         ("records/batch", ".1f")],
        [burst("Aurora boxcar (0.05ms)", BoxcarMode.AURORA),
         burst("Immediate (unbatched)", BoxcarMode.IMMEDIATE)],
    )

    # A degraded (not dead) participant: the write quorum (4/6, or 2/3 of
    # the Taurus log stores) ignores it; 2PC's unanimity must include it.
    cluster = AuroraCluster.build(
        seed=304, backend=backend, **noisy(*C1_NOISE)
    )
    cluster.failures.slow_node("pg0-a", 25.0)
    db = cluster.session()
    futures, _acked = commit_stream(
        cluster, db, [f"k{i}" for i in range(80)]
    )
    for future in futures:
        db.drive(future)
    aurora_slow = cluster.writer.stats.commit_latencies
    tpc_slow = _two_phase_latencies(
        *_noisy_network(305), random.Random(305), 80, slow="tpc-p0"
    )
    slow_node = Table(
        "C1b: one degraded node (25x slower), commit ms",
        ["system", ("p50", ".3f"), ("p99", ".3f")],
        [
            ["Aurora 4/6 (slow node)", percentile(aurora_slow, 0.5),
             percentile(aurora_slow, 0.99)],
            ["2PC all-of-6 (slow node)", percentile(tpc_slow, 0.5),
             percentile(tpc_slow, 0.99)],
        ],
    )
    return [latency, batching, slow_node]


# ----------------------------------------------------------------------
# E1: the multi-writer journal
# ----------------------------------------------------------------------
E1_ROUNDS = 60


def _cross_partition_keys(mw: MultiWriterCluster) -> list[str]:
    by_partition = {}
    i = 0
    while len(by_partition) < 2:
        key = f"key-{i}"
        by_partition.setdefault(mw.partition_of(key), key)
        i += 1
    return list(by_partition.values())


def e1_multiwriter(backend: str) -> list[Table]:
    mw = MultiWriterCluster(partition_count=2, seed=901, backend=backend)
    session = mw.session()
    k_a, k_b = _cross_partition_keys(mw)
    cross, single = [], []
    for i in range(E1_ROUNDS):
        start = mw.loop.now
        txn = session.begin()
        session.put(txn, k_a, i)
        session.put(txn, k_b, i)
        session.commit(txn)
        cross.append(mw.loop.now - start)
        start = mw.loop.now
        session.write(k_a, i)  # single-partition fast path
        single.append(mw.loop.now - start)
    # Two participants: the two "partitions" of the cross transaction.
    loop, rng = EventLoop(), random.Random(902)
    tpc = _two_phase_latencies(
        loop, Network(loop, rng), rng, E1_ROUNDS, participants=2
    )
    latency = Table(
        f"E1: multi-writer commit latency, {E1_ROUNDS} txns (ms)",
        ["path", ("p50", ".3f"), ("p99", ".3f")],
        [
            [name, percentile(series, 0.5), percentile(series, 0.99)]
            for name, series in (
                ("journal (cross-partition)", cross),
                ("single-partition fast path", single),
                ("2PC between partitions", tpc),
            )
        ],
    )

    # 2PC's blocking window versus the journal: after the commit point a
    # dead participant blocks nothing -- it replays on recovery.
    mw = MultiWriterCluster(partition_count=2, seed=903, backend=backend)
    session = mw.session()
    k_a, k_b = _cross_partition_keys(mw)
    txn = session.begin()
    session.put(txn, k_a, "pre")
    session.put(txn, k_b, "pre")
    session.commit(txn)
    # Sequence another one at the journal; crash a participant before it
    # applies (the 2PC-blocking analogue).
    victim, other = mw.partition_of(k_a), mw.partition_of(k_b)
    entry = session.drive(
        mw.journal.append(
            "in-doubt",
            {victim: [(k_a, "decided")], other: [(k_b, "decided")]},
        )
    )
    mw.crash_partition(victim)
    # The other partition proceeds at once, and its traffic flows freely.
    session.drive(mw.appliers[other].ensure_applied(entry.gsn))
    other_value = session.get(k_b)
    session.write(k_b, "still-writing")
    # Recover the victim: the decided transaction replays.
    recover_start = mw.loop.now
    session.drive(mw.recover_partition(victim))
    recovery_ms = mw.loop.now - recover_start
    crash = Table(
        "E1b: a participant crashes after the journal append",
        ["survivor applied immediately", "victim after replay",
         ("recovery+replay (ms)", ".1f")],
        [[repr(other_value), repr(session.get(k_a)), recovery_ms]],
    )
    return [latency, crash]
