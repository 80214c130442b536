"""C1 -- commit latency: Aurora quorum acks versus consensus per write.

The paper (section 1) claims systems built on 2PC / Paxos "have
order-of-magnitude worse cost, performance, and peak to average latency
than a traditional relational database", and section 2.3 that distributed
commit protocols are "heavyweight and introduce[] stalls and jitter into
the write path".

This bench runs the same commit stream through four systems on identical
simulated networks (same AZ topology, same latency distributions, fresh
seeds per system):

- Aurora (this library): async one-way records + 4/6 quorum acks;
- Aurora-sync ablation (D2): same quorum, but commits issued one at a
  time (a synchronous write path);
- Multi-Paxos (stable leader, consensus round per commit);
- 2PC (two sequential rounds + forced writes per commit).

Expected shape: Aurora p50 is in the same ballpark as Paxos phase-2 (both
are one quorum round trip) but Aurora's p99/p50 and peak-to-average stay
flat while 2PC roughly doubles the latency and everything except Aurora
suffers more under a slow node (tail amplification).
"""

import random

from repro import AuroraCluster, ClusterConfig
from repro.baselines import PaxosCluster, TwoPhaseCommitCluster
from repro.sim.events import EventLoop
from repro.sim.latency import CompositeLatency, LogNormalLatency
from repro.sim.network import Network

from .conftest import fmt, percentile, print_table

COMMITS = 150


def _noisy_models():
    """Latency models with occasional slow outliers (a busy node)."""
    return (
        CompositeLatency(
            LogNormalLatency(0.25, 0.35), LogNormalLatency(3.0, 0.4), 0.02
        ),
        CompositeLatency(
            LogNormalLatency(1.0, 0.40), LogNormalLatency(8.0, 0.4), 0.02
        ),
    )


def _noisy_network(loop, seed):
    intra, cross = _noisy_models()
    return Network(loop, random.Random(seed), intra_az=intra, cross_az=cross)


def _noisy_cluster(seed, backend="aurora"):
    intra, cross = _noisy_models()
    config = ClusterConfig(
        seed=seed, intra_az_latency=intra, cross_az_latency=cross,
        backend=backend,
    )
    return AuroraCluster.build(config)


def aurora_latencies(pipelined=True, backend="aurora"):
    cluster = _noisy_cluster(seed=301, backend=backend)
    db = cluster.session()
    if pipelined:
        # Paced open-loop arrivals: workers enqueue commits and move on
        # (the paper's worker-thread model); nobody waits synchronously.
        futures = []
        for i in range(COMMITS):
            txn = db.begin()
            db.put(txn, f"k{i:03d}", i)
            futures.append(db.commit_async(txn))
            cluster.run_for(0.4)
        for future in futures:
            db.drive(future)
    else:
        for i in range(COMMITS):
            db.write(f"k{i:03d}", i)
    messages = cluster.network.stats.messages_sent
    return cluster.writer.stats.commit_latencies, messages / COMMITS


def paxos_latencies():
    loop = EventLoop()
    network = _noisy_network(loop, seed=302)
    paxos = PaxosCluster(loop, network, random.Random(302), acceptor_count=6)
    election = paxos.elect()
    loop.run_until_idle()
    assert election.result()
    base_messages = network.stats.messages_sent
    futures = [paxos.propose(i) for i in range(COMMITS)]
    loop.run_until_idle()
    assert all(f.done for f in futures)
    per_commit = (network.stats.messages_sent - base_messages) / COMMITS
    return paxos.leader.commit_latencies, per_commit


def tpc_latencies():
    loop = EventLoop()
    network = _noisy_network(loop, seed=303)
    tpc = TwoPhaseCommitCluster(
        loop, network, random.Random(303), participant_count=6
    )
    futures = [tpc.commit() for _ in range(COMMITS)]
    loop.run_until_idle()
    assert all(f.done for f in futures)
    per_commit = network.stats.messages_sent / COMMITS
    return tpc.coordinator.commit_latencies, per_commit


def summarize(name, latencies, msgs):
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    mean = sum(latencies) / len(latencies)
    return [
        name, fmt(p50), fmt(p99), fmt(p99 / p50, 2),
        fmt(max(latencies) / mean, 2), fmt(msgs, 1),
    ]


def test_c1_commit_latency_comparison(benchmark, bench_backend):
    def run_all():
        return {
            "aurora": aurora_latencies(
                pipelined=True, backend=bench_backend
            ),
            "aurora-sync": aurora_latencies(
                pipelined=False, backend=bench_backend
            ),
            "paxos": paxos_latencies(),
            "2pc": tpc_latencies(),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    label = f"{bench_backend} backend"
    rows = [
        summarize(f"Aurora ({label})", *results["aurora"]),
        summarize(f"Aurora sync ({label})", *results["aurora-sync"]),
        summarize("Multi-Paxos / write", *results["paxos"]),
        summarize("2PC / write", *results["2pc"]),
    ]
    print_table(
        f"C1: commit latency over {COMMITS} commits (ms)",
        ["system", "p50", "p99", "p99/p50", "peak/avg", "msgs/commit"],
        rows,
    )
    aurora_lat, aurora_msgs = results["aurora"]
    paxos_lat, _ = results["paxos"]
    tpc_lat, tpc_msgs = results["2pc"]
    # Shape: Aurora's median commit is at least as fast as both
    # consensus-per-write baselines (one-way records + quorum acks beat a
    # consensus round + forced acceptor writes).
    assert percentile(aurora_lat, 0.5) <= percentile(paxos_lat, 0.5)
    assert percentile(aurora_lat, 0.5) <= percentile(tpc_lat, 0.5)
    # The paper's peak-to-average claim: 2PC's tail blows up (it must hear
    # from EVERY participant, so outliers always land on the critical
    # path) while Aurora's quorum keeps p99/p50 flat.
    aurora_ratio = percentile(aurora_lat, 0.99) / percentile(aurora_lat, 0.5)
    tpc_ratio = percentile(tpc_lat, 0.99) / percentile(tpc_lat, 0.5)
    assert tpc_ratio > 2 * aurora_ratio
    # And batching means far fewer network operations per commit.
    assert aurora_msgs < tpc_msgs


def test_c1_boxcar_write_batching(benchmark):
    """Boxcar batching on the C1 commit stream: the same burst of commits
    crosses the network in >=5x fewer WriteBatch messages than an
    unbatched (IMMEDIATE) driver, while carrying the same records."""
    from repro.db.driver import BoxcarMode

    def run_mode(mode, seed):
        intra, cross = _noisy_models()
        config = ClusterConfig(
            seed=seed, intra_az_latency=intra, cross_az_latency=cross
        )
        config.instance.driver.boxcar_mode = mode
        cluster = AuroraCluster.build(config)
        db = cluster.session()
        # Concurrent open-loop burst: all workers enqueue at once, so
        # consecutive records share boxcar windows (the C1 worker model).
        futures = []
        for i in range(COMMITS):
            txn = db.begin()
            db.put(txn, f"k{i:03d}", i)
            futures.append(db.commit_async(txn))
        for future in futures:
            db.drive(future)
        stats = cluster.network.stats
        batches = stats.by_type["WriteBatch"]
        records = stats.by_type.get("WriteBatch.records", batches)
        return batches, records

    def run():
        return {
            "aurora": run_mode(BoxcarMode.AURORA, seed=306),
            "immediate": run_mode(BoxcarMode.IMMEDIATE, seed=306),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    aurora_batches, aurora_records = results["aurora"]
    imm_batches, imm_records = results["immediate"]
    print_table(
        f"C1c: WriteBatch messages for {COMMITS} burst commits",
        ["driver", "WriteBatch msgs", "records carried", "records/batch"],
        [
            ["Aurora boxcar (0.05ms)", aurora_batches, aurora_records,
             fmt(aurora_records / aurora_batches, 1)],
            ["Immediate (unbatched)", imm_batches, imm_records,
             fmt(imm_records / imm_batches, 1)],
        ],
    )
    # Same workload, same records on the wire -- in >=5x fewer messages.
    assert aurora_records == imm_records
    assert imm_batches >= 5 * aurora_batches


def test_c1_tail_under_slow_node(benchmark, bench_backend):
    """A degraded (not dead) participant: the write quorum (4/6, or 2/3 of
    the Taurus log stores) ignores it; Paxos/2PC latency follows whichever
    majority/unanimity includes it."""

    def run():
        # Aurora with one slow segment (a log store under Taurus).
        cluster = _noisy_cluster(seed=304, backend=bench_backend)
        cluster.failures.slow_node("pg0-a", 25.0)
        db = cluster.session()
        futures = []
        for i in range(80):
            txn = db.begin()
            db.put(txn, f"k{i}", i)
            futures.append(db.commit_async(txn))
        for future in futures:
            db.drive(future)
        aurora = cluster.writer.stats.commit_latencies

        # 2PC with one slow participant (unanimity must include it).
        loop = EventLoop()
        network = _noisy_network(loop, seed=305)
        tpc = TwoPhaseCommitCluster(
            loop, network, random.Random(305), participant_count=6
        )
        network.set_latency_scale("tpc-p0", 25.0)
        tpc_futures = [tpc.commit() for _ in range(80)]
        loop.run_until_idle()
        assert all(f.done for f in tpc_futures)
        return aurora, tpc.coordinator.commit_latencies

    aurora, tpc = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["Aurora 4/6 (slow node)", fmt(percentile(aurora, 0.5)),
         fmt(percentile(aurora, 0.99))],
        ["2PC all-of-6 (slow node)", fmt(percentile(tpc, 0.5)),
         fmt(percentile(tpc, 0.99))],
    ]
    print_table("C1b: one degraded node (25x slower), commit ms",
                ["system", "p50", "p99"], rows)
    # Aurora's quorum masks the slow node entirely; 2PC absorbs it fully.
    assert percentile(aurora, 0.99) < percentile(tpc, 0.5)

