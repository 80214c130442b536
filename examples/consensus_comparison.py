#!/usr/bin/env python3
"""Why avoid distributed consensus?  A head-to-head demonstration.

Runs the same commit workload through Aurora's quorum protocol and through
the two classical alternatives the paper names -- 2PC and Multi-Paxos -- on
identical simulated networks, then injects the failure each design fears
most:

- 2PC: a coordinator crash between votes and decision (participants BLOCK);
- Aurora: a dead segment + a whole-AZ outage (nothing stalls).

The measured, asserted version of this comparison is row C1 of
``python -m repro claims``.

Run:  python examples/consensus_comparison.py
"""

import random

from repro import AuroraCluster
from repro.baselines import PaxosCluster, TwoPhaseCommitCluster
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.workloads import percentile as pct

COMMITS = 60


def main() -> None:
    print(f"=== commit latency, {COMMITS} commits each (ms) ===")

    # Aurora.
    cluster = AuroraCluster.build(seed=41)
    db = cluster.session()
    for i in range(COMMITS):
        db.write(f"k{i}", i)
    aurora = cluster.writer.stats.commit_latencies
    print(f"aurora      p50={pct(aurora, .5):6.2f}  p99={pct(aurora, .99):6.2f}")

    # 2PC.
    loop = EventLoop()
    network = Network(loop, random.Random(42))
    tpc = TwoPhaseCommitCluster(loop, network, random.Random(42))
    futures = [tpc.commit() for _ in range(COMMITS)]
    loop.run_until_idle()
    lat = tpc.coordinator.commit_latencies
    print(f"2PC         p50={pct(lat, .5):6.2f}  p99={pct(lat, .99):6.2f}"
          f"   ({network.stats.messages_sent // COMMITS} msgs/commit)")

    # Multi-Paxos.
    loop = EventLoop()
    network = Network(loop, random.Random(43))
    paxos = PaxosCluster(loop, network, random.Random(43))
    paxos.elect()
    loop.run_until_idle()
    futures = [paxos.propose(i) for i in range(COMMITS)]
    loop.run_until_idle()
    lat = paxos.leader.commit_latencies
    print(f"multi-paxos p50={pct(lat, .5):6.2f}  p99={pct(lat, .99):6.2f}")

    # ------------------------------------------------------------------
    print("\n=== failure behaviour ===")

    # 2PC coordinator crash: the blocking window.
    loop = EventLoop()
    network = Network(loop, random.Random(45))
    tpc = TwoPhaseCommitCluster(loop, network, random.Random(45))
    future = tpc.commit()
    loop.run(until=1.2)
    tpc.crash_coordinator()
    loop.run(until=10_000)
    print(f"2PC, coordinator dies mid-commit: commit resolved={future.done}, "
          f"participants stuck holding locks={tpc.blocked_transaction_count()}")

    # Aurora: a whole AZ down -- writes keep flowing (4/6 still met).
    cluster = AuroraCluster.build(seed=48)
    db = cluster.session()
    db.write("pre", 0)
    cluster.failures.crash_az("az3")  # two of six segments gone
    start = cluster.loop.now
    db.write("during-az-outage", 1)
    print(f"aurora, full AZ down: commit completed in "
          f"{cluster.loop.now - start:.2f} ms (4 of 6 segments still ack)")

    # AZ+1: writes correctly pause (below 4/6), but the volume still has
    # its 3/6 read quorum, so it can REPAIR and resume -- the whole point
    # of six copies (Figure 1).
    cluster.failures.crash_node("pg0-a")
    up = sorted(n for n in cluster.nodes if cluster.network.is_up(n))
    print(f"aurora, AZ+1: segments up = {up} (3/6): writes pause, but the "
          f"read quorum survives, so repair can rebuild the quorum:")
    candidate = cluster.begin_segment_replacement(0, "pg0-a")
    db.drive(cluster.hydrate_segment(0, candidate))
    cluster.finalize_segment_replacement(0, "pg0-a")
    start = cluster.loop.now
    db.write("after-repair", 2)
    print(f"  repaired via membership change ({candidate}); commit in "
          f"{cluster.loop.now - start:.2f} ms; data intact: "
          f"{db.get('pre') == 0}")


if __name__ == "__main__":
    main()
