"""Deeper fault-path tests for the consensus baselines."""

import random

import pytest

from repro.baselines.paxos import PaxosCluster, PaxosLeader
from repro.sim.events import EventLoop
from repro.sim.network import Network


def make_env(seed):
    loop = EventLoop()
    rng = random.Random(seed)
    return loop, Network(loop, rng), rng


class TestPaxosBallots:
    def test_higher_ballot_preempts_and_nacks(self):
        loop, network, rng = make_env(24)
        paxos = PaxosCluster(loop, network, rng, acceptor_count=5)
        paxos.elect()
        loop.run_until_idle()
        assert paxos.leader.elected
        # A rival leader with a higher ballot takes over.
        rival = PaxosLeader(
            "paxos-rival",
            [a.name for a in paxos.acceptors],
            rng,
            ballot=paxos.leader.ballot + 1,
        )
        network.attach(rival, az="az2")
        election = rival.elect()
        loop.run_until_idle()
        assert election.result() is True
        # The old leader's next accept gets NACKed and it steps down.
        paxos.leader.propose("stale")
        loop.run_until_idle()
        assert not paxos.leader.elected

    def test_promise_reports_prior_acceptances(self):
        """Phase-1 promises carry previously accepted values (the safety
        core of Paxos: a new leader must adopt them)."""
        loop, network, rng = make_env(25)
        paxos = PaxosCluster(loop, network, rng, acceptor_count=3)
        paxos.elect()
        loop.run_until_idle()
        future = paxos.propose("chosen-before-takeover")
        loop.run_until_idle()
        assert future.done
        rival = PaxosLeader(
            "paxos-rival",
            [a.name for a in paxos.acceptors],
            rng,
            ballot=paxos.leader.ballot + 1,
        )
        network.attach(rival, az="az3")
        promises = []
        original = rival._on_promise

        def spy(promise):
            promises.append(promise)
            original(promise)

        rival._on_promise = spy
        rival.elect()
        loop.run_until_idle()
        assert any(
            any(value == "chosen-before-takeover" for _s, _b, value in p.accepted)
            for p in promises
        )


class TestFullTailMultiPG:
    def test_multi_pg_full_tail_cluster_end_to_end(self):
        from repro import AuroraCluster
        from repro.db.session import Session

        cluster = AuroraCluster.build(
            seed=26, pg_count=2, blocks_per_pg=16, full_tail=True
        )
        db = cluster.session()
        for i in range(140):
            db.write(f"key{i:03d}", i)
        # Reads route only to full segments in BOTH PGs.
        cluster.run_for(30)
        for i in range(0, 140, 9):
            assert db.get(f"key{i:03d}") == i
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        assert db.get("key123") == 123

    def test_replica_reads_on_full_tail_cluster(self):
        from repro import AuroraCluster
        from repro.db.instance import InstanceConfig

        cluster = AuroraCluster.build(
            seed=27,
            full_tail=True,
            replica=InstanceConfig(cache_capacity=8),  # force storage reads
        )
        db = cluster.session()
        for i in range(60):
            db.write(f"key{i:03d}", i)
        cluster.run_for(30)
        cluster.add_replica("r1")
        rs = cluster.replica_session("r1")
        for i in range(0, 60, 7):
            assert rs.get(f"key{i:03d}") == i
        # Tail segments answered no block reads.
        from repro.storage.segment import SegmentKind

        for node in cluster.nodes.values():
            if node.segment.kind is SegmentKind.TAIL:
                assert node.counters["reads_answered"] == 0
