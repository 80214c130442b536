"""Tests for the consensus/replication baselines."""

import random

import pytest

from repro.baselines import (
    AriesRecoveryModel,
    LeaseFencing,
    PaxosCluster,
    TwoPhaseCommitCluster,
)
from repro.errors import ConfigurationError
from repro.sim.events import EventLoop
from repro.sim.network import Network


def make_env(seed=7):
    loop = EventLoop()
    rng = random.Random(seed)
    return loop, Network(loop, rng), rng


class TestTwoPhaseCommit:
    def test_commit_completes_with_all_yes(self):
        loop, network, rng = make_env()
        tpc = TwoPhaseCommitCluster(loop, network, rng, participant_count=4)
        future = tpc.commit()
        loop.run_until_idle()
        txn_id, committed = future.result()
        assert committed
        assert all(
            txn_id in p.committed for p in tpc.participants
        )

    def test_one_no_vote_aborts_everywhere(self):
        loop, network, rng = make_env()
        tpc = TwoPhaseCommitCluster(loop, network, rng, participant_count=3)
        tpc.participants[1].vote_yes = False
        future = tpc.commit()
        loop.run_until_idle()
        _txn, committed = future.result()
        assert not committed
        assert all(not p.committed for p in tpc.participants)

    def test_latency_is_two_round_trips_plus_disk(self):
        loop, network, rng = make_env()
        tpc = TwoPhaseCommitCluster(loop, network, rng)
        future = tpc.commit()
        loop.run_until_idle()
        assert future.done
        latency = tpc.coordinator.commit_latencies[0]
        assert latency > 1.0  # 2x cross-AZ RTT + forced writes

    def test_coordinator_crash_blocks_participants(self):
        """The blocking window the paper's design avoids."""
        loop, network, rng = make_env()
        tpc = TwoPhaseCommitCluster(loop, network, rng, participant_count=4)
        future = tpc.commit()
        loop.run(until=1.2)  # prepares delivered, votes in flight
        tpc.crash_coordinator()
        loop.run(until=10_000.0)
        assert not future.done
        assert tpc.blocked_transaction_count() == 4  # stuck prepared

    def test_messages_per_commit(self):
        loop, network, rng = make_env()
        tpc = TwoPhaseCommitCluster(loop, network, rng, participant_count=6)
        tpc.commit()
        loop.run_until_idle()
        # prepare + vote + decision + ack per participant = 4 * 6.
        assert network.stats.messages_sent == 24


class TestPaxos:
    def test_election_then_chosen_values(self):
        loop, network, rng = make_env()
        paxos = PaxosCluster(loop, network, rng, acceptor_count=5)
        election = paxos.elect()
        loop.run_until_idle()
        assert election.result() is True
        futures = [paxos.propose(f"v{i}") for i in range(10)]
        loop.run_until_idle()
        assert [f.result() for f in futures] == list(range(10))

    def test_propose_before_election_rejected(self):
        loop, network, rng = make_env()
        paxos = PaxosCluster(loop, network, rng)
        with pytest.raises(RuntimeError):
            paxos.propose("too-early")

    def test_values_applied_in_slot_order(self):
        """In-order commit: a slow early slot holds back later ones."""
        loop, network, rng = make_env()
        paxos = PaxosCluster(loop, network, rng, acceptor_count=5)
        election = paxos.elect()
        loop.run_until_idle()
        order = []
        for i in range(5):
            paxos.propose(i).add_done_callback(
                lambda f: order.append(f.result())
            )
        loop.run_until_idle()
        assert order == sorted(order)

    def test_tolerates_minority_acceptor_failure(self):
        loop, network, rng = make_env()
        paxos = PaxosCluster(loop, network, rng, acceptor_count=5)
        election = paxos.elect()
        loop.run_until_idle()
        network.fail_node("paxos-a0")
        network.fail_node("paxos-a1")
        future = paxos.propose("survives")
        loop.run_until_idle()
        assert future.done

    def test_blocks_on_majority_failure(self):
        loop, network, rng = make_env()
        paxos = PaxosCluster(loop, network, rng, acceptor_count=5)
        paxos.elect()
        loop.run_until_idle()
        for i in range(3):
            network.fail_node(f"paxos-a{i}")
        future = paxos.propose("stuck")
        loop.run(until=1_000.0)
        assert not future.done


class TestAriesModel:
    def test_recovery_time_proportional_to_log(self):
        model = AriesRecoveryModel()
        assert model.recovery_time_ms(0) == 0.0
        t1 = model.recovery_time_ms(100_000)
        t2 = model.recovery_time_ms(1_000_000)
        assert t2 == pytest.approx(10 * t1)

    def test_checkpoint_tradeoff(self):
        model = AriesRecoveryModel()
        short = model.checkpoint_interval_tradeoff(
            write_rate_per_s=10_000, checkpoint_cost_ms=500, interval_s=30
        )
        long = model.checkpoint_interval_tradeoff(
            write_rate_per_s=10_000, checkpoint_cost_ms=500, interval_s=300
        )
        assert short["worst_case_recovery_ms"] < long["worst_case_recovery_ms"]
        assert short["checkpoint_overhead_pct"] > long["checkpoint_overhead_pct"]

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            AriesRecoveryModel(redo_apply_us=-1)


class TestLeaseFencing:
    def test_fencing_must_wait_out_the_lease(self):
        lease = LeaseFencing(lease_duration_ms=30_000)
        lease.acquire("writer-1", now=0.0)
        assert lease.fencing_wait_ms(now=10_000.0) == 20_000.0
        assert lease.fencing_wait_ms(now=30_000.0) == 0.0

    def test_renewal_extends(self):
        lease = LeaseFencing(lease_duration_ms=10_000)
        lease.acquire("w", now=0.0)
        lease.renew("w", now=8_000.0)
        assert lease.fencing_wait_ms(now=10_000.0) == 8_000.0

    def test_conflicting_acquire_rejected(self):
        lease = LeaseFencing(lease_duration_ms=10_000)
        lease.acquire("w1", now=0.0)
        with pytest.raises(ConfigurationError):
            lease.acquire("w2", now=5_000.0)
        lease.acquire("w2", now=10_000.0)  # expired: fine

    def test_failover_dead_time(self):
        lease = LeaseFencing(lease_duration_ms=30_000)
        lease.renew_interval_ms = 10_000
        lease.acquire("w", now=0.0)
        lease.renew("w", now=9_000.0)  # lease now runs to 39s
        dead = lease.failover_dead_time_ms(
            holder_crash_at=10_000.0, detection_delay_ms=2_000.0
        )
        # 2s detection + 27s residual lease.
        assert dead == pytest.approx(29_000.0)

    def test_expired_renewal_rejected(self):
        lease = LeaseFencing(lease_duration_ms=1_000)
        lease.acquire("w", now=0.0)
        with pytest.raises(ConfigurationError):
            lease.renew("w", now=2_000.0)
