"""Integration tests for the storage driver: boxcar modes, acknowledgement
processing, hedged reads, and quorum RPC."""

import pytest

from repro import AuroraCluster, ClusterConfig
from repro.db.driver import BoxcarMode


def build(boxcar_mode=BoxcarMode.AURORA, seed=31, **driver_overrides):
    config = ClusterConfig(seed=seed)
    config.instance.driver.boxcar_mode = boxcar_mode
    for key, value in driver_overrides.items():
        setattr(config.instance.driver, key, value)
    return AuroraCluster.build(config)


class TestBoxcarModes:
    def test_aurora_mode_batches_without_waiting(self):
        cluster = build(BoxcarMode.AURORA, submit_delay=0.05)
        db = cluster.session()
        txn = db.begin()
        for i in range(8):
            db.put(txn, f"k{i}", i)
        db.commit(txn)
        stats = cluster.writer.driver.stats
        # Every record waited at most the submit delay.
        assert stats.boxcar_delays
        assert max(stats.boxcar_delays) <= 0.05 + 1e-9

    def test_timeout_mode_waits_under_low_load(self):
        cluster = build(
            BoxcarMode.TIMEOUT, boxcar_timeout=4.0, boxcar_max_records=32
        )
        db = cluster.session()
        db.write("lonely", 1)  # single record: must wait out the timer
        stats = cluster.writer.driver.stats
        assert max(stats.boxcar_delays) >= 4.0

    def test_timeout_mode_flushes_when_full(self):
        cluster = build(
            BoxcarMode.TIMEOUT, boxcar_timeout=50.0, boxcar_max_records=4
        )
        db = cluster.session()
        txn = db.begin()
        for i in range(8):  # two full boxcars, no timer needed
            db.put(txn, f"k{i}", i)
        db.commit(txn)
        stats = cluster.writer.driver.stats
        # The data records flush on the size trigger; only the lone commit
        # record is stuck behind the boxcar timer -- exactly the
        # low-load jitter the paper criticises about timeout boxcars.
        fast = [d for d in stats.boxcar_delays if d < 50.0]
        assert len(fast) >= 8
        assert max(stats.boxcar_delays) >= 50.0

    def test_immediate_mode_never_delays(self):
        cluster = build(BoxcarMode.IMMEDIATE)
        db = cluster.session()
        txn = db.begin()
        for i in range(5):
            db.put(txn, f"k{i}", i)
        db.commit(txn)
        stats = cluster.writer.driver.stats
        assert all(d == 0.0 for d in stats.boxcar_delays)

    def test_aurora_batches_more_than_immediate(self):
        """Same workload, fewer network operations under AURORA batching."""
        def batches_for(mode):
            cluster = build(mode, seed=77)
            db = cluster.session()
            txn = db.begin()
            for i in range(20):
                db.put(txn, f"k{i}", i)
            db.commit(txn)
            return cluster.writer.driver.stats.batches_sent

        assert batches_for(BoxcarMode.AURORA) < batches_for(
            BoxcarMode.IMMEDIATE
        )


class TestAckProcessing:
    def test_pgcl_vcl_advance_from_acks(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        driver = cluster.writer.driver
        assert driver.pg_trackers[0].pgcl >= 1
        assert driver.vcl >= 1
        assert driver.vdl >= 1
        assert driver.stats.acks_received >= 4

    def test_commit_not_acked_without_quorum(self):
        """Kill three segments: 4/6 is unreachable, commits hang forever."""
        cluster = AuroraCluster.build(ClusterConfig(seed=41))
        for name in ("pg0-d", "pg0-e", "pg0-f"):
            cluster.failures.crash_node(name)
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        future = db.commit_async(txn)
        cluster.run_for(500)
        assert not future.done  # correctly refuses to ack below quorum

    def test_commit_resumes_when_quorum_restored(self):
        cluster = AuroraCluster.build(ClusterConfig(seed=42))
        for name in ("pg0-d", "pg0-e", "pg0-f"):
            cluster.failures.crash_node(name)
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        future = db.commit_async(txn)
        cluster.run_for(100)
        assert not future.done
        cluster.failures.restore_node("pg0-d")
        cluster.run_for(300)  # gossip refills pg0-d, acks flow
        assert future.done


class TestHedgedReads:
    def _cold_cache_cluster(self, **driver_overrides):
        config = ClusterConfig(seed=88)
        config.instance.cache_capacity = 8
        for key, value in driver_overrides.items():
            setattr(config.instance.driver, key, value)
        cluster = AuroraCluster.build(config)
        db = cluster.session()
        for i in range(200):
            db.write(f"key{i:03d}", i)
        cluster.run_for(50)
        return cluster, db

    def test_reads_are_single_io_not_quorum(self):
        cluster, db = self._cold_cache_cluster()
        stats = cluster.writer.driver.stats
        issued_before = stats.reads_issued
        completed_before = stats.reads_completed
        for i in range(0, 200, 5):
            assert db.get(f"key{i:03d}") == i
        issued = stats.reads_issued - issued_before
        completed = stats.reads_completed - completed_before
        assert completed > 0
        # Far fewer I/Os than a 3x read quorum would need.
        assert issued < completed * 1.5

    def test_hedge_caps_latency_with_a_slow_segment(self):
        cluster, db = self._cold_cache_cluster(
            hedge_multiplier=3.0, hedge_sweep_interval=0.5
        )
        # Make the currently-fastest segments slow mid-run.
        cluster.failures.slow_node("pg0-a", 100.0)
        cluster.failures.slow_node("pg0-b", 100.0)
        for i in range(0, 200, 3):
            assert db.get(f"key{i:03d}") == i
        assert cluster.writer.driver.stats.hedges_issued > 0

    def test_read_from_dead_segment_recovers_via_hedge(self):
        cluster, db = self._cold_cache_cluster(hedge_sweep_interval=0.5)
        # Warm the latency tracker so some segment is "fastest", then kill
        # whichever it is: the hedge must rescue outstanding reads.
        victim = cluster.writer.driver.latency_tracker.ranked(
            [f"pg0-{c}" for c in "abcdef"]
        )[0]
        cluster.failures.crash_node(victim)
        for i in range(0, 200, 7):
            assert db.get(f"key{i:03d}") == i

    def test_exploration_refreshes_latency_stats(self):
        cluster, db = self._cold_cache_cluster(explore_probability=0.5)
        for i in range(0, 200, 2):
            db.get(f"key{i:03d}")
        assert cluster.writer.driver.stats.explores_issued > 0


class TestQuorumRPC:
    def test_scan_collects_beyond_minimal_quorum(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        replies = db.drive(cluster.writer.driver.scan_pg(0))
        # All six answered (grace period collects everyone reachable).
        assert len(replies) == 6

    def test_scan_succeeds_with_three_nodes_down(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        for name in ("pg0-a", "pg0-b", "pg0-c"):
            cluster.failures.crash_node(name)
        replies = db.drive(cluster.writer.driver.scan_pg(0))
        assert len(replies) == 3  # exactly the read quorum

    def test_scan_fails_below_read_quorum(self, cluster):
        from repro.errors import SegmentUnavailableError

        db = cluster.session()
        db.write("a", 1)
        for name in ("pg0-a", "pg0-b", "pg0-c", "pg0-d"):
            cluster.failures.crash_node(name)
        with pytest.raises(SegmentUnavailableError):
            db.drive(cluster.writer.driver.scan_pg(0))


class TestWriteFanOut:
    def test_fan_out_follows_the_membership_state_not_the_flush(self):
        """The sorted write-target tuple is derived once per membership
        state.  A replacement installs new state objects, and the very
        next flush ships to whoever is a member then -- whether or not
        anybody told this driver (a superseded writer is never told)."""
        cluster = build()
        db = cluster.session()
        db.write("before", 1)
        driver = cluster.writer.driver
        metadata = cluster.metadata
        steady = driver._write_members(0)
        assert steady == tuple(sorted(metadata.membership(0).members))
        assert driver._write_members(0) is steady  # same state: same tuple
        candidate = db.drive(cluster.replace_segment(0, "pg0-f"))
        during = driver._write_members(0)
        assert set(during) == metadata.membership(0).members
        assert during is not steady
        sent = []
        send = driver._send
        driver._send = lambda member, batch: (
            sent.append(member), send(member, batch)
        )
        db.write("after", 2)
        assert sorted(set(sent)) == list(during)
        assert candidate in during and "pg0-f" not in during
