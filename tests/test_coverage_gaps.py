"""Targeted tests for paths the broader suites exercise only incidentally."""

import pytest

from repro import AuroraCluster
from repro.core.consistency import PGConsistencyTracker
from repro.core.quorum import aurora_v6_config
from repro.errors import ConfigurationError


class TestPutMany:
    def test_put_many_locks_in_deterministic_order(self, cluster):
        db = cluster.session()
        txn = db.begin()
        db.drive(
            cluster.writer.put_many(
                txn, [("b", 2), ("a", 1), ("c", 3)]
            )
        )
        db.commit(txn)
        assert db.scan("a", "c") == [("a", 1), ("b", 2), ("c", 3)]

    def test_put_many_conflict_aborts_cleanly(self, cluster):
        db = cluster.session()
        holder = db.begin()
        db.put(holder, "b", 0)
        victim = db.begin()
        from repro.errors import LockConflictError

        with pytest.raises(LockConflictError):
            db.drive(cluster.writer.put_many(victim, [("a", 1), ("b", 2)]))
        db.rollback(victim)
        db.commit(holder)
        assert db.get("b") == 0
        assert db.get("a") is None


class TestDriverFlushAll:
    def test_flush_all_forces_pending_boxcars_out(self):
        from repro.db.driver import BoxcarMode

        cluster = AuroraCluster.build(
            seed=101,
            boxcar_mode=BoxcarMode.TIMEOUT,
            boxcar_timeout=10_000.0,  # never on its own
        )
        # build() already settles the bootstrap via the long timer... so
        # measure batches before/after an explicit flush of new traffic.
        db = cluster.session()
        txn = db.begin()
        process = db.spawn(cluster.writer.put(txn, "k", 1))
        cluster.run_for(1.0)
        assert process.finished
        before = cluster.writer.driver.stats.batches_sent
        cluster.writer.driver.flush_all()
        assert cluster.writer.driver.stats.batches_sent > before


class TestTrackerIntrospection:
    def test_member_scls_snapshot_is_a_copy(self):
        tracker = PGConsistencyTracker(0, aurora_v6_config())
        member = sorted(tracker.config.members)[0]
        tracker.record_ack(member, 9)
        snapshot = tracker.member_scls
        snapshot[member] = 999
        assert tracker.member_scls[member] == 9


class TestReplicaStreamEdgeCases:
    def test_duplicate_chunks_are_idempotent(self, cluster):
        """Re-delivering already-applied chunks changes nothing."""
        from repro.db.replication import MTRChunk, ReplicationFrame

        replica = cluster.add_replica("r1")
        db = cluster.session()

        # Capture the real replication chunks off the wire (the stream is
        # boxcarred, so chunks may arrive inside a ReplicationFrame).
        captured = []

        def _tap(m):
            items = (
                m.payload.items
                if isinstance(m.payload, ReplicationFrame)
                else (m.payload,)
            )
            captured.extend(i for i in items if isinstance(i, MTRChunk))

        cluster.network.add_tap(_tap)
        db.write("a", 1)
        cluster.run_for(20)
        assert captured
        applied_before = replica.stats.chunks_applied
        value_before = cluster.replica_session("r1").get("a")
        for chunk in captured:  # duplicate delivery
            replica._on_chunk(chunk)
        assert replica.stats.chunks_applied == applied_before
        assert cluster.replica_session("r1").get("a") == value_before == 1

    def test_offline_replica_misses_then_reattaches(self, cluster):
        db = cluster.session()
        replica = cluster.add_replica("r1")
        db.write("before", 1)
        cluster.run_for(20)
        cluster.network.fail_node("r1")
        db.write("while-down", 2)
        cluster.run_for(20)
        cluster.network.restore_node("r1")
        # The stream has a gap the replica can never fill by itself;
        # re-attach (the cluster-level remedy) restores service.
        cluster.remove_replica("r1")
        cluster.replicas["r1"] = replica
        replica.start()
        replica.attach(
            next_expected_lsn=cluster.writer.allocator.next_lsn,
            vdl=cluster.writer.vdl,
            pg_frontiers=cluster.writer.frontiers.frontier_at(
                cluster.writer.vdl
            ),
            commit_history=cluster.writer.registry.known_commits(),
        )
        cluster.writer.publisher.attach_replica("r1")
        rs = cluster.replica_session("r1")
        assert rs.get("while-down") == 2
        assert rs.get("before") == 1


class TestBaselineApplicationToTail:
    def test_tail_segment_hydration_skips_blocks(self):
        from repro.storage.messages import BaselineResponse
        from repro.storage.segment import SegmentKind

        cluster = AuroraCluster.build(seed=102, full_tail=True)
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(8)})
        cluster.run_for(20)
        # Build a fresh tail candidate and hydrate it from a full peer.
        cluster.failures.crash_node("pg0-b")  # a tail slot
        candidate_id = cluster.begin_segment_replacement(0, "pg0-b")
        candidate = cluster.nodes[candidate_id]
        assert candidate.segment.kind is SegmentKind.TAIL
        db.drive(cluster.hydrate_segment(0, candidate_id))
        cluster.finalize_segment_replacement(0, "pg0-b")
        assert candidate.segment.blocks == {}  # tails never materialize
        tracker = cluster.writer.driver.pg_trackers[0]
        assert candidate.segment.scl >= tracker.pgcl


class TestWorkloadStatsEdges:
    def test_percentile_of_empty_series(self):
        from repro.workloads import percentile
        from repro.workloads.generator import RunnerStats

        stats = RunnerStats()
        assert percentile([], 0.99) == 0.0
        assert stats.summary()["p50_ms"] == 0.0
        assert stats.summary()["peak_to_average"] == 0.0


class TestGrowVolumeGuards:
    def test_instance_refuses_addressing_beyond_geometry(self):
        cluster = AuroraCluster.build(seed=103, blocks_per_pg=12)
        db = cluster.session()
        from repro.errors import SimulationError, VolumeGeometryError

        with pytest.raises((VolumeGeometryError, SimulationError)):
            for i in range(500):  # overflow the 12-block volume
                db.write(f"key{i:04d}", i)

    def test_grow_then_fill_succeeds(self):
        cluster = AuroraCluster.build(seed=104, blocks_per_pg=12)
        db = cluster.session()
        cluster.grow_volume(3)
        for i in range(300):
            db.write(f"key{i:04d}", i)
        assert db.get("key0250") == 250


class TestTombstoneReplication:
    def test_deletes_replicate_to_replicas(self, cluster):
        db = cluster.session()
        cluster.add_replica("r1")
        db.write("gone", 1)
        cluster.run_for(20)
        rs = cluster.replica_session("r1")
        assert rs.get("gone") == 1
        db.remove("gone")
        cluster.run_for(20)
        assert rs.get("gone") is None
        assert db.get("gone") is None

    def test_delete_survives_crash_recovery(self, cluster):
        from repro.db.session import Session

        db = cluster.session()
        db.write("gone", 1)
        db.remove("gone")
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        assert db.get("gone") is None
