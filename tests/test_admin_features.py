"""Tests for the administrative flows: heat-management migration,
quorum-model changes, and point-in-time restore."""

import pytest

from repro import AuroraCluster
from repro.db.session import Session
from repro.errors import ConfigurationError, RecoveryError


class TestHeatManagementMigration:
    def test_healthy_segment_migrates_without_downtime(self, cluster):
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(15)})
        source_node = cluster.nodes["pg0-b"]
        process = cluster.migrate_segment(0, "pg0-b")
        # The incumbent keeps serving during the migration.
        assert cluster.network.is_up("pg0-b")
        db.write("during-migration", 1)
        candidate = db.drive(process)
        final = cluster.metadata.membership(0)
        assert candidate in final.members
        assert "pg0-b" not in final.members
        assert not cluster.network.is_up("pg0-b")  # decommissioned after
        for i in range(15):
            assert db.get(f"k{i}") == i
        assert db.get("during-migration") == 1
        # No durable state was discarded before the repair completed.
        assert source_node.segment.hot_log_size >= 0

    def test_migrated_candidate_carries_full_history(self, cluster):
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(10)})
        candidate = db.drive(cluster.migrate_segment(0, "pg0-c"))
        tracker = cluster.writer.driver.pg_trackers[0]
        assert cluster.nodes[candidate].segment.scl >= tracker.pgcl

    def test_serial_migrations_roll_the_whole_fleet(self, cluster):
        """The planned-software-upgrade pattern: replace all six members
        one at a time under live traffic."""
        db = cluster.session()
        db.write("seed", 0)
        for letter in "abc":  # three is plenty for the pattern
            db.drive(cluster.migrate_segment(0, f"pg0-{letter}"))
            db.write(f"after-{letter}", 1)
        members = cluster.metadata.membership(0).members
        assert all(
            f"pg0-{letter}" not in members for letter in "abc"
        )
        assert db.get("seed") == 0


class TestQuorumModelChange:
    def test_degraded_3_of_4_survives_az_plus_one(self, cluster):
        """'moving from a 4/6 write quorum to 3/4 to handle the extended
        loss of an AZ'."""
        db = cluster.session()
        db.write("pre", 0)
        cluster.failures.crash_az("az3")
        db.write("az-down", 1)  # 4/6 still works with 4 up
        config = cluster.adopt_degraded_quorum(0, "az3")
        assert config.write_satisfied(
            set(list(config.members)[:3])
        )
        # One MORE failure: under 4/6 this would stall; under 3/4 it works.
        cluster.failures.crash_node("pg0-a")
        db.write("az-plus-one", 2)
        assert db.get("az-plus-one") == 2

    def test_geometry_epoch_rides_the_change(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        epoch_before = cluster.writer.driver.epochs.geometry
        cluster.failures.crash_az("az2")
        cluster.adopt_degraded_quorum(0, "az2")
        assert cluster.writer.driver.epochs.geometry == epoch_before + 1
        cluster.failures.restore_az("az2")
        cluster.restore_standard_quorum(0)
        assert cluster.writer.driver.epochs.geometry == epoch_before + 2

    def test_restore_standard_quorum_requires_catchup(self, cluster):
        db = cluster.session()
        cluster.failures.crash_az("az1")
        cluster.adopt_degraded_quorum(0, "az1")
        db.write("degraded-write", 1)
        cluster.failures.restore_az("az1")
        cluster.run_for(300)  # gossip refills the returned AZ
        cluster.restore_standard_quorum(0)
        db.write("back-to-v6", 2)
        assert db.get("degraded-write") == 1
        assert db.get("back-to-v6") == 2

    def test_wrong_survivor_count_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.adopt_degraded_quorum(0, "no-such-az")

    def test_override_survives_crash_recovery(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        cluster.failures.crash_az("az3")
        cluster.adopt_degraded_quorum(0, "az3")
        db.write("b", 2)
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)  # recovery under the 3/4 model, AZ still down
        assert db.get("a") == 1
        assert db.get("b") == 2
        db.write("post-recovery", 3)


class TestPointInTimeRestore:
    def _source(self, seed=930):
        cluster = AuroraCluster.build(seed=seed, backup_interval=50.0)
        db = cluster.session()
        for i in range(25):
            db.write(f"key{i:02d}", i)
        cluster.run_for(300)  # several backup cycles
        return cluster, db

    def test_restore_recovers_backed_up_data(self):
        source, _db = self._source()
        restored = AuroraCluster.restore_from_backup(source)
        db = restored.session()
        for i in range(25):
            assert db.get(f"key{i:02d}") == i

    def test_restored_cluster_accepts_new_traffic(self):
        source, _db = self._source(seed=931)
        restored = AuroraCluster.restore_from_backup(source)
        db = restored.session()
        db.write("post-restore", "ok")
        assert db.get("post-restore") == "ok"

    def test_restore_is_a_fork_not_a_takeover(self):
        """The source keeps running; the restored copy diverges."""
        source, sdb = self._source(seed=932)
        restored = AuroraCluster.restore_from_backup(source)
        rdb = restored.session()
        sdb.write("source-only", 1)
        rdb.write("restore-only", 2)
        assert rdb.get("source-only") is None
        assert sdb.get("restore-only") is None

    def test_point_in_time_cut(self):
        """Restoring as-of an early timestamp excludes later writes."""
        source = AuroraCluster.build(seed=933, backup_interval=40.0)
        db = source.session()
        for i in range(10):
            db.write(f"early{i}", i)
        source.run_for(200)
        cut = source.loop.now
        for i in range(10):
            db.write(f"late{i}", i)
        source.run_for(200)
        restored = AuroraCluster.restore_from_backup(source, as_of_ms=cut)
        rdb = restored.session()
        assert rdb.get("early5") == 5
        assert rdb.get("late5") is None

    def test_a_restore_point_older_than_every_retained_snapshot_raises(
        self,
    ):
        """S3 GC keeps the two newest snapshots per segment: once three
        bursts of later writes are backed up, none taken at or before an
        early cut is left.  The restore names what is, instead of coming
        back as an empty volume."""
        source = AuroraCluster.build(seed=935, backup_interval=40.0)
        db = source.session()
        for i in range(10):
            db.write(f"early{i}", i)
        source.run_for(100)
        cut = source.loop.now
        for burst in range(3):
            for i in range(10):
                db.write(f"late{burst}-{i}", i)
            source.run_for(100)
        assert all(obj.taken_at > cut for obj in source.s3.objects.values())
        with pytest.raises(RecoveryError) as caught:
            AuroraCluster.restore_from_backup(source, as_of_ms=cut)
        message = str(caught.value)
        assert "segment pg0-a" in message
        oldest = min(
            (o for o in source.s3.objects.values() if o.segment_id == "pg0-a"),
            key=lambda o: o.taken_at,
        )
        assert f"snapshot {oldest.key} was taken at" in message

    def test_a_restore_point_before_every_page_store_snapshot_raises(self):
        """On Taurus the write quorum is log stores only, and a log store
        restores no block images.  A cut after two log stores' first
        snapshots but before either page store's leaves the write quorum
        covered and no baseline: the restore names a page store and its
        oldest snapshot instead of failing in its crash recovery with no
        full segment to read."""
        source = AuroraCluster.build(
            seed=936, backup_interval=40.0, backend="taurus"
        )
        db = source.session()
        for i in range(10):
            db.write(f"early{i}", i)
        source.run_for(100)
        first: dict[str, float] = {}
        for obj in source.s3.objects.values():
            first[obj.segment_id] = min(
                first.get(obj.segment_id, obj.taken_at), obj.taken_at
            )
        full = {
            p.segment_id for p in source.metadata.full_segments_of_pg(0)
        }
        logs = sorted(t for s, t in first.items() if s not in full)
        pages = min(first[s] for s in full)
        assert logs[1] < pages
        cut = (logs[1] + pages) / 2
        with pytest.raises(RecoveryError) as caught:
            AuroraCluster.restore_from_backup(source, as_of_ms=cut)
        assert f"segment {min(full)} has no snapshot" in str(caught.value)

    def test_restore_survives_its_own_crash(self):
        source, _db = self._source(seed=934)
        restored = AuroraCluster.restore_from_backup(source)
        db = restored.session()
        db.write("x", 1)
        restored.crash_writer()
        process = restored.recover_writer()
        db = Session(restored.writer)
        db.drive(process)
        assert db.get("x") == 1
        assert db.get("key10") == 10
