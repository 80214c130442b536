"""Integration tests for crash recovery, epoch fencing, and durability.

Includes the headline durability property: a commit acknowledged to the
client survives ANY instance crash, at any point, under concurrent
segment failures within the design's fault budget.
"""

import pytest

from repro import AuroraCluster
from repro.db.session import Session

from .conftest import crash_and_recover


class TestBasicRecovery:
    def test_committed_data_survives(self, cluster):
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(20)})
        db = crash_and_recover(cluster)
        for i in range(20):
            assert db.get(f"k{i}") == i

    def test_recovery_is_usable_for_new_writes(self, cluster):
        db = cluster.session()
        db.write("before", 1)
        db = crash_and_recover(cluster)
        db.write("after", 2)
        assert db.get("before") == 1
        assert db.get("after") == 2

    def test_new_lsns_allocated_above_truncation_range(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        old_high = cluster.writer.allocator.highest_allocated
        db = crash_and_recover(cluster)
        assert cluster.writer.allocator.next_lsn > old_high
        truncations = cluster.writer.allocator.truncations
        assert truncations
        assert truncations[-1].first > 0

    def test_volume_epoch_bumped(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        epoch_before = cluster.writer.driver.epochs.volume
        crash_and_recover(cluster)
        assert cluster.writer.driver.epochs.volume == epoch_before + 1

    def test_unacknowledged_commit_may_be_lost_never_corrupt(self, cluster):
        """A commit whose ack never arrived either fully survives or fully
        disappears -- no partial transaction state."""
        db = cluster.session()
        db.write("stable", "yes")
        txn = db.begin()
        db.put(txn, "x1", "atomic")
        db.put(txn, "x2", "atomic")
        db.commit_async(txn)  # crash before the ack can fire
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        values = (db.get("x1"), db.get("x2"))
        assert values in (("atomic", "atomic"), (None, None))
        assert db.get("stable") == "yes"

    def test_in_flight_uncommitted_txn_rolled_back(self, cluster):
        db = cluster.session()
        db.write("committed", 1)
        txn = db.begin()
        db.put(txn, "never-committed", 1)
        cluster.run_for(20)  # let the uncommitted record reach quorum
        db = crash_and_recover(cluster)
        assert db.get("never-committed") is None
        assert db.get("committed") == 1
        assert cluster.writer.stats.orphan_versions_purged >= 1

    def test_repeated_crashes(self, cluster):
        db = cluster.session()
        for round_number in range(3):
            db.write(f"round{round_number}", round_number)
            db = crash_and_recover(cluster)
        for round_number in range(3):
            assert db.get(f"round{round_number}") == round_number

    def test_recovery_stats_recorded(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        crash_and_recover(cluster)
        assert len(cluster.writer.stats.recovery_durations) == 1


class TestEpochFencing:
    def test_zombie_writer_writes_are_refused(self, cluster):
        """'This boxes out old instances with previously open connections
        from accessing the storage volume after crash recovery.'"""
        db = cluster.session()
        db.write("a", 1)
        stale_epochs = cluster.writer.driver.epochs
        crash_and_recover(cluster)
        # Simulate the zombie: a write batch at the pre-crash epoch.
        from repro.core.records import BlockPut, LogRecord, RecordKind
        from repro.storage.messages import WriteBatch

        zombie_lsn = cluster.writer.allocator.next_lsn + 500
        zombie_record = LogRecord(
            lsn=zombie_lsn, prev_volume_lsn=0, prev_pg_lsn=0,
            prev_block_lsn=0, block=cluster.writer.root_leaf_block,
            pg_index=0, kind=RecordKind.DATA,
            payload=BlockPut(entries=(("zombie", True),)),
        )
        target = cluster.nodes["pg0-a"]
        before = target.counters["rejections_sent"]
        cluster.network.send(
            cluster.writer.name, "pg0-a",
            WriteBatch(
                instance_id="zombie", pg_index=0,
                records=(zombie_record,), epochs=stale_epochs, pgmrpl=0,
            ),
        )
        cluster.run_for(10)
        assert target.counters["rejections_sent"] == before + 1
        assert target.segment.record_at(zombie_lsn) is None


class TestRecoveryUnderFailures:
    def test_recovery_with_two_segments_down(self, cluster):
        """Read quorum is 3/6: recovery succeeds with two members dead."""
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(10)})
        cluster.failures.crash_node("pg0-e")
        cluster.failures.crash_node("pg0-f")
        db = crash_and_recover(cluster)
        for i in range(10):
            assert db.get(f"k{i}") == i
        db.write("post", 1)  # 4/6 write quorum still available

    def test_recovery_with_az_down(self, cluster):
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(10)})
        cluster.failures.crash_az("az2")
        db = crash_and_recover(cluster)
        assert db.get("k3") == 3
        db.write("post-az", 1)

    def test_commit_with_one_slow_segment(self, cluster):
        """A degraded (not dead) node must not stall commits: 4/6 acks."""
        cluster.failures.slow_node("pg0-a", 50.0)
        db = cluster.session()
        db.write("a", 1)
        assert db.get("a") == 1


class TestDurabilityProperty:
    @pytest.mark.parametrize("crash_after_ms", [4.0, 6.0, 9.0, 14.0, 23.0])
    def test_acknowledged_commits_survive_any_crash_point(
        self, crash_after_ms
    ):
        """Drive writes continuously, crash the writer cold at an arbitrary
        instant, recover, and verify every acknowledged commit."""
        cluster = AuroraCluster.build(seed=int(crash_after_ms * 100))
        db = cluster.session()
        acknowledged: dict[str, int] = {}
        futures = []
        for i in range(40):
            txn = db.begin()
            key, value = f"key{i:02d}", i
            db.put(txn, key, value)
            future = db.commit_async(txn)
            future.add_done_callback(
                lambda f, k=key, v=value: acknowledged.__setitem__(k, v)
            )
            futures.append(future)
        cluster.run_for(crash_after_ms)  # cut the run mid-flight
        cluster.crash_writer()
        assert acknowledged, "test needs at least one acked commit"
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        for key, value in acknowledged.items():
            assert db.get(key) == value, (
                f"acknowledged commit of {key} lost after crash at "
                f"{crash_after_ms}ms"
            )

    def test_durability_with_concurrent_segment_failure(self):
        cluster = AuroraCluster.build(seed=404)
        cluster.failures.crash_at(3.0, "pg0-b")
        cluster.failures.crash_at(6.0, "pg0-d")
        db = cluster.session()
        acknowledged = {}
        for i in range(30):
            txn = db.begin()
            db.put(txn, f"k{i}", i)
            db.commit_async(txn).add_done_callback(
                lambda f, k=f"k{i}", v=i: acknowledged.__setitem__(k, v)
            )
        cluster.run_for(12.0)
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        for key, value in acknowledged.items():
            assert db.get(key) == value


class TestRecoveryWindow:
    def test_begin_is_refused_until_transaction_ids_are_seeded(self, cluster):
        """Recovery reports OPEN before it has walked the durable status
        pages (which waits on storage reads) and seeded the transaction ids
        above them.  ``begin()`` in that window used to hand out an id at
        or below a durable one; now it refuses."""
        from repro.db.instance import InstanceState
        from repro.errors import InstanceStateError

        db = cluster.session()
        for i in range(12):
            db.write(f"k{i}", i)
        writer = cluster.writer
        durable = set(writer.registry.known_commits())
        assert len(durable) >= 12
        cluster.crash_writer()
        process = cluster.recover_writer()
        while writer.state is not InstanceState.OPEN:
            assert cluster.loop.step()
        # The first event after the writer reports OPEN.
        assert not process.completion.done
        with pytest.raises(InstanceStateError, match="reloading"):
            writer.begin()
        Session(writer).drive(process)
        assert set(writer.registry.known_commits()) == durable
        assert writer.begin().txn_id > max(durable)


class TestMultiPGRecovery:
    def test_recovery_across_protection_groups(self, multi_pg_cluster):
        cluster = multi_pg_cluster
        db = cluster.session()
        db.write_many({f"key{i:03d}": i for i in range(300)})
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        for i in range(0, 300, 23):
            assert db.get(f"key{i:03d}") == i
        # Blocks really are spread across PGs.
        used_pgs = {
            node.segment.pg_index
            for node in cluster.nodes.values()
            if node.segment.hot_log_size or node.segment.blocks
        }
        assert len(used_pgs) >= 2
