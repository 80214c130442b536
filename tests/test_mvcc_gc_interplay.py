"""Integration tests for the PGMRPL contract (section 3.4).

"Older versions are not garbage collected until we can assure neither the
writer instance or any replica might need to access it. ...  A storage node
may only advance its garbage collection point once PGMRPL has advanced for
all instances that have opened the volume."

These tests hold read views open while churning versions and garbage
collection, and verify that every anchored snapshot stays readable --
including through storage fetches after cache eviction.
"""

import pytest

from repro import AuroraCluster


def churny_cluster(seed, **overrides):
    return AuroraCluster.build(
        seed=seed, backup_interval=30.0, gc_interval=15.0,
        gc_floor_interval=10.0, **overrides,
    )


class TestReadViewsPinGC:
    def test_open_view_sees_its_snapshot_despite_churn(self):
        cluster = churny_cluster(111)
        db = cluster.session()
        db.write("hot", "v0")
        reader = db.begin()
        assert db.get("hot", txn=reader) == "v0"
        for i in range(1, 15):
            db.write("hot", f"v{i}")
        cluster.run_for(500)  # many GC/backup cycles
        # The anchored snapshot still reads its version.
        assert db.get("hot", txn=reader) == "v0"
        db.commit(reader)
        assert db.get("hot") == "v14"

    def test_gc_floor_stalls_at_min_active_view(self):
        cluster = churny_cluster(112)
        db = cluster.session()
        db.write("a", 1)
        reader = db.begin()
        db.get("a", txn=reader)  # opens the txn's read view
        pinned_at = cluster.writer.current_pgmrpl()
        for i in range(10):
            db.write("a", i)
        cluster.run_for(300)
        # The advertised floor cannot pass the open view's anchor.
        assert cluster.writer.current_pgmrpl() == pinned_at
        for node in cluster.nodes.values():
            assert node.segment.gc_floor <= pinned_at
        db.commit(reader)
        db.write("nudge", 1)
        cluster.run_for(300)
        assert cluster.writer.current_pgmrpl() > pinned_at

    def test_version_purge_respects_open_views(self):
        cluster = churny_cluster(113)
        db = cluster.session()
        db.write("k", "old")
        reader = db.begin()
        assert db.get("k", txn=reader) == "old"
        for i in range(5):
            db.write("k", f"new{i}")
        purged = db.drive(cluster.writer.purge_old_versions())
        # The open view's version must have survived the purge.
        assert db.get("k", txn=reader) == "old"
        db.commit(reader)
        db.drive(cluster.writer.purge_old_versions())
        assert db.get("k") == "new4"
        assert purged >= 0

    def test_replica_views_pin_gc_fleet_wide(self):
        cluster = churny_cluster(114)
        db = cluster.session()
        db.write("shared", "r0")
        cluster.run_for(50)
        replica = cluster.add_replica("r1")
        cluster.run_for(50)
        view = replica.open_view()  # a long-running replica read
        pinned_at = view.read_point
        for i in range(12):
            db.write("shared", f"r{i}")
        cluster.run_for(400)
        # Storage GC floors stalled at (or below) the replica's anchor.
        for node in cluster.nodes.values():
            assert node.segment.gc_floor <= pinned_at
        replica.close_view(view)
        db.write("nudge", 1)
        cluster.run_for(400)
        floors = [n.segment.gc_floor for n in cluster.nodes.values()]
        assert max(floors) > 0

    def test_storage_rejects_reads_below_its_floor(self):
        """Once no view needs a point, storage may refuse it -- the
        [PGMRPL, SCL] window of section 3.4."""
        from repro.core.epochs import EpochStamp
        from repro.storage.messages import (
            ReadBlockRequest,
            RequestRejected,
        )

        cluster = churny_cluster(115)
        db = cluster.session()
        for i in range(20):
            db.write(f"k{i}", i)
        cluster.run_for(600)  # floors advance with no open views
        node = cluster.nodes["pg0-a"]
        assert node.segment.gc_floor > 0
        future = cluster.network.rpc(
            cluster.writer.name,
            "pg0-a",
            ReadBlockRequest(
                pg_index=0,
                block=cluster.writer.root_leaf_block,
                read_point=max(0, node.segment.gc_floor - 1),
                epochs=EpochStamp(),
            ),
        )
        cluster.run_for(10)
        assert isinstance(future.result(), RequestRejected)


class TestSnapshotsAcrossEviction:
    def test_old_snapshot_readable_after_cache_eviction(self):
        """The full §3.1+§3.4 loop: a view's block version survives both
        cache eviction (WAL-invariant discard) AND storage GC, because the
        PGMRPL held storage back."""
        cluster = churny_cluster(116, cache_capacity=8)
        db = cluster.session()
        for i in range(30):
            db.write(f"key{i:02d}", f"gen0-{i}")
        cluster.run_for(100)
        reader = db.begin()
        assert db.get("key05", txn=reader) == "gen0-5"  # anchor the view
        for i in range(30):
            db.write(f"key{i:02d}", f"gen1-{i}")
        cluster.run_for(300)  # churn: eviction + GC
        # The cold read below must fetch from storage at the old anchor.
        assert db.get("key17", txn=reader) == "gen0-17"
        db.commit(reader)
        assert db.get("key17") == "gen1-17"
