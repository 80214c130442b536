"""Integration tests for read replicas (sections 3.2 - 3.4)."""

import pytest

from repro import AuroraCluster
from repro.db.session import Session
from repro.errors import InstanceStateError
from repro.storage.messages import GCFloorUpdate


@pytest.fixture
def replicated_cluster(cluster):
    cluster.add_replica("r1")
    return cluster


class TestReplicationStream:
    def test_replica_sees_committed_writes(self, replicated_cluster):
        cluster = replicated_cluster
        db = cluster.session()
        db.write("a", 1)
        cluster.run_for(20)
        rs = cluster.replica_session("r1")
        assert rs.get("a") == 1

    def test_replica_lags_durability_not_issuance(self, replicated_cluster):
        """Invariant 1: replica state never runs ahead of the writer's VDL."""
        cluster = replicated_cluster
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        replica = cluster.replicas["r1"]
        assert replica.applied_vdl <= cluster.writer.vdl
        db.commit(txn)
        cluster.run_for(20)
        assert replica.applied_vdl <= cluster.writer.vdl

    def test_uncommitted_data_invisible_on_replica(self, replicated_cluster):
        cluster = replicated_cluster
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "pending", 1)
        cluster.run_for(20)
        rs = cluster.replica_session("r1")
        assert rs.get("pending") is None  # no commit notice yet
        db.commit(txn)
        cluster.run_for(20)
        assert rs.get("pending") == 1

    def test_mtr_chunks_apply_atomically(self, replicated_cluster):
        """Invariant 2: a split MTR never half-applies at the replica."""
        cluster = replicated_cluster
        db = cluster.session()
        txn = db.begin()
        for i in range(60):  # enough to split leaves several times
            db.put(txn, f"key{i:02d}", i)
        db.commit(txn)
        cluster.run_for(50)
        rs = cluster.replica_session("r1")
        results = rs.scan("key00", "key99")
        assert [v for _k, v in results] == list(range(60))

    def test_replica_uses_storage_for_uncached_blocks(self, cluster):
        """A replica attached AFTER the writes has a cold cache; its reads
        must come from the shared volume."""
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(30)})
        cluster.run_for(20)
        replica = cluster.add_replica("late")
        rs = cluster.replica_session("late")
        assert rs.get("k7") == 7
        assert replica.driver.stats.reads_issued > 0

    def test_replica_lag_measured(self, replicated_cluster):
        cluster = replicated_cluster
        db = cluster.session()
        for i in range(10):
            db.write(f"k{i}", i)
        cluster.run_for(50)
        replica = cluster.replicas["r1"]
        assert replica.replica_lag == 0
        assert replica.stats.chunks_applied > 0

    def test_discarded_redo_raises_the_block_discard_frontier(self, cluster):
        """Every record discarded for an uncached block must be remembered
        (per block, highest LSN) so an in-flight storage read issued
        before it cannot later install an image that predates it."""
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(30)})
        cluster.run_for(20)
        replica = cluster.add_replica("late")
        # The late replica's cache is cold, so this burst is discarded
        # record by record -- each discard raises the frontier.
        db.write_many({f"k{i}": i * 2 for i in range(30)})
        cluster.run_for(50)
        assert replica.stats.records_discarded > 0
        assert replica._discard_frontier
        assert max(replica._discard_frontier.values()) <= replica.applied_vdl

    def test_stale_image_is_served_but_never_cached(self, cluster):
        """Regression for the install-vs-discard race: a storage read
        whose point predates a discarded redo record for the same block
        still answers its caller (the image is a consistent snapshot at
        that point) but must NOT be installed in cache -- later redo
        would apply on top of the gap and the replica would silently
        diverge from the volume forever."""
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(30)})
        cluster.run_for(20)
        replica = cluster.add_replica("late")
        # Simulate the race on the meta block: pretend redo for it was
        # discarded after any read point this read can use.
        replica._discard_frontier[replica.META_BLOCK] = (
            replica.applied_vdl + 1
        )
        rs = cluster.replica_session("late")
        assert rs.get("k7") == 7  # the caller still gets its snapshot
        assert replica.cache.peek(replica.META_BLOCK) is None
        assert replica.stats.stale_installs_declined >= 1
        # Once a fresh read point covers the discarded record, the next
        # read warms the block normally.
        replica._discard_frontier.clear()
        assert rs.get("k7") == 7
        assert replica.cache.peek(replica.META_BLOCK) is not None

    def test_read_reruns_when_a_split_lands_mid_traversal(self, cluster):
        """Regression for the traversal-vs-split race (first seen as a
        proxy read-your-writes violation): each block of a replica
        traversal is read at the then-current applied VDL, so a read that
        waits on storage while a split chunk applies pairs the pre-split
        parent with the post-split leaf and misses a row that moved to the
        new sibling."""
        db = cluster.session()
        rows = cluster.writer.config.max_leaf_rows
        for i in range(rows):  # exactly fills the root leaf
            db.write(f"k{i:02d}", i)
        cluster.run_for(20)
        replica = cluster.add_replica("cold")  # empty cache: reads go out
        moved = f"k{rows - 1:02d}"  # lands in the right half of the split
        read = replica.get(moved)
        pending = next(read)  # META requested at the pre-split point
        cluster.run_for(5)
        assert pending.done
        db.write(f"k{rows:02d}", rows)  # splits the root leaf
        cluster.run_for(20)
        assert replica._structure_epoch == 1
        try:
            while True:  # resume the reader holding its pre-split META
                pending = read.send(pending.result())
                cluster.run_for(5)
        except StopIteration as stop:
            value = stop.value
        assert value == rows - 1
        assert replica.stats.traversals_retried == 1

    def test_writer_path_latency_unaffected_by_replicas(self):
        """'There is little latency added to the write path ... since
        replication is asynchronous': commit latency with 3 replicas is
        within noise of commit latency with none."""
        def mean_commit(replica_count):
            cluster = AuroraCluster.build(seed=303)
            for i in range(replica_count):
                cluster.add_replica(f"r{i}")
            db = cluster.session()
            for i in range(30):
                db.write(f"k{i}", i)
            latencies = cluster.writer.stats.commit_latencies
            return sum(latencies) / len(latencies)

        without = mean_commit(0)
        with_replicas = mean_commit(3)
        assert with_replicas < without * 1.25

    def test_replicas_are_read_only(self, replicated_cluster):
        replica = replicated_cluster.replicas["r1"]
        with pytest.raises(InstanceStateError):
            replica.stage_change(None, 0, None, None)


class TestSnapshotAnchoring:
    def test_read_views_anchor_at_applied_vdl(self, replicated_cluster):
        """Invariant 3: replica views anchor at writer-equivalent points."""
        cluster = replicated_cluster
        db = cluster.session()
        db.write("a", "v1")
        cluster.run_for(20)
        replica = cluster.replicas["r1"]
        view = replica.open_view()
        assert view.read_point == replica.applied_vdl
        replica.close_view(view)

    def test_commit_history_from_notices(self, replicated_cluster):
        cluster = replicated_cluster
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        scn = db.commit(txn)
        cluster.run_for(20)
        replica = cluster.replicas["r1"]
        assert replica.registry.commit_scn(txn.txn_id) == scn

    def test_replica_advertises_gc_floor(self, replicated_cluster):
        cluster = replicated_cluster
        db = cluster.session()
        db.write("a", 1)
        cluster.run_for(200)  # several gc-floor ticks
        node = cluster.nodes["pg0-a"]
        assert "r1" in node._instance_read_floors


def _crash(cluster, instance):
    cluster.crash_writer()


def _close(cluster, instance):
    instance.close()


def _detach(cluster, instance):
    instance.detach()


def _reattach_under_an_old_view(cluster, instance):
    """Re-attach while a read view of the previous generation is open."""
    instance.open_view()
    cluster.session().write("b", 2)
    cluster.reattach_replicas()


def _recover(cluster, instance):
    Session(instance).drive(cluster.recover_writer())


def _attach(cluster, instance):
    cluster.reattach_replicas()


@pytest.mark.parametrize(
    "role, disturb, silent, rearms, wake",
    [
        ("writer", _crash, True, False, _recover),
        ("writer", _close, True, False, None),
        ("replica", _detach, True, True, _attach),
        ("replica", _reattach_under_an_old_view, False, True, None),
    ],
    ids=["writer-crashed", "writer-closed", "replica-detached",
         "replica-old-view"],
)
def test_the_gc_floor_tick_per_role(
    cluster, monkeypatch, role, disturb, silent, rearms, wake
):
    """One GC-floor tick for both roles: a dead writer falls silent and
    stops re-arming until recovery restarts it; a replica that serves no
    reads stays silent but keeps the tick armed; a re-attach drops the
    read points of the previous generation's views, so a view open across
    it does not hold the advertisement back."""
    instance = (
        cluster.add_replica("r1") if role == "replica" else cluster.writer
    )
    senders = []
    send = cluster.network.send

    def spy(src, dst, payload):
        if isinstance(payload, GCFloorUpdate):
            senders.append(src)
        send(src, dst, payload)

    monkeypatch.setattr(cluster.network, "send", spy)

    def advertises() -> bool:
        senders.clear()
        cluster.run_for(200)  # four ticks
        return instance.name in senders

    cluster.session().write("a", 1)
    assert advertises()
    disturb(cluster, instance)
    assert advertises() is not silent
    assert instance.min_read.active_count == 0
    assert instance._gc_floor_tick_scheduled is rearms
    if wake is not None:
        wake(cluster, instance)
        assert advertises()
        assert instance._gc_floor_tick_scheduled


def test_a_view_open_across_a_reattach_pins_no_gc_floor(cluster):
    """A read in flight across ``reattach_replicas`` closes on a view the
    re-attach already discarded; its read point went with it, so the
    replica's floor on storage keeps advancing with the new stream."""
    replica = cluster.add_replica("r1")
    view = replica.open_view()
    db = cluster.session()
    db.write("a", 1)
    cluster.reattach_replicas()
    replica.close_view(view)
    for i in range(20):
        db.write(f"k{i}", i)
    cluster.run_for(200)  # several gc-floor ticks
    assert replica.min_read.active_count == 0
    assert cluster.nodes["pg0-a"]._instance_read_floors["r1"] > 6


class TestPromotion:
    def test_promotion_preserves_acknowledged_commits(self, cluster):
        """'if a commit has been marked durable and acknowledged to the
        client, there is no data loss when a replica is promoted'"""
        cluster.add_replica("r1")
        db = cluster.session()
        acknowledged = {}
        for i in range(20):
            txn = db.begin()
            db.put(txn, f"k{i}", i)
            db.commit_async(txn).add_done_callback(
                lambda f, k=f"k{i}", v=i: acknowledged.__setitem__(k, v)
            )
        cluster.run_for(8.0)
        cluster.crash_writer()
        assert acknowledged
        new_writer, recovery = cluster.promote_replica("r1")
        db = Session(new_writer)
        db.drive(recovery)
        for key, value in acknowledged.items():
            assert db.get(key) == value

    def test_promoted_writer_accepts_new_traffic(self, cluster):
        cluster.add_replica("r1")
        db = cluster.session()
        db.write("before", 1)
        cluster.crash_writer()
        new_writer, recovery = cluster.promote_replica("r1")
        db = Session(new_writer)
        db.drive(recovery)
        db.write("after", 2)
        assert db.get("before") == 1
        assert db.get("after") == 2

    def test_surviving_replicas_reattach_to_new_writer(self, cluster):
        cluster.add_replica("r1")
        cluster.add_replica("r2")
        db = cluster.session()
        db.write("pre", 1)
        cluster.run_for(20)
        cluster.crash_writer()
        new_writer, recovery = cluster.promote_replica("r1")
        db = Session(new_writer)
        db.drive(recovery)
        cluster.reattach_replicas()
        db.write("post", 2)
        cluster.run_for(50)
        rs = cluster.replica_session("r2")
        assert rs.get("pre") == 1
        assert rs.get("post") == 2


class TestReplicaScaling:
    def test_many_replicas_serve_reads(self, cluster):
        for i in range(4):
            cluster.add_replica(f"r{i}")
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(10)})
        cluster.run_for(50)
        for i in range(4):
            rs = cluster.replica_session(f"r{i}")
            assert rs.get("k5") == 5

    def test_teardown_is_cheap(self, cluster):
        """'quickly set up and tear down replicas ... since durable state
        is shared': removal requires no data movement."""
        cluster.add_replica("r1")
        sent_before = cluster.network.stats.messages_sent
        cluster.remove_replica("r1")
        assert cluster.network.stats.messages_sent == sent_before
        assert "r1" not in cluster.replicas
