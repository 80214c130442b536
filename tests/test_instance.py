"""Integration tests for the writer instance: transactions, snapshot
isolation, locking, and the asynchronous commit pipeline."""

import random

import pytest

from repro import AuroraCluster
from repro.db.session import Session
from repro.errors import (
    InstanceStateError,
    LockConflictError,
    TransactionError,
)
from repro.sim.process import Process


@pytest.fixture
def db(cluster):
    return cluster.session()


class TestBasicTransactions:
    def test_put_commit_get(self, db):
        txn = db.begin()
        db.put(txn, "a", 1)
        scn = db.commit(txn)
        assert scn > 0
        assert db.get("a") == 1

    def test_multi_key_transaction(self, db):
        txn = db.begin()
        for i in range(5):
            db.put(txn, f"k{i}", i)
        db.commit(txn)
        assert [db.get(f"k{i}") for i in range(5)] == [0, 1, 2, 3, 4]

    def test_delete(self, db):
        db.write("a", 1)
        db.remove("a")
        assert db.get("a") is None

    def test_uncommitted_writes_invisible_to_others(self, db, cluster):
        txn = db.begin()
        db.put(txn, "a", "pending")
        assert db.get("a") is None  # a fresh statement view can't see it
        assert db.get("a", txn=txn) == "pending"  # own writes visible
        db.commit(txn)
        assert db.get("a") == "pending"

    def test_rollback_restores_prior_state(self, db):
        db.write("a", "original")
        txn = db.begin()
        db.put(txn, "a", "doomed")
        db.put(txn, "b", "also-doomed")
        db.rollback(txn)
        assert db.get("a") == "original"
        assert db.get("b") is None

    def test_rolled_back_txn_is_unusable(self, db):
        txn = db.begin()
        db.put(txn, "a", 1)
        db.rollback(txn)
        with pytest.raises(TransactionError):
            db.put(txn, "a", 2)
        with pytest.raises(TransactionError):
            db.commit(txn)

    def test_read_only_commit_is_instant(self, db):
        db.write("a", 1)
        txn = db.begin()
        assert db.get("a", txn=txn) == 1
        future = db.commit_async(txn)
        assert future.done  # no record needed, no quorum wait

    def test_scan_spans_transactions(self, db):
        db.write_many({f"x{i:02d}": i for i in range(10)})
        results = db.scan("x03", "x06")
        assert results == [(f"x{i:02d}", i) for i in range(3, 7)]


class TestSnapshotIsolation:
    def test_repeatable_reads_within_txn(self, db):
        db.write("a", "v1")
        reader = db.begin()
        assert db.get("a", txn=reader) == "v1"
        db.write("a", "v2")  # concurrent committed write
        assert db.get("a", txn=reader) == "v1"  # snapshot stable
        db.commit(reader)
        assert db.get("a") == "v2"

    def test_new_statement_views_see_latest(self, db):
        db.write("a", "v1")
        assert db.get("a") == "v1"
        db.write("a", "v2")
        assert db.get("a") == "v2"

    def test_snapshot_spans_scans(self, db):
        db.write_many({"k1": 1, "k2": 2})
        reader = db.begin()
        assert len(db.scan("k0", "k9", txn=reader)) == 2
        db.write("k3", 3)
        assert len(db.scan("k0", "k9", txn=reader)) == 2
        db.commit(reader)
        assert len(db.scan("k0", "k9")) == 3

    def test_reader_does_not_block_writer(self, db):
        db.write("a", 1)
        reader = db.begin()
        db.get("a", txn=reader)
        writer = db.begin()
        db.put(writer, "a", 2)  # readers hold no locks
        db.commit(writer)
        db.commit(reader)


class TestLocking:
    def test_write_write_conflict(self, db):
        t1 = db.begin()
        t2 = db.begin()
        db.put(t1, "hot", 1)
        with pytest.raises(LockConflictError):
            db.put(t2, "hot", 2)
        db.rollback(t2)
        db.commit(t1)

    def test_locks_released_at_commit(self, db):
        t1 = db.begin()
        db.put(t1, "hot", 1)
        db.commit(t1)
        t2 = db.begin()
        db.put(t2, "hot", 2)
        db.commit(t2)
        assert db.get("hot") == 2

    def test_locks_released_at_rollback(self, db):
        t1 = db.begin()
        db.put(t1, "hot", 1)
        db.rollback(t1)
        t2 = db.begin()
        db.put(t2, "hot", 2)
        db.commit(t2)


class TestAsyncCommitPipeline:
    def test_commit_ack_requires_scn_below_vcl(self, cluster):
        """The commit future resolves only after the quorum catches up."""
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        future = db.commit_async(txn)
        assert not future.done  # acks have not arrived yet
        scn = db.drive(future)
        assert cluster.writer.vcl >= scn

    def test_workers_do_not_stall_on_commit(self, cluster):
        """Many commits can be in flight at once (no group-commit stall)."""
        db = cluster.session()
        futures = []
        for i in range(10):
            txn = db.begin()
            db.put(txn, f"k{i}", i)
            futures.append(db.commit_async(txn))
        in_flight = sum(1 for f in futures if not f.done)
        assert in_flight >= 5  # most are genuinely concurrent
        for future in futures:
            db.drive(future)
        assert cluster.writer.stats.commits_acknowledged >= 10

    def test_acks_arrive_in_scn_order(self, cluster):
        db = cluster.session()
        order = []
        for i in range(5):
            txn = db.begin()
            db.put(txn, f"k{i}", i)
            future = db.commit_async(txn)
            future.add_done_callback(
                lambda f: order.append(f.result())
            )
        cluster.run_for(100)
        assert order == sorted(order)
        assert len(order) == 5

    def test_commit_latency_tracked(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        assert len(cluster.writer.stats.commit_latencies) == 1
        assert cluster.writer.stats.commit_latencies[0] > 0


class TestWALInvariant:
    def test_dirty_blocks_not_evictable_until_durable(self, cluster):
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        writer = cluster.writer
        dirty = writer.cache.dirty_blocks(writer.vdl)
        assert dirty  # redo still in flight
        db.commit(txn)
        cluster.run_for(20)
        assert writer.cache.dirty_blocks(writer.vdl) == []


class TestCacheMissReads:
    def test_read_after_eviction_goes_to_storage(self):
        cluster = AuroraCluster.build(seed=21, cache_capacity=8)  # tiny pool
        db = cluster.session()
        # Enough full leaves (16 rows each) that the tree outgrows the pool.
        for i in range(120):
            db.write(f"key{i:03d}", i)
        cluster.run_for(50)
        reads_before = cluster.writer.driver.stats.reads_issued
        for i in range(0, 120, 7):
            assert db.get(f"key{i:03d}") == i
        assert cluster.writer.driver.stats.reads_issued > reads_before

    def test_tiny_cache_still_correct_under_load(self):
        cluster = AuroraCluster.build(seed=22, cache_capacity=6)
        db = cluster.session()
        expected = {}
        for i in range(80):
            key = f"k{i % 17:02d}"
            db.write(key, i)
            expected[key] = i
        for key, value in expected.items():
            assert db.get(key) == value


    def test_buffer_cache_accounting_over_a_fixed_traversal_script(self):
        """A traversal touches the buffer pool the same way however it is
        driven: the counts and the final eviction order below were recorded
        from this script and must not move when the descent, the MTR
        overlay or the read path is restructured.  Re-recorded with the
        segmented, frequency-gated pool, because they pin the replacement
        policy's order and that policy replaced the LRU (968 / 43 / 66 and
        LRU order before; the pool now also declines: a clean image read
        no more often than its victim goes to its reader uncached).
        Re-recorded once more when an append at the right edge of the tree
        began to split at the insert point: the ascending load leaves its
        leaves full, so the same 240 rows sit in 15 leaves, not 29, and the
        script misses less (965 / 46 / 31, 43 declined before)."""
        cluster = AuroraCluster.build(seed=41, cache_capacity=12)
        db = cluster.session()
        keys = [f"key{i:03d}" for i in range(240)]
        for start in range(0, len(keys), 40):
            db.write_many({key: start for key in keys[start:start + 40]})
        cluster.run_for(50)
        for key in keys[::-7]:
            assert db.get(key) is not None
        assert len(db.scan("key050", "key120")) == 71
        for key in keys[5::31]:
            db.write(key, "again")
        cluster.run_for(50)
        cache = cluster.writer.cache
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (835, 18, 10)
        assert (stats.declined, stats.eviction_blocked) == (17, 0)
        assert cache.blocks() == [5, 7, 16, 12, 8, 10, 9, 11, 13, 14, 0, 4]
        assert cache.segment_sizes() == (3, 9)

    def test_concurrent_writers_with_cold_cache(self):
        """Two races a lone client never hits.  A client resumed by its
        commit ack, inside the driver's ack handler, reads at the new VDL
        before the ``on_vdl_advance`` callbacks have folded it into the
        frontier history ("no frontier recorded for read point").  And a
        write-path read runs under no read view, so the PGMRPL on the next
        write batch let storage collect past it mid-flight ("no full
        segment durable through LSN")."""
        cluster = AuroraCluster.build(seed=31, cache_capacity=64)
        writer = cluster.writer
        rng = random.Random(31)
        keys = [f"key{i:04d}" for i in range(5_000)]
        db = cluster.session()
        for start in range(0, len(keys), 250):
            db.write_many({key: 0 for key in keys[start:start + 250]})
        reads_before = writer.driver.stats.reads_issued
        last_acked = {}

        def client(txns):
            for _ in range(txns):
                txn = writer.begin()
                key = rng.choice(keys)
                try:
                    yield from writer.put(txn, key, txn.txn_id)
                except LockConflictError:
                    yield from writer.rollback(txn)
                    continue
                yield writer.commit(txn)
                last_acked[key] = txn.txn_id

        clients = [Process(cluster.loop, client(300)) for _ in range(4)]
        for process in clients:
            db.drive(process.completion)  # re-raises what killed a client
        assert writer.driver.stats.reads_issued - reads_before > 1_000
        # The pool hands most of those images back uncached: the write
        # that follows re-installs the leaf ahead of the VDL, never declined.
        assert writer.cache.stats.declined > 500
        assert writer.stats.commits_acknowledged >= 20 + 4 * 290
        for key, value in last_acked.items():
            assert db.get(key) == value

    def test_cold_read_reruns_when_a_split_lands_mid_traversal(self, cluster):
        """The writer's side of the traversal-vs-split race (the replica's
        is in tests/test_replica.py): reads take no write mutex and fetch
        each B-tree level when they get to it, so a cache-miss read that
        waits on storage while another client's split MTR is absorbed
        pairs the pre-split parent with the post-split leaf and misses a
        row that moved to the new sibling."""
        db = cluster.session()
        writer = cluster.writer
        rows = writer.config.max_leaf_rows
        for i in range(rows):  # exactly fills the root leaf
            db.write(f"k{i:02d}", i)
        cluster.run_for(20)
        writer.cache.drop_all()  # everything is durable: reads go out
        moved = f"k{rows - 1:02d}"  # lands in the right half of the split
        epoch = writer._structure_epoch
        read = writer.get(moved)
        pending = next(read)  # META requested at the pre-split point
        cluster.run_for(5)
        assert pending.done
        db.write(f"k{rows:02d}", rows)  # splits the root leaf
        assert writer._structure_epoch == epoch + 1
        try:
            while True:  # resume the reader holding its pre-split META
                pending = read.send(pending.result())
                cluster.run_for(5)
        except StopIteration as stop:
            value = stop.value
        assert value == rows - 1
        assert writer.stats.traversals_retried == 1


class TestInstanceStateGuards:
    def test_crashed_instance_refuses_operations(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        cluster.crash_writer()
        with pytest.raises(InstanceStateError):
            cluster.writer.begin()

    def test_double_bootstrap_rejected(self, cluster):
        with pytest.raises(InstanceStateError):
            cluster.writer.bootstrap()


class TestVersionPurge:
    def test_purge_old_versions_collapses_history(self, cluster):
        db = cluster.session()
        for i in range(5):
            db.write("hot", i)
        cluster.run_for(100)
        purged = db.drive(cluster.writer.purge_old_versions())
        assert purged >= 1
        assert db.get("hot") == 4  # latest survives

    def test_purge_with_cache_smaller_than_the_tree(self):
        """The purge reads every leaf before it rewrites any, so with a
        cache smaller than the tree the early leaves are evicted again by
        the time their rows are pruned.  The rewrite's base is the leaf as
        it was read, not whatever the cache still holds: a one-row delta on
        a fabricated empty base would drop the leaf's header and every row
        the purge did not touch from the writer's cache."""
        cluster = AuroraCluster.build(seed=31, cache_capacity=64)
        db = cluster.session()
        keys = [f"key{i:04d}" for i in range(3_000)]
        for start in range(0, len(keys), 250):
            db.write_many({key: 0 for key in keys[start:start + 250]})
        for start in range(0, len(keys), 500):
            db.write_many({key: 1 for key in keys[start:start + 500:2]})
        cluster.run_for(200)
        purged = db.drive(cluster.writer.purge_old_versions())
        assert purged >= len(keys) // 2
        lost = [
            key for i, key in reversed(list(enumerate(keys)))
            if db.get(key) != (i + 1) % 2
        ]
        assert lost == []
        assert db.drive(cluster.writer.btree.check_structure()) > 64
