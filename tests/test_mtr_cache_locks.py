"""Unit tests for MTRs, the buffer cache's WAL invariant, and locking."""

import pytest

from repro.core.lsn import LSNAllocator, NULL_LSN
from repro.core.records import BlockPut, BlockReplace
from repro.db.buffer_cache import BufferCache
from repro.db.locks import LockManager, lock_keys_for
from repro.db.mtr import ChainState, MTRBuilder
from repro.errors import ConfigurationError, LockConflictError


class TestChainState:
    def test_threads_all_three_chains(self):
        chains = ChainState()
        assert chains.thread(5, pg_index=0, block=7) == (0, 0, 0)
        assert chains.thread(6, pg_index=1, block=7) == (5, 0, 5)
        assert chains.thread(7, pg_index=0, block=8) == (6, 5, 0)
        assert chains.thread(8, pg_index=0, block=7) == (7, 7, 6)

    def test_no_block_skips_block_chain(self):
        from repro.core.records import NO_BLOCK

        chains = ChainState()
        chains.thread(5, 0, NO_BLOCK)
        assert chains.last_block_lsn == {}

    def test_reset_to_recovered_points(self):
        chains = ChainState()
        chains.thread(5, 0, 1)
        chains.reset_to(100, {0: 99, 1: 100})
        assert chains.thread(101, 0, 1) == (100, 99, 0)


class TestMTRBuilder:
    def test_seal_allocates_contiguous_lsns(self):
        allocator = LSNAllocator()
        chains = ChainState()
        mtr = MTRBuilder(txn_id=3)
        for block in (1, 2, 3):
            mtr.change(block, 0, BlockPut(entries=(("k", block),)))
        records = mtr.seal(allocator, chains)
        assert [r.lsn for r in records] == [1, 2, 3]
        assert [r.mtr_end for r in records] == [False, False, True]
        assert all(r.txn_id == 3 for r in records)
        assert all(r.mtr_id == records[0].mtr_id for r in records)

    def test_chains_thread_through_the_batch(self):
        allocator = LSNAllocator()
        chains = ChainState()
        mtr = MTRBuilder()
        mtr.change(1, 0, BlockPut(entries=(("a", 1),)))
        mtr.change(1, 0, BlockPut(entries=(("b", 2),)))
        first, second = mtr.seal(allocator, chains)
        assert second.prev_volume_lsn == first.lsn
        assert second.prev_pg_lsn == first.lsn
        assert second.prev_block_lsn == first.lsn

    def test_empty_seal_rejected(self):
        with pytest.raises(ConfigurationError):
            MTRBuilder().seal(LSNAllocator(), ChainState())

    def test_double_seal_rejected(self):
        mtr = MTRBuilder()
        mtr.change(1, 0, BlockPut(entries=(("a", 1),)))
        mtr.seal(LSNAllocator(), ChainState())
        with pytest.raises(ConfigurationError):
            mtr.seal(LSNAllocator(), ChainState())

    def test_change_after_seal_rejected(self):
        mtr = MTRBuilder()
        mtr.change(1, 0, BlockPut(entries=(("a", 1),)))
        mtr.seal(LSNAllocator(), ChainState())
        with pytest.raises(ConfigurationError):
            mtr.change(2, 0, BlockPut(entries=(("b", 2),)))

    def test_distinct_mtr_ids(self):
        assert MTRBuilder().mtr_id != MTRBuilder().mtr_id


class TestBufferCache:
    def test_install_and_lookup(self):
        cache = BufferCache(capacity=4)
        cache.install(1, {"a": 1}, latest_lsn=5, vdl=5)
        cached = cache.lookup(1)
        assert cached.image == {"a": 1}
        assert cache.stats.hits == 1
        assert cache.lookup(2) is None
        assert cache.stats.misses == 1

    def test_wal_invariant_blocks_dirty_eviction(self):
        """A block whose redo is not yet durable may NOT be discarded."""
        cache = BufferCache(capacity=1)
        cache.install(1, {"a": 1}, latest_lsn=10, vdl=5)  # dirty: 10 > 5
        cache.install(2, {"b": 2}, latest_lsn=3, vdl=5)
        assert 1 in cache  # still there: over-filled instead of evicted
        assert cache.stats.eviction_blocked == 1
        assert len(cache) == 2

    def test_probation_goes_first_oldest_first(self):
        cache = BufferCache(capacity=4)
        for block in (1, 2, 3, 4):
            cache.install(block, {}, latest_lsn=block, vdl=10)
        cache.lookup(2)  # read again: 2 is protected
        for newcomer, victim in ((5, 1), (6, 3), (7, 4)):
            assert cache.lookup(newcomer) is None
            cache.install(newcomer, {}, latest_lsn=newcomer, vdl=10)
            assert victim not in cache
        assert cache.blocks() == [5, 6, 7, 2]

    def test_explicit_evict_respects_invariant(self):
        cache = BufferCache(capacity=4)
        cache.install(1, {}, latest_lsn=10, vdl=5)
        assert not cache.evict(1, vdl=5)
        assert cache.evict(1, vdl=10)
        assert 1 not in cache

    def test_apply_change_moves_block_forward_only(self):
        cache = BufferCache()
        cache.install(1, {"v": 0}, latest_lsn=5, vdl=5)
        cache.apply_change(1, {"v": 1}, lsn=6)
        assert cache.peek(1).latest_lsn == 6
        with pytest.raises(ConfigurationError):
            cache.apply_change(1, {"v": 2}, lsn=6)

    def test_install_refresh_keeps_newest(self):
        cache = BufferCache()
        cache.install(1, {"v": "new"}, latest_lsn=9, vdl=9)
        cache.install(1, {"v": "stale"}, latest_lsn=3, vdl=9)
        assert cache.peek(1).image == {"v": "new"}

    def test_dirty_blocks_listing(self):
        cache = BufferCache()
        cache.install(1, {}, latest_lsn=10, vdl=0)
        cache.install(2, {}, latest_lsn=2, vdl=0)
        assert set(cache.dirty_blocks(vdl=5)) == {1}

    def test_drop_all_models_crash(self):
        cache = BufferCache()
        cache.install(1, {}, 1, 1)
        cache.drop_all()
        assert len(cache) == 0


class TestLockManager:
    def test_exclusive_conflict_raises(self):
        locks = LockManager()
        locks.acquire(1, "k")
        with pytest.raises(LockConflictError):
            locks.acquire(2, "k")
        assert locks.conflicts == 1

    def test_reentrant_for_owner(self):
        locks = LockManager()
        locks.acquire(1, "k")
        locks.acquire(1, "k")
        assert locks.holder("k") == 1
        assert locks.acquisitions == 1

    def test_release_all_frees_for_others(self):
        locks = LockManager()
        locks.acquire(1, "a")
        locks.acquire(1, "b")
        assert locks.release_all(1) == 2
        locks.acquire(2, "a")
        assert locks.holder("a") == 2

    def test_locks_of(self):
        locks = LockManager()
        locks.acquire(1, "a")
        locks.acquire(1, "b")
        assert locks.locks_of(1) == {"a", "b"}
        assert locks.locks_of(2) == set()

    def test_clear_models_crash(self):
        locks = LockManager()
        locks.acquire(1, "a")
        locks.clear()
        assert locks.held_count == 0
        locks.acquire(2, "a")

    def test_deterministic_lock_order(self):
        assert lock_keys_for([3, 1, 2]) == sorted([3, 1, 2], key=repr)
        assert lock_keys_for(["b", "a"]) == ["'a'", "'b'"] or lock_keys_for(
            ["b", "a"]
        ) == ["a", "b"]
