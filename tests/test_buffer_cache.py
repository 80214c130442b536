"""The segmented, frequency-gated buffer pool against a reference model.

``BufferCache`` keeps what is read twice: probation, a protected segment
earned by a second read, victims from probation first, and -- once the pool
has filled -- an admission gate fed by a frequency table.  The model below
states that policy as two lists and a counter; whatever the script, pool and
model must hold the same blocks in the same order and count the same hits,
misses, evictions and declines.  The safety properties (never evict or
decline a block ahead of the VDL, bounded table, bounded protected share)
are checked on every step of every script, and each planted mutant must be
caught both by a directed script and by the search.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AuroraCluster
from repro.db.buffer_cache import AGING_PERIOD, PROTECTED_SHARE, BufferCache
from repro.db.instance import InstanceConfig
from repro.errors import LockConflictError
from repro.sim.process import Process

from .conftest import SEEDS, found_by_search

IMAGE = {"type": "leaf"}


class ModelPool:
    """The replacement policy, nothing else: two lists that run from the
    next victim to the most recent block, and one counter."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.probation, self.protected = [], []
        self.lsn = {}  # resident block -> newest redo LSN
        self.frequency, self.counted = Counter(), 0
        self.filled = False
        self.hits = self.misses = self.evictions = self.declined = 0

    def lookup(self, block):
        if self.filled:
            self.frequency[block] += 1
            self.counted += 1
            if self.counted % (AGING_PERIOD * self.capacity) == 0:
                halved = {b: n // 2 for b, n in self.frequency.items()}
                self.frequency = Counter(
                    {b: n for b, n in halved.items() if n}
                )
        if block not in self.lsn:
            self.misses += 1
            return False
        self.segment_of(block).remove(block)
        self.protected.append(block)
        if len(self.protected) > int(self.capacity * PROTECTED_SHARE):
            self.probation.append(self.protected.pop(0))
        self.hits += 1
        return True

    def segment_of(self, block):
        return self.probation if block in self.probation else self.protected

    def victim(self, vdl):
        order = self.probation + self.protected
        return next((b for b in order if self.lsn[b] <= vdl), None)

    def drop(self, block):
        self.segment_of(block).remove(block)
        del self.lsn[block]
        self.evictions += 1

    def install(self, block, lsn, vdl):
        if block in self.lsn:
            self.lsn[block] = max(self.lsn[block], lsn)
            return
        victim = self.victim(vdl)
        full = len(self.lsn) >= self.capacity
        if full and victim is not None and lsn <= vdl:
            if self.frequency[block] <= self.frequency[victim]:
                self.declined += 1
                return
        self.shrink(vdl, room=1)
        self.probation.append(block)
        self.lsn[block] = lsn
        self.filled = self.filled or len(self.lsn) >= self.capacity

    def shrink(self, vdl, room=0):
        evicted = 0
        while len(self.lsn) + room > self.capacity:
            if self.victim(vdl) is None:
                break
            self.drop(self.victim(vdl))
            evicted += 1
        return evicted

    def evict(self, block, vdl):
        if self.lsn.get(block, vdl + 1) > vdl:
            return False
        self.drop(block)
        return True


# ----------------------------------------------------------------------
# Scripts and the replay that holds pool and model side by side
# ----------------------------------------------------------------------
def script(seed, capacity, steps=400):
    """What an instance does to its pool: point reads over a universe a
    few pools wide with a hot set (a miss installs the clean image storage
    returned), writes (redo on a cached block, else a dirty install), bare
    lookups and installs, explicit evictions, and a VDL that trails the
    writes and catches up in steps."""
    rng = random.Random(seed)
    universe = capacity * rng.randint(2, 6)
    hot = rng.sample(range(universe), max(1, capacity // 2))
    ops = []
    for _ in range(steps):
        block = rng.randrange(universe)
        if rng.random() < 0.4:
            block = rng.choice(hot)
        kind = rng.choices(
            ("read", "write", "lookup", "install", "evict", "durable"),
            (50, 20, 5, 5, 3, 17),
        )[0]
        ops.append((kind, block, rng.randrange(1 << 16)))
    return ops


def replay(ops, capacity, factory=BufferCache):
    """Run ``ops`` against ``factory(capacity)`` and the model; raises
    ``AssertionError`` on the first step where they part or a property
    breaks.  Returns the pool."""
    pool, model = factory(capacity), ModelPool(capacity)
    vdl = lsn = 0
    ever_full = False
    for kind, block, draw in ops:
        before = {b: pool.peek(b).latest_lsn for b in pool.blocks()}
        declined = pool.stats.declined
        if kind in ("read", "lookup"):
            hit = pool.lookup(block) is not None
            assert hit == model.lookup(block)
            if kind == "read" and not hit:
                clean = draw % (vdl + 1)
                pool.install(block, IMAGE, clean, vdl)
                model.install(block, clean, vdl)
        elif kind == "install":
            clean = draw % (vdl + 1)
            pool.install(block, IMAGE, clean, vdl)
            model.install(block, clean, vdl)
        elif kind == "write":
            lsn += 1
            if block in pool:
                pool.apply_change(block, IMAGE, lsn)
                model.lsn[block] = lsn
            else:
                kept = pool.install(block, IMAGE, lsn, vdl)
                model.install(block, lsn, vdl)
                # Ahead of the VDL: never declined.
                assert kept is not None and pool.stats.declined == declined
            assert pool.peek(block).latest_lsn == lsn
        elif kind == "evict":
            assert pool.evict(block, vdl) == model.evict(block, vdl)
        else:  # the VDL catches up some of the way; the instance shrinks
            vdl = min(lsn, vdl + 1 + draw % 4)
            assert pool.shrink(vdl) == model.shrink(vdl)
            assert len(pool) <= capacity or not any(
                pool.peek(b).is_evictable(vdl) for b in pool.blocks()
            )
        # Whatever left the pool was durable when it left.
        for gone in before.keys() - set(pool.blocks()):
            assert before[gone] <= vdl, f"evicted {gone} ahead of the VDL"
        assert pool.blocks() == model.probation + model.protected
        stats = pool.stats
        assert (stats.hits, stats.misses, stats.evictions, stats.declined) == (
            model.hits, model.misses, model.evictions, model.declined
        )
        assert pool.segment_sizes() == (
            len(model.probation), len(model.protected)
        )
        assert len(model.protected) <= int(capacity * PROTECTED_SHARE)
        # Over capacity only while blocks it may not evict fill it.
        assert len(pool) <= capacity or len(pool.dirty_blocks(vdl)) >= capacity
        ever_full = ever_full or len(pool) >= capacity
        assert ever_full or not pool._frequency
        assert len(pool._frequency) <= 2 * AGING_PERIOD * capacity
        assert dict(pool._frequency) == dict(model.frequency)
    return pool


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    capacity=st.integers(min_value=1, max_value=12),
    steps=st.integers(min_value=1, max_value=400),
)
def test_pool_matches_the_model_on_random_scripts(seed, capacity, steps):
    replay(script(seed, capacity, steps), capacity)


def test_the_frequency_table_stays_bounded_on_a_long_script():
    """Forty aging periods of lookups over a universe far wider than the
    bound: halving drops what reaches zero, so the table never holds more
    than two periods' worth of blocks."""
    capacity = 4
    rng = random.Random(3)
    ops = [("read", rng.randrange(5_000), 0) for _ in range(1_600)]
    pool = replay(ops, capacity)
    assert 0 < len(pool._frequency) <= 2 * AGING_PERIOD * capacity


def test_a_one_touch_scan_evicts_nothing_that_was_read_twice():
    """The case LRU loses (fails at the parent, which kept nothing): a
    working set that fits the protected segment, read twice, survives a
    scan of ten pools' worth of blocks read once each."""
    capacity = 20
    working_set = range(int(capacity * PROTECTED_SHARE))
    ops = [("read", block, 0) for block in working_set] * 2
    ops += [("read", 1_000 + i, 0) for i in range(10 * capacity)]
    pool = replay(ops, capacity)
    assert set(working_set) <= set(pool.blocks())
    assert pool.stats.declined > 0
    hits = pool.stats.hits
    for block in working_set:
        assert pool.lookup(block) is not None
    assert pool.stats.hits == hits + len(working_set)


def test_protected_blocks_go_only_when_probation_has_nothing_to_give():
    pool = BufferCache(capacity=5)
    for block in (1, 2, 3, 4, 5):
        pool.install(block, IMAGE, latest_lsn=1, vdl=1)
        pool.lookup(block)
    assert pool.segment_sizes() == (1, 4)  # 1 was demoted by 5
    pool.apply_change(1, IMAGE, lsn=9)  # probation's one block is dirty
    assert pool.lookup(6) is None
    pool.install(6, IMAGE, latest_lsn=1, vdl=1)
    assert pool.blocks() == [1, 6, 3, 4, 5]  # 2, protected's oldest, went


# ----------------------------------------------------------------------
# Planted mutants
# ----------------------------------------------------------------------
def promote(pool, block):
    if block in pool._probation:
        pool._promote(pool.peek(block))


class DeclinesDirty(BufferCache):
    """Planted bug: the gate forgets to ask whether the image is clean."""

    def install(self, block, image, latest_lsn, vdl):
        full = len(self) >= self.capacity
        if latest_lsn > vdl and block not in self and full:
            victim = self._victim(vdl)
            if victim is not None and self._frequency.get(
                block, 0
            ) <= self._frequency.get(victim.block, 0):
                self.stats.declined += 1
                return None
        return super().install(block, image, latest_lsn, vdl)


class EvictsDirty(BufferCache):
    """Planted bug: the victim search ignores the VDL."""

    def _victim(self, vdl):
        return super()._victim(float("inf"))


class PromotesOnFirstTouch(BufferCache):
    """Planted bug: a block is protected the moment it is installed."""

    def install(self, block, image, latest_lsn, vdl):
        cached = super().install(block, image, latest_lsn, vdl)
        promote(self, block)
        return cached


class NeverAges(BufferCache):
    """Planted bug: the frequency table is never halved."""

    def _count(self, block):
        self._lookups_until_aging = -1
        super()._count(block)


class CountsBeforeFull(BufferCache):
    """Planted bug: lookups feed the table from the first one."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self._filled = True


class RedoPromotes(BufferCache):
    """Planted bug: redo apply counts as a second read."""

    def apply_change(self, block, image, lsn):
        cached = super().apply_change(block, image, lsn)
        promote(self, block)
        return cached


def reads(*blocks):
    return [("read", block, 0) for block in blocks]


#: mutant -> (capacity, a short script on which it parts from the pool)
MUTANTS = {
    # A pool full of clean blocks; a write to an uncached block must stay.
    DeclinesDirty: (2, reads(1, 2) + [("write", 3, 0)]),
    # Both residents are written and not yet durable; a third block comes.
    EvictsDirty: (2, [("write", 1, 0), ("write", 2, 0)] + reads(3)),
    # Installed once is not protected.
    PromotesOnFirstTouch: (5, reads(1, 2)),
    # One-touch blocks hold probation against one-touch newcomers until a
    # halving forgets them (20 lookups here); unaged, they hold it forever.
    NeverAges: (2, reads(1, 2) + reads(*range(100, 130))),
    # Lookups of 9 before the pool has filled must not count for it.
    CountsBeforeFull: (
        3, reads(1) + [("lookup", 9, 0)] * 3 + reads(2, 3, 9),
    ),
    # Redo on a once-read block leaves it in probation, first to go.
    RedoPromotes: (
        3, reads(1, 2, 3) + [("write", 1, 0), ("durable", 0, 0)] + reads(4),
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.__name__)
def test_each_planted_mutant_is_caught(mutant):
    capacity, ops = MUTANTS[mutant]
    replay(ops, capacity)
    with pytest.raises(AssertionError):
        replay(ops, capacity, mutant)
    # The differential finds it unaided, too.
    assert found_by_search(
        lambda seed, capacity: replay(
            script(seed, capacity), capacity, mutant
        ),
        200,
        capacity=st.integers(min_value=2, max_value=8),
    )


# ----------------------------------------------------------------------
# The pool under pressure, end to end
# ----------------------------------------------------------------------
def test_point_reads_beside_splitting_writers_with_a_pool_under_the_index():
    """A replica whose pool (8) is smaller than the tree's internal levels
    (9 nodes + meta) serves point reads while two writers update the
    preloaded keys and insert beside the first hundred, splitting their
    leaves.  Every read returns a value that was at some time written to
    its key; storage reads per point read stay under the bound (1.70 under
    LRU: most reads re-fetched an internal node); and the run leaves
    nothing behind.  The ascending preload leaves its leaves full, so it
    takes 1 400 keys (600 while a split always went to the middle) for the
    internal levels to outgrow the pool."""
    cluster = AuroraCluster.build(
        seed=7, replica=InstanceConfig(cache_capacity=8)
    )
    replica = cluster.add_replica()
    writer = cluster.writer
    db = cluster.session()
    keys = [f"key{i:04d}" for i in range(0, 2800, 2)]
    written = {key: {0} for key in keys}
    for start in range(0, len(keys), 50):
        db.write_many({key: 0 for key in keys[start:start + 50]})
    cluster.run_for(50)
    rng = random.Random(7)
    wrong = []
    epoch = writer._structure_epoch
    reads_before = replica.driver.stats.reads_issued

    def write_client(count):
        for _ in range(count):
            key = keys[rng.randrange(len(keys))]
            txn = writer.begin()
            if rng.random() < 0.5:  # a new row, in the leaves of the first 100
                key = f"{keys[rng.randrange(100)]}+{txn.txn_id}"
            written.setdefault(key, set()).add(txn.txn_id)
            try:
                yield from writer.put(txn, key, txn.txn_id)
            except LockConflictError:
                yield from writer.rollback(txn)
                continue
            yield writer.commit(txn)

    def read_client(count):
        for _ in range(count):
            key = keys[rng.randrange(len(keys))]
            value = yield from replica.get(key)
            if value not in written[key]:
                wrong.append((key, value))

    clients = [Process(cluster.loop, write_client(150)) for _ in range(2)]
    clients += [Process(cluster.loop, read_client(400)) for _ in range(3)]
    for client in clients:
        db.drive(client.completion)  # re-raises what killed a client
    sent_by_clients = cluster.network._next_request_id
    cluster.run_for(50)
    assert wrong == []
    assert writer._structure_epoch >= epoch + 8  # leaves did split
    internal = [
        block for block in writer.cache.blocks()
        if writer.cache.peek(block).image.get("type") == "internal"
    ]
    assert len(internal) + 1 > replica.cache.capacity
    storage_reads = replica.driver.stats.reads_issued - reads_before
    assert storage_reads / 1200 <= 1.35
    assert replica.cache.stats.declined > 0
    assert len(replica.cache) <= replica.cache.capacity
    for instance in (writer, replica):
        assert instance.views.active_count == 0
        assert instance.min_read._active == {}
        assert instance.driver._outstanding_reads == []
    # An RPC still awaited was sent after the clients ended: a gossip
    # round in flight, not a read nobody will answer.
    assert all(rid >= sent_by_clients for rid in cluster.network._pending_rpcs)


@pytest.mark.parametrize(
    "name", ["commit_burst", "commit_trickle", "chaos_audit"]
)
def test_a_ledger_workload_whose_pools_never_fill_sees_no_policy(
    name, built_clusters
):
    """The three ledger workloads that must not move run on pools far
    larger than their trees: nothing is evicted, nothing is declined and
    no lookup is ever counted, so the policy cannot have touched them."""
    workloads = pytest.importorskip("bench.workloads")
    result = workloads.WORKLOADS[name].run_round(1, scale=0.05)
    assert result.ops > 0 and not result.check_errors
    (cluster,) = built_clusters
    assert cluster.writer.cache.stats.hits > 0
    for instance in (cluster.writer, *cluster.replicas.values()):
        cache = instance.cache
        assert 10 * len(cache) < cache.capacity
        assert (cache.stats.evictions, cache.stats.declined) == (0, 0)
        assert not cache._filled and not cache._frequency
