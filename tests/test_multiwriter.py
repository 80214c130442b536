"""Tests for the multi-writer extension (journal-ordered cross-partition
transactions, section 1's stated extension)."""

import pytest

from repro.db.session import Session
from repro.errors import TransactionError
from repro.multiwriter import MultiWriterCluster
from repro.multiwriter.cluster import APPLIED_GSN_KEY, partition_of


@pytest.fixture
def mw():
    return MultiWriterCluster(partition_count=3, seed=61)


def keys_on_distinct_partitions(mw, count):
    """Find keys guaranteed to land on `count` different partitions."""
    found = {}
    i = 0
    while len(found) < count:
        key = f"key-{i}"
        index = mw.partition_of(key)
        found.setdefault(index, key)
        i += 1
    return [found[index] for index in sorted(found)]


class TestRouting:
    def test_partition_of_is_stable_and_total(self):
        for key in ("a", 17, ("tuple", 2), "key-123"):
            first = partition_of(key, 3)
            assert partition_of(key, 3) == first
            assert 0 <= first < 3

    def test_partitions_are_isolated_volumes(self, mw):
        s = mw.session()
        k0, k1, _k2 = keys_on_distinct_partitions(mw, 3)
        s.write(k0, "p0")
        s.write(k1, "p1")
        # Each partition's writer sees only its own rows.
        p0 = mw.partition_session(mw.partition_of(k0))
        assert p0.get(k0) == "p0"
        assert p0.get(k1) is None


class TestSinglePartitionPath:
    def test_single_partition_commit_uses_local_protocol(self, mw):
        s = mw.session()
        result = s.write("solo", 42)
        assert result["path"] == "single"
        assert s.get("solo") == 42
        assert mw.journal.appends == 0  # journal untouched

    def test_multi_key_same_partition_stays_local(self, mw):
        s = mw.session()
        index = mw.partition_of("a0")
        same = [
            f"a{i}" for i in range(50) if mw.partition_of(f"a{i}") == index
        ][:3]
        txn = s.begin()
        for key in same:
            s.put(txn, key, key.upper())
        result = s.commit(txn)
        assert result["path"] == "single"
        assert result["partition"] == index


class TestCrossPartitionPath:
    def test_cross_commit_routes_through_journal(self, mw):
        s = mw.session()
        k0, k1, k2 = keys_on_distinct_partitions(mw, 3)
        txn = s.begin()
        for key in (k0, k1, k2):
            s.put(txn, key, f"x-{key}")
        result = s.commit(txn)
        assert result["path"] == "journal"
        assert result["gsn"] == 1
        assert len(result["partitions"]) == 3
        for key in (k0, k1, k2):
            assert s.get(key) == f"x-{key}"

    def test_gsns_are_sequential(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        gsns = []
        for round_number in range(3):
            txn = s.begin()
            s.put(txn, k0, round_number)
            s.put(txn, k1, round_number)
            gsns.append(s.commit(txn)["gsn"])
        assert gsns == [1, 2, 3]

    def test_read_your_writes_after_cross_commit(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        txn = s.begin()
        s.put(txn, k0, "ryw-0")
        s.put(txn, k1, "ryw-1")
        assert s.get(k0, txn=txn) == "ryw-0"  # staged read
        s.commit(txn)
        assert s.get(k0) == "ryw-0"  # applied read
        assert s.get(k1) == "ryw-1"

    def test_cross_partition_delete(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        s.write(k0, 1)
        s.write(k1, 2)
        txn = s.begin()
        s.delete(txn, k0)
        s.delete(txn, k1)
        assert s.commit(txn)["path"] == "journal"
        assert s.get(k0) is None
        assert s.get(k1) is None

    def test_rollback_discards_staged_writes(self, mw):
        s = mw.session()
        txn = s.begin()
        s.put(txn, "never", 1)
        s.rollback(txn)
        with pytest.raises(TransactionError):
            s.put(txn, "never", 2)
        assert s.get("never") is None
        assert mw.journal.appends == 0

    def test_later_writes_supersede_within_txn(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        txn = s.begin()
        s.put(txn, k0, "first")
        s.put(txn, k1, "other")
        s.put(txn, k0, "last")
        s.commit(txn)
        assert s.get(k0) == "last"


class TestCrashAtomicity:
    def test_participant_crash_after_journal_replays_on_recovery(self, mw):
        """The decisive case: the journal entry is durable but a
        participant dies BEFORE applying it locally.  Recovery must
        replay the entry (cross-partition atomicity without 2PC)."""
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        victim = mw.partition_of(k0)
        # Sequence the entry at the journal directly, without applying.
        entry = s.drive(
            mw.journal.append(
                "orphaned-txn", {
                    mw.partition_of(k0): [(k0, "from-journal")],
                    mw.partition_of(k1): [(k1, "from-journal")],
                }
            )
        )
        assert entry.gsn >= 1
        # Partition `victim` crashes before anyone applies the entry.
        mw.crash_partition(victim)
        applied = s.drive(mw.recover_partition(victim))
        assert applied >= entry.gsn
        assert s.get(k0) == "from-journal"
        # The other participant catches up when asked (e.g. next commit
        # or explicit catch-up).
        other = mw.partition_of(k1)
        s.drive(mw.appliers[other].ensure_applied(entry.gsn))
        assert s.get(k1) == "from-journal"

    def test_apply_is_idempotent_across_replays(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        txn = s.begin()
        s.put(txn, k0, "once")
        s.put(txn, k1, "once")
        result = s.commit(txn)
        index = mw.partition_of(k0)
        before = mw.appliers[index].applied_entries
        s.drive(mw.appliers[index].ensure_applied(result["gsn"]))
        assert mw.appliers[index].applied_entries == before  # no re-apply
        assert s.get(k0) == "once"

    def test_applied_gsn_watermark_is_durable(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        txn = s.begin()
        s.put(txn, k0, 1)
        s.put(txn, k1, 1)
        gsn = s.commit(txn)["gsn"]
        index = mw.partition_of(k0)
        mw.crash_partition(index)
        s.drive(mw.recover_partition(index))
        watermark = mw.partition_session(index).get(APPLIED_GSN_KEY)
        assert watermark == gsn

    def test_entries_apply_in_gsn_order_even_out_of_band(self, mw):
        """If T2's session applies before T1's ever did, the applier must
        still apply T1 first (gap-free GSN order)."""
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        index = mw.partition_of(k0)
        e1 = s.drive(
            mw.journal.append("t1", {index: [(k0, "t1")],
                                     mw.partition_of(k1): [(k1, "t1")]})
        )
        e2 = s.drive(
            mw.journal.append("t2", {index: [(k0, "t2")],
                                     mw.partition_of(k1): [(k1, "t2")]})
        )
        # Ask for e2 only; e1 must be applied on the way.
        s.drive(mw.appliers[index].ensure_applied(e2.gsn))
        assert s.get(k0) == "t2"  # GSN order: t1 then t2
        watermark = mw.partition_session(index).get(APPLIED_GSN_KEY)
        assert watermark == e2.gsn


class TestJournalRecovery:
    def test_sequencer_recovers_durable_gsn_from_quorum(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        for i in range(3):
            txn = s.begin()
            s.put(txn, k0, i)
            s.put(txn, k1, i)
            s.commit(txn)
        assert mw.journal.durable_gsn == 3
        mw.journal.crash()
        recovered = s.drive(mw.journal.recover())
        assert recovered == 3
        assert mw.journal._next_gsn == 4
        # And sequencing continues above the recovered point.
        txn = s.begin()
        s.put(txn, k0, "post")
        s.put(txn, k1, "post")
        assert s.commit(txn)["gsn"] == 4

    def test_journal_tolerates_two_segment_failures(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        mw.failures.crash_node(mw.journal.cluster.segment_name(0, 0))
        mw.failures.crash_node(mw.journal.cluster.segment_name(0, 1))
        txn = s.begin()
        s.put(txn, k0, 1)
        s.put(txn, k1, 1)
        assert s.commit(txn)["path"] == "journal"

    def test_journal_blocks_below_write_quorum(self, mw):
        from repro.errors import SimulationError

        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        for i in range(3):
            mw.failures.crash_node(mw.journal.cluster.segment_name(0, i))
        txn = s.begin()
        s.put(txn, k0, 1)
        s.put(txn, k1, 1)
        with pytest.raises(SimulationError):
            s.commit(txn)


class TestJournalRaggedEdge:
    """An append that reached one journal segment, and a sequencer crash."""

    @staticmethod
    def recover_past_lone_append(mw, s, k0, k1):
        """Commit GSN 1, then leave GSN 2's append on segment 0 alone
        (never acked), crash the sequencer and recover it."""
        txn = s.begin()
        s.put(txn, k0, "a1")
        s.put(txn, k1, "b1")
        assert s.commit(txn)["gsn"] == 1
        others = [mw.journal.cluster.segment_name(0, i) for i in range(1, 6)]
        for name in others:
            mw.failures.crash_node(name)
        mw.journal.append(
            "lone", {mw.partition_of(k0): [(k0, "lone")],
                     mw.partition_of(k1): [(k1, "lone")]}
        )
        mw.run_for(50.0)
        mw.journal.crash()
        for name in others:
            mw.failures.restore_node(name)
        return s.drive(mw.journal.recover())

    def test_a_kept_entry_is_never_half_applied(self):
        mw = MultiWriterCluster(partition_count=2, seed=61)
        s = mw.session()
        k0, k1 = keys_on_distinct_partitions(mw, 2)
        assert self.recover_past_lone_append(mw, s, k0, k1) == 2
        # One participant replays the kept entry; then its holder dies.
        s.drive(mw.appliers[mw.partition_of(k0)].ensure_applied(2))
        mw.failures.crash_node(mw.journal.cluster.segment_name(0, 0))
        mw.journal.crash()
        assert s.drive(mw.journal.recover()) == 2
        txn = s.begin()
        s.put(txn, k0, "a2")
        s.put(txn, k1, "b2")
        assert s.commit(txn)["gsn"] == 3
        for applier in mw.appliers:
            s.drive(applier.ensure_applied(mw.journal.durable_gsn))
        assert (s.get(k0), s.get(k1)) == ("a2", "b2")

    def test_recovery_makes_a_kept_entry_quorum_durable(self):
        """Losing the kept entry's only original holder right after
        recovery loses nothing: the next GSN stays above it."""
        mw = MultiWriterCluster(partition_count=2, seed=61)
        s = mw.session()
        k0, k1 = keys_on_distinct_partitions(mw, 2)
        assert self.recover_past_lone_append(mw, s, k0, k1) == 2
        mw.failures.crash_node(mw.journal.cluster.segment_name(0, 0))
        mw.journal.crash()
        assert s.drive(mw.journal.recover()) == 2
        txn = s.begin()
        s.put(txn, k0, "a2")
        s.put(txn, k1, "b2")
        assert s.commit(txn)["gsn"] == 3


class TestInterplayWithLocalTraffic:
    def test_journal_apply_retries_past_local_lock_holders(self, mw):
        s = mw.session()
        k0, k1, _ = keys_on_distinct_partitions(mw, 3)
        index = mw.partition_of(k0)
        local = mw.partition_session(index)
        blocker = local.begin()
        local.put(blocker, k0, "locked")
        # Sequence a cross txn touching the locked key; the applier must
        # back off until the local txn commits.
        entry = s.drive(
            mw.journal.append(
                "contended",
                {index: [(k0, "journal-wins")],
                 mw.partition_of(k1): [(k1, "x")]},
            )
        )
        apply_process = mw.appliers[index].ensure_applied(entry.gsn)
        mw.run_for(5.0)
        assert not apply_process.finished  # blocked behind the lock
        local.commit(blocker)
        s.drive(apply_process)
        assert s.get(k0) == "journal-wins"
