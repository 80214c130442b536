"""Multi-writer deployment: partitioned volumes + the journal.

Each partition is a complete single-writer Aurora cluster (its own volume,
quorums, recovery) sharing one simulated network; the journal orders
cross-partition transactions.  Per-partition application of journal
entries is serialized and gap-free: a :class:`PartitionApplier` applies
entries strictly in GSN order, persisting the applied high-water mark in a
reserved row so crash recovery knows exactly where to resume replay.
"""

from __future__ import annotations

import zlib
from typing import Hashable

from repro.db.cluster import AuroraCluster
from repro.db.session import Session
from repro.errors import ConfigurationError, LockConflictError
from repro.multiwriter.journal import Journal, JournalEntry
from repro.sim.process import Mutex, Process

#: Reserved row holding each partition's applied-GSN high-water mark.
APPLIED_GSN_KEY = "__mw_applied_gsn__"


def partition_of(key: Hashable, partition_count: int) -> int:
    """Stable key -> partition routing (CRC32 of the repr)."""
    return zlib.crc32(repr(key).encode()) % partition_count


class PartitionApplier:
    """Serialized, gap-free application of journal entries to one partition.

    ``ensure_applied(gsn)`` guarantees that every durable journal entry
    with GSN <= gsn that involves this partition has been applied locally
    (each as one local transaction that also advances the persisted
    high-water mark), in GSN order, exactly once.
    """

    def __init__(self, cluster: "MultiWriterCluster", index: int) -> None:
        self.cluster = cluster
        self.index = index
        self._mutex = Mutex(cluster.loop)
        self.applied_entries = 0

    def ensure_applied(self, gsn: int) -> Process:
        """Apply durable entries up to ``gsn``, read from the journal
        writer's B-tree."""
        return Process(self.cluster.loop, self._ensure_applied(gsn))

    def _ensure_applied(self, gsn: int):
        yield self._mutex.acquire()
        try:
            writer = self.cluster.partitions[self.index].writer
            applied = yield from writer.get(APPLIED_GSN_KEY)
            applied = applied or 0
            if applied >= gsn:
                return applied
            entries = yield from self.cluster.journal.scan_from(applied)
            for entry in entries:
                if entry.gsn > gsn:
                    break
                yield from self._apply_entry(writer, entry)
                applied = entry.gsn
            return applied
        finally:
            self._mutex.release()

    def _apply_entry(self, writer, entry: JournalEntry):
        """One journal entry = one local transaction (atomic, idempotent).

        The transaction writes the entry's rows for this partition plus the
        new high-water mark; a crash between journal durability and local
        commit durability simply replays it (the versions of the failed
        attempt are purged as orphans by ordinary recovery).
        """
        writes = entry.writes_for(self.index)
        for _attempt in range(50):
            txn = writer.begin()
            try:
                for key, value in writes:
                    if value is None:
                        yield from writer.delete(txn, key)
                    else:
                        yield from writer.put(txn, key, value)
                yield from writer.put(txn, APPLIED_GSN_KEY, entry.gsn)
            except LockConflictError:
                yield from writer.rollback(txn)
                yield 1.0  # back off behind the conflicting local txn
                continue
            yield writer.commit(txn)
            self.applied_entries += 1
            return
        raise ConfigurationError(
            f"could not apply journal entry {entry.gsn} to partition "
            f"{self.index}: persistent lock conflicts"
        )


class MultiWriterCluster:
    """N single-writer partitions + a journal volume ordering them."""

    def __init__(
        self, partition_count: int = 2, seed: int = 42, **overrides
    ) -> None:
        """``overrides`` reach every partition's and the journal's
        :meth:`AuroraCluster.build` (partition ``i`` is seeded ``seed + i``;
        all share partition 0's loop, network and injector)."""
        if partition_count < 1:
            raise ConfigurationError("partition_count must be >= 1")
        base = AuroraCluster.build(
            seed=seed, name_prefix="part0:", **overrides
        )
        self.loop = base.loop
        self.failures = base.failures
        self.partitions: list[AuroraCluster] = [base]
        for index in range(1, partition_count):
            self.partitions.append(
                AuroraCluster.build(
                    seed=seed + index,
                    shared=base,
                    name_prefix=f"part{index}:",
                    **overrides,
                )
            )
        # The journal is a one-PG single-writer volume of its own.
        self.journal = Journal(
            AuroraCluster.build(
                shared=base, name_prefix="journal:", **overrides
            )
        )
        self.appliers = [
            PartitionApplier(self, index)
            for index in range(partition_count)
        ]
        self._txn_uid = 0

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    def partition_of(self, key: Hashable) -> int:
        return partition_of(key, self.partition_count)

    def next_txn_uid(self) -> str:
        self._txn_uid += 1
        return f"mw-txn-{self._txn_uid}"

    def session(self) -> "MultiWriterSession":
        from repro.multiwriter.session import MultiWriterSession

        return MultiWriterSession(self)

    def partition_session(self, index: int) -> Session:
        return Session(self.partitions[index].writer)

    def run_for(self, duration_ms: float) -> None:
        self.loop.run(until=self.loop.now + duration_ms)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def crash_partition(self, index: int) -> None:
        self.partitions[index].crash_writer()

    def recover_partition(self, index: int) -> Process:
        """Ordinary single-writer recovery, then journal catch-up replay."""
        return Process(self.loop, self._recover_partition(index))

    def _recover_partition(self, index: int):
        cluster = self.partitions[index]
        yield cluster.recover_writer().completion
        # Replay any durable journal entries this partition missed.
        applied = yield self.appliers[index].ensure_applied(
            self.journal.durable_gsn
        ).completion
        return applied
