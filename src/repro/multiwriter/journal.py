"""The journal: a quorum-durable sequencer for cross-partition operations.

The journal *is* a single-writer volume of its own (one protection group,
on the partitions' backend), and an entry is one committed row keyed by
its **GSN** (global sequence number):

- the volume's writer is the one sequencer; it allocates the GSNs and
  commits each entry's row, so an entry is durable exactly when its
  commit is acknowledged -- a write quorum of one-way acks (4/6 on the
  Aurora backend), no consensus;
- a sequencer crash is the writer's crash, and its recovery the writer's
  (fence, read-quorum scan, truncation range, epoch bump): the storage
  segments refuse a stale sequencer's appends.

Entries carry the transaction's full write set, so a participant that
crashed before applying an entry can replay it from the journal -- the
Calvin-like property that makes a separate distributed commit protocol
unnecessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Hashable

from repro.db.cluster import AuroraCluster
from repro.sim.process import Mutex, Process


@dataclass(frozen=True)
class JournalEntry:
    """One sequenced cross-partition transaction."""

    gsn: int
    txn_uid: str
    #: partition index -> ((key, value_or_None-for-delete), ...)
    writes: tuple[tuple[int, tuple[tuple[Hashable, Any], ...]], ...]

    def writes_for(self, partition: int) -> tuple[tuple[Hashable, Any], ...]:
        for candidate, writes in self.writes:
            if candidate == partition:
                return writes
        return ()


class Journal:
    """The sequencer: the writer of ``cluster``'s volume."""

    def __init__(self, cluster: AuroraCluster) -> None:
        self.cluster = cluster
        self.loop = cluster.loop
        #: Held from GSN allocation to the commit's SCN allocation, so SCN
        #: order is GSN order and the commit queue acks in GSN order.
        self._mutex = Mutex(self.loop)
        self._next_gsn = 1
        #: Highest GSN known durable with all predecessors durable (the
        #: journal's VCL analogue).
        self.durable_gsn = 0
        self.appends = 0

    def append(
        self,
        txn_uid: str,
        writes: dict[int, list[tuple[Hashable, Any]]],
    ) -> Process:
        """Sequence a cross-partition transaction.

        Resolves with the :class:`JournalEntry` once the entry -- and every
        entry before it -- is durable on a write quorum of journal
        segments (the in-order rule that makes GSN replay gap-free).
        """
        return Process(self.loop, self._append(txn_uid, writes))

    def _append(self, txn_uid, writes):
        writer, mutex = self.cluster.writer, self._mutex
        yield mutex.acquire()
        try:
            entry = JournalEntry(
                gsn=self._next_gsn,
                txn_uid=txn_uid,
                writes=tuple(
                    (partition, tuple(write_list))
                    for partition, write_list in sorted(writes.items())
                ),
            )
            txn = writer.begin()
            yield from writer.put(txn, entry.gsn, entry)
            acked = writer.commit(txn)
            self._next_gsn = entry.gsn + 1
            self.appends += 1
        finally:
            mutex.release()
        yield acked
        self.durable_gsn = max(self.durable_gsn, entry.gsn)
        return entry

    # ------------------------------------------------------------------
    # Sequencer crash recovery: the writer's own
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the sequencer: in-flight appends resolve as uncertain, and
        the GSN counters are lost with the writer's other state."""
        self.cluster.crash_writer()
        # An append stalled inside the dead writer never releases its lock.
        self._mutex = Mutex(self.loop)
        self._next_gsn = 1
        self.durable_gsn = 0

    def recover(self) -> Process:
        """Run the writer's crash recovery, then re-establish the GSN
        counters from the highest recovered entry.  Resolves with the
        recovered durable GSN."""
        return Process(self.loop, self._recover())

    def _recover(self):
        mutex = self._mutex
        yield mutex.acquire()
        try:
            yield self.cluster.recover_writer().completion
            writer = self.cluster.writer
            rows = yield from writer.scan(1, math.inf)
            top = 0
            if rows:
                # Recovery keeps a ragged edge one segment may hold alone.
                # Re-commit the top entry under the new generation: by the
                # chain rule its ack means a write quorum holds everything
                # below it, so no later recovery can lose the kept entries.
                top, entry = rows[-1]
                txn = writer.begin()
                yield from writer.put(txn, top, entry)
                yield writer.commit(txn)
            self._next_gsn = top + 1
            self.durable_gsn = top
            return top
        finally:
            mutex.release()

    def scan_from(self, from_gsn: int):
        """Generator: the durable entries above ``from_gsn``, in GSN order
        (participant catch-up)."""
        rows = yield from self.cluster.writer.scan(
            from_gsn + 1, self.durable_gsn
        )
        return [entry for _gsn, entry in rows]
