"""Asynchronous commit processing.

Section 2.3: "A commit is acknowledged by the database to its caller once it
is able to affirm that all data modified by the transaction has been durably
recorded.  A simple way to do so is to ensure that the commit redo record for
the transaction, or System Commit Number (SCN), is below VCL.  No flush,
consensus, or grouping is required."

The worker thread that receives a COMMIT "writes the commit record, puts the
transaction on a commit queue, and returns to a common task queue"; a
dedicated commit thread later "scans the commit queue for SCNs below the new
VCL and sends acknowledgements".  :class:`CommitQueue` is that queue: a heap
ordered by SCN, drained each time the VCL advances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError


@dataclass(order=True)
class _PendingCommit:
    scn: int
    seq: int
    enqueued_at: float = field(compare=False)
    ack: Callable[[], None] = field(compare=False)
    tag: Any = field(compare=False, default=None)


@dataclass
class CommitStats:
    """Aggregate commit-pipeline statistics."""

    acknowledged: int = 0
    max_queue_depth: int = 0
    total_wait: float = 0.0

    @property
    def mean_wait(self) -> float:
        if self.acknowledged == 0:
            return 0.0
        return self.total_wait / self.acknowledged


class CommitQueue:
    """SCN-ordered queue of transactions awaiting durability.

    ``ack`` callbacks fire inside :meth:`on_vcl_advance`, in SCN order --
    the analogue of the dedicated commit thread waking up when the driver
    advances VCL.
    """

    def __init__(self) -> None:
        self._heap: list[_PendingCommit] = []
        self._seq = 0
        self._last_vcl = 0
        self.stats = CommitStats()
        #: Optional :class:`repro.audit.Auditor` observer (zero-cost when
        #: unattached); ``audit_owner`` labels events (the instance id).
        self.audit_probe = None
        self.audit_owner = ""

    def enqueue(
        self,
        scn: int,
        ack: Callable[[], None],
        now: float = 0.0,
        tag: Any = None,
    ) -> None:
        """Queue a transaction whose commit record has SCN ``scn``.

        If the SCN is already durable (``scn <=`` the last seen VCL) the ack
        fires immediately -- a commit record that lands below an
        already-advanced VCL must not wait for the next advance.
        """
        if scn <= 0:
            raise ConfigurationError(f"SCN must be positive, got {scn}")
        if scn <= self._last_vcl:
            self.stats.acknowledged += 1
            if self.audit_probe is not None:
                self.audit_probe.on_commit_ack(
                    self.audit_owner, scn, self._last_vcl
                )
            ack()
            return
        entry = _PendingCommit(
            scn=scn, seq=self._seq, enqueued_at=now, ack=ack, tag=tag
        )
        self._seq += 1
        heapq.heappush(self._heap, entry)
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._heap)
        )

    def on_vcl_advance(self, vcl: int, now: float = 0.0) -> int:
        """Acknowledge every queued commit with SCN <= ``vcl``.

        Returns the number of transactions acknowledged.
        """
        self._last_vcl = max(self._last_vcl, vcl)
        released = 0
        while self._heap and self._heap[0].scn <= self._last_vcl:
            entry = heapq.heappop(self._heap)
            released += 1
            self.stats.acknowledged += 1
            self.stats.total_wait += max(0.0, now - entry.enqueued_at)
            if self.audit_probe is not None:
                self.audit_probe.on_commit_ack(
                    self.audit_owner, entry.scn, self._last_vcl
                )
            entry.ack()
        return released

    def drain_pending(self) -> list[Any]:
        """Remove and return the tags of all unacknowledged commits.

        Used at crash time: in-flight commits that were never acknowledged
        are simply lost (their transactions will be rolled back or annulled
        by recovery), which is safe precisely because Aurora never
        acknowledges a commit before its SCN is volume-complete.
        """
        pending = [entry.tag for entry in sorted(self._heap)]
        self._heap.clear()
        return pending

    @property
    def depth(self) -> int:
        return len(self._heap)

    @property
    def oldest_pending_scn(self) -> int | None:
        return self._heap[0].scn if self._heap else None
