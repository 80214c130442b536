"""Physical replication stream from the writer to its read replicas.

"Aurora read replicas attach to the same storage volume as the writer
instance.  They receive a physical redo log stream from the writer instance
and use this to update only data blocks present in their local caches."
(section 3.2)

The stream carries three message kinds, all asynchronous and one-way:

- :class:`MTRChunk` -- "log records are only shipped from the writer
  instance in MTR chunks" (section 3.3): one sealed mini-transaction's
  records, applied atomically at the replica.
- :class:`VDLUpdate` -- "The writer instance sends VDL update control
  records as part of its replication stream" (section 3.4).  Replicas may
  only apply chunks at or below the writer's advertised VDL and anchor read
  views at these points.
- :class:`CommitNotice` -- "for efficiency reasons we ship commit
  notifications and maintain transaction commit history" (section 3.4).

Replication "is asynchronous" and adds "little latency ... to the write
path": publishing is fire-and-forget sends on the simulated network.

Like the storage driver's write path, the stream is boxcarred: items
published within a sub-millisecond window travel in one
:class:`ReplicationFrame` per replica instead of one wire message each
(consecutive :class:`VDLUpdate` items additionally coalesce to the newest,
since the VDL is monotone and chunks gate on whatever update arrives).
Framing only engages when the publisher is given an event loop; without
one it degrades to immediate per-item sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.records import LogRecord
from repro.sim.events import EventLoop


@dataclass(frozen=True)
class MTRChunk:
    """One mini-transaction's records (contiguous LSNs, last is mtr_end)."""

    writer_id: str
    records: tuple[LogRecord, ...]


@dataclass(frozen=True)
class VDLUpdate:
    """The writer's current Volume Durable LSN."""

    writer_id: str
    vdl: int


@dataclass(frozen=True)
class CommitNotice:
    """A transaction became durably committed (SCN passed the VCL)."""

    writer_id: str
    txn_id: int
    scn: int


@dataclass(frozen=True, slots=True)
class ReplicationFrame:
    """A boxcar of stream items (chunks / VDL updates / commit notices).

    Items apply in order at the replica, so a frame preserves exactly the
    per-sender ordering the unbatched stream had.
    """

    writer_id: str
    items: tuple

    # See repro.storage.messages.WriteBatch: marks boxcar payloads for the
    # network's batch-aware by_type stats.
    is_boxcar = True

    def boxcar_count(self) -> int:
        return len(self.items)


class ReplicationPublisher:
    """Writer-side fan-out of the replication stream."""

    def __init__(
        self,
        writer_id: str,
        send: Callable[[str, object], None],
        loop: EventLoop | None = None,
        frame_window: float = 0.05,
        frame_max_items: int = 64,
    ) -> None:
        self.writer_id = writer_id
        self._send = send
        self._loop = loop
        self.frame_window = frame_window
        self.frame_max_items = frame_max_items
        self._replicas: list[str] = []
        self._frame_items: list[object] = []
        self._flush_event = None
        self.chunks_published = 0
        self.frames_published = 0

    @property
    def replicas(self) -> list[str]:
        return list(self._replicas)

    def attach_replica(self, replica_id: str) -> None:
        if replica_id not in self._replicas:
            self._replicas.append(replica_id)

    def detach_replica(self, replica_id: str) -> None:
        if replica_id in self._replicas:
            self._replicas.remove(replica_id)

    def publish_mtr(self, records: list[LogRecord]) -> None:
        if not self._replicas or not records:
            return
        chunk = MTRChunk(writer_id=self.writer_id, records=tuple(records))
        self._enqueue(chunk)
        self.chunks_published += 1

    def publish_vdl(self, vdl: int) -> None:
        if not self._replicas:
            return
        update = VDLUpdate(writer_id=self.writer_id, vdl=vdl)
        self._enqueue(update)

    def publish_commit(self, txn_id: int, scn: int) -> None:
        if not self._replicas:
            return
        notice = CommitNotice(
            writer_id=self.writer_id, txn_id=txn_id, scn=scn
        )
        self._enqueue(notice)

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def _enqueue(self, item: object) -> None:
        if self._loop is None:
            for replica in self._replicas:
                self._send(replica, item)
            return
        items = self._frame_items
        if (
            items
            and isinstance(item, VDLUpdate)
            and isinstance(items[-1], VDLUpdate)
        ):
            # The VDL is monotone and chunks gate on whichever update
            # arrives, so back-to-back updates collapse to the newest.
            items[-1] = item
            return
        items.append(item)
        if len(items) >= self.frame_max_items:
            self.flush_frame()
        elif self._flush_event is None:
            self._flush_event = self._loop.schedule(
                self.frame_window, self._on_flush_timer
            )

    def _on_flush_timer(self) -> None:
        self._flush_event = None
        self.flush_frame()

    def flush_frame(self) -> None:
        """Send the pending boxcar now (a lone item travels unframed)."""
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        if not self._frame_items:
            return
        items = tuple(self._frame_items)
        self._frame_items.clear()
        payload: object
        if len(items) == 1:
            payload = items[0]
        else:
            payload = ReplicationFrame(writer_id=self.writer_id, items=items)
            self.frames_published += 1
        for replica in self._replicas:
            self._send(replica, payload)
