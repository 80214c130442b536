"""Read replicas (sections 3.2 - 3.4).

A replica attaches to the same storage volume as the writer.  It consumes
the physical replication stream and enforces the paper's three invariants:

1. **Replica read views lag durability at the writer**: views anchor at
   VDL points the writer has advertised, never ahead of them.
2. **Structural changes apply atomically**: records arrive and apply in
   whole MTR chunks, in LSN order, "applied only if above the VDL in the
   writer as seen in the replica" -- i.e. a chunk is only applied once a
   VDL update covering it arrives, so the replica never materializes
   state the writer has not made durable.
3. **Read views anchor to equivalent points on the writer**: the replica
   tracks per-PG frontiers from the stream, so a view at VDL ``v`` reads
   uncached blocks from storage at exactly ``f(pg, v)``.

Redo for uncached blocks is discarded ("Redo records for uncached blocks
can be discarded, as they can be read from the shared storage volume"),
transaction-status pages included: a replica learns outcomes from commit
notices, never from those blocks.

Commit visibility comes from :class:`CommitNotice` messages ("we ship
commit notifications and maintain transaction commit history").

Promotion is modelled at the cluster level: a promoted replica's identity
is handed to a fresh :class:`WriterInstance` that runs ordinary crash
recovery against the shared volume -- "if a commit has been marked durable
and acknowledged to the client, there is no data loss when a replica is
promoted to a write instance".
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro.core.lsn import NULL_LSN
from repro.core.records import EMPTY_IMAGE, LogRecord, apply_redo
from repro.db.instance import Instance, InstanceConfig
from repro.db.mtr import MTRBuilder
from repro.db.replication import (
    CommitNotice,
    MTRChunk,
    ReplicationFrame,
    VDLUpdate,
)
from repro.errors import InstanceStateError
from repro.sim.network import Message
from repro.storage.messages import RequestRejected
from repro.storage.metadata import StorageMetadataService


@dataclass
class ReplicaStats:
    chunks_applied: int = 0
    records_applied: int = 0
    records_discarded: int = 0
    #: Storage-read images not cached because a discarded record postdated
    #: their read point (the install-vs-discard race).
    stale_installs_declined: int = 0
    #: B-tree reads re-run because a split was applied underneath them.
    traversals_retried: int = 0
    #: Samples of (writer_vdl_seen - applied_vdl) at each VDL update.
    lag_samples: list[int] = field(default_factory=list)


class ReplicaInstance(Instance):
    """A read replica attached to the shared storage volume."""

    optimistic_reads = True

    def __init__(
        self,
        name: str,
        metadata: StorageMetadataService,
        rng: random.Random,
        config: InstanceConfig | None = None,
    ) -> None:
        super().__init__(name, metadata, rng, config)
        self.stats = ReplicaStats()
        #: Chunks sequenced by first LSN, waiting for order or durability.
        self._pending_chunks: list[tuple[int, MTRChunk]] = []
        #: Highest redo LSN discarded per uncached block.  A storage read
        #: issued before such a record arrived returns an image that
        #: predates it; installing that image would silently lose the
        #: record (later redo applies on top of the stale base).  The
        #: install path consults this frontier and declines to cache.
        self._discard_frontier: dict[int, int] = {}
        self._next_expected_lsn = NULL_LSN + 1
        self._writer_vdl_seen = NULL_LSN
        self._applied_vdl = NULL_LSN
        self.online = False
        #: Optional database-tier :class:`repro.repair.FailureDetector`: the
        #: ``writer_id`` on every replication message this replica hears
        #: is writer-liveness evidence.
        self.db_health_probe = None

    def attach(
        self,
        next_expected_lsn: int,
        vdl: int,
        pg_frontiers: dict[int, int],
        commit_history: dict[int, int],
    ) -> None:
        """Join the replication stream at the writer's current position.

        "This approach allows Aurora customers to quickly set up and tear
        down replicas in response to sharp demand spikes, since durable
        state is shared" -- attaching needs only the stream cursor and the
        commit history, never a data copy.  A re-attach (to a promoted
        writer's stream) drops the pool and the views of the previous
        stream generation first, with their read points.
        """
        self.cache.drop_all()
        self.views.clear()
        self._next_expected_lsn = next_expected_lsn
        self._writer_vdl_seen = vdl
        self._applied_vdl = vdl
        self._discard_frontier.clear()
        self.frontiers.reset(vdl, pg_frontiers)
        # A view of the previous generation is gone with ``views``; its
        # read point must go too, or it pins the GC floor for good.
        self.min_read.clear_active()
        self.min_read.advance_floor(vdl)
        for txn_id, scn in commit_history.items():
            self.registry.record_commit(txn_id, scn)
        self.online = True

    @property
    def applied_vdl(self) -> int:
        return self._applied_vdl

    @property
    def replica_lag(self) -> int:
        """LSN distance between the writer's durable point and ours."""
        return max(0, self._writer_vdl_seen - self._applied_vdl)

    # ------------------------------------------------------------------
    # Replication stream intake
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        payload = message.payload
        if not self.online:
            return
        if self.db_health_probe is not None:
            writer_id = getattr(payload, "writer_id", None)
            if writer_id is not None:
                # Redo chunks, VDL heartbeats and commit notices all prove
                # the writer alive.
                self.db_health_probe.heard(writer_id)
        if isinstance(payload, ReplicationFrame):
            for item in payload.items:
                self._on_stream_item(item)
        elif isinstance(payload, RequestRejected):
            self.driver.on_rejection(payload)
        else:
            self._on_stream_item(payload)

    def _on_stream_item(self, item) -> None:
        if isinstance(item, MTRChunk):
            self._on_chunk(item)
        elif isinstance(item, VDLUpdate):
            self._on_vdl_update(item)
        elif isinstance(item, CommitNotice):
            self._on_commit_notice(item)

    def _on_chunk(self, chunk: MTRChunk) -> None:
        first_lsn = chunk.records[0].lsn
        if first_lsn < self._next_expected_lsn:
            return  # duplicate / pre-attach history
        heapq.heappush(self._pending_chunks, (first_lsn, chunk))
        self._drain_chunks()

    def _on_vdl_update(self, update: VDLUpdate) -> None:
        if update.vdl <= self._writer_vdl_seen:
            return
        self._writer_vdl_seen = update.vdl
        self._drain_chunks()
        self.stats.lag_samples.append(self.replica_lag)

    def _on_commit_notice(self, notice: CommitNotice) -> None:
        if self.registry.commit_scn(notice.txn_id) is None:
            self.registry.record_commit(notice.txn_id, notice.scn)

    def _drain_chunks(self) -> None:
        """Apply sequenced chunks whose records the writer reports durable.

        Invariant 2 (atomicity) comes from applying whole chunks in one
        event; invariant 1 (lag durability) from the VDL gate.
        """
        while self._pending_chunks:
            first_lsn, chunk = self._pending_chunks[0]
            last_lsn = chunk.records[-1].lsn
            if first_lsn != self._next_expected_lsn:
                # Out-of-order delivery: wait for the gap to fill.  (If the
                # writer crashed, the promoted writer re-attaches us.)
                return
            if last_lsn > self._writer_vdl_seen:
                return  # not yet durable at the writer, invariant 1
            heapq.heappop(self._pending_chunks)
            self._apply_chunk(chunk)
            self._next_expected_lsn = last_lsn + 1

    def _apply_chunk(self, chunk: MTRChunk) -> None:
        self.stats.chunks_applied += 1
        last_lsn = chunk.records[-1].lsn
        self._note_structure_change(chunk.records)
        for record in chunk.records:
            self.frontiers.record(record.lsn, record.pg_index)
            self._apply_record(record)
        # The chunk is durable (VDL-gated), so its end is our new VDL.
        self._applied_vdl = last_lsn
        if self.audit_probe is not None:
            self.audit_probe.on_replica_apply(
                self.name, self._applied_vdl, self._writer_vdl_seen
            )
        self.frontiers.advance_vdl(last_lsn)
        self.min_read.advance_floor(last_lsn)
        self.frontiers.prune_below(self.min_read.current())

    def _apply_record(self, record: LogRecord) -> None:
        if record.block < 0:
            return
        cached = self.cache.peek(record.block)
        if cached is None:
            # Uncached: discard; storage serves it on demand.  This must
            # hold even for the hot txn-status pages: fabricating an
            # empty base image and applying only this record is correct
            # only for a replica that has seen the block's entire
            # history, and a replica attached mid-life (failover
            # replenishment) has not -- it would then serve the
            # fabricated image as authoritative.  The first read warms
            # the block from storage at a consistent point instead.
            if record.lsn > self._discard_frontier.get(record.block, NULL_LSN):
                self._discard_frontier[record.block] = record.lsn
            self.stats.records_discarded += 1
            return
        if record.lsn <= cached.latest_lsn:
            return
        self.cache.apply_change(
            record.block, apply_redo(record, cached.image), record.lsn
        )
        self.stats.records_applied += 1

    # ------------------------------------------------------------------
    # BlockIO (read-only)
    # ------------------------------------------------------------------
    def cached_image(self, block: int, mtr: MTRBuilder | None = None):
        if mtr is not None:
            raise InstanceStateError("replicas are read-only")
        cached = self.cache.lookup(block)
        return cached.image if cached is not None else None

    def fetch_image(self, block: int):
        pg_index = self.pg_of_block(block)
        pg_point = self.frontiers.pg_read_point(pg_index, self._applied_vdl)
        if pg_point == NULL_LSN:
            return EMPTY_IMAGE
        image, version_lsn = yield self.driver.read_block(
            block, pg_index, pg_point
        )
        # Install-vs-discard race: while this read was in flight, redo for
        # this (then-uncached) block may have arrived and been discarded.
        # The image is a consistent snapshot at ``pg_point`` -- fine for
        # the caller's view -- but caching it would resurrect a base that
        # predates the discarded record, and later redo would apply on top
        # of the gap, permanently diverging this replica.  Decline to
        # cache; a later read at a fresh point will warm the block.
        if self._discard_frontier.get(block, NULL_LSN) <= pg_point:
            self.cache.install(block, image, version_lsn, self._applied_vdl)
        else:
            self.stats.stale_installs_declined += 1
        return image

    def stage_change(self, mtr, block, base, payload):
        raise InstanceStateError("replicas are read-only")

    def allocate_block(self, mtr):
        raise InstanceStateError("replicas are read-only")

    # ------------------------------------------------------------------
    # Role hooks (see Instance)
    # ------------------------------------------------------------------
    def _require_readable(self) -> None:
        if not self.online:
            raise InstanceStateError(f"replica {self.name} is not attached")

    def _view_anchor(self) -> int:
        """The latest applied VDL (invariant 3), shown to the auditor."""
        if self.audit_probe is not None:
            self.audit_probe.on_replica_view(
                self.name, self._applied_vdl, self._writer_vdl_seen
            )
        return self._applied_vdl

    def _may_advertise(self) -> bool:
        # A detached replica's tick stays armed, silent until it attaches.
        return self.online

    # ------------------------------------------------------------------
    # Detach / crash
    # ------------------------------------------------------------------
    def detach(self) -> None:
        self.online = False
        self._pending_chunks.clear()

    def on_crash(self) -> None:
        self.online = False
        self.cache.drop_all()
        self._discard_frontier.clear()
        self.views.clear()
        self.min_read.clear_active()
        self._pending_chunks.clear()
