"""Cross-region redo shipping over the reliable WAN layer.

Two actors implement the paper-consistent "log is the database" approach
to geo-replication: the primary never ships pages or tuples, only the
same physical redo stream its in-region replicas already consume.

- :class:`GeoSender` lives in the primary region.  It subscribes to the
  writer's :class:`~repro.db.replication.ReplicationPublisher` stream
  (MTR chunks, VDL updates, commit notices -- possibly boxcar-framed),
  unwraps frames, and offers each item to a
  :class:`~repro.sim.wan.WanSender` for reliable, in-order delivery
  across the lossy link.  In *sync* ack mode it additionally installs
  itself as the writer's ``commit_gate``: a locally-durable commit is
  acknowledged only once the secondary's applied-VDL frontier (carried
  back on WAN acks) has passed its SCN, which is what makes region loss
  RPO-zero for acknowledged commits.  A WAN-silence *lease* self-fences
  the writer: a primary that cannot hear the secondary for ``LEASE_MS``
  steps down before the secondary's promotion wait elapses, so a
  cross-region split brain never yields two acking writers.

- :class:`GeoApplier` lives in the secondary region.  It owns a plain
  :class:`~repro.db.driver.StorageDriver` against the secondary volume's
  metadata and replays the shipped redo into the secondary storage
  fleet.  Chunks are withheld until the primary's *durable* VDL covers
  them (the audited invariant: the secondary's applied VDL never exceeds
  the primary's durable VDL), so the secondary volume is always a
  consistent prefix of the primary.  Its applied VDL -- the replication
  lag frontier -- is piggybacked on every WAN ack, and pushed eagerly
  when the secondary quorum advances it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.db.driver import StorageDriver
from repro.db.instance import InstanceState, WriterInstance
from repro.db.replication import MTRChunk, ReplicationFrame, VDLUpdate
from repro.errors import ConfigurationError, ReplicationLagExceededError
from repro.sim.network import Actor, Message
from repro.sim.wan import (
    WanAck,
    WanFrame,
    WanHeartbeat,
    WanReceiver,
    WanSender,
)
from repro.storage.messages import RequestRejected, WriteAck

#: Commit acknowledgement modes for the geo tier: ``"sync"`` gates commit
#: acks on the secondary's applied frontier; ``"async"`` acks on local
#: durability (RPO bounded by the lag).
SYNC = "sync"
ASYNC = "async"

#: WAN-silence lease: an OPEN writer that has heard no ack for this long
#: closes itself.  Must comfortably exceed any tolerated WAN brownout, and
#: the promotion side waits it out (plus a margin) before recovering, so a
#: partitioned stale primary is provably fenced before the secondary
#: starts acking.
LEASE_MS = 2_500.0
#: Sync mode: longest a locally-durable commit may wait for the remote
#: frontier before failing (retryably) with
#: :class:`~repro.errors.ReplicationLagExceededError`.
SYNC_LAG_BOUND_MS = 2_000.0
#: Gate-expiry / lease check cadence.
POLL_MS = 50.0


@dataclass(frozen=True)
class GeoHeartbeatInfo:
    """Primary state piggybacked on WAN heartbeats: the epochs the
    secondary must dominate at promotion, and the durable VDL that gates
    what the applier may submit."""

    epochs: Any
    vdl: int


class GeoSender(Actor):
    """Primary-region endpoint: taps the writer's replication stream."""

    def __init__(
        self,
        name: str,
        writer: WriterInstance,
        peer: str,
        ack_mode: str = ASYNC,
    ) -> None:
        super().__init__(name)
        if ack_mode not in (SYNC, ASYNC):
            raise ConfigurationError(
                f"ack_mode must be {SYNC!r} or {ASYNC!r}, got {ack_mode!r}"
            )
        self.writer = writer
        self.peer = peer
        self.ack_mode = ack_mode
        self.wan: WanSender | None = None
        #: Highest secondary applied VDL reported on WAN acks.
        self.remote_applied_vdl = 0
        #: ``True`` once a redo chunk was refused by the bounded WAN
        #: buffer: the shipped prefix has a permanent gap and the
        #: secondary can never catch up past it.
        self.stream_broken = False
        self.chunks_dropped = 0
        self.commits_gated = 0
        self.commits_lag_failed = 0
        #: Simulated time of the lease-triggered self-fence, if any.
        self.self_fenced_at: float | None = None
        #: Pending sync gates, SCN-ordered: (scn, deadline, release, fail).
        self._gated: deque = deque()
        self._last_info: GeoHeartbeatInfo | None = None
        self._tick_scheduled = False
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Wire the WAN sender and the commit gate (after attach)."""
        self.wan = WanSender(
            self.loop,
            transmit=lambda p: self.network.send(self.name, self.peer, p),
            heartbeat_info=self._heartbeat_info,
            on_ack_info=self._on_ack_info,
        )
        self.writer.publisher.attach_replica(self.name)
        if self.ack_mode == SYNC:
            self.writer.commit_gate = self.gate_commit
        self._schedule_tick()

    def stop(self) -> None:
        """Tear down permanently (region lost or superseded)."""
        if self._stopped:
            return
        self._stopped = True
        if self.wan is not None:
            self.wan.stop()
        self._fail_all_gated("geo replication endpoint stopped")

    def stall_stream(self, duration_ms: float) -> None:
        """Chaos hook: pause data frames (heartbeats keep flowing)."""
        if self.wan is not None:
            self.wan.stall(duration_ms)

    # ------------------------------------------------------------------
    # Stream intake
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if self._stopped or self.wan is None:
            return
        payload = message.payload
        if isinstance(payload, WanAck):
            self.wan.on_ack(payload)
        elif isinstance(payload, ReplicationFrame):
            for item in payload.items:
                self._offer(item)
        else:
            self._offer(payload)

    def _offer(self, item: Any) -> None:
        size = len(item.records) if isinstance(item, MTRChunk) else 1
        if not self.wan.offer(item, size=size):
            # A refused VDL update or commit notice is superseded by the
            # next one; a refused redo chunk is a hole forever.
            if isinstance(item, MTRChunk):
                self.stream_broken = True
                self.chunks_dropped += 1

    def _heartbeat_info(self) -> GeoHeartbeatInfo | None:
        if self.writer.state is InstanceState.OPEN:
            self._last_info = GeoHeartbeatInfo(
                epochs=self.writer.driver.epochs, vdl=self.writer.vdl
            )
        return self._last_info

    # ------------------------------------------------------------------
    # The sync commit gate
    # ------------------------------------------------------------------
    def gate_commit(
        self,
        scn: int,
        release: Callable[[], None],
        fail: Callable[[BaseException], None],
    ) -> None:
        """``WriterInstance.commit_gate`` hook (sync ack mode only)."""
        if self.ack_mode != SYNC or scn <= self.remote_applied_vdl:
            release()
            return
        if self._stopped or self.stream_broken or self.wan.backpressured:
            self.commits_lag_failed += 1
            fail(
                ReplicationLagExceededError(
                    f"commit {scn} is locally durable but the secondary "
                    "region cannot keep up (stream "
                    + ("broken" if self.stream_broken else "backpressured")
                    + "); retry or accept async-mode risk"
                )
            )
            return
        self.commits_gated += 1
        self._gated.append(
            (scn, self.loop.now + SYNC_LAG_BOUND_MS, release, fail)
        )

    def _on_ack_info(self, info: Any) -> None:
        if info is None:
            return
        if info > self.remote_applied_vdl:
            self.remote_applied_vdl = info
            self._release_gated()

    def _release_gated(self) -> None:
        while self._gated and self._gated[0][0] <= self.remote_applied_vdl:
            _, _, release, _ = self._gated.popleft()
            release()

    def _fail_all_gated(self, reason: str) -> None:
        while self._gated:
            scn, _, _, fail = self._gated.popleft()
            self.commits_lag_failed += 1
            fail(
                ReplicationLagExceededError(
                    f"commit {scn} is locally durable but unacked: {reason}"
                )
            )

    # ------------------------------------------------------------------
    # Housekeeping: gate expiry and the WAN-silence lease
    # ------------------------------------------------------------------
    def _schedule_tick(self) -> None:
        if self._tick_scheduled or self._stopped:
            return
        self._tick_scheduled = True
        self.loop.schedule(POLL_MS, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self._stopped:
            return
        now = self.loop.now
        self._release_gated()
        while self._gated and self._gated[0][1] <= now:
            scn, _, _, fail = self._gated.popleft()
            self.commits_lag_failed += 1
            fail(
                ReplicationLagExceededError(
                    f"commit {scn} is locally durable but the secondary "
                    f"applied frontier ({self.remote_applied_vdl}) did not "
                    f"reach it within {SYNC_LAG_BOUND_MS:.0f} ms"
                )
            )
        if (
            self.wan is not None
            and now - self.wan.last_ack_at > LEASE_MS
            and self.writer.state is InstanceState.OPEN
        ):
            # Split-brain defence: we may merely be partitioned from the
            # secondary, which will promote after waiting this lease out.
            # Step down first so no commit is acked past promotion.
            self.self_fenced_at = now
            self.writer.close(
                reason=(
                    f"geo replication lease expired ({LEASE_MS:.0f} ms "
                    "without a WAN ack)"
                )
            )
            self._fail_all_gated("primary self-fenced on lease expiry")
        self._schedule_tick()


class GeoApplier(Actor):
    """Secondary-region endpoint: replays redo into the secondary volume."""

    def __init__(self, name: str, cluster, peer: str) -> None:
        super().__init__(name)
        #: The secondary-region :class:`~repro.db.cluster.AuroraCluster`.
        self.cluster = cluster
        self.peer = peer
        self.driver: StorageDriver | None = None
        self.receiver: WanReceiver | None = None
        #: Highest *durable* VDL the primary has reported (stream VDL
        #: updates and heartbeats); gates what may be submitted.
        self.primary_vdl = 0
        #: Freshest epoch stamp seen from the primary (heartbeats); the
        #: promotion merges it so the promoted epoch strictly dominates.
        self.primary_epochs = None
        self.last_primary_signal_at = 0.0
        self.chunks_applied = 0
        #: Redo chunks received in order but beyond ``primary_vdl``.
        self._pending: deque = deque()
        #: Liveness hook: called on every primary signal (the region
        #: detector's ``heard`` for the primary writer).
        self.on_signal: Callable[[], None] | None = None
        #: Optional :class:`repro.audit.Auditor` for the geo invariants.
        self.audit_probe = None
        self._stopped = False

    @property
    def applied_vdl(self) -> int:
        """The replication lag frontier: the secondary's durable VDL."""
        return self.driver.vdl if self.driver is not None else 0

    @property
    def lag(self) -> int:
        """LSN distance between the primary's durable point and ours."""
        return max(0, self.primary_vdl - self.applied_vdl)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Wire the applier driver and WAN receiver (after attach)."""
        self.driver = StorageDriver(
            instance_id=self.name,
            loop=self.loop,
            send=lambda dst, p: self.network.send(self.name, dst, p),
            rpc=lambda dst, p: self.network.rpc(self.name, dst, p),
            metadata=self.cluster.metadata,
            rng=self.cluster.rng,
        )
        self.driver.configure_all_pgs()
        self.driver.on_vdl_advance.append(self._on_applied_advance)
        # A foreign volume-epoch bump means the secondary writer was
        # promoted (or someone else fenced the volume): stop applying.
        self.driver.on_fenced.append(self.stop)
        self.receiver = WanReceiver(
            self.loop,
            transmit=lambda p: self.network.send(self.name, self.peer, p),
            deliver=self._apply_item,
            ack_info=lambda: self.applied_vdl,
            on_heartbeat=self._on_heartbeat,
        )

    def stop(self) -> None:
        """Stop applying permanently (promotion fenced the volume)."""
        self._stopped = True
        self._pending.clear()

    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, (WanFrame, WanHeartbeat)):
            if self.receiver is not None:
                self.receiver.on_message(payload)
        elif isinstance(payload, WriteAck):
            if self.driver is not None and not self._stopped:
                self.driver.on_write_ack(payload)
        elif isinstance(payload, RequestRejected):
            if self.driver is not None and not self._stopped:
                self.driver.on_rejection(payload)

    def _apply_item(self, item: Any) -> None:
        self._note_signal()
        if self._stopped:
            return
        if isinstance(item, MTRChunk):
            self._pending.append(item.records)
            self._flush()
        elif isinstance(item, VDLUpdate):
            if item.vdl > self.primary_vdl:
                self.primary_vdl = item.vdl
                self._flush()
        # A CommitNotice needs nothing: commit records ride MTR chunks.


    def _on_heartbeat(self, info: Any) -> None:
        self._note_signal()
        if info is None or self._stopped:
            return
        self.primary_epochs = info.epochs
        if info.vdl > self.primary_vdl:
            self.primary_vdl = info.vdl
            self._flush()

    def _flush(self) -> None:
        """Submit every pending chunk the primary's durable VDL covers.

        The stream is FIFO and the publisher emits a VDL update only
        after the chunks it covers, so withheld chunks release in order;
        chunks beyond the primary VDL when the primary dies are exactly
        the writes the primary itself never acknowledged.
        """
        while (
            self._pending
            and self._pending[0][-1].lsn <= self.primary_vdl
        ):
            records = self._pending.popleft()
            self.driver.submit(list(records))
            self.chunks_applied += 1

    def _on_applied_advance(self, vdl: int) -> None:
        if self.audit_probe is not None and vdl > self.primary_vdl:
            # Structurally impossible while _flush gates submissions;
            # audited so a regression surfaces as a violation, not as
            # silent divergence.
            self.audit_probe.flag(
                "geo-applied-ahead-of-primary",
                self.name,
                f"secondary applied VDL {vdl} exceeds the primary's "
                f"durable VDL {self.primary_vdl}",
            )
        if self.receiver is not None and not self._stopped:
            # Tell the sender promptly: sync commit acks wait on this.
            self.receiver.push_ack()

    def _note_signal(self) -> None:
        self.last_primary_signal_at = self.loop.now
        if self.on_signal is not None:
            self.on_signal()
