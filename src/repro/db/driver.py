"""The storage driver inside a database instance.

Write path (section 2.2): "Changes to data blocks modify the image in the
Aurora buffer cache and add the corresponding redo record to a log buffer.
These are periodically flushed to a storage driver ...  Inside the driver,
they are shuffled to individual write buffers for each storage node storing
segments for the data volume.  The driver asynchronously issues writes,
receives acknowledgments, and establishes consistency points."

Boxcar strategy (the paper's jitter fix): "Aurora handles this by submitting
the asynchronous network operation when it receives the first redo log
record in the boxcar but continuing to fill the buffer until the network
operation executes."  Two ablation modes are provided -- a classic
size-or-timeout boxcar (the jittery design the paper criticises) and
no-boxcar-at-all -- so benchmark C2 can compare all three.

Read path (section 3.1): reads go to a single segment chosen from the
driver's own durability bookkeeping, with latency tracking, occasional
exploration, and hedging of overdue requests.  Hedging is checked whenever
any other I/O completes ("without request timeouts by inspecting the list
of outstanding requests when performing other I/Os") plus a coarse fallback
sweep for idle periods.

The driver also provides the quorum-RPC helpers recovery and membership
changes are built from: scatter a request to every member, resolve once the
responder set satisfies the read or write quorum expression.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.consistency import PGConsistencyTracker, VolumeConsistencyTracker
from repro.core.commit import CommitQueue
from repro.core.epochs import EpochStamp
from repro.core.read_routing import LatencyTracker, ReadPlan, ReadRouter
from repro.core.records import LogRecord
from repro.db.wire import (
    batch_logical_bytes,
    batch_wire_bytes,
    elide_superseded,
)
from repro.errors import SegmentUnavailableError
from repro.sim.events import EventLoop, Future
from repro.storage.messages import (
    CORRUPT_PAYLOAD,
    EpochWrite,
    ReadBlockRequest,
    ReadBlockResponse,
    RecoveryScanRequest,
    RequestRejected,
    TruncateRequest,
    WriteAck,
    WriteBatch,
)
from repro.storage.metadata import StorageMetadataService


class BoxcarMode(enum.Enum):
    """How the driver batches records into write buffers."""

    #: The paper's design: issue the async send on the first record, keep
    #: filling the buffer until the send executes.  No added latency, no
    #: timeout jitter, still batches under load.
    AURORA = "aurora"
    #: Classic group-commit boxcar: flush at N records or after a timeout.
    #: "Jitter is greatest under low load when the boxcar times out."
    TIMEOUT = "timeout"
    #: No batching: one network operation per record.
    IMMEDIATE = "immediate"


#: AURORA mode: delay until the issued async network op executes (ms) --
#: the only thing a commit waits for that is not protocol.  Every
#: alternative tried (a load-derived window, flush-on-ack, no window, send
#: on an idle sender) lost to it on the ledger: docs/PERF.md "One flush
#: policy".  The writer's replication frames share it (db/instance.py).
SUBMIT_DELAY_MS = 0.05
#: Grace period to collect straggler responses past quorum (ms).
QUORUM_GRACE_MS = 5.0
#: Hard deadline for a quorum RPC, and for a read nobody answers;
#: unreachable quorum fails here (ms).
QUORUM_DEADLINE_MS = 200.0
#: Unacknowledged batches retained per segment for resubmission.
UNACKED_RETAIN = 64


@dataclass
class DriverConfig:
    boxcar_mode: BoxcarMode = BoxcarMode.AURORA
    #: TIMEOUT mode's timer; both boxcar modes leave at once when full.
    boxcar_timeout: float = 4.0
    boxcar_max_records: int = 32
    #: Compress redo payloads on the wire: delta-encode consecutive LSNs
    #: and elide same-transaction superseded payloads inside each batch
    #: (see :mod:`repro.db.wire`).
    wire_compression: bool = True
    #: Hedged-read fallback sweep period when no other I/O fires (ms).
    hedge_sweep_interval: float = 1.0
    explore_probability: float = 0.02
    hedge_multiplier: float = 3.0


@dataclass
class DriverStats:
    batches_sent: int = 0
    records_sent: int = 0
    acks_received: int = 0
    rejections_seen: int = 0
    batches_resubmitted: int = 0
    reads_issued: int = 0
    reads_completed: int = 0
    hedges_issued: int = 0
    explores_issued: int = 0
    read_latencies: list[float] = field(default_factory=list)
    #: Per-record wait between submit() and the batch leaving the driver.
    boxcar_delays: list[float] = field(default_factory=list)
    #: Wire compression: superseded same-txn payloads elided from batches.
    records_elided: int = 0
    #: Modelled wire bytes of every batch sent (per unique batch, not per
    #: fan-out target) versus the uncompressed bytes of the same records.
    wire_bytes: int = 0
    logical_bytes: int = 0


class _PGWriteBuffer:
    """Pending records for one protection group."""

    __slots__ = ("records", "flush_event")

    def __init__(self) -> None:
        self.records: list[tuple[LogRecord, float]] = []
        self.flush_event = None  # scheduled Event or None

    def __len__(self) -> int:
        return len(self.records)


@dataclass(eq=False)  # identity: the list is searched for *this* read
class _OutstandingRead:
    block: int
    pg_index: int
    read_point: int
    segment: str
    issued_at: float
    #: ``hedge_candidates``: where this RPC's hedge, and that hedge's own,
    #: may still go.
    plan: ReadPlan
    future: Future
    #: A hedge has been issued for this RPC (each is hedged at most once).
    hedged: bool = False
    exclude: frozenset[str] = frozenset()


class StorageDriver:
    """Asynchronous write/read engine owned by one database instance."""

    def __init__(
        self,
        instance_id: str,
        loop: EventLoop,
        send: Callable[[str, object], None],
        rpc: Callable[[str, object], Future],
        metadata: StorageMetadataService,
        rng: random.Random,
        config: DriverConfig | None = None,
        optimistic_reads: bool = False,
    ) -> None:
        self.instance_id = instance_id
        #: Replicas are not in the acknowledgement path, so they cannot
        #: know which segments are durable; with optimistic reads the
        #: driver targets any full segment and relies on the storage
        #: node's read-window rejection plus retry to find a current one.
        self.optimistic_reads = optimistic_reads
        self.loop = loop
        self._send = send
        self._rpc = rpc
        self.metadata = metadata
        self.rng = rng
        self.config = config if config is not None else DriverConfig()
        self.stats = DriverStats()
        self.epochs: EpochStamp = metadata.epochs
        self.pg_trackers: dict[int, PGConsistencyTracker] = {}
        self.volume = VolumeConsistencyTracker()
        self.commit_queue = CommitQueue()
        #: Optional :class:`repro.audit.Auditor` observer.  The driver owns
        #: it (rather than the trackers alone) because crash handling
        #: replaces the trackers wholesale; see :meth:`attach_audit_probe`.
        self.audit_probe = None
        #: Optional :class:`repro.repair.FailureDetector` observer: acks,
        #: rejections, read replies, and hedge escalations feed its passive
        #: per-segment liveness signals (``None`` = one attribute load).
        self.health_probe = None
        #: Fired (no arguments) when a rejection reveals a *volume*-epoch
        #: advance this driver did not perform: a successor writer fenced
        #: us (section 6's "changing the locks on the door").  The owning
        #: instance subscribes to stop issuing I/O.
        self.on_fenced: list[Callable[[], None]] = []
        #: Per-segment ring of recently sent, not-yet-acknowledged batches:
        #: fuel for resubmitting a rejected batch under the adopted epochs,
        #: so a single stale-epoch race costs one extra request instead of
        #: stranding records until gossip refills them (section 4.1).
        self._unacked: dict[str, deque[WriteBatch]] = {}
        self.latency_tracker = LatencyTracker()
        self.router = ReadRouter(
            self.latency_tracker,
            rng,
            explore_probability=self.config.explore_probability,
            hedge_multiplier=self.config.hedge_multiplier,
        )
        self._buffers: dict[int, _PGWriteBuffer] = {}
        self._outstanding_reads: list[_OutstandingRead] = []
        self._hedge_sweep_scheduled = False
        #: Called with the new VCL after each advance.
        self.on_vcl_advance: list[Callable[[int], None]] = []
        #: Called with the new VDL after each advance.
        self.on_vdl_advance: list[Callable[[int], None]] = []
        #: Supplies the PGMRPL piggybacked on writes.
        self.pgmrpl_provider: Callable[[], int] = lambda: 0

    # ------------------------------------------------------------------
    # Configuration / membership
    # ------------------------------------------------------------------
    def configure_pg(self, pg_index: int) -> PGConsistencyTracker:
        """(Re)load a PG's quorum config from the metadata service."""
        config = self.metadata.quorum_config(pg_index)
        # Backends whose durability quorum spans only part of the
        # membership (Taurus: log stores) still track every member's acked
        # SCL, so asynchronous replicas feed read routing.
        tracked = self.metadata.tracked_members_of_pg(pg_index)
        tracker = self.pg_trackers.get(pg_index)
        if tracker is None:
            tracker = PGConsistencyTracker(
                pg_index,
                config,
                audit_probe=self.audit_probe,
                audit_owner=self.instance_id,
                tracked=tracked,
            )
            self.pg_trackers[pg_index] = tracker
        else:
            tracker.set_config(config, tracked=tracked)
        return tracker

    def attach_audit_probe(self, probe) -> None:
        """Arm a :class:`repro.audit.Auditor` on every tracker this driver
        owns, now and across crash-time recreation."""
        self.audit_probe = probe
        self.volume.audit_probe = probe
        self.volume.audit_owner = self.instance_id
        self.commit_queue.audit_probe = probe
        self.commit_queue.audit_owner = self.instance_id
        for tracker in self.pg_trackers.values():
            tracker.audit_probe = probe
            tracker.audit_owner = self.instance_id
            probe.on_quorum_config(
                self.instance_id, tracker.pg_index, tracker.config
            )

    def configure_all_pgs(self) -> None:
        for pg_index in self.metadata.pg_indexes():
            self.configure_pg(pg_index)

    def refresh_epochs(self) -> None:
        self.epochs = self.metadata.epochs

    def adopt_epochs(self, stamp: EpochStamp) -> None:
        old = self.epochs
        self.epochs = old.merge(stamp)
        if self.epochs != old and self.audit_probe is not None:
            self.audit_probe.on_epoch_change(
                self.instance_id, old, self.epochs
            )
        self.metadata.record_epochs(self.epochs)

    @property
    def vcl(self) -> int:
        return self.volume.vcl

    @property
    def vdl(self) -> int:
        return self.volume.vdl

    def members_of(self, pg_index: int) -> tuple[str, ...]:
        return self.metadata.routes_of_pg(pg_index).members

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def submit(self, records: list[LogRecord]) -> None:
        """Hand sealed MTR records to the driver (registers them for VCL
        tracking and shards them into per-PG write buffers)."""
        now = self.loop.now
        buffers = self._buffers
        for record in records:
            self.volume.register(record.lsn, record.pg_index, record.mtr_end)
            buffer = buffers.get(record.pg_index)
            if buffer is None:
                buffer = buffers[record.pg_index] = _PGWriteBuffer()
            buffer.records.append((record, now))
            self._arm_flush(record.pg_index, buffer)

    def _arm_flush(self, pg_index: int, buffer: _PGWriteBuffer) -> None:
        config = self.config
        mode = config.boxcar_mode
        if mode is BoxcarMode.IMMEDIATE:
            self._flush(pg_index)
        elif len(buffer) >= config.boxcar_max_records:
            # Size bound: a full boxcar goes out immediately -- the async
            # send "executes" once the wire buffer is full.
            if buffer.flush_event is not None:
                buffer.flush_event.cancel()
                buffer.flush_event = None
            self._flush(pg_index)
        elif buffer.flush_event is None:
            # Time bound: the first record arms the send and the boxcar
            # keeps filling until it executes (AURORA), or waits out the
            # classic boxcar timer (TIMEOUT).
            window = (
                SUBMIT_DELAY_MS
                if mode is BoxcarMode.AURORA
                else config.boxcar_timeout
            )
            buffer.flush_event = self.loop.schedule(
                window, self._flush, pg_index
            )

    def _flush(self, pg_index: int) -> None:
        buffer = self._buffers.get(pg_index)
        if buffer is None or not buffer.records:
            if buffer is not None:
                buffer.flush_event = None
            return
        records = tuple(record for record, _t in buffer.records)
        now = self.loop.now
        self.stats.boxcar_delays.extend(
            now - submitted for _r, submitted in buffer.records
        )
        buffer.records.clear()
        buffer.flush_event = None
        wire_bytes = logical_bytes = 0
        if self.config.wire_compression:
            logical_bytes = batch_logical_bytes(records)
            records, elided = elide_superseded(records)
            wire_bytes = batch_wire_bytes(records)
            stats = self.stats
            stats.records_elided += elided
            stats.wire_bytes += wire_bytes
            stats.logical_bytes += logical_bytes
        batch = WriteBatch(
            instance_id=self.instance_id,
            pg_index=pg_index,
            records=records,
            epochs=self.epochs,
            pgmrpl=self.pgmrpl_provider(),
            wire_bytes=wire_bytes,
            logical_bytes=logical_bytes,
        )
        for member in self.metadata.routes_of_pg(pg_index).write_members:
            self._send(member, batch)
            self.stats.batches_sent += 1
            self.stats.records_sent += len(records)
            queue = self._unacked.get(member)
            if queue is None:
                queue = self._unacked[member] = deque(maxlen=UNACKED_RETAIN)
            queue.append(batch)

    def flush_all(self) -> None:
        """Force every buffer out (used at commit in TIMEOUT ablations)."""
        for pg_index in list(self._buffers):
            self._flush(pg_index)

    # ------------------------------------------------------------------
    # Acknowledgement processing
    # ------------------------------------------------------------------
    def on_write_ack(self, ack: WriteAck) -> None:
        self.stats.acks_received += 1
        if self.health_probe is not None:
            self.health_probe.heard(ack.segment_id)
        queue = self._unacked.get(ack.segment_id)
        if queue:
            # Everything at or below the acked SCL is durable on that
            # segment; retained batches covered by it are dead weight.
            while queue and queue[0].records[-1].lsn <= ack.scl:
                queue.popleft()
        tracker = self.pg_trackers.get(ack.pg_index)
        if tracker is None:
            return
        if tracker.record_ack(ack.segment_id, ack.scl):
            vcl_advanced, vdl_advanced = self.volume.on_pgcl(
                ack.pg_index, tracker.pgcl
            )
            if vcl_advanced:
                self.commit_queue.on_vcl_advance(self.volume.vcl, self.loop.now)
                for callback in self.on_vcl_advance:
                    callback(self.volume.vcl)
            if vdl_advanced:
                for callback in self.on_vdl_advance:
                    callback(self.volume.vdl)
        # Any completed I/O is an opportunity to inspect outstanding reads.
        self._inspect_outstanding_reads()

    def on_rejection(self, rejection: RequestRejected) -> None:
        self.stats.rejections_seen += 1
        if self.health_probe is not None:
            # A rejection is negative protocol evidence but *positive*
            # liveness evidence: the segment is up and talking.
            self.health_probe.heard(rejection.segment_id)
        before = self.epochs
        self.adopt_epochs(rejection.current_epochs)
        if self.epochs.volume > before.volume:
            # A volume-epoch advance this driver did not perform can only
            # mean a successor ran recovery: we have been fenced.  Our
            # retained batches belong to a dead generation -- resubmitting
            # them at the new epoch would inject a zombie's writes past
            # the fence -- so drop them and tell the instance to stop.
            self._unacked.clear()
            for callback in list(self.on_fenced):
                callback()
            return
        if rejection.reason == CORRUPT_PAYLOAD:
            # The segment's ingest verification caught the payload damaged
            # in flight; the retained copy here is clean, so resubmit it
            # even though no epoch advanced (DESIGN.md §12).
            self._resubmit_segment(rejection.segment_id)
            return
        if self.epochs == before:
            # Nothing newer was adopted (e.g. a read-window rejection):
            # resending the same stamp would only bounce again.
            return
        self._resubmit_segment(rejection.segment_id)

    def _resubmit_segment(self, segment_id: str) -> None:
        """"Updates of stale state ... requiring just one additional
        request past the one rejected", no wait: re-stamp the retained
        batches with the adopted epochs and resend.  Segment receive is
        idempotent, so a batch that actually landed before the epoch bump
        is harmless."""
        queue = self._unacked.get(segment_id)
        if not queue:
            return
        pending = list(queue)
        queue.clear()
        for batch in pending:
            restamped = replace(batch, epochs=self.epochs)
            self._send(segment_id, restamped)
            queue.append(restamped)
            self.stats.batches_resubmitted += 1

    def seed_member_scl(self, pg_index: int, segment_id: str, scl: int) -> None:
        """Install a known SCL after recovery (from scan/truncate acks)."""
        tracker = self.pg_trackers.get(pg_index)
        if tracker is not None:
            tracker.record_ack(segment_id, scl)
            self.volume.on_pgcl(pg_index, tracker.pgcl)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read_block(
        self, block: int, pg_index: int, read_point: int
    ) -> Future:
        """Read one block at ``read_point``; resolves with
        ``(image, version_lsn)`` -- the image object the serving segment's
        chain holds (shared; do not mutate).

        Candidates are the full segments known, from ack bookkeeping, to be
        durable through ``read_point`` -- no quorum read.
        """
        future = Future(self.loop)
        self._issue_read(
            block, pg_index, read_point, future, exclude=frozenset()
        )
        return future

    def _read_candidates(
        self, pg_index: int, read_point: int, exclude: frozenset[str]
    ) -> list[str]:
        """Sorted segments to read ``read_point`` from: one pass over the
        PG's full members against this driver's ack bookkeeping."""
        routes = self.metadata.routes_of_pg(pg_index)
        tracker = self.pg_trackers.get(pg_index)
        known: list[str] = []
        candidates: list[str] = []
        if tracker is not None:
            known = tracker.durable_members_at(read_point, routes.full_members)
            candidates = [m for m in known if m not in exclude]
            if len(candidates) < 2 and routes.read_fallback:
                # Backend read fallback (the Taurus log tail): when fewer
                # than two full copies are caught up and reachable, log
                # stores that can materialize the read point on demand join
                # the candidate set, so hedging has somewhere to escalate.
                # Empty for Aurora.
                fallback = tracker.durable_members_at(
                    read_point, routes.read_fallback
                )
                known += fallback
                candidates = sorted(
                    {*candidates, *(m for m in fallback if m not in exclude)}
                )
        if not known and self.optimistic_reads:
            candidates = [m for m in routes.full_members if m not in exclude]
            if not candidates:
                candidates = [
                    m for m in routes.read_fallback if m not in exclude
                ]
        return candidates

    def _issue_read(
        self,
        block: int,
        pg_index: int,
        read_point: int,
        future: Future,
        exclude: frozenset[str],
    ) -> None:
        candidates = self._read_candidates(pg_index, read_point, exclude)
        if not candidates:
            future.set_exception(
                SegmentUnavailableError(
                    f"no full segment durable through LSN {read_point} "
                    f"in PG {pg_index}"
                )
            )
            return
        plan = self.router.plan(candidates)
        self._dispatch_read(
            block, pg_index, read_point, plan.primary, plan, future,
            is_hedge=False, exclude=exclude,
        )
        if plan.explore is not None:
            self.stats.explores_issued += 1
            self._dispatch_read(
                block, pg_index, read_point, plan.explore, plan, future,
                is_hedge=False, exclude=exclude,
            )

    def _dispatch_read(
        self,
        block: int,
        pg_index: int,
        read_point: int,
        segment: str,
        plan: ReadPlan,
        future: Future,
        is_hedge: bool,
        exclude: frozenset[str] = frozenset(),
    ) -> None:
        self.stats.reads_issued += 1
        if is_hedge:
            self.stats.hedges_issued += 1
        outstanding = _OutstandingRead(
            block=block,
            pg_index=pg_index,
            read_point=read_point,
            segment=segment,
            issued_at=self.loop.now,
            plan=plan,
            future=future,
            exclude=exclude,
        )
        self._outstanding_reads.append(outstanding)
        request = ReadBlockRequest(
            pg_index=pg_index,
            block=block,
            read_point=read_point,
            epochs=self.epochs,
        )
        rpc_future = self._rpc(segment, request)
        rpc_future.add_done_callback(
            lambda f: self._on_read_reply(outstanding, f)
        )
        self._ensure_hedge_sweep()

    def _on_read_reply(self, outstanding: _OutstandingRead, rpc_future: Future) -> None:
        response = rpc_future.result()
        latency = self.loop.now - outstanding.issued_at
        self.latency_tracker.record(outstanding.segment, latency)
        try:
            self._outstanding_reads.remove(outstanding)
        except ValueError:
            pass  # a sweep or a crash already dropped it
        if self.health_probe is not None and not isinstance(
            response, RequestRejected
        ):
            self.health_probe.heard(outstanding.segment)
        if isinstance(response, RequestRejected):
            self.on_rejection(response)
            if not outstanding.future.done:
                # Refresh-and-retry, per the paper's stale-epoch rule; a
                # read-window rejection also steers the retry away from
                # the rejecting segment.
                self._issue_read(
                    outstanding.block,
                    outstanding.pg_index,
                    outstanding.read_point,
                    outstanding.future,
                    exclude=outstanding.exclude | {outstanding.segment},
                )
            return
        if isinstance(response, ReadBlockResponse) and not outstanding.future.done:
            self.stats.reads_completed += 1
            self.stats.read_latencies.append(latency)
            outstanding.future.set_result(
                (response.image, response.version_lsn)
            )
        self._inspect_outstanding_reads()

    def _inspect_outstanding_reads(self) -> None:
        """Hedge any overdue read (called on every completed I/O).

        "Issue a read to another storage node and accept whichever one
        returns first" (section 3.1): an overdue RPC is hedged once, to the
        fastest candidate of its plan not tried yet, and the hedge inherits
        the rest -- so a hedge that is itself overdue (its target crashed
        or partitioned away too) escalates to the next copy.
        """
        if not self._outstanding_reads:
            return
        now = self.loop.now
        for outstanding in list(self._outstanding_reads):
            if outstanding.future.done or outstanding.hedged:
                continue
            elapsed = now - outstanding.issued_at
            if not self.router.should_hedge(outstanding.segment, elapsed):
                continue
            target = self.router.hedge_target(outstanding.plan)
            if target is None or target == outstanding.segment:
                continue
            outstanding.hedged = True
            if self.health_probe is not None:
                self.health_probe.burst(outstanding.segment, "hedge")
            untried = [
                s for s in outstanding.plan.hedge_candidates if s != target
            ]
            self._dispatch_read(
                outstanding.block,
                outstanding.pg_index,
                outstanding.read_point,
                target,
                ReadPlan(primary=target, hedge_candidates=untried),
                outstanding.future,
                is_hedge=True,
            )

    def _fail_exhausted_reads(self) -> None:
        """Fail, diagnosed, the reads that have nowhere left to go.

        A request lost in the fabric never resolves.  Once every RPC of a
        read has been hedged or has no candidate left, and the newest has
        gone ``QUORUM_DEADLINE_MS`` unanswered, the caller gets the error --
        and releases its read point -- instead of waiting forever.
        """
        reads = self._outstanding_reads
        deadline = QUORUM_DEADLINE_MS
        now = self.loop.now
        if now - reads[0].issued_at <= deadline:
            return  # issue order: nothing can be older than the first
        by_future: dict[int, list[_OutstandingRead]] = {}
        for outstanding in reads:
            by_future.setdefault(id(outstanding.future), []).append(outstanding)
        for rpcs in by_future.values():
            if now - rpcs[-1].issued_at <= deadline or any(
                not r.hedged and r.plan.hedge_candidates for r in rpcs
            ):
                continue
            tried = {r.segment for r in rpcs}.union(*(r.exclude for r in rpcs))
            rpcs[0].future.set_exception(
                SegmentUnavailableError(
                    f"block {rpcs[0].block} at read point "
                    f"{rpcs[0].read_point} in PG {rpcs[0].pg_index}: no "
                    f"reply from {sorted(tried)} within {deadline:g} ms"
                )
            )

    def _ensure_hedge_sweep(self) -> None:
        if self._hedge_sweep_scheduled:
            return
        self._hedge_sweep_scheduled = True
        self.loop.schedule(self.config.hedge_sweep_interval, self._hedge_sweep)

    def _hedge_sweep(self) -> None:
        self._hedge_sweep_scheduled = False
        self._outstanding_reads = [
            r for r in self._outstanding_reads if not r.future.done
        ]
        if not self._outstanding_reads:
            return
        self._inspect_outstanding_reads()
        self._fail_exhausted_reads()
        self._ensure_hedge_sweep()

    # ------------------------------------------------------------------
    # Quorum RPC helpers (recovery, membership, epoch bumps)
    # ------------------------------------------------------------------
    def quorum_rpc(
        self,
        pg_index: int,
        payload_factory: Callable[[str], object],
        quorum: str,
    ) -> Future:
        """Scatter an RPC to every member of a PG; resolve with the
        responses once the responder set satisfies the requested quorum
        expression (``"read"`` or ``"write"``).

        After quorum is reached a short grace period collects stragglers,
        so recovery sees *every reachable* segment, not a minimal quorum
        (see the discussion in :mod:`repro.core.membership`).
        """
        config = self.metadata.quorum_config(pg_index)
        members = self.members_of(pg_index)
        result = Future(self.loop)
        responses: dict[str, object] = {}
        state = {"resolve_scheduled": False}

        def _maybe_resolve(final: bool) -> None:
            if result.done:
                return
            responders = frozenset(responses)
            satisfied = (
                config.read_satisfied(responders)
                if quorum == "read"
                else config.write_satisfied(responders)
            )
            if final:
                if satisfied:
                    result.set_result(dict(responses))
                else:
                    result.set_exception(
                        SegmentUnavailableError(
                            f"PG {pg_index}: responders {sorted(responders)} "
                            f"never satisfied the {quorum} quorum"
                        )
                    )
                return
            if len(responses) == len(members):
                if satisfied:
                    result.set_result(dict(responses))
                return
            if satisfied and not state["resolve_scheduled"]:
                state["resolve_scheduled"] = True
                self.loop.schedule(QUORUM_GRACE_MS, _maybe_resolve, True)

        self.loop.schedule(QUORUM_DEADLINE_MS, _maybe_resolve, True)

        for member in members:
            future = self._rpc(member, payload_factory(member))

            def _on_reply(f: Future, member=member) -> None:
                reply = f.result()
                if isinstance(reply, RequestRejected):
                    self.on_rejection(reply)
                    return
                responses[member] = reply
                _maybe_resolve(False)

            future.add_done_callback(_on_reply)
        return result

    def scan_pg(self, pg_index: int) -> Future:
        """Recovery scan: gather SCLs + chain digests from a read quorum."""
        return self.quorum_rpc(
            pg_index,
            lambda _member: RecoveryScanRequest(
                pg_index=pg_index, epochs=self.epochs
            ),
            quorum="read",
        )

    def fence_pg(self, pg_index: int, new_epochs: EpochStamp) -> Future:
        """Establish ``new_epochs`` on a write quorum of ``pg_index``.

        This is the fence itself: once a write quorum has adopted the new
        volume epoch, no batch stamped with the prior epoch can reach a
        write quorum again (any two write quorums intersect), so a zombie
        predecessor can never acknowledge another commit.  The request
        presents the *new* stamp so the caller -- who has already adopted
        it locally -- is teaching, not being rejected.
        """
        return self.quorum_rpc(
            pg_index,
            lambda _member: EpochWrite(
                pg_index=pg_index, epochs=new_epochs, new_epochs=new_epochs
            ),
            quorum="write",
        )

    def truncate_pg(
        self, pg_index: int, pg_point: int, truncation, new_epochs: EpochStamp
    ) -> Future:
        """Install a truncation range + new epochs on a write quorum."""
        return self.quorum_rpc(
            pg_index,
            lambda _member: TruncateRequest(
                pg_index=pg_index,
                pg_point=pg_point,
                truncation=truncation,
                new_epochs=new_epochs,
            ),
            quorum="write",
        )

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def drop_transient_state(self) -> None:
        """Crash: buffers, trackers, and outstanding I/O are all ephemeral."""
        self._buffers.clear()
        self._outstanding_reads.clear()
        self._unacked.clear()
        self.pg_trackers.clear()
        self.volume = VolumeConsistencyTracker()
        self.commit_queue = CommitQueue()
        if self.audit_probe is not None:
            # Re-arm the fresh trackers: the probe outlives the crash even
            # though the per-generation tracker objects do not.
            probe = self.audit_probe
            probe.on_instance_crash(self.instance_id)
            self.volume.audit_probe = probe
            self.volume.audit_owner = self.instance_id
            self.commit_queue.audit_probe = probe
            self.commit_queue.audit_owner = self.instance_id
