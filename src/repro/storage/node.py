"""The storage-node actor: Figure 2 wired to the simulated network.

Foreground path (the *only* latency a database write observes):

1. receive redo records (:class:`WriteBatch`),
2. append them to the update queue / hot log, and
3. ACKnowledge back with the segment's SCL after a local disk write.

Everything else happens in background ticks, each independent and crash-safe:

4. GOSSIP with peers to fill chain holes,
5. COALESCE records into data-block versions,
6. BACKUP point-in-time snapshots to (simulated) S3,
7. GARBAGE COLLECT hot-log records and block versions, and
8. SCRUB checksums, repairing by a quorum content vote on mismatch.

Every request is epoch-validated first; stale callers get
:class:`RequestRejected` and must refresh ("Aurora ... just changes the
locks on the door").  The node never votes: "storage nodes do not have a
vote in determining whether to accept a write, they must do so."
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.epochs import EpochRegistry
from repro.core.lsn import NULL_LSN
from repro.core.records import EMPTY_IMAGE
from repro.core.retry import Backoff, RetryPolicy
from repro.errors import CorruptVersionError, ReadPointError, StaleEpochError
from repro.sim.latency import LatencyModel, disk_service
from repro.sim.network import Actor, Message
from repro.storage.backup import SimulatedS3
from repro.storage.messages import (
    CORRUPT_PAYLOAD,
    BaselineRequest,
    BaselineResponse,
    EpochWrite,
    EpochWriteAck,
    GCFloorUpdate,
    GossipQuery,
    GossipResponse,
    IntegrityVoteRequest,
    IntegrityVoteResponse,
    ReadBlockRequest,
    ReadBlockResponse,
    RecoveryScanRequest,
    RecoveryScanResponse,
    RequestRejected,
    TruncateAck,
    TruncateRequest,
    WriteAck,
    WriteBatch,
)
from repro.storage.metadata import StorageMetadataService
from repro.storage.segment import Segment, SegmentKind


#: Period of the redo-coalescing tick (times in ms).
COALESCE_INTERVAL_MS = 10.0
#: Records returned per gossip response (bounds message size).
GOSSIP_BATCH_LIMIT = 512
#: A gossip RPC unanswered after this long is reported to the health
#: monitor (when one is attached) as negative evidence about the peer.
GOSSIP_TIMEOUT_MS = 60.0
#: Healthy blocks swept through the integrity vote per scrub round
#: (rotating cursor); this is what catches valid-checksum corruption
#: (misdirected / lost-but-acked writes).  DESIGN.md §12.
SCRUB_VOTE_SAMPLE = 6
#: Peers polled per integrity vote round (a read-quorum-sized sample).
VOTE_FANOUT = 3
#: A vote round tallies whatever replies arrived by this deadline.
VOTE_TIMEOUT_MS = 120.0
#: Pacing between vote rounds after one that produced no replies (peers
#: crashed or partitioned); jitter-free so the node's random stream stays
#: replayable.
VOTE_RETRY = RetryPolicy(base_ms=100.0, cap_ms=1_600.0, multiplier=2.0)


def _strict_majority(votes: list) -> object | None:
    """The ballot cast by more than half of ``votes``, or ``None``."""
    tally: dict[object, int] = {}
    for vote in votes:
        tally[vote] = tally.get(vote, 0) + 1
    winner, count = max(
        tally.items(), key=lambda kv: kv[1], default=(None, 0)
    )
    return winner if count * 2 > len(votes) else None


@dataclass
class StorageNodeConfig:
    """Tunable behaviour of a storage node (times in ms)."""

    disk: LatencyModel | None = None
    gossip_interval: float = 20.0
    backup_interval: float = 500.0
    gc_interval: float = 200.0
    scrub_interval: float = 2_000.0
    enable_background: bool = True

    def __post_init__(self) -> None:
        if self.disk is None:
            self.disk = disk_service()


class StorageNode(Actor):
    """One simulated storage node hosting one segment.

    (The real fleet multiplexes many segments per node; one-per-node keeps
    the failure model transparent -- crashing a node crashes exactly one
    segment -- without changing any protocol behaviour.)
    """

    def __init__(
        self,
        segment: Segment,
        metadata: StorageMetadataService,
        s3: SimulatedS3,
        rng: random.Random,
        config: StorageNodeConfig | None = None,
    ) -> None:
        super().__init__(name=segment.segment_id)
        self.segment = segment
        self.metadata = metadata
        self.s3 = s3
        self.rng = rng
        self.config = config if config is not None else StorageNodeConfig()
        self.epochs = EpochRegistry()
        #: PGMRPL per database instance that has opened the volume.
        self._instance_read_floors: dict[str, int] = {}
        self.counters = {
            "write_batches": 0,
            "acks_sent": 0,
            "rejections_sent": 0,
            "gossip_rounds": 0,
            "gossip_records_pulled": 0,
            "backups_taken": 0,
            "gc_runs": 0,
            "scrub_runs": 0,
            "reads_answered": 0,
            "reads_intercepted": 0,
            "ingest_rejects": 0,
            "vote_rounds": 0,
            "vote_repairs": 0,
        }
        self._started = False
        #: Armed by the failure injector: the next WriteBatch arrives with
        #: a damaged frame and must be rejected at ingest, never persisted.
        self._ingest_corruptions = 0
        #: Number of integrity vote rounds currently in flight (background
        #: scrub starts at most one; read-repair votes run concurrently).
        self._votes_inflight = 0
        #: Backoff cursor over ``VOTE_RETRY`` for vote rounds that drew no
        #: replies; resets on the first answered round.
        self._vote_backoff = Backoff(VOTE_RETRY)
        self._vote_suppressed_until = 0.0
        #: Settled-with-replies vote rounds a corrupt hot-log record has
        #: survived unshipped; two strikes mean the fleet no longer holds
        #: the record and record-by-record repair is over -- fall back to
        #: an in-place baseline rehydration from a responding peer.
        self._record_strikes: dict[int, int] = {}
        self._rehydration_inflight = False
        #: Optional :class:`repro.audit.integrity.IntegrityLog` observer for
        #: detection / repair / served-read events (no-op cost when unarmed,
        #: exactly like ``audit_probe``).
        self.integrity_probe = None
        #: Per-instance fire time of the latest scheduled write ACK.  The
        #: SCL is read when the ACK leaves, so an ACK already scheduled at
        #: or after a new batch's disk-completion time covers that batch
        #: too -- back-to-back boxcars share one ACK instead of each
        #: paying for their own wire message.
        self._pending_ack_time: dict[str, float] = {}
        #: Optional storage-tier :class:`repro.repair.FailureDetector`:
        #: peer liveness evidence from gossip (replies, queries, timeouts)
        #: is reported here; ``None`` costs one attribute load, exactly like
        #: ``audit_probe``.
        self.health_probe = None
        #: Optional database-tier :class:`repro.repair.FailureDetector`: the
        #: sending instance on every write batch and GC-floor update is
        #: database-tier liveness evidence.
        self.db_health_probe = None

    def attach_audit_probe(self, probe) -> None:
        """Arm a :class:`repro.audit.Auditor`: the node's epoch registry and
        segment chain report every transition (no-op cost when unarmed)."""
        self.epochs.audit_probe = probe
        self.epochs.audit_owner = self.name
        chain = self.segment.chain
        chain.audit_probe = probe
        chain.audit_owner = self.name
        probe.register_segment(self.name, self.segment.pg_index)

    def attach_integrity_probe(self, probe) -> None:
        """Arm a :class:`repro.audit.integrity.IntegrityLog`: every corruption
        detection, repair, and served read is reported for MTTD/MTTR
        accounting and the ``integrity-*`` invariants."""
        self.integrity_probe = probe

    def arm_ingest_corruption(self, count: int = 1) -> None:
        """Injector hook: the next ``count`` WriteBatch frames arrive
        damaged and must fail ingest verification."""
        self._ingest_corruptions += count

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin background activity (call after attaching to the network)."""
        if self._started or not self.config.enable_background:
            self._started = True
            return
        self._started = True
        self._arm_tick(self.config.gossip_interval, self._gossip_tick)
        self._arm_tick(COALESCE_INTERVAL_MS, self._coalesce_tick)
        self._arm_tick(self.config.backup_interval, self._backup_tick)
        self._arm_tick(self.config.gc_interval, self._gc_tick)
        self._arm_tick(self.config.scrub_interval, self._scrub_tick)

    def _arm_tick(self, interval: float, tick) -> None:
        """Schedule ``tick`` one ``interval`` out, +/-20% jitter (avoids
        lockstep)."""
        self.loop.schedule(
            interval * self.rng.uniform(0.8, 1.2),
            self._run_tick, interval, tick,
        )

    def _run_tick(self, interval: float, tick) -> None:
        """A periodic tick fired: run it if this node is up, re-arm it
        forever either way."""
        if self.network is not None and self.network.is_up(self.name):
            tick()
        self._arm_tick(interval, tick)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, WriteBatch):
            self._on_write_batch(message, payload)
        elif isinstance(payload, ReadBlockRequest):
            self._on_read_block(message, payload)
        elif isinstance(payload, GossipQuery):
            self._on_gossip_query(message, payload)
        elif isinstance(payload, RecoveryScanRequest):
            self._on_recovery_scan(message, payload)
        elif isinstance(payload, TruncateRequest):
            self._on_truncate(message, payload)
        elif isinstance(payload, EpochWrite):
            self._on_epoch_write(message, payload)
        elif isinstance(payload, GCFloorUpdate):
            self._on_gc_floor(payload)
        elif isinstance(payload, BaselineRequest):
            self._on_baseline(message, payload)
        elif isinstance(payload, IntegrityVoteRequest):
            self._on_integrity_vote(message, payload)
        # Unknown payloads are dropped silently, like any real node.

    def _check_epochs(self, message: Message, epochs) -> bool:
        """Validate a request's stamp; reject-and-False when stale."""
        try:
            self.epochs.check_and_learn(epochs)
            return True
        except StaleEpochError as exc:
            self.counters["rejections_sent"] += 1
            rejection = RequestRejected(
                segment_id=self.name,
                reason=str(exc),
                current_epochs=self.epochs.current,
            )
            if message.request_id is not None:
                self.network.reply(message, rejection)
            else:
                self.network.send(self.name, message.src, rejection)
            return False

    # ------------------------------------------------------------------
    # Foreground: writes (activities 1, 2 + ACK)
    # ------------------------------------------------------------------
    def _on_write_batch(self, message: Message, batch: WriteBatch) -> None:
        if self.db_health_probe is not None:
            # Redo-stream advance: proof the sending instance is alive,
            # whether or not its epochs are current.
            self.db_health_probe.heard(batch.instance_id)
        if not self._check_epochs(message, batch.epochs):
            return
        if self._ingest_corruptions > 0:
            # The frame arrived damaged (injected): checksum verification
            # at ingest rejects the whole batch before anything persists.
            # The driver resubmits its retained clean copy (DESIGN.md §12).
            self._ingest_corruptions -= 1
            self.counters["ingest_rejects"] += 1
            self.counters["rejections_sent"] += 1
            self.network.send(
                self.name,
                batch.instance_id,
                RequestRejected(
                    segment_id=self.name,
                    reason=CORRUPT_PAYLOAD,
                    current_epochs=self.epochs.current,
                ),
            )
            return
        self.counters["write_batches"] += 1
        self.segment.receive_batch(batch.records)
        self._adopt_read_floor(batch.instance_id, batch.pgmrpl)
        # The ACK leaves after the local durable write completes.
        disk_delay = self.config.disk.sample(self.rng)
        self._schedule_ack(batch.instance_id, self.loop.now + disk_delay)

    def _schedule_ack(self, instance_id: str, fire_at: float) -> None:
        if self._pending_ack_time.get(instance_id, -1.0) >= fire_at:
            return  # a later-or-equal pending ACK already covers this batch
        self._pending_ack_time[instance_id] = fire_at
        self.loop.schedule_at(fire_at, self._fire_ack, instance_id, fire_at)

    def _fire_ack(self, instance_id: str, fire_at: float) -> None:
        if self._pending_ack_time.get(instance_id) == fire_at:
            del self._pending_ack_time[instance_id]
        self._send_ack(instance_id)

    def _send_ack(self, instance_id: str) -> None:
        self.counters["acks_sent"] += 1
        self.network.send(
            self.name,
            instance_id,
            WriteAck(
                segment_id=self.name,
                pg_index=self.segment.pg_index,
                scl=self.segment.scl,
                epochs=self.epochs.current,
            ),
        )

    # ------------------------------------------------------------------
    # Foreground: reads
    # ------------------------------------------------------------------
    def _on_read_block(self, message: Message, request: ReadBlockRequest) -> None:
        if not self._check_epochs(message, request.epochs):
            return
        disk_delay = self.config.disk.sample(self.rng)
        self.loop.schedule(disk_delay, self._serve_read, message, request)

    def _serve_read(
        self,
        message: Message,
        request: ReadBlockRequest,
        retried: bool = False,
    ) -> None:
        try:
            version = self.segment.read_version(
                request.block, request.read_point
            )
        except CorruptVersionError as exc:
            # Read-time verification intercepted a corrupt version: never
            # serve it.  Quarantine is already set; hold the client's reply
            # and run a synchronous peer vote to repair, then serve the
            # repaired image -- or reject so the driver reroutes.
            self.counters["reads_intercepted"] += 1
            if self.integrity_probe is not None:
                self.integrity_probe.on_corruption_detected(
                    self.name, exc.block, exc.lsn
                )
            started = False
            if not retried:
                started = self._start_vote(
                    [request.block],
                    self.segment.scrub_records(),
                    on_done=lambda repairs, replies: self._serve_read(
                        message, request, retried=True
                    ),
                )
            if not started:
                self._reject_read(message, CORRUPT_PAYLOAD)
            return
        except ReadPointError as exc:
            self._reject_read(message, str(exc))
            return
        self.counters["reads_answered"] += 1
        if version is None:
            image = EMPTY_IMAGE
            version_lsn = NULL_LSN
        else:
            image = version.image
            version_lsn = version.lsn
            if self.integrity_probe is not None:
                self.integrity_probe.on_read_served(
                    self.name, request.block, version.lsn, version.checksum
                )
        self.network.reply(
            message,
            ReadBlockResponse(
                segment_id=self.name,
                block=request.block,
                image=image,
                version_lsn=version_lsn,
            ),
        )

    def _reject_read(self, message: Message, reason: str) -> None:
        self.network.reply(
            message,
            RequestRejected(
                segment_id=self.name,
                reason=reason,
                current_epochs=self.epochs.current,
            ),
        )

    # ------------------------------------------------------------------
    # Background: gossip (activity 4)
    # ------------------------------------------------------------------
    def _gossip_tick(self) -> None:
        peers = self.metadata.peers_of(self.name)
        if not peers:
            return
        peer = self.rng.choice(peers)
        self.counters["gossip_rounds"] += 1
        query = GossipQuery(
            from_segment=self.name,
            pg_index=self.segment.pg_index,
            scl=self.segment.scl,
            epochs=self.epochs.current,
        )
        future = self.network.rpc(self.name, peer, query)
        future.add_done_callback(self._on_gossip_reply)
        if self.health_probe is not None:
            self.loop.schedule(
                GOSSIP_TIMEOUT_MS,
                self._report_gossip_timeout, peer, future,
            )

    def _report_gossip_timeout(self, peer: str, future) -> None:
        if not future.done and self.health_probe is not None:
            self.health_probe.burst(peer, "timeout")

    def _on_gossip_reply(self, future) -> None:
        response = future.result()
        if self.health_probe is not None:
            # Any reply -- including a rejection -- proves the peer alive.
            segment_id = getattr(response, "segment_id", None)
            if segment_id is not None:
                self.health_probe.heard(segment_id)
        if not isinstance(response, GossipResponse):
            return  # rejected: our epochs were stale; we learn via writes
        scl_before = self.segment.scl
        self.segment.receive_batch(response.records, via_gossip=True)
        self.counters["gossip_records_pulled"] += len(response.records)
        for instance_id in response.known_instances:
            self._instance_read_floors.setdefault(instance_id, 0)
        if response.gc_horizon > self.segment.scl:
            # We fell behind the peer's GC horizon: the records we are
            # missing no longer exist in any hot log.  Hydrate a baseline
            # from the peer instead (full repair, section 4.2).
            request = BaselineRequest(
                from_segment=self.name,
                pg_index=self.segment.pg_index,
                epochs=self.epochs.current,
            )
            future = self.network.rpc(self.name, response.segment_id, request)
            future.add_done_callback(self._on_hydration_baseline)
        if self.segment.scl > scl_before:
            # Gossip closed a hole: proactively re-acknowledge so the
            # database's PGCL bookkeeping learns the new SCL even when no
            # fresh writes are flowing (e.g. after this node was restored).
            for instance_id in self._instance_read_floors:
                self._send_ack(instance_id)

    def _on_gossip_query(self, message: Message, query: GossipQuery) -> None:
        if self.health_probe is not None:
            # A query reaching us proves the querier alive (the detector
            # ignores one that is no member).
            self.health_probe.heard(query.from_segment)
        if not self._check_epochs(message, query.epochs):
            return
        records = self.segment.records_after(
            query.scl, limit=GOSSIP_BATCH_LIMIT
        )
        self.network.reply(
            message,
            GossipResponse(
                segment_id=self.name,
                pg_index=self.segment.pg_index,
                scl=self.segment.scl,
                records=tuple(records),
                known_instances=tuple(sorted(self._instance_read_floors)),
                gc_horizon=self.segment.gc_horizon,
            ),
        )

    # ------------------------------------------------------------------
    # Background: coalesce (activities 3, 5)
    # ------------------------------------------------------------------
    def _coalesce_tick(self) -> None:
        self.segment.coalesce()

    # ------------------------------------------------------------------
    # Background: backup (activity 6)
    # ------------------------------------------------------------------
    def _backup_tick(self) -> None:
        snapshot = self.segment.snapshot_for_backup()
        self.s3.put_snapshot(
            segment_id=self.name,
            pg_index=self.segment.pg_index,
            scl=self.segment.scl,
            taken_at=self.loop.now,
            payload=snapshot,
        )
        self.segment.mark_backed_up(self.segment.scl)
        self.counters["backups_taken"] += 1

    # ------------------------------------------------------------------
    # Background: GC (activity 7)
    # ------------------------------------------------------------------
    def _gc_tick(self) -> None:
        self.counters["gc_runs"] += 1
        self.segment.garbage_collect()
        self.s3.collect_garbage()

    def _on_gc_floor(self, update: GCFloorUpdate) -> None:
        if self.db_health_probe is not None:
            # The GC-floor tick is the database tier's steady passive
            # heartbeat: writer and replicas advertise on a fixed interval
            # even when the workload is idle.
            self.db_health_probe.heard(update.instance_id)
        try:
            self.epochs.check_and_learn(update.epochs)
        except StaleEpochError:
            return  # one-way message; drop
        self._adopt_read_floor(update.instance_id, update.pgmrpl)

    def _adopt_read_floor(self, instance_id: str, pgmrpl: int) -> None:
        floors = self._instance_read_floors
        if pgmrpl > floors.setdefault(instance_id, 0):
            # The minimum over instances moves only when one of them rises
            # (or leaves: see forget_instance).
            floors[instance_id] = pgmrpl
            self.segment.advance_gc_floor(min(floors.values()))

    def forget_instance(self, instance_id: str) -> None:
        """Drop a closed instance from GC-floor accounting."""
        floors = self._instance_read_floors
        if floors.pop(instance_id, None) is not None and floors:
            self.segment.advance_gc_floor(min(floors.values()))

    # ------------------------------------------------------------------
    # Background: scrub (activity 8)
    # ------------------------------------------------------------------
    def _scrub_tick(self) -> None:
        self.counters["scrub_runs"] += 1
        segment = self.segment
        version_failures = segment.scrub()
        record_failures = segment.scrub_records()
        for block, lsn in version_failures:
            if self.integrity_probe is not None:
                self.integrity_probe.on_corruption_detected(
                    self.name, block, lsn
                )
        if self.integrity_probe is not None:
            for lsn in record_failures:
                self.integrity_probe.on_record_corruption_detected(
                    self.name, lsn
                )
        # Beyond locally-flagged failures, sweep a rotating sample of
        # healthy-looking blocks through the peer vote: valid-checksum
        # corruption (misdirected / lost-but-acked writes) is invisible to
        # local verification and only a cross-peer content vote exposes it.
        blocks = sorted(
            {block for block, _lsn in version_failures}
            | set(segment.scrub_sample_blocks(SCRUB_VOTE_SAMPLE))
        )
        if not blocks and not record_failures:
            return
        if self._votes_inflight > 0:
            return  # one background vote round at a time
        if self.loop.now < self._vote_suppressed_until:
            return  # backing off after a round that drew no replies
        self._start_vote(blocks, record_failures, self._on_vote_settled)

    def _on_vote_settled(self, repairs: int, replies: int) -> None:
        if replies == 0:
            self._vote_suppressed_until = (
                self.loop.now + self._vote_backoff.next_delay()
            )
        else:
            self._vote_backoff.reset()
            self._vote_suppressed_until = 0.0

    # ------------------------------------------------------------------
    # Quorum-vote integrity repair (DESIGN.md §12)
    # ------------------------------------------------------------------
    def _vote_peers(self) -> list[str]:
        """Chain-capable current peers (full + log stores): the voters."""
        routes = self.metadata.routes_of_pg(self.segment.pg_index)
        return [
            p.segment_id for p in routes.placements
            if p.kind is not SegmentKind.TAIL and p.segment_id != self.name
        ]

    def _start_vote(self, blocks, record_lsns, on_done) -> bool:
        """Open one vote round; returns False when there is no peer to poll.

        ``on_done(repairs, replies)`` fires exactly once, when every polled
        peer answered or the vote deadline passed -- crashed or partitioned
        peers simply never count.  One peer is enough: a corrupt copy casts
        no ballot, so a single clean peer is a strict majority, and a tie
        between two clean copies changes nothing.
        """
        peers = self._vote_peers()
        if not peers:
            return False
        fanout = min(VOTE_FANOUT, len(peers))
        chosen = (
            self.rng.sample(peers, fanout) if len(peers) > fanout else peers
        )
        request = IntegrityVoteRequest(
            from_segment=self.name,
            pg_index=self.segment.pg_index,
            blocks=self.segment.vote_request_blocks(blocks),
            record_lsns=tuple(sorted(record_lsns)),
            epochs=self.epochs.current,
        )
        self.counters["vote_rounds"] += 1
        self._votes_inflight += 1
        state = {
            "responses": [],
            "expected": len(chosen),
            "settled": False,
            "on_done": on_done,
            "record_lsns": tuple(sorted(record_lsns)),
            # The read point of each floor ballot asked, as the request
            # carried it: the floor moves while the request is in flight.
            "floors": {
                block: lo
                for block, lo, _hi, pairs in request.blocks
                if pairs and pairs[0][0] == lo
            },
        }
        for peer in chosen:
            future = self.network.rpc(self.name, peer, request)
            future.add_done_callback(
                lambda f, s=state: self._on_vote_reply(s, f)
            )
        self.loop.schedule(VOTE_TIMEOUT_MS, self._settle_vote, state)
        return True

    def _on_vote_reply(self, state: dict, future) -> None:
        if future.exception() is not None:
            # The peer crashed or the link dropped mid-RPC; it simply does
            # not vote this round.
            reply = None
        else:
            reply = future.result()
        if isinstance(reply, IntegrityVoteResponse):
            state["responses"].append(reply)
        if len(state["responses"]) >= state["expected"]:
            self._settle_vote(state)

    def _settle_vote(self, state: dict) -> None:
        if state["settled"]:
            return
        state["settled"] = True
        self._votes_inflight -= 1
        responses = state["responses"]
        repairs = self._tally_votes(responses, state["floors"])
        self.counters["vote_repairs"] += repairs
        if responses:
            self._strike_unrecoverable_records(
                state["record_lsns"], responses
            )
        state["on_done"](repairs, len(responses))

    def _tally_votes(self, responses, floors) -> int:
        """Majority content agreement per ``(block, version_lsn)``, and
        per floor ballot.

        Each voter covering an LSN casts its verified checksum, or ABSENT
        when it holds no version there; a voter holding the version
        without verifying it abstains.  This copy votes too (unless its
        version is corrupt, which casts no content ballot).  Only a strict
        majority overrules local state: adopt the winning image, or drop a
        version the majority does not have (a misdirected write's
        artifact).  A corrupt peer never propagates -- its vouched content
        is outvoted and unverified images are never shipped.

        ``floors`` maps each block whose floor version failed verification
        to the read point its ballot asked about; a strict majority of the
        peers' verified content at that point is adopted into the local
        version visible there (see :meth:`Segment.answer_vote`).
        """
        segment = self.segment
        absent = object()
        my_lo, my_hi = segment.vote_window()
        # Candidate LSNs: everything any responder vouched for, plus every
        # local version inside my window for the voted blocks.  (A floor
        # ballot's point is never inside a cover, so it draws no votes.)
        candidates: set[tuple[int, int]] = set()
        voted_blocks: set[int] = set()
        for response in responses:
            for block, _cover_lo, _cover_hi, entries in response.blocks:
                voted_blocks.add(block)
                for lsn, _checksum, _image in entries:
                    candidates.add((block, lsn))
        for block in voted_blocks:
            chain = segment.blocks.get(block)
            if chain is None:
                continue
            for version in chain.versions_in(my_lo, my_hi):
                candidates.add((block, version.lsn))
        repairs = 0
        for block, lsn in sorted(candidates):
            votes: list[object] = []
            images: dict[object, object] = {}
            for response in responses:
                for rblock, cover_lo, cover_hi, entries in response.blocks:
                    if rblock != block or not cover_lo < lsn <= cover_hi:
                        continue
                    entry = next(
                        (e for e in entries if e[0] == lsn), None
                    )
                    if entry is None:
                        votes.append(absent)
                    elif entry[1] is None:
                        continue  # present but unverified: abstains
                    else:
                        votes.append(entry[1])
                        if entry[2] is not None:
                            images[entry[1]] = entry[2]
            if not votes:
                continue  # no peer coverage; nothing to compare against
            if not my_lo < lsn <= my_hi:
                continue  # outside my comparable window
            chain = segment.blocks.get(block)
            mine = chain.version(lsn) if chain is not None else None
            mine_ok = mine is not None and mine.verify()
            if mine is None:
                votes.append(absent)
            elif mine_ok:
                votes.append(mine.checksum)
            # (a corrupt copy casts no ballot)
            winner = _strict_majority(votes)
            if winner is None:
                continue  # no strict majority; retry next round
            if winner is absent:
                if mine is not None and segment.drop_version(block, lsn):
                    repairs += 1
                    if self.integrity_probe is not None:
                        self.integrity_probe.on_version_removed(
                            self.name, block, lsn
                        )
                continue
            if mine_ok and mine.checksum == winner:
                continue
            image = images.get(winner)
            if image is None:
                continue  # majority agreed with my (corrupt?) checksum
            if segment.repair_version(block, lsn, image):
                repairs += 1
                if self.integrity_probe is not None:
                    self.integrity_probe.on_version_repaired(
                        self.name, block, lsn, image
                    )
        for block, point in sorted(floors.items()):
            chain = segment.blocks.get(block)
            mine = chain.version_at(point) if chain is not None else None
            if mine is None or mine.verify():
                continue  # repaired or collected while the vote ran
            ballots = [
                entries[0]
                for response in responses
                for rblock, _cover_lo, _cover_hi, entries in response.blocks
                if rblock == block and entries and entries[0][0] == point
            ]
            winner = _strict_majority([b[1] for b in ballots])
            if winner is None:
                continue  # no peer covers the point, or no strict majority
            image = next(b[2] for b in ballots if b[1] == winner)
            if segment.repair_version(block, mine.lsn, image):
                repairs += 1
                if self.integrity_probe is not None:
                    self.integrity_probe.on_version_repaired(
                        self.name, block, mine.lsn, image
                    )
        # Record repair: adopt clean peer records for probed or differing
        # LSNs this copy is missing or holds bit-rotted.
        corrupt_records = segment.corrupt_record_lsns
        seen: set[int] = set()
        for response in responses:
            for record in response.records:
                if record.lsn in seen:
                    continue
                seen.add(record.lsn)
                if (
                    record.lsn in corrupt_records
                    or segment.record_at(record.lsn) is None
                ):
                    if segment.restore_record(record):
                        repairs += 1
                        if self.integrity_probe is not None:
                            self.integrity_probe.on_record_repaired(
                                self.name, record.lsn
                            )
        return repairs

    def _strike_unrecoverable_records(self, requested, responses) -> None:
        """Track corrupt hot-log records no responding peer shipped.

        A replying peer ships a probed record whenever its own copy still
        verifies, so a record that survives settled rounds unshipped is
        gone from the fleet's hot logs (GC ran past it) -- record-by-record
        repair can never succeed.  After two strikes, fall back to an
        in-place baseline rehydration (see :meth:`_request_rehydration`).
        """
        still_corrupt = self.segment.corrupt_record_lsns
        exhausted = False
        for lsn in requested:
            if lsn not in still_corrupt:
                self._record_strikes.pop(lsn, None)
                continue
            strikes = self._record_strikes.get(lsn, 0) + 1
            self._record_strikes[lsn] = strikes
            if strikes >= 2:
                exhausted = True
        if exhausted:
            self._request_rehydration(responses)

    def _request_rehydration(self, responses) -> None:
        """Re-baseline this segment in place from a responding peer.

        The peer's collapsed baseline covers the range our coalescing has
        been stalled on (it is content-complete through the peer's
        coalesce point), so adopting it jumps ``coalesced_upto`` past the
        unrecoverable record; the immediate GC pass then drops the
        orphaned corrupt record, exactly as it would any other record
        below the materialized bound.  This is the same
        :class:`BaselineRequest` hydration a replacement candidate uses --
        scoped corruption recovery instead of a full segment replacement.
        """
        if self._rehydration_inflight:
            return
        self._rehydration_inflight = True
        request = BaselineRequest(
            from_segment=self.name,
            pg_index=self.segment.pg_index,
            epochs=self.epochs.current,
        )
        future = self.network.rpc(
            self.name, responses[0].segment_id, request
        )
        future.add_done_callback(self._on_rehydration_baseline)

    def _on_rehydration_baseline(self, future) -> None:
        self._rehydration_inflight = False
        if future.exception() is not None:
            return  # source crashed mid-RPC; the next strike retries
        reply = future.result()
        if not isinstance(reply, BaselineResponse):
            return
        scl_before = self.segment.scl
        self.apply_baseline(reply)
        # Drop the corrupt records the adopted baseline just shadowed;
        # the integrity reconcile observes the removal and closes them.
        self.segment.garbage_collect()
        self._record_strikes.clear()
        if self.segment.scl > scl_before:
            for instance_id in self._instance_read_floors:
                self._send_ack(instance_id)

    def _on_integrity_vote(
        self, message: Message, request: IntegrityVoteRequest
    ) -> None:
        if not self._check_epochs(message, request.epochs):
            return
        blocks, records = self.segment.answer_vote(
            request.blocks, request.record_lsns
        )
        self.network.reply(
            message,
            IntegrityVoteResponse(
                segment_id=self.name,
                pg_index=self.segment.pg_index,
                blocks=blocks,
                records=records,
            ),
        )

    # ------------------------------------------------------------------
    # Recovery + control plane
    # ------------------------------------------------------------------
    def _on_recovery_scan(
        self, message: Message, request: RecoveryScanRequest
    ) -> None:
        if not self._check_epochs(message, request.epochs):
            return
        self.network.reply(
            message,
            RecoveryScanResponse(
                segment_id=self.name,
                pg_index=self.segment.pg_index,
                scl=self.segment.scl,
                digests=self.segment.chain_digests(),
                gc_horizon=self.segment.gc_horizon,
                annulled_upto=self.segment.annulled_upto,
            ),
        )

    def _on_truncate(self, message: Message, request: TruncateRequest) -> None:
        # A truncate carries the *new* epochs; adopting them is part of
        # applying it.  Validation only requires they not be stale.
        if not self._check_epochs(message, request.new_epochs):
            return
        self.segment.truncate(request.pg_point, request.truncation)
        self.network.reply(
            message,
            TruncateAck(
                segment_id=self.name,
                pg_index=self.segment.pg_index,
                scl=self.segment.scl,
            ),
        )

    def _on_epoch_write(self, message: Message, request: EpochWrite) -> None:
        if not self._check_epochs(message, request.epochs):
            return
        self.epochs.advance(request.new_epochs)
        self.network.reply(
            message,
            EpochWriteAck(segment_id=self.name, epochs=self.epochs.current),
        )

    def _on_baseline(self, message: Message, request: BaselineRequest) -> None:
        if not self._check_epochs(message, request.epochs):
            return
        self.segment.coalesce()
        blocks = tuple(
            (block, chain.latest_lsn, chain.latest_image())
            for block, chain in sorted(self.segment.blocks.items())
        )
        self.network.reply(
            message,
            BaselineResponse(
                segment_id=self.name,
                pg_index=self.segment.pg_index,
                blocks=blocks,
                coalesced_upto=self.segment.coalesced_upto,
                gc_horizon=self.segment.gc_horizon,
                scl=self.segment.scl,
                records=tuple(self.segment.records_after(0, limit=10**9)),
            ),
        )

    def _on_hydration_baseline(self, future) -> None:
        if future.exception() is not None:
            return  # source crashed or partitioned mid-RPC; retry via gossip
        reply = future.result()
        if isinstance(reply, BaselineResponse):
            scl_before = self.segment.scl
            self.apply_baseline(reply)
            if self.segment.scl > scl_before:
                for instance_id in self._instance_read_floors:
                    self._send_ack(instance_id)

    def apply_baseline(self, response: BaselineResponse) -> int:
        """Hydrate this node's segment from a peer's baseline response."""
        if self.segment.kind is not SegmentKind.TAIL:
            for block, version_lsn, image in response.blocks:
                chain = self.segment.chain_for(block)
                if version_lsn > chain.latest_lsn:
                    chain.append(version_lsn, image)
            self.segment.coalesced_upto = max(
                self.segment.coalesced_upto, response.coalesced_upto
            )
            # The baseline collapses history into one version per block;
            # structural integrity votes below it would disagree with
            # peers that kept granular chains.
            self.segment.granular_floor = max(
                self.segment.granular_floor, response.coalesced_upto
            )
        self.segment.chain.rebase(response.gc_horizon)
        self.segment.gc_horizon = max(
            self.segment.gc_horizon, response.gc_horizon
        )
        self.segment.receive_batch(response.records, via_gossip=True)
        return len(response.records)
