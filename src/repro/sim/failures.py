"""Failure injection for the simulated fleet.

The paper's durability story is built around *correlated* failure: "it is
insufficient to treat failures as independent.  At a minimum, it is necessary
to consider the correlated impact of the largest unit of failure" -- in AWS,
an Availability Zone.  The injector therefore supports four granularities:

- single node crash/restart (the background noise of independent failures),
- whole-AZ outage (the correlated event Figure 1 is about),
- degraded ("slow" / "busy") nodes, which are not down but answer late --
  the case the paper's read hedging and membership "suspect state" handle,
- network partitions isolating a node from the rest of the fleet.

Deterministic schedules (``crash_at``) serve scripted tests and scenarios;
stochastic MTTF/MTTR background failure (``enable_background_failures``)
is the churn the audit gates' healer runs against;
:class:`repro.sim.chaos.ChaosSchedule` composes the operations into seeded
randomized scenarios, one table row per fault kind.

**Manual intervention vs. background schedules.**  Background failures are
pre-scheduled at enable time (keeping runs deterministic for a given seed),
which historically meant a node manually restored mid-schedule -- e.g. via
``restore_az`` after a staged outage -- could be immediately re-crashed or
resurrected by a stale pre-scheduled event.  Every node now carries a
*failure generation*; manual crash/restore operations bump it, and each
background event captures the generation current when it was scheduled and
becomes a no-op if the node's generation has moved on.  Call
``enable_background_failures`` again to resume background noise for a
manually-touched node.

**Silent corruption.**  Beyond fail-stop faults, the injector models the
faults checksums and scrubbing exist for (DESIGN.md §12): disk bit-rot on a
stored block version or hot-log record, a torn write surfacing when a node
restarts after a crash, a write that was acknowledged but never retained
(``lost_write``), and a misdirected write applied under the wrong block id
-- self-consistent (valid checksum), so only a cross-peer content vote can
catch it.  Storage nodes are registered via :meth:`attach_storage`; every
injected corruption is tracked in an :class:`IntegrityLog`, which doubles
as the node-side integrity probe and turns "a corrupt image was served" or
"a corruption outlived its repair budget" into auditor violations.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.core.records import record_digest
from repro.errors import ConfigurationError
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.verdict import Budget, Gate, LatencyStats, Line, Section

#: Corruption kinds that damage (or remove) a materialized block version.
VERSION_CORRUPTION_KINDS = frozenset(
    {"bit_rot", "misdirected_write", "misdirected_write_hole", "lost_write"}
)
#: Corruption kinds that damage a stored hot-log record.
RECORD_CORRUPTION_KINDS = frozenset({"bit_rot_record", "torn_write"})


@dataclass
class CorruptionRecord:
    """One injected silent corruption, tracked from injection to repair.

    ``corrupt_digest`` is the image checksum the damaged copy would present
    if served (0 when the fault leaves nothing to serve, e.g. a lost
    write); it is what lets the log prove a served read or an adopted
    repair image was the corrupt one.
    """

    kind: str
    node: str
    block: int
    lsn: int
    injected_at: float
    corrupt_digest: int = 0
    detected_at: float | None = None
    repaired_at: float | None = None
    #: Set once ``audit_unrepaired`` has flagged this record, so a record
    #: stuck past its budget produces one violation, not one per audit.
    budget_flagged: bool = False

    @property
    def open(self) -> bool:
        return self.repaired_at is None

    @property
    def mttd_ms(self) -> float | None:
        """Injection to detection."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.injected_at

    @property
    def mttr_ms(self) -> float | None:
        """Detection to repair."""
        if self.repaired_at is None or self.detected_at is None:
            return None
        return self.repaired_at - self.detected_at

    @property
    def exposure_ms(self) -> float | None:
        """Injection to repair: how long one copy's redundancy was
        silently degraded."""
        if self.repaired_at is None:
            return None
        return self.repaired_at - self.injected_at


#: Detection plus repair per injected corruption: half the scrub rotation
#: must comfortably cover it.
EXPOSURE_WINDOW = Budget(
    judged="exposure",
    statistic="max",
    limit_ms=12_000.0,
    label="  repair budget ({limit}):  ",
    met="met",
    exceeded="EXCEEDED: worst exposure {worst:.0f}ms",
    source="well inside the ~30 s fail-stop budgets: a silent fault should "
    "never linger longer than a loud one would (about two scrub rotations "
    "of detection latency)",
)

#: What a seed's report and a sweep's footer both say of the corruptions.
_HANDLING = (
    "  corruption injected: {injected} (kind=inj/det/rep: {kinds})",
    Line("  detection (MTTD):    {mttd}", "mttd"),
    Line("  repair (MTTR):       {mttr}", "mttr"),
    Line("  exposure window:     {exposure}", "exposure"),
    EXPOSURE_WINDOW,
    Line(
        "  C7 @ measured exposure: read-quorum-loss "
        "p={p_loss_at_exposure:.3e} per window (window = mean exposure)",
        "exposure",
    ),
    "  read path:           {reads_intercepted} intercepted, "
    "{versions_quarantined} quarantined, "
    "{corrupt_reads_served} corrupt served",
    "  repair path:         {vote_rounds} vote rounds, "
    "{vote_repairs} vote repairs, {scrub_runs} scrub runs, "
    "{ingest_rejects} ingest rejects",
    Line(
        "  UNREPAIRED:          {unrepaired} corruption(s) still open",
        "unrepaired",
    ),
)


@dataclass
class IntegritySummary(Section):
    """Measured corruption handling for one run
    (:meth:`IntegrityLog.summary`) or -- merged -- a sweep: MTTD and MTTR
    split from the exposure window, read-path interception, and the two
    hard zeros (corrupt reads served, corruptions left unrepaired)."""

    ZEROS = ("corrupt_reads_served", "unrepaired")
    LINES = (
        "  storage backend:     {backend}",
        *_HANDLING,
        Gate("integrity gate:", "integrity"),
    )
    FOOTER = (
        "integrity telemetry across {seeds} seeds ({backend}):",
        *_HANDLING,
    )

    #: Corruptions by kind, at each stage they reached.
    injected_by: Counter = field(default_factory=Counter)
    detected_by: Counter = field(default_factory=Counter)
    repaired_by: Counter = field(default_factory=Counter)
    mttd: LatencyStats = field(default_factory=LatencyStats)
    mttr: LatencyStats = field(default_factory=LatencyStats)
    exposure: LatencyStats = field(default_factory=LatencyStats)
    corrupt_reads_served: int = 0
    #: The storage fleet's summed counters.  Reads that hit a bad version
    #: and were intercepted (vote + retry or reroute) instead of returning
    #: the corrupt image; WriteBatch frames rejected at ingest
    #: verification and resubmitted.
    reads_intercepted: int = 0
    versions_quarantined: int = 0
    ingest_rejects: int = 0
    vote_rounds: int = 0
    vote_repairs: int = 0
    scrub_runs: int = 0
    #: The storage backend of each run summarised.
    backends: tuple[str, ...] = ()

    def add(self, record: CorruptionRecord) -> None:
        kind = record.kind
        self.injected_by[kind] += 1
        if record.detected_at is not None:
            self.detected_by[kind] += 1
            self.mttd.samples.append(record.mttd_ms)
        if record.repaired_at is not None:
            self.repaired_by[kind] += 1
            self.exposure.samples.append(record.exposure_ms)
        if record.mttr_ms is not None:
            self.mttr.samples.append(record.mttr_ms)

    @property
    def backend(self) -> str:
        return "+".join(sorted(set(self.backends)))

    @property
    def injected(self) -> int:
        return sum(self.injected_by.values())

    @property
    def unrepaired(self) -> int:
        return self.injected - sum(self.repaired_by.values())

    @property
    def by_kind(self) -> dict[str, list[int]]:
        """``kind -> [injected, detected, repaired]``."""
        return {
            kind: [injected, self.detected_by[kind], self.repaired_by[kind]]
            for kind, injected in sorted(self.injected_by.items())
        }

    @property
    def kinds(self) -> str:
        return ", ".join(
            f"{kind}={inj}/{det}/{rep}"
            for kind, (inj, det, rep) in self.by_kind.items()
        ) or "none"

    @property
    def p_loss_at_exposure(self) -> float:
        """The C7 read-quorum-loss probability with the measured mean
        exposure as the repair window: while a copy is silently corrupt it
        is a failed copy the membership service cannot see, so exposure --
        not the fail-stop MTTR -- bounds the quorum's real vulnerability."""
        # Imported here: the model is built on the storage tier's
        # geometry, which sits above the simulator.
        from repro.analysis.durability import model_from_observed_mttr

        return model_from_observed_mttr(
            self.exposure.mean
        ).p_read_quorum_loss()

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "injected": self.injected,
            "detected": sum(self.detected_by.values()),
            "repaired": sum(self.repaired_by.values()),
            "unrepaired": self.unrepaired,
            "by_kind": self.by_kind,
            "repair_budget_ms": EXPOSURE_WINDOW.limit_ms,
            "meets_budget": EXPOSURE_WINDOW.holds(self),
            "ok": self.ok,
            "corrupt_reads_served": self.corrupt_reads_served,
            "reads_intercepted": self.reads_intercepted,
            "versions_quarantined": self.versions_quarantined,
            "ingest_rejects": self.ingest_rejects,
            "vote_rounds": self.vote_rounds,
            "vote_repairs": self.vote_repairs,
            "scrub_runs": self.scrub_runs,
            "mttd_ms": self.mttd.samples,
            "mttr_ms": self.mttr.samples,
            "exposure_ms": self.exposure.samples,
        }


class IntegrityLog:
    """Registry of injected corruptions and node-side integrity probe.

    The log plays both roles of the integrity audit: the *injector* records
    every fault here at injection time, and every storage node armed via
    :meth:`repro.storage.node.StorageNode.attach_integrity_probe` reports
    detections, repairs, and served reads back.  Crossing the two streams
    yields MTTD/MTTR distributions and the three integrity invariants:

    ``integrity-corrupt-served``
        A read served a ``(node, block, version_lsn)`` for which a
        corruption is still open: a corrupt image reached a replica or
        client (the one thing read-time verification must prevent).
    ``integrity-repair-propagated-corruption``
        A repair adopted an image whose checksum matches an open
        corruption's ``corrupt_digest``: a corrupt peer won the vote.
    ``integrity-unrepaired-past-budget``
        A corruption stayed open longer than the repair budget (flagged by
        :meth:`audit_unrepaired`, which mode runners call at the end).
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.records: list[CorruptionRecord] = []
        self.auditor = None
        self.ingest_rejects = 0
        self.corrupt_reads_served = 0
        #: Open version-kind corruptions keyed by (node, block, lsn); the
        #: read-served hook runs on every read, so it must be one lookup.
        self._open_versions: dict[tuple[str, int, int], list[CorruptionRecord]] = {}
        #: Open record-kind corruptions keyed by (node, lsn).
        self._open_recs: dict[tuple[str, int], list[CorruptionRecord]] = {}

    def bind_auditor(self, auditor) -> None:
        """Route integrity violations into an :class:`repro.audit.Auditor`."""
        self.auditor = auditor

    def _flag(self, invariant: str, subject: str, detail: str) -> None:
        if self.auditor is not None:
            self.auditor.flag(invariant, subject, detail)

    # ------------------------------------------------------------------
    # Injection side
    # ------------------------------------------------------------------
    def inject(
        self, kind: str, node: str, block: int, lsn: int,
        corrupt_digest: int = 0,
    ) -> CorruptionRecord:
        record = CorruptionRecord(
            kind=kind,
            node=node,
            block=block,
            lsn=lsn,
            injected_at=self.loop.now,
            corrupt_digest=corrupt_digest,
        )
        self.records.append(record)
        if kind in RECORD_CORRUPTION_KINDS:
            self._open_recs.setdefault((node, lsn), []).append(record)
        else:
            self._open_versions.setdefault((node, block, lsn), []).append(
                record
            )
        return record

    def _close(self, record: CorruptionRecord) -> None:
        record.repaired_at = self.loop.now
        if record.detected_at is None:
            # A repair implies detection (the vote saw the divergence).
            record.detected_at = record.repaired_at
        if record.kind in RECORD_CORRUPTION_KINDS:
            key = (record.node, record.lsn)
            bucket = self._open_recs.get(key, [])
        else:
            key = (record.node, record.block, record.lsn)
            bucket = self._open_versions.get(key, [])
        if record in bucket:
            bucket.remove(record)

    # ------------------------------------------------------------------
    # Node-side probe hooks (see StorageNode.attach_integrity_probe)
    # ------------------------------------------------------------------
    def on_ingest_reject(self, node: str) -> None:
        self.ingest_rejects += 1

    def on_corruption_detected(self, node: str, block: int, lsn: int) -> None:
        for record in self._open_versions.get((node, block, lsn), ()):
            if record.detected_at is None:
                record.detected_at = self.loop.now

    def on_record_corruption_detected(self, node: str, lsn: int) -> None:
        for record in self._open_recs.get((node, lsn), ()):
            if record.detected_at is None:
                record.detected_at = self.loop.now

    def on_read_served(
        self, node: str, block: int, lsn: int, checksum: int
    ) -> None:
        for record in self._open_versions.get((node, block, lsn), ()):
            self.corrupt_reads_served += 1
            self._flag(
                "integrity-corrupt-served",
                node,
                f"read served block {block} version {lsn} while a "
                f"{record.kind} corruption injected at "
                f"t={record.injected_at:.1f} is still unrepaired",
            )

    def on_version_repaired(
        self, node: str, block: int, lsn: int, new_digest: int
    ) -> None:
        for record in self.records:
            if (
                record.open
                and record.block == block
                and record.lsn == lsn
                and record.corrupt_digest
                and record.corrupt_digest == new_digest
            ):
                self._flag(
                    "integrity-repair-propagated-corruption",
                    node,
                    f"repair of block {block} version {lsn} adopted the "
                    f"corrupt image of an open {record.kind} corruption "
                    f"on {record.node}",
                )
        for record in list(self._open_versions.get((node, block, lsn), ())):
            self._close(record)

    def on_version_removed(self, node: str, block: int, lsn: int) -> None:
        for record in list(self._open_versions.get((node, block, lsn), ())):
            self._close(record)

    def on_record_repaired(self, node: str, lsn: int) -> None:
        for record in list(self._open_recs.get((node, lsn), ())):
            self._close(record)

    # ------------------------------------------------------------------
    # Reconciliation against physical state
    # ------------------------------------------------------------------
    def reconcile(self, nodes: dict) -> int:
        """Close open corruption whose damage has physically left the
        system through a path the repair hooks do not observe: garbage
        collection dropping a corrupt record or version, recovery
        truncation, snapshot restore / hydration wiping segment state, or
        a floor advance shadowing a version hole forever.

        ``nodes`` maps node name to storage node (the injector's
        :meth:`FailureInjector.attach_storage` registry).  Returns the
        number of records closed.  Run periodically (see
        :meth:`start_reconcile`) so close timestamps stay accurate.
        """
        closed = 0
        for record in self.records:
            if not record.open:
                continue
            node = nodes.get(record.node)
            if node is None:
                continue
            seg = node.segment
            if record.kind in RECORD_CORRUPTION_KINDS:
                if seg.record_at(record.lsn) is None:
                    # GC, truncation, or a restore dropped the corrupt
                    # bytes; nothing is left to detect or serve.
                    self._close(record)
                    closed += 1
                continue
            chain = seg.blocks.get(record.block)
            version = chain.version(record.lsn) if chain is not None else None
            if record.kind in ("lost_write", "misdirected_write_hole"):
                # Absence IS the damage: closed when the version came
                # back, when condensation rebuilt the history below it,
                # or when a later version at or below the GC floor
                # shadows the hole from every reachable read point.
                if version is not None:
                    self._close(record)
                    closed += 1
                    continue
                if record.lsn <= max(seg.granular_floor, seg.gc_horizon):
                    self._close(record)
                    closed += 1
                    continue
                if chain is not None and chain.versions_in(
                    record.lsn, seg.gc_floor
                ):
                    self._close(record)
                    closed += 1
                continue
            # Presence-is-damage kinds (bit rot, misdirected artifact).
            if version is None:
                self._close(record)
                closed += 1
            elif (
                record.corrupt_digest
                and version.checksum != record.corrupt_digest
            ):
                # The content changed under the corruption (an unhooked
                # repair path, e.g. hydration); the damage is gone.
                self._close(record)
                closed += 1
        return closed

    def start_reconcile(self, nodes: dict, interval_ms: float = 250.0) -> None:
        """Schedule :meth:`reconcile` forever at ``interval_ms``."""

        def tick() -> None:
            self.reconcile(nodes)
            self.loop.schedule(interval_ms, tick)

        self.loop.schedule(interval_ms, tick)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def open_count(self) -> int:
        return sum(1 for r in self.records if r.open)

    def open_records(self) -> list[CorruptionRecord]:
        return [r for r in self.records if r.open]

    def audit_unrepaired(
        self, budget_ms: float, now: float | None = None
    ) -> list[CorruptionRecord]:
        """Flag every corruption open longer than ``budget_ms``; returns
        the newly-flagged records."""
        at = self.loop.now if now is None else now
        flagged: list[CorruptionRecord] = []
        for record in self.records:
            if not record.open or record.budget_flagged:
                continue
            if at - record.injected_at > budget_ms:
                record.budget_flagged = True
                flagged.append(record)
                self._flag(
                    "integrity-unrepaired-past-budget",
                    record.node,
                    f"{record.kind} on block {record.block} lsn "
                    f"{record.lsn} open for "
                    f"{at - record.injected_at:.0f}ms "
                    f"(budget {budget_ms:.0f}ms)",
                )
        return flagged

    def summary(self) -> IntegritySummary:
        """Every corruption injected so far, rolled up; the storage
        fleet's counters are the caller's to add."""
        summary = IntegritySummary(
            corrupt_reads_served=self.corrupt_reads_served
        )
        for record in self.records:
            summary.add(record)
        return summary


class FailureInjector:
    """Schedules failures and repairs against a :class:`Network`."""

    def __init__(
        self, loop: EventLoop, network: Network, rng: random.Random
    ) -> None:
        self.loop = loop
        self.network = network
        self.rng = rng
        self.log: list[tuple[float, str, str]] = []
        self._az_members: dict[str, set[str]] = {}
        #: Per-node failure generation; bumped by every *manual* crash or
        #: restore so stale pre-scheduled background events cancel.
        self._generations: dict[str, int] = {}
        #: Permanently decommissioned nodes: every restore (manual,
        #: AZ-wide, or background) is a no-op for them.
        self._condemned: set[str] = set()
        #: Storage nodes registered for silent-corruption injection.
        self._storage_nodes: dict[str, object] = {}
        #: Every injected corruption, from injection through repair; also
        #: the integrity probe the registered storage nodes report to.
        self.integrity = IntegrityLog(loop)

    def register_az(self, az: str, nodes: set[str]) -> None:
        """Declare which nodes belong to an AZ (for whole-AZ events)."""
        self._az_members.setdefault(az, set()).update(nodes)

    def az_nodes(self, az: str) -> set[str]:
        if az not in self._az_members:
            raise ConfigurationError(f"unknown AZ {az!r}")
        return set(self._az_members[az])

    def attach_storage(self, nodes) -> None:
        """Register storage nodes as silent-corruption targets and arm
        their integrity probes, so every detection / repair / served read
        reports back to :attr:`integrity`."""
        for node in nodes:
            self._storage_nodes[node.name] = node
            node.attach_integrity_probe(self.integrity)

    def _storage_node(self, name: str):
        if name not in self._storage_nodes:
            raise ConfigurationError(
                f"{name!r} is not an attached storage node "
                f"(call attach_storage first)"
            )
        return self._storage_nodes[name]

    def start_integrity_reconcile(self, interval_ms: float = 250.0) -> None:
        """Periodically close integrity-log entries whose damage left the
        system through untracked paths (GC, truncation, restore); see
        :meth:`IntegrityLog.reconcile`.  The registry dict is shared, so
        nodes attached later are swept too."""
        self.integrity.start_reconcile(self._storage_nodes, interval_ms)

    def generation_of(self, name: str) -> int:
        return self._generations.get(name, 0)

    def _bump(self, name: str) -> None:
        self._generations[name] = self._generations.get(name, 0) + 1

    # ------------------------------------------------------------------
    # Immediate operations
    # ------------------------------------------------------------------
    def crash_node(self, name: str) -> None:
        self._bump(name)
        self.log.append((self.loop.now, "crash", name))
        self.network.fail_node(name)

    def restore_node(self, name: str) -> None:
        if name in self._condemned:
            return
        self._bump(name)
        self.log.append((self.loop.now, "restore", name))
        self.network.restore_node(name)

    def condemn_node(self, name: str) -> None:
        """Permanently decommission ``name``: crash it now and make every
        future restore -- manual, AZ-wide, or background -- a no-op.

        A plain :meth:`crash_node` only cancels *pre-scheduled background*
        restores (via the generation bump); a chaos schedule's
        ``restore_az`` or ``restore_node`` event landing later would still
        resurrect the node.  Condemnation models an unrecoverable host
        loss: the AZ can come back without that disk coming back with it.
        """
        self._condemned.add(name)
        self.log.append((self.loop.now, "condemn", name))
        self.crash_node(name)

    def crash_az(self, az: str) -> None:
        self.log.append((self.loop.now, "crash_az", az))
        for node in self.az_nodes(az):
            self._bump(node)
            self.network.fail_node(node)

    def restore_az(self, az: str) -> None:
        self.log.append((self.loop.now, "restore_az", az))
        for node in self.az_nodes(az):
            if node in self._condemned:
                continue
            self._bump(node)
            self.network.restore_node(node)

    def slow_node(self, name: str, factor: float) -> None:
        """Degrade a node: all its traffic is ``factor`` times slower."""
        self.log.append((self.loop.now, f"slow_x{factor}", name))
        self.network.set_latency_scale(name, factor)

    def unslow_node(self, name: str) -> None:
        self.log.append((self.loop.now, "unslow", name))
        self.network.set_latency_scale(name, 1.0)

    def partition_node(self, name: str, others: set[str]) -> None:
        """Isolate ``name`` from ``others`` (both directions drop)."""
        self.log.append((self.loop.now, "partition", name))
        self.network.partition({name}, set(others))

    def heal_node_partition(self, name: str, others: set[str]) -> None:
        self.log.append((self.loop.now, "heal_partition", name))
        self.network.heal_partition({name}, set(others))

    def quarantine_node(self, name: str, allow: set[str] = frozenset()) -> None:
        """Drop all traffic to/from ``name`` except ``allow`` -- unlike
        :meth:`partition_node`, this also covers peers created after the
        quarantine is installed."""
        self.log.append((self.loop.now, "quarantine", name))
        self.network.quarantine(name, allow)

    def lift_quarantine(self, name: str) -> None:
        self.log.append((self.loop.now, "lift_quarantine", name))
        self.network.lift_quarantine(name)

    # ------------------------------------------------------------------
    # Scheduled operations
    # ------------------------------------------------------------------
    def crash_at(
        self, time: float, name: str, duration: float | None = None
    ) -> None:
        """Crash ``name`` at ``time``; restore after ``duration`` if given."""
        self.loop.schedule_at(time, self.crash_node, name)
        if duration is not None:
            self.loop.schedule_at(time + duration, self.restore_node, name)

    def crash_az_at(
        self, time: float, az: str, duration: float | None = None
    ) -> None:
        self.loop.schedule_at(time, self.crash_az, az)
        if duration is not None:
            self.loop.schedule_at(time + duration, self.restore_az, az)

    def slow_at(
        self, time: float, name: str, factor: float, duration: float | None = None
    ) -> None:
        self.loop.schedule_at(time, self.slow_node, name, factor)
        if duration is not None:
            self.loop.schedule_at(time + duration, self.unslow_node, name)

    def partition_at(
        self,
        time: float,
        name: str,
        others: set[str],
        duration: float | None = None,
    ) -> None:
        self.loop.schedule_at(time, self.partition_node, name, set(others))
        if duration is not None:
            self.loop.schedule_at(
                time + duration, self.heal_node_partition, name, set(others)
            )

    # ------------------------------------------------------------------
    # Silent corruption (DESIGN.md §12)
    # ------------------------------------------------------------------
    def bit_rot(self, name: str) -> CorruptionRecord | None:
        """Rot one stored artifact on ``name``: 50/50 a materialized block
        version (image mutated *under* its recorded checksum) or a hot-log
        record (content diverges from its ingest digest).  Falls through
        to the other flavour when the first has no eligible target."""
        node = self._storage_node(name)
        if self.rng.random() < 0.5:
            return self._rot_version(node) or self._rot_record(node)
        return self._rot_record(node) or self._rot_version(node)

    def _rot_version(self, node) -> CorruptionRecord | None:
        from repro.storage.page import image_checksum

        seg = node.segment
        lo = max(seg.granular_floor, seg.gc_floor)
        victims = [
            (block, version.lsn)
            for block, chain in sorted(seg.blocks.items())
            for version in chain.versions_in(lo)
            if not version.quarantined
        ]
        if not victims:
            return None
        block, lsn = self.rng.choice(victims)
        chain = seg.blocks[block]
        chain.corrupt_version(lsn)
        damaged = chain.version(lsn)
        self.log.append((self.loop.now, "bit_rot_version", node.name))
        return self.integrity.inject(
            "bit_rot", node.name, block, lsn,
            corrupt_digest=image_checksum(damaged.image),
        )

    def _record_rot_targets(self, node) -> list[int]:
        # Above the GC floor as well as the local horizon: a record below
        # the PGMRPL floor may already be gone from every peer's hot log
        # (they GC eagerly; this copy may lag), which would make the
        # injected rot unrepairable by design rather than by failure --
        # and no instance will ever read below the floor anyway.
        seg = node.segment
        open_recs = self.integrity._open_recs
        floor = max(seg.gc_horizon, seg.gc_floor)
        return [
            lsn
            for lsn in seg.hot_log_lsns()
            if lsn > floor
            and lsn not in seg.corrupt_record_lsns
            and not open_recs.get((node.name, lsn))
        ]

    def _rot_record(self, node) -> CorruptionRecord | None:
        eligible = self._record_rot_targets(node)
        if not eligible:
            return None
        lsn = self.rng.choice(eligible)
        mangled = node.segment.corrupt_record(lsn)
        self.log.append((self.loop.now, "bit_rot_record", node.name))
        return self.integrity.inject(
            "bit_rot_record", node.name, mangled.block, lsn,
            corrupt_digest=record_digest(mangled),
        )

    def torn_write(
        self, name: str, duration: float = 150.0
    ) -> CorruptionRecord | None:
        """Crash ``name`` now; its newest hot-log record surfaces *torn*
        (content no longer matching the ingest digest) when the node
        restarts ``duration`` ms later.  No-op if the node is already
        down or holds no eligible record."""
        node = self._storage_node(name)
        if not self.network.is_up(name):
            return None
        eligible = self._record_rot_targets(node)
        if not eligible:
            return None
        lsn = eligible[-1]
        mangled = node.segment.corrupt_record(lsn, payload=("__torn__", lsn))
        self.log.append((self.loop.now, "torn_write", name))
        corruption = self.integrity.inject(
            "torn_write", name, mangled.block, lsn,
            corrupt_digest=record_digest(mangled),
        )
        self.crash_node(name)
        self.loop.schedule_at(
            self.loop.now + duration, self.restore_node, name
        )
        return corruption

    def lost_write(self, name: str) -> CorruptionRecord | None:
        """Drop an acknowledged write from ``name``: hot-log record and
        materialized version vanish while the SCL still covers the LSN.
        Restricted to blocks with a *later* retained version, so the hole
        sits mid-chain where the vote's structural comparison finds it."""
        node = self._storage_node(name)
        seg = node.segment
        lo = max(seg.granular_floor, seg.gc_floor, seg.gc_horizon)
        eligible = []
        for lsn in seg.hot_log_lsns():
            if lsn <= lo:
                continue
            chain = seg.blocks.get(seg.record_at(lsn).block)
            if chain is not None and chain.latest_lsn > lsn:
                eligible.append(lsn)
        if not eligible:
            return None
        lsn = self.rng.choice(eligible)
        record = seg.lose_record(lsn)
        self.log.append((self.loop.now, "lost_write", name))
        return self.integrity.inject("lost_write", name, record.block, lsn)

    def misdirected_write(self, name: str) -> CorruptionRecord | None:
        """Apply a write under the wrong block id: block A's version at
        LSN L disappears and re-surfaces mid-chain in block B with a
        freshly computed -- *valid* -- checksum.  Both halves pass local
        verification; only the quorum vote's cross-peer structural
        comparison catches them."""
        node = self._storage_node(name)
        seg = node.segment
        lo = max(seg.granular_floor, seg.gc_floor)
        sources = [
            (block, version.lsn)
            for block, chain in sorted(seg.blocks.items())
            for version in chain.versions_in(lo, chain.latest_lsn - 1)
            if not version.quarantined
        ]
        self.rng.shuffle(sources)
        for block_a, lsn in sources[:8]:
            targets = [
                block
                for block, chain in sorted(seg.blocks.items())
                if block != block_a
                and chain.latest_lsn > lsn
                and chain.version(lsn) is None
            ]
            if not targets:
                continue
            block_b = self.rng.choice(targets)
            chain_a = seg.blocks[block_a]
            bogus = seg.blocks[block_b].insert(
                lsn, dict(chain_a.version(lsn).image)
            )
            chain_a.remove_version(lsn)
            self.log.append((self.loop.now, "misdirected_write", name))
            injected = self.integrity.inject(
                "misdirected_write", name, block_b, lsn,
                corrupt_digest=bogus.checksum,
            )
            self.integrity.inject(
                "misdirected_write_hole", name, block_a, lsn
            )
            return injected
        return None

    def inject_anywhere(self, inject, *args) -> CorruptionRecord | None:
        """``inject(name, *args)`` -- one of the operations above -- on
        the attached storage nodes in a seeded random order, until one
        has an eligible victim: the chaos schedule resolves its victim
        when the event fires.  The record, or None if no node had one."""
        names = sorted(self._storage_nodes)
        self.rng.shuffle(names)
        for name in names:
            record = inject(name, *args)
            if record is not None:
                return record
        return None

    # ------------------------------------------------------------------
    # Background stochastic failures
    # ------------------------------------------------------------------
    def enable_background_failures(
        self,
        nodes: list[str],
        mttf_ms: float,
        mttr_ms: float,
        horizon_ms: float,
    ) -> None:
        """Schedule an independent crash/repair renewal process per node.

        Each node alternates exponentially-distributed up intervals (mean
        ``mttf_ms``) and down intervals (mean ``mttr_ms``), pre-scheduled out
        to ``horizon_ms``.  Pre-scheduling keeps runs deterministic for a
        given seed regardless of what the protocols under test do.

        The whole pre-scheduled sequence for a node is tied to that node's
        current failure generation: a manual ``crash_node`` / ``restore_node``
        / ``crash_az`` / ``restore_az`` touching the node invalidates its
        remaining background events (see module docstring).
        """
        if mttf_ms <= 0 or mttr_ms <= 0:
            raise ConfigurationError("mttf_ms and mttr_ms must be > 0")
        for node in nodes:
            generation = self.generation_of(node)
            t = self.loop.now + self.rng.expovariate(1.0 / mttf_ms)
            while t < horizon_ms:
                down_for = self.rng.expovariate(1.0 / mttr_ms)
                self.loop.schedule_at(
                    t, self._background_crash, node, generation
                )
                restore_at = t + down_for
                if restore_at < horizon_ms:
                    self.loop.schedule_at(
                        restore_at, self._background_restore, node, generation
                    )
                t = restore_at + self.rng.expovariate(1.0 / mttf_ms)

    def _background_crash(self, name: str, generation: int) -> None:
        if self.generation_of(name) != generation:
            return  # stale: the node was manually touched since scheduling
        self.log.append((self.loop.now, "crash", name))
        self.network.fail_node(name)

    def _background_restore(self, name: str, generation: int) -> None:
        if name in self._condemned:
            return
        if self.generation_of(name) != generation:
            return  # stale: the node was manually touched since scheduling
        self.log.append((self.loop.now, "restore", name))
        self.network.restore_node(name)
