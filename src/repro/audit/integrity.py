"""The silent-corruption judge (DESIGN.md §12): :class:`IntegrityLog`,
given to :meth:`repro.sim.failures.FailureInjector.attach_storage`, and
its section, :class:`IntegritySummary`, the ``integrity`` gate's."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.durability import model_from_observed_mttr
from repro.core.records import record_digest
from repro.sim.events import EventLoop
from repro.storage.page import image_checksum
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


def _gone(record: CorruptionRecord, node) -> bool:
    """Has ``record``'s damage physically left ``node``?"""
    seg = node.segment
    if record.kind in RECORD_CORRUPTION_KINDS:
        # GC, truncation, or a restore dropped the corrupt bytes; nothing
        # is left to detect or serve.
        return seg.record_at(record.lsn) is None
    chain = seg.blocks.get(record.block)
    version = chain.version(record.lsn) if chain is not None else None
    if record.kind in ("lost_write", "misdirected_write_hole"):
        # Absence IS the damage: gone when the version came back, when
        # condensation rebuilt the history below it, or when a later
        # version at or below the GC floor shadows the hole from every
        # reachable read point.
        return (
            version is not None
            or record.lsn <= max(seg.granular_floor, seg.gc_horizon)
            or bool(
                chain is not None
                and chain.versions_in(record.lsn, seg.gc_floor)
            )
        )
    # Presence-is-damage kinds (bit rot, misdirected artifact): gone with
    # the version, or when the content changed under the corruption (an
    # unhooked repair path, e.g. hydration).  Judged by the image: bit rot
    # leaves the recorded checksum clean, so that would close it at once.
    return version is None or bool(
        record.corrupt_digest
        and image_checksum(version.image) != record.corrupt_digest
    )


class IntegrityLog:
    """Registry of injected corruptions and node-side integrity probe.

    The log plays both roles of the integrity audit: the injector hands it
    every fault at injection time (:meth:`inject`), and every storage node
    armed via :meth:`repro.storage.node.StorageNode.attach_integrity_probe`
    reports detections, repairs, and served reads back.  Crossing the two
    streams yields MTTD/MTTR distributions and the three integrity
    invariants, flagged into ``auditor`` when one is given:

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

    def __init__(self, loop: EventLoop, auditor=None) -> None:
        self.loop = loop
        self.auditor = auditor
        self.records: list[CorruptionRecord] = []
        self.corrupt_reads_served = 0
        #: Open version-kind corruptions keyed by (node, block, lsn); the
        #: read-served hook runs on every read, so it must be one lookup.
        self._open_versions: dict[tuple[str, int, int], list[CorruptionRecord]] = {}
        #: Open record-kind corruptions keyed by (node, lsn).
        self._open_recs: dict[tuple[str, int], list[CorruptionRecord]] = {}

    def _flag(self, invariant: str, subject: str, detail: str) -> None:
        if self.auditor is not None:
            self.auditor.flag(invariant, subject, detail)

    # ------------------------------------------------------------------
    # Injection side
    # ------------------------------------------------------------------
    def inject(
        self, kind: str, node: str, block: int, lsn: int, damaged=None
    ) -> CorruptionRecord:
        """Open a record for one corruption landed now; its
        ``corrupt_digest`` is the checksum of ``damaged``, what the fault
        left to serve (a hot-log record, a block version, or None)."""
        if damaged is None:
            corrupt_digest = 0
        elif kind in RECORD_CORRUPTION_KINDS:
            corrupt_digest = record_digest(damaged)
        else:
            corrupt_digest = image_checksum(damaged.image)
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
        self, node: str, block: int, lsn: int, image
    ) -> None:
        """``node`` adopted ``image`` into its version ``(block, lsn)``;
        judged by the image itself, which a voter that vouched without
        verifying may have shipped under a clean checksum."""
        digest = None
        for record in self.records:
            if (
                record.open
                and record.block == block
                and record.lsn == lsn
                and record.corrupt_digest
            ):
                if digest is None:
                    digest = image_checksum(image)
                if record.corrupt_digest != digest:
                    continue
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

        ``nodes`` maps node name to storage node (the nodes the injector
        was attached to).  Returns the number of records closed.  Run
        periodically (see :meth:`start_reconcile`) so close timestamps
        stay accurate.
        """
        closed = 0
        for record in self.records:
            node = nodes.get(record.node)
            if record.open and node is not None and _gone(record, node):
                self._close(record)
                closed += 1
        return closed

    def start_reconcile(self, nodes, interval_ms: float = 250.0) -> None:
        """Schedule :meth:`reconcile` over ``nodes`` (the storage nodes
        the injector was attached to) forever at ``interval_ms``."""
        nodes = {node.name: node for node in nodes}

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

