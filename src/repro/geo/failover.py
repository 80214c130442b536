"""Region-loss disaster recovery: detection, fenced promotion, RPO/RTO.

The in-region :class:`~repro.repair.failover.FailoverCoordinator` answers
a dead *writer* with a replica promotion inside the same volume.  The
:class:`GeoFailoverCoordinator` answers a dead *region* with a secondary
-region promotion, and the safety argument changes shape: the two regions
share no storage quorum, so the epoch fence that protects an in-region
promotion cannot reach a partitioned primary.  The protocol therefore
pairs two unilateral, consensus-free rules (the same avoid-coordination
philosophy the paper applies to I/Os and membership):

1. **The primary self-fences on lease expiry.**  A writer that has heard
   no WAN ack for ``LEASE_MS`` closes itself (see
   :class:`~repro.geo.replicator.GeoSender`), resolving in-flight commits
   as uncertain.  No commit is ever acknowledged by a primary that the
   secondary might already have replaced.
2. **The secondary out-waits the lease before promoting.**  After the
   region tier's failure detector confirms primary silence, the
   coordinator waits ``LEASE_MS + LEASE_MARGIN_MS`` past the *last
   observed primary signal* before recovering the secondary writer.  By
   that point a merely-partitioned primary has provably stepped down.

Promotion itself is the paper's stateless crash recovery run against the
secondary volume: merge the freshest primary epochs the applier saw,
bump the volume epoch (strict dominance is audited), fence the secondary
PGs, recover to the highest locally-durable VDL.  Each promotion is
stamped into a :class:`GeoFailoverRecord` carrying the
disaster-recovery numbers -- detection, promotion, RTO, and the RPO the
workload reconciliation measures afterwards -- which
:class:`GeoFailoverSummary` folds into distributions and judges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.geo.replicator import LEASE_MS, SYNC
from repro.repair.failover import recover_until_open
from repro.repair.metrics import (
    ACTIVE,
    ROLLED_BACK,
    STALLED,
    Coordinator,
    OutcomeSummary,
    Record,
)
from repro.verdict import Budget, Gate, LatencyStats, Line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geo.cluster import GeoCluster
    from repro.repair.detector import FailureDetector

#: Terminal outcome: the secondary region's writer is open for business.
PROMOTED = "promoted"


#: Poll slice while waiting out the lease / promotion recovery (times in
#: simulated ms).
POLL_MS = 10.0
#: Extra silence required beyond the primary's self-fence lease before
#: promotion may begin.  Covers the gap between the two sides' reference
#: points: the coordinator waits from the applier's last *received*
#: signal, while the primary's lease runs from its last *received* ack --
#: one (possibly brownout-inflated) WAN flight later -- plus both sides'
#: poll granularity.
LEASE_MARGIN_MS = 750.0
#: Budget for promotion recovery; exceeding it stamps ``stalled``.
MAX_PROMOTION_MS = 20_000.0


@dataclass
class GeoFailoverRecord(Record):
    """A region-loss record: the shared phases plus the RPO facts."""

    ack_mode: str = field(kw_only=True)
    #: The replication lag frontier at promotion (secondary applied VDL).
    applied_vdl: int = 0
    #: Highest primary durable VDL the applier ever observed.
    primary_vdl_seen: int = 0
    #: VDL the promoted writer opened with (>= applied_vdl: recovery may
    #: find redo that was shipped and stored but not yet ack-counted).
    recovered_vdl: int = 0
    #: Filled by the workload reconciliation: acknowledged commits the
    #: promoted region does not serve, and the data-loss window they span.
    lost_commits: int = 0
    rpo_ms: float = 0.0

    @property
    def promoted_rpo_ms(self) -> float | None:
        """The data-loss window, once a promotion exists to measure it
        at (None for a record that stood down or stalled)."""
        return self.rpo_ms if self.promoted_at is not None else None

    @property
    def async_rpo_ms(self) -> float | None:
        """The data-loss window of an async-acked recovery: the
        acknowledged work at risk (a sync-acked one may lose none)."""
        return self.promoted_rpo_ms if self.ack_mode != SYNC else None

    @property
    def recovered_detection_ms(self) -> float | None:
        """Detection latency as a term of a recovery that happened."""
        return self.detection_ms if self.promoted_at is not None else None


#: Region loss is the stronger disaster: the volume itself is gone and
#: recovery runs from the secondary region's replica volume.  RTO is
#: region-loss detection + lease wait + promotion, and like durability a
#: tail phenomenon: the *worst* recovery must fit.
REGION_RTO = Budget(
    judged="rto",
    statistic="max",
    limit_ms=30_000.0,
    label="  RTO budget ({limit}):       ",
    met="met; worst recovery used {used:.1%} of budget",
    exceeded="EXCEEDED: worst recovery used {used:.1%} of budget",
    source="Aurora Global Database-class systems advertise ~1 minute "
    "cross-region recovery; held to the stricter 30 s of the in-region "
    "failover, since the simulated promotion is a local crash recovery "
    "either way",
)

#: What a seed's report and a sweep's footer both say of the recoveries.
#: RPO is two objectives: in ``sync`` ack mode the commit path gates on
#: the secondary's applied frontier, so any acknowledged-commit loss is a
#: violation, not a statistic; in ``async`` mode it is the window of
#: acknowledged work at risk, bounded by the replication lag at failure.
_RECOVERIES = (
    "  region failovers:    {confirmed} ({outcomes})",
    Line("  region detection:    {detection}", "detection"),
    Line("  promotion time:      {promotion}", "promotion"),
    Line("  RTO:                 {rto}", "rto"),
    Line(
        "  RPO:                 {rpo} "
        "({lost_commits} acked commit(s) lost, async mode)",
        "rpo",
    ),
    Line("  region-loss detection: {recovered_detection}", "recovered_detection"),
    Line("  secondary promotion:   {promotion}", "promotion"),
    Line("  RTO:                   {rto}", "rto"),
    REGION_RTO,
    Line("  RPO (sync, {sync_runs} runs):   {sync_rpo}", "sync_runs"),
    Line(
        "  RPO (async, {async_runs} runs, {async_lost_commits} commits): "
        "{async_rpo}",
        "async_runs",
    ),
)


@dataclass
class GeoFailoverSummary(OutcomeSummary):
    """Aggregated disaster-recovery statistics (one run or a sweep).
    Every region record must be terminal and no sync-acked commit lost."""

    OUTCOMES = (PROMOTED, ROLLED_BACK, STALLED)
    SAMPLED = (
        ("detection", "detection_ms"),
        ("promotion", "promotion_ms"),
        ("rto", "outage_ms"),
        ("rpo", "promoted_rpo_ms"),
        ("recovered_detection", "recovered_detection_ms"),
        ("async_rpo", "async_rpo_ms"),
    )
    ZEROS = (ACTIVE, "sync_lost_commits")
    LINES = (
        "  geo ack mode:        {ack_mode}",
        *_RECOVERIES,
        Gate("geo DR gate:", "geo"),
    )
    REPORTED_ON = "confirmed"
    FOOTER = (
        "geo disaster-recovery telemetry across {seeds} seeds:",
        *_RECOVERIES,
        Line("  (no promoted recovery to report RPO/RTO on)", "unrecovered"),
    )

    promoted: int = 0
    rolled_back: int = 0
    stalled: int = 0
    promotion: LatencyStats = field(default_factory=LatencyStats)
    rto: LatencyStats = field(default_factory=LatencyStats)
    rpo: LatencyStats = field(default_factory=LatencyStats)
    #: Over the recoveries that happened (a promoted region), by the
    #: commit ack mode they ran under.
    recovered_detection: LatencyStats = field(default_factory=LatencyStats)
    async_rpo: LatencyStats = field(default_factory=LatencyStats)
    sync_runs: int = 0
    async_runs: int = 0
    #: Acknowledged commits the promoted region does not serve (for
    #: sync-acked runs: must be zero).
    sync_lost_commits: int = 0
    async_lost_commits: int = 0
    #: The ack mode of each run summarised.
    ack_modes: tuple[str, ...] = ()

    def add(self, record: GeoFailoverRecord) -> None:
        super().add(record)
        if record.promoted_at is None:
            return
        if record.ack_mode == SYNC:
            self.sync_runs += 1
            self.sync_lost_commits += record.lost_commits
        else:
            self.async_runs += 1
            self.async_lost_commits += record.lost_commits

    @property
    def ack_mode(self) -> str:
        return "+".join(sorted(set(self.ack_modes)))

    @property
    def lost_commits(self) -> int:
        return self.sync_lost_commits + self.async_lost_commits

    @property
    def sync_rpo(self) -> str:
        if self.sync_lost_commits:
            return (
                f"VIOLATED: {self.sync_lost_commits} acknowledged commits lost"
            )
        return "zero acknowledged-commit loss"

    @property
    def unrecovered(self) -> bool:
        return not self.rto


class GeoFailoverCoordinator(Coordinator):
    """Promotes the secondary region when the primary falls silent; a
    verdict while a promotion is in flight is dropped."""

    SUMMARY = GeoFailoverSummary

    def __init__(
        self,
        geo: "GeoCluster",
        monitor: "FailureDetector",
    ) -> None:
        self.geo = geo
        super().__init__(geo.loop, monitor)

    def _open(self, instance_id, failed_at, confirmed_at):
        if instance_id != self.geo.primary_writer_id or self.geo.promoted:
            return None
        return GeoFailoverRecord(
            instance_id, failed_at, confirmed_at, ack_mode=self.geo.ack_mode
        )

    def _promote(self, record: GeoFailoverRecord):
        geo = self.geo
        loop = geo.loop
        applier = geo.applier
        geo.failover_in_progress = True
        geo.region_unavailable = True
        try:
            # Out-wait the primary's self-fence lease, measured from the
            # last primary signal the *applier* observed.  If signals
            # resume meanwhile (and chaos did not truly kill the region),
            # this was a false positive: stand down, nothing changed.
            while (
                loop.now
                < applier.last_primary_signal_at
                + LEASE_MS
                + LEASE_MARGIN_MS
            ):
                if (
                    record.subject in self._returned
                    and not geo.primary_lost
                ):
                    record.notes.append(
                        "primary signals resumed during the lease wait"
                    )
                    geo.region_unavailable = False
                    self._finish(record, ROLLED_BACK)
                    return
                yield POLL_MS
            # Point of no return: stop applying (a post-promotion frame
            # must never mutate the promoted volume) and snapshot the
            # replication frontier the RPO gate is judged against.
            applier.stop()
            record.applied_vdl = applier.applied_vdl
            record.primary_vdl_seen = applier.primary_vdl
            if applier.primary_epochs is not None:
                # Promotion must dominate every epoch the primary ever
                # established, or a zombie's stamp could outrank ours.
                geo.secondary.metadata.record_epochs(applier.primary_epochs)
            record.began_at = loop.now
            writer = geo.secondary.writer
            deadline = record.confirmed_at + MAX_PROMOTION_MS
            opened = yield from recover_until_open(
                writer, writer.recover(), record, deadline, POLL_MS
            )
            if not opened:
                record.notes.append(
                    f"promotion exceeded {MAX_PROMOTION_MS:.0f}ms"
                )
                self._finish(record, STALLED)
                return
            record.promoted_at = loop.now
            record.recovered_vdl = writer.vdl
            self._check_epoch_dominance(record, writer)
            geo.on_promoted(record)
            self._finish(record, PROMOTED)
        finally:
            geo.failover_in_progress = False

    _act = _promote

    def _check_epoch_dominance(self, record: GeoFailoverRecord, writer):
        """Audited invariant: the promoted region's volume epoch strictly
        dominates every epoch the primary was known to hold, so any
        late-healing zombie loses every epoch comparison."""
        known = self.geo.applier.primary_epochs
        if known is None:
            return
        promoted = writer.driver.epochs
        if promoted.volume <= known.volume:
            record.notes.append(
                f"promoted volume epoch {promoted.volume} does not "
                f"dominate the primary's {known.volume}"
            )
            auditor = writer.driver.audit_probe
            if auditor is not None:
                auditor.flag(
                    "geo-promoted-epoch-not-dominant",
                    writer.name,
                    f"promoted with volume epoch {promoted.volume} <= "
                    f"last known primary volume epoch {known.volume}",
                )
