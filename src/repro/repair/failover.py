"""Autonomous writer failover: promotion, fencing, and telemetry.

The paper's section 6 recovery story -- bump the volume epoch, establish
the truncation range, open for business with no redo-replay pause --
assumes *something* noticed the writer died and started a successor.
The :class:`FailoverCoordinator` closes that loop at the database tier,
the same way :class:`~repro.repair.planner.RepairPlanner` closes it for
storage segments:

- the database tier's :class:`~repro.repair.detector.FailureDetector`
  confirms the writer dead from passive signals;
- the coordinator selects the most-caught-up healthy replica (highest
  applied VDL, preferring a different AZ than the failed writer) and
  promotes it via :meth:`~repro.db.cluster.AuroraCluster.promote_replica`;
- promotion *is* crash recovery on the successor, and recovery is
  fence-first: the new writer bumps the volume epoch and establishes it
  on a write quorum of every PG before reading a thing, so a zombie
  incumbent's late batches are epoch-rejected from that point on --
  "changing the locks on the door" rather than reaching consensus about
  who is primary;
- if the monitor's verdict was wrong and the incumbent returns before
  promotion begins, the coordinator rolls the failover back (outcome
  ``rolled_back``) and nothing changed -- a false positive costs one
  backoff doubling in the monitor, not a writer generation.

Every failover is stamped into a :class:`FailoverRecord` so runs can
report the distributions the availability story cares about: detection
latency (failure -> confirmed dead), promotion time (promotion start ->
new writer open), and the total write-unavailability window (failure ->
new writer open), judged against the ~30 s budget
(:data:`FAILOVER_WINDOW`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.db.instance import InstanceState
from repro.repair.detector import Health
from repro.repair.metrics import (
    ABORTED,
    ACTIVE,
    ROLLED_BACK,
    STALLED,
    OutcomeSummary,
    summarize,
)
from repro.sim.process import Process
from repro.verdict import Budget, Gate, LatencyStats, Line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.cluster import AuroraCluster
    from repro.repair.detector import FailureDetector

#: Failover-specific terminal outcomes (alongside the shared repair
#: outcome vocabulary: ``rolled_back``, ``aborted``, ``stalled``).
PROMOTED = "promoted"  #: a replica was promoted and opened as the writer
RESTARTED = "restarted"  #: no candidate; the incumbent was restarted in place


#: Budget for the whole failover; exceeding it stamps ``stalled``.
MAX_FAILOVER_MS = 20_000.0
#: Pause between failed promotion-recovery attempts (a read quorum can be
#: transiently unreachable mid-chaos); the region tier's promotion uses it
#: too.
RETRY_WAIT_MS = 250.0


@dataclass
class FailoverConfig:
    """Coordinator knobs (times in simulated ms)."""

    #: Poll slice while waiting on promotion recovery.
    poll_ms: float = 5.0


@dataclass
class FailoverRecord:
    """One confirmed writer death's journey through failover.

    ``failed_at`` is the writer's last provable liveness signal, so
    ``unavailability_ms`` measures the full window during which no writer
    could acknowledge a commit -- the number the availability budget is
    judged against.
    """

    writer_id: str
    failed_at: float
    confirmed_at: float
    candidate_id: str | None = None
    began_at: float | None = None
    promoted_at: float | None = None
    finished_at: float | None = None
    outcome: str = ACTIVE
    promotion_attempts: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def detection_ms(self) -> float:
        """Failure to confirmed-dead (the monitor's reaction time)."""
        return self.confirmed_at - self.failed_at

    @property
    def promotion_ms(self) -> float | None:
        """Promotion start to new-writer-open (None unless promoted or
        restarted)."""
        if self.promoted_at is None or self.began_at is None:
            return None
        return self.promoted_at - self.began_at

    @property
    def unavailability_ms(self) -> float | None:
        """Total write-unavailability window: last liveness signal of the
        old writer to the successor opening."""
        if self.promoted_at is None:
            return None
        return self.promoted_at - self.failed_at

    def __str__(self) -> str:
        window = (
            f" unavail={self.unavailability_ms:.0f}ms"
            if self.unavailability_ms is not None
            else ""
        )
        return (
            f"failover {self.writer_id}"
            f" -> {self.candidate_id or '?'} [{self.outcome}]"
            f" detect={self.detection_ms:.0f}ms{window}"
        )


#: The volume survives the writer ("the database instance is stateless
#: with respect to durability"), so a writer failure costs only the
#: detection + promotion window.  Availability, like durability, is a tail
#: phenomenon: the budget must hold for the *worst* failover.
FAILOVER_WINDOW = Budget(
    judged="unavailability",
    statistic="max",
    limit_ms=30_000.0,
    label="  budget ({limit}):         ",
    met="met; worst failover used {used:.1%} of budget",
    exceeded="EXCEEDED: worst failover used {used:.1%} of budget",
    source="the ~30 s detect-promote-reconnect figure published for "
    "Aurora-class managed databases (SNIPPETS.md snippet 1: failover "
    "\"30-60 seconds\"); simulated ms are treated as real ms",
)


@dataclass
class FailoverSummary(OutcomeSummary):
    """Aggregated failover statistics for one run (or one sweep seed).
    Every failover must have resolved: a record still in flight or
    stalled fails the section."""

    OUTCOMES = (PROMOTED, RESTARTED, ROLLED_BACK, ABORTED, STALLED)
    SAMPLED = (
        ("detection", "detection_ms"),
        ("promotion", "promotion_ms"),
        ("unavailability", "unavailability_ms"),
    )
    ZEROS = (ACTIVE, STALLED)
    LINES = (
        "  writer kills:        {writer_kills}",
        "  failovers confirmed: {confirmed} ({outcomes})",
        Line("  failover detection:  {detection}", "detection"),
        Line("  promotion time:      {promotion}", "promotion"),
        Line("  write unavailability: {unavailability}", "unavailability"),
        Gate("failover gate:", "failover"),
    )
    REPORTED_ON = "unavailability"
    FOOTER = (
        "fleet failover telemetry across {seeds} seeds "
        "({confirmed} writer failovers):",
        Line("  detection latency:   {detection}", "detection"),
        Line("  promotion time:      {promotion}", "promotion"),
        "  write unavailability: {unavailability}",
        FAILOVER_WINDOW,
    )

    promoted: int = 0
    restarted: int = 0
    rolled_back: int = 0
    aborted: int = 0
    stalled: int = 0
    promotion: LatencyStats = field(default_factory=LatencyStats)
    unavailability: LatencyStats = field(default_factory=LatencyStats)
    #: Writers the audit's chaos killed.
    writer_kills: int = 0


def recover_until_open(
    writer, process, record, deadline: float, poll_ms: float
):
    """Drive ``writer``'s crash recovery -- ``process``, already started --
    until it is open for business, counting attempts on ``record``,
    polling every ``poll_ms`` and pausing ``RETRY_WAIT_MS`` between
    attempts.  Returns (to ``yield from``) whether it opened before
    ``deadline``."""
    loop = writer.loop
    while True:
        record.promotion_attempts += 1
        while not process.finished and loop.now < deadline:
            yield poll_ms
        if (
            process.finished
            and process.completion.exception() is None
            and writer.state is InstanceState.OPEN
        ):
            return True
        if loop.now >= deadline:
            return False
        # Recovery failed (read quorum unreachable mid-chaos): wait for
        # faults to heal and retry on the same successor.
        writer.state = InstanceState.CRASHED
        yield RETRY_WAIT_MS
        process = writer.recover()


class FailoverCoordinator:
    """Reacts to confirmed writer deaths with a fenced promotion.

    One failover runs at a time (there is only one writer); replica
    deaths are recorded by the monitor but trigger nothing here.  The
    coordinator is control-plane only: correctness never depends on its
    verdicts, because the volume-epoch fence makes even a wrong promotion
    safe against the incumbent.
    """

    def __init__(
        self,
        cluster: "AuroraCluster",
        monitor: "FailureDetector",
        config: FailoverConfig | None = None,
    ) -> None:
        self.cluster = cluster
        self.monitor = monitor
        self.config = config if config is not None else FailoverConfig()
        self.records: list[FailoverRecord] = []
        self._active: FailoverRecord | None = None
        #: Instances the monitor revived after confirming dead (the
        #: false-positive path: roll back instead of promoting).
        self._returned: set[str] = set()
        self._replenished = 0
        monitor.on_confirmed_dead.append(self._on_confirmed_dead)
        monitor.on_recovered.append(self._on_recovered)

    @property
    def idle(self) -> bool:
        return self._active is None

    def summary(self) -> FailoverSummary:
        return summarize(self.records, FailoverSummary)

    # ------------------------------------------------------------------
    # Monitor callbacks
    # ------------------------------------------------------------------
    def _on_confirmed_dead(
        self, instance_id: str, failed_at: float, confirmed_at: float
    ) -> None:
        writer = self.cluster.writer
        if writer is None or writer.name != instance_id:
            # A dead replica (read capacity lost, not availability), or a
            # stale verdict about an already-replaced writer.
            return
        if self._active is not None:
            return  # a failover is already in flight
        self._returned.discard(instance_id)
        record = FailoverRecord(
            writer_id=instance_id,
            failed_at=failed_at,
            confirmed_at=confirmed_at,
        )
        self.records.append(record)
        self._active = record
        Process(self.cluster.loop, self._failover(record))

    def _on_recovered(self, instance_id: str) -> None:
        self._returned.add(instance_id)

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def _select_candidate(self, failed_writer: str) -> str | None:
        """Most-caught-up healthy replica; AZ diversity breaks ties.

        Preference order: highest applied VDL, then an AZ different from
        the failed writer's, then name (for determinism).  Replicas the
        monitor holds confirmed-dead, or whose node is down, are skipped
        -- promoting an unreachable replica helps nobody.
        """
        network = self.cluster.network
        failed_az = network.az_of(failed_writer)
        best: tuple | None = None
        best_name: str | None = None
        for name in sorted(self.cluster.replicas):
            replica = self.cluster.replicas[name]
            if not replica.online or not network.is_up(name):
                continue
            if self.monitor.state_of(name) is Health.DEAD:
                continue
            diverse = 1 if network.az_of(name) != failed_az else 0
            rank = (replica.applied_vdl, diverse)
            if best is None or rank > best:
                best = rank
                best_name = name
        return best_name

    # ------------------------------------------------------------------
    # The failover process
    # ------------------------------------------------------------------
    def _failover(self, record: FailoverRecord):
        cfg = self.config
        cluster = self.cluster
        loop = cluster.loop
        cluster.failover_in_progress = True
        try:
            # One poll slice between confirmation and action: the cheapest
            # possible chance for an in-flight liveness signal to land.
            yield cfg.poll_ms
            incumbent = cluster.writer
            if (
                record.writer_id in self._returned
                and incumbent is not None
                and incumbent.name == record.writer_id
                and incumbent.state is InstanceState.OPEN
            ):
                record.notes.append("incumbent returned before promotion")
                self._finish(record, ROLLED_BACK)
                return
            deadline = record.confirmed_at + MAX_FAILOVER_MS
            candidate = self._select_candidate(record.writer_id)
            if candidate is None:
                yield from self._restart_in_place(record, deadline)
                return
            record.candidate_id = candidate
            record.began_at = loop.now
            candidate_vdl = cluster.replicas[candidate].applied_vdl
            new_writer, process = cluster.promote_replica(candidate)
            opened = yield from recover_until_open(
                new_writer, process, record, deadline, cfg.poll_ms
            )
            if not opened:
                record.notes.append(
                    f"promotion exceeded {MAX_FAILOVER_MS:.0f}ms"
                )
                self._finish(record, STALLED)
                return
            record.promoted_at = loop.now
            self._audit_read_view(record, new_writer, candidate_vdl)
            if self.cluster.db_health is not None:
                self.cluster.db_health.track(new_writer.name)
            cluster.reattach_replicas()
            # Attach a replacement replica, keeping the read fleet (and
            # the next failover's candidate pool) sized.
            self._replenished += 1
            cluster.add_replica(f"failover-replica-{self._replenished}")
            self._finish(record, PROMOTED)
        finally:
            cluster.failover_in_progress = False
            if self._active is record:
                self._active = None

    def _restart_in_place(self, record: FailoverRecord, deadline: float):
        """No promotable replica: the only path back is restarting the
        incumbent once its host returns (single-instance clusters, or a
        multi-failure that took every replica too)."""
        cfg = self.config
        cluster = self.cluster
        loop = cluster.loop
        writer = cluster.writer
        record.candidate_id = writer.name
        record.notes.append("no promotable replica; restarting in place")
        while not cluster.network.is_up(writer.name):
            if loop.now >= deadline:
                self._finish(record, STALLED)
                return
            yield cfg.poll_ms
        record.began_at = loop.now
        if writer.state is InstanceState.OPEN:
            # The host returned with the instance process still running; a
            # restart discards its dead-generation in-memory state (and
            # resolves any in-flight commits as uncertain).
            writer.crash()
        opened = yield from recover_until_open(
            writer, writer.recover(), record, deadline, cfg.poll_ms
        )
        if not opened:
            self._finish(record, STALLED)
            return
        record.promoted_at = loop.now
        if cluster.replicas:
            cluster.reattach_replicas()
        self._finish(record, RESTARTED)

    def _audit_read_view(
        self, record: FailoverRecord, new_writer, candidate_vdl: int
    ) -> None:
        """Audited invariant: the promoted replica's established read
        views never regress -- the VDL it opens with as writer must cover
        every VDL it served reads at as a replica."""
        auditor = new_writer.driver.audit_probe
        if new_writer.vdl < candidate_vdl:
            record.notes.append(
                f"read views regressed: opened at VDL {new_writer.vdl} "
                f"below replica applied VDL {candidate_vdl}"
            )
            if auditor is not None:
                auditor.flag(
                    "failover-read-view-regression",
                    new_writer.name,
                    f"promoted writer opened at VDL {new_writer.vdl}, "
                    f"below the VDL {candidate_vdl} it had applied (and "
                    f"served reads at) as a replica",
                )

    def _finish(self, record: FailoverRecord, outcome: str) -> None:
        record.outcome = outcome
        record.finished_at = self.cluster.loop.now
