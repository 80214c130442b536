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

Every failover is stamped into a :class:`~repro.repair.metrics.Record`
so runs can report the distributions the availability story cares
about: detection latency (failure -> confirmed dead), promotion time
(promotion start -> new writer open), and the total write-unavailability
window (failure -> new writer open), judged against the ~30 s budget
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
    Coordinator,
    OutcomeSummary,
    Record,
)
from repro.verdict import Budget, Gate, LatencyStats, Line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.cluster import AuroraCluster
    from repro.repair.detector import FailureDetector

#: Failover-specific terminal outcomes (alongside the shared repair
#: outcome vocabulary: ``rolled_back``, ``aborted``, ``stalled``).
PROMOTED = "promoted"  #: a replica was promoted and opened as the writer
RESTARTED = "restarted"  #: no candidate; the incumbent was restarted in place


#: Poll slice while waiting on promotion recovery (simulated ms).
POLL_MS = 5.0
#: Budget for the whole failover; exceeding it stamps ``stalled``.
MAX_FAILOVER_MS = 20_000.0
#: Pause between failed promotion-recovery attempts (a read quorum can be
#: transiently unreachable mid-chaos); the region tier's promotion uses it
#: too.
RETRY_WAIT_MS = 250.0


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
        ("unavailability", "outage_ms"),
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
        record.attempts += 1
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


class FailoverCoordinator(Coordinator):
    """Reacts to confirmed writer deaths with a fenced promotion.

    One failover runs at a time (there is only one writer): a verdict
    while one is in flight is dropped; replica deaths are recorded by the
    monitor but trigger nothing here.  The coordinator is control-plane
    only: correctness never depends on its verdicts, because the
    volume-epoch fence makes even a wrong promotion safe against the
    incumbent.
    """

    SUMMARY = FailoverSummary

    def __init__(
        self, cluster: "AuroraCluster", monitor: "FailureDetector"
    ) -> None:
        self.cluster = cluster
        self._replenished = 0
        super().__init__(cluster.loop, monitor)

    def _open(self, instance_id, failed_at, confirmed_at):
        writer = self.cluster.writer
        if writer is None or writer.name != instance_id:
            # A dead replica (read capacity lost, not availability), or a
            # stale verdict about an already-replaced writer.
            return None
        return Record(instance_id, failed_at, confirmed_at)

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
    def _failover(self, record: Record):
        cluster = self.cluster
        loop = cluster.loop
        cluster.failover_in_progress = True
        try:
            # One poll slice between confirmation and action: the cheapest
            # possible chance for an in-flight liveness signal to land.
            yield POLL_MS
            incumbent = cluster.writer
            if (
                record.subject in self._returned
                and incumbent is not None
                and incumbent.name == record.subject
                and incumbent.state is InstanceState.OPEN
            ):
                record.notes.append("incumbent returned before promotion")
                self._finish(record, ROLLED_BACK)
                return
            deadline = record.confirmed_at + MAX_FAILOVER_MS
            candidate = self._select_candidate(record.subject)
            if candidate is None:
                yield from self._restart_in_place(record, deadline)
                return
            record.candidate_id = candidate
            record.began_at = loop.now
            candidate_vdl = cluster.replicas[candidate].applied_vdl
            new_writer, process = cluster.promote_replica(candidate)
            opened = yield from recover_until_open(
                new_writer, process, record, deadline, POLL_MS
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

    _act = _failover

    def _restart_in_place(self, record: Record, deadline: float):
        """No promotable replica: the only path back is restarting the
        incumbent once its host returns (single-instance clusters, or a
        multi-failure that took every replica too)."""
        cluster = self.cluster
        loop = cluster.loop
        writer = cluster.writer
        record.candidate_id = writer.name
        record.notes.append("no promotable replica; restarting in place")
        while not cluster.network.is_up(writer.name):
            if loop.now >= deadline:
                self._finish(record, STALLED)
                return
            yield POLL_MS
        record.began_at = loop.now
        if writer.state is InstanceState.OPEN:
            # The host returned with the instance process still running; a
            # restart discards its dead-generation in-memory state (and
            # resolves any in-flight commits as uncertain).
            writer.crash()
        opened = yield from recover_until_open(
            writer, writer.recover(), record, deadline, POLL_MS
        )
        if not opened:
            self._finish(record, STALLED)
            return
        record.promoted_at = loop.now
        if cluster.replicas:
            cluster.reattach_replicas()
        self._finish(record, RESTARTED)

    def _audit_read_view(
        self, record: Record, new_writer, candidate_vdl: int
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
