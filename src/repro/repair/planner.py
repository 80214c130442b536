"""Quorum-set repair orchestration: Figure 5, driven end to end.

When the storage tier's :class:`~repro.repair.detector.FailureDetector`
confirms a segment dead, the planner runs the paper's membership-change
protocol over the simulated message layer:

1. **begin** -- add a candidate next to the suspect (the cluster picks a
   node in the incumbent's AZ, preserving the two-per-AZ spread the AZ+1
   durability argument depends on); membership epoch bumps, the dual
   quorum set is installed, I/Os continue;
2. **hydrate** -- baseline copy from a healthy full peer (RPC with
   timeout + exponential backoff; sources are retried in deterministic
   order), then gossip closes the gap to the PG's durable watermark;
3. **finalize** -- once the candidate's SCL reaches the watermark floor,
   commit the replacement (epoch bumps again) -- or
4. **rollback** -- if the monitor hears from the incumbent first, reverse
   the transition (epoch bumps; the exact prior membership is restored)
   and decommission the candidate.

Design points that keep this safe under further chaos:

- **Per-PG serialization.**  One repair in flight per protection group;
  further confirmed deaths queue behind it.  A second failure (or an AZ
  outage) mid-transition therefore never drives the membership machinery
  past the dual-quorum shapes :func:`verify_transition_safety` proves --
  and the dual quorum itself still tolerates it, exactly the property
  section 4 claims for Figure 5's intermediate state.
- **Monotonic watermark floor.**  Finalize requires the candidate's SCL
  to reach the highest durable point (PGCL) the planner has *ever*
  observed for the PG, not the current tracker value: a writer crash
  resets in-memory trackers to zero, and finalizing against that would
  drop a member that still backs acked writes.
- **Bounded everything.**  Baseline RPCs poll in small slices rather than
  blocking on the future (a lost message would otherwise hang the repair
  forever); the whole repair has a budget, after which it parks as
  ``stalled`` with the dual quorum still installed -- safe, merely
  unfinished, and queued again while the segment stays a confirmed-dead
  member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.retry import Backoff, RetryPolicy
from repro.errors import ConfigurationError, MembershipError
from repro.repair.detector import Health
from repro.repair.metrics import (
    ABORTED,
    REPLACED,
    ROLLED_BACK,
    STALLED,
    Coordinator,
    RepairRecord,
    RepairSummary,
)
from repro.storage.messages import (
    BaselineRequest,
    BaselineResponse,
    RequestRejected,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.cluster import AuroraCluster
    from repro.repair.detector import FailureDetector


#: Hydration/rollback poll granularity (simulated ms, as all below).
POLL_MS = 5.0
#: Per-attempt baseline RPC timeout, and the retry backoff between
#: attempts (jitter-free: a repair draws nothing from the seeded RNG).
BASELINE_TIMEOUT_MS = 60.0
BASELINE_RETRY = RetryPolicy(base_ms=20.0, cap_ms=160.0)
#: Total budget per repair before parking it as ``stalled``.
MAX_REPAIR_MS = 20_000.0


@dataclass
class RepairConfig:
    """Orchestration knobs (times in simulated ms)."""

    #: Modeled bulk-copy time for the baseline snapshot.  The simulated
    #: baseline is a few records, but the thing it stands for is a ~10GB
    #: segment copy that dominates the paper's 10-second repair window;
    #: pacing it keeps repair duration realistic relative to detection
    #: spread (0 keeps the copy instantaneous).  The wait is sliced so a
    #: returning incumbent still triggers rollback mid-transfer.
    baseline_transfer_ms: float = 0.0


class RepairPlanner(Coordinator):
    """Subscribes to the storage detector and drives Figure 5 repairs.

    Repairs serialize per PG: a second verdict for a PG under repair
    queues behind it, and a stalled or aborted repair of a segment that is
    still a confirmed-dead member is queued again.
    """

    SUMMARY = RepairSummary
    QUEUES = True
    RETRIED = (STALLED, ABORTED)

    def __init__(
        self,
        cluster: "AuroraCluster",
        monitor: "FailureDetector",
        config: RepairConfig | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else RepairConfig()
        #: Highest durable PGCL ever observed per PG (survives writer
        #: crashes, which reset the live trackers).
        self._floor: dict[int, int] = {}
        super().__init__(cluster.loop, monitor)

    def active_repair(self, pg_index: int) -> RepairRecord | None:
        return self._active.get(pg_index)

    def _open(self, segment_id, failed_at, confirmed_at):
        try:
            pg_index = self.cluster.metadata.pg_of(segment_id)
        except ConfigurationError:
            return None  # not a placed segment
        return RepairRecord(
            segment_id, failed_at, confirmed_at, pg_index=pg_index
        )

    def _key(self, record: RepairRecord) -> int:
        return record.pg_index

    def _owed(self, segment_id: str) -> bool:
        """Still a confirmed-dead member: a retry has work to do."""
        return self.monitor.state_of(segment_id) is Health.DEAD and (
            self.cluster.metadata.is_current_member(segment_id)
        )

    def _update_floor(self, pg_index: int) -> int:
        writer = self.cluster.writer
        if writer is not None:
            tracker = writer.driver.pg_trackers.get(pg_index)
            if tracker is not None:
                current = self._floor.get(pg_index, 0)
                self._floor[pg_index] = max(current, tracker.pgcl)
        return self._floor.get(pg_index, 0)

    def _repair(self, record: RepairRecord):
        cluster = self.cluster
        cfg = self.config
        pg_index = record.pg_index
        segment_id = record.subject

        # Preconditions may have vanished between confirmation and start
        # (a queued record's subject can recover, or another flow may
        # already have replaced it).
        if not cluster.metadata.is_current_member(segment_id):
            record.notes.append("no longer a member at start")
            self._finish(record, ABORTED)
            return
        if self.monitor.state_of(segment_id) is not Health.DEAD:
            record.notes.append("recovered before repair began")
            self._finish(record, ABORTED)
            return

        deadline = cluster.loop.now + MAX_REPAIR_MS
        before = cluster.metadata.membership(pg_index)

        # -- Step 1: begin (epoch bump, dual quorum installed) ----------
        slot = before.slot_of(segment_id)
        alternatives = before.slots[slot]
        if len(alternatives) == 2 and alternatives[0] == segment_id:
            # A dual membership for this segment is already installed
            # (a prior attempt stalled, or an operator began the change):
            # adopt the in-flight candidate instead of beginning again.
            candidate_id = alternatives[1]
            record.notes.append(f"resumed in-flight candidate {candidate_id}")
            after = before
        else:
            while True:
                try:
                    candidate_id = cluster.begin_segment_replacement(
                        pg_index, segment_id
                    )
                    break
                except MembershipError as exc:
                    # Another transition (e.g. an operator-driven
                    # migration) holds the slot machinery; back off and
                    # retry.
                    record.notes.append(f"begin deferred: {exc}")
                    if cluster.loop.now >= deadline:
                        self._finish(record, ABORTED)
                        return
                    yield BASELINE_RETRY.cap_ms
            after = cluster.metadata.membership(pg_index)
            self._notify_transition(pg_index, "begin", before, after)
        record.candidate_id = candidate_id
        record.began_at = cluster.loop.now

        # -- Step 2: hydrate (baseline + gossip catch-up) ---------------
        backoff = Backoff(BASELINE_RETRY)
        baseline_done = False
        pending_baseline: BaselineResponse | None = None
        transfer_done_at = 0.0
        while True:
            if segment_id in self._returned:
                self._rollback(record, after)
                return
            if cluster.loop.now >= deadline:
                record.notes.append("budget exhausted mid-hydration")
                self._finish(record, STALLED)
                return
            floor = self._update_floor(pg_index)
            candidate = cluster.nodes[candidate_id]
            if baseline_done and candidate.segment.scl >= floor:
                break
            if pending_baseline is not None:
                # Bulk copy in flight: wait it out in poll slices so the
                # rollback and deadline checks above stay responsive.
                if cluster.loop.now >= transfer_done_at:
                    candidate.apply_baseline(pending_baseline)
                    pending_baseline = None
                    baseline_done = True
                else:
                    yield min(POLL_MS, transfer_done_at - cluster.loop.now)
            elif not baseline_done:
                record.attempts += 1
                reply = yield from self._baseline_rpc(
                    pg_index, candidate_id, record
                )
                if isinstance(reply, BaselineResponse):
                    if cfg.baseline_transfer_ms > 0:
                        pending_baseline = reply
                        transfer_done_at = (
                            cluster.loop.now + cfg.baseline_transfer_ms
                        )
                    else:
                        candidate.apply_baseline(reply)
                        baseline_done = True
                else:
                    yield backoff.next_delay()
            else:
                yield POLL_MS

        # -- Step 3: finalize (epoch bump, suspect dropped) -------------
        if segment_id in self._returned:
            self._rollback(record, after)
            return
        pre_final = cluster.metadata.membership(pg_index)
        cluster.finalize_segment_replacement(pg_index, segment_id)
        final = cluster.metadata.membership(pg_index)
        self._notify_transition(pg_index, "finalize", pre_final, final)
        self._notify_finalize(
            pg_index, candidate_id, cluster.nodes[candidate_id].segment.scl
        )
        self._finish(record, REPLACED)

    _act = _repair

    def _rollback(self, record: RepairRecord, transitional) -> None:
        """The incumbent returned first: reverse the transition."""
        cluster = self.cluster
        pg_index = record.pg_index
        current = cluster.metadata.membership(pg_index)
        cluster.rollback_segment_replacement(pg_index, record.subject)
        restored = cluster.metadata.membership(pg_index)
        self._notify_transition(pg_index, "rollback", current, restored)
        auditor = cluster.auditor
        if auditor is not None and hasattr(auditor, "on_repair_rollback"):
            auditor.on_repair_rollback(pg_index, transitional, restored)
        # Decommission the half-hydrated candidate; its durable state was
        # never the only copy of anything.
        if record.candidate_id is not None:
            cluster.network.fail_node(record.candidate_id)
        record.notes.append("incumbent returned; transition reversed")
        self._finish(record, ROLLED_BACK)

    def _baseline_rpc(self, pg_index: int, candidate_id: str, record):
        """One baseline attempt against the first healthy full source.

        Polls the future in small slices: a lost request or reply must
        not hang the repair (lost-message futures never resolve).
        """
        cluster = self.cluster
        sources = [
            p.segment_id
            for p in cluster.metadata.baseline_sources_of_pg(pg_index)
            if p.segment_id != candidate_id
            and p.segment_id != record.subject
            and cluster.network.is_up(p.segment_id)
        ]
        if not sources:
            record.notes.append("no live baseline source")
            return None
        source = sorted(sources)[0]
        candidate = cluster.nodes[candidate_id]
        future = cluster.network.rpc(
            candidate_id,
            source,
            BaselineRequest(
                from_segment=candidate_id,
                pg_index=pg_index,
                epochs=candidate.epochs.current,
            ),
        )
        waited = 0.0
        while not future.done and waited < BASELINE_TIMEOUT_MS:
            yield POLL_MS
            waited += POLL_MS
        if not future.done:
            record.notes.append(f"baseline from {source} timed out")
            return None
        reply = future.result()
        if isinstance(reply, RequestRejected):
            # The source is ahead of the candidate's epoch view (epoch
            # bumps ride write traffic, and a quiet PG delivers none).
            # The rejection carries the source's current stamp exactly so
            # the requester can refresh; without adopting it the retry
            # loop would re-present the same stale stamp forever.
            candidate.epochs.advance(reply.current_epochs)
            note = f"baseline epochs refreshed from {source}"
            if note not in record.notes:
                record.notes.append(note)
            return None
        return reply

    # ------------------------------------------------------------------
    # Auditor notifications
    # ------------------------------------------------------------------
    def _live_members(self, members) -> frozenset:
        network = self.cluster.network
        return frozenset(m for m in members if network.is_up(m))

    def _notify_transition(self, pg_index, stage, before, after) -> None:
        auditor = self.cluster.auditor
        if auditor is None or not hasattr(auditor, "on_repair_transition"):
            return
        auditor.on_repair_transition(
            pg_index,
            stage,
            before,
            after,
            self._live_members(before.members | after.members),
        )

    def _notify_finalize(self, pg_index, candidate_id, scl) -> None:
        auditor = self.cluster.auditor
        if auditor is None or not hasattr(auditor, "on_repair_finalize"):
            return
        auditor.on_repair_finalize(pg_index, candidate_id, scl)
