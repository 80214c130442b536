"""The self-healing control plane: health monitor + repair planner.

Covers the three layers separately and end to end:

- :class:`repro.repair.FailureDetector` unit behaviour on both tier rows
  (relative silence, grey failures, false-positive backoff);
- :class:`repro.repair.RepairPlanner` driving Figure 5 on a live cluster
  (replacement of a genuinely dead segment, rollback when the incumbent
  returns, per-PG serialization under a double fault);
- the auditor's repair invariants (epoch advance, available quorum,
  exact rollback, hydration watermark);
- the satellite paths: driver resubmission after an epoch rejection, and
  scrub repair travelling over the simulated network.
"""

from __future__ import annotations

import pytest

from repro import AuroraCluster
from repro.audit import Auditor
from repro.audit.auditor import AuditError
from repro.repair import (
    DB,
    REPLACED,
    ROLLED_BACK,
    STORAGE,
    FailureDetector,
    Health,
    RepairSummary,
    summarize,
)
from repro.repair import detector as detector_module
from repro.repair.metrics import ACTIVE, RepairRecord
from repro.sim.events import EventLoop

from .conftest import pump_until

MEMBERS = [f"pg0-{c}" for c in "abcdef"]
#: The verdict machine is one class; every behaviour below holds on each
#: tier row (tests/test_detector.py pins the exact transitions per row).
TIERS = (STORAGE, DB)


# ----------------------------------------------------------------------
# Failure detector (unit, one group of six behind a fixed membership)
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def _monitor(self, tier):
        loop = EventLoop()
        monitor = FailureDetector(
            loop, tier, membership=lambda: [(0, frozenset(MEMBERS))]
        )
        monitor.start()
        return loop, monitor

    def _pump(self, loop, monitor, until, alive=(), every=50.0):
        """Advance the loop, feeding periodic acks for ``alive``."""
        t = loop.now
        while t < until:
            t = min(t + every, until)
            loop.run(until=t)
            for segment in alive:
                monitor.heard(segment)

    def test_mass_silence_suspects_nobody(self):
        # Writer crash / total partition: every segment goes quiet at
        # once.  Relative silence never accrues, so no churn.
        for tier in TIERS:
            loop, monitor = self._monitor(tier)
            self._pump(loop, monitor, until=100.0, alive=MEMBERS)
            self._pump(loop, monitor, until=5_000.0, alive=())
            assert all(
                monitor.state_of(m) is Health.HEALTHY for m in MEMBERS
            )
            assert monitor.counters["suspected"] == 0

    def test_silent_segment_confirmed_dead(self):
        for tier in TIERS:
            loop, monitor = self._monitor(tier)
            deaths = []
            monitor.on_confirmed_dead.append(
                lambda seg, failed_at, now: deaths.append(
                    (seg, failed_at, now)
                )
            )
            peers = [m for m in MEMBERS if m != "pg0-f"]
            self._pump(loop, monitor, until=100.0, alive=MEMBERS)
            self._pump(loop, monitor, until=2_000.0, alive=peers)
            assert monitor.state_of("pg0-f") is Health.DEAD
            assert [d[0] for d in deaths] == ["pg0-f"]
            seg, failed_at, confirmed_at = deaths[0]
            assert failed_at <= 100.0 < confirmed_at
            # Everyone else stayed healthy throughout.
            assert all(
                monitor.state_of(m) is Health.HEALTHY for m in peers
            )

    def test_signal_revives_suspect(self):
        for tier in TIERS:
            loop, monitor = self._monitor(tier)
            peers = [m for m in MEMBERS if m != "pg0-f"]
            self._pump(loop, monitor, until=100.0, alive=MEMBERS)
            # Long enough to suspect, short enough not to confirm.
            self._pump(
                loop, monitor, until=250.0 + tier.suspect_floor_ms,
                alive=peers,
            )
            assert monitor.state_of("pg0-f") is Health.SUSPECT
            monitor.heard("pg0-f")
            assert monitor.state_of("pg0-f") is Health.HEALTHY
            assert monitor.counters["recovered_suspects"] >= 1
            assert monitor.counters["confirmed_dead"] == 0

    def test_grey_segment_never_graduates_past_suspect(self):
        # Hedge bursts make a segment SUSPECT, but confirmation demands
        # *ack* silence: a slow-but-acknowledging segment is never DEAD.
        for tier in TIERS:
            loop, monitor = self._monitor(tier)
            self._pump(loop, monitor, until=100.0, alive=MEMBERS)
            t = loop.now
            while t < 4_000.0:
                t += 50.0
                loop.run(until=t)
                for segment in MEMBERS:
                    monitor.heard(segment)
                for _ in range(2):
                    monitor.burst("pg0-f", "hedge")
            assert monitor.counters["suspected"] >= 1
            assert monitor.state_of("pg0-f") is not Health.DEAD
            assert monitor.counters["confirmed_dead"] == 0

    def test_false_positive_backs_off_confirmation(self):
        for tier in TIERS:
            loop, monitor = self._monitor(tier)
            peers = [m for m in MEMBERS if m != "pg0-f"]
            self._pump(loop, monitor, until=100.0, alive=MEMBERS)
            self._pump(loop, monitor, until=2_000.0, alive=peers)
            assert monitor.state_of("pg0-f") is Health.DEAD
            monitor.heard("pg0-f")  # the "dead" segment speaks
            assert monitor.state_of("pg0-f") is Health.HEALTHY
            assert monitor.counters["false_positives"] == 1
            entry = monitor._states["pg0-f"]
            assert entry.confirm_ms == pytest.approx(
                tier.confirm_floor_ms
                * detector_module.FALSE_POSITIVE_BACKOFF
            )
            # And the backoff is capped.
            for _ in range(20):
                entry.state = Health.DEAD
                monitor.heard("pg0-f")
            assert entry.confirm_ms <= detector_module.MAX_CONFIRM_MS


# ----------------------------------------------------------------------
# End-to-end repairs on a live cluster
# ----------------------------------------------------------------------
def _armed_cluster(seed=99):
    cluster = AuroraCluster.build(seed=seed)
    auditor = Auditor()
    cluster.arm_auditor(auditor)
    monitor, planner = cluster.arm_healer()
    return cluster, auditor, monitor, planner


def _pump(cluster, session, steps, step_ms=10.0, prefix="pump"):
    """Keep traffic (and therefore liveness signals) flowing."""
    for step in range(steps):
        if step % 5 == 0:
            session.write(f"{prefix}{step:04d}", step)
        cluster.run_for(step_ms)


class TestSelfHealing:
    def test_crashed_segment_is_replaced(self):
        cluster, auditor, monitor, planner = _armed_cluster()
        session = cluster.session()
        for i in range(10):
            session.write(f"row{i:02d}", i)

        cluster.failures.crash_node("pg0-f")
        assert pump_until(
            cluster,
            session,
            lambda: any(r.outcome == REPLACED for r in planner.records),
        ), f"no replacement finished; records={planner.records}"

        record = next(r for r in planner.records if r.outcome == REPLACED)
        assert record.subject == "pg0-f"
        assert record.candidate_id is not None
        state = cluster.metadata.membership(0)
        assert state.is_stable
        assert "pg0-f" not in state.members
        assert record.candidate_id in state.members
        # MTTR accounting: failure -> finalize, positive and ordered.
        assert record.mttr_ms is not None and record.mttr_ms > 0
        assert record.detection_ms is not None and record.detection_ms > 0
        assert monitor.counters["confirmed_dead"] >= 1
        # The data survived and the protocol stayed clean.
        assert all(session.get(f"row{i:02d}") == i for i in range(10))
        auditor.assert_clean()

    def test_false_positive_rolls_back_without_loss(self):
        cluster, auditor, monitor, planner = _armed_cluster()
        session = cluster.session()
        for i in range(10):
            session.write(f"row{i:02d}", i)

        target = "pg0-f"
        original_members = cluster.metadata.membership(0).members
        everyone = set(cluster.nodes) | {cluster.writer.name}
        others = everyone - {target}
        # The candidate's name is deterministic; partitioning it *before*
        # it exists pins hydration, so the only exit is the rollback path.
        predicted = cluster.segment_name(
            0,
            cluster.metadata.membership(0).slot_of(target),
            generation=cluster._candidate_counter + 1,
        )
        cluster.failures.partition_node(predicted, others)
        cluster.failures.partition_node(target, others - {predicted})

        assert pump_until(
            cluster,
            session,
            lambda: planner.active_repair(0) is not None
            and planner.active_repair(0).candidate_id is not None,
        ), "repair never began against the partitioned segment"
        record = planner.active_repair(0)
        assert record.subject == target
        assert record.candidate_id == predicted

        # The incumbent returns: heal its partition; gossip and write
        # traffic revive it in the monitor, which must trigger rollback.
        cluster.failures.heal_node_partition(target, others - {predicted})
        assert pump_until(
            cluster, session, lambda: record.outcome != ACTIVE
        ), "repair never resolved after the incumbent returned"

        assert record.outcome == ROLLED_BACK
        state = cluster.metadata.membership(0)
        assert state.is_stable
        assert target in state.members
        assert predicted not in state.members
        assert state.members == original_members
        assert monitor.counters["false_positives"] >= 1
        # No acked write was lost to the aborted transition.
        cluster.failures.heal_node_partition(predicted, others)
        assert all(session.get(f"row{i:02d}") == i for i in range(10))
        auditor.assert_clean()

    def test_double_fault_serializes_per_pg(self):
        cluster, auditor, monitor, planner = _armed_cluster()
        session = cluster.session()
        for i in range(6):
            session.write(f"row{i:02d}", i)

        cluster.failures.crash_node("pg0-e")
        cluster.failures.crash_node("pg0-f")

        assert pump_until(
            cluster,
            session,
            lambda: sum(
                1 for r in planner.records if r.outcome == REPLACED
            ) >= 2,
            max_steps=1500,
        ), f"double fault not fully repaired; records={planner.records}"

        # The second confirmation queued behind the first repair, and the
        # transitions never overlapped: strict per-PG serialization.
        first, second = (
            r for r in planner.records if r.outcome == REPLACED
        )
        assert any("queued" in note for note in second.notes)
        assert second.began_at >= first.finished_at
        state = cluster.metadata.membership(0)
        assert state.is_stable
        assert "pg0-e" not in state.members
        assert "pg0-f" not in state.members
        assert all(session.get(f"row{i:02d}") == i for i in range(6))
        auditor.assert_clean()


# ----------------------------------------------------------------------
# Repair metrics
# ----------------------------------------------------------------------
class TestRepairMetrics:
    def test_mttr_only_for_replacements(self):
        replaced = RepairRecord(
            "pg0-f", failed_at=100.0, confirmed_at=700.0, pg_index=0
        )
        replaced.began_at = 710.0
        replaced.finished_at = 900.0
        replaced.outcome = REPLACED
        rolled = RepairRecord(
            "pg0-e", failed_at=100.0, confirmed_at=700.0, pg_index=0
        )
        rolled.finished_at = 800.0
        rolled.outcome = ROLLED_BACK
        assert replaced.mttr_ms == pytest.approx(800.0)
        assert replaced.detection_ms == pytest.approx(600.0)
        assert rolled.mttr_ms is None

        summary = summarize([replaced, rolled], RepairSummary)
        assert summary.confirmed == 2
        assert summary.replaced == 1
        assert summary.rolled_back == 1
        assert summary.mttr.mean == pytest.approx(800.0)
        assert any("MTTR" in line for line in summary.render_lines())


# ----------------------------------------------------------------------
# Auditor repair invariants (hook-level)
# ----------------------------------------------------------------------
class TestRepairInvariants:
    def _states(self):
        from repro.core.membership import MembershipState

        base = MembershipState.initial(MEMBERS)
        trans = base.begin_replacement("pg0-f", "pg0-f.1")
        return base, trans

    def _flagged(self, auditor):
        return [v.invariant for v in auditor.violations]

    def test_transition_must_advance_epoch(self):
        auditor = Auditor()
        base, trans = self._states()
        auditor.on_repair_transition(
            0, "begin", base, base, frozenset(MEMBERS)
        )
        assert "repair-epoch" in self._flagged(auditor)

    def test_transition_must_preserve_available_quorum(self):
        auditor = Auditor()
        base, trans = self._states()
        # Up: 4 old members including the suspect -> the old set can
        # write (4/6) but the dual set cannot (only 3 of its 6 are up).
        up = frozenset({"pg0-a", "pg0-b", "pg0-c", "pg0-f"})
        assert base.quorum_config().write_satisfied(up & base.members)
        auditor.on_repair_transition(0, "begin", base, trans, up)
        assert "repair-available-quorum" in self._flagged(auditor)

    def test_healthy_transition_passes(self):
        auditor = Auditor()
        base, trans = self._states()
        up = frozenset(MEMBERS) | {"pg0-f.1"}
        auditor.on_repair_transition(0, "begin", base, trans, up)
        auditor.on_repair_rollback(
            0, trans, trans.rollback_replacement(trans.slot_of("pg0-f"))
        )
        auditor.assert_clean()

    def test_rollback_must_restore_exact_membership(self):
        auditor = Auditor()
        base, trans = self._states()
        # "Rolling back" to a state where a *different* slot changed is
        # not a rollback of this transition.
        bogus = base.begin_replacement("pg0-a", "pg0-a.9")
        auditor.on_repair_rollback(0, trans, bogus)
        assert "repair-rollback-membership" in self._flagged(auditor)

    def test_finalize_below_watermark_is_flagged(self):
        auditor = Auditor()
        auditor._pg_durable[0] = 100
        auditor.on_repair_finalize(0, "pg0-f.1", 40)
        assert "repair-hydration-watermark" in self._flagged(auditor)
        with pytest.raises(AuditError):
            auditor.assert_clean()

    def test_finalize_at_watermark_passes(self):
        auditor = Auditor()
        auditor._pg_durable[0] = 100
        auditor.on_repair_finalize(0, "pg0-f.1", 100)
        auditor.assert_clean()


# ----------------------------------------------------------------------
# Satellites: rejection resubmission + scrub over the network
# ----------------------------------------------------------------------
class TestRejectionResubmit:
    def test_driver_resubmits_under_adopted_epoch(self, cluster):
        session = cluster.session()
        session.write("seed", 0)
        node = cluster.nodes["pg0-a"]
        # Someone else moved the membership epoch forward (e.g. a repair
        # this writer has not heard about): the node now rejects the
        # writer's stamp.  (A foreign *volume* bump would instead mean a
        # successor writer fenced us -- see test_failover.py.)
        ahead = node.epochs.current.bump_membership()
        node.epochs.advance(ahead)

        before = cluster.writer.driver.stats.batches_resubmitted
        for i in range(5):
            session.write(f"after{i}", i)
        cluster.run_for(200.0)

        driver = cluster.writer.driver
        assert driver.stats.rejections_seen >= 1
        assert driver.stats.batches_resubmitted > before
        # The driver adopted the newer epoch and the fleet converged on it.
        assert driver.epochs.membership == ahead.membership
        assert all(session.get(f"after{i}") == i for i in range(5))

    def test_rejection_counts_as_liveness(self):
        cluster, auditor, monitor, planner = _armed_cluster()
        session = cluster.session()
        session.write("seed", 0)
        node = cluster.nodes["pg0-a"]
        node.epochs.advance(node.epochs.current.bump_membership())
        _pump(cluster, session, steps=40)
        # The rejecting segment was never suspected dead, and no repair
        # was started against it.
        assert monitor.state_of("pg0-a") is not Health.DEAD
        assert not any(r.subject == "pg0-a" for r in planner.records)


class TestScrubOverNetwork:
    def test_scrub_repair_uses_messages(self, cluster):
        session = cluster.session()
        for i in range(8):
            session.write(f"row{i:02d}", i)
        cluster.run_for(100.0)
        node = cluster.nodes["pg0-a"]
        block_id, chain = next(
            (b, c)
            for b, c in sorted(node.segment.blocks.items())
            if len(c) > 0
        )
        chain.corrupt_version()
        # Let at least two scrub intervals elapse: detect + repair.
        cluster.run_for(2 * node.config.scrub_interval + 500.0)
        by_type = cluster.network.stats.by_type
        # Repair is message-borne: the quorum content vote (DESIGN.md
        # section 12), the only repair there is.
        assert by_type.get("IntegrityVoteRequest", 0) >= 1
        assert by_type.get("IntegrityVoteResponse", 0) >= 1
        assert node.counters["vote_repairs"] >= 1
        # The corrupted block reads clean again.
        assert all(session.get(f"row{i:02d}") == i for i in range(8))
