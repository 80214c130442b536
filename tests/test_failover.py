"""Autonomous writer failover: detection, promotion, fencing, continuity.

Covers the database-tier failover plane end to end:

- the database tier's :class:`repro.repair.FailureDetector` inferring
  writer liveness from passive signals (no dedicated heartbeats), riding
  out grey failures;
- :class:`repro.repair.FailoverCoordinator` promoting the most-caught-up
  healthy replica, rolling back on a false positive, and retiring the
  incumbent so nothing can resurrect it;
- the volume-epoch fence: a revived zombie writer's late batches are
  epoch-rejected, its pending commits resolve as *uncertain* (never a
  false acknowledgement), and no acknowledged write is lost (the
  split-brain test the design demands);
- client session continuity: :class:`repro.db.session.ClusterSession`
  retries idempotent operations across a promotion, and typed retryable
  errors surface while the writer endpoint is unresolved;
- the auditor's writer-generation invariants.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import AuroraCluster
from repro.audit import Auditor
from repro.db.instance import InstanceState
from repro.errors import (
    CommitUncertainError,
    ConfigurationError,
    FailoverInProgressError,
    InstanceStateError,
    SimulationError,
)
from repro.repair import PROMOTED, Health
from repro.repair import failover as failover_module
from repro.repair.failover import FAILOVER_WINDOW, FailoverSummary
from repro.repair.metrics import ACTIVE, ROLLED_BACK
from repro.verdict import LatencyStats


# ----------------------------------------------------------------------
# Shared scaffolding
# ----------------------------------------------------------------------
def _build(seed=7, replicas=2, audit=True):
    """A cluster with the failover plane armed and some acked data."""
    cluster = AuroraCluster.build(seed=seed)
    auditor = None
    if audit:
        auditor = Auditor()
        cluster.arm_auditor(auditor)
    for _ in range(replicas):
        cluster.add_replica()
    cluster.arm_failover()
    cluster.run_for(100.0)
    db = cluster.session()
    committed = {}
    for i in range(12):
        key, value = f"k{i:02d}", f"v{i}"
        db.write(key, value)
        committed[key] = value
    cluster.run_for(100.0)
    return cluster, auditor, committed


def _spin_until(cluster, predicate, max_spins=2000, slice_ms=5.0):
    for _ in range(max_spins):
        if predicate():
            return True
        cluster.run_for(slice_ms)
    return predicate()


def _kill_writer(cluster):
    """Hard kill: process gone, host unreachable, no restore scheduled."""
    name = cluster.writer.name
    cluster.writer.crash()
    cluster.network.fail_node(name)
    return name


def _await_promotion(cluster):
    ok = _spin_until(
        cluster,
        lambda: any(r.outcome == PROMOTED for r in cluster.failover.records)
        and cluster.writer is not None
        and cluster.writer.state is InstanceState.OPEN,
    )
    assert ok, "failover never promoted a successor"


# ----------------------------------------------------------------------
# Passive detection
# ----------------------------------------------------------------------
class TestDbHealthDetection:
    def test_live_writer_stays_healthy_from_passive_signals(self):
        cluster, _auditor, _committed = _build()
        monitor = cluster.db_health
        name = cluster.writer.name
        assert name in monitor.tracked()
        before = monitor.last_heard(name)
        cluster.run_for(300.0)
        assert monitor.state_of(name) is Health.HEALTHY
        # The GC-floor tick keeps evidence flowing even with no workload.
        assert monitor.last_heard(name) > before

    def test_replicas_are_tracked_with_continuous_signals(self):
        cluster, _auditor, _committed = _build()
        monitor = cluster.db_health
        cluster.run_for(300.0)
        for name in cluster.replicas:
            assert monitor.state_of(name) is Health.HEALTHY

    def test_grey_writer_is_never_confirmed_dead(self):
        cluster, auditor, _committed = _build()
        name = cluster.writer.name
        cluster.failures.slow_node(name, 8.0)
        db = cluster.session()
        for i in range(10):
            db.write(f"grey{i}", "x")
            cluster.run_for(100.0)
        cluster.failures.unslow_node(name)
        cluster.run_for(300.0)
        # Slow is not dead: delayed signals still arrive, so the monitor
        # may suspect but must never confirm -- and must never fail over.
        assert cluster.db_health.counters["confirmed_dead"] == 0
        assert not cluster.failover.records
        assert cluster.writer.name == name
        assert not auditor.violations

    def test_dead_writer_is_confirmed_and_detection_is_measured(self):
        cluster, _auditor, _committed = _build()
        _kill_writer(cluster)
        _await_promotion(cluster)
        record = cluster.failover.records[0]
        assert record.detection_ms > 0
        assert record.outage_ms is not None
        assert record.outage_ms >= record.detection_ms


# ----------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------
class TestPromotion:
    def test_writer_kill_promotes_and_keeps_every_acked_write(self):
        cluster, auditor, committed = _build()
        old_name = _kill_writer(cluster)
        _await_promotion(cluster)
        assert cluster.writer.name != old_name
        db = cluster.session()
        for key, value in committed.items():
            assert db.get(key) == value
        assert not auditor.violations

    def test_most_caught_up_replica_wins(self):
        cluster, _auditor, _committed = _build()
        laggard = sorted(cluster.replicas)[0]
        # Partition one replica so it stops applying the redo stream.
        cluster.network.fail_node(laggard)
        db = cluster.session()
        for i in range(10):
            db.write(f"fresh{i}", "y")
        cluster.run_for(200.0)
        cluster.network.restore_node(laggard)
        vdls = {n: r.applied_vdl for n, r in cluster.replicas.items()}
        assert vdls[laggard] < max(vdls.values())
        chosen = cluster.failover._select_candidate(cluster.writer.name)
        assert chosen != laggard
        assert vdls[chosen] == max(vdls.values())

    def test_az_diversity_breaks_vdl_ties(self):
        cluster, _auditor, _committed = _build(replicas=3)
        cluster.run_for(500.0)  # let all replicas fully catch up
        writer_az = cluster.network.az_of(cluster.writer.name)
        azs = {cluster.network.az_of(n) for n in cluster.replicas}
        assert writer_az in azs  # replica-3 shares the writer's AZ
        chosen = cluster.failover._select_candidate(cluster.writer.name)
        assert cluster.network.az_of(chosen) != writer_az

    def test_promoted_writer_read_views_never_regress(self):
        cluster, auditor, _committed = _build()
        vdls = {n: r.applied_vdl for n, r in cluster.replicas.items()}
        _kill_writer(cluster)
        _await_promotion(cluster)
        record = cluster.failover.records[0]
        assert cluster.writer.vdl >= vdls[record.candidate_id]
        assert not [
            v
            for v in auditor.violations
            if v.invariant == "failover-read-view-regression"
        ]

    def test_replica_fleet_is_replenished_after_promotion(self):
        cluster, _auditor, _committed = _build()
        before = len(cluster.replicas)
        _kill_writer(cluster)
        _await_promotion(cluster)
        assert len(cluster.replicas) == before
        assert any(
            n.startswith("failover-replica-") for n in cluster.replicas
        )

    def test_rollback_when_incumbent_returns_after_confirmation(
        self, monkeypatch
    ):
        # A wide poll slice gives the returning incumbent's signals time
        # to land between confirmation and the promotion decision.
        monkeypatch.setattr(failover_module, "POLL_MS", 300.0)
        cluster, _auditor, committed = _build()
        name = cluster.writer.name
        cluster.network.fail_node(name)  # partition; the process lives on
        assert _spin_until(cluster, lambda: bool(cluster.failover.records))
        cluster.network.restore_node(name)
        assert _spin_until(
            cluster,
            lambda: cluster.failover.records[0].outcome != ACTIVE,
        )
        record = cluster.failover.records[0]
        assert record.outcome == ROLLED_BACK
        assert cluster.writer.name == name
        assert cluster.writer.state is InstanceState.OPEN
        assert cluster.db_health.counters["false_positives"] >= 1
        db = cluster.session()
        for key, value in committed.items():
            assert db.get(key) == value


# ----------------------------------------------------------------------
# The split-brain drill: zombie incumbent vs fenced successor
# ----------------------------------------------------------------------
class TestSplitBrain:
    def test_zombie_writer_is_fenced_and_no_acked_write_is_lost(self):
        """Revive the old writer mid-promotion aftermath and prove the
        epoch fence holds: its late batches are rejected, its pending
        commit resolves as *uncertain* (never acknowledged), and every
        previously acknowledged write survives on the successor."""
        cluster, auditor, committed = _build()
        old_writer = cluster.writer
        old_name = old_writer.name

        # An in-flight commit at partition time: enqueued, not yet acked.
        txn = old_writer.begin()
        db = cluster.session()
        db.drive(old_writer.put(txn, "inflight", "zombie-v"))
        pending = old_writer.commit(txn)

        # Partition (do NOT crash): the incumbent keeps running as a
        # zombie, believing it is still the writer.
        cluster.network.fail_node(old_name)
        _await_promotion(cluster)
        assert cluster.writer.name != old_name
        assert old_writer.state is InstanceState.OPEN  # still a zombie

        # The partition "heals": raw network restore models it (the
        # injector-level restore is blocked -- see TestRetirement).
        cluster.network.restore_node(old_name)

        # The zombie tries to keep writing.  Its batches carry the old
        # volume epoch, get rejected, and the rejection tells its driver
        # it was fenced: it must close, resolving the in-flight commit as
        # uncertain -- not acknowledged.
        from repro.sim.process import Process

        ztxn = old_writer.begin()

        def zombie_write():
            yield from old_writer.put(ztxn, "usurp", "zombie-w")
            old_writer.commit(ztxn)

        Process(cluster.loop, zombie_write())
        assert _spin_until(
            cluster, lambda: old_writer.state is InstanceState.CLOSED
        ), "the zombie was never fenced"

        assert pending.done
        assert isinstance(pending.exception(), CommitUncertainError)

        # Zero acknowledged-write loss, judged on the successor.
        db = cluster.session()
        for key, value in committed.items():
            assert db.get(key) == value
        # The uncertain in-flight value is allowed either way; what is
        # forbidden is a *new* zombie write becoming visible.
        assert db.get("usurp") is None
        assert not auditor.violations

    def test_foreign_volume_epoch_bump_closes_the_writer(self):
        """Unit view of the fence trigger: any volume-epoch advance the
        driver learns from a rejection means a successor exists."""
        cluster, _auditor, _committed = _build(replicas=0)
        writer = cluster.writer
        driver = writer.driver
        node = cluster.nodes[sorted(cluster.nodes)[0]]
        ahead = node.epochs.current.bump_volume()
        node.epochs.advance(ahead)
        db = cluster.session()
        with pytest.raises((CommitUncertainError, InstanceStateError)):
            db.write("fence-me", "x")
            db.write("fence-me-2", "x")
        assert writer.state is InstanceState.CLOSED
        assert driver.epochs.volume == ahead.volume
        assert not driver._unacked


# ----------------------------------------------------------------------
# Retirement of the superseded writer
# ----------------------------------------------------------------------
class TestRetirement:
    def test_chaos_restore_cannot_resurrect_the_old_writer(self):
        cluster, _auditor, _committed = _build()
        old_name = _kill_writer(cluster)
        _await_promotion(cluster)
        # The injector-level restore (what a chaos schedule would run) is
        # a no-op on a condemned node.
        cluster.failures.restore_node(old_name)
        assert not cluster.network.is_up(old_name)
        # And the monitor no longer tracks the retired identity, so late
        # gossip about it cannot re-enter the tracked set.
        assert old_name not in cluster.db_health.tracked()

    def test_storage_nodes_forget_the_old_writer(self):
        cluster, _auditor, _committed = _build()
        old_name = _kill_writer(cluster)
        _await_promotion(cluster)
        for node in cluster.nodes.values():
            # Gossip-driven re-acks to the dead identity are impossible:
            # no node remembers a read floor for it.
            assert old_name not in node._instance_read_floors


# ----------------------------------------------------------------------
# Client session continuity
# ----------------------------------------------------------------------
class TestSessionContinuity:
    def test_typed_retryable_errors_while_endpoint_unresolved(self):
        cluster, _auditor, _committed = _build()
        cluster.failover_in_progress = True
        try:
            with pytest.raises(FailoverInProgressError):
                cluster.session()
            with pytest.raises(FailoverInProgressError):
                cluster.replica_session("no-such-replica")
        finally:
            cluster.failover_in_progress = False
        with pytest.raises(ConfigurationError):
            cluster.replica_session("no-such-replica")
        # The typed error is retryable by construction.
        assert issubclass(FailoverInProgressError, InstanceStateError)
        from repro.db.session import ClusterSession

        assert FailoverInProgressError in ClusterSession.RETRYABLE

    def test_cluster_session_retries_write_across_failover(self):
        cluster, auditor, committed = _build()
        db = cluster.cluster_session()
        db.write("before", "b1")
        _kill_writer(cluster)
        # The very next call rides through detection + promotion.
        db.write("after", "a1")
        assert cluster.writer.state is InstanceState.OPEN
        assert any(r.outcome == PROMOTED for r in cluster.failover.records)
        assert db.get("before") == "b1"
        assert db.get("after") == "a1"
        for key, value in committed.items():
            assert db.get(key) == value
        assert not auditor.violations

    def test_cluster_session_reads_retry_across_failover(self):
        cluster, _auditor, committed = _build()
        db = cluster.cluster_session()
        _kill_writer(cluster)
        key = sorted(committed)[0]
        assert db.get(key) == committed[key]

    def test_retry_budget_not_overshot_when_failover_stalls_midway(self):
        """Regression: each attempt used to re-arm ``await_writer`` with
        the *full* budget instead of the remaining time to the deadline,
        so a failover that stalled after a first failed attempt blocked
        for nearly 2x the stated bound."""
        cluster, _auditor, _committed = _build(audit=False)
        db = cluster.cluster_session()

        def op():
            # First attempt finds an open writer, fails retryably, and
            # the failover plane stalls forever afterwards.
            cluster.failover_in_progress = True
            raise FailoverInProgressError("stalled mid-retry")

        start = cluster.loop.now
        try:
            with pytest.raises(SimulationError):
                db._retry(op, max_ms=1_000.0)
        finally:
            cluster.failover_in_progress = False
        elapsed = cluster.loop.now - start
        assert elapsed <= 1_500.0, f"budget overshot: {elapsed:.0f}ms"

    def test_txn_bound_reads_are_not_retried_across_failover(self):
        """A transaction handle is bound to one writer generation, so
        reads carrying an explicit ``txn`` must raise the retryable error
        through instead of silently rebinding to the promoted writer."""
        cluster, _auditor, _committed = _build()
        db = cluster.cluster_session()
        txn = db.begin()
        db.put(txn, "txn-key", "txn-val")
        assert db.get("txn-key", txn=txn) == "txn-val"
        cluster.failover_in_progress = True
        start = cluster.loop.now
        try:
            with pytest.raises(FailoverInProgressError):
                db.get("txn-key", txn=txn)
            with pytest.raises(FailoverInProgressError):
                db.scan("a", "z", txn=txn)
        finally:
            cluster.failover_in_progress = False
        # The errors surfaced immediately: no retry loop consumed time.
        assert cluster.loop.now == start
        db.rollback(txn)

    def test_retry_repoll_uses_decorrelated_jittered_backoff(self):
        """The fixed 25ms re-poll synchronized every session that saw the
        same failure into lockstep retries; the re-poll now walks a
        jittered ``repro.core.retry.Backoff`` with a deterministic
        per-session stream."""
        from repro.db.session import ClusterSession

        policy = ClusterSession.RETRY_POLICY
        assert policy.jitter > 0.0
        cluster, _auditor, _committed = _build(audit=False)
        s1, s2 = cluster.cluster_session(), cluster.cluster_session()
        b1, b2 = s1._new_backoff(), s2._new_backoff()
        seq1 = [b1.next_delay() for _ in range(6)]
        seq2 = [b2.next_delay() for _ in range(6)]
        # Two sessions on one cluster draw from distinct jitter streams.
        assert seq1 != seq2
        for attempt, (d1, d2) in enumerate(zip(seq1, seq2)):
            skeleton = policy.delay_for(attempt)
            for delay in (d1, d2):
                assert skeleton * (1 - policy.jitter) <= delay
                assert delay <= skeleton * (1 + policy.jitter)
        # Deterministic: rebuilding the same cluster reproduces the walk.
        cluster2, _a, _c = _build(audit=False)
        rb = cluster2.cluster_session()._new_backoff()
        assert [rb.next_delay() for _ in range(3)] == [
            pytest.approx(d) for d in seq1[:3]
        ]


# ----------------------------------------------------------------------
# Reattach under concurrent storage repairs
# ----------------------------------------------------------------------
class TestReattachUnderRepair:
    def test_reattach_replicas_while_a_segment_repair_is_in_flight(self):
        from repro.repair import REPLACED, RepairConfig

        cluster = AuroraCluster.build(seed=11)
        auditor = Auditor()
        cluster.arm_auditor(auditor)
        cluster.arm_healer(
            repair_config=RepairConfig(baseline_transfer_ms=400.0)
        )
        cluster.add_replica()
        cluster.arm_failover()
        cluster.run_for(100.0)
        db = cluster.session()
        for i in range(8):
            db.write(f"rk{i}", f"rv{i}")
        # Permanently kill a segment; wait for the repair to be mid-fliht.
        victim = sorted(cluster.nodes)[0]
        cluster.failures.condemn_node(victim)
        assert _spin_until(
            cluster,
            lambda: any(
                r.outcome == ACTIVE for r in cluster.healer.records
            ),
        )
        # Writer failover while the storage repair is still running: the
        # successor's recovery and reattach must coexist with the
        # membership transition.
        _kill_writer(cluster)
        _await_promotion(cluster)
        assert _spin_until(
            cluster,
            lambda: cluster.healer.idle
            and any(
                r.outcome == REPLACED for r in cluster.healer.records
            ),
            max_spins=4000,
        )
        db = cluster.session()
        for i in range(8):
            assert db.get(f"rk{i}") == f"rv{i}"
        # The reattached replica converges on the successor's stream.
        name = sorted(cluster.replicas)[0]
        replica = cluster.replicas[name]
        db.write("post-repair", "pr")
        assert _spin_until(
            cluster, lambda: replica.applied_vdl >= cluster.writer.vdl
        )
        assert cluster.replica_session(name).get("post-repair") == "pr"
        assert not auditor.violations


# ----------------------------------------------------------------------
# Auditor writer-generation invariants (unit)
# ----------------------------------------------------------------------
class TestWriterInvariants:
    def test_two_open_writers_at_one_epoch_is_flagged(self):
        auditor = Auditor()
        auditor.on_writer_open("writer-1", 3)
        auditor.on_writer_open("writer-2", 3)
        assert any(
            v.invariant == "writer-single-per-epoch"
            for v in auditor.violations
        )

    def test_epoch_must_strictly_advance_across_generations(self):
        auditor = Auditor()
        auditor.on_writer_open("writer-1", 2)
        auditor.on_writer_close("writer-1")
        auditor.on_writer_open("writer-2", 2)
        assert any(
            v.invariant == "writer-epoch-regressed"
            for v in auditor.violations
        )

    def test_clean_succession_is_silent(self):
        auditor = Auditor()
        auditor.on_writer_open("writer-1", 1)
        auditor.on_writer_close("writer-1")
        auditor.on_writer_open("writer-2", 2)
        assert not auditor.violations


# ----------------------------------------------------------------------
# Telemetry / report plumbing
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_failover_windows_feed_the_availability_report(self):
        cluster, _auditor, _committed = _build()
        _kill_writer(cluster)
        _await_promotion(cluster)
        summary = cluster.failover.summary()
        assert summary.promoted == 1
        assert summary.ok and FAILOVER_WINDOW.holds(summary)
        assert 0 < FAILOVER_WINDOW.worst(summary) / FAILOVER_WINDOW.limit_ms < 1
        assert summary.unavailability.count == 1
        assert any("budget" in line for line in summary.footer_lines(1))

    def test_budget_breach_is_reported(self):
        summary = FailoverSummary(
            unavailability=LatencyStats([2_000.0, 45_000.0])
        )
        # Availability is a tail phenomenon: the worst failover is judged,
        # not the average one.
        assert summary.unavailability.mean < FAILOVER_WINDOW.limit_ms
        assert not FAILOVER_WINDOW.holds(summary) and not summary.ok
        assert FAILOVER_WINDOW.worst(summary) / FAILOVER_WINDOW.limit_ms > 1
        assert "EXCEEDED" in summary.footer_lines(1)[-1]

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(FAILOVER_WINDOW, limit_ms=0)

    def test_a_failover_that_never_resolved_fails_the_section(self):
        for outcome in ("active", "stalled"):
            assert not FailoverSummary(**{outcome: 1}).ok
