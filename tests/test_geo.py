"""The geo-replicated Global Database tier, end to end.

Covers the whole disaster story on the simulated WAN: steady-state redo
shipping in both ack modes, region loss with session continuity through
promotion, split-brain fencing (the lease self-fence provably beats the
secondary's promotion), chaos that must NOT promote (stalls, brownouts),
the geo chaos-schedule generator, the RPO/RTO analysis, and the audited
gates of ``audit-run --geo``.
"""

import dataclasses
import random

import pytest

from repro.db.instance import InstanceState
from repro.errors import (
    ConfigurationError,
    RegionUnavailableError,
    ReplicationLagExceededError,
)
from repro.geo import ASYNC, SYNC, GeoCluster, GeoConfig
from repro.geo.failover import (
    PROMOTED,
    REGION_RTO,
    ROLLED_BACK,
    GeoFailoverRecord,
    GeoFailoverSummary,
)
from repro.repair import STORAGE, FailureDetector, pg_groups, summarize
from repro.sim.chaos import CHAOS, GEO, ChaosSchedule
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Network

from .conftest import audit_report

MODES = (ASYNC, SYNC)


def _steady(mode: str, seed: int = 7, writes: int = 30):
    geo = GeoCluster.build(GeoConfig(seed=seed, ack_mode=mode))
    geo.arm_geo_failover()
    db = geo.session()
    committed = {}
    for i in range(writes):
        db.write(f"k{i}", f"v{i}")
        committed[f"k{i}"] = f"v{i}"
        geo.run_for(5.0)
    geo.run_for(500.0)
    return geo, db, committed


# ----------------------------------------------------------------------
# Steady state: the secondary volume tracks the primary's durable VDL
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_steady_replication_converges_to_zero_lag(mode):
    geo, db, _ = _steady(mode)
    assert geo.applier.applied_vdl > 0
    assert geo.applier.lag == 0
    assert geo.applier.chunks_applied > 0
    # The frontier made it back to the primary on WAN acks.
    assert geo.sender.remote_applied_vdl == geo.applier.applied_vdl
    # The audited invariant held structurally throughout.
    assert geo.applier.applied_vdl <= geo.applier.primary_vdl


# ----------------------------------------------------------------------
# Region loss: promotion, session continuity, the sync RPO-zero claim
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_region_loss_promotes_secondary_with_session_continuity(mode):
    geo, db, committed = _steady(mode)
    geo.lose_region()
    # The same client session keeps working: it sees the typed
    # RegionUnavailableError internally and retries through promotion.
    scn = db.write("after", "loss")
    assert geo.promoted
    assert scn > 0
    record = geo.promoted_record
    assert record.outcome == PROMOTED
    assert record.ack_mode == mode
    assert record.attempts >= 1
    assert record.applied_vdl > 0
    assert record.outage_ms is not None and record.outage_ms < 30_000.0
    assert record.detection_ms > 0
    if mode == SYNC:
        # RPO zero: every sync-acked commit survives on the promoted
        # region (that is what the commit gate bought).
        lost = [k for k, v in committed.items() if db.get(k) != v]
        assert not lost
    assert db.get("after") == "loss"
    # Fencing: the deposed primary never acked at/after promotion.
    last_ack = geo.primary.writer.stats.last_commit_ack_at
    assert last_ack is None or last_ack < record.promoted_at
    auditor = _FlagRecorder()
    geo.check_fencing(auditor)
    assert auditor.flags == []


class _FlagRecorder:
    def __init__(self):
        self.flags = []

    def flag(self, kind, target, detail):
        self.flags.append((kind, target, detail))


# ----------------------------------------------------------------------
# Split brain: both regions alive, WAN cut -- exactly one writer survives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_split_brain_lease_fence_beats_promotion(mode):
    geo, db, _ = _steady(mode, seed=11, writes=10)
    geo.partition_regions()
    # Async: the primary keeps acking locally until its lease expires.
    # Sync: gated commits fail retryably, the session waits out the
    # fence and re-applies on the promoted region.
    db.write("split", "brain")
    geo.run_for(8000.0)
    assert geo.promoted
    assert geo.sender.self_fenced_at is not None
    record = geo.promoted_record
    # The fence provably preceded the promotion.
    assert geo.sender.self_fenced_at < record.promoted_at
    last_ack = geo.primary.writer.stats.last_commit_ack_at
    assert last_ack is not None and last_ack < record.promoted_at
    if mode == SYNC:
        assert geo.sender.commits_lag_failed >= 1
    # Idempotent re-apply lands on the promoted region.
    db.write("split", "brain")
    assert db.get("split") == "brain"
    # Healing the WAN must not resurrect the stale primary: it stays
    # closed and its last commit ack stays frozen pre-promotion.
    geo.heal_regions()
    geo.run_for(2000.0)
    assert geo.primary.writer.state is InstanceState.CLOSED
    assert geo.primary.writer.stats.last_commit_ack_at == last_ack
    auditor = _FlagRecorder()
    geo.check_fencing(auditor)
    assert auditor.flags == []


# ----------------------------------------------------------------------
# Degraded-but-alive chaos must not trigger disaster recovery
# ----------------------------------------------------------------------
def test_stream_stall_and_brownout_do_not_promote():
    geo = GeoCluster.build(GeoConfig(seed=13))
    geo.arm_geo_failover()
    db = geo.session()
    for i in range(5):
        db.write(f"k{i}", f"v{i}")
    geo.stall_stream(800.0)
    geo.run_for(2000.0)
    assert not geo.promoted and geo.geo_failover.idle
    geo.wan_brownout(0.5, 3.0, duration_ms=1200.0)
    geo.run_for(4000.0)
    assert not geo.promoted
    # The tier is still fully live afterwards: writes replicate and the
    # lag frontier drains back to zero.
    db.write("still", "here")
    geo.run_for(1000.0)
    assert geo.applier.lag == 0
    # Any failover the monitor did start must have stood down.
    assert all(
        r.outcome in GeoFailoverSummary.OUTCOMES
        for r in geo.geo_failover.records
    )
    assert not any(r.outcome == PROMOTED for r in geo.geo_failover.records)


# ----------------------------------------------------------------------
# The typed error surface sessions retry on
# ----------------------------------------------------------------------
def test_session_surfaces_typed_region_unavailable():
    geo = GeoCluster.build(GeoConfig(seed=3))
    session = geo.session()
    geo.region_unavailable = True
    with pytest.raises(RegionUnavailableError):
        session.instance
    geo.region_unavailable = False
    assert session.instance is geo.primary.writer


def test_replication_lag_error_is_session_retryable():
    from repro.db.session import ClusterSession

    assert ReplicationLagExceededError in ClusterSession.RETRYABLE
    assert RegionUnavailableError in ClusterSession.RETRYABLE


# ----------------------------------------------------------------------
# FailureDetector.retire: teardown is permanent, not a death judgment
# ----------------------------------------------------------------------
def test_retired_segment_never_resurrected_or_judged():
    geo = GeoCluster.build(GeoConfig(seed=5))
    monitor = FailureDetector(
        geo.loop, STORAGE, membership=pg_groups(geo.primary.metadata)
    )
    for node in geo.primary.nodes.values():
        node.health_probe = monitor
    monitor.start()
    db = geo.session()
    for i in range(5):
        db.write(f"k{i}", f"v{i}")
    geo.run_for(2000.0)
    victim = sorted(geo.primary.nodes)[0]
    assert monitor.last_heard(victim) is not None
    monitor.retire(victim)
    assert monitor.last_heard(victim) is None
    # The node keeps gossiping (teardown, not death) -- late signals
    # must be ignored, and metadata still listing it must not re-track
    # it on the sweep's membership re-scan.
    for i in range(5):
        db.write(f"r{i}", f"v{i}")
        geo.run_for(1000.0)
    assert monitor.last_heard(victim) is None
    assert victim not in monitor.tracked()
    # And silence from it is never judged: no ghost confirmations.
    assert not any(victim == target for _, _, target in monitor.events)
    assert monitor.counters["confirmed_dead"] == 0


# ----------------------------------------------------------------------
# The geo chaos profile
# ----------------------------------------------------------------------
NODES = ["n1", "n2", "n3", "n4", "n5", "n6"]
AZS = {
    "az1": {"n1", "n2"},
    "az2": {"n3", "n4"},
    "az3": {"n5", "n6"},
}


@pytest.mark.parametrize("seed", range(8))
def test_geo_schedule_has_exactly_one_terminal_region_event(seed):
    horizon = 30_000.0
    schedule = ChaosSchedule.generate(seed, NODES, AZS, horizon, GEO)
    terminal = [
        e for e in schedule.events
        if e.kind in ("region_loss", "region_partition")
    ]
    assert len(terminal) == 1
    # Placed mid-run: late enough for steady state, early enough that
    # promotion and reconciliation finish inside the horizon.
    assert 0.45 * horizon <= terminal[0].at <= 0.7 * horizon
    # WAN degradation (non-terminal) rides along.
    assert any(e.kind == "wan_brownout" for e in schedule.events)
    assert any(e.kind == "stream_stall" for e in schedule.events)


def test_geo_schedule_is_deterministic_per_seed():
    a = ChaosSchedule.generate(9, NODES, AZS, 30_000.0, GEO)
    b = ChaosSchedule.generate(9, NODES, AZS, 30_000.0, GEO)
    assert [str(e) for e in a.events] == [str(e) for e in b.events]


def test_default_chaos_profile_stays_geo_free():
    # Pre-geo schedules must replay unchanged: the default mix never
    # emits region or WAN events (the geo kinds come after its kinds in
    # the table's draw order, and draw only in a mix that names them).
    geo_kinds = {
        "region_loss", "region_partition", "wan_brownout", "stream_stall",
    }
    for seed in range(6):
        schedule = ChaosSchedule.generate(seed, NODES, AZS, 30_000.0, CHAOS)
        assert not any(e.kind in geo_kinds for e in schedule.events)


def test_install_requires_geo_callbacks():
    loop = EventLoop()
    injector = FailureInjector(loop, Network(loop, random.Random(0)),
                               random.Random(0))
    for az, members in AZS.items():
        injector.register_az(az, members)
    schedule = ChaosSchedule.generate(0, NODES, AZS, 30_000.0, GEO)
    with pytest.raises(ConfigurationError):
        schedule.install(injector)
    # Refused whole: six fail-stop events used to stay on the loop.
    assert loop.pending == 0


# ----------------------------------------------------------------------
# RPO/RTO analysis
# ----------------------------------------------------------------------
def _record(mode, failed_at, promoted_at, lost=0, rpo=0.0):
    return GeoFailoverRecord(
        "writer-0",
        ack_mode=mode,
        failed_at=failed_at,
        confirmed_at=failed_at + 900.0,
        began_at=failed_at + 2800.0,
        promoted_at=promoted_at,
        finished_at=promoted_at,
        outcome=PROMOTED,
        attempts=1,
        applied_vdl=200,
        primary_vdl_seen=220,
        recovered_vdl=1_000_200,
        lost_commits=lost,
        rpo_ms=rpo,
    )


def test_rpo_rto_report_requires_rto_samples():
    """Without a promoted recovery there is nothing to judge: no RTO
    verdict is printed, and the footer says so."""
    stood_down = GeoFailoverRecord(
        "writer-0", ack_mode=SYNC, failed_at=1.0, confirmed_at=2.0,
        outcome=ROLLED_BACK,
    )
    for records in ([], [stood_down]):
        summary = summarize(records, GeoFailoverSummary)
        assert REGION_RTO.lines(summary) == [] and summary.ok
    assert summary.footer_lines(1)[-1] == (
        "  (no promoted recovery to report RPO/RTO on)"
    )
    with pytest.raises(ConfigurationError):
        dataclasses.replace(REGION_RTO, limit_ms=0.0)


def test_rpo_rto_report_gates_on_worst_case():
    summary = summarize(
        [_record(SYNC, 10_000.0, 13_000.0), _record(SYNC, 20_000.0, 26_000.0)],
        GeoFailoverSummary,
    )
    assert summary.sync_runs == 2 and summary.ok
    assert REGION_RTO.worst(summary) / REGION_RTO.limit_ms == pytest.approx(0.2)
    # One sample over budget flips the gate: tails, not averages.
    worse = summarize(
        [_record(SYNC, 10_000.0, 13_000.0), _record(SYNC, 20_000.0, 51_000.0)],
        GeoFailoverSummary,
    )
    assert worse.rto.mean < REGION_RTO.limit_ms
    assert not REGION_RTO.holds(worse) and not worse.ok
    assert any("EXCEEDED" in line for line in worse.render_lines())
    # Any sync-acked loss is a violation regardless of timing.
    lossy = summarize(
        [_record(SYNC, 10_000.0, 13_000.0, lost=1)], GeoFailoverSummary
    )
    assert REGION_RTO.holds(lossy) and not lossy.ok
    assert any("VIOLATED" in line for line in lossy.render_lines())


def test_rpo_rto_from_records_splits_modes():
    records = [
        _record(SYNC, 10_000.0, 14_000.0),
        _record(ASYNC, 20_000.0, 25_000.0, lost=3, rpo=800.0),
        # Unpromoted (rolled back) records are excluded.
        GeoFailoverRecord(
            "writer-0", ack_mode=SYNC, failed_at=1.0, confirmed_at=2.0,
        ),
    ]
    summary = summarize(records, GeoFailoverSummary)
    assert summary.sync_runs == 1 and summary.async_runs == 1
    assert summary.sync_lost_commits == 0
    assert summary.async_lost_commits == 3
    assert summary.rto.max == pytest.approx(5000.0)
    assert summary.async_rpo.samples == [800.0]
    assert summary.recovered_detection.count == 2
    assert summary.detection.count == summary.confirmed == 3
    # An async-acked loss is a statistic, not a violation; the record
    # still in flight is what fails this summary.
    assert summary.active == 1 and not summary.ok
    summary.active = 0
    assert summary.ok


# ----------------------------------------------------------------------
# The audited gate end to end (one seed per ack-mode parity: the worlds
# of the geo row's pinned sweep footer)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 4])  # even = sync, odd = async
def test_geo_audit_run_passes_dr_gates(seed):
    report = audit_report("geo", seed=seed, steps=150, proxy_sessions=2000)
    assert report.violations == []
    assert report.gates == {"geo": True}
    assert report.ok
    section = report.sections["geo"]
    assert section.promoted == 1
    assert section.ack_mode == (SYNC if seed % 2 == 0 else ASYNC)
    assert section.rto.count == 1 and section.ok
    # The human-readable report renders the geo section.
    assert any("geo DR gate" in line for line in report.render().splitlines())
