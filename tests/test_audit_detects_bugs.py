"""The auditor must actually catch bugs, not just stay quiet.

Each test plants a deliberate protocol bug -- a tracker subclass that
drops a guard the paper requires, or a direct mutation of protocol
state -- drives it through the REAL hook sites, and asserts the auditor
reports the violation under the correct invariant name.  The invariant
names are the public contract documented in :mod:`repro.audit.auditor`.
"""

import dataclasses

import pytest

from repro import AuroraCluster
from repro.audit import Auditor
from repro.core.commit import CommitQueue
from repro.core.consistency import (
    PGConsistencyTracker,
    SegmentChainTracker,
    VolumeConsistencyTracker,
)
from repro.core.epochs import EpochRegistry, EpochStamp
from repro.core.lsn import NULL_LSN
from repro.core.membership import MembershipState, verify_transition_safety
from repro.core.quorum import QuorumConfig, QuorumLeaf, v6_config
from repro.errors import MembershipError
from repro.storage.volume import VolumeGeometry

MEMBERS = [f"seg-{c}" for c in "abcdef"]


@pytest.fixture
def auditor():
    return Auditor()


def _only_invariants(auditor):
    return [v.invariant for v in auditor.violations]


# ----------------------------------------------------------------------
# SCL
# ----------------------------------------------------------------------
class BuggyRebaseChain(SegmentChainTracker):
    """Bug: rebase drops the only-forward guard (section 3.1)."""

    def rebase(self, baseline):
        old = self._scl
        self._scl = baseline
        if self.audit_probe is not None:
            self.audit_probe.on_scl(self.audit_owner, old, self._scl, "rebase")
        return True


def test_scl_regression_is_flagged(auditor):
    chain = BuggyRebaseChain()
    chain.audit_probe, chain.audit_owner = auditor, "seg-a"
    chain.offer(1, NULL_LSN)
    chain.offer(2, 1)
    chain.offer(3, 2)
    assert chain.scl == 3
    chain.rebase(1)  # the bug fires: SCL moves backwards outside truncation
    assert _only_invariants(auditor) == ["scl-monotonic"]
    assert "seg-a" in auditor.violations[0].subject


def test_truncation_below_durable_point_is_flagged(auditor):
    auditor.register_segment("seg-a", 0)
    pg = PGConsistencyTracker(
        0, v6_config(MEMBERS), audit_probe=auditor, audit_owner="writer"
    )
    for member in MEMBERS[:4]:
        pg.record_ack(member, 4)  # 4/6 durable at LSN 4
    assert pg.pgcl == 4

    chain = SegmentChainTracker()
    chain.audit_probe, chain.audit_owner = auditor, "seg-a"
    chain.offer(1, NULL_LSN)
    # Target 2 with an unbounded window annuls everything above it, and PG
    # 0's proven durable point is 4 -- committed data gone.
    chain.truncate(2)
    assert "scl-truncate-durable" in _only_invariants(auditor)


def test_late_truncation_below_new_generation_durable_is_clean(auditor):
    """A TruncateRequest delivered late annuls only its window.

    The PG's durable point has since advanced into a post-recovery
    generation (above the truncation range); the bounded window does not
    touch it, so no violation.
    """
    auditor.register_segment("seg-a", 0)
    pg = PGConsistencyTracker(
        0, v6_config(MEMBERS), audit_probe=auditor, audit_owner="writer"
    )
    for member in MEMBERS[:4]:
        pg.record_ack(member, 2_000_455)  # new-generation durable point
    chain = SegmentChainTracker()
    chain.audit_probe, chain.audit_owner = auditor, "seg-a"
    chain.offer(1_000_453, NULL_LSN)
    chain.truncate(1_000_453, last=2_000_453)  # window stops below 2_000_455
    assert auditor.ok


def test_truncation_at_durable_point_is_clean(auditor):
    auditor.register_segment("seg-a", 0)
    pg = PGConsistencyTracker(
        0, v6_config(MEMBERS), audit_probe=auditor, audit_owner="writer"
    )
    for member in MEMBERS[:4]:
        pg.record_ack(member, 4)
    chain = SegmentChainTracker()
    chain.audit_probe, chain.audit_owner = auditor, "seg-a"
    chain.truncate(4)
    assert auditor.ok


# ----------------------------------------------------------------------
# PGCL
# ----------------------------------------------------------------------
class BuggyPGTracker(PGConsistencyTracker):
    """Bug: recompute forgets the PGCL floor when the config is swapped."""

    def _advance_pgcl(self, above, upto):
        best = NULL_LSN
        for candidate in set(self._member_scls.values()):
            durable_at = {
                m for m, scl in self._member_scls.items() if scl >= candidate
            }
            if candidate > best and self._config.write_satisfied(durable_at):
                best = candidate
        if best != self._pgcl:
            old = self._pgcl
            self._pgcl = best
            if self.audit_probe is not None:
                self.audit_probe.on_pgcl(
                    self.audit_owner, self.pg_index, old, best
                )
            return True
        return False


def test_pgcl_regression_on_config_swap_is_flagged(auditor):
    tracker = BuggyPGTracker(
        0, v6_config(MEMBERS), audit_probe=auditor, audit_owner="writer"
    )
    for member in MEMBERS[:4]:
        tracker.record_ack(member, 10)
    assert tracker.pgcl == 10
    # Swap to a config over mostly-fresh members (a membership change);
    # the buggy recompute re-derives PGCL from scratch and regresses.
    fresh = MEMBERS[4:] + ["seg-g", "seg-h", "seg-i"]
    tracker.set_config(
        QuorumConfig(
            write_expr=QuorumLeaf.of(fresh, 4),
            read_expr=QuorumLeaf.of(fresh, 2),
        )
    )
    assert "pgcl-monotonic" in _only_invariants(auditor)


# ----------------------------------------------------------------------
# Commit acknowledgement
# ----------------------------------------------------------------------
class BuggyCommitQueue(CommitQueue):
    """Bug: acknowledges immediately, ignoring the VCL gate (section 2.3)."""

    def enqueue(self, scn, ack, now=0.0, tag=None):
        self.stats.acknowledged += 1
        if self.audit_probe is not None:
            self.audit_probe.on_commit_ack(self.audit_owner, scn, self._last_vcl)
        ack()


def test_commit_ack_before_durability_is_flagged(auditor):
    queue = BuggyCommitQueue()
    queue.audit_probe, queue.audit_owner = auditor, "writer"
    queue.on_vcl_advance(5)
    acked = []
    queue.enqueue(10, lambda: acked.append(10))
    assert acked == [10]  # the bug really did release the commit
    assert _only_invariants(auditor) == ["commit-ack-durable"]


def test_commit_ack_above_vdl_is_flagged(auditor):
    # A correct queue releases at SCN <= VCL, but the auditor also holds
    # acks to the tighter paper rule: SCN <= VDL at ack time.
    volume = VolumeConsistencyTracker()
    volume.audit_probe, volume.audit_owner = auditor, "writer"
    volume.register(1, 0, mtr_end=True)
    volume.register(2, 0, mtr_end=False)  # open MTR tail: VDL stays at 1
    volume.on_pgcl(0, 2)
    assert (volume.vcl, volume.vdl) == (2, 1)

    queue = CommitQueue()
    queue.audit_probe, queue.audit_owner = auditor, "writer"
    queue.enqueue(2, lambda: None)
    queue.on_vcl_advance(2)  # SCN 2 <= VCL 2, but above VDL 1
    assert _only_invariants(auditor) == ["commit-ack-durable"]
    assert "VDL" in auditor.violations[0].detail


def test_recovery_below_acked_commit_is_flagged(auditor):
    volume = VolumeConsistencyTracker()
    volume.audit_probe, volume.audit_owner = auditor, "writer"
    volume.register(5, 0, mtr_end=True)
    volume.on_pgcl(0, 5)

    queue = CommitQueue()
    queue.audit_probe, queue.audit_owner = auditor, "writer"
    queue.on_vcl_advance(5)
    queue.enqueue(5, lambda: None)  # acked: SCN 5 is durable
    assert auditor.ok

    auditor.on_instance_crash("writer")
    volume.reset(3)  # bug in the recovery caller: recovered point lost SCN 5
    assert "durable-commit-lost" in _only_invariants(auditor)


class BuggyResetVolume(VolumeConsistencyTracker):
    """Bug: reset skips the VDL <= VCL validation."""

    def reset(self, vcl, vdl=None):
        old_vcl, old_vdl = self._vcl, self._vdl
        self._chain.clear()
        self._pgcls.clear()
        self._vcl = vcl
        self._vdl = vdl if vdl is not None else vcl
        if self.audit_probe is not None:
            self.audit_probe.on_volume_points(
                self.audit_owner, old_vcl, old_vdl, self._vcl, self._vdl,
                "reset",
            )


def test_vdl_above_vcl_is_flagged(auditor):
    volume = BuggyResetVolume()
    volume.audit_probe, volume.audit_owner = auditor, "writer"
    volume.reset(5, 7)
    assert "vdl-le-vcl" in _only_invariants(auditor)


# ----------------------------------------------------------------------
# Epochs
# ----------------------------------------------------------------------
class BuggyEpochRegistry(EpochRegistry):
    """Bug: adopts whatever stamp it is handed, even older ones."""

    def advance(self, target):
        current = self._current
        self._current = target
        if target != current and self.audit_probe is not None:
            self.audit_probe.on_epoch_change(self.audit_owner, current, target)


def test_epoch_regression_is_flagged(auditor):
    registry = BuggyEpochRegistry()
    registry.audit_probe, registry.audit_owner = auditor, "seg-a"
    registry.advance(EpochStamp(volume=2, membership=3, geometry=2))
    assert auditor.ok
    registry.advance(EpochStamp(volume=2, membership=2, geometry=2))
    assert _only_invariants(auditor) == ["epoch-monotonic"]


class LaxEpochRegistry(EpochRegistry):
    """Bug: logs the stale epoch but services the request anyway."""

    def check_and_learn(self, presented):
        current = self._current
        for kind in ("volume", "membership", "geometry"):
            have = getattr(current, kind)
            got = getattr(presented, kind)
            if got < have:
                self.rejections += 1
                if self.audit_probe is not None:
                    self.audit_probe.on_stale_epoch(
                        self.audit_owner, kind, got, have, rejected=False
                    )
                return  # BUG: should raise StaleEpochError here


def test_serviced_stale_epoch_is_flagged(auditor):
    registry = LaxEpochRegistry(EpochStamp(volume=3, membership=3, geometry=3))
    registry.audit_probe, registry.audit_owner = auditor, "seg-a"
    registry.check_and_learn(EpochStamp(volume=2, membership=3, geometry=3))
    assert _only_invariants(auditor) == ["stale-epoch-accepted"]


def test_rejected_stale_epoch_is_clean(auditor):
    registry = EpochRegistry(EpochStamp(volume=3, membership=3, geometry=3))
    registry.audit_probe, registry.audit_owner = auditor, "seg-a"
    with pytest.raises(Exception):
        registry.check_and_learn(EpochStamp(volume=2, membership=3,
                                            geometry=3))
    assert auditor.ok  # a *rejected* stale epoch is correct behaviour


# ----------------------------------------------------------------------
# Membership and geometry
# ----------------------------------------------------------------------
def test_membership_transition_without_epoch_bump_is_flagged(auditor):
    before = MembershipState.initial(MEMBERS)
    after = before.begin_replacement("seg-a", "seg-a.1")
    forged = dataclasses.replace(after, epoch=before.epoch)
    with pytest.raises(MembershipError):
        verify_transition_safety(before, forged, audit_probe=auditor)
    # The auditor flags it independently of (and before) the raise.
    assert "membership-epoch" in _only_invariants(auditor)


def test_unsafe_quorum_config_install_is_flagged(auditor):
    tracker = PGConsistencyTracker(
        0, v6_config(MEMBERS), audit_probe=auditor, audit_owner="writer"
    )
    assert auditor.ok
    # Disjoint read and write sets: reads can miss every write.
    broken = QuorumConfig(
        write_expr=QuorumLeaf.of(["w1", "w2"], 2),
        read_expr=QuorumLeaf.of(["r1", "r2"], 2),
    )
    tracker.set_config(broken)
    assert "quorum-overlap" in _only_invariants(auditor)


def test_geometry_growth_without_epoch_bump_is_flagged(auditor):
    geometry = VolumeGeometry(blocks_per_pg=16, pg_count=1)
    geometry.audit_probe = auditor
    geometry.grow()
    assert auditor.ok
    # Bug: an operator path that grows the volume but resets the epoch.
    geometry.geometry_epoch = 1
    geometry.grow()
    assert "geometry-epoch" in _only_invariants(auditor)


# ----------------------------------------------------------------------
# Replicas (full-cluster: the hook sites are the real instance paths)
# ----------------------------------------------------------------------
@pytest.fixture
def cluster_with_replica():
    cluster = AuroraCluster.build(seed=19)
    auditor = Auditor()
    cluster.arm_auditor(auditor)
    replica = cluster.add_replica("replica-1")
    db = cluster.session()
    for i in range(5):
        db.write(f"k{i}", i)
    cluster.run_for(100)
    assert auditor.ok
    return cluster, auditor, replica


def test_replica_view_above_vdl_is_flagged(cluster_with_replica):
    _cluster, auditor, replica = cluster_with_replica
    # Bug: the applied-VDL tracker runs ahead of the writer's advertised
    # durable point; the next read view exposes non-durable data.
    replica._applied_vdl = replica._writer_vdl_seen + 100
    view = replica.open_view()
    assert view.read_point > replica._writer_vdl_seen
    assert "replica-read-above-vdl" in _only_invariants(auditor)


def test_replica_apply_above_vdl_is_flagged(cluster_with_replica):
    cluster, auditor, replica = cluster_with_replica

    def buggy_drain():
        # Bug: the VDL gate of _drain_chunks is gone -- chunks apply as
        # soon as they arrive, even past the writer's advertised VDL.
        while replica._pending_chunks:
            import heapq

            _first, chunk = heapq.heappop(replica._pending_chunks)
            replica._apply_chunk(chunk)
            replica._next_expected_lsn = chunk.records[-1].lsn + 1

    replica._drain_chunks = buggy_drain
    replica._writer_vdl_seen = 0  # pretend no durability news ever arrived
    db = cluster.session()
    db.write("late", "value")
    cluster.run_for(100)
    assert "replica-apply-above-vdl" in _only_invariants(auditor)


# ----------------------------------------------------------------------
# Reporting machinery
# ----------------------------------------------------------------------
def test_assert_clean_raises_with_named_invariant(auditor):
    auditor.flag("commit-ack-durable", "writer", "synthetic")
    with pytest.raises(AssertionError, match="commit-ack-durable"):
        auditor.assert_clean()
    assert not auditor.ok
    assert auditor.violations[0].tail == ()


def test_violation_carries_event_tail(auditor):
    auditor.on_scl("seg-a", 0, 3, "chain")
    auditor.flag("scl-monotonic", "seg-a", "synthetic")
    assert any("scl seg-a 0->3" in line for line in
               auditor.violations[0].tail)


def test_event_tail_is_stamped_with_the_time_of_the_event():
    """Events are stored as (time, text) and rendered when read; the
    rendering shows when each happened, not when it was read."""
    from repro.sim.events import EventLoop

    loop = EventLoop()
    probe = Auditor(tail_size=2)
    probe.bind_loop(loop)
    for at, new in ((1.5, 1), (2.25, 2), (9.0, 3)):
        loop.schedule_at(at, probe.on_scl, "seg-a", new - 1, new, "chain")
    loop.run()
    loop.run(until=50.0)
    assert probe.event_tail == [
        "[t=2.250] scl seg-a 1->2 (chain)",
        "[t=9.000] scl seg-a 2->3 (chain)",
    ]
    before = tuple(probe.event_tail)
    probe.flag("scl-monotonic", "seg-a", "synthetic")
    assert probe.violations[0].tail == before
    assert probe.event_tail[-1] == (
        "[t=50.000] VIOLATION scl-monotonic seg-a: synthetic"
    )
