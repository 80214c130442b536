"""The one history checker (``repro.history``, DESIGN.md D15).

Every runner-side invariant fires on a planted history, each rule's
exemptions hold, and planted bugs in each client family's world -- the
writer's ``get``, the serving proxy's reads and its balancer, the geo
applier -- reach every row of ``RULES`` through real runs.  Each planted
case fails when its row is removed (``test_a_case_needs_its_row`` checks
that for the planted histories).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from repro import history
from repro.audit import AuditRunConfig, PROFILES, run_audit
from repro.db.cluster import AuroraCluster
from repro.db.instance import WriterInstance
from repro.db.proxy import ConnectionProxy, ProxyConfig, ReplicaLagBalancer
from repro.geo.replicator import GeoApplier
from repro.history import RULES, History, check
from repro.workloads.sessions import SessionScaleConfig, SessionScaleWorkload


class Clock:
    now = 0.0


def _record(*steps) -> History:
    """A history of ``(at, method, args...)`` steps."""
    clock = Clock()
    record = History(clock)
    for at, method, *args in steps:
        clock.now = at
        method(record, *args)
    return record


H = History
#: One planted history per row: (invariant, history, subject, detail).
PLANTED = {
    "never-written writer read": (
        "client-read-consistency",
        _record((0, H.submit, "k1", "v1"), (1, H.read, "k1", "x", "writer")),
        "k1", "writer read returned 'x', which was never written (1 known "
        "candidate values)",
    ),
    "None after the writer's ack": (
        "client-read-consistency",
        _record((0, H.submit, "k1", "v1"), (1, H.ack, "k1", "v1"),
                (2, H.read, "k1", None, "writer")),
        "k1", "writer read returned None but commit of 'v1' was "
        "acknowledged",
    ),
    "never-written region read": (
        "client-read-consistency",
        _record((0, H.submit, "k1", None), (1, H.read, "k1", "x", "region")),
        "k1", "region read returned 'x', which was never written (0 known "
        "candidate values)",
    ),
    "never-submitted shared read": (
        "proxy-read-consistency",
        _record((0, H.submit, "shared:1", 1),
                (1, H.read, "shared:1", 7, "shared")),
        "shared:1", "observed 7, never submitted for this key",
    ),
    "stale read after the session's ack": (
        "proxy-read-your-writes",
        _record((0, H.submit, "s3:p0", 5, 3), (1, H.ack, "s3:p0", 5, 3),
                (2, H.read, "s3:p0", 4, "private", 3, 12)),
        "session-3", "read 's3:p0' -> 4 after ack of 5 (floor scn 12)",
    ),
    "acked private write lost at settle": (
        "proxy-acked-write-loss",
        _record((0, H.submit, "s3:p0", 5, 3), (1, H.ack, "s3:p0", 5, 3),
                (2, H.read, "s3:p0", None, "settle", 3)),
        "session-3", "acked write 's3:p0'=5 reads back None after settle",
    ),
    "sync-acked commit missing after promotion": (
        "geo-sync-commit-loss",
        _record((0, H.submit, "k1", "g1"), (12.5, H.ack, "k1", "g1", None, 40),
                (20, H.read, "k1", None, "promoted-sync", None, 30)),
        "k1", "sync-acked commit scn=40 (acked at 12.5ms) missing after "
        "promotion: expected 'g1', promoted region has None",
    ),
    "async loss inside the applied frontier": (
        "geo-rpo-exceeds-lag",
        _record((0, H.submit, "k1", "g1"), (3, H.ack, "k1", "g1", None, 20),
                (20, H.read, "k1", "g0", "promoted-async", None, 30)),
        "k1", "async loss of scn=20 inside the applied replication frontier "
        "30: expected 'g1', promoted region has 'g0'",
    ),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_each_planted_history_is_flagged(case):
    name, record, subject, detail = PLANTED[case]
    flagged = []
    judged = check(record, lambda *violation: flagged.append(violation))
    assert flagged == [(name, subject, detail)]
    assert [v[:3] for v in judged.violations] == flagged


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_a_case_needs_its_row(case, monkeypatch):
    """Exactly one row flags each planted history; without that row the
    history passes."""
    record = PLANTED[case][1]
    flagging = []
    for row in RULES:
        monkeypatch.setattr(history, "RULES", (row,))
        if check(record).violations:
            flagging.append(row)
    assert len(flagging) == 1
    monkeypatch.setattr(
        history, "RULES", tuple(r for r in RULES if r != flagging[0])
    )
    assert check(record).violations == []


def test_every_runner_side_invariant_is_planted():
    assert {case[0] for case in PLANTED.values()} == {r.name for r in RULES}


# ----------------------------------------------------------------------
# What each rule lets pass
# ----------------------------------------------------------------------
def test_none_passes_submitted_and_a_delete_exempts_the_writer_rows():
    record = _record(
        (0, H.read, "k1", None, "writer"),
        (0, H.read, "k1", None, "region"),
        (0, H.read, "s:1", None, "shared"),
        (1, H.submit, "k2", "v2"), (2, H.ack, "k2", "v2"),
        (3, H.submit, "k2", None),  # a delete: the writer rows skip k2
        (4, H.read, "k2", None, "writer"),
        (4, H.read, "k2", "x", "replica"),
    )
    assert check(record).violations == []


def test_the_writer_read_flags_only_none_after_an_ack():
    """An older value after the ack passes (item 7 leaves it open)."""
    record = _record(
        (0, H.submit, "k1", "v1"), (1, H.ack, "k1", "v1"),
        (2, H.submit, "k1", "v2"), (3, H.ack, "k1", "v2"),
        (4, H.read, "k1", "v1", "writer"),
        (4, H.read, "k1", None, "replica"),
    )
    assert check(record).violations == []


def test_a_session_is_held_to_its_last_ack_only_on_that_key():
    record = _record(
        (0, H.submit, "s1:p0", 1, 1), (1, H.ack, "s1:p0", 1, 1),
        (2, H.submit, "s1:p1", 2, 1), (3, H.ack, "s1:p1", 2, 1),
        (4, H.read, "s1:p0", None, "private", 1, 0),
        (5, H.read, "s1:p1", 2, "private", 1, 0),
    )
    assert check(record).violations == []


def test_an_outcome_never_learned_exempts_that_session_and_key():
    record = _record(
        (0, H.submit, "s1:p0", 1, 1), (1, H.ack, "s1:p0", 1, 1),
        (2, H.submit, "s1:p0", 2, 1), (3, H.fail, "s1:p0", None, 1),
        (4, H.submit, "s1:p0", 3, 1), (5, H.ack, "s1:p0", 3, 1),
        (6, H.read, "s1:p0", 2, "private", 1, 0),
        (7, H.read, "s1:p0", 1, "settle", 1),
        # Another session's doubt is not this one's.
        (8, H.submit, "s2:p0", 4, 2), (9, H.ack, "s2:p0", 4, 2),
        (10, H.read, "s2:p0", None, "private", 2, 0),
    )
    assert [v[1] for v in check(record).violations] == ["session-2"]


def test_a_failed_put_makes_its_value_a_candidate():
    record = _record(
        (0, H.fail, "k1", "v1"), (1, H.read, "k1", "v1", "writer"),
    )
    assert check(record).violations == []


def test_async_losses_past_the_frontier_are_lost_not_flagged():
    record = _record(
        (0, H.submit, "a", "g1"), (1, H.ack, "a", "g1", None, 10),
        (2, H.submit, "b", "g2"), (3, H.ack, "b", "g2", None, 50),
        (4, H.submit, "c", None), (5, H.ack, "c", None, None, 60),
        (9, H.read, "a", "g1", "promoted-async", None, 30),
        (9, H.read, "b", None, "promoted-async", None, 30),
        (9, H.read, "c", None, "promoted-async", None, 30),
    )
    judged = check(record)
    assert judged.violations == []
    assert (judged.reconciled, judged.covered, judged.lost) == (
        [1, 3, 5], [1], [3]
    )


def test_unsettled_reads_back_each_keys_or_sessions_last_ack():
    geo = _record(
        (0, H.submit, "b", "1"), (1, H.ack, "b", "1", None, 5),
        (0, H.submit, "a", "2"), (2, H.ack, "a", "2", None, 6),
        (3, H.fail, "c"), (3, H.submit, "c", "3"), (3, H.ack, "c", "3"),
        (4, H.submit, "d", "4"), (9, H.ack, "d", "4"),  # after promotion
    )
    assert [a.key for a in geo.unsettled("promoted-sync", before=8)] == [
        "a", "b"
    ]
    sessions = _record(
        (0, H.submit, "s2:p0", 1, 2), (1, H.ack, "s2:p0", 1, 2),
        (0, H.submit, "s1:p0", 2, 1), (1, H.ack, "s1:p0", 2, 1),
        (2, H.submit, "s1:p1", 3, 1), (3, H.ack, "s1:p1", 3, 1),
        (4, H.submit, "shared:1", 4), (5, H.ack, "shared:1", 4),
        (6, H.submit, "s3:p0", 5, 3), (7, H.fail, "s3:p0", None, 3),
    )
    assert [(a.who, a.key) for a in sessions.unsettled("settle")] == [
        (1, "s1:p1"), (2, "s2:p0")
    ]


def test_the_history_module_imports_only_the_stdlib():
    tree = ast.parse(Path(history.__file__).read_text())
    imported = {
        (node.module if isinstance(node, ast.ImportFrom) else alias.name)
        .split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}


# ----------------------------------------------------------------------
# End to end: one planted bug per client family
# ----------------------------------------------------------------------
def _plant(monkeypatch, cls, name: str, nth: int, planted) -> None:
    """Replace every ``nth`` answer of the generator method ``cls.name``
    (a read) with ``planted``."""
    calls = [0]
    original = getattr(cls, name)

    def read(self, *args):
        value = yield from original(self, *args)
        calls[0] += 1
        return planted if calls[0] % nth == 0 else value

    monkeypatch.setattr(cls, name, read)


@pytest.mark.parametrize("planted, detail", [
    ("planted", "which was never written"),
    (None, "returned None but commit of"),
])
def test_a_writer_get_bug_fails_the_cluster_gate(planted, detail,
                                                 monkeypatch):
    _plant(monkeypatch, WriterInstance, "get", 5, planted)
    report = run_audit(AuditRunConfig(seed=1, steps=150))
    flagged = [v for v in report.violations if detail in v.detail]
    assert flagged and not report.ok
    assert {v.invariant for v in flagged} == {"client-read-consistency"}


def test_a_writer_get_bug_fails_the_async_geo_gate(monkeypatch):
    """Seed 1 runs async: region reads see the planted value, and
    reconciliation reads of acks inside the applied frontier miss them."""
    _plant(monkeypatch, WriterInstance, "get", 5, "planted")
    report = run_audit(PROFILES["geo"].configure(
        AuditRunConfig(seed=1, steps=150)
    ))
    assert {v.invariant for v in report.violations} == {
        "client-read-consistency", "geo-rpo-exceeds-lag"
    }
    assert any(
        v.detail.startswith("region read returned 'planted'")
        for v in report.violations
    )


def test_a_proxy_read_bug_fails_the_proxy_gate(monkeypatch):
    """Shared-key reads see a value no session submitted, and the
    post-settle re-read misses acknowledged private writes."""
    _plant(monkeypatch, ConnectionProxy, "read", 3, -1)
    report = run_audit(PROFILES["proxy"].configure(
        AuditRunConfig(seed=0, steps=150, proxy_sessions=2000)
    ))
    assert {v.invariant for v in report.violations} == {
        "proxy-acked-write-loss", "proxy-read-consistency"
    }
    assert report.sections["serving"].lost_acked_writes > 0


def _sessions(ignore_floor: bool, monkeypatch):
    if ignore_floor:
        pick = ReplicaLagBalancer.pick
        monkeypatch.setattr(
            ReplicaLagBalancer, "pick",
            lambda self, floor_scn, stats=None: pick(self, 0, stats),
        )
    cluster = AuroraCluster.build(seed=5)
    for i in range(2):
        cluster.add_replica(f"r{i}")
    cluster.run_for(100)
    workload = SessionScaleWorkload(
        ConnectionProxy(cluster, ProxyConfig(pool_size=16)),
        SessionScaleConfig(
            sessions=20, horizon_ms=1000.0, think_ms=10.0, seed=5
        ),
    )
    workload.run()
    return check(workload.history)


def test_a_balancer_that_ignores_the_session_floor_breaks_ryw(monkeypatch):
    """A session's floor keeps its reads off replicas that have not
    applied its last commit; without it a replica serves the older value.
    (The audit profile's think time is six horizons, so almost no session
    reads after its own write there: this plant drives the workload
    directly, with short think times.)"""
    assert _sessions(False, monkeypatch).violations == []
    judged = _sessions(True, monkeypatch)
    assert judged.count("private") > 0
    assert {v[0] for v in judged.violations} == {"proxy-read-your-writes"}


def test_an_applier_that_drops_its_last_frame_loses_sync_commits(
    monkeypatch,
):
    """The planted applier reports the frontier it received, not the one
    it applied, and holds its newest redo chunk back until the next one
    arrives -- so the chunk in hand when the region dies is dropped at
    promotion after its commits were acknowledged."""
    flush, applied = GeoApplier._flush, GeoApplier.applied_vdl.fget

    def hold_back_the_newest(self):
        newest = self._pending.pop() if self._pending else None
        flush(self)
        if newest is not None:
            self._pending.append(newest)

    monkeypatch.setattr(GeoApplier, "_flush", hold_back_the_newest)
    monkeypatch.setattr(GeoApplier, "applied_vdl", property(
        lambda self: applied(self) if self._stopped
        else max(applied(self), self.primary_vdl)
    ))
    report = run_audit(PROFILES["geo"].configure(
        AuditRunConfig(seed=4, steps=150, geo_ack_mode="sync")
    ))
    assert {v.invariant for v in report.violations} == {
        "geo-sync-commit-loss"
    }
    assert report.sections["geo"].sync_lost_commits >= 1
    assert not report.ok
