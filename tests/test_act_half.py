"""The act half: one record and one coordinator lifecycle for every tier.

Segment repair, writer failover and region failover answer a confirmed
death through one :class:`repro.repair.metrics.Coordinator`; what differs
between them is row data.  Two kinds of check hold that down:

- the records three short runs produce (a ``fleet`` audit run with the
  planted rollback and the storm's same-PG double fault, a ``failover``
  audit run, and a region loss under ``sync`` acks) are pinned field for
  field, notes included, to what the three separate coordinators
  recorded before they shared the lifecycle (regenerate only from a
  commit whose gates are byte-identical);
- each lifecycle rule -- queue a busy key, drop a busy promotion, roll
  back a subject heard again, re-queue a still-owed stalled or aborted
  repair -- is driven on a toy tier over the real row data, so removing
  the rule fails its case.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import AuroraCluster
from repro.audit import PROFILES, AuditRunConfig, run_audit
from repro.geo import SYNC, GeoCluster, GeoConfig, GeoFailoverCoordinator
from repro.repair import (
    ABORTED,
    REPLACED,
    ROLLED_BACK,
    STALLED,
    Coordinator,
    FailoverCoordinator,
    FailoverSummary,
    Health,
    RepairPlanner,
    RepairRecord,
    RepairSummary,
)
from repro.sim.events import EventLoop


@pytest.fixture
def coordinators(monkeypatch) -> list:
    """Every coordinator built during the test, in build order."""
    built: list[Coordinator] = []
    init = Coordinator.__init__

    def capturing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Coordinator, "__init__", capturing)
    return built


# ----------------------------------------------------------------------
# The records are what the separate coordinators recorded
# ----------------------------------------------------------------------
def _audit(profile: str, **config):
    def run() -> None:
        report = run_audit(
            PROFILES[profile].configure(AuditRunConfig(**config))
        )
        assert report.ok

    return run


def _region_loss() -> None:
    """Sync-acked writes, the primary region lost, a write through the
    promotion (the geo audit profile's 24 s horizon is too slow here)."""
    geo = GeoCluster.build(GeoConfig(seed=7, ack_mode=SYNC))
    geo.arm_geo_failover()
    db = geo.session()
    for i in range(20):
        db.write(f"k{i}", i)
        geo.run_for(5.0)
    geo.lose_region()
    db.write("after", "loss")
    geo.run_for(500.0)


RUNS = {
    "fleet": _audit("fleet", seed=0, steps=300),
    "failover": _audit("failover", seed=2, steps=100),
    "geo": _region_loss,
}

#: run -> every record it made, in coordinator build order then
#: confirmation order: the coordinator's class, then the record's fields
#: (``dataclasses.astuple``: the shared ones, then the tier's own).
PINS = {
    "fleet": [
        ("RepairPlanner",
         "pg0-e", 282.9365125276463, 877.0, "pg0-e.1", 877.0, None, 957.0,
         "rolled_back", 1,
         [
          "baseline from pg0-a timed out",
          "incumbent returned; transition reversed",
         ],
         0),
        ("RepairPlanner",
         "pg5-f", 708.5103837741774, 877.0, "pg5-f.2", 877.0, None, 902.0,
         "rolled_back", 1,
         ["incumbent returned; transition reversed"],
         5),
        ("RepairPlanner",
         "pg8-b", 2503.223114375483, 2752.0, "pg8-b.3", 2752.0, None, 3532.0,
         "replaced", 2,
         ["baseline epochs refreshed from pg8-a"],
         8),
        ("RepairPlanner",
         "pg0-b", 2413.7634266658797, 3002.0, "pg0-b.4", 3002.0, None,
         4022.0, "replaced", 4,
         [
          "baseline epochs refreshed from pg0-a",
          "baseline from pg0-c timed out", "baseline from pg0-c timed out",
         ],
         0),
        ("RepairPlanner",
         "pg5-b", 2502.836326394825, 3077.0, "pg5-b.5", 3077.0, None, 3857.0,
         "replaced", 2,
         ["baseline epochs refreshed from pg5-a"],
         5),
        ("RepairPlanner",
         "pg6-f", 2492.2643796002626, 3077.0, "pg6-f.6", 3077.0, None,
         3857.0, "replaced", 2,
         ["baseline epochs refreshed from pg6-a"],
         6),
        ("RepairPlanner",
         "pg1-a", 2497.173617041486, 3102.0, "pg1-a.7", 3102.0, None, 3882.0,
         "replaced", 2,
         ["baseline epochs refreshed from pg1-c"],
         1),
        ("RepairPlanner",
         "pg3-e", 2486.6581092205097, 3102.0, "pg3-e.8", 3102.0, None,
         3882.0, "replaced", 2,
         ["baseline epochs refreshed from pg3-a"],
         3),
        ("RepairPlanner",
         "pg4-d", 2498.2888464279445, 3102.0, "pg4-d.9", 3102.0, None,
         3882.0, "replaced", 2,
         ["baseline epochs refreshed from pg4-a"],
         4),
        ("RepairPlanner",
         "pg9-c", 2488.6996951237165, 3102.0, "pg9-c.10", 3102.0, None,
         3882.0, "replaced", 2,
         ["baseline epochs refreshed from pg9-a"],
         9),
        ("RepairPlanner",
         "pg7-f", 2498.1886350164546, 3127.0, "pg7-f.11", 3127.0, None,
         3907.0, "replaced", 2,
         ["baseline epochs refreshed from pg7-a"],
         7),
        ("RepairPlanner",
         "pg1-b", 2549.0996666236683, 3152.0, "pg1-b.13", 3882.0, None,
         4662.0, "replaced", 2,
         [
          "queued behind active repair",
          "baseline epochs refreshed from pg1-a.7",
         ],
         1),
        ("RepairPlanner",
         "pg2-a", 2498.014551126429, 3177.0, "pg2-a.12", 3177.0, None,
         3957.0, "replaced", 2,
         ["baseline epochs refreshed from pg2-c"],
         2),
        ("FailoverCoordinator",
         "writer-1", 1419.8455022774936, 2277.0, "replica-1", 2282.0, 2402.0,
         2402.0, "promoted", 1,
         []),
    ],
    "failover": [
        ("RepairPlanner",
         "pg0-b", 1172.9562428536613, 1353.0, "pg0-b.1", 1353.0, None,
         1383.0, "rolled_back", 2,
         [
          "baseline epochs refreshed from pg0-a",
          "incumbent returned; transition reversed",
         ],
         0),
        ("RepairPlanner",
         "pg0-c", 2745.786764720033, 2928.0, "pg0-c.2", 2928.0, None, 2958.0,
         "replaced", 2,
         ["baseline epochs refreshed from pg0-a"],
         0),
        ("RepairPlanner",
         "pg0-e", 3991.8172911871325, 4153.0, "pg0-e.3", 4153.0, None,
         4183.0, "replaced", 2,
         ["baseline epochs refreshed from pg0-a"],
         0),
        ("FailoverCoordinator",
         "writer-1", 2066.5259254632165, 2928.0, "replica-1", 2933.0, 2958.0,
         2958.0, "promoted", 1,
         []),
    ],
    "geo": [
        ("GeoFailoverCoordinator",
         "writer-1", 1781.4841180012709, 2652.0, None, 5032.0, 5052.0,
         5052.0, "promoted", 1,
         [],
         "sync", 50, 50, 50, 0, 0.0),
    ],
}


@pytest.mark.parametrize("run", RUNS)
def test_records_match_the_pins(run, coordinators):
    RUNS[run]()
    records = [
        (type(coordinator).__name__, *dataclasses.astuple(record))
        for coordinator in coordinators
        for record in coordinator.records
    ]
    assert records == PINS[run]


def test_the_fleet_pin_holds_the_planted_rollback_and_the_double_fault():
    notes = [note for *_f, notes, _pg in PINS["fleet"][:-1] for note in notes]
    assert "incumbent returned; transition reversed" in notes
    assert "queued behind active repair" in notes


# ----------------------------------------------------------------------
# Each lifecycle rule fires
# ----------------------------------------------------------------------
class Monitor:
    """The two callbacks and the one query a coordinator uses."""

    def __init__(self, loop) -> None:
        self.loop = loop
        self.on_confirmed_dead: list = []
        self.on_recovered: list = []
        self.dead: set[str] = set()

    def state_of(self, subject: str) -> Health:
        return Health.DEAD if subject in self.dead else Health.HEALTHY

    def confirm(self, subject: str) -> None:
        self.dead.add(subject)
        for callback in self.on_confirmed_dead:
            callback(subject, self.loop.now - 100.0, self.loop.now)

    def hear(self, subject: str) -> None:
        self.dead.discard(subject)
        for callback in self.on_recovered:
            callback(subject)


class Toy(Coordinator):
    """A tier whose act takes ``ACT_MS``, rolls back a returned subject
    and otherwise ends in the next of ``outcomes``; subjects are
    ``pg<N>-<x>`` and key on N."""

    SUMMARY = RepairSummary
    ACT_MS = 10.0

    def __init__(self, loop, monitor, outcomes=()) -> None:
        self.outcomes = list(outcomes)
        super().__init__(loop, monitor)

    def _open(self, subject, failed_at, confirmed_at):
        pg_index = int(subject[2:subject.index("-")])
        return RepairRecord(
            subject, failed_at, confirmed_at, pg_index=pg_index
        )

    def _key(self, record):
        return record.pg_index

    def _owed(self, subject):
        return self.monitor.state_of(subject) is Health.DEAD

    def _act(self, record):
        record.began_at = self.loop.now
        yield self.ACT_MS
        if record.subject in self._returned:
            self._finish(record, ROLLED_BACK)
        else:
            self._finish(
                record, self.outcomes.pop(0) if self.outcomes else REPLACED
            )


class ToyRepairs(Toy):
    QUEUES = RepairPlanner.QUEUES
    RETRIED = RepairPlanner.RETRIED


class ToyPromotions(Toy):
    QUEUES = FailoverCoordinator.QUEUES
    RETRIED = FailoverCoordinator.RETRIED
    SUMMARY = FailoverSummary


def _tier(kind, *outcomes):
    loop = EventLoop()
    monitor = Monitor(loop)
    return loop, monitor, kind(loop, monitor, outcomes)


def test_the_tiers_rows():
    assert RepairPlanner.QUEUES and RepairPlanner.RETRIED == (STALLED, ABORTED)
    for promotion in (FailoverCoordinator, GeoFailoverCoordinator):
        assert not promotion.QUEUES and promotion.RETRIED == ()


def test_a_second_verdict_for_a_busy_pg_is_queued_and_runs_after():
    loop, monitor, tier = _tier(ToyRepairs)
    monitor.confirm("pg0-a")
    loop.run(until=2.0)
    monitor.confirm("pg0-b")  # same PG: waits
    monitor.confirm("pg1-a")  # another PG: runs alongside
    assert not tier.idle
    loop.run()
    first, second, other = tier.records
    assert second.notes == ["queued behind active repair"]
    assert second.began_at == first.finished_at == 10.0
    assert other.began_at == 2.0 and not other.notes
    assert [r.outcome for r in tier.records] == [REPLACED] * 3
    assert tier.idle and tier.summary().peak_concurrent == 2


def test_a_second_verdict_during_a_promotion_is_dropped():
    loop, monitor, tier = _tier(ToyPromotions)
    monitor.confirm("pg0-w")
    loop.run(until=2.0)
    monitor.confirm("pg0-w")  # busy: dropped, no record
    loop.run()
    assert len(tier.records) == 1 and tier.idle
    monitor.confirm("pg0-w")  # idle again: a new act
    loop.run()
    assert [r.outcome for r in tier.records] == [REPLACED, REPLACED]


def test_a_subject_heard_again_before_the_act_rolls_back():
    loop, monitor, tier = _tier(ToyRepairs)
    monitor.hear("pg0-a")  # an earlier episode's return ...
    monitor.confirm("pg0-a")  # ... does not roll this act back
    loop.run()
    monitor.confirm("pg0-a")
    loop.run(until=loop.now + 5.0)
    monitor.hear("pg0-a")  # mid-act: this one does
    loop.run()
    assert [r.outcome for r in tier.records] == [REPLACED, ROLLED_BACK]
    assert tier.idle


@pytest.mark.parametrize("outcome", [STALLED, ABORTED])
def test_a_stalled_or_aborted_repair_of_a_dead_member_is_requeued(outcome):
    loop, monitor, tier = _tier(ToyRepairs, outcome)
    monitor.confirm("pg0-a")
    loop.run()
    first, retry = tier.records
    assert first.outcome == outcome and retry.outcome == REPLACED
    assert retry.notes == ["retry after stalled attempt"]
    assert (retry.failed_at, retry.confirmed_at) == (
        first.failed_at, first.confirmed_at,
    )
    assert retry.began_at == first.finished_at


def test_a_stalled_repair_of_a_returned_member_is_not_requeued():
    loop, monitor, tier = _tier(ToyRepairs, STALLED)
    monitor.confirm("pg0-a")
    loop.run(until=5.0)
    monitor.dead.discard("pg0-a")  # healthy again, but never "heard"
    loop.run()
    assert [r.outcome for r in tier.records] == [STALLED] and tier.idle


# ----------------------------------------------------------------------
# The repair tier ignores only an unplaced segment
# ----------------------------------------------------------------------
def test_an_unplaced_subject_is_ignored_and_a_bug_propagates(monkeypatch):
    cluster = AuroraCluster.build(seed=3)
    monitor, planner = cluster.arm_healer()
    for callback in monitor.on_confirmed_dead:
        callback("no-such-segment", 0.0, 1.0)
    assert planner.records == [] and planner.idle

    def planted(segment_id):
        raise RuntimeError("planted bug in pg_of")

    monkeypatch.setattr(cluster.metadata, "pg_of", planted)
    with pytest.raises(RuntimeError, match="planted"):
        for callback in monitor.on_confirmed_dead:
            callback("pg0-a", 0.0, 1.0)
    assert planner.records == []
