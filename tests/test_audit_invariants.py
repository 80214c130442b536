"""Seeded chaos sweeps with the invariant auditor armed.

The flagship property test of the audit subsystem: across many seeded
chaos schedules -- node crashes, AZ outages, degraded nodes, partitions,
writer crash/recovery cycles, a live membership change -- the runtime
auditor must observe ZERO invariant violations.  Any failure message
includes the seed, so a red run is reproducible with::

    PYTHONPATH=src python -m repro audit-run --seed <N> --steps <M>
"""

import pytest

from repro.audit import AuditRunConfig, run_audit
from repro.sim.chaos import MAX_DURATION_MS, MIN_DURATION_MS, ChaosSchedule

#: 50 seeds for the sweep satellite; kept short per-seed so the whole
#: file stays in tier-1 time budget.
SWEEP_SEEDS = list(range(50))

#: A few seeds driven long enough to exercise writer crash/recovery
#: (steps >= 150) and the mid-run membership change (steps >= 300).
DEEP_SEEDS = [7, 11, 23]


def _assert_clean(report):
    assert not report.violations, (
        f"invariant violations under chaos; reproduce with "
        f"`python -m repro audit-run --seed {report.seed} "
        f"--steps {report.steps}`:\n" + report.render()
    )


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_chaos_sweep_no_violations(seed):
    report = run_audit(AuditRunConfig(seed=seed, steps=60, replicas=1))
    _assert_clean(report)
    assert report.protocol_events > 0
    assert report.commit_acks > 0


@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_deep_runs_with_recovery_and_membership_change(seed):
    report = run_audit(AuditRunConfig(seed=seed, steps=320, replicas=1))
    _assert_clean(report)
    assert report.writer_recoveries >= 1
    assert report.chaos_events > 0


def test_report_render_mentions_seed():
    report = run_audit(AuditRunConfig(seed=3, steps=30, replicas=0))
    _assert_clean(report)
    assert "seed=3" in report.render()
    assert report.ok


class TestChaosScheduleDeterminism:
    NODES = [f"pg0-{c}" for c in "abcdef"]
    AZS = {
        "az1": {"pg0-a", "pg0-d"},
        "az2": {"pg0-b", "pg0-e"},
        "az3": {"pg0-c", "pg0-f"},
    }

    def _gen(self, seed):
        return ChaosSchedule.generate(
            seed=seed, nodes=self.NODES, azs=self.AZS, horizon_ms=5000.0
        )

    def test_same_seed_same_schedule(self):
        a, b = self._gen(13), self._gen(13)
        assert a.events == b.events
        assert len(a) > 0

    def test_different_seeds_differ(self):
        assert self._gen(13).events != self._gen(14).events

    def test_no_overlap_on_same_target(self):
        schedule = self._gen(21)
        by_target = {}
        for event in schedule.events:
            by_target.setdefault(event.target, []).append(
                (event.at, event.at + event.duration)
            )
        for intervals in by_target.values():
            intervals.sort()
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2

    def test_at_most_one_az_outage_at_a_time(self):
        schedule = self._gen(34)
        outages = sorted(
            (e.at, e.at + e.duration)
            for e in schedule.events
            if e.kind == "crash_az"
        )
        for (s1, e1), (s2, _e2) in zip(outages, outages[1:]):
            assert e1 <= s2

    def test_bounded_durations_and_horizon(self):
        schedule = self._gen(55)
        for event in schedule.events:
            assert MIN_DURATION_MS <= event.duration <= MAX_DURATION_MS
            assert 0 <= event.at
            assert event.at + event.duration < schedule.horizon_ms

    def test_describe_lists_every_event(self):
        schedule = self._gen(8)
        text = schedule.describe()
        assert f"events={len(schedule)}" in text
        assert text.count("\n") == len(schedule)
