"""Seeded chaos sweeps with the invariant auditor armed.

The flagship property test of the audit subsystem: across many seeded
chaos schedules -- node crashes, AZ outages, degraded nodes, partitions,
writer crash/recovery cycles, a live membership change -- the runtime
auditor must observe ZERO invariant violations.  Any failure message
includes the seed, so a red run is reproducible with::

    PYTHONPATH=src python -m repro audit-run --seed <N> --steps <M>
"""

from collections import Counter

import pytest

from repro.sim.chaos import (
    CHAOS,
    FLEET,
    KINDS,
    MAX_DURATION_MS,
    MAX_REGION_PARTITION_MS,
    MIN_DURATION_MS,
    MIXES,
    WRITER_PERIODS,
    ChaosSchedule,
)

from .conftest import audit_report

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
    report = audit_report("chaos", seed=seed, steps=60, replicas=1)
    _assert_clean(report)
    assert report.protocol_events > 0
    assert report.commit_acks > 0


@pytest.mark.parametrize("seed", DEEP_SEEDS)
def test_deep_runs_with_recovery_and_membership_change(seed):
    report = audit_report("chaos", seed=seed, steps=320, replicas=1)
    _assert_clean(report)
    assert report.writer_recoveries >= 1
    assert report.chaos_events > 0


def test_report_render_mentions_seed():
    report = audit_report("chaos", seed=3, steps=30, replicas=0)
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
    #: Every mix, and the two the writer kinds join under ``failover``.
    MIXES = (
        *MIXES,
        CHAOS.joined(WRITER_PERIODS),
        FLEET.joined(WRITER_PERIODS),
    )

    def _gen(self, seed, mix=CHAOS, horizon_ms=5000.0):
        return ChaosSchedule.generate(
            seed=seed, nodes=self.NODES, azs=self.AZS,
            horizon_ms=horizon_ms, mix=mix,
        )

    def test_same_seed_same_schedule(self):
        for mix in self.MIXES:
            a, b = self._gen(13, mix), self._gen(13, mix)
            assert a.events == b.events
            assert len(a) > 0

    def test_different_seeds_differ(self):
        for mix in self.MIXES:
            assert self._gen(13, mix).events != self._gen(14, mix).events

    def test_no_overlap_on_same_target(self):
        for mix in self.MIXES:
            for seed in (21, 22, 23):
                by_target = {}
                for event in self._gen(seed, mix, 20_000.0).events:
                    by_target.setdefault(event.target, []).append(
                        (event.at, event.at + event.duration)
                    )
                for intervals in by_target.values():
                    intervals.sort()
                    for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                        assert e1 <= s2, (mix.name, seed)

    def test_at_most_one_az_outage_at_a_time(self):
        for mix in self.MIXES:
            for seed in (34, 35, 36):
                outages = sorted(
                    (e.at, e.at + e.duration)
                    for e in self._gen(seed, mix, 20_000.0).events
                    if e.kind == "crash_az"
                )
                for (s1, e1), (s2, _e2) in zip(outages, outages[1:]):
                    assert e1 <= s2, (mix.name, seed)

    def test_bounded_durations_and_horizon(self):
        fail_stop = {"crash_node", "crash_az", "slow_node", "partition"}
        for mix in self.MIXES:
            schedule = self._gen(55, mix)
            for event in schedule.events:
                assert 0 <= event.at
                assert 0 <= event.duration <= MAX_REGION_PARTITION_MS
                if event.kind in fail_stop:
                    assert MIN_DURATION_MS <= event.duration <= MAX_DURATION_MS
                if not event.kind.startswith("region_"):
                    # (The region event's aftermath runs past the horizon
                    # on purpose.)
                    end = event.at + event.duration
                    assert end < schedule.horizon_ms

    def test_describe_lists_every_event(self):
        for mix in self.MIXES:
            schedule = self._gen(8, mix)
            text = schedule.describe()
            assert f"events={len(schedule)}" in text
            assert text.count("\n") == len(schedule)

    def test_a_kind_later_in_the_table_leaves_a_mix_unchanged(self):
        """The replay rule (docs/AUDIT.md "Chaos kinds"): a mix that also
        draws a kind from later in the table draws every event it drew
        without it, unchanged, and only adds.  (The general form of
        tests/test_geo.py's and tests/test_integrity.py's pinned cases.)"""
        period_of = {}
        for mix in self.MIXES:
            period_of |= mix.periods
        order = [kind.name for kind in KINDS]
        added = 0
        for mix in self.MIXES:
            last = max(order.index(name) for name in mix.periods)
            for later in order[last + 1:]:
                grown = mix.joined({later: period_of[later]})
                for seed in range(4):
                    before = Counter(self._gen(seed, mix, 20_000.0).events)
                    after = Counter(self._gen(seed, grown, 20_000.0).events)
                    assert not before - after, (mix.name, later, seed)
                    added += after.total() - before.total()
        assert added > 0
