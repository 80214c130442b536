"""Unit tests for the failure injector."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import AuroraCluster
from repro.audit.integrity import IntegrityLog
from repro.db.session import Session
from repro.errors import ConfigurationError
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Actor, Network

SRC = Path(__file__).resolve().parent.parent / "src"


class Dummy(Actor):
    def on_message(self, message):
        pass


@pytest.fixture
def setup():
    loop = EventLoop()
    rng = random.Random(9)
    network = Network(loop, rng)
    injector = FailureInjector(loop, network, rng)
    for i in range(6):
        network.attach(Dummy(f"n{i}"), az=f"az{i % 3 + 1}")
    injector.register_az("az1", {"n0", "n3"})
    injector.register_az("az2", {"n1", "n4"})
    injector.register_az("az3", {"n2", "n5"})
    return loop, network, injector


class TestImmediateOps:
    def test_crash_and_restore_node(self, setup):
        _loop, network, injector = setup
        injector.crash_node("n0")
        assert not network.is_up("n0")
        injector.restore_node("n0")
        assert network.is_up("n0")

    def test_crash_az_takes_both_members_down(self, setup):
        _loop, network, injector = setup
        injector.crash_az("az2")
        assert not network.is_up("n1")
        assert not network.is_up("n4")
        assert network.is_up("n0")
        injector.restore_az("az2")
        assert network.is_up("n1") and network.is_up("n4")

    def test_unknown_az_rejected(self, setup):
        _loop, _network, injector = setup
        with pytest.raises(ConfigurationError):
            injector.crash_az("az9")

    def test_slow_and_unslow(self, setup):
        _loop, network, injector = setup
        injector.slow_node("n2", 5.0)
        assert network._node("n2").latency_scale == 5.0
        injector.unslow_node("n2")
        assert network._node("n2").latency_scale == 1.0

    def test_log_records_events_with_time(self, setup):
        loop, _network, injector = setup
        loop.run(until=3.0)
        injector.crash_node("n0")
        assert injector.log == [(3.0, "crash", "n0")]


class TestScheduledOps:
    def test_crash_at_with_duration(self, setup):
        loop, network, injector = setup
        injector.crash_at(10.0, "n0", duration=5.0)
        loop.run(until=12.0)
        assert not network.is_up("n0")
        loop.run(until=16.0)
        assert network.is_up("n0")

    def test_crash_az_at(self, setup):
        loop, network, injector = setup
        injector.crash_az_at(10.0, "az1", duration=5.0)
        loop.run(until=11.0)
        assert not network.is_up("n0") and not network.is_up("n3")
        loop.run(until=20.0)
        assert network.is_up("n0") and network.is_up("n3")

    def test_slow_at_with_duration(self, setup):
        loop, network, injector = setup
        injector.slow_at(5.0, "n1", factor=4.0, duration=5.0)
        loop.run(until=6.0)
        assert network._node("n1").latency_scale == 4.0
        loop.run(until=11.0)
        assert network._node("n1").latency_scale == 1.0


class TestBackgroundFailures:
    def test_alternates_up_and_down(self, setup):
        loop, network, injector = setup
        injector.enable_background_failures(
            ["n0"], mttf_ms=50.0, mttr_ms=10.0, horizon_ms=10_000.0
        )
        crashes = sum(1 for _t, kind, _n in injector.log if kind == "crash")
        loop.run(until=10_000.0)
        crashes = sum(1 for _t, kind, _n in injector.log if kind == "crash")
        restores = sum(
            1 for _t, kind, _n in injector.log if kind == "restore"
        )
        assert crashes > 10  # roughly 10k/60 cycles
        assert crashes - restores in (0, 1)

    def test_invalid_rates_rejected(self, setup):
        _loop, _network, injector = setup
        with pytest.raises(ConfigurationError):
            injector.enable_background_failures(
                ["n0"], mttf_ms=0, mttr_ms=1, horizon_ms=10
            )

    def test_deterministic_for_seed(self):
        logs = []
        for _ in range(2):
            loop = EventLoop()
            rng = random.Random(33)
            network = Network(loop, rng)
            network.attach(Dummy("n0"))
            injector = FailureInjector(loop, network, rng)
            injector.enable_background_failures(
                ["n0"], mttf_ms=100.0, mttr_ms=20.0, horizon_ms=5_000.0
            )
            loop.run(until=5_000.0)
            logs.append(list(injector.log))
        assert logs[0] == logs[1]


class TestStaleBackgroundEvents:
    """Manual intervention invalidates pre-scheduled background events.

    The historical bug: ``restore_az`` after a staged outage left the
    node at the mercy of stale background crash/restore events scheduled
    before the intervention, which could immediately re-crash it (or
    resurrect a deliberately-downed node).  Failure generations fix it.
    """

    def test_manual_restore_cancels_pending_background_events(self, setup):
        loop, network, injector = setup
        injector.enable_background_failures(
            ["n0"], mttf_ms=30.0, mttr_ms=500.0, horizon_ms=5_000.0
        )
        # Run until a background crash lands.
        for _ in range(5_000):
            if not network.is_up("n0"):
                break
            loop.step()
        assert not network.is_up("n0")
        injector.restore_node("n0")  # operator intervention
        marker = len(injector.log)
        loop.run(until=5_000.0)
        # No stale background crash (nor stale restore) touches n0 again.
        stale = [
            (t, kind)
            for t, kind, name in injector.log[marker:]
            if name == "n0"
        ]
        assert stale == []
        assert network.is_up("n0")

    def test_restore_az_cancels_background_events_for_members(self, setup):
        loop, network, injector = setup
        injector.enable_background_failures(
            ["n0", "n3"], mttf_ms=40.0, mttr_ms=400.0, horizon_ms=4_000.0
        )
        loop.run(until=100.0)
        injector.crash_az("az1")
        assert not network.is_up("n0") and not network.is_up("n3")
        injector.restore_az("az1")
        marker = len(injector.log)
        loop.run(until=4_000.0)
        stale = [
            (t, kind, name)
            for t, kind, name in injector.log[marker:]
            if name in ("n0", "n3")
        ]
        assert stale == []  # every remaining background event was stale
        assert network.is_up("n0") and network.is_up("n3")

    def test_generation_bumps_on_manual_ops_only(self, setup):
        loop, _network, injector = setup
        assert injector.generation_of("n0") == 0
        injector.crash_node("n0")
        injector.restore_node("n0")
        assert injector.generation_of("n0") == 2
        injector.enable_background_failures(
            ["n0"], mttf_ms=20.0, mttr_ms=20.0, horizon_ms=1_000.0
        )
        loop.run(until=1_000.0)
        # Background crash/restore pairs do NOT bump the generation --
        # otherwise each pair would invalidate its own successor.
        assert injector.generation_of("n0") == 2
        crashes = sum(
            1 for _t, kind, name in injector.log
            if name == "n0" and kind == "crash"
        )
        assert crashes > 5  # the schedule kept running to the horizon

    def test_reenable_resumes_background_noise_after_intervention(self, setup):
        loop, network, injector = setup
        injector.enable_background_failures(
            ["n1"], mttf_ms=30.0, mttr_ms=30.0, horizon_ms=2_000.0
        )
        loop.run(until=500.0)
        injector.crash_node("n1")
        injector.restore_node("n1")
        marker = len(injector.log)
        injector.enable_background_failures(
            ["n1"], mttf_ms=30.0, mttr_ms=30.0, horizon_ms=2_000.0
        )
        loop.run(until=2_000.0)
        resumed = [
            kind for _t, kind, name in injector.log[marker:] if name == "n1"
        ]
        assert "crash" in resumed  # fresh schedule is live again


class TestPartitions:
    def test_partition_node_cuts_both_directions(self, setup):
        _loop, network, injector = setup
        injector.partition_node("n0", {"n1", "n2"})
        assert network.is_partitioned("n0", "n1")
        assert network.is_partitioned("n1", "n0")
        assert not network.is_partitioned("n0", "n3")
        injector.heal_node_partition("n0", {"n1", "n2"})
        assert not network.is_partitioned("n0", "n1")

    def test_partition_at_with_duration(self, setup):
        loop, network, injector = setup
        injector.partition_at(50.0, "n0", {"n1"}, duration=100.0)
        loop.run(until=60.0)
        assert network.is_partitioned("n0", "n1")
        loop.run(until=200.0)
        assert not network.is_partitioned("n0", "n1")

    def test_partition_logged(self, setup):
        loop, _network, injector = setup
        injector.partition_node("n5", {"n0"})
        injector.heal_node_partition("n5", {"n0"})
        kinds = [kind for _t, kind, name in injector.log if name == "n5"]
        assert kinds == ["partition", "heal_partition"]


class TestCondemn:
    def test_condemned_node_ignores_every_restore(self, setup):
        _loop, network, injector = setup
        injector.condemn_node("n0")
        assert not network.is_up("n0")
        injector.restore_node("n0")
        assert not network.is_up("n0")
        injector.restore_az("az1")  # n0 lives in az1
        assert not network.is_up("n0")
        # The AZ sweep still restores its non-condemned sibling.
        injector.crash_node("n3")
        injector.restore_az("az1")
        assert network.is_up("n3")

    def test_condemn_survives_scheduled_az_recovery(self, setup):
        loop, network, injector = setup
        injector.crash_az_at(10.0, "az2", duration=20.0)
        loop.run(until=15.0)
        injector.condemn_node("n1")
        loop.run()  # restore_az fires at t=30
        assert network.is_up("n4")
        assert not network.is_up("n1")

    def test_condemn_cancels_background_restore(self, setup):
        loop, _network, injector = setup
        injector.enable_background_failures(
            ["n5"], mttf_ms=5.0, mttr_ms=5.0, horizon_ms=200.0
        )
        injector.condemn_node("n5")
        loop.run()
        assert not injector.network.is_up("n5")


# ----------------------------------------------------------------------
# The simulator holds ground truth; the judge lives in repro.audit
# ----------------------------------------------------------------------
def test_the_simulator_imports_no_judge():
    """``repro.sim`` loads no verdict, audit or analysis module.  The
    package ``__init__`` builds the whole library, so the subprocess
    imports the simulator's modules without it: what is measured is the
    simulator's own import graph."""
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util, sys, types\n"
         "package = types.ModuleType('repro')\n"
         "package.__path__ = list("
         "importlib.util.find_spec('repro').submodule_search_locations)\n"
         "sys.modules['repro'] = package\n"
         "import repro.sim, repro.sim.chaos, repro.sim.failures\n"
         "print(*sorted(sys.modules))"],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout.split()
    assert "repro.sim.failures" in loaded
    judges = ("repro.verdict", "repro.audit", "repro.analysis")
    assert [m for m in loaded if m.startswith(judges)] == []


CORRUPTIONS = ("bit_rot", "torn_write", "lost_write", "misdirected_write")


def victims(primed: bool) -> list:
    """Where a seeded run of every corruption kind lands, twice over,
    against a fresh judge or one that already holds an open record-kind
    corruption for every hot-log record of the fleet."""
    cluster = AuroraCluster.build(seed=5, scrub_interval=400.0)
    judge = IntegrityLog(cluster.loop)
    failures = cluster.failures
    failures.attach_storage(cluster.nodes.values(), judge)
    db = Session(cluster.writer)
    # An open view holds the GC floor below the fresh records, and each
    # key written twice leaves a version mid-chain for lost and
    # misdirected writes to take.
    view = cluster.writer.open_view()
    for i in range(8):
        db.write(f"k{i % 4}", f"v{i}")
    cluster.run_for(30.0)
    if primed:
        for name, node in sorted(cluster.nodes.items()):
            seg = node.segment
            for lsn in seg.hot_log_lsns():
                judge.inject(
                    "bit_rot_record", name, seg.record_at(lsn).block, lsn
                )
    landed = []
    for kind in CORRUPTIONS * 2:
        record = failures.inject_anywhere(getattr(failures, kind))
        landed.append(
            record and (record.kind, record.node, record.block, record.lsn)
        )
    cluster.writer.close_view(view)
    return landed


def test_victims_do_not_depend_on_what_the_judge_recorded():
    fresh = victims(primed=False)
    assert None not in fresh
    assert {kind for kind, *_ in fresh} >= {
        "bit_rot_record", "torn_write", "lost_write", "misdirected_write",
    }
    assert victims(primed=True) == fresh


def test_a_victim_rule_that_reads_the_judge_is_caught(monkeypatch):
    """The rule before the judge left ``repro.sim``: a hot-log record was
    no victim while the judge held it open.  Planted, the victims move
    with the judge's records and the test above fails."""

    def reads_the_judge(self, node):
        seg = node.segment
        open_recs = self.integrity_probe._open_recs
        floor = max(seg.gc_horizon, seg.gc_floor)
        return [
            lsn
            for lsn in seg.hot_log_lsns()
            if lsn > floor
            and lsn not in seg.corrupt_record_lsns
            and not open_recs.get((node.name, lsn))
        ]

    monkeypatch.setattr(
        FailureInjector, "_record_rot_targets", reads_the_judge
    )
    assert victims(primed=True) != victims(primed=False)
