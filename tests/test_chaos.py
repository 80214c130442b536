"""The seeded chaos schedule (``repro.sim.chaos``): the table of kinds,
what a schedule of every row fires, how it is refused, and the pins on
the schedules the gates and the ledger draw."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.sim import chaos
from repro.sim.chaos import (
    CALLBACK,
    KINDS,
    MIXES,
    NODE,
    WRITER_PERIODS,
    ChaosEvent,
    ChaosSchedule,
    Fire,
    Kind,
    Mix,
    kinds_table,
)
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Network

REPO_ROOT = Path(__file__).resolve().parent.parent
NODES = ["n1", "n2", "n3", "n4", "n5", "n6"]
AZS = {"az1": {"n1", "n2"}, "az2": {"n3", "n4"}, "az3": {"n5", "n6"}}


def bare_injector() -> FailureInjector:
    """An injector over the six nodes, with no storage attached."""
    loop = EventLoop()
    injector = FailureInjector(
        loop, Network(loop, random.Random(0)), random.Random(0)
    )
    for az, members in AZS.items():
        injector.register_az(az, members)
    return injector


#: Every kind ``install`` can refuse: the six fired through a callback and
#: the four that need ``attach_storage`` first.
REFUSABLE = (
    "kill_writer", "grey_writer", "region_loss", "region_partition",
    "wan_brownout", "stream_stall",
    "bit_rot", "torn_write", "lost_write", "misdirected_write",
)


@pytest.mark.parametrize("kind", REFUSABLE)
def test_a_refused_schedule_installs_nothing(kind):
    """A refusal used to come at the first event missing its callback,
    after every earlier event was already on the loop."""
    injector = bare_injector()
    schedule = ChaosSchedule(0, 1000.0, [
        ChaosEvent(10.0, 50.0, "crash_node", "n1"),
        ChaosEvent(20.0, 50.0, "slow_node", "n2", factor=4.0),
        ChaosEvent(500.0, 50.0, kind, "__pseudo__"),
    ])
    before = injector.loop.pending
    with pytest.raises(ConfigurationError):
        schedule.install(injector)
    assert injector.loop.pending == before


# ----------------------------------------------------------------------
# Pins: the schedules every gate and the ledger draw, as run_audit builds
# them (recorded before the kinds became rows of one table)
# ----------------------------------------------------------------------
#: (profile, steps): the horizons the gates and the ledger run at -- 4 s
#: (chaos, failover, fleet at 500 steps), 6 s (the ledger's chaos_audit
#: at 1 500 steps; integrity's floor), geo's 24 s floor -- and 30 s each.
PINNED_RUNS = (
    ("chaos", 1000), ("chaos", 1500), ("chaos", 7500),
    ("failover", 1000), ("failover", 7500),
    ("fleet", 1000), ("fleet", 7500),
    ("integrity", 1500), ("integrity", 7500),
    ("geo", 3000), ("geo", 3750),
)

#: sha256 over seeds 0-19 of every event's (at, duration, kind, target,
#: factor, rate), keyed "profile@horizon".
SCHEDULE_DIGESTS = {
    "chaos@4s": "c50ba663610c4b716f2d01fa5c954dfae938ef096924ec84e293f13ed58e66cb",
    "chaos@6s": "ecb0e3a546b78c09386d407081ece9bb0a502e87533e7ca5b5f38e6360bfae4f",
    "chaos@30s": "1ca27fa2b0d213e75d6a7d91906e11f9725c8f3e6d027aa67e4798dea299a270",
    "failover@4s": "f2fea770a3779f3134aca11ce7b883adfb989d89f7eea3acd098d789e70f5642",
    "failover@30s": "f179b07a4394c9603bd35fbf78d4f5a3d77c1d206b8de7e6d805b63532ff4dfc",
    "fleet@4s": "21c51c5b611fe912a8d7f0e3f740e9c33454399c3fe369cd676e0b6cabb4953c",
    "fleet@30s": "cb19c94929c7383b80412ff272a2652046deae75e4291e55f17ffa4a967a10b0",
    "integrity@6s": "7bcd2c9c5f6e53f2f48c6b7237cc215fd6753a34d012841a67cc34c26bbc9d34",
    "integrity@30s": "27ad8de15dbe28760b6f64bbc5ea50ffb5651f70fea6484e3cba571a09804281",
    "geo@24s": "74c257ce814fa218bb646d937e58bfd29c4deda16c6cd0ea9baf5adff10eacba",
    "geo@30s": "2a7cf1202cd5758e6e3385433d7c9a5311f24fe2fbcc478d433e762dfc9ce3ea",
}


class _Built(Exception):
    pass


def generate_arguments(name: str, steps: int) -> dict:
    """The arguments ``run_audit`` hands ``ChaosSchedule.generate`` for
    this profile and step count (the run stops there)."""
    from repro.audit import PROFILES, AuditRunConfig, run_audit

    seen = {}

    def capture(cls, **arguments):
        seen.update(arguments)
        raise _Built

    original = ChaosSchedule.__dict__["generate"]
    ChaosSchedule.generate = classmethod(capture)
    try:
        run_audit(
            PROFILES[name].configure(AuditRunConfig(seed=0, steps=steps))
        )
    except _Built:
        pass
    finally:
        ChaosSchedule.generate = original
    return seen


def schedule_digests() -> dict[str, str]:
    digests = {}
    for name, steps in PINNED_RUNS:
        arguments = generate_arguments(name, steps)
        schedules = [
            ChaosSchedule.generate(**arguments | {"seed": seed})
            for seed in range(20)
        ]
        events = [
            [(e.at, e.duration, e.kind, e.target, e.factor, e.rate)
             for e in schedule.events]
            for schedule in schedules
        ]
        key = f"{name}@{arguments['horizon_ms'] / 1000:g}s"
        digests[key] = hashlib.sha256(repr(events).encode()).hexdigest()
    return digests


def test_every_pinned_schedule_is_drawn_as_recorded():
    assert schedule_digests() == SCHEDULE_DIGESTS


def test_the_schedules_do_not_depend_on_string_hash_order():
    script = (
        "import json; from tests.test_chaos import schedule_digests; "
        "print(json.dumps(schedule_digests()))"
    )
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": os.pathsep.join(
                     (str(REPO_ROOT / "src"), str(REPO_ROOT)))},
        )
        for hash_seed in ("0", "3", "7")
    ]
    for run in runs:
        out, _ = run.communicate()
        assert run.returncode == 0
        assert json.loads(out) == SCHEDULE_DIGESTS


# ----------------------------------------------------------------------
# The table: a mix of every row, fired against recording stand-ins
# ----------------------------------------------------------------------
#: Every row at the period a mix (or ``failover``) gives it.
EVERY_ROW = Mix(
    "every row",
    {name: period for mix in MIXES for name, period in mix.periods.items()}
    | WRITER_PERIODS,
    "",
)

#: What an event of each kind must call when it fires (and, for a second
#: entry, when its duration is over), with which of its fields: written
#: out here, not read from the rows, so a row that fires the wrong thing
#: is caught.  ``others`` is every other node, ``victim`` any storage node.
FIRES_AS = {
    "crash_node": [("crash_node", "target"), ("restore_node", "target")],
    "crash_az": [("crash_az", "target"), ("restore_az", "target")],
    "slow_node": [("slow_node", "target", "factor"),
                  ("unslow_node", "target")],
    "partition": [("partition_node", "target", "others"),
                  ("heal_node_partition", "target", "others")],
    "kill_writer": [("writer_kill",)],
    "grey_writer": [("writer_grey", "factor", "duration")],
    "wan_brownout": [("wan_brownout", "rate", "factor", "duration")],
    "stream_stall": [("stream_stall", "duration")],
    "region_loss": [("region_loss",)],
    "region_partition": [("region_partition", "duration")],
    "bit_rot": [("bit_rot", "victim")],
    "torn_write": [("torn_write", "victim", "duration")],
    "lost_write": [("lost_write", "victim")],
    "misdirected_write": [("misdirected_write", "victim")],
}
CORRUPTIONS = ("bit_rot", "torn_write", "lost_write", "misdirected_write")
CALLBACKS = (
    "writer_kill", "writer_grey", "region_loss", "region_partition",
    "wan_brownout", "stream_stall",
)


class _StorageStub:
    def __init__(self, name: str) -> None:
        self.name = name

    def attach_integrity_probe(self, probe) -> None:
        pass


def _comparable(args: tuple) -> tuple:
    return tuple(tuple(sorted(a)) if isinstance(a, set) else a for a in args)


def misfires(seed: int, horizon_ms: float = 30_000.0) -> list[str]:
    """Install a schedule of every row with every injector operation and
    callback replaced by a recorder, run it out, and list each expected
    call that did not happen as ``FIRES_AS`` says (and each extra one)."""
    injector = bare_injector()
    loop = injector.loop
    injector.attach_storage((_StorageStub(name) for name in NODES), None)
    calls = []

    def recorder(name):
        def record(*args):
            if name in CORRUPTIONS:
                assert args[0] in NODES
                args = ("victim", *args[1:])
            calls.append((loop.now, name, _comparable(args)))
            return "landed"  # a corruption landed on the first victim
        return record

    operations = {
        name for spec in FIRES_AS.values() for name, *_ in spec
    } - set(CALLBACKS)
    for name in operations:
        setattr(injector, name, recorder(name))
    schedule = ChaosSchedule.generate(seed, NODES, AZS, horizon_ms, EVERY_ROW)
    schedule.install(injector, **{name: recorder(name) for name in CALLBACKS})
    loop.run_until_idle()

    expected = []
    for event in schedule.events:
        for when, (name, *fields) in zip(
            (event.at, event.at + event.duration), FIRES_AS[event.kind]
        ):
            args = tuple(
                tuple(sorted(set(NODES) - {event.target}))
                if field == "others"
                else field if field == "victim"
                else getattr(event, field)
                for field in fields
            )
            expected.append((when, name, args))
    missing = [c for c in expected if c not in calls]
    extra = [c for c in calls if c not in expected]
    return [f"missing {c}" for c in missing] + [f"extra {c}" for c in extra]


@pytest.mark.parametrize("seed", range(4))
def test_a_schedule_of_every_row_fires_what_each_row_names(seed):
    schedule = ChaosSchedule.generate(seed, NODES, AZS, 30_000.0, EVERY_ROW)
    # Every kind, but one region event: a loss or a partition.
    unseen = set(FIRES_AS) - {e.kind for e in schedule.events}
    assert unseen in ({"region_loss"}, {"region_partition"})
    by_target = {}
    for event in schedule.events:
        by_target.setdefault(event.target, []).append(
            (event.at, event.at + event.duration)
        )
    for intervals in by_target.values():
        intervals.sort()
        assert all(
            e1 <= s2 for (_, e1), (s2, _) in zip(intervals, intervals[1:])
        )
    assert misfires(seed) == []


@pytest.mark.parametrize("first, second", [
    ("crash_node", "partition"), ("crash_az", "crash_node"),
    ("slow_node", "grey_writer"), ("wan_brownout", "stream_stall"),
    ("lost_write", "misdirected_write"), ("bit_rot", "torn_write"),
])
def test_two_rows_swapping_their_fires_are_caught(monkeypatch, first, second):
    rows = {kind.name: kind for kind in KINDS}
    a, b = rows[first], rows[second]
    swapped = {
        first: dataclasses.replace(a, fire=b.fire),
        second: dataclasses.replace(b, fire=a.fire),
    }
    monkeypatch.setattr(
        chaos, "KINDS", tuple(swapped.get(k.name, k) for k in KINDS)
    )
    assert misfires(0) != []


def test_a_row_appended_to_the_table_fires_with_no_other_edit(monkeypatch):
    def draw(g, kind):
        at = g.start_time(10.0)
        if at < 0:
            return None
        return ChaosEvent(at, 10.0, kind.name, g.target(kind))

    row = Kind(
        "noise", NODE, "10", "", draw, KINDS[0].place,
        Fire(CALLBACK, "noise", ("target", "duration")),
    )
    monkeypatch.setattr(chaos, "KINDS", (*KINDS, row))
    mix = chaos.CHAOS.joined({"noise": 500.0})
    schedule = ChaosSchedule.generate(3, NODES, AZS, 5000.0, mix)
    noise = [e for e in schedule.events if e.kind == "noise"]
    assert len(noise) == 10
    # Drawn last, it moves nothing the mix drew before it.
    before = ChaosSchedule.generate(3, NODES, AZS, 5000.0, chaos.CHAOS)
    assert [e for e in schedule.events if e.kind != "noise"] == before.events
    alone = ChaosSchedule.generate(
        3, NODES, AZS, 5000.0, Mix("noise", {"noise": 500.0}, "")
    )
    heard = []
    injector = bare_injector()
    alone.install(injector, noise=lambda target, d: heard.append((target, d)))
    injector.loop.run_until_idle()
    assert len(heard) == 10
    assert heard == [(e.target, 10.0) for e in alone.events]


def test_a_mix_naming_no_row_is_refused():
    with pytest.raises(ConfigurationError, match="noise"):
        ChaosSchedule.generate(
            0, NODES, AZS, 5000.0, chaos.CHAOS.joined({"noise": 1.0})
        )


def test_the_docs_table_is_the_rendered_one():
    assert kinds_table() in (REPO_ROOT / "docs/AUDIT.md").read_text()
