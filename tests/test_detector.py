"""The one failure detector against the two monitors it replaced.

``repro.repair.FailureDetector`` is the storage tier's ``HealthMonitor`` and
the database tier's ``DbHealthMonitor`` as one class and two rows
(``STORAGE``, ``DB``).  Seeded signal scripts -- dense and sparse traffic, a
silent member, a quiet group, grey bursts, false positives, retirement,
re-registration, a reference frontier that moves or stalls -- were replayed
through both parent monitors, each configured with each row's floors (where
both could run a script they agreed to the event), and what they logged is
pinned below as literals.  The detector must reproduce every pin on every
row however its subjects come to be tracked, and five planted mutants of
its judgement must each break one.
"""

import random

import pytest

from repro.repair import DB, REPLACED, STORAGE, FailureDetector, Health
from repro.repair import detector as detector_module
from repro.sim.events import EventLoop

MEMBERS = [f"pg0-{c}" for c in "abcdef"]
F = "pg0-f"
PEERS = [m for m in MEMBERS if m != F]
TIERS = {"storage": STORAGE, "db": DB}


# ----------------------------------------------------------------------
# The scripts: what a driver hears, when
# ----------------------------------------------------------------------
def _beat(d, rng, until, alive, every=25.0):
    """Until ``until``: one jittered step of about ``every`` ms, then every
    subject in ``alive`` is heard (the reference frontier, when the driver
    has been given one to move, moves with them)."""
    while d.now < until:
        d.run(min(until, d.now + every * rng.uniform(0.8, 1.2)))
        for subject in alive:
            d.heard(subject)


def dense(d, rng):
    _beat(d, rng, 2_000.0, MEMBERS)


def sparse_round_robin(d, rng):
    i = 0
    while d.now < 30_000.0:
        d.run(d.now + 100.0 * rng.uniform(0.8, 1.2))
        d.heard(MEMBERS[i % len(MEMBERS)])
        i += 1


def one_member_silent(d, rng):
    _beat(d, rng, 500.0, MEMBERS)
    _beat(d, rng, 3_000.0, PEERS)


def whole_group_quiet(d, rng):
    _beat(d, rng, 500.0, MEMBERS)
    _beat(d, rng, 800.0, PEERS)  # F suspected while its peers are heard
    d.run(10_800.0)  # then nobody is: workload idle, observer cut off
    _beat(d, rng, 11_000.0, MEMBERS)


def burst_with_acks_flowing(d, rng):
    _beat(d, rng, 200.0, MEMBERS, every=50.0)
    while d.now < 2_000.0:  # hedged away from twice per step: grey
        d.run(d.now + 50.0 * rng.uniform(0.8, 1.2))
        for subject in MEMBERS:
            d.heard(subject)
        d.burst(F, "hedge")
        d.burst(F, "hedge")
    _beat(d, rng, 2_600.0, MEMBERS, every=50.0)  # burst subsides
    while d.now < 3_500.0:  # one unanswered gossip RPC per step
        d.run(d.now + 50.0 * rng.uniform(0.8, 1.2))
        for subject in MEMBERS:
            d.heard(subject)
        d.burst(F, "timeout")
    _beat(d, rng, 4_200.0, MEMBERS, every=50.0)


def false_positive_backoff(d, rng):
    _beat(d, rng, 500.0, MEMBERS)
    for back_at in (2_000.0, 5_000.0, 10_000.0):
        _beat(d, rng, back_at, PEERS)  # silent until confirmed dead ...
        d.heard(F)  # ... then it speaks: false positive
        _beat(d, rng, back_at + 300.0, MEMBERS)


def retire_mid_suspicion(d, rng):
    _beat(d, rng, 500.0, MEMBERS)
    _beat(d, rng, 800.0, PEERS)
    d.retire(F)
    _beat(d, rng, 3_000.0, PEERS)
    d.heard(F)  # late gossip from the dismantled node
    d.burst(F, "timeout")
    _beat(d, rng, 3_200.0, PEERS)


def re_register(d, rng):
    _beat(d, rng, 500.0, MEMBERS)
    _beat(d, rng, 800.0, PEERS)  # suspected ...
    d.untrack(F)  # ... and replaced before confirmation
    _beat(d, rng, 1_500.0, PEERS)
    d.heard(F)  # untracked: not evidence
    d.track(F)  # back, with a fresh state and a fresh grace period
    _beat(d, rng, 1_700.0, MEMBERS)
    _beat(d, rng, 4_000.0, PEERS)


def reference_moving(d, rng):
    d.reference = 0.0
    _beat(d, rng, 500.0, MEMBERS)
    # The whole group falls silent while the tier below keeps talking:
    # the observer is alive, so the silence is the group's.
    _beat(d, rng, 3_000.0, ())
    _beat(d, rng, 3_300.0, MEMBERS)


def reference_stalled(d, rng):
    d.reference = 0.0
    _beat(d, rng, 500.0, MEMBERS)
    d.reference_moves = False  # both tiers quiet together: judge nobody
    _beat(d, rng, 5_000.0, ())
    d.reference_moves = True
    _beat(d, rng, 5_300.0, MEMBERS)


SCRIPTS = {
    script.__name__: script
    for script in (
        dense, sparse_round_robin, one_member_silent, whole_group_quiet,
        burst_with_acks_flowing, false_positive_backoff,
        retire_mid_suspicion, re_register, reference_moving,
        reference_stalled,
    )
}

#: (script, tier) -> what the parent monitors logged: events as ``(time,
#: event, members)`` with one letter per member judged in that sweep,
#: counters as (suspected, confirmed_dead, false_positives,
#: recovered_suspects), and the (suspect threshold, confirmation window)
#: applied to ``pg0-a`` when the script ends.
PINS = {
    ("dense", "storage"): (
        [],
        (0, 0, 0, 0),
        (150.0, 450.0),
    ),
    ("dense", "db"): (
        [],
        (0, 0, 0, 0),
        (250.0, 600.0),
    ),
    ("sparse_round_robin", "storage"): (
        [],
        (0, 0, 0, 0),
        (2000.0, 3607.206),
    ),
    ("sparse_round_robin", "db"): (
        [],
        (0, 0, 0, 0),
        (2000.0, 3607.206),
    ),
    ("one_member_silent", "storage"): (
        [
            (700.0, "suspected", "f"),
            (1150.0, "confirmed-dead", "f"),
        ],
        (1, 1, 0, 0),
        (150.0, 450.0),
    ),
    ("one_member_silent", "db"): (
        [
            (775.0, "suspected", "f"),
            (1375.0, "confirmed-dead", "f"),
        ],
        (1, 1, 0, 0),
        (250.0, 600.0),
    ),
    ("whole_group_quiet", "storage"): (
        [
            (675.0, "suspected", "f"),
            (10820.771, "suspect-recovered", "f"),
        ],
        (1, 0, 0, 1),
        (1429.801, 2144.702),
    ),
    ("whole_group_quiet", "db"): (
        [
            (775.0, "suspected", "f"),
            (10820.771, "suspect-recovered", "f"),
        ],
        (1, 0, 0, 1),
        (1429.801, 2144.702),
    ),
    ("burst_with_acks_flowing", "storage"): (
        [
            (300.0, "suspected", "f"),
            (2209.891, "suspect-recovered", "f"),
            (2775.0, "suspected", "f"),
            (3700.0, "suspect-decayed", "f"),
        ],
        (2, 0, 0, 2),
        (196.928, 450.0),
    ),
    ("burst_with_acks_flowing", "db"): (
        [
            (300.0, "suspected", "f"),
            (2209.891, "suspect-recovered", "f"),
            (2775.0, "suspected", "f"),
            (3700.0, "suspect-decayed", "f"),
        ],
        (2, 0, 0, 2),
        (250.0, 600.0),
    ),
    ("false_positive_backoff", "storage"): (
        [
            (675.0, "suspected", "f"),
            (1125.0, "confirmed-dead", "f"),
            (2000.0, "false-positive-return", "f"),
            (2475.0, "suspected", "f"),
            (3375.0, "confirmed-dead", "f"),
            (5000.0, "false-positive-return", "f"),
            (5475.0, "suspected", "f"),
            (7275.0, "confirmed-dead", "f"),
            (10000.0, "false-positive-return", "f"),
        ],
        (3, 3, 3, 0),
        (150.0, 450.0),
    ),
    ("false_positive_backoff", "db"): (
        [
            (775.0, "suspected", "f"),
            (1375.0, "confirmed-dead", "f"),
            (2000.0, "false-positive-return", "f"),
            (2575.0, "suspected", "f"),
            (3775.0, "confirmed-dead", "f"),
            (5000.0, "false-positive-return", "f"),
            (5575.0, "suspected", "f"),
            (7975.0, "confirmed-dead", "f"),
            (10000.0, "false-positive-return", "f"),
        ],
        (3, 3, 3, 0),
        (250.0, 600.0),
    ),
    ("retire_mid_suspicion", "storage"): (
        [
            (675.0, "suspected", "f"),
        ],
        (1, 0, 0, 0),
        (150.0, 450.0),
    ),
    ("retire_mid_suspicion", "db"): (
        [
            (775.0, "suspected", "f"),
        ],
        (1, 0, 0, 0),
        (250.0, 600.0),
    ),
    ("re_register", "storage"): (
        [
            (675.0, "suspected", "f"),
            (1875.0, "suspected", "f"),
            (2325.0, "confirmed-dead", "f"),
        ],
        (2, 1, 0, 0),
        (150.0, 450.0),
    ),
    ("re_register", "db"): (
        [
            (775.0, "suspected", "f"),
            (1975.0, "suspected", "f"),
            (2575.0, "confirmed-dead", "f"),
        ],
        (2, 1, 0, 0),
        (250.0, 600.0),
    ),
    ("reference_moving", "storage"): (
        [
            (675.0, "suspected", "abcdef"),
            (1125.0, "confirmed-dead", "abcdef"),
            (3026.529, "false-positive-return", "abcdef"),
        ],
        (6, 6, 6, 0),
        (196.823, 900.0),
    ),
    ("reference_moving", "db"): (
        [
            (775.0, "suspected", "abcdef"),
            (1375.0, "confirmed-dead", "abcdef"),
            (3026.529, "false-positive-return", "abcdef"),
        ],
        (6, 6, 6, 0),
        (250.0, 1200.0),
    ),
    ("reference_stalled", "storage"): (
        [],
        (0, 0, 0, 0),
        (293.95, 450.0),
    ),
    ("reference_stalled", "db"): (
        [],
        (0, 0, 0, 0),
        (293.95, 600.0),
    ),
}


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class Drive:
    """A detector behind what the scripts drive.  ``mode`` is how subjects
    come to be tracked: ``membership`` (the sweep follows a provider, as
    the storage tier does) or ``explicit`` (``track`` / ``untrack``, as the
    database tier does); both start judging the six members at t = 25."""

    reference = None
    reference_moves = True

    def __init__(self, tier, mode, factory=FailureDetector):
        self.loop = EventLoop()
        self.members = list(MEMBERS)
        self.explicit = mode == "explicit"
        self.detector = factory(
            self.loop,
            tier,
            membership=None if self.explicit else self._groups,
            reference_frontier=lambda: self.reference,
        )
        self.detector.start()
        self.loop.run(until=25.0)
        if self.explicit:
            for member in MEMBERS:
                self.detector.track(member)
        self.heard = self.detector.heard
        self.burst = self.detector.burst
        self.retire = self.detector.retire

    def _groups(self):
        return [(0, frozenset(self.members))]

    @property
    def now(self):
        return self.loop.now

    def run(self, until):
        self.loop.run(until=until)
        if self.reference is not None and self.reference_moves:
            self.reference = self.loop.now

    def track(self, subject):
        if self.explicit:
            self.detector.track(subject)
        else:
            self.members.append(subject)

    def untrack(self, subject):
        if self.explicit:
            self.detector.untrack(subject)
        else:
            self.members.remove(subject)


def replay(name, tier, mode, factory=FailureDetector):
    """``name`` through a fresh detector, in the shape of a pin."""
    drive = Drive(tier, mode, factory)
    SCRIPTS[name](drive, random.Random(name))
    detector = drive.detector
    return (
        [
            (round(at, 3), event, subject)
            for at, event, subject in detector.events
        ],
        tuple(detector.counters.values()),
        (
            round(detector.suspect_threshold_ms("pg0-a"), 3),
            round(detector.confirm_window_ms("pg0-a"), 3),
        ),
    )


def pinned(name, tier_name):
    events, counters, windows = PINS[name, tier_name]
    return (
        [
            (at, event, f"pg0-{letter}")
            for at, event, letters in events
            for letter in letters
        ],
        counters,
        windows,
    )


@pytest.mark.parametrize("mode", ["membership", "explicit"])
@pytest.mark.parametrize("tier_name", TIERS)
@pytest.mark.parametrize("name", SCRIPTS)
def test_detector_reproduces_the_parent_monitors(name, tier_name, mode):
    assert replay(name, TIERS[tier_name], mode) == pinned(name, tier_name)


def test_the_scripts_exercise_every_transition():
    logged = {
        event for events, _c, _w in PINS.values() for _at, event, _m in events
    }
    assert logged == {
        "suspected", "suspect-recovered", "suspect-decayed",
        "confirmed-dead", "false-positive-return",
    }


# ----------------------------------------------------------------------
# Planted mutants: each must break the pin of the script named for it
# ----------------------------------------------------------------------
class RecoversDuringBurst(FailureDetector):
    """One ack refutes a live hedge/timeout burst: a flap per ack."""

    def heard(self, subject):
        entry = self._states.get(subject)
        if entry is None or entry.state is not Health.SUSPECT:
            return super().heard(subject)
        bursts, entry.bursts = entry.bursts, {}
        super().heard(subject)
        entry.bursts = bursts


class JudgesAgainstWallClock(FailureDetector):
    """Silence is ``now - last heard``: mass silence suspects everyone."""

    def _group_active(self, group, frontier, now):
        return True

    def _judge(self, subject, frontier, now, active):
        super()._judge(subject, now, now, active)


class IgnoresReference(FailureDetector):
    """A group that falls silent as a whole is never judged."""

    def __init__(self, loop, tier, membership=None, reference_frontier=None):
        super().__init__(loop, tier, membership)


class ConfirmsInAQuietGroup(FailureDetector):
    """A suspect is confirmed on a stale frontier: idle kills."""

    def _judge(self, subject, frontier, now, active):
        suspect = self._states[subject].state is Health.SUSPECT
        super()._judge(subject, frontier, now, active or suspect)


def _no_backoff_doubling(monkeypatch):
    monkeypatch.setattr(detector_module, "FALSE_POSITIVE_BACKOFF", 1.0)
    return FailureDetector


MUTANTS = {
    "recovers a suspect while a burst is live": (
        lambda monkeypatch: RecoversDuringBurst, "burst_with_acks_flowing"
    ),
    "judges silence against wall-clock": (
        lambda monkeypatch: JudgesAgainstWallClock, "whole_group_quiet"
    ),
    "ignores the reference frontier": (
        lambda monkeypatch: IgnoresReference, "reference_moving"
    ),
    "no backoff doubling": (_no_backoff_doubling, "false_positive_backoff"),
    "confirms in a quiet group": (
        lambda monkeypatch: ConfirmsInAQuietGroup, "whole_group_quiet"
    ),
}


@pytest.mark.parametrize("tier_name", TIERS)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_planted_mutant_is_caught(mutant, tier_name, monkeypatch):
    plant, name = MUTANTS[mutant]
    factory = plant(monkeypatch)
    for mode in ("membership", "explicit"):
        assert replay(name, TIERS[tier_name], mode, factory) != pinned(
            name, tier_name
        ), f"{mutant}: {name} still matches its pin"


# ----------------------------------------------------------------------
# End-of-run census: only tracked subjects have a last-heard time
# ----------------------------------------------------------------------
def test_last_heard_census_after_an_audit_run(built_clusters):
    """At PR 18 a replaced member's state was dropped but never its
    last-heard entry (75 entries for 60 tracked segments after the fleet
    profile's seed 3 at 1500 steps, one more per repair), and a segment
    nobody tracked could add one by gossiping -- all of it input to
    ``freshest_signal``, the db and geo tiers' proof that the observer is
    alive.  Last-heard now lives in the tracked subject's state, so the
    census is over the public surface: what is tracked is the membership,
    and a replaced member answers ``None``."""
    from repro.audit.runner import AuditRunConfig, run_audit

    report = run_audit(AuditRunConfig(seed=7, steps=300))
    assert report.ok, report.render()
    (cluster,) = built_clusters
    replaced = [
        r.subject for r in cluster.healer.records if r.outcome == REPLACED
    ]
    assert replaced
    cluster.run_for(50.0)  # one more sweep: tracking follows membership
    metadata = cluster.metadata
    members = sorted(
        m
        for pg_index in metadata.pg_indexes()
        for m in metadata.membership(pg_index).members
    )
    assert cluster.health.tracked() == members
    heard = [cluster.health.last_heard(m) for m in members]
    assert None not in heard
    assert cluster.health.freshest_signal() == max(heard)
    for segment_id in replaced:
        assert cluster.health.last_heard(segment_id) is None
