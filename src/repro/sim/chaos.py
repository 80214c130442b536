"""Seeded chaos schedules: reproducible randomized failure scenarios.

A :class:`ChaosSchedule` is a deterministic list of fault events drawn
from a seed over a fleet of nodes grouped into AZs.  The same seed over
the same fleet and mix always yields the same schedule, so any invariant
violation the :class:`repro.audit.Auditor` reports is reproducible from
its seed alone (``python -m repro audit-run --seed N``).

Each fault kind is a row of :data:`KINDS`: how its events are drawn, how
they are placed, and how they fire -- an operation of the
:class:`~repro.sim.failures.FailureInjector` and its heal, a callback
``install`` is given, or a silent corruption on a storage node picked at
fire time.  A :class:`Mix` says which kinds a schedule draws and how
often.  docs/AUDIT.md "Chaos kinds" is :func:`kinds_table`, and states
the replay rule the table's order carries.

Generation is shaped to keep the scenario *survivable* rather than fair:

- every event has a bounded duration, so quorum always eventually returns;
- at most one AZ outage is in flight at a time (the paper's fault model:
  "AZ+1" is the design point, not "AZ+AZ");
- events never overlap on the same target, keeping crash/restore pairs
  well-nested and the injector log easy to read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.sim.failures import FailureInjector


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: ``kind`` applied to ``target`` at ``at`` for
    ``duration`` milliseconds; ``factor`` is a slowdown or latency
    multiplier and ``rate`` a loss rate, for the kinds that draw them."""

    at: float
    duration: float
    kind: str
    target: str
    factor: float = 1.0
    rate: float = 0.0

    def __str__(self) -> str:
        loss = f" loss={self.rate:g}" if self.rate else ""
        factor = f" x{self.factor:g}" if self.factor != 1.0 else ""
        return (
            f"t={self.at:8.1f}ms {self.kind:<10} {self.target}"
            f" for {self.duration:.0f}ms{loss}{factor}"
        )


#: Every fault heals after a duration drawn from these bounds (ms).  The
#: storage detector's floors are tuned against the upper one: transient
#: faults mostly come back inside suspect + confirm, so only extended
#: outages graduate to DEAD (repair/detector.py ``Tier``).
MIN_DURATION_MS = 40.0
MAX_DURATION_MS = 350.0
#: Slowdown bounds for ``slow_node`` / ``grey_writer``.
MIN_SLOW_FACTOR = 3.0
MAX_SLOW_FACTOR = 12.0
#: Duration bounds for ``region_partition`` (must comfortably exceed the
#: geo lease so the stale primary provably self-fences mid-partition).
MIN_REGION_PARTITION_MS = 5000.0
MAX_REGION_PARTITION_MS = 9000.0
#: Nodes outside the failed AZ crashed alongside each ``az_burst``.
BURST_FANOUT = 3

#: Targets drawn from the fleet.
NODE = "node"
AZ = "AZ"
#: Pseudo-targets: the schedule does not know writer, region or storage
#: node names (the writer's changes across failovers), so these stand for
#: "whatever it is when the event fires".
WRITER_TARGET = "__writer__"
WAN_TARGET = "__wan__"
REGION_TARGET = "__region__"
STORAGE_TARGET = "__storage__"
#: Reserved by every AZ outage, so that at most one is in flight.
_ANY_AZ = "__az__"


class _Draws:
    """One schedule's generation state: the RNG, the fleet, the events so
    far and each target's busy intervals."""

    def __init__(self, seed, nodes, azs, horizon_ms) -> None:
        self.rng = random.Random(seed)
        self.nodes = nodes
        self.azs = azs
        self.az_names = sorted(azs)
        self.horizon_ms = horizon_ms
        self.events: list[ChaosEvent] = []
        self.busy: dict[str, list[tuple[float, float]]] = {}

    def overlaps(self, target: str, start: float, end: float) -> bool:
        return any(
            s < end and start < e for s, e in self.busy.get(target, [])
        )

    def reserve(self, target: str, start: float, end: float) -> None:
        self.busy.setdefault(target, []).append((start, end))

    def duration(self) -> float:
        return self.rng.uniform(MIN_DURATION_MS, MAX_DURATION_MS)

    def start_time(self, d: float) -> float:
        """A start for an event of ``d`` ms, or -1 when it cannot fit."""
        # Leave a tail of one max duration so the run can settle.
        latest = self.horizon_ms - d - MAX_DURATION_MS
        if latest <= 0:
            return -1.0
        return self.rng.uniform(0.0, latest)

    def target(self, kind: Kind) -> str:
        if kind.target == NODE:
            return self.rng.choice(self.nodes)
        if kind.target == AZ:
            return self.rng.choice(self.az_names)
        return kind.target


# ----------------------------------------------------------------------
# Draws: ``(draws, kind)``.  Each makes its kind's draws in the order the
# kind has always made them -- duration, start, extras, target -- since
# the draw order is what a seed replays.
# ----------------------------------------------------------------------
def _event(duration: Callable, rate=None, factor=None) -> Callable:
    """``duration(draws)`` ms, a start, a loss ``rate`` and a ``factor``
    from the uniform bounds given, the target; None when it cannot fit."""

    def draw(g: _Draws, kind: Kind) -> ChaosEvent | None:
        d = duration(g)
        at = g.start_time(d)
        if at < 0:
            return None
        loss = round(g.rng.uniform(*rate), 2) if rate else 0.0
        scale = round(g.rng.uniform(*factor), 1) if factor else 1.0
        return ChaosEvent(at, d, kind.name, g.target(kind), scale, loss)

    return draw


def _uniform(low: float, high: float) -> Callable:
    return lambda g: g.rng.uniform(low, high)


def _kill_window(g: _Draws) -> float:
    # The "duration" of a kill is the exclusion window reserved on the
    # writer pseudo-target, spacing successive writer events far enough
    # apart for a failover to complete in between.  It is always
    # MAX_DURATION_MS * 4; the duration draw stays because every later
    # draw of every seeded schedule follows it.
    return max(g.duration() * 4, MAX_DURATION_MS * 4)


def _az_outage(g: _Draws, kind: Kind) -> ChaosEvent | None:
    if not g.az_names:
        return None
    d = g.duration()
    at = g.start_time(d)
    if at < 0:
        return None
    # One AZ outage in flight at a time; refused before the AZ is drawn.
    if g.overlaps(_ANY_AZ, at, at + d):
        return None
    event = ChaosEvent(at, d, "crash_az", g.target(kind))
    g.reserve(_ANY_AZ, at, at + d)
    return event


def _az_burst(g: _Draws, kind: Kind) -> list[ChaosEvent]:
    """A whole-AZ outage plus node crashes *outside* that AZ, all starting
    together -- the paper's scary case, where an AZ failure lands on a
    fleet that already has degraded quorums.  The events are the
    ``crash_az`` and ``crash_node`` kinds', and fire as theirs do."""
    outage = _az_outage(g, kind)
    if outage is None:
        return []
    at, events = outage.at, [outage]
    outside = sorted(set(g.nodes) - g.azs.get(outage.target, set()))
    if not outside:
        return events
    for victim in g.rng.sample(outside, min(BURST_FANOUT, len(outside))):
        vd = g.duration()
        if at + vd >= g.horizon_ms or g.overlaps(victim, at, at + vd):
            continue
        g.reserve(victim, at, at + vd)
        events.append(ChaosEvent(at, vd, "crash_node", victim))
    return events


def _region(g: _Draws, kind: Kind) -> list[ChaosEvent]:
    """The terminal region event: after it the secondary region is
    promoted and the scenario changes shape, so a mix draws it ``ONCE``.
    It lands mid-horizon so steady replication precedes it and enough
    runway remains for detection, lease expiry and promotion."""
    at = g.rng.uniform(0.45, 0.7) * g.horizon_ms
    if g.rng.random() < 0.5:
        return [ChaosEvent(at, 0.0, "region_loss", kind.target)]
    d = g.rng.uniform(MIN_REGION_PARTITION_MS, MAX_REGION_PARTITION_MS)
    return [ChaosEvent(at, d, "region_partition", kind.target)]


# ----------------------------------------------------------------------
# Placements: ``(draws, kind, count)``
# ----------------------------------------------------------------------
def _retried(g: _Draws, kind: Kind, count: int) -> None:
    """Up to 8 draws per event to land one that ends inside the horizon on
    a target free for its whole duration."""
    for _ in range(count):
        for _attempt in range(8):
            event = kind.draw(g, kind)
            if event is None:
                continue
            end = event.at + event.duration
            if end >= g.horizon_ms or g.overlaps(event.target, event.at, end):
                continue
            g.reserve(event.target, event.at, end)
            g.events.append(event)
            break


def _as_drawn(g: _Draws, kind: Kind, count: int) -> None:
    """One draw per event, placing what it returns.  The burst checks its
    own targets; the region event's aftermath (lease expiry, promotion,
    post-heal fencing) deliberately runs past the horizon tail guard, and
    nothing else shares its pseudo-target."""
    for _ in range(count):
        g.events += kind.draw(g, kind)


# ----------------------------------------------------------------------
# Firing
# ----------------------------------------------------------------------
CALLBACK = "callback"
INJECTOR = "injector"
STORAGE = "storage"


@dataclass(frozen=True)
class Fire:
    """How an event fires: ``name`` called with these ``fields`` of the
    event (``others``: every other node the injector knows), as one of

    - ``CALLBACK``: the callback ``install`` is given as ``name`` (the
      schedule does not know writer or region names: they change across
      failovers);
    - ``INJECTOR``: the injector's ``name`` (``crash_at``, ...), which
      schedules the fault at the event's time and its heal after the
      duration (a partition with no other node cuts nothing);
    - ``STORAGE``: the injector's silent corruption ``name``, on the first
      attached storage node in a seeded order that has a victim when the
      event fires (``FailureInjector.inject_anywhere``).
    """

    via: str
    name: str
    fields: tuple[str, ...] = ()

    def refusal(self, injector: FailureInjector, callbacks) -> str | None:
        if self.via == CALLBACK and callbacks.get(self.name) is None:
            return f"pass a {self.name} callback to install()"
        if self.via == STORAGE and not injector._storage_nodes:
            return "call injector.attach_storage(...) before install()"
        return None

    def schedule(self, injector, callbacks, everyone, at, event) -> None:
        others = everyone - {event.target}
        values = {**vars(event), "others": others}
        args = [values[name] for name in self.fields]
        if self.via == CALLBACK:
            injector.loop.schedule_at(at, callbacks[self.name], *args)
        elif self.via == STORAGE:
            injector.loop.schedule_at(
                at, injector.inject_anywhere, getattr(injector, self.name),
                *args,
            )
        elif others or "others" not in self.fields:
            getattr(injector, self.name)(at, *args)

    def describe(self) -> str:
        return f"{self.via} `{self.name}({', '.join(self.fields)})`"


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Kind:
    """One row: a fault kind."""

    name: str
    #: ``NODE`` or ``AZ`` (drawn from the fleet), or a pseudo-target.
    target: str
    #: The duration and the extra draws, in words (the docs table).
    duration: str
    extras: str
    #: ``(draws, kind)`` -> an event, or None when it did not fit (under
    #: ``_retried``); the events it placed (under ``_as_drawn``).
    draw: Callable
    place: Callable
    #: How its events fire; event kind -> ``Fire`` for a row whose events
    #: are named otherwise, None for one whose events are other rows'.
    fire: Fire | dict | None

    @property
    def fires(self) -> dict:
        """Event kind -> how an event of it fires."""
        if self.fire is None or isinstance(self.fire, dict):
            return self.fire or {}
        return {self.name: self.fire}


_FAULT = _Draws.duration
_SLOW = (MIN_SLOW_FACTOR, MAX_SLOW_FACTOR)


def _at_once(g: _Draws) -> float:
    return 0.0


#: The rows.  Their order is the RNG draw order.
KINDS: tuple[Kind, ...] = (
    Kind("crash_node", NODE, "U(40, 350)", "", _event(_FAULT), _retried,
         Fire(INJECTOR, "crash_at", ("target", "duration"))),
    Kind("crash_az", AZ, "U(40, 350)", "at most one AZ down at a time",
         _az_outage, _retried,
         Fire(INJECTOR, "crash_az_at", ("target", "duration"))),
    Kind("slow_node", NODE, "U(40, 350)", "factor U(3, 12), before the node",
         _event(_FAULT, factor=_SLOW), _retried,
         Fire(INJECTOR, "slow_at", ("target", "factor", "duration"))),
    Kind("partition", NODE, "U(40, 350)", "", _event(_FAULT), _retried,
         Fire(INJECTOR, "partition_at", ("target", "others", "duration"))),
    Kind("az_burst", AZ, "U(40, 350) each",
         "a `crash_az` and 3 `crash_node` outside that AZ, one start",
         _az_burst, _as_drawn, None),
    Kind("kill_writer", WRITER_TARGET, "1400 (writer events' spacing)", "",
         _event(_kill_window), _retried, Fire(CALLBACK, "writer_kill")),
    Kind("grey_writer", WRITER_TARGET, "max(2 x U(40, 350), 350)",
         "factor U(3, 12)",
         _event(lambda g: max(g.duration() * 2, MAX_DURATION_MS),
                factor=_SLOW), _retried,
         Fire(CALLBACK, "writer_grey", ("factor", "duration"))),
    Kind("wan_brownout", WAN_TARGET, "U(500, 1800)",
         "loss rate U(0.25, 0.7), then factor U(2, 6)",
         _event(_uniform(500.0, 1800.0), rate=(0.25, 0.7),
                factor=(2.0, 6.0)), _retried,
         Fire(CALLBACK, "wan_brownout", ("rate", "factor", "duration"))),
    Kind("stream_stall", WAN_TARGET, "U(300, 1200)", "",
         _event(_uniform(300.0, 1200.0)), _retried,
         Fire(CALLBACK, "stream_stall", ("duration",))),
    Kind("region", REGION_TARGET, "0 / U(5000, 9000)",
         "at U(0.45, 0.7) x horizon; `region_loss` or `region_partition`, "
         "50/50", _region, _as_drawn,
         {"region_loss": Fire(CALLBACK, "region_loss"),
          "region_partition": Fire(
              CALLBACK, "region_partition", ("duration",))}),
    Kind("bit_rot", STORAGE_TARGET, "0", "", _event(_at_once), _retried,
         Fire(STORAGE, "bit_rot")),
    Kind("torn_write", STORAGE_TARGET, "U(80, 250)",
         "the duration is the crash before the torn record surfaces",
         _event(_uniform(80.0, 250.0)), _retried,
         Fire(STORAGE, "torn_write", ("duration",))),
    Kind("lost_write", STORAGE_TARGET, "0", "", _event(_at_once), _retried,
         Fire(STORAGE, "lost_write")),
    Kind("misdirected_write", STORAGE_TARGET, "0", "", _event(_at_once),
         _retried, Fire(STORAGE, "misdirected_write")),
)


#: The period of a kind drawn exactly once per schedule.
ONCE = math.inf


@dataclass(frozen=True)
class Mix:
    """Which kinds a schedule draws: kind -> period (ms of horizon per
    event: ``max(1, int(horizon / period))`` events, so ``ONCE`` is one).
    A kind it does not name draws nothing.  ``about`` is what the
    profile table says of it."""

    name: str
    periods: dict
    about: str

    def joined(self, periods: dict) -> Mix:
        return replace(self, periods={**self.periods, **periods})


CHAOS = Mix(
    "chaos",
    {"crash_node": 700.0, "crash_az": 2500.0, "slow_node": 900.0,
     "partition": 1600.0},
    "The default schedule: independent node crashes, whole-AZ outages (at "
    "most one in flight), grey (slow) nodes and one-node partitions, every "
    "fault healing after a bounded duration.",
)
FLEET = Mix(
    "fleet",
    {**CHAOS.periods, "crash_node": 1100.0, "crash_az": 4000.0,
     "az_burst": 2200.0},
    "The fleet-mode profile: correlated AZ bursts on top of (slightly "
    "thinned) independent noise, tuned for many-PG clusters where the "
    "burst itself already takes down two segments of every PG.",
)
GEO = Mix(
    "geo",
    {"crash_node": 5000.0, "slow_node": 4000.0, "partition": 9000.0,
     "wan_brownout": 7000.0, "stream_stall": 11000.0, "region": ONCE},
    "The geo-audit profile: light intra-primary noise (crashes, grey "
    "nodes, one-node partitions), recurring WAN degradation, and exactly "
    "one terminal region event per schedule.  AZ outages are disabled -- "
    "the region event is the correlated disaster under test, and stacking "
    "an AZ outage on top would conflate intra-region repair with "
    "cross-region recovery in the RPO/RTO attribution.",
)
INTEGRITY = Mix(
    "integrity",
    {"crash_node": 3000.0, "slow_node": 2500.0, "partition": 4000.0,
     "bit_rot": 900.0, "torn_write": 4000.0, "lost_write": 2500.0,
     "misdirected_write": 2800.0},
    "The integrity-audit profile: light fail-stop noise (so corruption "
    "repair must work through crashes, grey nodes, and partitions, not in "
    "a calm fleet) plus a steady stream of all four silent-corruption "
    "kinds.  AZ outages are disabled -- losing a third of every quorum at "
    "once is the durability audits' business; here it would only starve "
    "the vote of responders without exercising anything new.",
)
MIXES = (CHAOS, FLEET, GEO, INTEGRITY)
#: The writer kinds join a mix when the database-tier failover plane is
#: armed: kill the writer outright (recovery is the failover plane's
#: job), or grey-fail it (slow, not dead).
WRITER_PERIODS = {"kill_writer": 6000.0, "grey_writer": 5000.0}


class ChaosSchedule:
    """A deterministic, seed-reproducible list of fault events."""

    def __init__(
        self, seed: int, horizon_ms: float, events: list[ChaosEvent]
    ) -> None:
        self.seed = seed
        self.horizon_ms = horizon_ms
        self.events = sorted(events, key=lambda e: (e.at, e.target))

    @classmethod
    def generate(
        cls,
        seed: int,
        nodes: list[str],
        azs: dict[str, set[str]],
        horizon_ms: float,
        mix: Mix = CHAOS,
    ) -> ChaosSchedule:
        """Generate a schedule of ``mix`` over ``nodes`` grouped into
        ``azs``: each kind the mix names, in table order.

        Uses a private ``random.Random(seed)`` so the schedule depends on
        nothing but the seed, the fleet shape and the mix.
        """
        if horizon_ms <= 0:
            raise ConfigurationError("horizon_ms must be > 0")
        if not nodes:
            raise ConfigurationError("chaos needs at least one node")
        unknown = set(mix.periods) - {kind.name for kind in KINDS}
        if unknown:
            raise ConfigurationError(f"unknown chaos kinds {sorted(unknown)}")
        draws = _Draws(seed, nodes, azs, horizon_ms)
        for kind in KINDS:
            if kind.name in mix.periods:
                count = max(1, int(horizon_ms / mix.periods[kind.name]))
                kind.place(draws, kind, count)
        return cls(seed=seed, horizon_ms=horizon_ms, events=draws.events)

    def install(self, injector: FailureInjector, **callbacks) -> int:
        """Schedule every event on the injector's loop; returns the count.

        Event times are *relative*: an event at ``at`` fires ``at``
        milliseconds after install time (schedules are generated on a
        ``[0, horizon)`` timeline, independent of where the simulation
        clock happens to be).  Each event fires as its kind's row says; a
        schedule is refused whole, before anything is scheduled, when a
        callback its kinds name is missing from ``callbacks`` or it holds
        corruption kinds and no storage is attached
        (:meth:`FailureInjector.attach_storage`).
        """
        fires = {
            name: fire for kind in KINDS for name, fire in kind.fires.items()
        }
        for event in self.events:
            if event.kind not in fires:
                raise ConfigurationError(f"unknown chaos kind {event.kind!r}")
            refusal = fires[event.kind].refusal(injector, callbacks)
            if refusal is not None:
                raise ConfigurationError(
                    f"schedule contains {event.kind.upper()} events; "
                    + refusal
                )
        everyone: set[str] = set()
        for az in list(injector._az_members):
            everyone |= injector.az_nodes(az)
        base = injector.loop.now
        for event in self.events:
            fires[event.kind].schedule(
                injector, callbacks, everyone, base + event.at, event
            )
        return len(self.events)

    def describe(self) -> str:
        header = (
            f"chaos schedule seed={self.seed} horizon={self.horizon_ms:.0f}ms "
            f"events={len(self.events)}"
        )
        return "\n".join([header] + [f"  {e}" for e in self.events])

    def __len__(self) -> int:
        return len(self.events)


def kinds_table() -> str:
    """The "Chaos kinds" table of docs/AUDIT.md, rendered from the rows."""
    periods = {f"`{mix.name}`": mix.periods for mix in MIXES}
    periods["`failover` adds"] = WRITER_PERIODS
    rows = [
        "| Kind | Target | Duration (ms) | Extras | Fires | "
        + " | ".join(periods) + " |",
        "|---" * (5 + len(periods)) + "|",
    ]
    for kind in KINDS:
        fires = "; ".join(
            f"`{name}`: {fire.describe()}" if name != kind.name
            else fire.describe()
            for name, fire in kind.fires.items()
        )
        pseudo = kind.target not in (NODE, AZ)
        cells = [
            f"`{kind.name}`", f"`{kind.target}`" if pseudo else kind.target,
            kind.duration, kind.extras, fires or "as its events' kinds",
            *(_period(table.get(kind.name)) for table in periods.values()),
        ]
        rows.append("| " + " | ".join(cells) + " |")
    return "\n".join(rows)


def _period(period: float | None) -> str:
    if period is None:
        return ""
    return "once" if period == ONCE else f"{period:g}"
