"""Seeded chaos schedules: reproducible randomized failure scenarios.

A :class:`ChaosSchedule` composes the four failure granularities of
:class:`~repro.sim.failures.FailureInjector` -- node crashes, whole-AZ
outages, degraded (slow) nodes, and network partitions -- into a
deterministic event list generated from a seed.  The same seed over the
same fleet always yields the same schedule, so any invariant violation the
:class:`repro.audit.Auditor` reports is reproducible from its seed alone
(``python -m repro audit-run --seed N``).

Generation is shaped to keep the scenario *survivable* rather than fair:

- every event has a bounded duration, so quorum always eventually returns;
- at most one AZ outage is in flight at a time (the paper's fault model:
  "AZ+1" is the design point, not "AZ+AZ");
- events never overlap on the same target, keeping crash/restore pairs
  well-nested and the injector log easy to read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.failures import FailureInjector

#: Event kinds, in the order the generator attempts them.
CRASH_NODE = "crash_node"
CRASH_AZ = "crash_az"
SLOW_NODE = "slow_node"
PARTITION = "partition"
#: Database-tier kinds (installed via callbacks; the schedule does not
#: know writer names, which change across failovers -- the pseudo-target
#: ``__writer__`` stands for "whoever is the writer when the event fires").
KILL_WRITER = "kill_writer"
GREY_WRITER = "grey_writer"
#: Geo-tier kinds (installed via callbacks, like the writer kinds).
#: ``REGION_LOSS`` and ``REGION_PARTITION`` are *terminal* region events:
#: a geo schedule contains exactly one of them, because after either one
#: the secondary region is promoted and the scenario changes shape.
REGION_LOSS = "region_loss"
REGION_PARTITION = "region_partition"
WAN_BROWNOUT = "wan_brownout"
STREAM_STALL = "stream_stall"
#: Silent-corruption kinds (DESIGN.md §12).  The victim node is resolved
#: at fire time from the injector's attached storage fleet (like the
#: writer kinds, the schedule does not know storage-node names).
BIT_ROT = "bit_rot"
TORN_WRITE = "torn_write"
LOST_WRITE = "lost_write"
MISDIRECTED_WRITE = "misdirected_write"

WRITER_TARGET = "__writer__"
REGION_TARGET = "__region__"
WAN_TARGET = "__wan__"
STORAGE_TARGET = "__storage__"


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: ``kind`` applied to ``target`` at ``at`` for
    ``duration`` milliseconds (``factor`` is the slowdown for SLOW_NODE)."""

    at: float
    duration: float
    kind: str
    target: str
    factor: float = 1.0
    #: Loss rate for WAN_BROWNOUT events (``factor`` carries the latency
    #: multiplier); 0.0 for every other kind.
    rate: float = 0.0

    def __str__(self) -> str:
        if self.kind in (SLOW_NODE, GREY_WRITER):
            extra = f" x{self.factor:g}"
        elif self.kind == WAN_BROWNOUT:
            extra = f" loss={self.rate:g} x{self.factor:g}"
        else:
            extra = ""
        return (
            f"t={self.at:8.1f}ms {self.kind:<10} {self.target}"
            f" for {self.duration:.0f}ms{extra}"
        )


#: Every fault heals after a duration drawn from these bounds (ms).  The
#: storage detector's floors are tuned against the upper one: transient
#: faults mostly come back inside suspect + confirm, so only extended
#: outages graduate to DEAD (repair/detector.py ``Tier``).
MIN_DURATION_MS = 40.0
MAX_DURATION_MS = 350.0
#: Slowdown bounds for SLOW_NODE / GREY_WRITER.
MIN_SLOW_FACTOR = 3.0
MAX_SLOW_FACTOR = 12.0
#: Duration bounds for REGION_PARTITION (must comfortably exceed the geo
#: lease so the stale primary provably self-fences mid-partition).
MIN_REGION_PARTITION_MS = 5000.0
MAX_REGION_PARTITION_MS = 9000.0


@dataclass
class ChaosConfig:
    """The default schedule: independent node crashes, whole-AZ outages
    (at most one in flight), grey (slow) nodes and one-node partitions,
    every fault healing after a bounded duration.

    The fields are intensity knobs for schedule generation (rates are
    per-millisecond expectations scaled by the horizon).
    """

    node_crash_period_ms: float = 700.0
    az_outage_period_ms: float = 2500.0
    slow_period_ms: float = 900.0
    partition_period_ms: float = 1600.0
    #: Correlated AZ failure bursts: a whole-AZ outage plus simultaneous
    #: node crashes *outside* that AZ -- the paper's scary case, where an
    #: AZ failure lands on a fleet that already has degraded quorums.
    #: 0 disables bursts (the default schedule stays unchanged).
    az_burst_period_ms: float = 0.0
    #: Nodes outside the failed AZ crashed alongside each burst.
    az_burst_fanout: int = 3
    #: Database-tier chaos: kill the current writer outright (no scheduled
    #: restore -- recovery is the failover plane's job), or grey-fail it
    #: (slow, not dead: latency inflated for the duration).  0 disables
    #: either kind; disabled kinds draw nothing from the RNG, so existing
    #: seeded schedules are byte-identical.
    writer_kill_period_ms: float = 0.0
    writer_grey_period_ms: float = 0.0
    #: Geo-tier chaos.  Brownouts degrade the WAN link (loss + latency)
    #: without severing it; stream stalls freeze the geo sender outright.
    #: 0 disables either kind; like the writer kinds, disabled kinds draw
    #: nothing from the RNG so pre-geo schedules replay byte-identically.
    wan_brownout_period_ms: float = 0.0
    stream_stall_period_ms: float = 0.0
    #: Terminal region event selection.  When either weight is > 0 the
    #: schedule gets *exactly one* region event -- REGION_LOSS with
    #: probability loss/(loss+partition), else REGION_PARTITION -- placed
    #: in the middle of the horizon so steady replication precedes it and
    #: enough runway remains for detection, lease expiry, and promotion.
    region_loss_weight: float = 0.0
    region_partition_weight: float = 0.0
    #: Silent-corruption chaos (DESIGN.md §12).  Each kind is disabled at
    #: 0 and, like every kind added after v0, disabled kinds draw nothing
    #: from the RNG -- legacy seeded schedules replay byte-identically.
    #: ``torn_write`` events use their duration as the crash downtime
    #: before the torn record surfaces at restart.
    bit_rot_period_ms: float = 0.0
    torn_write_period_ms: float = 0.0
    lost_write_period_ms: float = 0.0
    misdirected_write_period_ms: float = 0.0


def fleet_chaos_config() -> ChaosConfig:
    """The fleet-mode profile: correlated AZ bursts on top of (slightly
    thinned) independent noise, tuned for many-PG clusters where the
    burst itself already takes down two segments of every PG."""
    return ChaosConfig(
        node_crash_period_ms=1100.0,
        az_outage_period_ms=4000.0,
        az_burst_period_ms=2200.0,
        az_burst_fanout=3,
    )


def geo_chaos_config() -> ChaosConfig:
    """The geo-audit profile: light intra-primary noise (crashes, grey
    nodes, one-node partitions), recurring WAN degradation, and exactly
    one terminal region event per schedule.  AZ outages are disabled --
    the region event is the correlated disaster under test, and stacking
    an AZ outage on top would conflate intra-region repair with
    cross-region recovery in the RPO/RTO attribution."""
    return ChaosConfig(
        node_crash_period_ms=5000.0,
        az_outage_period_ms=10.0**12,
        slow_period_ms=4000.0,
        partition_period_ms=9000.0,
        wan_brownout_period_ms=7000.0,
        stream_stall_period_ms=11000.0,
        region_loss_weight=1.0,
        region_partition_weight=1.0,
    )


def integrity_chaos_config() -> ChaosConfig:
    """The integrity-audit profile: light fail-stop noise (so corruption
    repair must work through crashes, grey nodes, and partitions, not in a
    calm fleet) plus a steady stream of all four silent-corruption kinds.
    AZ outages are disabled -- losing a third of every quorum at once is
    the durability audits' business; here it would only starve the vote of
    responders without exercising anything new."""
    return ChaosConfig(
        node_crash_period_ms=3000.0,
        az_outage_period_ms=10.0**12,
        slow_period_ms=2500.0,
        partition_period_ms=4000.0,
        bit_rot_period_ms=900.0,
        torn_write_period_ms=4000.0,
        lost_write_period_ms=2500.0,
        misdirected_write_period_ms=2800.0,
    )


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
        config: ChaosConfig | None = None,
    ) -> "ChaosSchedule":
        """Generate a schedule over ``nodes`` grouped into ``azs``.

        Uses a private ``random.Random(seed)`` so the schedule depends on
        nothing but the seed and the fleet shape.
        """
        if horizon_ms <= 0:
            raise ConfigurationError("horizon_ms must be > 0")
        if not nodes:
            raise ConfigurationError("chaos needs at least one node")
        cfg = config if config is not None else ChaosConfig()
        rng = random.Random(seed)
        events: list[ChaosEvent] = []
        #: target -> list of (start, end) busy intervals, to keep events
        #: on the same target from overlapping.
        busy: dict[str, list[tuple[float, float]]] = {}

        def overlaps(target: str, start: float, end: float) -> bool:
            return any(
                s < end and start < e for s, e in busy.get(target, [])
            )

        def reserve(target: str, start: float, end: float) -> None:
            busy.setdefault(target, []).append((start, end))

        def place(count: int, pick) -> None:
            for _ in range(count):
                for _attempt in range(8):
                    event = pick()
                    if event is None:
                        continue
                    end = event.at + event.duration
                    if end >= horizon_ms:
                        continue
                    if overlaps(event.target, event.at, end):
                        continue
                    reserve(event.target, event.at, end)
                    events.append(event)
                    break

        def duration() -> float:
            return rng.uniform(MIN_DURATION_MS, MAX_DURATION_MS)

        def start_time(d: float) -> float:
            # Leave a tail of one max duration so the run can settle.
            latest = horizon_ms - d - MAX_DURATION_MS
            if latest <= 0:
                return -1.0
            return rng.uniform(0.0, latest)

        def pick_node_crash() -> ChaosEvent | None:
            d = duration()
            at = start_time(d)
            if at < 0:
                return None
            return ChaosEvent(at, d, CRASH_NODE, rng.choice(nodes))

        az_names = sorted(azs)

        def pick_az_outage() -> ChaosEvent | None:
            if not az_names:
                return None
            d = duration()
            at = start_time(d)
            if at < 0:
                return None
            # Serialize AZ outages: reserve a shared pseudo-target too.
            if overlaps("__az__", at, at + d):
                return None
            event = ChaosEvent(at, d, CRASH_AZ, rng.choice(az_names))
            reserve("__az__", at, at + d)
            return event

        def pick_slow() -> ChaosEvent | None:
            d = duration()
            at = start_time(d)
            if at < 0:
                return None
            factor = rng.uniform(MIN_SLOW_FACTOR, MAX_SLOW_FACTOR)
            return ChaosEvent(
                at, d, SLOW_NODE, rng.choice(nodes), factor=round(factor, 1)
            )

        def pick_partition() -> ChaosEvent | None:
            d = duration()
            at = start_time(d)
            if at < 0:
                return None
            return ChaosEvent(at, d, PARTITION, rng.choice(nodes))

        def place_az_burst() -> None:
            """One correlated burst: an AZ outage and ``az_burst_fanout``
            node crashes outside that AZ, all starting together.  Burst
            events are composed from the existing kinds, so ``install``
            needs no new machinery."""
            if not az_names:
                return
            d = duration()
            at = start_time(d)
            if at < 0:
                return
            if overlaps("__az__", at, at + d):
                return
            az = rng.choice(az_names)
            reserve("__az__", at, at + d)
            events.append(ChaosEvent(at, d, CRASH_AZ, az))
            outside = sorted(set(nodes) - azs.get(az, set()))
            if not outside:
                return
            victims = rng.sample(
                outside, min(cfg.az_burst_fanout, len(outside))
            )
            for victim in victims:
                vd = duration()
                if at + vd >= horizon_ms or overlaps(victim, at, at + vd):
                    continue
                reserve(victim, at, at + vd)
                events.append(ChaosEvent(at, vd, CRASH_NODE, victim))

        def pick_writer_kill() -> ChaosEvent | None:
            # The "duration" of a kill is the exclusion window reserved on
            # the writer pseudo-target, spacing successive writer events
            # far enough apart for a failover to complete in between.
            d = max(duration() * 4, MAX_DURATION_MS * 4)
            at = start_time(d)
            if at < 0:
                return None
            return ChaosEvent(at, d, KILL_WRITER, WRITER_TARGET)

        def pick_writer_grey() -> ChaosEvent | None:
            d = max(duration() * 2, MAX_DURATION_MS)
            at = start_time(d)
            if at < 0:
                return None
            factor = rng.uniform(MIN_SLOW_FACTOR, MAX_SLOW_FACTOR)
            return ChaosEvent(
                at, d, GREY_WRITER, WRITER_TARGET, factor=round(factor, 1)
            )

        place(max(1, int(horizon_ms / cfg.node_crash_period_ms)),
              pick_node_crash)
        place(int(horizon_ms / cfg.az_outage_period_ms), pick_az_outage)
        place(max(1, int(horizon_ms / cfg.slow_period_ms)), pick_slow)
        place(int(horizon_ms / cfg.partition_period_ms), pick_partition)
        if cfg.az_burst_period_ms > 0:
            for _ in range(max(1, int(horizon_ms / cfg.az_burst_period_ms))):
                place_az_burst()
        # Writer events draw last and only when enabled, so schedules
        # generated before these kinds existed replay byte-identically.
        if cfg.writer_kill_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.writer_kill_period_ms)),
                  pick_writer_kill)
        if cfg.writer_grey_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.writer_grey_period_ms)),
                  pick_writer_grey)

        # Geo kinds likewise draw last and only when enabled.
        def pick_wan_brownout() -> ChaosEvent | None:
            d = rng.uniform(500.0, 1800.0)
            at = start_time(d)
            if at < 0:
                return None
            loss = rng.uniform(0.25, 0.7)
            factor = rng.uniform(2.0, 6.0)
            return ChaosEvent(
                at, d, WAN_BROWNOUT, WAN_TARGET,
                factor=round(factor, 1), rate=round(loss, 2),
            )

        def pick_stream_stall() -> ChaosEvent | None:
            d = rng.uniform(300.0, 1200.0)
            at = start_time(d)
            if at < 0:
                return None
            return ChaosEvent(at, d, STREAM_STALL, WAN_TARGET)

        if cfg.wan_brownout_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.wan_brownout_period_ms)),
                  pick_wan_brownout)
        if cfg.stream_stall_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.stream_stall_period_ms)),
                  pick_stream_stall)
        region_total = cfg.region_loss_weight + cfg.region_partition_weight
        if region_total > 0:
            # Exactly one terminal region event, appended directly rather
            # than through place(): its aftermath (lease expiry, promotion,
            # post-heal fencing) deliberately runs past the horizon tail
            # guard, and nothing else shares its pseudo-target.
            at = rng.uniform(0.45, 0.7) * horizon_ms
            if rng.random() * region_total < cfg.region_loss_weight:
                events.append(
                    ChaosEvent(at, 0.0, REGION_LOSS, REGION_TARGET)
                )
            else:
                d = rng.uniform(
                    MIN_REGION_PARTITION_MS, MAX_REGION_PARTITION_MS
                )
                events.append(
                    ChaosEvent(at, d, REGION_PARTITION, REGION_TARGET)
                )

        # Silent-corruption kinds draw after everything above (including
        # the region event), and only when enabled: any schedule generated
        # before these kinds existed replays byte-identically.
        def pick_bit_rot() -> ChaosEvent | None:
            at = start_time(0.0)
            if at < 0:
                return None
            return ChaosEvent(at, 0.0, BIT_ROT, STORAGE_TARGET)

        def pick_torn_write() -> ChaosEvent | None:
            # The duration is the crash downtime before the torn record
            # surfaces at restart.
            d = rng.uniform(80.0, 250.0)
            at = start_time(d)
            if at < 0:
                return None
            return ChaosEvent(at, d, TORN_WRITE, STORAGE_TARGET)

        def pick_lost_write() -> ChaosEvent | None:
            at = start_time(0.0)
            if at < 0:
                return None
            return ChaosEvent(at, 0.0, LOST_WRITE, STORAGE_TARGET)

        def pick_misdirected_write() -> ChaosEvent | None:
            at = start_time(0.0)
            if at < 0:
                return None
            return ChaosEvent(at, 0.0, MISDIRECTED_WRITE, STORAGE_TARGET)

        if cfg.bit_rot_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.bit_rot_period_ms)),
                  pick_bit_rot)
        if cfg.torn_write_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.torn_write_period_ms)),
                  pick_torn_write)
        if cfg.lost_write_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.lost_write_period_ms)),
                  pick_lost_write)
        if cfg.misdirected_write_period_ms > 0:
            place(max(1, int(horizon_ms / cfg.misdirected_write_period_ms)),
                  pick_misdirected_write)
        return cls(seed=seed, horizon_ms=horizon_ms, events=events)

    def install(
        self,
        injector: FailureInjector,
        writer_kill=None,
        writer_grey=None,
        region_loss=None,
        region_partition=None,
        wan_brownout=None,
        stream_stall=None,
    ) -> int:
        """Schedule every event on the injector's loop; returns the count.

        Event times are *relative*: an event at ``at`` fires ``at``
        milliseconds after install time (schedules are generated on a
        ``[0, horizon)`` timeline, independent of where the simulation
        clock happens to be).  Partition events isolate the target node
        from every *other* node the injector knows about (all registered
        AZ members).

        ``KILL_WRITER`` / ``GREY_WRITER`` events resolve their target at
        fire time through the ``writer_kill()`` / ``writer_grey(factor,
        duration_ms)`` callbacks (the writer's name changes across
        failovers).  Geo events likewise fire through callbacks:
        ``region_loss()``, ``region_partition(duration_ms)``,
        ``wan_brownout(loss_rate, latency_factor, duration_ms)``, and
        ``stream_stall(duration_ms)``.  Schedules containing any of these
        kinds require the corresponding callback.

        Silent-corruption kinds (``BIT_ROT`` / ``TORN_WRITE`` /
        ``LOST_WRITE`` / ``MISDIRECTED_WRITE``) need no callback -- they
        dispatch to the injector's own ``*_any`` operations, which resolve
        a victim at fire time -- but the injector must have storage nodes
        attached (:meth:`FailureInjector.attach_storage`).
        """
        base = injector.loop.now
        everyone: set[str] = set()
        for az in list(injector._az_members):
            everyone |= injector.az_nodes(az)
        corruption_kinds = (
            BIT_ROT, TORN_WRITE, LOST_WRITE, MISDIRECTED_WRITE,
        )
        if any(
            e.kind in corruption_kinds for e in self.events
        ) and not injector._storage_nodes:
            raise ConfigurationError(
                "schedule contains silent-corruption events; call "
                "injector.attach_storage(...) before install()"
            )
        for event in self.events:
            at = base + event.at
            if event.kind == CRASH_NODE:
                injector.crash_at(at, event.target, event.duration)
            elif event.kind == CRASH_AZ:
                injector.crash_az_at(at, event.target, event.duration)
            elif event.kind == SLOW_NODE:
                injector.slow_at(
                    at, event.target, event.factor, event.duration
                )
            elif event.kind == PARTITION:
                others = everyone - {event.target}
                if others:
                    injector.partition_at(
                        at, event.target, others, event.duration
                    )
            elif event.kind == KILL_WRITER:
                if writer_kill is None:
                    raise ConfigurationError(
                        "schedule contains KILL_WRITER events; pass a "
                        "writer_kill callback to install()"
                    )
                injector.loop.schedule_at(at, writer_kill)
            elif event.kind == GREY_WRITER:
                if writer_grey is None:
                    raise ConfigurationError(
                        "schedule contains GREY_WRITER events; pass a "
                        "writer_grey callback to install()"
                    )
                injector.loop.schedule_at(
                    at,
                    lambda factor=event.factor, d=event.duration: (
                        writer_grey(factor, d)
                    ),
                )
            elif event.kind == REGION_LOSS:
                if region_loss is None:
                    raise ConfigurationError(
                        "schedule contains REGION_LOSS events; pass a "
                        "region_loss callback to install()"
                    )
                injector.loop.schedule_at(at, region_loss)
            elif event.kind == REGION_PARTITION:
                if region_partition is None:
                    raise ConfigurationError(
                        "schedule contains REGION_PARTITION events; pass "
                        "a region_partition callback to install()"
                    )
                injector.loop.schedule_at(
                    at,
                    lambda d=event.duration: region_partition(d),
                )
            elif event.kind == WAN_BROWNOUT:
                if wan_brownout is None:
                    raise ConfigurationError(
                        "schedule contains WAN_BROWNOUT events; pass a "
                        "wan_brownout callback to install()"
                    )
                injector.loop.schedule_at(
                    at,
                    lambda loss=event.rate, factor=event.factor, d=(
                        event.duration
                    ): wan_brownout(loss, factor, d),
                )
            elif event.kind == STREAM_STALL:
                if stream_stall is None:
                    raise ConfigurationError(
                        "schedule contains STREAM_STALL events; pass a "
                        "stream_stall callback to install()"
                    )
                injector.loop.schedule_at(
                    at,
                    lambda d=event.duration: stream_stall(d),
                )
            elif event.kind == BIT_ROT:
                injector.loop.schedule_at(at, injector.bit_rot_any)
            elif event.kind == TORN_WRITE:
                injector.loop.schedule_at(
                    at,
                    lambda d=event.duration: injector.torn_write_any(d),
                )
            elif event.kind == LOST_WRITE:
                injector.loop.schedule_at(at, injector.lost_write_any)
            elif event.kind == MISDIRECTED_WRITE:
                injector.loop.schedule_at(
                    at, injector.misdirected_write_any
                )
            else:  # pragma: no cover - generator only emits known kinds
                raise ConfigurationError(f"unknown chaos kind {event.kind!r}")
        return len(self.events)

    def describe(self) -> str:
        header = (
            f"chaos schedule seed={self.seed} horizon={self.horizon_ms:.0f}ms "
            f"events={len(self.events)}"
        )
        return "\n".join([header] + [f"  {e}" for e in self.events])

    def __len__(self) -> int:
        return len(self.events)
