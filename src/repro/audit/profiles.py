"""The audit profiles: six rows of data over one spine.

A :class:`Profile` says what :func:`repro.audit.runner.run_audit` builds,
arms, drives, settles and judges -- as field overrides on
:class:`~repro.audit.runner.AuditRunConfig`, its own data (the planes and
scenarios it arms, its chaos mix, a few numbers), and references to the
phase functions in this module.  Adding a scenario is adding a row.  A
phase never asks which profile it runs under: what differs between
profiles is in the row, and what differs between runs is in the config.
A value that only a row ever sets is the row's data, not a config field.
The phase functions' docstrings are the profile's documentation: the
"Profiles" table of docs/AUDIT.md and the switches' ``--help`` are
rendered from them (:func:`profiles_table`, :meth:`Profile.describe`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.audit.auditor import Auditor
from repro.audit.clients import (
    ClusterClient,
    GeoClient,
    ProxyClient,
    spin_until,
)
from repro.audit.integrity import (
    EXPOSURE_WINDOW,
    IntegrityLog,
    IntegritySummary,
)
from repro.db.cluster import AuroraCluster
from repro.db.instance import InstanceState
from repro.history import Judgement
from repro.repair import RepairConfig
from repro.repair.detector import Health
from repro.repair.failover import FailoverSummary
from repro.repair.metrics import ACTIVE, RepairSummary
from repro.sim.chaos import CHAOS, FLEET, GEO, INTEGRITY, WRITER_PERIODS, Mix


@dataclass
class Run:
    """One scenario in flight: what the phases hand each other."""

    cfg: object
    #: An ``AuroraCluster`` or a ``GeoCluster``: anything with ``loop``,
    #: ``network``, ``failures`` and ``run_for``.
    world: object
    #: The storage nodes the chaos schedule may hit.
    nodes: dict
    auditors: list = field(default_factory=list)
    horizon_ms: float = 0.0
    #: Absolute sim time the chaos horizon ends at.
    chaos_end_ms: float = 0.0
    chaos_events: int = 0
    #: The client's history, judged once the run settles.
    judgement: Judgement | None = None

    @property
    def profile(self) -> Profile:
        """The row the run is of (the config names it)."""
        return PROFILES[self.cfg.profile]


# ----------------------------------------------------------------------
# Build world
# ----------------------------------------------------------------------
def _cluster_world(cfg, profile: Profile) -> Run:
    """One cluster on the chosen `--backend`."""
    cluster = AuroraCluster.build(
        seed=cfg.seed, backend=cfg.backend, pg_count=cfg.pg_count,
        **profile.node_settings,
    )
    return Run(cfg, cluster, cluster.nodes)


def _geo_world(cfg, profile: Profile) -> Run:
    """A two-region Global Database over a lossy WAN; sync ack mode on
    even seeds, async on odd (`--geo-ack` pins one), so a sweep covers
    both RPO regimes."""
    from repro.geo import SYNC, GeoCluster, GeoConfig

    ack_mode = cfg.geo_ack_mode
    if ack_mode == "auto":
        ack_mode = SYNC if cfg.seed % 2 == 0 else "async"
    geo = GeoCluster.build(
        GeoConfig(seed=cfg.seed, ack_mode=ack_mode),
        backend=cfg.backend,
        pg_count=cfg.pg_count,
    )
    return Run(cfg, geo, geo.primary.nodes)


# ----------------------------------------------------------------------
# Arm
# ----------------------------------------------------------------------
def _arm_cluster(run: Run) -> None:
    """One auditor on every protocol component; the self-healing plane
    (`heal`) and `replicas` read replicas as the config asks, and the
    database-tier failover plane as the row asks (`failover`)."""
    cfg, storm, cluster = run.cfg, run.profile.storm, run.world
    run.auditors.append(Auditor(tail_size=cfg.tail_size))
    cluster.arm_auditor(run.auditors[0])
    if cfg.heal:
        cluster.arm_healer(
            repair_config=RepairConfig(
                baseline_transfer_ms=storm.transfer_ms if storm else 0.0
            )
        )
    for _ in range(cfg.replicas):
        cluster.add_replica()
    if run.profile.failover:
        cluster.arm_failover()


def _arm_integrity(run: Run) -> None:
    """The cluster's planes, plus the corruption ledger that registers
    every injection the instant it lands, over a fast scrub rotation."""
    _arm_cluster(run)
    ledger = IntegrityLog(run.world.loop, run.auditors[0])
    run.world.failures.attach_storage(run.nodes.values(), ledger)
    # GC, truncation, and restores can destroy corrupt bytes without the
    # repair hooks firing; the periodic reconcile closes those entries so
    # the unrepaired gate only counts damage that is actually still live.
    ledger.start_reconcile(run.nodes.values())


def _arm_geo(run: Run) -> None:
    """One auditor per volume, plus the DR plane."""
    tail_size = run.cfg.tail_size
    run.auditors += [Auditor(tail_size=tail_size), Auditor(tail_size=tail_size)]
    run.world.arm_auditors(*run.auditors)
    run.world.arm_geo_failover()


# ----------------------------------------------------------------------
# Settle
# ----------------------------------------------------------------------
def _run_out_chaos(run: Run) -> None:
    """Advance to the end of the chaos horizon: the workload usually
    finishes in simulated time well before the last scheduled event, and
    a gate must not pass for never having met its disaster."""
    while run.world.loop.now < run.chaos_end_ms:
        run.world.run_for(50.0)


def _await_failover_drained(cluster) -> None:
    """Until the failover plane is idle and a writer is open again."""

    def drained() -> bool:
        writer = cluster.writer
        return (
            cluster.failover.idle
            and not cluster.failover_in_progress
            and writer is not None
            and writer.state is InstanceState.OPEN
        )

    spin_until(cluster, drained)


def _member_health(cluster) -> list:
    """The monitor's verdict on every current member of every PG."""
    metadata = cluster.metadata
    return [
        cluster.health.state_of(member)
        for pg_index in metadata.pg_indexes()
        for member in metadata.membership(pg_index).members
    ]


def _settle_cluster(run: Run, client: ClusterClient) -> None:
    cluster = run.world
    if run.profile.failover:
        _run_out_chaos(run)
        _await_failover_drained(cluster)
        client.settled()
    if run.cfg.heal:
        # Keep the simulation rolling until the healer drains: background
        # faults all heal (chaos durations are bounded, the background
        # renewal process stops at its horizon), so every outstanding
        # repair converges given time.  A member merely *suspected* still
        # counts -- a failure near the end of the horizon is inside its
        # confirmation window when settling starts, and breaking out then
        # would strand its repair mid-flight.
        spin_until(
            cluster,
            lambda: cluster.healer.idle and all(
                state is Health.HEALTHY
                for state in _member_health(cluster)
            ),
            keepalive=client.keepalive,
        )
        client.settled()


def _settle_integrity(run: Run, client: ClusterClient) -> None:
    cluster = run.world
    failures = cluster.failures
    ledger = failures.integrity_probe
    _run_out_chaos(run)
    if not ledger.records:
        # Non-vacuity backstop: a schedule whose draws all missed (no
        # eligible victim at fire time -- a caught-up fleet has nothing
        # above its GC floors) would let the gate pass without exercising
        # anything.  Write fresh records, then land one corruption
        # deterministically before settling.
        injectors = (
            failures.bit_rot, failures.lost_write, failures.misdirected_write,
        )
        for attempt in range(30):
            # Inject right after the write lands, before the next PGMRPL
            # update hoists the GC floor over the fresh records and
            # closes the eligibility window again.
            client.keepalive(attempt)
            inject = injectors[attempt % len(injectors)]
            landed = failures.inject_anywhere(inject) is not None
            cluster.run_for(60.0)
            if landed:
                break
    # Keep the fleet scrubbing -- with light keepalive traffic so SCLs and
    # gossip keep advancing -- until every open corruption closes.
    spin_until(
        cluster, lambda: ledger.open_count() == 0, keepalive=client.keepalive
    )
    client.settled()
    ledger.audit_unrepaired(EXPOSURE_WINDOW.limit_ms)


def _settle_proxy(run: Run, client: ProxyClient) -> None:
    _await_failover_drained(run.world)
    run.world.run_for(200.0)
    client.workload.reconcile()


def _settle_geo(run: Run, client: GeoClient) -> None:
    geo = run.world
    _run_out_chaos(run)  # the region event may fire late
    spin_until(
        geo, lambda: geo.promoted and geo.geo_failover.idle, spins=2000
    )
    geo.run_for(500.0)
    client.maybe_reconcile()
    geo.check_fencing(run.auditors[0])


# ----------------------------------------------------------------------
# Judge: each returns the AuditReport's sections and gates (and the common
# fields its client counts differently)
# ----------------------------------------------------------------------
def _judge_cluster(run: Run, client: ClusterClient) -> dict:
    """Zero violations; nothing confirmed dead left unrepaired; the
    planted transition rolled back; under `failover`, every failover
    resolved with its write-unavailability window inside the 30 s budget;
    under a `storm`, its `min_concurrent` repairs in flight at once.  The
    sweep footer reports detection/MTTR and failover-window distributions
    and durability vs the paper's C7 window."""
    cfg, profile, cluster = run.cfg, run.profile, run.world
    sections = {}
    gates = dict(planted_rollback=client.planted_rollback_ok)
    if cfg.heal:
        repairs = sections["repairs"] = cluster.healer.summary()
        counters = cluster.health.counters
        repairs.suspected = counters["suspected"]
        repairs.confirmed_dead = counters["confirmed_dead"]
        repairs.false_positives = counters["false_positives"]
        repairs.storm_kills = len(client.fleet_killed)
        # Records still in flight, PGs parked in a dual membership, and
        # members the monitor still holds confirmed-dead.  (A ``stalled``
        # record alone does not count: its retry covers the same segment.)
        repairs.unrepaired = (
            sum(1 for r in cluster.healer.records if r.outcome == ACTIVE)
            + sum(
                1
                for pg_index in cluster.metadata.pg_indexes()
                if not cluster.metadata.membership(pg_index).is_stable
            )
            + _member_health(cluster).count(Health.DEAD)
        )
        gates["repairs"] = repairs.ok
        if profile.storm is not None:
            gates["concurrency"] = (
                repairs.peak_concurrent >= profile.storm.min_concurrent
            )
    if profile.failover:
        failovers = sections["failovers"] = cluster.failover.summary()
        failovers.writer_kills = client.writer_kills
        gates["failover"] = failovers.ok
    return dict(sections=sections, gates=gates)


def _judge_integrity(run: Run, client: ClusterClient) -> dict:
    """At least one corruption injected (a seed whose draws all missed
    gets a deterministic backstop, so the gate cannot pass vacuously);
    zero corrupt reads served; no repair sourced from a corrupt copy;
    every corruption repaired inside the 12 s exposure budget; zero
    violations underneath.  The sweep footer merges MTTD/MTTR/exposure
    (`--integrity-json` writes it)."""
    nodes = run.nodes.values()
    section = run.world.failures.integrity_probe.summary()
    section.backends = (run.cfg.backend,)
    for counter in (
        "reads_intercepted", "ingest_rejects", "vote_rounds", "vote_repairs",
        "scrub_runs",
    ):
        setattr(section, counter, sum(n.counters[counter] for n in nodes))
    section.versions_quarantined = sum(
        n.segment.stats["versions_quarantined"] for n in nodes
    )
    return dict(
        sections=dict(integrity=section),
        gates=dict(
            integrity=section.ok
            and section.injected >= 1
            and not run.auditors[0].violations
        ),
    )


def _judge_proxy(run: Run, client: ProxyClient) -> dict:
    """The kill happened, produced exactly one promotion and was observed
    at the client edge (else the recovery gate would pass vacuously); zero
    acked-write loss on the post-settle re-read and zero read-your-writes
    violations; every session outage inside the 5 s budget; steady-state
    replica time-lag p95 inside the 10 ms SLO.  The sweep footer merges
    the serving reports."""
    stats = client.workload.stats
    serving = client.proxy.summary()
    serving.sessions = run.cfg.proxy_sessions
    serving.ops = stats.ops_completed
    serving.ryw_violations = run.judgement.count("private")
    serving.lost_acked_writes = len(run.judgement.lost)
    # The failover telemetry covers the kill; serving adds the client-edge
    # view of it.
    failovers = run.world.failover.summary()
    failovers.writer_kills = client.writer_kills
    return dict(
        chaos_events=client.writer_kills,
        sections=dict(failovers=failovers, serving=serving),
        gates=dict(
            proxy=serving.ok
            and client.writer_kills == 1
            and client.recoveries == 1
            and bool(serving.recovery)
            and not run.auditors[0].violations
        ),
    )


def _judge_geo(run: Run, client: GeoClient) -> dict:
    """Promoted exactly once inside the 30 s RTO budget; every region
    record terminal (false-positive standdowns roll back cleanly); the
    acked-commit log reconciled against the promoted region with zero
    sync-acked loss and async loss only beyond the applied frontier; the
    deposed primary provably fenced; zero violations on either volume.
    The sweep footer merges the RPO/RTO distributions."""
    geo = run.world
    if client.reconciled:
        # The recovery point is the last ack the applied frontier
        # provably covered, not value equality: a lost delete whose key is
        # also absent from the promoted region matches by coincidence.
        record, judged = geo.promoted_record, run.judgement
        record.lost_commits = len(judged.lost)
        if judged.lost:
            recovery_point = max(judged.covered, default=0.0)
            record.rpo_ms = max(0.0, max(judged.reconciled) - recovery_point)
        record.notes.append(
            f"reconciled {len(judged.reconciled)} key(s), "
            f"lost {len(judged.lost)}"
        )
    section = geo.geo_failover.summary()
    section.ack_modes = (geo.config.ack_mode,)
    return dict(
        writer_recoveries=sum(
            r.attempts for r in geo.geo_failover.records
        ),
        sections=dict(geo=section),
        gates=dict(
            geo=geo.promoted
            and section.promoted == 1
            and section.ok
            and client.reconciled
        ),
    )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AtLeast:
    """An override that only ever raises a field: ``max(field, floor)``."""

    floor: float


@dataclass(frozen=True)
class Storm:
    """A fleet storm: mid-run, permanently kill one segment in each of
    ``kills`` distinct PGs at once, then a second member of the first storm
    PG (same-PG queueing under fleet load).  Each repair models a
    ``transfer_ms`` bulk copy -- in the real system the ~10 GB segment copy
    dominates the repair window, which is why simultaneous failures
    overlap -- and the run fails unless ``min_concurrent`` repairs were in
    flight at once."""

    kills: int
    min_concurrent: int
    transfer_ms: float


@dataclass(frozen=True)
class Cut:
    """One sizing of a gate: ``seeds`` seeds from 0 of ``steps`` steps
    each, plus ``extra`` ``audit-run`` arguments (``{backend}`` in one is
    the backend its command runs)."""

    steps: int
    seeds: int
    extra: tuple[str, ...] = ()


@dataclass(frozen=True)
class Profile:
    """One row.  The phase defaults are the fail-stop scenario's."""

    name: str
    #: The ``audit-run`` switch that selects it (None: the default).
    switch: str | None = None
    #: ``AuditRunConfig`` field -> value, or an :class:`AtLeast` floor.
    overrides: dict = field(default_factory=dict)
    #: Arm the database-tier failover plane: the client runs through a
    #: failover-aware session, the writer kinds join the chaos mix, and a
    #: killed writer is the coordinator's to bring back, not the operator's.
    failover: bool = False
    #: The cluster client's operator part: writer crash/recovery cycles,
    #: the mid-run membership change and the planted false positive.
    operator: bool = True
    #: The fleet storm the cluster client raises (None: none).
    storm: Storm | None = None
    #: ``StorageNodeConfig`` fields the world is built with (overrides of
    #: ``AuroraCluster.build``).
    node_settings: dict = field(default_factory=dict)
    world: Callable = _cluster_world
    arm: Callable = _arm_cluster
    #: Simulated ms between arming and the chaos schedule's start.
    settle_ms: float = 10.0
    #: ``(floor ms, ms per step)``: how long the chaos schedule runs.
    horizon: tuple[float, float] = (4000.0, 4.0)
    #: The chaos mix its schedule draws (:meth:`chaos_mix`); None: no
    #: schedule, the client brings its own disaster.
    chaos: Mix | None = CHAOS
    client: Callable = ClusterClient
    settle: Callable = _settle_cluster
    #: ``(run, client) -> AuditReport fields``: the ``sections`` (what a
    #: seed's report and the sweep's footer print) and the ``gates``.
    judge: Callable = _judge_cluster
    #: The row's gate as ``make`` sweeps it, and the cut a CI lane runs
    #: (``python -m repro gates NAME [--ci]``).
    full: Cut | None = None
    ci: Cut | None = None
    #: The gate runs one command per backend named here (none: one
    #: command on the default backend, no ``--backend``).
    backends: tuple[str, ...] = ()

    @property
    def gate(self) -> str:
        """The gate's name: ``audit`` for the default row, else
        ``audit-<row>``."""
        return "audit" if self.switch is None else f"audit-{self.name}"

    def gate_commands(self, ci: bool = False) -> list[list[str]]:
        """The ``audit-run`` argument lists (less ``--jobs``) of the
        gate's full sweep, or of its CI cut."""
        cut = self.ci if ci else self.full
        switch = [self.switch] if self.switch else []
        return [
            [
                "--seed", "0", "--steps", str(cut.steps),
                "--sweep", str(cut.seeds), *switch,
                *(["--backend", backend] if backend else []),
                *(word.format(backend=backend) for word in cut.extra),
            ]
            for backend in self.backends or [None]
        ]

    def configure(self, cfg):
        """Name this row in ``cfg`` and apply its overrides (and return
        it)."""
        cfg.profile = self.name
        for name, value in self.overrides.items():
            if isinstance(value, AtLeast):
                value = max(getattr(cfg, name), value.floor)
            setattr(cfg, name, value)
        return cfg

    def chaos_mix(self) -> Mix | None:
        """The mix a run draws: the row's, with the writer kinds joined
        under `failover`."""
        if self.chaos is None or not self.failover:
            return self.chaos
        return self.chaos.joined(WRITER_PERIODS)

    def describe(self) -> tuple[str, str, str, str]:
        """(overrides and row data, what is armed, what the chaos and the
        client are, what is judged): the row's data, then its functions'
        own words."""
        default = Profile(self.name)
        overrides = ", ".join(
            [
                f"{name}>={value.floor:g}" if isinstance(value, AtLeast)
                else f"{name}={value}"
                for name, value in self.overrides.items()
            ]
            + [
                f"{name}={getattr(self, name)}"
                for name in ("failover", "operator", "storm")
                if getattr(self, name) != getattr(default, name)
            ]
        )
        chaos = ""
        if self.chaos is not None:
            floor_ms, ms_per_step = self.horizon
            chaos = (
                self.chaos.about
                + f" Over max({floor_ms / 1000:g} s, {ms_per_step:g} ms x"
                " steps). "
            )
        return (
            overrides,
            " ".join(f"{self.world.__doc__} {self.arm.__doc__}".split()),
            " ".join(f"{chaos}Client: {self.client.__doc__}".split()),
            " ".join(self.judge.__doc__.split()),
        )


#: The fail-stop control planes stay off in the profiles that answer
#: another kind of disaster: each has its own gate, and a profile judges
#: one thing.
_QUIET = dict(heal=False, background_failures=False)

PROFILES: dict[str, Profile] = {
    profile.name: profile
    for profile in (
        Profile("chaos", full=Cut(500, 20), ci=Cut(500, 5)),
        # A 10-PG volume under correlated AZ bursts, a 9-PG kill storm
        # with a same-PG double fault, and a modeled bulk copy per repair
        # so the repairs overlap.
        Profile(
            "fleet",
            "--fleet",
            overrides=dict(pg_count=AtLeast(10), replicas=AtLeast(2)),
            failover=True,
            storm=Storm(kills=9, min_concurrent=8, transfer_ms=750.0),
            chaos=FLEET,
            full=Cut(500, 20),
            ci=Cut(300, 3),
        ),
        # Replicas for the failover plane to promote.
        Profile(
            "failover", "--failover", overrides=dict(replicas=AtLeast(2)),
            failover=True, full=Cut(500, 20), ci=Cut(500, 3),
        ),
        Profile(
            "geo",
            "--geo",
            overrides=_QUIET,
            world=_geo_world,
            arm=_arm_geo,
            horizon=(24_000.0, 8.0),
            chaos=GEO,
            client=GeoClient,
            settle=_settle_geo,
            judge=_judge_geo,
            full=Cut(400, 20),
            ci=Cut(400, 5),
        ),
        # The single kill is the disaster under test; the replica fleet
        # and the failover coordinator are what the proxy rides on.
        Profile(
            "proxy",
            "--proxy",
            overrides=dict(_QUIET, replicas=AtLeast(3)),
            failover=True,
            settle_ms=200.0,  # replicas attach and catch up
            horizon=(12_000.0, 40.0),
            chaos=None,
            client=ProxyClient,
            settle=_settle_proxy,
            judge=_judge_proxy,
            full=Cut(400, 20),
            ci=Cut(300, 2, ("--proxy-sessions", "20000")),
        ),
        # No operator writer crash cycles, so torn-write restarts are the
        # only instance churn; the scrub rotation is fast because the
        # horizon is seconds, not hours (the repair budget assumes about
        # two rotations of detection latency).
        Profile(
            "integrity",
            "--integrity",
            overrides=_QUIET,
            operator=False,
            node_settings=dict(scrub_interval=400.0),
            arm=_arm_integrity,
            horizon=(6000.0, 4.0),
            chaos=INTEGRITY,
            settle=_settle_integrity,
            judge=_judge_integrity,
            full=Cut(500, 20),
            # CI keeps each backend's merged report as an artifact.
            ci=Cut(400, 5, ("--integrity-json", "integrity-{backend}.json")),
            backends=("aurora", "taurus"),
        ),
    )
}


def profiles_table() -> str:
    """The "Profiles" table of docs/AUDIT.md, rendered from the rows."""
    rows = [
        "| Profile | Gate: steps x seeds | Overrides and row data "
        "| World and planes | Chaos | Judged |",
        "|---|---|---|---|---|---|",
    ]
    default = PROFILES["chaos"].describe()
    for profile in PROFILES.values():
        name = f"`{profile.name}`"
        cells = profile.describe()
        if profile.switch:
            name += f" (`{profile.switch}`)"
            cells = [
                "as `chaos`" if cell == shared else cell
                for cell, shared in zip(cells, default)
            ]
        rows.append(
            " | ".join(["| " + name, _sizing(profile), *cells]) + " |"
        )
    return "\n".join(rows)


def _sizing(profile: Profile) -> str:
    """The gate's cell of the table: its full sweep and CI cut."""
    cuts = [
        " ".join(
            [f"{cut.steps} x {cut.seeds}"]
            + ([f"`{' '.join(cut.extra)}`"] if cut.extra else [])
        )
        for cut in (profile.full, profile.ci)
    ]
    backends = (
        f"; each on {', '.join(profile.backends)}" if profile.backends else ""
    )
    return f"`{profile.gate}`: {cuts[0]}, CI {cuts[1]}{backends}"


def budgets_table() -> str:
    """The "Budgets" table of docs/AUDIT.md, rendered from the rows."""
    from repro.db.proxy import ServingSummary
    from repro.geo import GeoFailoverSummary

    rows = [
        "| Line | Limit | Judged | Prints | Source |",
        "|---|---|---|---|---|",
    ]
    for kind in (
        RepairSummary, FailoverSummary, GeoFailoverSummary, ServingSummary,
        IntegritySummary,
    ):
        for budget in kind.budgets():
            label = budget.label.format(limit=budget.limit).strip(": ")
            compare = "<" if budget.strict else "<="
            met, exceeded = (
                words.replace("{used:.1%}", "N%").replace("{worst:.0f}", "N")
                for words in (budget.met, budget.exceeded)
            )
            rows.append(
                f"| `{label}` | {budget.limit} | {budget.statistic} of "
                f"`{kind.__name__}.{budget.judged}` {compare} limit "
                f"| `{met}` / `{exceeded}` | {budget.source} |"
            )
    return "\n".join(rows)
