"""Seeded audit runs: one spine, a table of profiles.

:func:`run_audit` walks every profile (:mod:`repro.audit.profiles`)
through the same five phases -- build the world, arm it (auditors, control
planes, replicas, a seeded :class:`~repro.sim.chaos.ChaosSchedule`), drive
the profile's client through the turbulence, settle, judge -- and returns
an :class:`AuditReport`: zero violations means every safety invariant held
on every state transition of the run, and the profile's own gates say
whether its disaster was survived inside budget.

Everything is reproducible from the seed: the world, the chaos schedule,
and the workload all derive their randomness from it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.audit.auditor import AuditViolation
from repro.audit.profiles import PROFILES, Profile
from repro.repair.failover import FailoverSummary
from repro.repair.metrics import RepairSummary, summarize
from repro.sim.chaos import ChaosSchedule, fleet_chaos_config


def _flag(default, flag: str, help: str, **argument):
    """A config field ``audit-run`` exposes as ``flag``: ``repro.cli``
    derives the argument from this metadata.  A bool field becomes a
    switch that flips its default; ``cli_default`` is the command line's
    default where it differs from the field's; ``over_profile`` marks a
    flag that, when given, is applied after the profile's overrides;
    anything else is passed to ``add_argument``."""
    return field(
        default=default, metadata={"flag": flag, "help": help, **argument}
    )


@dataclass
class AuditRunConfig:
    """Shape of one audit run (everything derives from ``seed``).  A
    profile is a set of overrides on these fields: build one with
    ``PROFILES[name].configure(AuditRunConfig(...))``."""

    seed: int = 7
    steps: int = _flag(
        1000, "--steps", "client operations per seed", cli_default=2000
    )
    replicas: int = _flag(1, "--replicas", "read replicas attached")
    keys: int = 24
    tail_size: int = _flag(
        48, "--tail", "protocol events kept for the violation report tail"
    )
    #: Simulated ms allowed per client operation before it is counted as
    #: an availability error (chaos makes timeouts normal, not fatal).
    op_timeout_ms: float = 2500.0
    #: Crash + recover the writer every N steps (0 = derived from steps).
    writer_crash_every: int = 0
    #: Run a live segment replacement mid-run (skipped on tiny runs).
    #: With healing on it is a *permanent* segment crash that the healer
    #: must detect and repair; without, the operator replaces it.
    membership_change: bool = True
    heal: bool = _flag(
        True, "--no-heal",
        "disable the self-healing control plane (health monitor + repair "
        "planner)",
    )
    background_failures: bool = _flag(
        True, "--no-background",
        "disable stochastic MTTF/MTTR background node failures (the "
        "fleet-wide churn the healer runs against)",
    )
    background_mttf_ms: float = _flag(
        3500.0, "--mttf", "background failure MTTF in simulated ms",
        metavar="MS",
    )
    background_mttr_ms: float = _flag(
        150.0, "--mttr", "background failure MTTR in simulated ms",
        metavar="MS",
    )
    #: Plant a false-positive repair mid-run: isolate a healthy segment
    #: until it is confirmed dead, then let it return mid-hydration and
    #: require the planner to roll the transition back (skipped on tiny
    #: runs or when healing is off).
    plant_false_positive: bool = True
    pg_count: int = _flag(
        1, "--pgs",
        "override the protection-group count (default: 1, or the "
        "profile's)",
        cli_default=0, over_profile=True, metavar="N",
    )
    #: Fleet storm: permanently kill one segment in each of this many
    #: *distinct* non-zero PGs mid-run; the healer must repair them all
    #: concurrently (per-PG serialization allows cross-PG concurrency).
    fleet_kills: int = 0
    #: Also kill a second member of the first storm PG shortly after, so
    #: the sweep exercises same-PG queueing under fleet load.
    fleet_double_fault: bool = False
    #: Correlated AZ bursts (:func:`repro.sim.chaos.fleet_chaos_config`).
    az_bursts: bool = False
    #: Fail the run unless this many repairs were observed in flight at
    #: once (0 disables the gate).
    min_concurrent_repairs: int = 0
    #: Modeled baseline bulk-copy time per repair: in the real system the
    #: ~10GB segment copy dominates the repair window, which is why
    #: simultaneous failures produce many overlapping repairs.
    repair_transfer_ms: float = 0.0
    #: Arm the database-tier failover plane, run the workload through a
    #: failover-aware session, and replace operator-driven writer recovery
    #: with chaos writer kills / grey failures (periods in ms, 0 = none)
    #: the coordinator must answer autonomously.
    failover: bool = False
    writer_kill_period_ms: float = 0.0
    writer_grey_period_ms: float = 0.0
    #: Write-unavailability budget per failover; any terminal failover
    #: over it fails the run.
    failover_budget_ms: float = 30_000.0
    #: Arm per-payload-type network accounting (a Counter update per
    #: simulated message; sweeps only need the aggregate counters).
    detailed_stats: bool = False
    #: The profile markers: which world and client run (docs/AUDIT.md
    #: "Profiles").  Read by :func:`profile_of` and nowhere else.
    geo: bool = False
    proxy: bool = False
    integrity: bool = False
    geo_ack_mode: str = _flag(
        "auto", "--geo-ack",
        "geo commit ack mode; 'auto' alternates by seed parity so a sweep "
        "covers both RPO regimes",
        choices=("auto", "sync", "async"),
    )
    #: Region-loss recovery budget: detection + lease + promotion.
    geo_rto_budget_ms: float = 30_000.0
    proxy_sessions: int = _flag(
        100_000, "--proxy-sessions",
        "concurrent logical sessions per seed behind the proxy",
        metavar="N",
    )
    proxy_pool: int = _flag(
        128, "--proxy-pool", "the proxy's backend connection-pool size",
        metavar="N",
    )
    #: Every session outage must resolve inside the budget; steady-state
    #: replica time lag p95 must stay under the SLO.
    proxy_recovery_budget_ms: float = 5_000.0
    proxy_lag_slo_ms: float = 10.0
    backend: str = _flag(
        "aurora", "--backend", "storage backend every world is built on",
        choices=("aurora", "taurus"),
    )
    #: Injection-to-repair budget per silent corruption.
    integrity_repair_budget_ms: float = 12_000.0


def _gate(label: str, ok: bool, what: str = "", note: str = "") -> str:
    return f"  {label:<21}{what}{'ok' if ok else 'FAILED'}{note}"


@dataclass
class AuditReport:
    """Outcome of one audit run.  Everything is picklable, so a sweep can
    merge the per-seed telemetry in its footer."""

    seed: int
    steps: int
    sim_time_ms: float
    chaos_events: int
    commit_acks: int
    availability_errors: int
    writer_recoveries: int
    protocol_events: int
    violations: list[AuditViolation] = field(default_factory=list)
    event_tail: list[str] = field(default_factory=list)
    #: Self-healing telemetry (None when the healer was not armed).
    repairs: RepairSummary | None = None
    health_counters: dict = field(default_factory=dict)
    #: Confirmed-dead segments left unrepaired at run end.
    unrepaired: int = 0
    #: The gates: None = not armed, else whether it held.  The planted
    #: false positive rolled back; the storm reached the concurrency
    #: floor; every failover resolved inside the budget; the region
    #: promoted once inside the RTO; the serving tier and the integrity
    #: machinery met theirs (docs/AUDIT.md "Profiles").
    planted_rollback_ok: bool | None = None
    concurrency_ok: bool | None = None
    failover_ok: bool | None = None
    geo_ok: bool | None = None
    proxy_ok: bool | None = None
    integrity_ok: bool | None = None
    #: Segments permanently killed by the fleet storm; chaos writer kills.
    fleet_kills: int = 0
    writer_kills: int = 0
    #: Failover telemetry (None when the coordinator was not armed).
    failovers: FailoverSummary | None = None
    #: Geo: the terminal region records, the ack mode this run used, and
    #: the single-run :mod:`repro.analysis.rpo_rto` report.
    geo_records: list = field(default_factory=list)
    geo_ack_mode: str = ""
    geo_rpo_rto: object | None = None
    #: Proxy: the :class:`repro.analysis.serving.ServingReport`.
    serving: object | None = None
    #: Integrity: the :class:`repro.analysis.integrity.IntegrityReport`
    #: and the storage backend audited.
    integrity: object | None = None
    backend: str = ""
    events_executed: int = 0
    wall_clock_s: float = 0.0

    @property
    def ok(self) -> bool:
        gates = (
            self.planted_rollback_ok, self.concurrency_ok, self.failover_ok,
            self.geo_ok, self.proxy_ok, self.integrity_ok,
        )
        return (
            not self.violations
            and self.unrepaired == 0
            and False not in gates
        )

    def render(self) -> str:
        lines = [
            f"audit run: seed={self.seed} steps={self.steps} "
            f"sim_time={self.sim_time_ms:.0f}ms",
            f"  chaos events:        {self.chaos_events}",
            f"  commit acks:         {self.commit_acks}",
            f"  writer recoveries:   {self.writer_recoveries}",
            f"  availability errors: {self.availability_errors}",
            f"  protocol events:     {self.protocol_events}",
            f"  violations:          {len(self.violations)}",
        ]
        if self.repairs is not None:
            counters = self.health_counters
            lines += self.repairs.render_lines()
            lines.append(
                f"  health verdicts:     "
                f"suspected={counters.get('suspected', 0)} "
                f"confirmed={counters.get('confirmed_dead', 0)} "
                f"false_pos={counters.get('false_positives', 0)}"
            )
            if self.unrepaired:
                lines.append(f"  UNREPAIRED segments: {self.unrepaired}")
            if self.planted_rollback_ok is not None:
                lines.append(_gate(
                    "planted false pos:", self.planted_rollback_ok,
                    what="rollback ",
                ))
            if self.fleet_kills:
                lines.append(
                    f"  fleet storm:         {self.fleet_kills} segments "
                    f"killed across distinct PGs"
                )
            if self.concurrency_ok is not None:
                peak = f" (peak {self.repairs.peak_concurrent})"
                lines.append(
                    _gate("concurrency gate:", self.concurrency_ok, note=peak)
                )
        if self.failovers is not None:
            lines.append(f"  writer kills:        {self.writer_kills}")
            lines += self.failovers.render_lines()
            if self.failover_ok is not None:
                lines.append(_gate("failover gate:", self.failover_ok))
        if self.geo_ok is not None:
            from repro.geo import GeoFailoverSummary

            lines.append(f"  geo ack mode:        {self.geo_ack_mode}")
            lines += summarize(
                self.geo_records, GeoFailoverSummary
            ).render_lines()
            if self.geo_rpo_rto is not None:
                lines += self.geo_rpo_rto.render_lines()
            lines.append(_gate("geo DR gate:", self.geo_ok))
        if self.proxy_ok is not None:
            # The failover telemetry above already covered the kill; add
            # the client-edge view.
            if self.serving is not None:
                lines += self.serving.render_lines()
            lines.append(_gate("proxy gate:", self.proxy_ok))
        if self.integrity_ok is not None:
            lines.append(f"  storage backend:     {self.backend}")
            if self.integrity is not None:
                lines += self.integrity.render_lines()
            lines.append(_gate("integrity gate:", self.integrity_ok))
        if self.violations:
            lines += ["", f"VIOLATIONS (reproduce with --seed {self.seed}):"]
            for violation in self.violations:
                lines.append(f"  {violation.invariant}: {violation.subject}")
                lines.append(f"    {violation.detail}")
            lines += ["", "event log tail:"]
            lines += [f"  {event}" for event in self.event_tail]
        return "\n".join(lines)


def profile_of(cfg: AuditRunConfig) -> Profile:
    """The profile whose phases run ``cfg``.  ``fleet`` and ``failover``
    are the ``chaos`` profile under other field values, so they need no
    marker of their own."""
    if cfg.geo:
        return PROFILES["geo"]
    if cfg.proxy:
        return PROFILES["proxy"]
    if cfg.integrity:
        return PROFILES["integrity"]
    return PROFILES["chaos"]


def run_audit(config: AuditRunConfig | None = None) -> AuditReport:
    """Run one seeded scenario with the invariant auditor armed."""
    cfg = config if config is not None else AuditRunConfig()
    wall_start = time.perf_counter()
    profile = profile_of(cfg)

    # Build the world: the one place a cluster config is made, so every
    # cross-cutting option (backend, group commit, node settings, stats
    # detail) is applied here and nowhere downstream.
    run = profile.world(cfg, profile)
    world = run.world
    world.network.set_stats_detail(cfg.detailed_stats)

    # Arm: auditors, control planes and replicas; a moment to settle
    # before the storm; the client; then chaos over the horizon.
    profile.arm(run)
    world.run_for(profile.settle_ms)
    floor_ms, ms_per_step = profile.horizon
    run.horizon_ms = max(floor_ms, cfg.steps * ms_per_step)
    run.chaos_end_ms = world.loop.now + run.horizon_ms
    client = profile.client(run)
    if profile.chaos_config is not None:
        chaos = (
            fleet_chaos_config() if cfg.az_bursts else profile.chaos_config()
        )
        if cfg.failover:
            chaos.writer_kill_period_ms = cfg.writer_kill_period_ms
            chaos.writer_grey_period_ms = cfg.writer_grey_period_ms
        schedule = ChaosSchedule.generate(
            seed=cfg.seed,
            nodes=sorted(run.nodes),
            azs={az: world.failures.az_nodes(az)
                 for az in ("az1", "az2", "az3")},
            horizon_ms=run.horizon_ms,
            config=chaos,
        )
        schedule.install(world.failures, **client.chaos_callbacks())
        run.chaos_events = len(schedule)
    if cfg.background_failures:
        world.failures.enable_background_failures(
            sorted(run.nodes),
            mttf_ms=cfg.background_mttf_ms,
            mttr_ms=cfg.background_mttr_ms,
            horizon_ms=run.chaos_end_ms,
        )

    client.run()
    profile.settle(run, client)
    section = profile.judge(run, client)

    auditors = run.auditors
    common = dict(
        seed=cfg.seed,
        steps=cfg.steps,
        sim_time_ms=world.loop.now,
        chaos_events=run.chaos_events,
        commit_acks=sum(a.commit_acks for a in auditors),
        availability_errors=client.availability_errors,
        writer_recoveries=client.recoveries,
        protocol_events=sum(a.events_seen for a in auditors),
        violations=[v for a in auditors for v in a.violations],
        event_tail=[e for a in auditors for e in a.event_tail],
        events_executed=world.loop.events_executed,
        wall_clock_s=time.perf_counter() - wall_start,
    )
    return AuditReport(**{**common, **section})


def run_audit_sweep(
    configs: Iterable[AuditRunConfig], jobs: int = 1
) -> list[AuditReport]:
    """Run many independent audit seeds, optionally across processes.

    Each seed derives every bit of randomness from its own config, so the
    runs are embarrassingly parallel: reports come back in input order and
    are byte-identical to what the sequential path produces.  ``jobs`` is
    a request, not a command: it is clamped to the machine's CPU count as
    well as the config count, because forking more workers than cores buys
    nothing and the pool's setup and pickling make an oversubscribed sweep
    *slower* than the sequential one (6.18 s against 5.16 s at ``--jobs
    4`` on one core).
    """
    configs = list(configs)
    jobs = min(jobs, len(configs), os.cpu_count() or 1)
    if jobs <= 1:
        return [run_audit(cfg) for cfg in configs]
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=jobs) as pool:
        return pool.map(run_audit, configs)
