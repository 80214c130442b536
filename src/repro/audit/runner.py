"""Seeded audit runs: one spine, a table of profiles.

:func:`run_audit` walks every profile (:mod:`repro.audit.profiles`)
through the same five phases -- build the world, arm it (auditors, control
planes, replicas, a seeded :class:`~repro.sim.chaos.ChaosSchedule`), drive
the profile's client through the turbulence, settle, judge -- and returns
an :class:`AuditReport`: zero violations means every safety invariant held
on every state transition of the run, and the gates the profile's judge
returns say whether its disaster was survived inside budget.  What each
tier measured is a :class:`repro.verdict.Section` of the report; a sweep's
footer (:func:`merged_sections`) is the merge of its seeds' sections.

Everything is reproducible from the seed: the world, the chaos schedule,
and the workload all derive their randomness from it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.audit.auditor import AuditViolation
from repro.audit.profiles import PROFILES
from repro.history import check
from repro.sim.chaos import ChaosSchedule
from repro.storage.backend import AZS
from repro.verdict import Section


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
    """What a caller varies in one audit run (everything derives from
    ``seed``); what a profile is lives in its row.  Build a profile's run
    with ``PROFILES[name].configure(AuditRunConfig(...))``."""

    seed: int = 7
    steps: int = _flag(
        1000, "--steps", "client operations per seed", cli_default=2000
    )
    replicas: int = _flag(1, "--replicas", "read replicas attached")
    tail_size: int = _flag(
        48, "--tail", "protocol events kept for the violation report tail"
    )
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
    pg_count: int = _flag(
        1, "--pgs",
        "override the protection-group count (default: 1, or the "
        "profile's)",
        cli_default=0, over_profile=True, metavar="N",
    )
    #: Arm per-payload-type network accounting (a Counter update per
    #: simulated message; sweeps only need the aggregate counters).
    detailed_stats: bool = False
    #: The row of :data:`~repro.audit.profiles.PROFILES` that runs
    #: (:meth:`~repro.audit.profiles.Profile.configure` names it).
    profile: str = "chaos"
    geo_ack_mode: str = _flag(
        "auto", "--geo-ack",
        "geo commit ack mode; 'auto' alternates by seed parity so a sweep "
        "covers both RPO regimes",
        choices=("auto", "sync", "async"),
    )
    proxy_sessions: int = _flag(
        100_000, "--proxy-sessions",
        "concurrent logical sessions per seed behind the proxy",
        metavar="N",
    )
    proxy_pool: int = _flag(
        128, "--proxy-pool", "the proxy's backend connection-pool size",
        metavar="N",
    )
    backend: str = _flag(
        "aurora", "--backend", "storage backend every world is built on",
        choices=("aurora", "taurus"),
    )


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
    events_executed: int = 0
    wall_clock_s: float = 0.0
    #: What each tier measured, by name, in print order.
    sections: dict[str, Section] = field(default_factory=dict)
    #: The profile's gates, by the name a section prints them under:
    #: None = not armed, else whether it held (docs/AUDIT.md "Profiles").
    gates: dict[str, bool | None] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and False not in self.gates.values()

    # What the repo benchmark reads of a chaos run.
    @property
    def repairs(self):
        """Self-healing telemetry (None when the healer was not armed)."""
        return self.sections.get("repairs")

    @property
    def failovers(self):
        """Failover telemetry (None when the coordinator was not armed)."""
        return self.sections.get("failovers")

    @property
    def unrepaired(self) -> int:
        """Confirmed-dead segments left unrepaired at run end."""
        return self.repairs.unrepaired if self.repairs is not None else 0

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
        for section in self.sections.values():
            lines += section.render_lines(self.gates)
        if self.violations:
            lines += ["", f"VIOLATIONS (reproduce with --seed {self.seed}):"]
            for violation in self.violations:
                lines.append(f"  {violation.invariant}: {violation.subject}")
                lines.append(f"    {violation.detail}")
            lines += ["", "event log tail:"]
            lines += [f"  {event}" for event in self.event_tail]
        return "\n".join(lines)


def merged_sections(reports: list[AuditReport]) -> dict[str, Section]:
    """A sweep's sections: per name, the merge of the seeds' sections (its
    footer is their ``footer_lines``)."""
    merged: dict[str, Section] = {}
    for report in reports:
        for name, section in report.sections.items():
            merged.setdefault(name, type(section)()).merge(section)
    return merged


def run_audit(config: AuditRunConfig | None = None) -> AuditReport:
    """Run one seeded scenario with the invariant auditor armed."""
    cfg = config if config is not None else AuditRunConfig()
    wall_start = time.perf_counter()
    profile = PROFILES[cfg.profile]

    # Build the world: the one place a gate's world is made, so every
    # cross-cutting option (backend, node settings, stats detail) is
    # applied here and nowhere downstream.
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
    mix = profile.chaos_mix()
    if mix is not None:
        schedule = ChaosSchedule.generate(
            seed=cfg.seed,
            nodes=sorted(run.nodes),
            azs={az: world.failures.az_nodes(az) for az in AZS},
            horizon_ms=run.horizon_ms,
            mix=mix,
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
    run.judgement = check(client.history, run.auditors[0].flag)
    verdict = profile.judge(run, client)

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
    return AuditReport(**{**common, **verdict})


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
