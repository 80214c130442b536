"""Measurements that need no cluster: closed forms, the pure trackers, and
Monte-Carlo cross-checks on a bare event loop."""

from __future__ import annotations

import math
import random

from repro.analysis.availability import (
    az_failure_survival,
    monte_carlo_availability,
    quorum_availability_under_az_failure,
)
from repro.analysis.cost import CostModel, SegmentMix
from repro.analysis.durability import C7_WINDOW_S, DurabilityModel
from repro.baselines import AriesRecoveryModel
from repro.claims.table import Table
from repro.core.consistency import (
    PGConsistencyTracker,
    VolumeConsistencyTracker,
)
from repro.core.quorum import full_tail_config, majority_config, v6_config
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Actor, Network
from repro.storage.backend import resolve_backend

THREE = ["a", "b", "c"]
SIX = [f"s{i}" for i in range(6)]
AZ3 = {"a": "az1", "b": "az2", "c": "az3"}
AZ6 = {m: f"az{i % 3 + 1}" for i, m in enumerate(SIX)}


def f1_quorum_survival(_backend: str) -> list[Table]:
    m3, v6 = majority_config(THREE), v6_config(SIX)
    survival = Table(
        "Figure 1: quorum survival under correlated failure",
        ["scheme", "AZ failure", "AZ+1", "AZ+2"],
        [
            [name, *(az_failure_survival(expr, az_map, extra)
                     for extra in (0, 1, 2))]
            for name, expr, az_map in (
                ("2/3 write", m3.write_expr, AZ3),
                ("2/3 read", m3.read_expr, AZ3),
                ("4/6 write", v6.write_expr, AZ6),
                ("3/6 read", v6.read_expr, AZ6),
            )
        ],
    )
    p_up = 0.999  # background noise of independent failures
    conditional = Table(
        "Availability conditioned on one AZ lost (p_node_up=0.999)",
        ["quorum", ("availability", ".6f")],
        [
            [name, quorum_availability_under_az_failure(
                expr, az_map, "az1", p_up)]
            for name, expr, az_map in (
                ("2/3 write | AZ down", m3.write_expr, AZ3),
                ("3/6 read | AZ down", v6.read_expr, AZ6),
                ("4/6 write | AZ down", v6.write_expr, AZ6),
            )
        ],
    )
    simulated = monte_carlo_availability(
        v6.read_expr, AZ6,
        p_node_fail=0.02, p_az_fail=0.01, trials=30_000,
        rng=random.Random(1),
    )
    monte_carlo = Table(
        "Monte Carlo 3/6-read availability (corr. AZ events)",
        [("availability", ".4f")],
        [[simulated]],
    )
    return [survival, conditional, monte_carlo]


def f3_worked_example(_backend: str) -> list[Table]:
    """The paper's example, run through the pure trackers."""
    pg1_members = "A1 B1 C1 D1 E1 F1".split()
    pg2_members = "A2 B2 C2 D2 E2 F2".split()
    pg1 = PGConsistencyTracker(1, v6_config(pg1_members))
    pg2 = PGConsistencyTracker(2, v6_config(pg2_members))
    volume = VolumeConsistencyTracker()
    for lsn in range(101, 107):
        volume.register(lsn, 1 if lsn % 2 else 2, mtr_end=True)
    # Records 101, 103 fully acked on PG1; 105 only on 2 members.
    for member in pg1_members[:4]:
        pg1.record_ack(member, 103)
    for member in pg1_members[4:]:
        pg1.record_ack(member, 105)
    # Records 102, 104 fully acked on PG2; 106 only on 3 members.
    for member in pg2_members[:4]:
        pg2.record_ack(member, 104)
    for member in pg2_members[4:]:
        pg2.record_ack(member, 106)
    volume.on_pgcl(1, pg1.pgcl)
    volume.on_pgcl(2, pg2.pgcl)
    return [Table(
        "Figure 3: storage consistency points (paper's worked example)",
        ["point", "paper", "reproduced"],
        [
            ["PGCL (PG1)", 103, pg1.pgcl],
            ["PGCL (PG2)", 104, pg2.pgcl],
            ["VCL", 104, volume.vcl],
        ],
    )]


def _mix(backend: str, **kwargs) -> SegmentMix:
    # The replica arithmetic lives with the backend, not here.
    return SegmentMix.from_replication(
        resolve_backend(backend, **kwargs).replication()
    )


def c6_model(_backend: str) -> list[Table]:
    all_full, full_tail = _mix("aurora"), _mix("aurora", full_tail=True)
    taurus = _mix("taurus")
    rows = []
    for ratio in (0.0, 0.05, 0.1, 0.2, 0.5):
        model = CostModel(log_to_block_ratio=ratio)
        rows.append([
            ratio,
            model.amplification(all_full),
            model.amplification(full_tail),
            model.amplification(taurus),
            100 * model.savings_vs_all_full(full_tail),
        ])
    amplification = Table(
        "C6: bytes stored per user byte (amplification)",
        [("log:block ratio", ".2f"), ("6 full copies", ".2f"),
         ("3 full + 3 tail", ".2f"), ("taurus 2 page + 3 log", ".2f"),
         ("savings %", ".1f")],
        rows,
    )
    config = full_tail_config(["f1", "f2", "f3"], ["t1", "t2", "t3"])
    az_map = {
        "f1": "az1", "t1": "az1",
        "f2": "az2", "t2": "az2",
        "f3": "az3", "t3": "az3",
    }
    survival = Table(
        "C6: the full/tail quorum set under correlated failure",
        ["write survives AZ", "read survives AZ+1", "read survives AZ+2"],
        [[
            az_failure_survival(config.write_expr, az_map, 0),
            az_failure_survival(config.read_expr, az_map, 1),
            az_failure_survival(config.read_expr, az_map, 2),
        ]],
    )
    return [amplification, survival]


def c7_durability(backend: str) -> list[Table]:
    replication = resolve_backend(backend).replication()
    fleet = Table(
        "C7: volume size -> protection groups -> segments (10 GB units)",
        ["volume (TB)", "PGs", "segments (aurora)", f"segments ({backend})"],
        [
            [
                tb,
                DurabilityModel.protection_groups_for_volume(tb),
                DurabilityModel.segments_for_volume(tb),
                DurabilityModel.protection_groups_for_volume(tb)
                * replication.copies_per_pg,
            ]
            for tb in (1, 10, 64)
        ],
    )
    rows = []
    for window_s, label in (
        (10, "10 s (Aurora's 10GB segments)"),
        (600, "10 min"),
        (36_000, "10 h (repairing a 10TB disk)"),
    ):
        model = DurabilityModel(
            segment_mttf_hours=10_000.0,
            repair_window_s=window_s,
            az_failures_per_year=0.5,
        )
        rows.append([
            label,
            model.p_write_quorum_loss(),
            model.p_read_quorum_loss(),
            model.p_volume_read_loss_per_year(64),
        ])
    windows = Table(
        "C7b: quorum-loss probability vs repair window (64 TB volume)",
        ["repair window", ("P(write loss)/window", ".3e"),
         ("P(read loss)/window", ".3e"),
         ("P(volume read loss)/year", ".3e")],
        rows,
    )
    # The paper's window argument with the quorum arithmetic taken from the
    # backend's replication config (Aurora: AZ + 1 more / AZ + 2 more;
    # Taurus: 2 of the 3 log stores, one of which an AZ event can claim).
    model = DurabilityModel.from_replication(
        replication,
        segment_mttf_hours=10_000.0,
        repair_window_s=C7_WINDOW_S,
        az_failures_per_year=0.5,
    )
    per_window = Table(
        f"C7c: per-window quorum-loss probability ({backend})",
        ["backend", "copies", ("P(write loss)/window", ".3e"),
         ("P(read loss)/window", ".3e"), ("windows to read loss", ".3e")],
        [[backend, replication.sync_write_copies,
          model.p_write_quorum_loss(), model.p_read_quorum_loss(),
          model.mean_windows_to_read_loss()]],
    )
    return [fleet, windows, per_window, _c7_monte_carlo()]


class _Dummy(Actor):
    def on_message(self, message) -> None:
        pass


def _c7_monte_carlo() -> Table:
    """Empirical quorum-degradation frequency from the failure injector's
    renewal process, against the closed form."""
    loop = EventLoop()
    rng = random.Random(73)
    network = Network(loop, rng)
    injector = FailureInjector(loop, network, rng)
    nodes = [f"n{i}" for i in range(6)]
    for i, node in enumerate(nodes):
        network.attach(_Dummy(node), az=f"az{i % 3 + 1}")
    # Aggressive MTTF so events are observable in bounded sim time.
    mttf_ms, mttr_ms, horizon = 2_000.0, 200.0, 2_000_000.0
    injector.enable_background_failures(nodes, mttf_ms, mttr_ms, horizon)
    samples = {"total": 0, "write_ok": 0, "read_ok": 0}

    def probe() -> None:
        up = sum(1 for n in nodes if network.is_up(n))
        samples["total"] += 1
        samples["write_ok"] += up >= 4
        samples["read_ok"] += up >= 3

    t = 0.0
    while t < horizon:  # sample the up-set on a fine grid
        loop.schedule_at(t, probe)
        t += 500.0
    loop.run(until=horizon)
    p_down = mttr_ms / (mttf_ms + mttr_ms)
    exact_write = sum(
        math.comb(6, k) * (1 - p_down) ** k * p_down ** (6 - k)
        for k in range(4, 7)
    )
    return Table(
        "C7d: 4/6 and 3/6 availability under the renewal process",
        [("write simulated", ".4f"), ("write closed-form", ".4f"),
         ("read simulated", ".4f")],
        [[samples["write_ok"] / samples["total"], exact_write,
          samples["read_ok"] / samples["total"]]],
    )


def c8_aries_tradeoff(_backend: str) -> list[Table]:
    """The checkpoint dilemma a traditional engine faces -- Aurora's
    storage-side coalescing removes both columns at once."""
    model = AriesRecoveryModel()
    rows = []
    for interval_s in (10, 60, 300, 1800):
        cell = model.checkpoint_interval_tradeoff(
            write_rate_per_s=50_000,
            checkpoint_cost_ms=800.0,
            interval_s=interval_s,
        )
        rows.append([
            interval_s,
            cell["worst_case_recovery_ms"],
            cell["checkpoint_overhead_pct"],
        ])
    return [Table(
        "C8b: ARIES checkpoint interval trade-off (50k writes/s)",
        ["checkpoint every (s)", ("worst-case recovery (ms)", ".0f"),
         ("foreground overhead (%)", ".2f")],
        rows,
    )]
