"""The scenario harness: six profiles over one spine (docs/AUDIT.md).

PR 18 replaced four bespoke audit runners, four ``as_*`` config mutators
and a hand-written ``audit-run`` parser by a profile table.  What the old
form did is recorded here as literals -- the config each gate command
built, the flags ``--help`` listed, one small report per profile -- so
the table is held to it, and planted mutants of the table must be caught.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.audit import PROFILES, AuditRunConfig, merged_sections, run_audit
from repro.audit import clients, profiles
from repro.audit.profiles import (
    AtLeast,
    Cut,
    Profile,
    budgets_table,
    profiles_table,
)
from repro.sim.chaos import CHAOS, FLEET
from tests.conftest import audit_report
from tests.test_chaos import SCHEDULE_DIGESTS, schedule_digests

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``dataclasses.asdict(AuditRunConfig())`` before the profile table, less
#: the fields deleted since: the dead ``boxcar``, the flush policy, the
#: five one-valued budgets (``repro.verdict.Budget`` rows now) and the two
#: writer-chaos periods (``repro.sim.chaos.WRITER_PERIODS`` now).
HEAD_DEFAULTS = {
    "seed": 7, "steps": 1000, "replicas": 1, "keys": 24, "tail_size": 48,
    "op_timeout_ms": 2500.0, "writer_crash_every": 0,
    "membership_change": True, "heal": True, "background_failures": True,
    "background_mttf_ms": 3500.0, "background_mttr_ms": 150.0,
    "plant_false_positive": True, "pg_count": 1, "fleet_kills": 0,
    "fleet_double_fault": False, "az_bursts": False,
    "min_concurrent_repairs": 0, "repair_transfer_ms": 0.0,
    "failover": False, "detailed_stats": False, "geo": False,
    "geo_ack_mode": "auto", "proxy": False,
    "proxy_sessions": 100000, "proxy_pool": 128,
    "integrity": False, "backend": "aurora",
}

# What the parent's ``_audit_config`` + ``as_fleet`` / ``as_geo`` /
# ``as_proxy`` / ``as_integrity`` set away from the defaults.
_WRITER_CHAOS = {"replicas": 2, "failover": True}
_FLEET = {
    **_WRITER_CHAOS, "pg_count": 10, "fleet_kills": 9,
    "fleet_double_fault": True, "az_bursts": True,
    "min_concurrent_repairs": 8, "repair_transfer_ms": 750.0,
}
_QUIET = {
    "membership_change": False, "heal": False, "background_failures": False,
    "plant_false_positive": False,
}
_GEO = {**_QUIET, "replicas": 0, "geo": True}
_PROXY = {**_QUIET, "replicas": 3, "failover": True, "proxy": True}
_INTEGRITY = {**_QUIET, "writer_crash_every": 10**9, "integrity": True}

#: arguments (less ``--seed 0``, ``--sweep N``, ``--jobs K``) -> the fields
#: the parent built away from ``HEAD_DEFAULTS`` (``seed`` is 0 throughout).
#: The first seven are the gates' full-sweep commands, row by row.
HEAD_CONFIGS = {
    "--steps 500": {"steps": 500},
    "--steps 500 --fleet": {"steps": 500, **_FLEET},
    "--steps 500 --failover": {"steps": 500, **_WRITER_CHAOS},
    "--steps 400 --geo": {"steps": 400, **_GEO},
    "--steps 400 --proxy": {"steps": 400, **_PROXY},
    "--steps 500 --integrity --backend aurora": {"steps": 500, **_INTEGRITY},
    "--steps 500 --integrity --backend taurus":
        {"steps": 500, **_INTEGRITY, "backend": "taurus"},
    # Combinations no gate runs: floors keep a larger request, ``--pgs``
    # overrides the profile.  (The parent stacked ``--fleet --failover``
    # too; a second switch now exits 2: STACKED below.)
    "--steps 300 --fleet --pgs 4": {"steps": 300, **_FLEET, "pg_count": 4},
    "--steps 300 --pgs 3 --replicas 4 --failover":
        {"steps": 300, **_WRITER_CHAOS, "pg_count": 3, "replicas": 4},
    "--fleet --replicas 1 --no-heal --no-background --mttf 900 --mttr 50 "
    "--tail 8": {
        "steps": 2000, **_FLEET, "tail_size": 8, "heal": False,
        "background_failures": False, "background_mttf_ms": 900.0,
        "background_mttr_ms": 50.0,
    },
    "--steps 200 --geo --geo-ack sync --pgs 2":
        {"steps": 200, **_GEO, "pg_count": 2, "geo_ack_mode": "sync"},
    "--steps 200 --proxy --replicas 5 --proxy-pool 16":
        {"steps": 200, **_PROXY, "replicas": 5, "proxy_pool": 16},
    # CI's proxy lane (the flag rode on an ``audit-adaptive`` row until
    # that gate went).
    "--steps 300 --proxy --proxy-sessions 20000":
        {"steps": 300, **_PROXY, "proxy_sessions": 20000},
}

#: Stacked switches, which the parent ran as one of them (the first
#: three silently dropped the other: integrity ran without failover, the
#: proxy without the storm, geo as the proxy), or, for ``--fleet
#: --failover``, as the fleet row, which already includes failover.
STACKED = (
    "--integrity --failover", "--proxy --fleet", "--geo --proxy",
    "--steps 300 --fleet --failover",
)

#: The flags ``audit-run --help`` listed at the parent, less
#: ``--group-commit`` (20, plus the ``--seed`` every subcommand shares).
HEAD_FLAGS = {
    "--backend", "--failover", "--fleet", "--geo", "--geo-ack",
    "--integrity", "--integrity-json", "--jobs", "--mttf",
    "--mttr", "--no-background", "--no-heal", "--pgs", "--proxy",
    "--proxy-pool", "--proxy-sessions", "--replicas", "--steps", "--sweep",
    "--tail", "--seed",
}


#: Parent fields a row's path never reads, with the value the parent built
#: there: geo attaches no read replica, and neither the geo nor the proxy
#: client has an operator part (``Profile.operator``).  The rebuilt value
#: may differ; ``test_an_unread_field_is_unread`` runs the parent's.
UNREAD = {
    "geo": {
        "replicas": 0, "membership_change": False,
        "plant_false_positive": False,
    },
    "proxy": {"membership_change": False, "plant_false_positive": False},
}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(AuditRunConfig)}


def parent_fields(config: AuditRunConfig) -> dict:
    """The parent's 28 ``AuditRunConfig`` fields of ``config``'s run,
    rebuilt from where each lives now: the config, its profile's row and
    the client constants."""
    fields = dataclasses.asdict(config)
    name = fields.pop("profile")
    row = PROFILES[name]
    storm = row.storm
    return {
        **fields,
        "keys": clients.KEYS,
        "op_timeout_ms": clients.OP_TIMEOUT_MS,
        "writer_crash_every": 0 if row.operator else 10**9,
        "membership_change": row.operator,
        "plant_false_positive": row.operator,
        "fleet_kills": storm.kills if storm else 0,
        "fleet_double_fault": storm is not None,
        "az_bursts": row.chaos is FLEET,
        "min_concurrent_repairs": storm.min_concurrent if storm else 0,
        "repair_transfer_ms": storm.transfer_ms if storm else 0.0,
        "failover": row.failover,
        **{marker: name == marker for marker in ("geo", "proxy", "integrity")},
    }


def built_config(arguments: str) -> AuditRunConfig:
    args = cli._build_parser().parse_args(
        ["audit-run", "--seed", "0", *arguments.split()]
    )
    return cli._audit_config(args, args.sub_seed)


def differences() -> list[str]:
    """Every field, over every recorded command, where the run the CLI
    builds now is not the one the parent built (an unread field counts at
    the value ``UNREAD`` proves unread)."""
    out = []
    for arguments, changed in HEAD_CONFIGS.items():
        expected = {**HEAD_DEFAULTS, "seed": 0, **changed}
        config = built_config(arguments)
        built = {**parent_fields(config), **UNREAD.get(config.profile, {})}
        out += [
            f"{arguments}: {name}={built.get(name)!r}, parent built "
            f"{expected.get(name)!r}"
            for name in sorted(set(expected) | set(built))
            if built.get(name, "missing") != expected.get(name, "missing")
        ]
    return out


def one_table_findings() -> list[str]:
    """Where the CI file's gate lanes and the rows part: a row's gate with
    no lane or without both cuts, a lane with no row.  The CI file is read
    as text (no YAML parser in the dependencies)."""
    ci = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
    job = ci[ci.index("\n  audit-gates:"):]
    lanes = re.search(r"(?m)^ +gate: \[(.*)\]$", job).group(1)
    lanes = [lane.strip() for lane in lanes.split(",")]
    gates = [row.gate for row in PROFILES.values()]
    return (
        [f"{gate}: no CI lane" for gate in gates if gate not in lanes]
        + [f"{lane}: no row" for lane in lanes if lane not in gates]
        + [
            f"{row.gate}: no {cut} cut"
            for row in PROFILES.values()
            for cut in ("full", "ci")
            if getattr(row, cut) is None
        ]
    )


class TestProfilesBuildTheParentsConfigs:
    def test_every_gate_command_is_recorded(self):
        commands = [
            re.sub(r" ?--(seed|sweep) \d+", "", " ".join(arguments)).strip()
            for row in PROFILES.values()
            for arguments in row.gate_commands()
        ]
        assert commands == list(HEAD_CONFIGS)[:7]

    def test_field_by_field(self):
        assert differences() == []

    def test_at_most_the_parents_fields(self):
        """What a caller varies, and ``profile`` in place of the three
        markers: every other parent field is row data or a client
        constant now (:func:`parent_fields`)."""
        assert _CONFIG_FIELDS - set(HEAD_DEFAULTS) == {"profile"}
        assert len(_CONFIG_FIELDS) == 15

    @staticmethod
    def plant(monkeypatch, name, **changes):
        """Row ``name`` with ``changes``, in the one table the CLI, the
        runner and :func:`parent_fields` read."""
        mutant = dataclasses.replace(PROFILES[name], **changes)
        monkeypatch.setitem(PROFILES, name, mutant)

    @pytest.mark.parametrize("name, forgotten", [
        ("fleet", "pg_count"), ("failover", "replicas"),
        ("geo", "background_failures"), ("proxy", "heal"),
        ("proxy", "replicas"), ("integrity", "heal"),
    ])
    def test_a_row_that_forgets_an_override_is_caught(
        self, monkeypatch, name, forgotten
    ):
        overrides = dict(PROFILES[name].overrides)
        del overrides[forgotten]
        self.plant(monkeypatch, name, overrides=overrides)
        assert any(f" {forgotten}=" in line for line in differences())

    @pytest.mark.parametrize("name, forgotten, caught", [
        ("fleet", {"storm": None}, "fleet_kills"),
        ("fleet", {"chaos": CHAOS}, "az_bursts"),
        ("fleet", {"failover": False}, "failover"),
        ("failover", {"failover": False}, "failover"),
        ("proxy", {"failover": False}, "failover"),
        ("integrity", {"operator": True}, "writer_crash_every"),
    ])
    def test_a_row_that_forgets_its_data_is_caught(
        self, monkeypatch, name, forgotten, caught
    ):
        self.plant(monkeypatch, name, **forgotten)
        assert any(f" {caught}=" in line for line in differences())

    @pytest.mark.parametrize("name, field", [
        ("failover", "replicas"), ("proxy", "replicas"),
    ])
    def test_a_floor_applied_as_an_assignment_is_caught(
        self, monkeypatch, name, field
    ):
        floor = PROFILES[name].overrides[field]
        assert isinstance(floor, AtLeast)
        overrides = {**PROFILES[name].overrides, field: floor.floor}
        self.plant(monkeypatch, name, overrides=overrides)
        assert any(f" {field}=" in line for line in differences())

    @pytest.mark.parametrize("name, mutant, moved", [
        ("WRITER_PERIODS", {"kill_writer": 6000.0},
         {"failover@4s", "failover@30s", "fleet@4s", "fleet@30s"}),
        # Swapped periods draw one of each at 4 s either way.
        ("WRITER_PERIODS", {"kill_writer": 5000.0, "grey_writer": 6000.0},
         {"failover@30s", "fleet@30s"}),
        ("FLEET", FLEET.joined({"az_burst": 1900.0}),
         {"fleet@4s", "fleet@30s"}),
    ])
    def test_a_mix_mutant_is_caught(self, monkeypatch, name, mutant, moved):
        """The mixes a row's run draws are data too: a planted mutant of
        one (in the module and in the rows that name it) moves the pinned
        schedules of exactly the profiles that draw it
        (tests/test_chaos.py)."""
        original = getattr(profiles, name)
        monkeypatch.setattr(profiles, name, mutant)
        for row in list(PROFILES.values()):
            if row.chaos is original:
                self.plant(monkeypatch, row.name, chaos=mutant)
        digests = schedule_digests()
        assert {
            key for key in digests if digests[key] != SCHEDULE_DIGESTS[key]
        } == moved

    def test_help_lists_the_parents_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["audit-run", "--help"])
        listed = set(re.findall(r"(?m)^  (--[a-z-]+)", capsys.readouterr().out))
        assert listed == HEAD_FLAGS

    def test_every_row_is_a_gate_with_a_ci_lane(self):
        assert one_table_findings() == []

    @pytest.mark.parametrize("planted, found", [
        (Profile("pressure", "--pressure", full=Cut(500, 20),
                 ci=Cut(500, 5)), "audit-pressure: no CI lane"),
        (dataclasses.replace(PROFILES["geo"], ci=None),
         "audit-geo: no ci cut"),
    ])
    def test_a_row_the_gates_miss_is_caught(
        self, monkeypatch, planted, found
    ):
        monkeypatch.setitem(PROFILES, planted.name, planted)
        assert found in one_table_findings()

    def test_gates_runs_each_rows_commands(self, monkeypatch, capsys):
        """``repro gates`` is the rows' ``audit-run`` commands and the
        worst exit status; an unknown name exits 2 before any runs."""
        ran = []

        def audit_run(args):
            ran.append((args.profile, args.sweep, args.jobs, args.backend,
                        args.integrity_json))
            return len(ran) % 2  # the first command finds something

        monkeypatch.setitem(cli._COMMANDS, "audit-run", audit_run)
        assert cli.main(["gates", "audit-nope", "audit"]) == 2
        assert ran == [] and "audit-nope" in capsys.readouterr().err
        assert cli.main(
            ["gates", "audit-integrity", "audit-proxy", "--ci", "--jobs", "2"]
        ) == 1
        assert ran == [
            ("integrity", 5, 2, "aurora", "integrity-aurora.json"),
            ("integrity", 5, 2, "taurus", "integrity-taurus.json"),
            ("proxy", 2, 2, "aurora", ""),
        ]

    def test_the_docs_table_is_the_rendered_one(self):
        assert profiles_table() in (REPO_ROOT / "docs/AUDIT.md").read_text()

    def test_the_docs_budgets_table_is_the_rendered_one(self):
        assert budgets_table() in (REPO_ROOT / "docs/AUDIT.md").read_text()

    @pytest.mark.parametrize("arguments", STACKED)
    def test_a_second_switch_exits_2(self, capsys, arguments):
        with pytest.raises(SystemExit) as exit:
            cli.main(["audit-run", "--seed", "0", *arguments.split()])
        assert exit.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_integrity_json_without_integrity_is_an_error(
        self, tmp_path, capsys
    ):
        """It used to write nothing and say nothing, so a CI lane that
        lost its ``--integrity`` uploaded no artifact and stayed green."""
        path = tmp_path / "integrity.json"
        status = cli.main(
            ["audit-run", "--steps", "50", "--integrity-json", str(path)]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert "--integrity" in captured.err.replace("--integrity-json", "")
        assert captured.out == "" and not path.exists()  # no seed ran


#: ``audit-run --seed 3 --steps 150 <switch>`` at the parent (the proxy
#: with ``--proxy-sessions 2000``), as printed.  ``geo`` was re-recorded
#: when an append at the B-tree's right edge began to split at the insert
#: point: its run makes one such split, and its simulated time moved.
HEAD_REPORTS = {
    "chaos": """\
audit run: seed=3 steps=150 sim_time=1132ms
  chaos events:        12
  commit acks:         83
  writer recoveries:   0
  availability errors: 0
  protocol events:     983
  violations:          0
  repairs confirmed:   0 (replaced=0 rolled_back=0 aborted=0 stalled=0 active=0)
  health verdicts:     suspected=3 confirmed=0 false_pos=0""",
    "fleet": """\
audit run: seed=3 steps=150 sim_time=5521ms
  chaos events:        15
  commit acks:         86
  writer recoveries:   0
  availability errors: 0
  protocol events:     2783
  violations:          0
  repairs confirmed:   14 (replaced=12 rolled_back=2 aborted=0 stalled=0 active=0)
  concurrent repairs:  9 peak (distinct PGs)
  detection latency:   mean=546ms p50=585ms p95=619ms max=619ms (n=14)
  MTTR (replaced):     mean=1428ms p50=1369ms p95=2082ms max=2082ms (n=12)
  resolution (all):    mean=1273ms p50=1365ms p95=2082ms max=2082ms (n=14)
  health verdicts:     suspected=86 confirmed=14 false_pos=2
  fleet storm:         10 segments killed across distinct PGs
  concurrency gate:    ok (peak 9)
  writer kills:        1
  failovers confirmed: 1 (promoted=1 restarted=0 rolled_back=0 aborted=0 stalled=0 active=0)
  failover detection:  mean=851ms p50=851ms p95=851ms max=851ms (n=1)
  promotion time:      mean=1050ms p50=1050ms p95=1050ms max=1050ms (n=1)
  write unavailability: mean=1906ms p50=1906ms p95=1906ms max=1906ms (n=1)
  failover gate:       ok""",
    "failover": """\
audit run: seed=3 steps=150 sim_time=4436ms
  chaos events:        14
  commit acks:         84
  writer recoveries:   0
  availability errors: 1
  protocol events:     1306
  violations:          0
  repairs confirmed:   0 (replaced=0 rolled_back=0 aborted=0 stalled=0 active=0)
  health verdicts:     suspected=12 confirmed=0 false_pos=0
  writer kills:        1
  failovers confirmed: 1 (promoted=1 restarted=0 rolled_back=0 aborted=0 stalled=0 active=0)
  failover detection:  mean=871ms p50=871ms p95=871ms max=871ms (n=1)
  promotion time:      mean=15ms p50=15ms p95=15ms max=15ms (n=1)
  write unavailability: mean=891ms p50=891ms p95=891ms max=891ms (n=1)
  failover gate:       ok""",
    "geo": """\
audit run: seed=3 steps=150 sim_time=26348ms
  chaos events:        18
  commit acks:         94
  writer recoveries:   1
  availability errors: 0
  protocol events:     1207
  violations:          0
  geo ack mode:        async
  region failovers:    1 (promoted=1 rolled_back=0 stalled=0 active=0)
  region detection:    mean=860ms p50=860ms p95=860ms max=860ms (n=1)
  promotion time:      mean=30ms p50=30ms p95=30ms max=30ms (n=1)
  RTO:                 mean=3280ms p50=3280ms p95=3280ms max=3280ms (n=1)
  RPO:                 mean=868ms p50=868ms p95=868ms max=868ms (n=1) (4 acked commit(s) lost, async mode)
  region-loss detection: mean=860ms p50=860ms p95=860ms max=860ms (n=1)
  secondary promotion:   mean=30ms p50=30ms p95=30ms max=30ms (n=1)
  RTO:                   mean=3280ms p50=3280ms p95=3280ms max=3280ms (n=1)
  RTO budget (30s):       met; worst recovery used 10.9% of budget
  RPO (async, 1 runs, 4 commits): mean=868ms p50=868ms p95=868ms max=868ms (n=1)
  geo DR gate:         ok""",
    "proxy": """\
audit run: seed=3 steps=150 sim_time=12403ms
  chaos events:        1
  commit acks:         120
  writer recoveries:   1
  availability errors: 0
  protocol events:     3601
  violations:          0
  writer kills:        1
  failovers confirmed: 1 (promoted=1 restarted=0 rolled_back=0 aborted=0 stalled=0 active=0)
  failover detection:  mean=876ms p50=876ms p95=876ms max=876ms (n=1)
  promotion time:      mean=15ms p50=15ms p95=15ms max=15ms (n=1)
  write unavailability: mean=896ms p50=896ms p95=896ms max=896ms (n=1)
  sessions:            2000 (331 ops)
  session recovery:    mean=430ms p50=400ms p95=835ms max=835ms (n=13)
  recovery budget (5s): met; worst outage used 16.7% of budget
  replica time lag:    mean=0ms p50=0ms p95=0ms max=5ms (n=6811)
  lag SLO (p95 < 10ms): met
  read routing:        292 replica / 0 writer (100.0% offloaded), 0 RYW floor exclusions, 0 pool waits
  proxy gate:          ok""",
    "integrity": """\
audit run: seed=3 steps=150 sim_time=6259ms
  chaos events:        16
  commit acks:         83
  writer recoveries:   0
  availability errors: 0
  protocol events:     1027
  violations:          0
  storage backend:     aurora
  corruption injected: 2 (kind=inj/det/rep: bit_rot=1/1/1, lost_write=1/1/1)
  detection (MTTD):    mean=201ms p50=154ms p95=248ms max=248ms (n=2)
  repair (MTTR):       mean=0ms p50=0ms p95=0ms max=0ms (n=2)
  exposure window:     mean=201ms p50=154ms p95=248ms max=248ms (n=2)
  repair budget (12s):  met
  C7 @ measured exposure: read-quorum-loss p=1.797e-24 per window (window = mean exposure)
  read path:           0 intercepted, 0 quarantined, 0 corrupt served
  repair path:         91 vote rounds, 0 vote repairs, 91 scrub runs, 0 ingest rejects
  integrity gate:      ok""",
}


#: What the same commands print under their ``sweep: 2/2 seeds clean``
#: line with ``--sweep 2`` (seeds 3 and 4), recorded at PR 24's parent;
#: ``integrity-taurus`` adds ``--backend taurus``.  The chaos profile
#: finishes no repair at this scale, so its footer is empty.  ``proxy``
#: was re-recorded with ``geo`` above: its seed 4 makes one split at the
#: insert point.
HEAD_FOOTERS = {
    "chaos": "",
    "fleet": """\
fleet repair telemetry across 2 seeds (peak 9 concurrent PG repairs):
  repair window:       mean=1226ms p50=1340ms p95=1782ms max=2082ms (n=27)
  detection latency:   mean=489ms p95=619ms max=622ms
  AZ+1 read-quorum-loss probability per window:
    at observed mean:  4.061e-22
    at observed p95:   1.246e-21
    at observed max:   1.988e-21
    at paper C7 (10s): 2.202e-19
  C7 window (10s):     met by every observed repair
fleet failover telemetry across 2 seeds (2 writer failovers):
  detection latency:   mean=852ms p50=851ms p95=852ms max=852ms (n=2)
  promotion time:      mean=578ms p50=105ms p95=1050ms max=1050ms (n=2)
  write unavailability: mean=1434ms p50=962ms p95=1906ms max=1906ms (n=2)
  budget (30s):         met; worst failover used 6.4% of budget""",
    "failover": """\
fleet repair telemetry across 2 seeds (peak 1 concurrent PG repairs):
  repair window:       mean=614ms p50=579ms p95=649ms max=649ms (n=2)
  detection latency:   mean=587ms p95=624ms max=624ms
  AZ+1 read-quorum-loss probability per window:
    at observed mean:  5.104e-23
    at observed p95:   6.022e-23
    at observed max:   6.022e-23
    at paper C7 (10s): 2.202e-19
  C7 window (10s):     met by every observed repair
fleet failover telemetry across 2 seeds (2 writer failovers):
  detection latency:   mean=873ms p50=871ms p95=875ms max=875ms (n=2)
  promotion time:      mean=20ms p50=15ms p95=25ms max=25ms (n=2)
  write unavailability: mean=898ms p50=891ms p95=905ms max=905ms (n=2)
  budget (30s):         met; worst failover used 3.0% of budget""",
    "geo": """\
geo disaster-recovery telemetry across 2 seeds:
  region failovers:    2 (promoted=2 rolled_back=0 stalled=0 active=0)
  region detection:    mean=1182ms p50=860ms p95=1504ms max=1504ms (n=2)
  promotion time:      mean=25ms p50=20ms p95=30ms max=30ms (n=2)
  RTO:                 mean=3277ms p50=3274ms p95=3280ms max=3280ms (n=2)
  RPO:                 mean=434ms p50=0ms p95=868ms max=868ms (n=2) (4 acked commit(s) lost, async mode)
  region-loss detection: mean=1182ms p50=860ms p95=1504ms max=1504ms (n=2)
  secondary promotion:   mean=25ms p50=20ms p95=30ms max=30ms (n=2)
  RTO:                   mean=3277ms p50=3274ms p95=3280ms max=3280ms (n=2)
  RTO budget (30s):       met; worst recovery used 10.9% of budget
  RPO (sync, 1 runs):   zero acknowledged-commit loss
  RPO (async, 1 runs, 4 commits): mean=868ms p50=868ms p95=868ms max=868ms (n=1)""",
    "proxy": """\
fleet failover telemetry across 2 seeds (2 writer failovers):
  detection latency:   mean=889ms p50=876ms p95=902ms max=902ms (n=2)
  promotion time:      mean=18ms p50=15ms p95=20ms max=20ms (n=2)
  write unavailability: mean=912ms p50=896ms p95=927ms max=927ms (n=2)
  budget (30s):         met; worst failover used 3.1% of budget
serving-tier telemetry across 2 seeds:
  sessions:            4000 (710 ops)
  session recovery:    mean=440ms p50=405ms p95=865ms max=890ms (n=25)
  recovery budget (5s): met; worst outage used 17.8% of budget
  replica time lag:    mean=0ms p50=0ms p95=0ms max=5ms (n=13591)
  lag SLO (p95 < 10ms): met
  read routing:        627 replica / 0 writer (100.0% offloaded), 0 RYW floor exclusions, 0 pool waits""",
    "integrity": """\
integrity telemetry across 2 seeds (aurora):
  corruption injected: 3 (kind=inj/det/rep: bit_rot=1/1/1, bit_rot_record=1/1/1, lost_write=1/1/1)
  detection (MTTD):    mean=171ms p50=154ms p95=248ms max=248ms (n=3)
  repair (MTTR):       mean=1ms p50=0ms p95=3ms max=3ms (n=3)
  exposure window:     mean=172ms p50=154ms p95=248ms max=248ms (n=3)
  repair budget (12s):  met
  C7 @ measured exposure: read-quorum-loss p=1.127e-24 per window (window = mean exposure)
  read path:           0 intercepted, 0 quarantined, 0 corrupt served
  repair path:         183 vote rounds, 1 vote repairs, 183 scrub runs, 0 ingest rejects""",
    "integrity-taurus": """\
integrity telemetry across 2 seeds (taurus):
  corruption injected: 2 (kind=inj/det/rep: bit_rot_record=2/2/2)
  detection (MTTD):    mean=143ms p50=4ms p95=281ms max=281ms (n=2)
  repair (MTTR):       mean=1ms p50=0ms p95=2ms max=2ms (n=2)
  exposure window:     mean=144ms p50=4ms p95=283ms max=283ms (n=2)
  repair budget (12s):  met
  C7 @ measured exposure: read-quorum-loss p=6.524e-25 per window (window = mean exposure)
  read path:           1 intercepted, 0 quarantined, 0 corrupt served
  repair path:         154 vote rounds, 2 vote repairs, 153 scrub runs, 0 ingest rejects""",
}


def head_scale_report(name: str, seed: int):
    """The report of one seed at the scale the literals were recorded at
    (the report and the footer pins share seed 3)."""
    name, _, backend = name.partition("-")
    return audit_report(
        name, seed=seed, steps=150, proxy_sessions=2000,
        backend=backend or "aurora",
    )


#: ``UNREAD`` as what holds each field now: ``(row, knob, the parent's
#: value)``, the operator part's two switches being the row's ``operator``.
UNREAD_KNOBS = sorted({
    (name, field if field in _CONFIG_FIELDS else "operator", value)
    for name, fields in UNREAD.items()
    for field, value in fields.items()
})


def rendered(name: str, steps: int, knob: str = "", value=None) -> str:
    """The seed-3 report of row ``name`` with ``knob`` (a config field or
    the row's ``operator``) at ``value``."""
    row = PROFILES[name]
    fields = dict(seed=3, steps=steps, proxy_sessions=2000)
    if knob == "operator":
        PROFILES[name] = dataclasses.replace(row, operator=value)
    elif knob:
        fields[knob] = value
    try:
        return audit_report(name, **fields).render()
    finally:
        PROFILES[name] = row


class TestEveryProfileRunsThroughTheSpine:
    @pytest.mark.parametrize("name", list(HEAD_REPORTS))
    def test_report_is_the_parents(self, name):
        assert head_scale_report(name, 3).render() == HEAD_REPORTS[name]

    @pytest.mark.parametrize("name", list(HEAD_FOOTERS))
    def test_sweep_footer_is_the_parents(self, name):
        reports = [head_scale_report(name, seed) for seed in (3, 4)]
        assert all(report.ok for report in reports)
        footer = [
            line
            for section in merged_sections(reports).values()
            for line in section.footer_lines(len(reports))
        ]
        assert "\n".join(footer) == HEAD_FOOTERS[name]

    def test_fleet_and_failover_are_chaos_under_other_values(
        self, monkeypatch
    ):
        """``fleet`` and ``failover`` are rows of their own over chaos's
        world, client and judge, and ``run_audit`` runs the row its config
        names."""
        chaos = PROFILES["chaos"]
        for name in ("fleet", "failover"):
            row = PROFILES[name]
            assert (row.world, row.client, row.judge) == (
                chaos.world, chaos.client, chaos.judge
            )

        class Ran(Exception):
            pass

        def world(cfg, profile):
            raise Ran(profile)

        for name, row in list(PROFILES.items()):
            config = row.configure(AuditRunConfig(seed=1, steps=1))
            assert config.profile == name
            monkeypatch.setitem(
                PROFILES, name, dataclasses.replace(row, world=world)
            )
            with pytest.raises(Ran) as ran:
                run_audit(config)
            assert ran.value.args[0] is PROFILES[name]

    @pytest.mark.parametrize("name, knob, value", UNREAD_KNOBS)
    def test_an_unread_field_is_unread(self, name, knob, value):
        """At the parent's value the seed-3 report stays byte-identical:
        nothing on the row's path reads the field.  Also at 300 steps,
        where the cluster client's operator part does act."""
        assert rendered(name, 150, knob, value) == HEAD_REPORTS[name]
        assert rendered(name, 300, knob, value) == rendered(name, 300)

    @pytest.mark.parametrize("knob, value", sorted({
        (knob, value) for _, knob, value in UNREAD_KNOBS
    }))
    def test_on_the_chaos_row_the_unread_fields_are_read(self, knob, value):
        """The proof above is not vacuous: the same change moves a
        300-step chaos report."""
        assert rendered("chaos", 300, knob, value) != rendered("chaos", 300)

    def test_importing_the_package_loads_no_profile_specific_module(self):
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.audit; print(*sorted(sys.modules))"],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        ).stdout.split()
        # (``repro.analysis`` was lazy while it held the per-profile run
        # reports; since PR 24 it is the paper's models only, and
        # ``repro.repair`` imports the C7 window from it.)
        lazy = ("repro.geo", "repro.workloads.sessions")
        assert [m for m in loaded if m.startswith(lazy)] == []
        assert "repro.audit.profiles" in loaded


class TestBackendReachesEveryWorld:
    """``--backend`` used to reach the integrity runner only and was
    dropped, silently, by the other five profiles."""

    @staticmethod
    def backends(clusters) -> list:
        return [type(cluster.backend).__name__ for cluster in clusters]

    def test_chaos_on_taurus(self, built_clusters):
        report = run_audit(AuditRunConfig(seed=1, steps=300, backend="taurus"))
        assert report.ok, report.render()
        assert self.backends(built_clusters) == ["TaurusBackend"]
        assert report.repairs.replaced >= 1

    def test_every_switch_builds_the_config_with_the_backend(self):
        for row in PROFILES.values():
            built = built_config(f"{row.switch or ''} --backend taurus")
            assert built.backend == "taurus"

    def test_geo_builds_both_regions_on_it(self, built_clusters):
        config = PROFILES["geo"].configure(
            AuditRunConfig(seed=2, steps=60, backend="taurus")
        )
        assert run_audit(config).violations == []
        assert self.backends(built_clusters) == [
            "TaurusBackend", "RegionBackend",
        ]
