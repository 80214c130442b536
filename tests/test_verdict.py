"""A verdict is sections (``repro.verdict``, DESIGN.md D12).

One distribution class, one ``Budget`` judgement and one ``Section`` shape
replaced five run-report classes and their builders in PR 24.  Held here:
the merge law (a sweep footer is the merge of its seeds' sections and says
what one section over all the records would), every budget row against a
planted over-limit sample and a planted wrong statistic, and that a new
gate costs one section and one line in a judge.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.audit import PROFILES, AuditReport, AuditRunConfig, run_audit
from repro.audit.integrity import (
    EXPOSURE_WINDOW,
    CorruptionRecord,
    IntegrityLog,
    IntegritySummary,
)
from repro.audit.profiles import _judge_cluster
from repro.db.proxy import (
    REPLICA_LAG,
    SESSION_RECOVERY,
    ConnectionProxy,
    ServingSummary,
)
from repro.errors import ConfigurationError
from repro.geo.failover import (
    REGION_RTO,
    GeoFailoverCoordinator,
    GeoFailoverRecord,
    GeoFailoverSummary,
)
from repro.repair import (
    ACTIVE,
    PROMOTED,
    RESTARTED,
    FailoverSummary,
    Record,
    RepairPlanner,
    RepairRecord,
    RepairSummary,
)
from repro.repair.failover import FAILOVER_WINDOW, FailoverCoordinator
from repro.repair.metrics import C7_WINDOW
from repro.verdict import Budget, Gate, LatencyStats, Line, Section

from .conftest import audit_report

SECTIONS = (
    RepairSummary, FailoverSummary, GeoFailoverSummary, ServingSummary,
    IntegritySummary,
)
#: Every gate a section can print, held: the law covers the gate lines.
GATES = {
    row.name: True
    for kind in SECTIONS
    for row in kind.LINES
    if isinstance(row, Gate)
}


# ----------------------------------------------------------------------
# The shape
# ----------------------------------------------------------------------
def test_one_of_each():
    rows = [budget for kind in SECTIONS for budget in kind.budgets()]
    assert [row.limit for row in rows] == [
        "10s", "30s", "30s", "5s", "10ms", "12s",
    ]
    # The report names no tier: the common fields, then sections and gates
    # (``repairs`` / ``failovers`` / ``unrepaired`` are read-only views the
    # repo benchmark reads).
    names = [spec.name for spec in dataclasses.fields(AuditReport)]
    assert len(names) == 14 and names[-2:] == ["sections", "gates"]
    # No section field defaults to None (the old reports' sample lists
    # did, "so sweep footers can merge seeds").
    for kind in SECTIONS:
        fresh = kind()
        assert None not in dataclasses.astuple(fresh), kind
        # Nothing measured: nothing to fail, and both renderings hold up.
        assert fresh.ok
        fresh.render_lines(GATES), fresh.footer_lines(1)


def test_a_budget_is_positive_and_judges_a_tail_statistic():
    with pytest.raises(ConfigurationError):
        dataclasses.replace(C7_WINDOW, limit_ms=-1.0)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(C7_WINDOW, statistic="mean")


# ----------------------------------------------------------------------
# The merge law
# ----------------------------------------------------------------------
MS = st.floats(min_value=1.0, max_value=60_000.0, allow_nan=False)


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def act_records(draw, summary, opened=(), kind=Record, **facts):
    """One record of ``summary``'s tier: the shared phases, a successor
    open for the ``opened`` outcomes, and the tier's own ``facts``."""
    failed_at = draw(MS)
    outcome = draw(st.sampled_from((ACTIVE, *summary.OUTCOMES)))
    confirmed_at = failed_at + draw(MS)
    began_at = confirmed_at + draw(MS)
    promoted_at = began_at + draw(MS) if outcome in opened else None
    return kind(
        "pg0-a", failed_at, confirmed_at, began_at=began_at,
        promoted_at=promoted_at,
        finished_at=None if outcome == ACTIVE else began_at + draw(MS),
        outcome=outcome,
        **{name: draw(fact) for name, fact in facts.items()},
    )


@st.composite
def corruption_records(draw):
    injected_at = draw(MS)
    detected_at = draw(_maybe(MS.map(lambda ms: injected_at + ms)))
    repaired_at = draw(_maybe(MS.map(
        lambda ms: (detected_at or injected_at) + ms
    )))
    return CorruptionRecord(
        kind=draw(st.sampled_from(("bit_rot", "lost_write", "torn_write"))),
        node="pg0-a", block=1, lsn=7, injected_at=injected_at,
        detected_at=detected_at, repaired_at=repaired_at,
    )


def _edge_sample(section, sample) -> None:
    name, value = sample
    getattr(section, name).samples.append(value)


#: kind -> (what one "record" is, how it lands in the section).
RECORDS = {
    RepairSummary: (
        act_records(RepairSummary, kind=RepairRecord, pg_index=st.just(0)),
        RepairSummary.add,
    ),
    FailoverSummary: (
        act_records(FailoverSummary, (PROMOTED, RESTARTED)),
        FailoverSummary.add,
    ),
    GeoFailoverSummary: (
        act_records(
            GeoFailoverSummary, (PROMOTED,), GeoFailoverRecord,
            ack_mode=st.sampled_from(("sync", "async")),
            lost_commits=st.integers(0, 3), rpo_ms=MS,
        ),
        GeoFailoverSummary.add,
    ),
    ServingSummary: (
        st.tuples(st.sampled_from(("recovery", "lag")), MS), _edge_sample
    ),
    IntegritySummary: (corruption_records(), IntegritySummary.add),
}


def built(kind, records, extras):
    """A ``kind`` section over ``records``, plus what a judge fills in:
    ``extras`` maps each counter (an ``int`` that adds) to an increment
    and each label (a tuple that concatenates) to its value."""
    section = kind()
    for record in records:
        RECORDS[kind][1](section, record)
    for name, extra in extras.items():
        setattr(section, name, getattr(section, name) + extra)
    return section


def drawn_extras(data, kind) -> dict:
    extras = {}
    for spec in dataclasses.fields(kind):
        if "merge" in spec.metadata:
            continue  # a peak is not a sum: covered by its own unit test
        if spec.type == "int":
            extras[spec.name] = data.draw(st.integers(0, 5))
        elif spec.type.startswith("tuple"):
            extras[spec.name] = (data.draw(st.sampled_from(("a", "b", "c"))),)
    return extras


def said(section, seeds) -> tuple:
    return (
        section.render_lines(GATES), section.footer_lines(seeds), section.ok,
    )


@pytest.mark.parametrize("kind", SECTIONS, ids=lambda kind: kind.__name__)
def test_a_footer_says_what_one_section_over_all_the_records_would(kind):
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def law(data):
        seeds = data.draw(st.lists(
            st.lists(RECORDS[kind][0], max_size=4), min_size=1, max_size=4
        ))
        extras = [drawn_extras(data, kind) for _ in seeds]
        parts = [built(kind, *seed) for seed in zip(seeds, extras)]
        total = {
            name: sum((extra[name] for extra in extras[1:]), extras[0][name])
            for name in extras[0]
        }
        whole = built(kind, [r for records in seeds for r in records], total)

        merged = kind()
        for part in parts:
            merged.merge(copy.deepcopy(part))
        assert merged == whole
        assert said(merged, len(seeds)) == said(whole, len(seeds))

        # Associative: (a + b) + c is a + (b + c), however the seeds split.
        split = data.draw(st.integers(0, len(parts)))
        left, right = kind(), kind()
        for part in parts[:split]:
            left.merge(copy.deepcopy(part))
        for part in parts[split:]:
            right.merge(copy.deepcopy(part))
        left.merge(right)
        assert left == whole

    law()


def test_a_sweeps_peak_is_the_highest_seen():
    fleet = RepairSummary()
    for peak in (2, 9, 4):
        fleet.merge(RepairSummary(peak_concurrent=peak))
    assert fleet.peak_concurrent == 9


# ----------------------------------------------------------------------
# Every budget is non-vacuous
# ----------------------------------------------------------------------
#: row -> (profile that judges it, whose ``summary()`` builds the section,
#: the section's and the gate's name in the report).
ROWS = {
    "c7": (C7_WINDOW, "failover", RepairPlanner, "repairs", "repairs"),
    "failover": (
        FAILOVER_WINDOW, "failover", FailoverCoordinator, "failovers",
        "failover",
    ),
    "rto": (REGION_RTO, "geo", GeoFailoverCoordinator, "geo", "geo"),
    "recovery": (
        SESSION_RECOVERY, "proxy", ConnectionProxy, "serving", "proxy",
    ),
    "lag": (REPLICA_LAG, "proxy", ConnectionProxy, "serving", "proxy"),
    "exposure": (
        EXPOSURE_WINDOW, "integrity", IntegrityLog, "integrity", "integrity",
    ),
}


def test_the_rows_are_the_six_budgets():
    assert [row for row, *_ in ROWS.values()] == [
        budget for kind in SECTIONS for budget in kind.budgets()
    ]


@pytest.mark.parametrize("name", ROWS)
def test_one_sample_over_the_limit_fails_the_run(name, monkeypatch):
    row, profile, owner, section_name, gate = ROWS[name]
    over = row.limit_ms * 1.01
    summarize = owner.summary

    def with_one_sample_over(self):
        # Nine windows far inside the limit and one just over it: the mean
        # and the median are inside, the max and the p95 are not.
        section = summarize(self)
        getattr(section, row.judged).samples[:] = (
            [row.limit_ms * 0.1] * 9 + [over]
        )
        return section

    monkeypatch.setattr(owner, "summary", with_one_sample_over)
    report = run_audit(PROFILES[profile].configure(
        AuditRunConfig(seed=3, steps=150, proxy_sessions=2000)
    ))
    section = report.sections[section_name]
    assert report.gates[gate] is False and not report.ok
    exceeded = row.label.format(limit=row.limit) + row.exceeded.format(
        used=1.01, worst=over
    )
    assert "EXCEEDED" in exceeded and exceeded in section.footer_lines(1)

    # The same samples under the wrong statistic would have passed: the
    # row's statistic is what the verdict rests on.
    wrong = {"max": "mean", "p95": "p50"}[row.statistic]
    with monkeypatch.context() as mutant:
        mutant.setattr(row, "statistic", wrong)
        assert section.ok
    # Without that one sample the budget is met, in the row's own words.
    getattr(section, row.judged).samples.remove(over)
    assert section.ok
    assert any(
        line.startswith(row.label.format(limit=row.limit) + row.met[:3])
        for line in section.footer_lines(1)
    )


# ----------------------------------------------------------------------
# A new gate is one edit
# ----------------------------------------------------------------------
PATIENCE = Budget(
    judged="waits", statistic="max", limit_ms=45.0,
    label="  patience ({limit}):     ", met="kept", exceeded="LOST",
    source="this test",
)


@dataclass
class Throwaway(Section):
    LINES = (
        "  throwaway:           {pokes} pokes",
        Line("  throwaway waits:     {waits}", "waits"),
        PATIENCE,
        Gate("throwaway gate:", "throwaway"),
    )
    FOOTER = ("throwaway telemetry across {seeds} seeds:", *LINES)

    pokes: int = 0
    waits: LatencyStats = field(default_factory=LatencyStats)


def test_a_new_gate_is_a_section_and_a_line_in_a_judge(monkeypatch, capsys):
    """One counter, one distribution, one budget, returned by a judge: the
    seed's report, the sweep footer, ``ok`` and the exit status follow
    with no change to the runner, the CLI or any other section."""

    def judge(run, client):
        verdict = _judge_cluster(run, client)
        seed = run.cfg.seed
        section = Throwaway(pokes=seed, waits=LatencyStats([10.0 * seed]))
        verdict["sections"]["throwaway"] = section
        verdict["gates"]["throwaway"] = section.ok
        return verdict

    monkeypatch.setitem(
        PROFILES, "chaos", dataclasses.replace(PROFILES["chaos"], judge=judge)
    )
    status = cli.main(
        ["audit-run", "--seed", "3", "--steps", "60", "--sweep", "3"]
    )
    printed = capsys.readouterr().out
    assert status == 1 and "sweep: 2/3 seeds clean" in printed
    for line in (
        "  throwaway:           4 pokes",
        "  throwaway waits:     mean=50ms p50=50ms p95=50ms max=50ms (n=1)",
        "  patience (45ms):     kept",
        "  throwaway gate:      ok",
        "  throwaway gate:      FAILED",
    ):
        assert line in printed.splitlines()
    assert printed.endswith(
        "throwaway telemetry across 3 seeds:\n"
        "  throwaway:           12 pokes\n"
        "  throwaway waits:     mean=40ms p50=40ms p95=50ms max=50ms (n=3)\n"
        "  patience (45ms):     LOST\n"
    )


def test_reports_stay_picklable():
    report = audit_report("failover", seed=3, steps=150, proxy_sessions=2000)
    assert pickle.loads(pickle.dumps(report)).render() == report.render()
