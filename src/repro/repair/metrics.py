"""Repair telemetry: per-repair records and MTTR aggregation.

The paper's AZ+1 durability argument hinges on a *window*: "Assuming a 10
second window to detect and repair a segment failure, it would require two
independent segment failures as well as an AZ failure in the same 10 second
period to lose the ability to repair a quorum."  The planner stamps every
phase of every repair so runs can report the windows they actually
achieved -- detection latency (failure -> confirmed dead) and MTTR
(failure -> quorum fully re-replicated) -- and feed them back into
:class:`repro.analysis.durability.DurabilityModel`.

Durability is a tail phenomenon, so the summary keeps full **distributions**
(:class:`LatencyStats`: mean/p50/p95/max over the raw samples), not just
means.  And because a fleet-wide MTTR estimate built only from finalized
repairs is survivorship-biased -- the repairs that stalled or rolled back
are exactly the ones that left the quorum exposed longest -- every
*terminal* outcome (``replaced``, ``rolled_back``, ``aborted``,
``stalled``) also lands in a separate resolution distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar


#: Repair outcomes (``RepairRecord.outcome``).
ACTIVE = "active"  #: orchestration still in flight
REPLACED = "replaced"  #: Figure 5 ran to finalize; candidate is the member
ROLLED_BACK = "rolled_back"  #: incumbent returned first; transition reversed
ABORTED = "aborted"  #: preconditions vanished before begin (no transition)
STALLED = "stalled"  #: budget exhausted mid-transition (dual quorum stays)


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank percentile of ``samples`` (q in [0, 100])."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = math.ceil((q / 100.0) * len(ordered)) - 1
    return ordered[max(0, min(rank, len(ordered) - 1))]


@dataclass
class LatencyStats:
    """A latency distribution: raw samples plus the summary points the
    durability model consumes (means hide the tail that loses quorums)."""

    samples: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float | None:
        if not self.samples:
            return None
        return sum(self.samples) / len(self.samples)

    @property
    def p50(self) -> float | None:
        return percentile(self.samples, 50)

    @property
    def p95(self) -> float | None:
        return percentile(self.samples, 95)

    @property
    def max(self) -> float | None:
        return max(self.samples) if self.samples else None

    def merge(self, other: "LatencyStats") -> None:
        """Fold another distribution in (sweep-level aggregation)."""
        self.samples.extend(other.samples)

    def describe(self) -> str:
        if not self.samples:
            return "no samples"
        return (
            f"mean={self.mean:.0f}ms p50={self.p50:.0f}ms "
            f"p95={self.p95:.0f}ms max={self.max:.0f}ms (n={self.count})"
        )


@dataclass
class RepairRecord:
    """One confirmed-dead segment's journey through the repair pipeline.

    All timestamps are simulated milliseconds.  ``failed_at`` is the last
    moment the segment was provably alive (the monitor's last liveness
    signal), so ``mttr_ms`` measures the full exposure window the
    durability model cares about, not just orchestration time.
    """

    pg_index: int
    segment_id: str
    failed_at: float
    confirmed_at: float
    candidate_id: str | None = None
    began_at: float | None = None
    finished_at: float | None = None
    outcome: str = ACTIVE
    hydration_attempts: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def detection_ms(self) -> float:
        """Failure to confirmed-dead (the monitor's reaction time)."""
        return self.confirmed_at - self.failed_at

    @property
    def mttr_ms(self) -> float | None:
        """Failure to finalized replacement (None unless ``replaced``)."""
        if self.outcome != REPLACED or self.finished_at is None:
            return None
        return self.finished_at - self.failed_at

    @property
    def resolution_ms(self) -> float | None:
        """Failure to *any* terminal outcome.

        Stalled and rolled-back attempts resolve too -- later, usually --
        and leaving them out of the fleet MTTR picture would make the
        achieved repair window look better than it was (survivorship
        bias).  None while the record is still ``active``.
        """
        if self.outcome == ACTIVE or self.finished_at is None:
            return None
        return self.finished_at - self.failed_at

    def __str__(self) -> str:
        window = (
            f" mttr={self.mttr_ms:.0f}ms" if self.mttr_ms is not None else ""
        )
        return (
            f"repair pg{self.pg_index} {self.segment_id}"
            f" -> {self.candidate_id or '?'} [{self.outcome}]"
            f" detect={self.detection_ms:.0f}ms{window}"
        )


@dataclass
class OutcomeSummary:
    """What one tier's acting half made of its confirmed verdicts, for one
    run or -- merged -- a sweep.

    A tier is a row: the label of the headline, the terminal outcomes it
    counts (each one a field named as the records spell it, in print
    order), and one ``(line, field, record property)`` per latency
    distribution, sampled from every record whose property is not None
    and printed once it has a sample.  The labels are literal: a report
    reads the same whichever tier renders it.
    """

    HEADLINE: ClassVar[str]
    OUTCOMES: ClassVar[tuple[str, ...]]
    LATENCIES: ClassVar[tuple[tuple[str, str, str], ...]]
    #: Label of the peak-concurrency line, for a tier that can have more
    #: than one record in flight.
    CONCURRENT: ClassVar[str | None] = None

    confirmed: int = 0
    active: int = 0
    #: Most records simultaneously in flight (for repairs: distinct PGs;
    #: per-PG serialization keeps same-PG records from ever overlapping).
    peak_concurrent: int = 0
    #: Last liveness signal -> confirmed dead: the detector's reaction
    #: time, which every tier measures (under its own label).
    detection: LatencyStats = field(default_factory=LatencyStats)

    def add(self, record) -> None:
        self.confirmed += 1
        outcome = record.outcome
        if outcome not in self.OUTCOMES:
            outcome = ACTIVE
        setattr(self, outcome, getattr(self, outcome) + 1)
        for _label, name, source in self.LATENCIES:
            sample = getattr(record, source)
            if sample is not None:
                getattr(self, name).samples.append(sample)

    def merge(self, other: "OutcomeSummary") -> None:
        """Fold another seed's summary in (sweep aggregation): counts add,
        distributions pool their samples, the peak is the highest seen."""
        peak = max(self.peak_concurrent, other.peak_concurrent)
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, LatencyStats):
                mine.merge(theirs)
            else:
                setattr(self, spec.name, mine + theirs)
        self.peak_concurrent = peak

    def render_lines(self) -> list[str]:
        counts = " ".join(
            f"{name}={getattr(self, name)}"
            for name in (*self.OUTCOMES, ACTIVE)
        )
        lines = [f"{self.HEADLINE}{self.confirmed} ({counts})"]
        if self.CONCURRENT and self.peak_concurrent:
            lines.append(self.CONCURRENT.format(self.peak_concurrent))
        for label, name, _source in self.LATENCIES:
            stats = getattr(self, name)
            if stats.count:
                lines.append(label.format(stats.describe(), summary=self))
        return lines


@dataclass
class RepairSummary(OutcomeSummary):
    """Aggregated repair statistics for one run (or one sweep seed)."""

    HEADLINE = "  repairs confirmed:   "
    OUTCOMES = (REPLACED, ROLLED_BACK, ABORTED, STALLED)
    CONCURRENT = "  concurrent repairs:  {} peak (distinct PGs)"
    LATENCIES = (
        ("  detection latency:   {}", "detection", "detection_ms"),
        ("  MTTR (replaced):     {}", "mttr", "mttr_ms"),
        ("  resolution (all):    {}", "resolution", "resolution_ms"),
    )

    replaced: int = 0
    rolled_back: int = 0
    aborted: int = 0
    stalled: int = 0
    mttr: LatencyStats = field(default_factory=LatencyStats)
    #: Failure -> terminal outcome for every resolved record, including
    #: stalled and rolled-back attempts (no survivorship bias).
    resolution: LatencyStats = field(default_factory=LatencyStats)


def _peak_concurrent(records: list) -> int:
    """Max number of simultaneously in-flight records.

    A record occupies ``[began_at, finished_at)``; an unfinished record
    stays open to the end.  Departures sort before arrivals at equal
    times: a repair that starts the instant another ends did not overlap
    it.
    """
    points: list[tuple[float, int]] = []
    for record in records:
        if record.began_at is None:
            continue  # never installed a transition (aborted pre-begin)
        points.append((record.began_at, 1))
        if record.finished_at is not None:
            points.append((record.finished_at, -1))
    points.sort(key=lambda p: (p[0], p[1]))
    peak = current = 0
    for _at, delta in points:
        current += delta
        peak = max(peak, current)
    return peak


def summarize(records: list, kind: type[OutcomeSummary]):
    """Roll one tier's records up into its ``kind`` of summary."""
    summary = kind()
    for record in records:
        summary.add(record)
    summary.peak_concurrent = _peak_concurrent(records)
    return summary
