"""A run's verdict is sections: one distribution, one budget judgement,
one report shape.

The paper argues from measured windows ("Assuming a 10 second window to
detect and repair a segment failure ...", section 2.1) and every tier of
the repo judges one: repairs, writer failovers, region failovers, the
serving edge, silent corruption.  What a tier reports is a
:class:`Section` next to its records -- counters that add, distributions
(:class:`LatencyStats`) that pool their samples, :class:`Budget` rows and
hard zeros -- and ``merge``, ``ok`` and the rendering are written once
here, over the section's dataclass fields and its ``LINES`` / ``FOOTER``
rows.  A seed's report renders its sections; a sweep's footer renders the
merge of the seeds' sections, so the per-seed gate and the footer verdict
are the same :class:`Budget` judged on one seed or on many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.errors import ConfigurationError


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
    budgets judge (means hide the tail that loses quorums).  Every sample
    is kept as measured: each is a difference of ordered simulated
    timestamps, so there is nothing to filter."""

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

    def __bool__(self) -> bool:
        return bool(self.samples)

    def __str__(self) -> str:
        if not self.samples:
            return "no samples"
        return (
            f"mean={self.mean:.0f}ms p50={self.p50:.0f}ms "
            f"p95={self.p95:.0f}ms max={self.max:.0f}ms (n={self.count})"
        )


@dataclass
class Budget:
    """One judged window: a limit on one statistic of one of a section's
    distributions, the words its line prints, and where the number comes
    from.  A plain module-level row: a test that needs another limit
    monkeypatches ``limit_ms``."""

    #: The section's :class:`LatencyStats` field the limit applies to.
    judged: str
    #: ``"max"`` (a tail budget: the *worst* observed window must fit) or
    #: ``"p95"`` (a steady-state SLO: transient spikes are expected).
    statistic: str
    limit_ms: float
    #: The line's label; ``{limit}`` is the limit as printed (``30s``).
    label: str
    #: The words after the label, inside and over the limit.  ``{used}``
    #: is the judged statistic as a fraction of the limit, ``{worst}`` the
    #: statistic itself.
    met: str
    exceeded: str
    #: Where the number comes from (docs/AUDIT.md "Budgets").
    source: str
    #: Judge ``statistic < limit`` instead of ``<=``.
    strict: bool = False

    def __post_init__(self) -> None:
        if self.limit_ms <= 0:
            raise ConfigurationError("a budget's limit must be > 0")
        if self.statistic not in ("max", "p95"):
            raise ConfigurationError("a budget judges max or p95")

    @property
    def limit(self) -> str:
        if self.limit_ms < 1000.0:
            return f"{self.limit_ms:.0f}ms"
        return f"{self.limit_ms / 1000.0:.0f}s"

    def worst(self, section) -> float | None:
        """The judged statistic (None without a sample)."""
        return getattr(getattr(section, self.judged), self.statistic)

    def holds(self, section) -> bool:
        """Whether the judged statistic is inside the limit -- trivially so
        without a sample: nothing happened that could overrun."""
        worst = self.worst(section)
        if worst is None:
            return True
        return worst < self.limit_ms if self.strict else worst <= self.limit_ms

    def lines(self, section) -> list[str]:
        """The verdict line (none without a sample to judge)."""
        worst = self.worst(section)
        if worst is None:
            return []
        words = self.met if self.holds(section) else self.exceeded
        return [
            self.label.format(limit=self.limit)
            + words.format(used=worst / self.limit_ms, worst=worst)
        ]


@dataclass(frozen=True)
class Exceeded:
    """A budget whose line is printed only once it is overrun: a seed's
    report says why it failed, the sweep footer carries the full line."""

    budget: Budget


@dataclass(frozen=True)
class Line:
    """A line of a section: a format string over the section's attributes,
    printed when the attribute ``when`` names is truthy (a count, a
    distribution with a sample), always when it names none."""

    text: str
    when: str | None = None


@dataclass(frozen=True)
class Gate:
    """Where a section prints one of the run's gates (by ``name`` in
    ``AuditReport.gates``); a gate that was not armed prints nothing."""

    label: str
    name: str
    what: str = ""
    note: str = ""


class _Attributes:
    """``str.format_map`` view of a section, plus the caller's extras."""

    def __init__(self, section, extras: dict) -> None:
        self.section, self.extras = section, extras

    def __getitem__(self, name: str):
        if name in self.extras:
            return self.extras[name]
        return getattr(self.section, name)


@dataclass
class Section:
    """What one tier reports for one run or -- merged -- a sweep.

    A subclass is a row: dataclass fields (an ``int`` counter or a tuple
    adds, a :class:`LatencyStats` pools, ``metadata={"merge": f}``
    overrides), ``LINES`` for a seed's report, ``FOOTER`` for the sweep's
    (its first row the headline, ``{seeds}`` the sweep's size; printed once
    ``REPORTED_ON`` is truthy), and ``ZEROS`` -- the attributes that must
    be zero.  The rows are ``str`` / :class:`Line`, :class:`Budget`,
    :class:`Exceeded` and :class:`Gate`.
    """

    LINES: ClassVar[tuple] = ()
    FOOTER: ClassVar[tuple] = ()
    REPORTED_ON: ClassVar[str | None] = None
    ZEROS: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def budgets(cls) -> list[Budget]:
        """The budget rows of ``LINES`` and ``FOOTER``, each once."""
        found: list[Budget] = []
        for row in (*cls.LINES, *cls.FOOTER):
            row = row.budget if isinstance(row, Exceeded) else row
            if isinstance(row, Budget) and row not in found:
                found.append(row)
        return found

    @property
    def ok(self) -> bool:
        """Every hard zero is zero and every budget holds."""
        return not any(getattr(self, name) for name in self.ZEROS) and all(
            budget.holds(self) for budget in self.budgets()
        )

    def merge(self, other: "Section") -> None:
        """Fold another seed's section in (sweep aggregation)."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if "merge" in spec.metadata:
                setattr(self, spec.name, spec.metadata["merge"](mine, theirs))
            elif isinstance(mine, LatencyStats):
                mine.merge(theirs)
            else:
                setattr(self, spec.name, mine + theirs)

    def _render(self, rows: tuple, gates: dict, **extras) -> list[str]:
        names = _Attributes(self, extras)
        lines: list[str] = []
        for row in rows:
            if isinstance(row, Budget):
                lines += row.lines(self)
            elif isinstance(row, Exceeded):
                if not row.budget.holds(self):
                    lines += row.budget.lines(self)
            elif isinstance(row, Gate):
                held = gates.get(row.name)
                if held is not None:
                    lines.append(
                        f"  {row.label:<21}{row.what}"
                        f"{'ok' if held else 'FAILED'}"
                        + row.note.format_map(names)
                    )
            else:
                row = Line(row) if isinstance(row, str) else row
                if row.when is None or getattr(self, row.when):
                    lines.append(row.text.format_map(names))
        return lines

    def render_lines(self, gates: dict | None = None) -> list[str]:
        """This section of one seed's report."""
        return self._render(self.LINES, gates or {})

    def footer_lines(self, seeds: int) -> list[str]:
        """This section of a sweep's footer (``self`` being the merge of
        the seeds' sections)."""
        if self.REPORTED_ON is not None and not getattr(self, self.REPORTED_ON):
            return []
        return self._render(self.FOOTER, {}, seeds=seeds)
