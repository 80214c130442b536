"""Read routing: avoiding quorum reads (section 3.1).

"Aurora does not do quorum reads.  Through its bookkeeping of writes and
consistency points, the database instance knows which segments have the last
durable version of a data block and can request it directly from any of
those segments."

The cost of issuing a single read instead of a read quorum is exposure to a
slow or dead segment.  The paper manages that by

- tracking response times per segment and usually choosing the
  lowest-latency one,
- "occasionally also query[ing] one of the others in parallel to ensure up
  to date read latency response times" (exploration), and
- hedging: "If a request is taking longer than expected, [Aurora] will
  issue a read to another storage node and accept whichever one returns
  first."  Detection happens "without request timeouts by inspecting the
  list of outstanding requests when performing other I/Os".

:class:`LatencyTracker` is the EWMA bookkeeping; :class:`ReadRouter`
implements selection, exploration, and the hedging decision as pure
functions so the policy can be unit-tested and ablated (quorum-read and
no-hedge variants live in the benchmarks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SegmentUnavailableError


def ewma(average: float | None, sample: float, alpha: float) -> float:
    """``average`` after one more ``sample`` weighted ``alpha`` (None: no
    sample yet, so the first one is the average)."""
    if average is None:
        return sample
    return alpha * sample + (1 - alpha) * average


class LatencyTracker:
    """Exponentially-weighted moving average of per-segment read latency."""

    def __init__(self, alpha: float = 0.2, initial_estimate: float = 1.0) -> None:
        if not 0 < alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self._alpha = alpha
        self._initial = initial_estimate
        self._estimates: dict[str, float] = {}
        self._samples: dict[str, int] = {}

    def record(self, segment: str, latency: float) -> None:
        self._estimates[segment] = ewma(
            self._estimates.get(segment), latency, self._alpha
        )
        self._samples[segment] = self._samples.get(segment, 0) + 1

    def expected(self, segment: str) -> float:
        """Current latency estimate (optimistic default before any sample)."""
        return self._estimates.get(segment, self._initial)

    def sample_count(self, segment: str) -> int:
        return self._samples.get(segment, 0)

    def ranked(self, segments: list[str]) -> list[str]:
        """Segments sorted fastest-first (name-stable for ties)."""
        return sorted(segments, key=lambda s: (self.expected(s), s))


@dataclass
class ReadPlan:
    """The router's decision for one block read."""

    primary: str
    #: Extra segment queried in parallel purely to refresh latency stats.
    explore: str | None = None
    #: Segments eligible to serve a hedge if the primary runs long.
    hedge_candidates: list[str] = field(default_factory=list)


class ReadRouter:
    """Chooses which segment(s) to read a block from.

    ``explore_probability`` is the paper's "occasionally also query one of
    the others in parallel"; ``hedge_multiplier`` scales the expected
    latency into the threshold past which an outstanding read is considered
    slow and a hedge is issued.
    """

    def __init__(
        self,
        tracker: LatencyTracker,
        rng: random.Random,
        explore_probability: float = 0.02,
        hedge_multiplier: float = 3.0,
    ) -> None:
        if not 0 <= explore_probability <= 1:
            raise ConfigurationError(
                f"explore_probability must be in [0, 1], got "
                f"{explore_probability}"
            )
        if hedge_multiplier < 1:
            raise ConfigurationError(
                f"hedge_multiplier must be >= 1, got {hedge_multiplier}"
            )
        self.tracker = tracker
        self.rng = rng
        self.explore_probability = explore_probability
        self.hedge_multiplier = hedge_multiplier

    def plan(self, candidates: list[str]) -> ReadPlan:
        """Pick the primary (fastest) segment and optionally an explore peer.

        ``candidates`` must be the segments known, via consistency-point
        bookkeeping, to hold the needed durable version of the block.
        """
        if not candidates:
            raise SegmentUnavailableError(
                "no segment holds the requested durable version"
            )
        ranked = self.tracker.ranked(candidates)
        primary = ranked[0]
        others = ranked[1:]
        explore = None
        if others and self.rng.random() < self.explore_probability:
            explore = self.rng.choice(others)
        return ReadPlan(
            primary=primary,
            explore=explore,
            hedge_candidates=[s for s in others if s != explore],
        )

    def should_hedge(self, segment: str, elapsed: float) -> bool:
        """Is an outstanding read to ``segment`` overdue?

        Called whenever the instance performs other I/O, mirroring the
        paper's timeout-free inspection of the outstanding-request list.
        """
        return elapsed > self.hedge_multiplier * self.tracker.expected(segment)

    def hedge_target(self, plan: ReadPlan) -> str | None:
        """The segment a hedge read should go to (next-fastest candidate)."""
        if not plan.hedge_candidates:
            return None
        return self.tracker.ranked(plan.hedge_candidates)[0]
