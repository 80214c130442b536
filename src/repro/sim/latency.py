"""Latency distributions for network links and disk service times.

The paper's performance arguments are about *latency shape* -- tails, jitter,
peak-to-average ratios -- rather than absolute values, so the simulator needs
realistic heavy-tailed service time distributions.  Log-normal service times
are the workhorse; composite models add rare slow outliers ("a storage node
is busy") which is exactly what the hedged-read machinery of section 3.1 is
designed to mask.

All distributions sample from an injected :class:`random.Random` so the
caller controls determinism.
"""

from __future__ import annotations

import math
import random

from repro.errors import ConfigurationError


class LatencyModel:
    """Interface: a sampleable non-negative latency distribution (ms)."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean, used by hedging heuristics and tests."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Always the same value; useful for exact-schedule unit tests."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError(f"latency must be >= 0, got {value}")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"FixedLatency({self.value})"


class UniformLatency(LatencyModel):
    """Uniform on [low, high]."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ConfigurationError(
                f"need 0 <= low <= high, got [{low}, {high}]"
            )
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Shifted exponential: ``base + Exp(mean=tail_mean)``.

    Models a fixed propagation delay plus memoryless queueing.
    """

    def __init__(self, base: float, tail_mean: float) -> None:
        if base < 0 or tail_mean < 0:
            raise ConfigurationError("base and tail_mean must be >= 0")
        self.base = base
        self.tail_mean = tail_mean

    def sample(self, rng: random.Random) -> float:
        if self.tail_mean == 0:
            return self.base
        return self.base + rng.expovariate(1.0 / self.tail_mean)

    def mean(self) -> float:
        return self.base + self.tail_mean

    def __repr__(self) -> str:
        return f"ExponentialLatency(base={self.base}, tail_mean={self.tail_mean})"


class LogNormalLatency(LatencyModel):
    """Log-normal latency parameterised by its median and sigma.

    ``median`` is the 50th percentile in ms; ``sigma`` is the shape parameter
    of the underlying normal (0.3-0.6 resembles healthy datacenter links,
    1.0+ resembles a congested or failing path).
    """

    def __init__(self, median: float, sigma: float) -> None:
        if median <= 0 or sigma < 0:
            raise ConfigurationError(
                f"need median > 0 and sigma >= 0, got ({median}, {sigma})"
            )
        self.median = median
        self.sigma = sigma
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        # What ``rng.lognormvariate`` is, minus its stack frame.
        return math.exp(rng.normalvariate(self._mu, self.sigma))

    def mean(self) -> float:
        return math.exp(self._mu + self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormalLatency(median={self.median}, sigma={self.sigma})"


class CompositeLatency(LatencyModel):
    """Mixture model: with probability ``slow_probability`` use ``slow``.

    Captures the bimodal behaviour of a mostly-fast storage node that is
    occasionally busy compacting, scrubbing, or backing up -- the outliers
    the paper's read hedging exists to cap.
    """

    def __init__(
        self,
        fast: LatencyModel,
        slow: LatencyModel,
        slow_probability: float,
    ) -> None:
        if not 0.0 <= slow_probability <= 1.0:
            raise ConfigurationError(
                f"slow_probability must be in [0, 1], got {slow_probability}"
            )
        self.fast = fast
        self.slow = slow
        self.slow_probability = slow_probability

    def sample(self, rng: random.Random) -> float:
        if rng.random() < self.slow_probability:
            return self.slow.sample(rng)
        return self.fast.sample(rng)

    def mean(self) -> float:
        p = self.slow_probability
        return (1.0 - p) * self.fast.mean() + p * self.slow.mean()

    def __repr__(self) -> str:
        return (
            f"CompositeLatency(fast={self.fast!r}, slow={self.slow!r}, "
            f"p_slow={self.slow_probability})"
        )


class ScaledLatency(LatencyModel):
    """Wrap another model and multiply samples by a factor.

    The failure injector uses this to make a node "slow" without replacing
    its underlying distribution.
    """

    def __init__(self, inner: LatencyModel, factor: float) -> None:
        if factor <= 0:
            raise ConfigurationError(f"factor must be > 0, got {factor}")
        self.inner = inner
        self.factor = factor

    def sample(self, rng: random.Random) -> float:
        return self.inner.sample(rng) * self.factor

    def mean(self) -> float:
        return self.inner.mean() * self.factor

    def __repr__(self) -> str:
        return f"ScaledLatency({self.inner!r}, x{self.factor})"


def intra_az_link() -> LatencyModel:
    """Default model for a link between nodes in the same AZ (~0.25 ms)."""
    return LogNormalLatency(median=0.25, sigma=0.35)


def cross_az_link() -> LatencyModel:
    """Default model for a link between nodes in different AZs (~1 ms)."""
    return LogNormalLatency(median=1.0, sigma=0.40)


def disk_service() -> LatencyModel:
    """Default model for a storage-node local write (SSD-ish, ~0.1 ms)."""
    return LogNormalLatency(median=0.1, sigma=0.30)


def wan_link(median_ms: float = 35.0, sigma: float = 0.25) -> LatencyModel:
    """Default model for a one-way inter-region WAN hop (~35 ms).

    A long-haul link's latency distribution has a heavier tail than the
    intra-region links (routing changes, congestion), hence the log-normal
    with a wider body.  Loss, bandwidth, and reorder are properties of the
    *link*, not the latency sample -- see :class:`repro.sim.wan.WanLink`.
    """
    return LogNormalLatency(median=median_ms, sigma=sigma)
