"""A speed gauge for a noisy sandbox.

Host time on the 2-core sandbox drifts by up to +-30 % over tens of
seconds with nothing else running (measured: the same 2 400 transactions
took between 420 and 775 us each over five minutes).  No statistic over a
20-second run removes a drift that outlasts the run, so every timed window
carries its own reference: a fixed pure-Python kernel is run about once
every :data:`SAMPLE_EVERY_S` seconds, timed separately and taken out of
the window.  The window's *slowdown* is the kernel's mean time over
:data:`KERNEL_REFERENCE_S`; host metrics are reported as measured time
divided by it, i.e. at the reference speed.  On this box that halves the
spread between runs (kernel and workload time correlate at 0.9); the raw
time is kept beside every normalised one in the result files.

The kernel is stateless and allocation-light on purpose.  A heap- and
allocation-heavy kernel that looked more like the simulator was tried and
tracked it far worse (correlation 0.25): its own time swung with dict
resizes and collector runs.

The kernel and the reference constant never change: every host number
ever recorded is in their units.
"""

from __future__ import annotations

from time import perf_counter

#: Window seconds between two kernel runs (the kernel takes about 8 % of
#: a window), and how many simulator events pass between looks at the clock.
SAMPLE_EVERY_S = 0.008
EVENTS_PER_CLOCK_CHECK = 16
#: Seconds one kernel run takes at the reference speed (the median on the
#: sandbox this benchmark was defined on).
KERNEL_REFERENCE_S = 630e-6
_KERNEL_STEPS = 3000


class _Cell:
    __slots__ = ("total", "table")

    def __init__(self) -> None:
        self.total = 1
        self.table: dict = {}

    def step(self, i: int) -> int:
        self.total += i & 3
        self.table[i & 255] = (self.total, i)
        return self.total


def _steps(cell: _Cell, count: int):
    for i in range(count):
        yield cell.step(i)


_CELL = _Cell()


def _kernel() -> int:
    """Method calls, a generator, dict stores, tuples, a sort: the
    interpreter paths the simulator lives on, with no state that grows."""
    total = 0
    for value in _steps(_CELL, _KERNEL_STEPS):
        total += value
    ordered = [(i * 7) % 100 for i in range(_KERNEL_STEPS // 4)]
    ordered.sort()
    return total


class SpeedGauge:
    """Accumulates kernel runs made inside one timed window."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.samples = 0
        self._next = perf_counter() + SAMPLE_EVERY_S

    def due(self) -> bool:
        return perf_counter() >= self._next

    def sample(self) -> None:
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.seconds += end - start
        self.samples += 1
        self._next = end + SAMPLE_EVERY_S


def slowdown(gauge_seconds: float, gauge_samples: int) -> float:
    """How much slower than the reference the box ran (1.0 = reference)."""
    if not gauge_samples:
        return 1.0
    return gauge_seconds / gauge_samples / KERNEL_REFERENCE_S
