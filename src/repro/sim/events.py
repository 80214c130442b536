"""Event loop and futures for the discrete-event simulator.

The loop is a classic calendar queue in struct-of-arrays form: the heap
holds bare ``(time, seq)`` tuples -- compared at C speed, no Python
``__lt__`` dispatch per sift -- and a flat side table maps ``seq`` to the
``(callback, args)`` pair.  ``seq`` is a monotonically increasing
tie-breaker so that two events scheduled for the same instant fire in the
order they were scheduled, which keeps simulations deterministic regardless
of heap internals.  Cancellation deletes the side-table entry (O(1), and
the callback's references drop immediately); the heap tuple is swept
lazily on pop or by compaction.

Times are floats in arbitrary units; this library uses **milliseconds**
throughout by convention (network RTTs of a fraction of a millisecond to a
few milliseconds match the paper's intra-AZ / cross-AZ setting).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable

from repro.errors import SimulationError


class Event:
    """Handle to a scheduled callback.  Cancellable until it has fired.

    A thin view over the loop's flat tables: the callback itself lives in
    the loop, keyed by ``seq``, and the heap holds plain ``(time, seq)``
    tuples, so the loop never keeps a handle.  ``schedule_at`` and
    ``call_soon`` still build one per call and return it; a caller that
    does not keep it (anything but a timer it may cancel) drops it at once.
    """

    __slots__ = ("time", "seq", "_loop")

    def __init__(self, time: float, seq: int, loop: "EventLoop") -> None:
        self.time = time
        self.seq = seq
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives.

        A no-op once the event has fired or was already cancelled (either
        way its entry is gone from the loop's table).
        """
        self._loop._cancel(self.seq)

    @property
    def cancelled(self) -> bool:
        return self.seq not in self._loop._entries

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} seq={self.seq} {state}>"


class EventLoop:
    """Deterministic discrete-event scheduler.

    Example::

        loop = EventLoop()
        loop.schedule(5.0, print, "five ms elapsed")
        loop.run()
        assert loop.now == 5.0
    """

    # Lazy-deletion compaction: cancelled events leave a stale (time, seq)
    # tuple in the heap until popped, which leaks memory on long soaks that
    # arm and re-arm timers.  When the stale fraction passes ~50% (and the
    # heap is big enough for a rebuild to pay for itself) the heap is
    # filtered against the live table and re-heapified.
    COMPACT_MIN_HEAP = 256

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: Bare (time, seq) tuples -- native comparisons in the heap.
        self._heap: list[tuple[float, int]] = []
        #: seq -> (callback, args); membership defines "live".
        self._entries: dict[int, tuple[Callable[..., None], tuple]] = {}
        self._stale = 0
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulation time (milliseconds)."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._entries[seq] = (callback, args)
        heapq.heappush(self._heap, (time, seq))
        return Event(time, seq, self)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback`` at the current time (after pending events).

        Fast path: skips the delay/past-time validation of
        :meth:`schedule_at` -- ``now`` is never before ``now``.
        """
        seq = self._seq
        self._seq = seq + 1
        self._entries[seq] = (callback, args)
        heapq.heappush(self._heap, (self._now, seq))
        return Event(self._now, seq, self)

    def _cancel(self, seq: int) -> None:
        if self._entries.pop(seq, None) is not None:
            self._stale += 1
            self._maybe_compact()

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        heap = self._heap
        entries = self._entries
        pop = heapq.heappop
        while heap:
            time, seq = pop(heap)
            entry = entries.pop(seq, None)
            if entry is None:
                self._stale -= 1
                continue
            self._now = time
            self.events_executed += 1
            callback, args = entry
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> None:
        """Run events until the heap drains or ``until`` is reached.

        ``max_events`` is a runaway-loop backstop; exceeding it raises
        :class:`SimulationError` rather than hanging the host.
        """
        executed = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                return
            if not self.step():
                break
            executed += 1
            if executed > max_events:
                raise SimulationError(
                    f"event budget exceeded ({max_events} events); "
                    "likely a scheduling loop"
                )
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self) -> None:
        """Drain every pending event regardless of time."""
        self.run(until=None)

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return len(self._entries)

    def _maybe_compact(self) -> None:
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN_HEAP and self._stale * 2 > len(heap):
            entries = self._entries
            self._heap = [item for item in heap if item[1] in entries]
            heapq.heapify(self._heap)
            self._stale = 0


class Future:
    """A one-shot container for a value that will exist later.

    Futures connect asynchronous flows (quorum acknowledgements, commit
    acks, storage reads) back to the code waiting on them.  Callbacks added
    with :meth:`add_done_callback` run inline when the future resolves;
    processes waiting via ``yield future`` are resumed through the same
    mechanism.
    """

    __slots__ = ("_loop", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, loop: EventLoop) -> None:
        self._loop = loop
        self._done = False
        self._value: Any = None
        self._exception: BaseException | None = None
        #: None (none yet), a bare callable (the common single-waiter
        #: case: no list allocation), or a list of callables.
        self._callbacks: Any = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def loop(self) -> EventLoop:
        return self._loop

    def result(self) -> Any:
        """Return the resolved value, re-raising a stored exception."""
        if not self._done:
            raise SimulationError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def exception(self) -> BaseException | None:
        if not self._done:
            raise SimulationError("future is not resolved yet")
        return self._exception

    def set_result(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._value = value
        self._run_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._exception = exc
        self._run_callbacks()

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when resolved (immediately if already done)."""
        if self._done:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = fn
        elif type(self._callbacks) is list:
            self._callbacks.append(fn)
        else:
            self._callbacks = [self._callbacks, fn]

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks is None:
            return
        if type(callbacks) is list:
            for fn in callbacks:
                fn(self)
        else:
            callbacks(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self._done:
            return "<Future pending>"
        if self._exception is not None:
            return f"<Future exception={self._exception!r}>"
        return f"<Future value={self._value!r}>"


def gather(loop: EventLoop, futures: Iterable[Future]) -> Future:
    """Return a future that resolves with a list of all results.

    Resolves with the first exception if any input future fails.
    """
    futures = list(futures)
    combined = Future(loop)
    if not futures:
        combined.set_result([])
        return combined
    remaining = [len(futures)]

    def _on_done(_f: Future) -> None:
        if combined.done:
            return
        if _f.exception() is not None:
            combined.set_exception(_f.exception())  # type: ignore[arg-type]
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            combined.set_result([f.result() for f in futures])

    for f in futures:
        f.add_done_callback(_on_done)
    return combined
