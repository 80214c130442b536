"""Session-scale workload generation for the serving tier.

The existing :class:`~repro.workloads.generator.WorkloadRunner` drives a
handful of closed-loop clients as full simulator processes.  That does
not scale to the serving tier's envelope -- hundreds of thousands of
concurrent *logical* sessions -- because a process per session would
swamp the event heap with idle think-time wakeups.

:class:`SessionScaleWorkload` instead keeps every idle session as one
heap entry ``(due_time, seq, session_idx)`` inside a single scheduler
process; a simulator process exists only while a session has an
operation in flight through the :class:`~repro.db.proxy.ConnectionProxy`.
With a mean think time of minutes and a horizon of seconds, 100k+
sessions cost only their active operations.

The loop is closed (and deterministic under one seed): each session
re-arms itself ``think`` milliseconds after its previous operation
completes, the classic interactive-user model.

The workload doubles as the serving tier's correctness probe.  It records
every submission, ack, failed write and read into one
:class:`~repro.history.History`, and :func:`repro.history.check` judges
it: every session owns private keys nobody else writes, so a read of one
must return the session's last acknowledged write (the *read-your-writes*
promise of the proxy's floor routing); shared-key reads must observe only
values some session submitted; and :meth:`SessionScaleWorkload.reconcile`
re-reads every session's last acknowledged private write after the run
settles -- the zero acked-commit-loss gate.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    LockConflictError,
    ReproError,
    SimulationError,
)
from repro.history import History
from repro.sim.process import Process


#: Share of operations that write, and share that touch the shared key
#: space (the rest use the session's private keys).
WRITE_FRACTION = 0.4
SHARED_FRACTION = 0.3
SHARED_KEYS = 512
#: Private keys per session (read-your-writes probes).
PRIVATE_KEYS = 2
#: Extra settle time after the horizon for in-flight ops to drain (ms).
DRAIN_MS = 60_000.0


@dataclass(frozen=True)
class SessionScaleConfig:
    """Shape of a session-scale run.

    Defaults model the audit gate: 100k logical sessions whose think
    times (minutes) dwarf the horizon (seconds), so only a few thousand
    operations actually fire -- exactly how a production fleet of mostly
    idle connections behaves.
    """

    sessions: int = 100_000
    horizon_ms: float = 20_000.0
    #: Mean exponential think time between a session's operations.
    think_ms: float = 120_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ConfigurationError("sessions must be >= 1")
        if self.horizon_ms <= 0 or self.think_ms <= 0:
            raise ConfigurationError("horizon_ms and think_ms must be > 0")


@dataclass
class SessionScaleStats:
    """What happened, for the serving report and the audit gates."""

    ops_completed: int = 0
    #: Operations that exhausted the proxy's retry budget (a lock conflict
    #: on a shared key is expected, not one of them).
    errors: int = 0


class SessionScaleWorkload:
    """Drive ``config.sessions`` logical sessions through a proxy,
    recording them into ``history``."""

    def __init__(self, proxy, config: SessionScaleConfig) -> None:
        self.proxy = proxy
        self.config = config
        self.stats = SessionScaleStats()
        self.rng = random.Random(config.seed * 9_176_501 + 11)
        self.sessions = [proxy.connect() for _ in range(config.sessions)]
        self.history = History(proxy.cluster.loop)
        self._heap: list = []
        self._active = 0
        self._seq = 0
        self._value_seq = 0
        self._end = 0.0

    # ------------------------------------------------------------------
    # Key helpers
    # ------------------------------------------------------------------
    def _private_key(self, idx: int) -> str:
        slot = self.rng.randrange(PRIVATE_KEYS)
        return f"s{idx}:p{slot}"

    def _shared_key(self) -> str:
        return f"shared:{self.rng.randrange(SHARED_KEYS)}"

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(self, due: float, idx: int) -> None:
        heapq.heappush(self._heap, (due, self._seq, idx))
        self._seq += 1

    def _seed_initial_wakeups(self) -> None:
        cfg = self.config
        start = self.proxy.cluster.loop.now
        for idx in range(cfg.sessions):
            # Residual of an exponential think time is exponential, so
            # sampling the full distribution gives a stationary start.
            due = start + self.rng.expovariate(1.0 / cfg.think_ms)
            if due <= self._end:
                self._push(due, idx)

    def _scheduler(self):
        loop = self.proxy.cluster.loop
        while loop.now <= self._end:
            if self._heap and self._heap[0][0] <= loop.now:
                _due, _seq, idx = heapq.heappop(self._heap)
                self._launch(idx)
                continue
            next_due = self._heap[0][0] if self._heap else self._end + 1.0
            # Bounded slices: completions may re-arm sessions earlier
            # than the current heap head, so never sleep far past it.
            yield max(0.1, min(next_due - loop.now, 5.0))

    def _launch(self, idx: int) -> None:
        rng = self.rng
        # Draw all of the operation's randomness here, at the single
        # deterministic scheduling point, so interleaving of in-flight
        # operations cannot perturb the random stream.
        is_write = rng.random() < WRITE_FRACTION
        is_shared = rng.random() < SHARED_FRACTION
        key = self._shared_key() if is_shared else self._private_key(idx)
        # Shared keys are judged per key, so their operations are the
        # fleet's (no reader); a private key's are its session's.
        who = None if is_shared else idx
        value = None
        if is_write:
            self._value_seq += 1
            value = self._value_seq
            # Recorded before the write starts, so any visible value is
            # necessarily in the history.
            self.history.submit(key, value, who)
        self._active += 1
        process = Process(
            self.proxy.cluster.loop, self._one_op(idx, who, key, value)
        )
        process.completion.add_done_callback(
            lambda future, idx=idx: self._finish(idx, future)
        )

    def _finish(self, idx: int, future) -> None:
        self._active -= 1
        exc = future.exception() if future.done else None
        if exc is None:
            self.stats.ops_completed += 1
        elif isinstance(exc, LockConflictError):
            pass  # a shared key's conflict: expected, not an error
        elif isinstance(exc, (ReproError, SimulationError)):
            self.stats.errors += 1
        else:  # pragma: no cover - genuine bug in the harness
            raise exc
        loop = self.proxy.cluster.loop
        due = loop.now + self.rng.expovariate(1.0 / self.config.think_ms)
        if due <= self._end:
            self._push(due, idx)

    # ------------------------------------------------------------------
    # One operation (runs as a simulator process)
    # ------------------------------------------------------------------
    def _one_op(self, idx: int, who, key, value):
        proxy, history = self.proxy, self.history
        session = self.sessions[idx]
        if value is None:
            observed = yield from proxy.read(session, key)
            kind = "shared" if who is None else "private"
            history.read(key, observed, kind, who, session.last_commit_scn)
            return
        try:
            yield from proxy.write(session, key, value)
        except ReproError:
            # The outcome is never learned: the write may have committed.
            history.fail(key, who=who)
            raise
        history.ack(key, value, who)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self) -> SessionScaleStats:
        """Drive the workload for ``horizon_ms``, then drain in-flight
        operations (failover ride-through may extend past the horizon)."""
        loop = self.proxy.cluster.loop
        self.proxy.start()
        self._end = loop.now + self.config.horizon_ms
        self._seed_initial_wakeups()
        scheduler = Process(loop, self._scheduler())
        hard_stop = self._end + DRAIN_MS
        while not scheduler.completion.done or self._active > 0:
            if not loop.step():
                raise SimulationError(
                    "event loop drained mid session-scale run"
                )
            if loop.now > hard_stop:
                raise SimulationError(
                    f"session-scale run stalled: {self._active} ops still "
                    f"in flight {DRAIN_MS} ms past the horizon"
                )
        return self.stats

    def reconcile(self) -> None:
        """Re-read every session's last acked private write through the
        proxy, after the run settles."""
        for ack in self.history.unsettled("settle"):
            observed = self.proxy.execute_read(self.sessions[ack.who], ack.key)
            self.history.read(ack.key, observed, "settle", ack.who)
