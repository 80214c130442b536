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

The workload doubles as the serving tier's correctness probe:

- every session owns private keys nobody else writes, so a read of a
  private key must return the session's last acknowledged write -- the
  *read-your-writes* invariant the proxy's floor routing promises
  (violations are flagged as ``proxy-read-your-writes``);
- shared-key reads must observe only values some session actually wrote
  (``proxy-read-consistency``);
- :meth:`SessionScaleWorkload.reconcile` re-reads every session's last
  acknowledged private write after the run settles, flagging any loss as
  ``proxy-acked-write-loss`` -- the zero acked-commit-loss gate.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro.errors import (
    ConfigurationError,
    LockConflictError,
    ReproError,
    SimulationError,
)
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

    sessions: int = 0
    ops_started: int = 0
    ops_completed: int = 0
    reads: int = 0
    writes: int = 0
    #: Lock conflicts on shared keys (expected, not a failure).
    aborts: int = 0
    #: Operations that exhausted the proxy's retry budget.
    errors: int = 0
    ryw_checks: int = 0
    ryw_violations: int = 0
    shared_check_violations: int = 0
    #: Reconciliation: sessions whose last acked private write survived /
    #: was lost.
    reconciled: int = 0
    lost_acked_writes: int = 0


class SessionScaleWorkload:
    """Drive ``config.sessions`` logical sessions through a proxy.

    ``flag(invariant, subject, detail)`` -- typically
    :meth:`repro.audit.auditor.Auditor.flag` -- receives every
    correctness violation; when ``None`` violations are only counted.
    """

    def __init__(self, proxy, config: SessionScaleConfig, flag=None) -> None:
        self.proxy = proxy
        self.config = config
        self.flag = flag
        self.stats = SessionScaleStats(sessions=config.sessions)
        self.rng = random.Random(config.seed * 9_176_501 + 11)
        self.sessions = [proxy.connect() for _ in range(config.sessions)]
        #: session idx -> (private key, last acked value) for RYW checks.
        self._acked: dict[int, tuple[str, int]] = {}
        #: (idx, key) pairs whose outcome is uncertain (op errored after
        #: possibly committing): excluded from exact-value checks.
        self._tainted: set = set()
        #: (idx, key) pairs written again while an earlier write's outcome
        #: was still uncertain: the exact expected value is ambiguous.
        self._racy: set = set()
        #: Everything ever *submitted* for a shared key (recorded before
        #: the write starts, so any visible value is necessarily here).
        self._shared_history: dict[str, set] = {}
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

    def _violate(self, invariant: str, subject: str, detail: str) -> None:
        if self.flag is not None:
            self.flag(invariant, subject, detail)

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
        value = None
        if is_write:
            self._value_seq += 1
            value = self._value_seq
            if is_shared:
                self._shared_history.setdefault(key, set()).add(value)
            else:
                if (idx, key) in self._tainted:
                    # A second write while one is still uncertain: the
                    # "last acked" value is permanently ambiguous.
                    self._racy.add((idx, key))
                # The outcome is uncertain until the ack arrives.
                self._tainted.add((idx, key))
        self.stats.ops_started += 1
        self._active += 1
        process = Process(
            self.proxy.cluster.loop,
            self._one_op(idx, key, value, is_write, is_shared),
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
            self.stats.aborts += 1
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
    def _one_op(self, idx: int, key, value, is_write: bool, is_shared: bool):
        proxy = self.proxy
        session = self.sessions[idx]
        if is_write:
            yield from proxy.write(session, key, value)
            self.stats.writes += 1
            if not is_shared:
                # Acked: this is now the value RYW reads must observe.
                self._acked[idx] = (key, value)
                self._tainted.discard((idx, key))
        else:
            observed = yield from proxy.read(session, key)
            self.stats.reads += 1
            if is_shared:
                self._check_shared(key, observed)
            else:
                self._check_private(idx, key, observed)

    def _check_private(self, idx: int, key: str, observed) -> None:
        acked = self._acked.get(idx)
        if acked is None or acked[0] != key or (idx, key) in self._tainted:
            return
        if (idx, key) in self._racy:
            return
        self.stats.ryw_checks += 1
        if observed != acked[1]:
            self.stats.ryw_violations += 1
            self._violate(
                "proxy-read-your-writes",
                f"session-{idx}",
                f"read {key!r} -> {observed!r} after ack of {acked[1]!r} "
                f"(floor scn {self.sessions[idx].last_commit_scn})",
            )

    def _check_shared(self, key: str, observed) -> None:
        if observed is None:
            return  # never written, or writes still in flight
        if observed not in self._shared_history.get(key, ()):
            self.stats.shared_check_violations += 1
            self._violate(
                "proxy-read-consistency",
                key,
                f"observed {observed!r}, never submitted for this key",
            )

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

    def reconcile(self) -> int:
        """Re-read every session's last acked private write through the
        proxy; flag and count losses.  Returns the number lost."""
        lost = 0
        for idx in sorted(self._acked):
            key, value = self._acked[idx]
            if (idx, key) in self._tainted or (idx, key) in self._racy:
                continue
            observed = self.proxy.execute_read(self.sessions[idx], key)
            self.stats.reconciled += 1
            if observed != value:
                lost += 1
                self._violate(
                    "proxy-acked-write-loss",
                    f"session-{idx}",
                    f"acked write {key!r}={value!r} reads back "
                    f"{observed!r} after settle",
                )
        self.stats.lost_acked_writes = lost
        return lost
