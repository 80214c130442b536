"""Synchronous client session over the simulated database.

The instance API is asynchronous (generators and futures) because the
simulator is event-driven.  A :class:`Session` gives examples, tests, and
benchmarks a comfortable synchronous surface: each call drives the event
loop until its own result is ready, letting all background activity
(acknowledgements, gossip, replication) interleave naturally, exactly as
wall-clock time would.
"""

from __future__ import annotations

import random
from typing import Any, Generator

from repro.core.retry import Backoff, RetryPolicy
from repro.db.instance import Instance, InstanceState, WriterInstance
from repro.db.txn import Transaction
from repro.errors import (
    CommitUncertainError,
    FailoverInProgressError,
    InstanceStateError,
    RegionUnavailableError,
    ReplicationLagExceededError,
    SimulationError,
)
from repro.sim.events import EventLoop, Future
from repro.sim.process import Process


class Session:
    """A client connection to a writer or replica instance."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance

    @property
    def loop(self) -> EventLoop:
        return self.instance.loop

    # ------------------------------------------------------------------
    # Driving machinery
    # ------------------------------------------------------------------
    def drive(
        self,
        awaitable: Future | Process | Generator,
        max_ms: float = 60_000.0,
    ) -> Any:
        """Run the event loop until ``awaitable`` completes; return result.

        ``max_ms`` bounds the *simulated* time spent waiting: background
        maintenance ticks keep the event loop alive forever, so an
        operation that can never complete (e.g. a commit with the write
        quorum lost) would otherwise spin indefinitely.  Sixty simulated
        seconds is several orders of magnitude beyond any healthy
        operation in this library.
        """
        # Resolved once per call, never kept: ``self.loop`` is two property
        # hops, and ``step`` must be looked up when the drive starts so a
        # wrapper installed on ``EventLoop.step`` sees every event.
        loop = self.loop
        step = loop.step
        if isinstance(awaitable, Generator):
            awaitable = Process(loop, awaitable)
        future = (
            awaitable.completion
            if isinstance(awaitable, Process)
            else awaitable
        )
        deadline = loop.now + max_ms
        while not future.done:
            if not step():
                raise SimulationError(
                    "event loop drained before the operation completed "
                    "(lost quorum or unreachable storage?)"
                )
            if loop.now > deadline:
                raise SimulationError(
                    f"operation did not complete within {max_ms} ms of "
                    "simulated time (lost quorum or unreachable storage?)"
                )
        return future.result()

    def spawn(self, generator: Generator) -> Process:
        """Start an instance operation without waiting for it."""
        return Process(self.loop, generator)

    # ------------------------------------------------------------------
    # Transactions (writer sessions only)
    # ------------------------------------------------------------------
    def _writer(self) -> WriterInstance:
        if not isinstance(self.instance, WriterInstance):
            raise SimulationError("this session is attached to a replica")
        return self.instance

    def begin(self) -> Transaction:
        return self._writer().begin()

    def put(self, txn: Transaction, key, value) -> None:
        self.drive(self._writer().put(txn, key, value))

    def delete(self, txn: Transaction, key) -> None:
        self.drive(self._writer().delete(txn, key))

    def commit(self, txn: Transaction) -> int:
        """Commit and wait for the durable acknowledgement; returns SCN."""
        return self.drive(self._writer().commit(txn))

    def commit_async(self, txn: Transaction) -> Future:
        """Commit without waiting (the paper's worker-thread behaviour)."""
        return self._writer().commit(txn)

    def rollback(self, txn: Transaction) -> None:
        self.drive(self._writer().rollback(txn))

    # ------------------------------------------------------------------
    # Reads (writer or replica)
    # ------------------------------------------------------------------
    def get(self, key, txn: Transaction | None = None) -> Any:
        return self.drive(self.instance.get(key, txn))

    def scan(self, low, high, txn: Transaction | None = None) -> list:
        return self.drive(self.instance.scan(low, high, txn))

    # ------------------------------------------------------------------
    # One-shot convenience (auto-commit)
    # ------------------------------------------------------------------
    def write(self, key, value) -> int:
        """Single-statement write transaction; returns its SCN."""
        txn = self.begin()
        self.put(txn, key, value)
        return self.commit(txn)

    def write_many(self, items: dict) -> int:
        """One transaction writing several keys; returns its SCN."""
        txn = self.begin()
        for key in sorted(items, key=repr):
            self.put(txn, key, items[key])
        return self.commit(txn)

    def remove(self, key) -> int:
        txn = self.begin()
        self.delete(txn, key)
        return self.commit(txn)


class ClusterSession(Session):
    """A failover-aware client session.

    A plain :class:`Session` is pinned to one instance; when that writer
    dies the session dies with it.  A ``ClusterSession`` instead resolves
    the cluster's *current* writer on every operation, waits out
    in-progress failovers, and transparently retries the **idempotent**
    surface -- reads and the one-shot auto-commit writes, whose re-apply
    is a no-op by construction -- when a typed retryable error
    (:class:`FailoverInProgressError`, :class:`InstanceStateError`,
    :class:`CommitUncertainError`) interrupts it.

    Explicit transactions (:meth:`begin` .. :meth:`commit`) are *not*
    retried: a transaction handle is bound to one writer generation, and
    replaying arbitrary statement sequences is not idempotent in general.
    Their commit futures resolve with :class:`CommitUncertainError` on
    failover -- never a false acknowledgement -- and the caller decides.
    """

    #: Errors that mean "the writer moved under you; same call is safe".
    #: ``RegionUnavailableError`` and ``ReplicationLagExceededError`` are
    #: subclasses of the first two but named explicitly: the geo tier's
    #: region re-resolution depends on them staying retryable, so the
    #: tuple documents (and tests pin) that contract.
    RETRYABLE = (
        CommitUncertainError,
        FailoverInProgressError,
        InstanceStateError,
        RegionUnavailableError,
        ReplicationLagExceededError,
    )

    #: Re-poll schedule between retry attempts.  Jitter is load-bearing:
    #: with the proxy tier multiplexing very many sessions over one
    #: cluster, a fixed re-poll interval makes every session that saw the
    #: same failure retry in lockstep (thundering herd); decorrelated
    #: jitter spreads the wave.
    RETRY_POLICY = RetryPolicy(
        base_ms=10.0, cap_ms=200.0, multiplier=2.0, jitter=0.5
    )

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        # Deterministic per-session jitter stream: derived from the
        # cluster seed plus a per-cluster session counter, never from
        # module-level state, so parallel audit sweeps stay byte-identical
        # to sequential ones.
        seq = getattr(cluster, "_session_jitter_seq", 0)
        cluster._session_jitter_seq = seq + 1
        seed = getattr(getattr(cluster, "config", None), "seed", 0)
        self._retry_rng = random.Random((seed * 1_000_003 + seq) & 0xFFFFFFFF)

    def _new_backoff(self) -> Backoff:
        return Backoff(self.RETRY_POLICY, rng=self._retry_rng)

    @property
    def instance(self) -> WriterInstance:  # type: ignore[override]
        writer = self.cluster.writer
        if writer is None or self.cluster.failover_in_progress:
            # A geo cluster distinguishes "this whole region is gone,
            # promotion pending" from an ordinary in-region failover.
            if getattr(self.cluster, "region_unavailable", False):
                raise RegionUnavailableError(
                    "active region lost: waiting for secondary promotion"
                )
            raise FailoverInProgressError(
                "writer endpoint unresolved: a failover is in progress"
            )
        return writer

    @property
    def loop(self) -> EventLoop:
        return self.cluster.loop

    def await_writer(self, max_ms: float = 60_000.0) -> WriterInstance:
        """Pump the simulation until an open writer is available."""
        deadline = self.cluster.loop.now + max_ms
        for _ in range(int(max_ms / 5.0) + 1):
            writer = self.cluster.writer
            if (
                writer is not None
                and not self.cluster.failover_in_progress
                and writer.state is InstanceState.OPEN
            ):
                return writer
            if self.cluster.loop.now > deadline:
                break
            self.cluster.run_for(5.0)
        raise SimulationError(
            f"no open writer within {max_ms} ms of simulated time "
            "(failover stalled or no coordinator armed?)"
        )

    def _retry(self, op, max_ms: float = 60_000.0) -> Any:
        deadline = self.cluster.loop.now + max_ms
        backoff = self._new_backoff()
        while True:
            # Each attempt gets only the *remaining* budget: passing the
            # full ``max_ms`` here would let a failover that stalls after
            # the first attempt block for nearly twice the stated bound.
            remaining = max(1.0, deadline - self.cluster.loop.now)
            self.await_writer(max_ms=remaining)
            try:
                return op()
            except self.RETRYABLE:
                if self.cluster.loop.now > deadline:
                    raise
                # Let the failover plane make progress before retrying.
                self.cluster.run_for(backoff.next_delay())

    # Idempotent surface: safe to re-apply after an uncertain outcome.
    def write(self, key, value) -> int:
        return self._retry(lambda: super(ClusterSession, self).write(key, value))

    def write_many(self, items: dict) -> int:
        return self._retry(
            lambda: super(ClusterSession, self).write_many(items)
        )

    def remove(self, key) -> int:
        return self._retry(lambda: super(ClusterSession, self).remove(key))

    def get(self, key, txn: Transaction | None = None) -> Any:
        if txn is not None:
            # A transaction handle is bound to one writer generation:
            # replaying its reads against a promoted writer would silently
            # change the snapshot the caller is working in.  Raise the
            # retryable error through and let the caller restart the txn.
            return super().get(key, txn)
        return self._retry(lambda: super(ClusterSession, self).get(key))

    def scan(self, low, high, txn: Transaction | None = None) -> list:
        if txn is not None:
            return super().scan(low, high, txn)
        return self._retry(
            lambda: super(ClusterSession, self).scan(low, high)
        )
