"""Workload generator and client driver.

:class:`WorkloadGenerator` produces a deterministic stream of transactions
(lists of :class:`Operation`) from a seeded RNG: configurable read/write
mix, Zipf-skewed key popularity, and transaction-size distribution.

:class:`WorkloadRunner` executes the stream against a cluster as simulated
client processes, either **closed-loop** (N clients, each issuing its next
transaction when the previous acknowledges -- throughput emerges) or
**open-loop** (Poisson arrivals at a target rate -- latency under load
emerges, including the tail behaviour benchmark C1/C2 measure).
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.sim.process import Process


class OpKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    DELETE = "delete"


@dataclass(frozen=True)
class Operation:
    kind: OpKind
    key: str
    value: str | None = None


#: Written values are padded to this many characters.
VALUE_SIZE = 32


@dataclass
class WorkloadConfig:
    """Shape of the synthetic OLTP stream."""

    key_count: int = 1_000
    write_fraction: float = 0.5
    delete_fraction: float = 0.02
    #: Zipf skew; 0 = uniform, ~1 = heavily skewed hot keys.
    zipf_theta: float = 0.8
    #: Operations per transaction: uniform in [min_ops, max_ops].
    min_ops: int = 1
    max_ops: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.write_fraction <= 1:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        if not 0 <= self.delete_fraction <= 1:
            raise ConfigurationError("delete_fraction must be in [0, 1]")
        if self.min_ops < 1 or self.max_ops < self.min_ops:
            raise ConfigurationError("need 1 <= min_ops <= max_ops")
        if self.key_count < 1:
            raise ConfigurationError("key_count must be >= 1")


class WorkloadGenerator:
    """Deterministic transaction stream."""

    def __init__(self, config: WorkloadConfig, seed: int = 0) -> None:
        self.config = config
        self.rng = random.Random(seed)
        self._weights = self._zipf_weights(
            config.key_count, config.zipf_theta
        )
        # Precomputed cumulative weights: ``random.choices`` accumulates the
        # raw weights on every call (O(key_count) per pick) but bisects when
        # handed ``cum_weights`` directly -- same RNG draws, same picks.
        self._cum_weights = list(itertools.accumulate(self._weights))
        self._keys = [f"key{i:08d}" for i in range(config.key_count)]
        self._txn_counter = 0

    @staticmethod
    def _zipf_weights(n: int, theta: float) -> list[float]:
        if theta == 0:
            return [1.0] * n
        return [1.0 / (rank**theta) for rank in range(1, n + 1)]

    def _pick_key(self) -> str:
        return self.rng.choices(
            self._keys, cum_weights=self._cum_weights, k=1
        )[0]

    def _value(self) -> str:
        self._txn_counter += 1
        payload = f"v{self._txn_counter}-"
        return payload + "x" * max(0, VALUE_SIZE - len(payload))

    def next_transaction(self) -> list[Operation]:
        """One transaction's operation list."""
        size = self.rng.randint(self.config.min_ops, self.config.max_ops)
        operations = []
        for _ in range(size):
            roll = self.rng.random()
            if roll < self.config.delete_fraction:
                operations.append(
                    Operation(OpKind.DELETE, self._pick_key())
                )
            elif roll < self.config.delete_fraction + self.config.write_fraction:
                operations.append(
                    Operation(OpKind.WRITE, self._pick_key(), self._value())
                )
            else:
                operations.append(Operation(OpKind.READ, self._pick_key()))
        return operations

    def transactions(self, count: int) -> list[list[Operation]]:
        return [self.next_transaction() for _ in range(count)]


def percentile(series: list[float], q: float) -> float:
    """The sample at rank ``int(q * n)`` (``q`` in [0, 1]); 0.0 for no
    samples.  The rule behind every latency cell of ``repro claims``."""
    if not series:
        return 0.0
    ordered = sorted(series)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


@dataclass
class RunnerStats:
    """What a workload run measured."""

    committed: int = 0
    aborted: int = 0
    commit_latencies: list[float] = field(default_factory=list)
    read_latencies: list[float] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        commits = self.commit_latencies
        return {
            "committed": float(self.committed),
            "aborted": float(self.aborted),
            "p50_ms": percentile(commits, 0.50),
            "p95_ms": percentile(commits, 0.95),
            "p99_ms": percentile(commits, 0.99),
            "mean_ms": (sum(commits) / len(commits)) if commits else 0.0,
            "peak_to_average": (
                max(commits) / (sum(commits) / len(commits))
                if commits
                else 0.0
            ),
        }


class WorkloadRunner:
    """Executes a workload against a simulated Aurora cluster."""

    def __init__(
        self,
        cluster,
        generator: WorkloadGenerator,
    ) -> None:
        self.cluster = cluster
        self.generator = generator
        self.stats = RunnerStats()

    # ------------------------------------------------------------------
    # Closed loop: N clients, each back-to-back
    # ------------------------------------------------------------------
    def run_closed_loop(
        self, clients: int, transactions_per_client: int
    ) -> RunnerStats:
        processes = [
            Process(
                self.cluster.loop,
                self._client(transactions_per_client),
            )
            for _ in range(clients)
        ]
        while not all(p.finished for p in processes):
            if not self.cluster.loop.step():
                raise ConfigurationError(
                    "simulation stalled before the workload finished"
                )
        return self.stats

    def _client(self, transaction_count: int):
        instance = self.cluster.writer
        from repro.errors import LockConflictError

        for _ in range(transaction_count):
            operations = self.generator.next_transaction()
            txn = instance.begin()
            started = self.cluster.loop.now
            try:
                for op in operations:
                    if op.kind is OpKind.READ:
                        read_start = self.cluster.loop.now
                        yield from instance.get(op.key, txn)
                        self.stats.read_latencies.append(
                            self.cluster.loop.now - read_start
                        )
                    elif op.kind is OpKind.WRITE:
                        yield from instance.put(txn, op.key, op.value)
                    else:
                        yield from instance.delete(txn, op.key)
            except LockConflictError:
                yield from instance.rollback(txn)
                self.stats.aborted += 1
                continue
            yield instance.commit(txn)
            self.stats.committed += 1
            self.stats.commit_latencies.append(
                self.cluster.loop.now - started
            )

    # ------------------------------------------------------------------
    # Open loop: Poisson arrivals at a fixed rate
    # ------------------------------------------------------------------
    def run_open_loop(
        self, rate_per_ms: float, duration_ms: float
    ) -> RunnerStats:
        """Single-op write transactions arriving as a Poisson process.

        Measures commit latency at a controlled offered load -- the shape
        benchmark C2 (boxcar jitter) depends on, because boxcar-timeout
        designs hurt most at LOW load.
        """
        loop = self.cluster.loop
        instance = self.cluster.writer
        rng = self.generator.rng
        end_at = loop.now + duration_ms
        in_flight: list[Process] = []

        def _one_txn():
            operations = self.generator.next_transaction()
            txn = instance.begin()
            started = loop.now
            from repro.errors import LockConflictError

            try:
                for op in operations:
                    if op.kind is OpKind.READ:
                        yield from instance.get(op.key, txn)
                    elif op.kind is OpKind.WRITE:
                        yield from instance.put(txn, op.key, op.value)
                    else:
                        yield from instance.delete(txn, op.key)
            except LockConflictError:
                yield from instance.rollback(txn)
                self.stats.aborted += 1
                return
            yield instance.commit(txn)
            self.stats.committed += 1
            self.stats.commit_latencies.append(loop.now - started)

        def _arrivals():
            while loop.now < end_at:
                in_flight.append(Process(loop, _one_txn()))
                yield rng.expovariate(rate_per_ms)

        arrival_process = Process(loop, _arrivals())
        while not arrival_process.finished or not all(
            p.finished for p in in_flight
        ):
            if not loop.step():
                raise ConfigurationError(
                    "simulation stalled before the workload finished"
                )
        return self.stats
