"""Client session over a multi-writer deployment.

Single-partition transactions flow exactly as before (the owning writer's
locks, MVCC, and commit pipeline).  Cross-partition transactions stage
their writes client-side, are sequenced by the journal (the single
durability point the client is acknowledged on), and are then applied to
every participant in GSN order; the session waits for the local applies so
the caller gets read-your-writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.db.session import Session
from repro.errors import SimulationError, TransactionError
from repro.multiwriter.cluster import MultiWriterCluster


@dataclass
class MWTransaction:
    """A client-side staged transaction (may span partitions)."""

    uid: str
    #: key -> value (None = delete); later writes supersede earlier ones.
    staged: dict[Hashable, Any] = field(default_factory=dict)
    finished: bool = False

    def require_open(self) -> None:
        if self.finished:
            raise TransactionError(f"transaction {self.uid} is finished")


class MultiWriterSession:
    """Synchronous client surface over a :class:`MultiWriterCluster`."""

    def __init__(self, cluster: MultiWriterCluster) -> None:
        self.cluster = cluster
        self.cross_partition_commits = 0
        self.single_partition_commits = 0

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def drive(self, awaitable, max_ms: float = 60_000.0) -> Any:
        return Session(self.cluster.partitions[0].writer).drive(
            awaitable, max_ms=max_ms
        )

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> MWTransaction:
        return MWTransaction(uid=self.cluster.next_txn_uid())

    def put(self, txn: MWTransaction, key: Hashable, value: Any) -> None:
        txn.require_open()
        if value is None:
            raise SimulationError(
                "None is reserved as the delete marker; store a sentinel"
            )
        txn.staged[key] = value

    def delete(self, txn: MWTransaction, key: Hashable) -> None:
        txn.require_open()
        txn.staged[key] = None

    def get(self, key: Hashable, txn: MWTransaction | None = None) -> Any:
        """Read through: staged writes first, then the owning partition."""
        if txn is not None and key in txn.staged:
            return txn.staged[key]
        index = self.cluster.partition_of(key)
        return self.cluster.partition_session(index).get(key)

    def rollback(self, txn: MWTransaction) -> None:
        txn.require_open()
        txn.finished = True
        txn.staged.clear()

    def commit(self, txn: MWTransaction) -> dict[str, Any]:
        """Commit; returns a summary describing the path taken."""
        txn.require_open()
        txn.finished = True
        if not txn.staged:
            return {"path": "read-only"}
        by_partition: dict[int, list[tuple[Hashable, Any]]] = {}
        for key, value in txn.staged.items():
            index = self.cluster.partition_of(key)
            by_partition.setdefault(index, []).append((key, value))
        if len(by_partition) == 1:
            return self._commit_single(txn, *by_partition.popitem())
        return self._commit_cross(txn, by_partition)

    def _commit_single(
        self,
        txn: MWTransaction,
        index: int,
        writes: list[tuple[Hashable, Any]],
    ) -> dict[str, Any]:
        """One partition: the ordinary single-writer protocol, unchanged."""
        session = self.cluster.partition_session(index)
        local = session.begin()
        for key, value in sorted(writes, key=lambda kv: repr(kv[0])):
            if value is None:
                session.delete(local, key)
            else:
                session.put(local, key, value)
        scn = session.commit(local)
        self.single_partition_commits += 1
        return {"path": "single", "partition": index, "scn": scn}

    def _commit_cross(
        self,
        txn: MWTransaction,
        by_partition: dict[int, list[tuple[Hashable, Any]]],
    ) -> dict[str, Any]:
        """Cross-partition: journal-sequenced commit.

        1. The journal entry (carrying the full write set) commits on
           the journal volume -- THE commit point.
        2. Each participant applies entries up to this GSN in order; the
           session waits so the caller reads its own writes.
        """
        entry = self.drive(
            self.cluster.journal.append(txn.uid, by_partition)
        )
        # Local applies proceed in parallel across partitions; the wait is
        # purely for read-your-writes (the journal append above was the
        # commit point).
        applies = [
            self.cluster.appliers[index].ensure_applied(entry.gsn)
            for index in sorted(by_partition)
        ]
        for process in applies:
            self.drive(process)
        self.cross_partition_commits += 1
        return {
            "path": "journal",
            "gsn": entry.gsn,
            "partitions": sorted(by_partition),
        }

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def write(self, key: Hashable, value: Any) -> dict[str, Any]:
        txn = self.begin()
        self.put(txn, key, value)
        return self.commit(txn)

    def write_many(self, items: dict) -> dict[str, Any]:
        txn = self.begin()
        for key, value in items.items():
            self.put(txn, key, value)
        return self.commit(txn)
