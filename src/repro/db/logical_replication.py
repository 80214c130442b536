"""Logical replication to non-Aurora systems (section 3.2).

"Aurora supports logical replication to communicate with non-Aurora
systems and in cases where the application does not want physical
consistency -- for example, when schemas differ."

Unlike the physical stream (redo records, applied to identical block
images), the logical stream carries **row-level changes of durably
committed transactions**, in commit order.  Subscribers apply them to any
store whatsoever; a transforming subscriber demonstrates the
schemas-differ case.

Ordering guarantee: changes are published when the commit is acknowledged
(SCN <= VCL), and commit acknowledgements fire in SCN order, so the
logical stream is totally ordered by SCN and contains only durable
transactions -- a subscriber can never observe a transaction that crash
recovery would annul.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable


class ChangeKind(enum.Enum):
    UPSERT = "upsert"
    DELETE = "delete"


@dataclass(frozen=True)
class RowChange:
    """One row-level change within a committed transaction."""

    kind: ChangeKind
    key: Hashable
    value: Any = None


@dataclass(frozen=True)
class LogicalTransaction:
    """A durably committed transaction, in commit (SCN) order."""

    txn_id: int
    scn: int
    changes: tuple[RowChange, ...]


class LogicalPublisher:
    """Writer-side logical change publisher.

    The writer records each transaction's net row changes as they execute
    and hands the bundle to every subscriber when the commit becomes
    durable.  Subscribers are plain callables (in-process) -- shipping
    them across the simulated network is a subscriber's own concern.
    """

    def __init__(self) -> None:
        self._subscribers: list[Callable[[LogicalTransaction], None]] = []
        self._staged: dict[int, dict[Hashable, RowChange]] = {}
        self.published = 0
        self.last_scn = 0

    def subscribe(
        self, subscriber: Callable[[LogicalTransaction], None]
    ) -> None:
        self._subscribers.append(subscriber)

    def unsubscribe(
        self, subscriber: Callable[[LogicalTransaction], None]
    ) -> None:
        self._subscribers.remove(subscriber)

    # ------------------------------------------------------------------
    # Writer integration
    # ------------------------------------------------------------------
    def stage(self, txn_id: int, change: RowChange) -> None:
        """Record a row change for an in-flight transaction.

        Later changes to the same key within one transaction supersede
        earlier ones: the logical stream carries net effects.
        """
        self._staged.setdefault(txn_id, {})[change.key] = change

    def discard(self, txn_id: int) -> None:
        """The transaction rolled back (or was never logical-relevant)."""
        self._staged.pop(txn_id, None)

    def publish_commit(self, txn_id: int, scn: int) -> None:
        """The transaction is durably committed: emit its changes."""
        staged = self._staged.pop(txn_id, None)
        if not staged:
            return
        transaction = LogicalTransaction(
            txn_id=txn_id,
            scn=scn,
            changes=tuple(
                staged[key] for key in sorted(staged, key=repr)
            ),
        )
        self.published += 1
        self.last_scn = max(self.last_scn, scn)
        for subscriber in self._subscribers:
            subscriber(transaction)

    def drop_transient_state(self) -> None:
        """Crash: staged (uncommitted) changes die with the instance.

        This is safe for exactly the reason commits are: nothing is ever
        published before it is durable, so subscribers hold no state that
        recovery could contradict.
        """
        self._staged.clear()


@dataclass
class TableSubscriber:
    """The simplest non-Aurora system: a dict kept in sync."""

    table: dict = field(default_factory=dict)
    applied: list[int] = field(default_factory=list)

    def __call__(self, transaction: LogicalTransaction) -> None:
        for change in transaction.changes:
            if change.kind is ChangeKind.DELETE:
                self.table.pop(change.key, None)
            else:
                self.table[change.key] = change.value
        self.applied.append(transaction.scn)

    @property
    def in_order(self) -> bool:
        return self.applied == sorted(self.applied)


@dataclass
class TransformingSubscriber:
    """The 'schemas differ' case: project/rename on the way through."""

    transform: Callable[[Hashable, Any], tuple[Hashable, Any]] = (
        lambda key, value: (key, value)
    )
    table: dict = field(default_factory=dict)

    def __call__(self, transaction: LogicalTransaction) -> None:
        for change in transaction.changes:
            if change.kind is ChangeKind.DELETE:
                new_key, _ = self.transform(change.key, None)
                self.table.pop(new_key, None)
            else:
                new_key, new_value = self.transform(
                    change.key, change.value
                )
                self.table[new_key] = new_value
