"""Transactions, undo, and the commit/rollback state machines.

Transactions live entirely at the database tier (section 2.3).  A
transaction accumulates:

- row write locks (released at commit/abort),
- an **undo log** of before-images -- per modified key, the version chain
  as it stood before this transaction's change, so rollback can restore it
  with compensating MTRs ("Undo of previously active transactions is
  required but can occur after the database has been opened"), and
- a read view (opened lazily at first read) anchoring its snapshot.

The commit flow mirrors section 2.3 exactly: the worker writes the commit
record, enqueues the transaction on the commit queue keyed by its SCN, and
moves on; the acknowledgement fires when the VCL passes the SCN.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

from repro.db.mvcc import ReadView, Version
from repro.errors import TransactionError


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTING = "committing"  # commit record written, awaiting durability
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class UndoRecord:
    """Before-image of one key's version chain in one block."""

    block: int
    key: Hashable
    prior_versions: tuple[Version, ...]


@dataclass
class Transaction:
    """One database transaction on the writer instance."""

    txn_id: int
    state: TxnState = TxnState.ACTIVE
    scn: int | None = None
    read_view: ReadView | None = None
    undo_log: list[UndoRecord] = field(default_factory=list)
    written_keys: set[Hashable] = field(default_factory=set)
    begin_time: float = 0.0

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, "
                "not active"
            )

    def record_undo(
        self, block: int, key: Hashable, prior_versions: tuple[Version, ...]
    ) -> None:
        self.require_active()
        self.undo_log.append(
            UndoRecord(block=block, key=key, prior_versions=prior_versions)
        )
        self.written_keys.add(key)

    @property
    def is_read_only(self) -> bool:
        return not self.undo_log


class TransactionManager:
    """Allocates transaction ids and tracks active transactions.

    Transaction ids share nothing with the LSN space; visibility never
    compares them against LSNs (it goes through commit SCNs), so a plain
    counter is enough.  The counter is seeded above any transaction id seen
    in recovered durable state so ids never collide across crashes.
    """

    def __init__(self, first_txn_id: int = 1) -> None:
        self._next_txn_id = first_txn_id
        self._active: dict[int, Transaction] = {}
        self.begun = 0
        self.committed = 0
        self.aborted = 0

    def begin(self, now: float = 0.0) -> Transaction:
        txn = Transaction(txn_id=self._next_txn_id, begin_time=now)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        self.begun += 1
        return txn

    def get(self, txn_id: int) -> Transaction:
        try:
            return self._active[txn_id]
        except KeyError:
            raise TransactionError(
                f"transaction {txn_id} is not active"
            ) from None

    def mark_committing(self, txn: Transaction, scn: int) -> None:
        txn.require_active()
        txn.state = TxnState.COMMITTING
        txn.scn = scn

    def finish_commit(self, txn: Transaction) -> None:
        if txn.state is not TxnState.COMMITTING:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}, "
                "not committing"
            )
        txn.state = TxnState.COMMITTED
        self._active.pop(txn.txn_id, None)
        self.committed += 1

    def finish_abort(self, txn: Transaction) -> None:
        if txn.state in (TxnState.COMMITTED, TxnState.ABORTED):
            raise TransactionError(
                f"transaction {txn.txn_id} already {txn.state.value}"
            )
        txn.state = TxnState.ABORTED
        self._active.pop(txn.txn_id, None)
        self.aborted += 1

    def seed_above(self, txn_id: int) -> None:
        """Ensure future ids exceed ``txn_id`` (recovery)."""
        self._next_txn_id = max(self._next_txn_id, txn_id + 1)

    def clear(self) -> None:
        """Crash: active-transaction state is ephemeral."""
        self._active.clear()

    @property
    def active_count(self) -> int:
        return len(self._active)
