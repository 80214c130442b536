"""MVCC read views and version visibility (sections 3.1, 3.4).

"Aurora uses read views to support snapshot isolation ...  A read view
establishes a logical point in time before which a SQL statement must see
all changes and after which it may not see any changes other than its own."

This implementation anchors read views to **durable LSN points** (the VDL at
view creation), which makes visibility a pure LSN comparison:

    a version written by transaction T is visible to a view anchored at
    read-point P  iff  T committed with SCN <= P (or T is the viewer).

The active-transaction list Aurora MySQL tracks is implied here: any
transaction still active when the view was created will receive an SCN
greater than every LSN allocated so far, hence greater than P.  (Aurora
PostgreSQL similarly "writes records out of place, recording the
transaction id with each record"; our per-key version chains follow that
style.)

Commit status is durable volume state: commit records materialize
``{txn_id: scn}`` into range-paged transaction-status blocks (see
:data:`repro.db.instance.TXNS_PER_PAGE`), so replicas and recovered
writers resolve visibility without any consensus on transaction outcome.
:class:`TransactionStatusRegistry` is the in-memory cache of that state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.lsn import NULL_LSN
from repro.errors import TransactionError

#: Sentinel value stored in a version to mark a deletion.
TOMBSTONE = "__tombstone__"

#: A version as stored in a leaf block: (txn_id, value).  ``TOMBSTONE`` as
#: the value marks a delete.  Version tuples are ordered oldest-first.
Version = tuple[int, Any]


@dataclass(frozen=True)
class ReadView:
    """A snapshot anchored at a durable LSN point."""

    view_id: int
    read_point: int
    #: Transaction this view belongs to (its own writes are visible).
    txn_id: int = 0

    def sees_scn(self, scn: int | None) -> bool:
        """Is a commit with this SCN inside the snapshot?"""
        return scn is not None and scn <= self.read_point


class TransactionStatusRegistry:
    """Cache of transaction outcomes: txn_id -> commit SCN.

    Absence means "not known committed": either still active, aborted, or
    committed so long ago that the caller must consult the durable
    transaction-status pages (recovery loads the registry from them).
    """

    def __init__(self) -> None:
        self._commits: dict[int, int] = {}
        self._aborted: set[int] = set()

    def record_commit(self, txn_id: int, scn: int) -> None:
        if txn_id in self._aborted:
            raise TransactionError(
                f"transaction {txn_id} already recorded as aborted"
            )
        existing = self._commits.get(txn_id)
        if existing is not None and existing != scn:
            raise TransactionError(
                f"conflicting SCNs for transaction {txn_id}: "
                f"{existing} vs {scn}"
            )
        self._commits[txn_id] = scn

    def record_abort(self, txn_id: int) -> None:
        if txn_id in self._commits:
            raise TransactionError(
                f"transaction {txn_id} already recorded as committed"
            )
        self._aborted.add(txn_id)

    def commit_scn(self, txn_id: int) -> int | None:
        return self._commits.get(txn_id)

    def is_aborted(self, txn_id: int) -> bool:
        return txn_id in self._aborted

    def load_txn_table_image(self, image: dict[Any, Any]) -> int:
        """Absorb a durable transaction-status page image; returns entries."""
        loaded = 0
        for txn_id, scn in image.items():
            if isinstance(txn_id, int) and isinstance(scn, int):
                self._commits.setdefault(txn_id, scn)
                loaded += 1
        return loaded

    def known_commits(self) -> dict[int, int]:
        return dict(self._commits)

    def clear(self) -> None:
        """Crash: registry cache is ephemeral (durable state is in blocks)."""
        self._commits.clear()
        self._aborted.clear()


def visible_value(
    versions: Iterable[Version],
    view: ReadView,
    registry: TransactionStatusRegistry,
) -> tuple[bool, Any]:
    """Resolve the value a read view sees in a version chain.

    Walks newest-to-oldest; the first visible version wins.  Returns
    ``(found, value)`` where ``found`` is False if no version is visible or
    the visible version is a tombstone.
    """
    for txn_id, value in reversed(tuple(versions)):
        if txn_id == view.txn_id or view.sees_scn(registry.commit_scn(txn_id)):
            if value == TOMBSTONE:
                return (False, None)
            return (True, value)
    return (False, None)


def prune_versions(
    versions: tuple[Version, ...],
    purge_point: int,
    registry: TransactionStatusRegistry,
    doomed_txns: frozenset[int] = frozenset(),
) -> tuple[Version, ...]:
    """Drop versions no present or future view can need.

    - Versions written by ``doomed_txns`` (rolled-back transactions) are
      removed outright (undo application).
    - Among committed versions with SCN <= ``purge_point`` (the PGMRPL-style
      floor), only the newest is kept: every live view's read point is at or
      above the floor, so older ones are unreachable -- the paper's "undo
      records may not be purged until all read views have advanced",
      inverted into version pruning.
    - Versions from unknown (in-flight) transactions are always kept.
    """
    survivors = [
        (txn_id, value)
        for txn_id, value in versions
        if txn_id not in doomed_txns
    ]
    # Index of the newest committed-below-floor version.
    newest_old = None
    for i in range(len(survivors) - 1, -1, -1):
        scn = registry.commit_scn(survivors[i][0])
        if scn is not None and scn <= purge_point:
            newest_old = i
            break
    if newest_old is None:
        return tuple(survivors)
    pruned = []
    for i, version in enumerate(survivors):
        scn = registry.commit_scn(version[0])
        is_old_committed = scn is not None and scn <= purge_point
        if is_old_committed and i < newest_old:
            continue
        pruned.append(version)
    return tuple(pruned)


class ReadViewManager:
    """Allocates read views and tracks the minimum active read point.

    The manager is the database-tier source of the PGMRPL advertisement:
    its :meth:`min_active_read_point` feeds
    :class:`repro.core.consistency.MinReadPointTracker`.
    """

    def __init__(self) -> None:
        self._next_view_id = 1
        self._active: dict[int, ReadView] = {}

    def open(self, read_point: int, txn_id: int = 0) -> ReadView:
        if read_point < NULL_LSN:
            raise TransactionError(f"invalid read point {read_point}")
        view = ReadView(
            view_id=self._next_view_id, read_point=read_point, txn_id=txn_id
        )
        self._next_view_id += 1
        self._active[view.view_id] = view
        return view

    def is_open(self, view: ReadView) -> bool:
        return view.view_id in self._active

    def close(self, view: ReadView) -> None:
        if view.view_id not in self._active:
            raise TransactionError(f"view {view.view_id} is not open")
        del self._active[view.view_id]

    def min_active_read_point(self) -> int | None:
        if not self._active:
            return None
        return min(v.read_point for v in self._active.values())

    @property
    def active_count(self) -> int:
        return len(self._active)

    def clear(self) -> None:
        self._active.clear()
