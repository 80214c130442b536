"""Mini-transactions: the unit of structural atomicity.

"Each database transaction in Aurora MySQL is a sequence of ordered
mini-transactions (MTRs) that are performed atomically.  Each MTR is
composed of changes to one or more data blocks, represented as a batch of
sequenced redo log records ...  The database instance acquires latches for
each data block, allocates a batch of contiguously ordered LSNs, generates
the log records, issues a write, shards them into write buffers for each
protection group associated with the blocks" (section 3.3).

:class:`MTRBuilder` collects block changes; :meth:`MTRBuilder.seal` performs
the LSN allocation and record generation, maintaining all three back-chains.
The last record of the batch is flagged ``mtr_end`` -- the only legal VDL
points.  Chain state (last volume LSN, last LSN per PG, last LSN per block)
lives in :class:`ChainState`, owned by the writer and rebuilt at recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.lsn import NULL_LSN, LSNAllocator
from repro.core.records import (
    NO_BLOCK,
    LogRecord,
    RecordKind,
    RedoPayload,
    seed_redo,
)
from repro.errors import ConfigurationError


@dataclass
class ChainState:
    """The writer's back-chain bookkeeping across all records it generates."""

    last_volume_lsn: int = NULL_LSN
    last_pg_lsn: dict[int, int] = field(default_factory=dict)
    last_block_lsn: dict[int, int] = field(default_factory=dict)

    def thread(
        self, lsn: int, pg_index: int, block: int
    ) -> tuple[int, int, int]:
        """Return and update (prev_volume, prev_pg, prev_block) for a record."""
        prev_volume = self.last_volume_lsn
        prev_pg = self.last_pg_lsn.get(pg_index, NULL_LSN)
        prev_block = (
            self.last_block_lsn.get(block, NULL_LSN)
            if block != NO_BLOCK
            else NULL_LSN
        )
        self.last_volume_lsn = lsn
        self.last_pg_lsn[pg_index] = lsn
        if block != NO_BLOCK:
            self.last_block_lsn[block] = lsn
        return prev_volume, prev_pg, prev_block

    def reset_to(self, volume_lsn: int, pg_lsns: dict[int, int]) -> None:
        """Re-anchor the chains after crash recovery."""
        self.last_volume_lsn = volume_lsn
        self.last_pg_lsn = dict(pg_lsns)
        # Block chains are only used for on-demand materialization hints;
        # they restart empty and re-thread from the recovered blocks.
        self.last_block_lsn = {}


@dataclass
class BlockChange:
    """One pending change inside an open MTR."""

    block: int
    pg_index: int
    payload: RedoPayload
    kind: RecordKind = RecordKind.DATA
    #: What staging computed: ``payload`` applied to ``base`` gave
    #: ``image`` (both ``None`` for a change logged without staging).
    base: Mapping[Any, Any] | None = None
    image: Mapping[Any, Any] | None = None


class MTRBuilder:
    """Collects the block changes of one mini-transaction.

    The builder is deliberately not thread-aware: in the discrete-event
    simulation the writer executes one event at a time, which plays the role
    of the paper's block latches (no reader can observe a half-built MTR on
    the writer).
    """

    _next_mtr_id = 1

    def __init__(self, txn_id: int = 0) -> None:
        self.txn_id = txn_id
        self.mtr_id = MTRBuilder._next_mtr_id
        MTRBuilder._next_mtr_id += 1
        self.changes: list[BlockChange] = []
        #: Overlay of block images as staged by this MTR (visible only to
        #: reads performed on behalf of this MTR -- the latch analogue).
        #: The images are the ones sealing hands on, so they are never
        #: edited: a further change to the block stages a new image.
        self.staged_images: dict[int, Mapping[Any, Any]] = {}
        self._sealed = False

    def change(
        self,
        block: int,
        pg_index: int,
        payload: RedoPayload,
        kind: RecordKind = RecordKind.DATA,
        base: Mapping[Any, Any] | None = None,
        image: Mapping[Any, Any] | None = None,
    ) -> None:
        """Log a change; ``base``/``image`` when the caller staged it
        (``image`` is what ``payload.apply(base)`` returned)."""
        if self._sealed:
            raise ConfigurationError("MTR already sealed")
        self.changes.append(
            BlockChange(block, pg_index, payload, kind, base, image)
        )

    def seal(
        self, allocator: LSNAllocator, chains: ChainState
    ) -> list[LogRecord]:
        """Allocate contiguous LSNs and emit the record batch.

        The final record carries ``mtr_end=True``; all earlier records carry
        ``mtr_end=False`` so the VDL can never land mid-MTR.  A staged
        change's record starts life knowing its redo result, so no copy of
        the volume that applies it to the staged base runs the payload again.
        """
        if self._sealed:
            raise ConfigurationError("MTR already sealed")
        if not self.changes:
            raise ConfigurationError("cannot seal an empty MTR")
        self._sealed = True
        lsns = allocator.allocate(len(self.changes))
        records: list[LogRecord] = []
        for offset, (lsn, change) in enumerate(zip(lsns, self.changes)):
            prev_volume, prev_pg, prev_block = chains.thread(
                lsn, change.pg_index, change.block
            )
            record = LogRecord(
                lsn=lsn,
                prev_volume_lsn=prev_volume,
                prev_pg_lsn=prev_pg,
                prev_block_lsn=prev_block,
                block=change.block,
                pg_index=change.pg_index,
                kind=change.kind,
                payload=change.payload,
                txn_id=self.txn_id,
                mtr_id=self.mtr_id,
                mtr_end=(offset == len(self.changes) - 1),
            )
            if change.image is not None:
                seed_redo(record, change.base, change.image)
            records.append(record)
        return records

    def __len__(self) -> int:
        return len(self.changes)
