"""Wire-format model for redo shipping: coalescing and compression.

BtrLog and Taurus (PAPERS.md) both make the point that the log path is
where cloud-database latency and network cost live, and that frugality on
the wire compounds with batching.  This module models two wire-level
optimizations the driver applies to a :class:`~repro.storage.messages.
WriteBatch` at flush time:

- **Same-transaction payload elision** (:func:`elide_superseded`): a DATA
  record whose entire write set is overwritten by later records of the
  *same transaction* inside the *same batch* ships with an
  :class:`~repro.core.records.ElidedPayload` -- LSN and back-chains intact,
  content elided.  Safe because B-tree row updates log the full MVCC
  version chain built on the prior image (the covering record embeds the
  superseded effect) and an uncommitted intermediate version is invisible
  at every legal read point.  Cross-transaction collapse is deliberately
  NOT attempted: a commit record can land between two transactions'
  records, making the earlier committed effect readable in between.

- **Delta-encoded LSNs** (:func:`batch_wire_bytes`): consecutive LSNs
  inside a batch cost a one-byte delta instead of a full word, mirroring
  the varint framing a real wire format would use.

Records are Python objects in this simulation, so "bytes" are a
deterministic model, not a serialization: the same records always cost the
same bytes, which is what the amplification benchmarks need.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.records import (
    NO_BLOCK,
    BlockDelete,
    BlockPut,
    BlockReplace,
    ElidedPayload,
    LogRecord,
    RecordKind,
)

#: Modelled framing overhead of one WriteBatch (header, epochs, pgmrpl).
BATCH_HEADER_BYTES = 64
#: Fixed per-record metadata (kind, flags, block, pg, txn, mtr ids).
RECORD_HEADER_BYTES = 18
#: A full (non-delta) LSN or back-chain pointer.
LSN_BYTES = 8
#: A delta-encoded LSN (consecutive within the batch).
LSN_DELTA_BYTES = 1
#: An elided payload on the wire: a marker plus the covering delta.
ELIDED_PAYLOAD_BYTES = 2

#: Coverage sentinel: a whole-block overwrite covers every key.
_ALL = object()


def value_bytes(value: object) -> int:
    """Deterministic modelled size of one payload value."""
    # Nearly every value is exactly a tuple, an int or a str (row keys,
    # version chains, LSNs); those skip the ladder, which still sizes
    # everything else -- subclasses and ``bool`` (before ``int``) included.
    kind = type(value)
    if kind is tuple:
        return 8 + sum(map(value_bytes, value))
    if kind is int:
        return 8
    if kind is str:
        return len(value) + 1
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value) + 1
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return 8 + sum(value_bytes(v) for v in value)
    if isinstance(value, dict):
        return 8 + sum(
            value_bytes(k) + value_bytes(v) for k, v in value.items()
        )
    return 16


def payload_bytes(payload: object) -> int:
    """Modelled wire size of one record payload.

    Sizes are memoized on the (frozen, immutable) payload object: every
    flushed record is measured twice -- once for the logical total, once
    for the wire total -- and resubmitted batches would measure it again.
    """
    if isinstance(payload, ElidedPayload):
        return ELIDED_PAYLOAD_BYTES
    if not isinstance(payload, (BlockPut, BlockDelete, BlockReplace)):
        # Commit / control / foreign payloads: a fixed frame plus any
        # obvious attributes is close enough for a model.  Foreign types
        # may be slotted, so do not attempt to cache on them.
        return 16
    size = getattr(payload, "_wire_size", None)
    if size is not None:
        return size
    if isinstance(payload, BlockPut):
        size = 4 + sum(
            value_bytes(k) + value_bytes(v) for k, v in payload.entries
        )
    elif isinstance(payload, BlockDelete):
        size = 4 + sum(value_bytes(k) for k in payload.keys)
    else:
        size = 4 + sum(
            value_bytes(k) + value_bytes(v) for k, v in payload.image
        )
    object.__setattr__(payload, "_wire_size", size)
    return size


def batch_wire_bytes(records: tuple[LogRecord, ...]) -> int:
    """Modelled bytes of a batch with delta-encoded LSNs."""
    total = BATCH_HEADER_BYTES
    prev_lsn = None
    for record in records:
        total += RECORD_HEADER_BYTES
        if prev_lsn is not None and record.lsn == prev_lsn + 1:
            total += LSN_DELTA_BYTES
        else:
            total += LSN_BYTES
        # Back-chains delta against the record's own LSN (always below it);
        # model them at delta cost when nearby, full cost otherwise.
        for back in (
            record.prev_volume_lsn,
            record.prev_pg_lsn,
            record.prev_block_lsn,
        ):
            total += (
                LSN_DELTA_BYTES if 0 <= record.lsn - back < 128 else LSN_BYTES
            )
        total += payload_bytes(record.payload)
        prev_lsn = record.lsn
    return total


def batch_logical_bytes(records: tuple[LogRecord, ...]) -> int:
    """Modelled bytes of the same records with no wire compression."""
    total = BATCH_HEADER_BYTES
    for record in records:
        total += RECORD_HEADER_BYTES + 4 * LSN_BYTES
        payload = record.payload
        if isinstance(payload, ElidedPayload):
            # Should not happen (elision runs after this is measured), but
            # stay honest if it does.
            total += ELIDED_PAYLOAD_BYTES
        else:
            total += payload_bytes(payload)
    return total


def _payload_key_coverage(payload: object):
    """(keys_written, covers_all) for a known payload type."""
    if isinstance(payload, BlockPut):
        return [k for k, _v in payload.entries], False
    if isinstance(payload, BlockDelete):
        return list(payload.keys), False
    if isinstance(payload, BlockReplace):
        return [], True
    return None, False


def elide_superseded(
    records: tuple[LogRecord, ...],
) -> tuple[tuple[LogRecord, ...], int]:
    """Replace superseded same-transaction payloads with elided stand-ins.

    Walks the batch backwards accumulating, per ``(block, txn_id)``, the
    set of keys later records overwrite.  A record is elided only when

    - it is a DATA record of a real transaction (``txn_id != 0``) touching
      a real block,
    - its payload type is known (so its write set is known), and
    - every key it writes is covered by later records of the *same*
      transaction on the same block (a whole-block replace covers all).

    Unknown payload types are never elided and never extend coverage.
    Returns the (possibly rewritten) record tuple and the elision count.
    """
    n = len(records)
    if n < 2:
        return records, 0
    out = list(records)
    coverage: dict[tuple[int, int], object] = {}
    covered_by: dict[tuple[int, int], int] = {}
    elided = 0
    for i in range(n - 1, -1, -1):
        record = out[i]
        if (
            record.kind is not RecordKind.DATA
            or record.txn_id == 0
            or record.block == NO_BLOCK
        ):
            continue
        keys, covers_all = _payload_key_coverage(record.payload)
        if keys is None and not covers_all:
            continue  # unknown write set: keep, and do not extend coverage
        slot = (record.block, record.txn_id)
        cover = coverage.get(slot)
        if cover is _ALL or (
            cover is not None
            and not covers_all
            and keys is not None
            and all(k in cover for k in keys)
        ):
            out[i] = replace(
                record, payload=ElidedPayload(covered_by=covered_by[slot])
            )
            elided += 1
            continue
        if covers_all:
            coverage[slot] = _ALL
        else:
            if not isinstance(cover, set):
                cover = set()
                coverage[slot] = cover
            cover.update(keys)
        covered_by[slot] = record.lsn
    if not elided:
        return records, 0
    return tuple(out), elided
