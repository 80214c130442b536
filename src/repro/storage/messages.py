"""Wire protocol between database instances and storage nodes.

Every request carries an :class:`~repro.core.epochs.EpochStamp`; storage
nodes validate it before doing anything else and answer stale requests with
:class:`RequestRejected` so the caller can refresh and retry (section 4.1:
"Updates of stale state are similarly simple, requiring just one additional
request past the one rejected").

All payloads are frozen dataclasses: messages in flight are immutable, so a
buggy actor cannot mutate another's state through a shared reference.  They
are also slotted -- write-path payloads are allocated once per wire message
on the simulator's hottest loop.

A block image travels **by reference**: a read reply, a baseline and a
vote answer carry the very ``Mapping`` the sender's version chain holds,
for the receiver to keep (immutable: DESIGN.md section 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.epochs import EpochStamp
from repro.core.lsn import TruncationRange
from repro.core.records import ChainDigest, LogRecord


# ----------------------------------------------------------------------
# Write path (one-way in both directions, section 2.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WriteBatch:
    """A boxcar of redo records for one protection group."""

    instance_id: str
    pg_index: int
    records: tuple[LogRecord, ...]
    epochs: EpochStamp
    #: The sender's current PGMRPL, piggybacked to advance the GC floor.
    pgmrpl: int
    #: Modelled bytes this batch occupies on the wire after delta-encoding
    #: consecutive LSNs and eliding superseded payloads (0 when the sender
    #: does not account for wire size).  Computed once by the driver at
    #: flush time so the per-target fan-out adds a field read, not a walk.
    wire_bytes: int = 0
    #: Modelled bytes of the same records uncompressed (full LSNs, full
    #: payloads) -- the numerator/denominator pair keeps network write
    #: amplification honest under compression.
    logical_bytes: int = 0

    # Marks boxcar payloads for the network's batch-aware stats: the wire
    # message is counted once under the class name and once per contained
    # record under "<ClassName>.records".
    is_boxcar = True

    def boxcar_count(self) -> int:
        return len(self.records)


@dataclass(frozen=True, slots=True)
class WriteAck:
    """Acknowledgement of a write batch; carries the segment's SCL."""

    segment_id: str
    pg_index: int
    scl: int
    epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class RequestRejected:
    """A request failed epoch validation (or hit another hard error)."""

    segment_id: str
    reason: str
    current_epochs: EpochStamp


#: ``RequestRejected.reason`` for a WriteBatch whose payload failed ingest
#: verification, or a read that landed on an unrepairable corrupt version.
#: The driver resubmits the retained clean batch (write) or reroutes to
#: another segment (read) -- the storage node never persists or serves the
#: corrupt frame.
CORRUPT_PAYLOAD = "corrupt-payload"


# ----------------------------------------------------------------------
# Read path (RPC, section 3.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ReadBlockRequest:
    pg_index: int
    block: int
    read_point: int
    epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class ReadBlockResponse:
    segment_id: str
    block: int
    #: The served version's image object (``EMPTY_IMAGE`` if never written).
    image: Mapping[Any, Any]
    version_lsn: int


# ----------------------------------------------------------------------
# Gossip (RPC between peer segments, section 2.3)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class GossipQuery:
    """'What do you have past my SCL?'"""

    from_segment: str
    pg_index: int
    scl: int
    epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class GossipResponse:
    segment_id: str
    pg_index: int
    scl: int
    records: tuple[LogRecord, ...]
    #: Database instances the responder has seen; lets a freshly restored
    #: or hydrated peer know whom to (re-)acknowledge.
    known_instances: tuple[str, ...] = ()
    #: The responder's GC horizon: a peer whose SCL is below it cannot
    #: catch up via the hot log alone and must hydrate a baseline.
    gc_horizon: int = 0


# ----------------------------------------------------------------------
# Crash recovery (RPC, section 2.4)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class RecoveryScanRequest:
    pg_index: int
    epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class RecoveryScanResponse:
    segment_id: str
    pg_index: int
    scl: int
    digests: tuple[ChainDigest, ...]
    #: Records at or below this point may be GC'd from the hot log; they
    #: are known volume-complete (see repro.core.recovery).
    gc_horizon: int = 0
    #: Highest ``last`` of the truncation ranges this segment installed:
    #: the next recovery allocates above it even when no digest does.
    annulled_upto: int = 0


@dataclass(frozen=True, slots=True)
class TruncateRequest:
    """Install the recovery truncation range and the new volume epoch."""

    pg_index: int
    #: Highest surviving LSN routed to this PG.
    pg_point: int
    truncation: TruncationRange
    new_epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class TruncateAck:
    segment_id: str
    pg_index: int
    scl: int


# ----------------------------------------------------------------------
# Epoch / membership control (RPC, section 4.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class EpochWrite:
    """Record a new epoch on a segment (counts toward the write quorum)."""

    pg_index: int
    #: Epochs the writer believes are current (validated like any request).
    epochs: EpochStamp
    new_epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class EpochWriteAck:
    segment_id: str
    epochs: EpochStamp


# ----------------------------------------------------------------------
# GC floor advancement (one-way, section 3.4)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class GCFloorUpdate:
    instance_id: str
    pg_index: int
    pgmrpl: int
    epochs: EpochStamp


# ----------------------------------------------------------------------
# Quorum-vote integrity repair (RPC between peer segments, DESIGN.md §12):
# section 2.3's "peer-to-peer repair of damaged blocks", and the only one.
# The scrubbing segment polls a read-quorum-sized peer sample for content
# digests, and only adopts an image the majority agrees on -- so a
# misdirected write (valid checksum, wrong content) is caught and a single
# corrupt peer can never propagate.  Inside the vote window a ballot is per
# version LSN; at the window floor it is the content at the floor's read
# point (the floor ballot), where condensed history leaves no LSN to match.
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class IntegrityVoteRequest:
    """Per block: the requester's coverage window and its retained
    ``(version_lsn, image_checksum)`` pairs inside it.  ``record_lsns``
    additionally probes for clean hot-log copies of those records."""

    from_segment: str
    pg_index: int
    #: (block, window_lo, window_hi, ((version_lsn, checksum), ...)).
    #: A checksum of 0 with an LSN present means "I hold this version but
    #: cannot vouch for it" (quarantined / locally corrupt); a leading
    #: ``(window_lo, 0)`` asks for the content at read point ``window_lo``.
    blocks: tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]
    record_lsns: tuple[int, ...]
    epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class IntegrityVoteResponse:
    """Per block: the responder's coverage overlap with the requested
    window and its versions inside it.  An image is attached only
    where the requester's checksum was absent or different (the ballot
    itself is just ``(lsn, checksum)``)."""

    segment_id: str
    pg_index: int
    #: (block, cover_lo, cover_hi,
    #:  ((version_lsn, checksum, image-or-None), ...)); a floor ballot
    #: leads as ``(window_lo, checksum, image)``, and a version the
    #: responder holds but cannot verify abstains as ``(lsn, None, None)``.
    blocks: tuple[
        tuple[int, int, int, tuple[tuple[int, int, object], ...]], ...
    ]
    #: Clean hot-log records for the probed LSNs the responder still holds.
    records: tuple[LogRecord, ...] = ()


# ----------------------------------------------------------------------
# Hydration of a replacement segment (RPC, section 4.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BaselineRequest:
    """A hydrating segment asks a healthy full peer for its baseline."""

    from_segment: str
    pg_index: int
    epochs: EpochStamp


@dataclass(frozen=True, slots=True)
class BaselineResponse:
    segment_id: str
    pg_index: int
    #: (block, version_lsn, image) triples for the materialized baseline.
    blocks: tuple[tuple[int, int, Mapping[Any, Any]], ...]
    coalesced_upto: int
    gc_horizon: int
    scl: int
    records: tuple[LogRecord, ...]
