"""Redo log records and their three back-chains.

Per section 2.2 of the paper, each log record stores

- the LSN of the preceding record in the **volume** (used as a fallback to
  regenerate volume metadata, and by recovery to verify chain completeness),
- the previous LSN for the **segment** (used by storage nodes to detect holes
  and gossip them full), and
- the previous LSN for the **block** being modified (used to materialize
  individual blocks on demand).

In this reproduction, "segment chain" is tracked per protection group: all
six segments of a PG receive the same record stream, so the chain previous
pointer is identical across them (``prev_pg_lsn``).

Records carry a :class:`RedoPayload` describing a pure transformation of a
block image.  Block images are mappings: plain ``dict`` objects, or, for a
version one change made from another (a row write, a commit's status
entry), an :class:`Overlay` node that shares its predecessor.  Payloads
never mutate them, they return new images -- storage keeps every version
non-destructively until garbage collection below PGMRPL (section 3.4).

Block images are **immutable once built and shared across copies**: the
writer's cache, a replica's cache and the six segments of a protection group
may all hold the *same* image object for a block version (see
:func:`apply_redo`).  Whoever needs a different image replaces the reference
it holds; nobody edits an image in place (DESIGN.md section 8).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from repro.core.lsn import NULL_LSN


class RecordKind(enum.Enum):
    """Classification of redo records."""

    #: A change to a data block (B-tree node, undo page, ...).
    DATA = "data"
    #: Transaction commit marker; its LSN is the transaction's SCN.
    COMMIT = "commit"
    #: Volume-level control information (e.g. truncation, epoch bump notes).
    CONTROL = "control"


class RedoPayload:
    """Interface for the change carried by a DATA record.

    Implementations must be pure: ``apply`` consumes an immutable view of the
    prior block image and returns the image after the change (a new object,
    or ``image`` itself when nothing changes).  This is what lets Aurora
    run "redo log application code ... within the storage nodes" (section
    2.2) and lets repeated application be idempotent at a given version.

    Payloads are slotted and carry no instance dict.  The one memo a
    payload keeps, its modelled wire size (``repro.db.wire.payload_bytes``),
    has its slot here.
    """

    __slots__ = ("_wire_size",)

    def apply(self, image: Mapping[str, Any]) -> Mapping[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class BlockPut(RedoPayload):
    """Insert or overwrite key/value entries inside a block image.

    One entry -- a row write, a META counter -- makes an :class:`Overlay`
    on the image (see :func:`put_entry`); several make a new dict."""

    entries: tuple[tuple[Any, Any], ...]

    def apply(self, image: Mapping[str, Any]) -> Mapping[str, Any]:
        entries = self.entries
        if len(entries) == 1:
            ((key, value),) = entries
            return put_entry(image, key, value)
        new_image = flat_copy(image)
        for key, value in entries:
            new_image[key] = value
        return new_image


@dataclass(frozen=True, slots=True)
class BlockDelete(RedoPayload):
    """Remove keys from a block image (missing keys are ignored)."""

    keys: tuple[Any, ...]

    def apply(self, image: Mapping[str, Any]) -> dict[str, Any]:
        new_image = flat_copy(image)
        for key in self.keys:
            new_image.pop(key, None)
        return new_image


@dataclass(frozen=True, slots=True)
class BlockReplace(RedoPayload):
    """Replace the whole block image.

    Structural B-tree changes (splits, merges) log full after-images of the
    touched nodes; this keeps redo application trivially idempotent.
    """

    image: tuple[tuple[str, Any], ...]

    @staticmethod
    def of(image: Mapping[str, Any]) -> "BlockReplace":
        return BlockReplace(
            image=tuple(sorted(image.items(), key=lambda kv: repr(kv[0])))
        )

    def apply(self, image: Mapping[str, Any]) -> dict[str, Any]:
        return dict(self.image)


@dataclass(frozen=True, slots=True)
class CommitPayload(RedoPayload):
    """Payload of a COMMIT record.

    Besides marking the commit, it materializes the transaction's SCN into
    a transaction-table block (``{txn_id: scn}``), so commit status is
    itself durable volume state -- a recovering instance or a replica can
    learn any transaction's outcome by reading the txn-table blocks instead
    of needing a consensus log of decisions.  The new image is an
    :class:`Overlay` that adds this one entry to the page it applies to;
    the page is not copied, and nothing is walked: a status page's rows
    are its commits, so its row count is only counted when asked for.
    """

    txn_id: int
    scn: int

    def apply(self, image: Mapping[Any, Any]) -> "Overlay":
        return Overlay(image, self.txn_id, self.scn)


class Overlay(Mapping):
    """One block version: its predecessor ``base`` plus one entry
    ``key -> value``.

    A version made by one change shares the version it was made from
    instead of copying it (Figure 2, activities 3 and 5: a redo record
    coalesces into a new block version that differs from the one before
    by that change).  The versions of a block thus form a chain of nodes
    down to a plain mapping root (``EMPTY_IMAGE``, a dict a structural
    change or an injector made, or a flattened chain).

    - A lookup (``[]``, ``get``, ``in``) walks from the newest node and
      answers a miss at the root, never by raising.
    - ``len`` is the ``size`` recorded at creation; a node made without one
      (a commit's, see :class:`CommitPayload`) counts its rows once, when
      first asked.
    - Every other read builds the flat mapping for that call only and keeps
      nothing, so a node holds one entry however many it shows.  The
      content is the dict a copy per change would have built, in the same
      order, so ``image_checksum`` and every walk over ``items()`` see the
      same thing.
    - ``depth`` counts the nodes down to the root.  :func:`put_entry`
      flattens a chain that would grow deeper than the rows it shows, so a
      leaf that is written over and over holds at most about two entries
      per write, and a lookup walks at most its row count.
    - ``checksum`` is ``None`` until ``image_checksum`` first hashes the
      node, which then keeps it (:meth:`keep_checksum`).

    Immutable, like every image.
    """

    __slots__ = ("base", "key", "value", "depth", "size", "checksum")

    def __init__(
        self,
        base: Mapping[Any, Any],
        key: Any,
        value: Any,
        size: int | None = None,
    ):
        # Through the slots' own descriptors: ``object.__setattr__`` looks
        # each name up along the Mapping ABCs first, and a node is made
        # on every row write and every commit.
        _set_base(self, base)
        _set_key(self, key)
        _set_value(self, value)
        _set_depth(self, base.depth + 1 if type(base) is Overlay else 1)
        _set_size(self, size)
        _set_checksum(self, None)

    def keep_checksum(self, checksum: int) -> None:
        """Record ``repro.storage.page.image_checksum`` of this node, a
        pure function of its content, which never changes."""
        _set_checksum(self, checksum)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def flat(self) -> dict[Any, Any]:
        """The version as a new dict: the root's entries, then the nodes'
        in order, a later entry for a key replacing an earlier one."""
        nodes = []
        node: Mapping[Any, Any] = self
        while type(node) is Overlay:
            nodes.append(node)
            node = node.base
        flat = dict(node)
        for node in reversed(nodes):
            flat[node.key] = node.value
        return flat

    def __getitem__(self, key: Any) -> Any:
        node: Mapping[Any, Any] = self
        while type(node) is Overlay:
            if node.key == key:
                return node.value
            node = node.base
        return node[key]

    def get(self, key: Any, default: Any = None) -> Any:
        node: Mapping[Any, Any] = self
        while type(node) is Overlay:
            if node.key == key:
                return node.value
            node = node.base
        return node.get(key, default)

    def __contains__(self, key: Any) -> bool:
        node: Mapping[Any, Any] = self
        while type(node) is Overlay:
            if node.key == key:
                return True
            node = node.base
        return key in node

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        size = self.size
        if size is None:
            size = len(self.flat())
            _set_size(self, size)
        return size

    def __iter__(self):
        return iter(self.flat())

    def keys(self):
        return self.flat().keys()

    def items(self):
        return self.flat().items()

    def values(self):
        return self.flat().values()

    def __repr__(self) -> str:
        return f"Overlay({self.flat()!r})"


_set_base, _set_key, _set_value, _set_depth, _set_size, _set_checksum = (
    Overlay.__dict__[name].__set__ for name in Overlay.__slots__
)


def put_entry(
    image: Mapping[Any, Any], key: Any, value: Any
) -> Mapping[Any, Any]:
    """``image`` with ``key`` set to ``value``, sharing ``image``.

    The result is an :class:`Overlay` node on ``image``, unless that node
    would lie deeper than the rows it shows: then the chain is flattened
    into a dict instead.  The rule needs no constant.  A version that adds
    a row never deepens the chain past its rows; each overwrite does by
    one, so a block written over and over flattens once per about its row
    count of writes, and a lookup walks at most its row count."""
    size = len(image) + (key not in image)
    if type(image) is Overlay and image.depth >= size:
        flat = image.flat()
        flat[key] = value
        return flat
    return Overlay(image, key, value, size)


def flat_copy(image: Mapping[Any, Any]) -> dict[Any, Any]:
    """A new dict with ``image``'s entries, in its order."""
    return image.flat() if type(image) is Overlay else dict(image)


@dataclass(frozen=True, slots=True)
class ControlPayload(RedoPayload):
    """Payload of a CONTROL record."""

    note: str = ""

    def apply(self, image: Mapping[str, Any]) -> Mapping[str, Any]:
        return image


@dataclass(frozen=True, slots=True)
class ElidedPayload(RedoPayload):
    """Wire-compression stand-in for a superseded record's payload.

    When every key a DATA record touches is overwritten by a *later record
    of the same transaction inside the same write batch*, the driver ships
    the record with its payload elided: the LSN and all three back-chain
    pointers stay intact (SCL tracking, VCL math, recovery walks, and
    gossip are untouched) but the redo content rides for free -- the
    covering record's payload embeds the superseded effect, because B-tree
    row updates log the full MVCC version chain built on the prior image.

    Restricting elision to one transaction is what makes it safe: a commit
    record between two *different* transactions' writes would make the
    earlier transaction's effect readable at intermediate read points,
    while an uncommitted intermediate version is invisible at every legal
    read point by MVCC visibility.  ``apply`` is the identity transform.
    """

    #: LSN of the later same-transaction record whose payload covers this
    #: record's write set.
    covered_by: int = 0

    def apply(self, image: Mapping[str, Any]) -> Mapping[str, Any]:
        return image


#: Block number used by records that touch no real block (commit / control).
NO_BLOCK = -1

#: The image of a never-written block.  One read-only object for the whole
#: process, so the image lineages the writer, the replicas and the segments
#: each build for a block start from the same base and :func:`apply_redo`
#: can hand all of them the same results.
EMPTY_IMAGE: Mapping[Any, Any] = MappingProxyType({})


class _RecordMemos:
    """The slots of the two memos a record keeps: its digest
    (:func:`record_digest`) and its redo result (:func:`apply_redo`).  They
    are not fields, so they are not compared, hashed or copied:
    ``dataclasses.replace`` makes a record whose memos are empty.  An empty
    memo is ``None``, never an unset slot: reading an unset slot raises
    and catches ``AttributeError``, several times slower, and the redo
    memo is read many times per record after it is released."""

    __slots__ = ("_digest", "_applied")


_set_digest = _RecordMemos._digest.__set__
_set_applied = _RecordMemos._applied.__set__


@dataclass(frozen=True, slots=True)
class LogRecord(_RecordMemos):
    """One redo log record.

    Attributes mirror the paper's description:

    - ``lsn``: position in the volume-wide, writer-allocated LSN space.
    - ``prev_volume_lsn``: back-pointer over the entire volume.
    - ``prev_pg_lsn``: back-pointer within this record's protection group
      (the "segment chain"); storage nodes advance SCL along it.
    - ``prev_block_lsn``: back-pointer within the target block's history.
    - ``block``: global block number (``NO_BLOCK`` for commit/control).
    - ``pg_index``: protection group the record is routed to.
    - ``mtr_id`` / ``mtr_end``: mini-transaction grouping; ``mtr_end`` marks
      an MTR completion point, i.e. a legal VDL candidate (section 3.3).
    - ``txn_id``: owning database transaction (0 for control records).
    """

    lsn: int
    prev_volume_lsn: int
    prev_pg_lsn: int
    prev_block_lsn: int
    block: int
    pg_index: int
    kind: RecordKind
    payload: RedoPayload
    txn_id: int = 0
    mtr_id: int = 0
    mtr_end: bool = True

    def __post_init__(self) -> None:
        if self.lsn <= NULL_LSN:
            raise ValueError(f"record LSN must be > {NULL_LSN}")
        for name in ("prev_volume_lsn", "prev_pg_lsn", "prev_block_lsn"):
            if getattr(self, name) >= self.lsn:
                raise ValueError(f"{name} must precede lsn {self.lsn}")
        _set_digest(self, None)
        _set_applied(self, None)

    @property
    def is_commit(self) -> bool:
        return self.kind is RecordKind.COMMIT

    @property
    def scn(self) -> int:
        """System Commit Number: the LSN of the commit record."""
        if not self.is_commit:
            raise ValueError("SCN is only defined for commit records")
        return self.lsn

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LogRecord lsn={self.lsn} pg={self.pg_index} "
            f"block={self.block} {self.kind.value}"
            f"{' mtr_end' if self.mtr_end else ''}>"
        )


@dataclass(frozen=True)
class ChainDigest:
    """Compact chain metadata a segment reports during crash recovery.

    Recovery only needs ``(lsn, prev_volume_lsn, pg_index, mtr_end)`` per
    hot-log record to rebuild consistency points; shipping digests instead of
    full records keeps the recovery read cheap.
    """

    lsn: int
    prev_volume_lsn: int
    pg_index: int
    mtr_end: bool

    @staticmethod
    def of(record: LogRecord) -> "ChainDigest":
        return ChainDigest(
            lsn=record.lsn,
            prev_volume_lsn=record.prev_volume_lsn,
            pg_index=record.pg_index,
            mtr_end=record.mtr_end,
        )


def record_digest(record: LogRecord) -> int:
    """Deterministic content digest of one redo record.

    Storage nodes capture this at ingest and the scrubber re-derives it to
    detect bit-rot on stored records (Figure 2, activity 8 extended to the
    hot log).  Payloads are frozen dataclasses and hash directly; the
    ``repr`` fallback covers payloads holding unhashable values.

    The digest is cached on the record object: records are immutable, and
    corruption injection always *replaces* the record object
    (``dataclasses.replace``), so a cached digest can never mask divergent
    content.  Every verification boundary (ingest, coalesce, gossip,
    recovery) re-derives the digest through this function, making the cache
    a pure speedup.
    """
    cached = record._digest
    if cached is not None:
        return cached
    digest = _compute_record_digest(record)
    _set_digest(record, digest)
    return digest


def apply_redo(record: LogRecord, base: Mapping[Any, Any]) -> Mapping[Any, Any]:
    """The image ``record``'s redo produces from ``base``, computed once.

    Every copy of a protection group receives the same immutable record
    objects and applies the same pure payloads to the same bases, so the
    result is memoised on the record (like ``_digest``) together with the
    base it was computed from.  The memo hits only when ``base`` **is** the
    memoised base -- the same object, held by reference so its identity can
    never be recycled -- which makes a hit the value the payload would
    have returned anyway.  It cannot mask divergence: a corrupted record is
    a new object (``dataclasses.replace`` drops the memo) and a corrupted or
    repaired image is a new object (mutators replace ``version.image``), so
    either one misses and the payload runs against what is really there.
    Only after it has run, and only if its result equals the memoised image
    by value, is the memoised object returned instead: a forked lineage (a
    stand-in shipped for the staged payload) re-converges at the next equal
    image, and an unequal result -- real divergence -- is kept and stamped.
    The returned image is shared; callers must not mutate it.  The memo
    lasts until :func:`release_redo`.
    """
    memo = record._applied
    if memo is not None and memo[0] is base:
        return memo[1]
    image = record.payload.apply(base)
    if memo is not None and memo[1] == image:
        image = memo[1]
    _set_applied(record, (base, image))
    return image


def seed_redo(
    record: LogRecord, base: Mapping[Any, Any], image: Mapping[Any, Any]
) -> None:
    """Tell :func:`apply_redo` that ``record``'s payload applied to ``base``
    gave ``image``.

    The writer already ran the payload when it staged the change the record
    was sealed from; seeding the memo with that ``(base, image)`` pair lets
    every copy whose base **is** the staged base share the staged image.
    The caller must pass the very objects ``record.payload.apply`` consumed
    and returned, so a hit still returns what the payload would have.
    """
    _set_applied(record, (base, image))


def release_redo(record: LogRecord) -> None:
    """Drop :func:`apply_redo`'s memo on ``record``.

    The memo holds its ``(base, image)`` pair by reference, so while it
    lives the pair does too, long after the version chains have collected
    both.  Segments release it once every copy that keeps up has applied
    the record; a copy that applies it later runs the payload itself, which
    is the reference path, and gets an equal image of its own.  Usually
    another copy has released it first, so this tests before it clears.
    """
    if record._applied is not None:
        _set_applied(record, None)


def _compute_record_digest(record: LogRecord) -> int:
    try:
        payload_hash = hash(record.payload)
    except TypeError:
        payload_hash = hash(repr(record.payload))
    return hash(
        (
            record.lsn,
            record.prev_volume_lsn,
            record.prev_pg_lsn,
            record.prev_block_lsn,
            record.block,
            record.pg_index,
            record.kind,
            payload_hash,
            record.txn_id,
            record.mtr_id,
            record.mtr_end,
        )
    )


@dataclass
class RecordBatch:
    """A boxcar of records bound for one segment node.

    The driver fills the batch until the asynchronous network operation
    actually executes (section 2.2's jitter-free boxcar strategy).
    """

    pg_index: int
    records: list[LogRecord] = field(default_factory=list)

    def add(self, record: LogRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)
