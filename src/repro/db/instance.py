"""The single-writer Aurora database instance.

This actor ties everything together:

- it allocates the volume-wide LSN space (section 2.1's key invariant),
- builds MTRs over the B-tree and buffer cache, threading the three
  back-chains into every record,
- streams records through the storage driver and advances SCL -> PGCL ->
  VCL/VDL purely from acknowledgement bookkeeping,
- acknowledges commits when their SCN passes the VCL (section 2.3) with no
  flush, no consensus, and no group-commit stall,
- serves reads from its own durability bookkeeping (no quorum reads),
- publishes the physical replication stream, and
- re-establishes every consistency point from segment state at crash
  recovery (section 2.4), bumping the volume epoch to box out its past
  self.

All public operations that may touch storage are **generator functions**;
run them with :class:`repro.sim.Process` (or through
:class:`repro.db.session.Session`, which does it for you).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.consistency import MinReadPointTracker, PGFrontierHistory
from repro.core.lsn import NULL_LSN, LSNAllocator, TruncationRange
from repro.core.records import (
    EMPTY_IMAGE,
    BlockPut,
    CommitPayload,
    LogRecord,
    RecordKind,
    apply_redo,
)
from repro.core.recovery import SegmentRecoveryResponse, recover_volume_state
from repro.db.btree import BlockIO, BTree, leaf_rows
from repro.db.buffer_cache import BufferCache
from repro.db.driver import (
    SUBMIT_DELAY_MS,
    BoxcarMode,
    DriverConfig,
    StorageDriver,
)
from repro.db.locks import LockManager, lock_keys_for
from repro.db.logical_replication import ChangeKind, LogicalPublisher, RowChange
from repro.db.mtr import ChainState, MTRBuilder
from repro.db.mvcc import (
    TOMBSTONE,
    ReadView,
    ReadViewManager,
    TransactionStatusRegistry,
)
from repro.db.replication import ReplicationPublisher
from repro.db.txn import Transaction, TransactionManager
from repro.errors import (
    CommitUncertainError,
    InstanceStateError,
    TransactionError,
)
from repro.sim.events import Future
from repro.sim.network import Actor, Message
from repro.sim.process import Mutex, Process
from repro.storage.messages import (
    GCFloorUpdate,
    RecoveryScanResponse,
    RequestRejected,
    TruncateAck,
    WriteAck,
)
from repro.storage.metadata import StorageMetadataService


#: Transactions per transaction-status page.  Transaction ``t``'s commit
#: status lives in page ``t // TXNS_PER_PAGE``, so every status image a
#: commit copies or a layer retains (writer cache, segment version chains,
#: backups) is bounded by this constant instead of by the commit history.
TXNS_PER_PAGE = 128
#: LSN headroom added above the highest observed LSN when computing a
#: recovery truncation ceiling; must exceed any in-flight allocation.
RECOVERY_MARGIN = 1_000_000


class InstanceState(enum.Enum):
    NEW = "new"
    OPEN = "open"
    CRASHED = "crashed"
    RECOVERING = "recovering"
    CLOSED = "closed"


@dataclass
class InstanceConfig:
    """Tunable behaviour of a database instance."""

    cache_capacity: int = 100_000
    max_leaf_rows: int = 16
    max_internal_keys: int = 16
    driver: DriverConfig = field(default_factory=DriverConfig)
    #: Period between GC-floor (PGMRPL) advertisements to storage (ms).
    gc_floor_interval: float = 50.0


@dataclass
class InstanceStats:
    commits_requested: int = 0
    commits_acknowledged: int = 0
    commit_latencies: list[float] = field(default_factory=list)
    recovery_durations: list[float] = field(default_factory=list)
    orphan_versions_purged: int = 0
    #: B-tree reads re-run because a split was absorbed underneath them.
    traversals_retried: int = 0
    #: Simulated time of the most recent commit acknowledgement, or None.
    #: The geo auditor compares this against the secondary's promotion
    #: time to prove a fenced stale primary never acked afterwards.
    last_commit_ack_at: float | None = None


class Instance(Actor, BlockIO):
    """A database engine attached to the shared volume, in one of two
    roles (sections 3.2 - 3.4): the writer (:class:`WriterInstance`) or a
    read replica (:class:`repro.db.replica.ReplicaInstance`).

    Both roles hold the same read half -- buffer pool, transaction-status
    registry, read views anchored at VDL points, the per-PG frontier
    history that maps those points to storage, and the B-tree over them --
    and hold back storage GC through the same PGMRPL advertisement.  What
    differs is four role hooks: whether reads are served now
    (:meth:`_require_readable`), the durable point a view anchors at
    (:meth:`_view_anchor`), and whether the GC-floor tick is still alive
    (:meth:`_tick_alive`) and may advertise now (:meth:`_may_advertise`).
    """

    META_BLOCK = 0
    #: Whether the driver may read any full segment and let the storage
    #: node's read-window rejection find a current one: a role outside the
    #: acknowledgement path cannot know which segments are durable.
    optimistic_reads = False

    def __init__(
        self,
        name: str,
        metadata: StorageMetadataService,
        rng: random.Random,
        config: InstanceConfig | None = None,
    ) -> None:
        Actor.__init__(self, name=name)
        self.metadata = metadata
        self.rng = rng
        self.config = config if config is not None else InstanceConfig()
        self.cache = BufferCache(self.config.cache_capacity)
        self.registry = TransactionStatusRegistry()
        self.views = ReadViewManager()
        self.min_read = MinReadPointTracker()
        self.frontiers = PGFrontierHistory()
        self.driver: StorageDriver | None = None
        self.btree: BTree | None = None
        self._gc_floor_tick_scheduled = False
        #: Optional :class:`repro.audit.Auditor` observer (zero-cost when
        #: unattached).
        self.audit_probe = None

    def start(self) -> None:
        """Wire the driver, the B-tree and the GC-floor tick (after network
        attach)."""
        self.driver = StorageDriver(
            instance_id=self.name,
            loop=self.loop,
            send=lambda dst, payload: self.network.send(self.name, dst, payload),
            rpc=lambda dst, payload: self.network.rpc(self.name, dst, payload),
            metadata=self.metadata,
            rng=self.rng,
            config=self.config.driver,
            optimistic_reads=self.optimistic_reads,
        )
        self.driver.configure_all_pgs()
        self.btree = BTree(
            io=self,
            registry=self.registry,
            meta_block=self.META_BLOCK,
            max_leaf_rows=self.config.max_leaf_rows,
            max_internal_keys=self.config.max_internal_keys,
        )
        self._schedule_gc_floor_tick()

    def pg_of_block(self, block: int) -> int:
        return self.metadata.geometry.pg_of_block(block)

    # ------------------------------------------------------------------
    # Role hooks
    # ------------------------------------------------------------------
    def _require_readable(self) -> None:
        """Raise :class:`InstanceStateError` unless reads are served now."""
        raise NotImplementedError

    def _view_anchor(self) -> int:
        """The durable point a new read view anchors at."""
        raise NotImplementedError

    def _tick_alive(self) -> bool:
        """Whether the GC-floor tick re-arms."""
        return True

    def _may_advertise(self) -> bool:
        """Whether the GC-floor tick advertises this time."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Read views and reads
    # ------------------------------------------------------------------
    def open_view(self, txn_id: int = 0) -> ReadView:
        """Anchor a snapshot at the role's durable point (section 3.1)."""
        view = self.views.open(read_point=self._view_anchor(), txn_id=txn_id)
        self.min_read.register(view.read_point)
        return view

    def close_view(self, view: ReadView) -> None:
        if not self.views.is_open(view):
            # The view was already discarded wholesale (a crash or a
            # re-attach cleared the manager while this read was in
            # flight); there is nothing left to release.
            return
        self.views.close(view)
        self.min_read.release(view.read_point)

    def _view_for(self, txn: Transaction | None):
        """(view, owned) -- reuse a transaction's view or open a statement
        view the caller must close."""
        if txn is None:
            return self.open_view(), True
        if txn.read_view is None:
            txn.read_view = self.open_view(txn_id=txn.txn_id)
        return txn.read_view, False

    def get(self, key, txn: Transaction | None = None):
        """Generator: visible value of ``key`` (None if absent)."""
        self._require_readable()
        view, owned = self._view_for(txn)
        try:
            # Reads are not serialised against structural changes, and a
            # cache miss waits on storage: a split made visible meanwhile
            # must not be half-seen.
            found, value = yield from self._structurally_stable(
                lambda: self.btree.get(view, key)
            )
        finally:
            if owned:
                self.close_view(view)
        return value if found else None

    def scan(self, low, high, txn: Transaction | None = None):
        """Generator: visible (key, value) pairs in [low, high]."""
        self._require_readable()
        view, owned = self._view_for(txn)
        try:
            results = yield from self._structurally_stable(
                lambda: self.btree.scan(view, low, high)
            )
        finally:
            if owned:
                self.close_view(view)
        return results

    # ------------------------------------------------------------------
    # Background: GC-floor (PGMRPL) advertisement
    # ------------------------------------------------------------------
    def _schedule_gc_floor_tick(self) -> None:
        if self._gc_floor_tick_scheduled:
            return
        self._gc_floor_tick_scheduled = True

        def _tick() -> None:
            self._gc_floor_tick_scheduled = False
            if not self._tick_alive():
                return
            if self._may_advertise():
                self._advertise_gc_floor()
            self._schedule_gc_floor_tick()

        self.loop.schedule(self.config.gc_floor_interval, _tick)

    def _advertise_gc_floor(self) -> None:
        pgmrpl = self.min_read.current()
        if pgmrpl == NULL_LSN or not self.frontiers.knows(pgmrpl):
            # A replica view opened before a writer failover can still be
            # draining; its anchor belongs to the previous stream
            # generation, whose history the re-attach reset.  Holding the
            # advertisement back is safe (GC merely waits); advertising a
            # floor from the wrong generation would not be.
            return
        frontier = self.frontiers.frontier_at(pgmrpl)
        for pg_index in self.metadata.pg_indexes():
            pg_floor = frontier.get(pg_index, NULL_LSN)
            if pg_floor == NULL_LSN:
                continue
            update = GCFloorUpdate(
                instance_id=self.name,
                pg_index=pg_index,
                pgmrpl=pg_floor,
                epochs=self.driver.epochs,
            )
            for member in self.driver.members_of(pg_index):
                self.network.send(self.name, member, update)


class WriterInstance(Instance):
    """The writer: SQL endpoint, transaction engine, and storage client."""

    #: Block 0 (``META_BLOCK``) holds the B-tree meta and the
    #: transaction-status page directory (``"txn_pages": (block0, block1,
    #: ...)``); block 1 is the root leaf.  Data blocks and status pages
    #: follow, both handed out by the ordinary block allocator.
    root_leaf_block = 1

    def __init__(
        self,
        name: str,
        metadata: StorageMetadataService,
        rng: random.Random,
        config: InstanceConfig | None = None,
    ) -> None:
        super().__init__(name, metadata, rng, config)
        self.state = InstanceState.NEW
        #: False from a recovery's open until it has seeded the transaction
        #: ids above the durable ones (see :meth:`begin`).
        self._txn_ids_seeded = True
        self.stats = InstanceStats()
        # Protocol state (all ephemeral; rebuilt by recovery).
        self.allocator = LSNAllocator()
        self.chains = ChainState()
        self.locks = LockManager()
        self.txns = TransactionManager()
        self.publisher: ReplicationPublisher | None = None
        #: Logical (row-level) change stream for non-Aurora subscribers.
        self.logical = LogicalPublisher()
        self._write_mutex: Mutex | None = None
        #: In-memory mirror of META's ``"txn_pages"`` directory (ephemeral;
        #: recovery reloads it).  Grown only under the write mutex, after
        #: the MTR that allocates the new pages is sealed, so ``commit``
        #: can place its record without reading a block.
        self._txn_pages: tuple[int, ...] = ()
        #: Status pages this generation allocated and has not committed to
        #: yet: the only uncached pages whose image (empty) is known here.
        self._unwritten_txn_pages: set[int] = set()
        #: Commit futures not yet resolved, by txn id.  On crash, fence, or
        #: close these resolve with :class:`CommitUncertainError` -- the
        #: outcome is unknown, never falsely acknowledged.
        self._pending_commits: dict[int, Future] = {}
        #: Optional extra commit-acknowledgement gate.  When set, a commit
        #: that has reached local durability (VCL passed its SCN) is handed
        #: to ``commit_gate(scn, release, fail)`` instead of acking
        #: immediately; the gate calls ``release()`` when its condition
        #: holds (the geo tier uses this for sync cross-region acks) or
        #: ``fail(exc)`` to resolve the future with ``exc`` -- the commit
        #: is still locally durable, so the transaction itself completes;
        #: only the acknowledgement is withheld.  Gated commits stay in
        #: ``_pending_commits``, so a crash or fence while gated still
        #: resolves them uncertain.
        self.commit_gate: (
            Callable[
                [
                    int,
                    Callable[[], None],
                    Callable[[BaseException], None],
                ],
                None,
            ]
            | None
        ) = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Wire the shared half, then the writer's own: replication
        publisher, write mutex and the driver's VDL and fencing callbacks."""
        super().start()
        self.driver.pgmrpl_provider = self.current_pgmrpl
        self.driver.on_vdl_advance.append(self._on_vdl_advance)
        self.publisher = ReplicationPublisher(
            writer_id=self.name,
            send=lambda dst, payload: self.network.send(self.name, dst, payload),
            # IMMEDIATE disables boxcar batching everywhere, including the
            # replication stream (a loop-less publisher sends unframed).
            loop=(
                None
                if self.config.driver.boxcar_mode is BoxcarMode.IMMEDIATE
                else self.loop
            ),
            frame_window=SUBMIT_DELAY_MS,
        )
        self._write_mutex = Mutex(self.loop)
        self.driver.on_fenced.append(self._on_fenced)

    def bootstrap(self) -> None:
        """Create an empty database (fresh volume only)."""
        self._require(InstanceState.NEW)
        mtr = MTRBuilder(txn_id=0)
        self.btree.bootstrap(
            mtr,
            root_block=self.root_leaf_block,
            first_free_block=self.root_leaf_block + 1,
        )
        self._apply_mtr(mtr)
        self.state = InstanceState.OPEN
        self._notify_writer_open()

    def _require(self, *states: InstanceState) -> None:
        if self.state not in states:
            raise InstanceStateError(
                f"instance {self.name} is {self.state.value}; "
                f"operation requires {[s.value for s in states]}"
            )

    def _require_readable(self) -> None:
        self._require(InstanceState.OPEN)

    def _view_anchor(self) -> int:
        return self.vdl

    def _tick_alive(self) -> bool:
        # A dead instance must fall silent: its heartbeat would otherwise
        # keep the health monitor fooled, and a retired writer must never
        # speak again.  Recovery restarts the tick explicitly.
        return self.state not in (InstanceState.CRASHED, InstanceState.CLOSED)

    def _may_advertise(self) -> bool:
        return self.state is InstanceState.OPEN

    # ------------------------------------------------------------------
    # Consistency-point accessors
    # ------------------------------------------------------------------
    @property
    def vcl(self) -> int:
        return self.driver.vcl

    @property
    def vdl(self) -> int:
        return self.driver.vdl

    def current_pgmrpl(self) -> int:
        return self.min_read.current()

    def _on_vdl_advance(self, vdl: int) -> None:
        self.frontiers.advance_vdl(vdl)
        self.min_read.advance_floor(vdl)
        self.frontiers.prune_below(self.current_pgmrpl())
        self.cache.shrink(vdl)
        if self.publisher is not None:
            self.publisher.publish_vdl(vdl)

    # ------------------------------------------------------------------
    # BlockIO: reads, staged changes, block allocation
    # ------------------------------------------------------------------
    def cached_image(self, block: int, mtr: MTRBuilder | None = None):
        """Current image of a block from the MTR overlay or the cache;
        ``None`` on a cache miss (follow with :meth:`fetch_image`)."""
        if mtr is not None:
            staged = mtr.staged_images.get(block)
            if staged is not None:
                return staged
        cached = self.cache.lookup(block)
        return cached.image if cached is not None else None

    def fetch_image(self, block: int):
        """Generator: read a block the cache missed from storage.

        The WAL invariant guarantees every evicted block is fully durable,
        so the latest durable version *is* the latest.
        """
        read_point = self.vdl
        if not self.frontiers.knows(read_point):
            # A commit ack resumed this client from inside the driver's
            # ack handler, after the VDL advanced but before the
            # ``on_vdl_advance`` callbacks folded it into the frontier
            # history.  Fold now; the callback's fold is then a no-op.
            self.frontiers.advance_vdl(read_point)
        pg_index = self.pg_of_block(block)
        pg_point = self.frontiers.pg_read_point(pg_index, read_point)
        if pg_point == NULL_LSN:
            return EMPTY_IMAGE  # no durable writes to this PG yet
        # Pin the read point while the request is in flight: a write-path
        # read runs under no read view, and the PGMRPL riding the very next
        # write batch would otherwise let storage collect past it and
        # refuse the read.  (The tracker is held by reference because a
        # crash swaps in a fresh one.)
        min_read = self.min_read
        min_read.register(read_point)
        try:
            image, version_lsn = yield self.driver.read_block(
                block, pg_index, pg_point
            )
        finally:
            min_read.release(read_point)
        self.cache.install(block, image, version_lsn, self.vdl)
        return image

    def stage_change(self, mtr: MTRBuilder, block: int, base, payload):
        """Apply ``payload`` on top of ``base`` -- the image the caller read
        for ``block``, superseded by what this MTR already staged for it --
        and log the change.  Returns the staged image (shared from here on:
        the cache and every storage copy will hold this very object)."""
        staged = mtr.staged_images
        base = staged.get(block, base)
        image = payload.apply(base)
        staged[block] = image
        mtr.change(
            block, self.pg_of_block(block), payload, base=base, image=image
        )
        return image

    def allocate_block(self, mtr: MTRBuilder):
        meta = yield from self.read_image(self.META_BLOCK, mtr)
        new_block = meta["next_block"]
        # Growing past the current geometry requires adding protection
        # groups (storage nodes and a geometry-epoch bump) -- an operation
        # the cluster performs (see AuroraCluster.grow_volume); the
        # instance itself refuses to address beyond the volume.
        self.pg_of_block(new_block)  # raises if out of range
        self.stage_change(
            mtr,
            self.META_BLOCK,
            meta,
            BlockPut(entries=(("next_block", new_block + 1),)),
        )
        mtr.staged_images.setdefault(new_block, EMPTY_IMAGE)
        return new_block

    def _apply_mtr(self, mtr: MTRBuilder) -> list[LogRecord]:
        """Seal an MTR: allocate LSNs, absorb into cache, ship to storage."""
        records = mtr.seal(self.allocator, self.chains)
        self._note_structure_change(records)
        for record, change in zip(records, mtr.changes):
            self._absorb_record(record, change.image)
        self.driver.submit(records)
        if self.publisher is not None:
            self.publisher.publish_mtr(records)
        return records

    def _absorb_record(self, record: LogRecord, image=None) -> None:
        """Make ``record`` visible on the writer.  ``image`` is its block
        after the record as staging computed it -- the one the segments
        will hold for this version (they apply the same record to the same
        base and share the result).  A commit record is not staged: its
        redo runs here, on the cached status page.  A status page that is
        not cached stays uncached -- nothing reads it back but recovery,
        from storage -- unless it is one this generation allocated and has
        not written yet, whose image is known to be empty: the cache only
        ever holds an image some copy of the volume holds, or will.
        """
        self.frontiers.record(record.lsn, record.pg_index)
        cached = self.cache.peek(record.block)
        if image is None:
            if cached is not None:
                base = cached.image
            elif record.block in self._unwritten_txn_pages:
                base = EMPTY_IMAGE
            else:
                return
            self._unwritten_txn_pages.discard(record.block)
            image = apply_redo(record, base)
        if cached is None:
            self.cache.install(record.block, image, record.lsn, self.vdl)
        else:
            self.cache.apply_change(record.block, image, record.lsn)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        self._require(InstanceState.OPEN)
        if not self._txn_ids_seeded:
            # Recovery opens the instance before its status-page walk,
            # which waits on storage reads: an id drawn in that window
            # could be at or below a durable one.
            raise InstanceStateError(
                f"instance {self.name} is still reloading durable "
                "transaction statuses; retry once recovery completes"
            )
        return self.txns.begin(now=self.loop.now)

    def put(self, txn: Transaction, key, value):
        """Generator: write ``key`` within ``txn``."""
        yield from self._write(txn, key, value)

    def delete(self, txn: Transaction, key):
        """Generator: delete ``key`` within ``txn`` (tombstone version)."""
        yield from self._write(txn, key, TOMBSTONE)

    def _write(self, txn: Transaction, key, value):
        self._require(InstanceState.OPEN)
        txn.require_active()
        self.locks.acquire(txn.txn_id, key)
        yield self._write_mutex.acquire()
        try:
            txn.require_active()
            mtr = MTRBuilder(txn_id=txn.txn_id)
            pages = self._txn_pages
            if txn.txn_id // TXNS_PER_PAGE >= len(pages):
                pages = yield from self._grow_txn_pages(mtr, txn.txn_id)
            prior = yield from self.btree.put(mtr, txn.txn_id, key, value)
            txn.record_undo(
                block=-1, key=key, prior_versions=tuple(prior)
            )
            self._apply_mtr(mtr)
            if pages is not self._txn_pages:
                self._unwritten_txn_pages.update(pages[len(self._txn_pages):])
                self._txn_pages = pages
            if value == TOMBSTONE:
                self.logical.stage(
                    txn.txn_id, RowChange(ChangeKind.DELETE, key)
                )
            else:
                self.logical.stage(
                    txn.txn_id, RowChange(ChangeKind.UPSERT, key, value)
                )
        finally:
            self._write_mutex.release()

    def _grow_txn_pages(self, mtr: MTRBuilder, txn_id: int):
        """Generator: stage the status-page directory grown to cover
        ``txn_id`` and return it.

        Allocates every missing page up to the needed one (a later-begun
        transaction may write first), so the directory stays dense and a
        page's index is always ``txn_id // TXNS_PER_PAGE``.  The caller
        holds the write mutex and adopts the result once the MTR is sealed.
        """
        pages = self._txn_pages
        while len(pages) <= txn_id // TXNS_PER_PAGE:
            pages += ((yield from self.allocate_block(mtr)),)
        self.stage_change(
            mtr,
            self.META_BLOCK,
            mtr.staged_images[self.META_BLOCK],  # allocate_block staged it
            BlockPut(entries=(("txn_pages", pages),)),
        )
        return pages

    def put_many(self, txn: Transaction, items: list[tuple]):
        """Generator: write several keys in deterministic lock order."""
        for key in lock_keys_for([k for k, _v in items]):
            self.locks.acquire(txn.txn_id, key)
        by_key = dict(items)
        for key in lock_keys_for(list(by_key)):
            yield from self._write(txn, key, by_key[key])

    def commit(self, txn: Transaction) -> Future:
        """Asynchronous commit (section 2.3).

        Writes the commit record, enqueues the transaction keyed by its
        SCN, and returns immediately; the future resolves with the SCN when
        the VCL passes it.  The calling worker never stalls.
        """
        self._require(InstanceState.OPEN)
        txn.require_active()
        self.stats.commits_requested += 1
        future = Future(self.loop)
        if txn.is_read_only:
            self.txns.mark_committing(txn, scn=self.vdl)
            self._finish_commit(txn, future, started=self.loop.now)
            return future
        page = txn.txn_id // TXNS_PER_PAGE
        if page >= len(self._txn_pages):
            # Only a handle from a crashed writer generation can have
            # written without its page being in the recovered directory.
            raise TransactionError(
                f"transaction {txn.txn_id} has no status page; its writer "
                "generation crashed"
            )
        scn = self.allocator.allocate_one()
        block = self._txn_pages[page]
        pg_index = self.pg_of_block(block)
        prev_volume, prev_pg, prev_block = self.chains.thread(
            scn, pg_index, block
        )
        record = LogRecord(
            lsn=scn,
            prev_volume_lsn=prev_volume,
            prev_pg_lsn=prev_pg,
            prev_block_lsn=prev_block,
            block=block,
            pg_index=pg_index,
            kind=RecordKind.COMMIT,
            payload=CommitPayload(txn_id=txn.txn_id, scn=scn),
            txn_id=txn.txn_id,
            mtr_end=True,
        )
        self._absorb_record(record)
        self.registry.record_commit(txn.txn_id, scn)
        self.txns.mark_committing(txn, scn)
        self.driver.submit([record])
        if self.publisher is not None:
            self.publisher.publish_mtr([record])
        started = self.loop.now
        self._pending_commits[txn.txn_id] = future
        self.driver.commit_queue.enqueue(
            scn,
            ack=lambda: self._locally_durable_commit(txn, future, started),
            now=started,
            tag=txn.txn_id,
        )
        return future

    def _locally_durable_commit(
        self, txn: Transaction, future: Future, started: float
    ) -> None:
        """VCL passed the commit SCN; ack now or hand to the gate."""
        if self.commit_gate is None or self.state is not InstanceState.OPEN:
            self._finish_commit(txn, future, started)
            return
        assert txn.scn is not None
        self.commit_gate(
            txn.scn,
            lambda: self._finish_commit(txn, future, started),
            lambda exc: self._finish_commit(txn, future, started, error=exc),
        )

    def _finish_commit(
        self,
        txn: Transaction,
        future: Future,
        started: float,
        error: BaseException | None = None,
    ) -> None:
        """Complete the commit: ack it, or (``error``) report it unacked.

        The error path still finishes the transaction -- its records ARE
        locally durable and visible, only the cross-region guarantee the
        gate stood for failed -- but skips the acknowledgement statistics
        and resolves the client future with ``error`` instead of the SCN.
        """
        self._pending_commits.pop(txn.txn_id, None)
        if self.state is not InstanceState.OPEN:
            return  # crashed before the ack could fire; commit is lost
        self.txns.finish_commit(txn)
        self.locks.release_all(txn.txn_id)
        if txn.read_view is not None:
            self.close_view(txn.read_view)
            txn.read_view = None
        if error is None:
            self.stats.commits_acknowledged += 1
            self.stats.commit_latencies.append(self.loop.now - started)
            self.stats.last_commit_ack_at = self.loop.now
        if (
            self.publisher is not None
            and txn.scn is not None
            and txn.undo_log
        ):
            self.publisher.publish_commit(txn.txn_id, txn.scn)
        if txn.scn is not None and txn.undo_log:
            self.logical.publish_commit(txn.txn_id, txn.scn)
        if future.done:
            return
        if error is None:
            future.set_result(txn.scn)
        else:
            future.set_exception(error)

    def rollback(self, txn: Transaction):
        """Generator: undo every write of ``txn`` with compensating MTRs."""
        self._require(InstanceState.OPEN)
        txn.require_active()
        if txn.undo_log:
            yield self._write_mutex.acquire()
            try:
                mtr = MTRBuilder(txn_id=txn.txn_id)
                for undo in reversed(txn.undo_log):
                    yield from self.btree.replace_versions(
                        mtr, undo.key, undo.prior_versions
                    )
                self._apply_mtr(mtr)
            finally:
                self._write_mutex.release()
        self.registry.record_abort(txn.txn_id)
        self.logical.discard(txn.txn_id)
        if txn.read_view is not None:
            self.close_view(txn.read_view)
            txn.read_view = None
        self.locks.release_all(txn.txn_id)
        self.txns.finish_abort(txn)

    # ------------------------------------------------------------------
    # Network message handling
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if self.state in (InstanceState.CRASHED, InstanceState.CLOSED):
            return
        payload = message.payload
        if isinstance(payload, WriteAck):
            self.driver.on_write_ack(payload)
        elif isinstance(payload, RequestRejected):
            self.driver.on_rejection(payload)

    # ------------------------------------------------------------------
    # Crash and recovery (section 2.4)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all ephemeral state, exactly as a process kill would."""
        was_open = self.state is InstanceState.OPEN
        self.state = InstanceState.CRASHED
        self._fail_pending_commits("writer crashed before the commit ack")
        if was_open:
            self._notify_writer_close()
        self.cache.drop_all()
        self._txn_pages = ()
        self._unwritten_txn_pages.clear()
        self.locks.clear()
        self.txns.clear()
        self.views.clear()
        self.registry.clear()
        self.driver.drop_transient_state()
        self.logical.drop_transient_state()
        self.min_read = MinReadPointTracker()
        self.frontiers = PGFrontierHistory()
        self.allocator = LSNAllocator()
        self.chains = ChainState()

    def close(self, reason: str = "retired") -> None:
        """Retire the instance permanently (fenced or administratively).

        Unlike :meth:`crash` there is no way back: a closed writer ignores
        all storage traffic and never recovers.  In-flight commit futures
        resolve as uncertain -- the records may well be durable, but this
        instance can no longer observe the VCL pass them.
        """
        if self.state is InstanceState.CLOSED:
            return
        was_open = self.state is InstanceState.OPEN
        self.state = InstanceState.CLOSED
        self._fail_pending_commits(f"writer closed ({reason})")
        if was_open:
            self._notify_writer_close()

    def _on_fenced(self) -> None:
        """Driver observed a foreign volume-epoch bump: a successor ran
        recovery and changed the locks.  Step down immediately."""
        if self.state is not InstanceState.OPEN:
            return
        self.close(reason="fenced by a successor's volume epoch")

    def _fail_pending_commits(self, reason: str) -> None:
        pending = list(self._pending_commits.values())
        self._pending_commits.clear()
        for future in pending:
            if not future.done:
                future.set_exception(
                    CommitUncertainError(
                        f"commit outcome unknown: {reason}; the transaction "
                        "is either durably committed or entirely absent"
                    )
                )

    def _notify_writer_open(self) -> None:
        probe = self.driver.audit_probe if self.driver is not None else None
        if probe is not None:
            probe.on_writer_open(self.name, self.driver.epochs.volume)

    def _notify_writer_close(self) -> None:
        probe = self.driver.audit_probe if self.driver is not None else None
        if probe is not None:
            probe.on_writer_close(self.name)

    def recover(self) -> Process:
        """Run crash recovery; returns the driving :class:`Process`."""
        return Process(self.loop, self._recover())

    def _recover(self):
        self._require(InstanceState.CRASHED, InstanceState.NEW)
        self.state = InstanceState.RECOVERING
        started = self.loop.now
        self.driver.refresh_epochs()
        self.driver.configure_all_pgs()
        pg_indexes = self.metadata.pg_indexes()

        # 0. Fence FIRST: bump the volume epoch and establish it on a write
        #    quorum of every PG before reading anything ("changes the locks
        #    on the door").  Any batch a zombie predecessor gets accepted
        #    after this point can reach at most a minority at the old
        #    epoch, so it can never be acknowledged; anything it *did*
        #    quorum-ack before the fence is, by quorum intersection,
        #    visible to the scan below and therefore preserved.
        new_epochs = self.driver.epochs.bump_volume()
        self.driver.adopt_epochs(new_epochs)
        for pg_index in pg_indexes:
            yield self.driver.fence_pg(pg_index, new_epochs)

        # 1. Reach a read quorum (and every reachable segment) per PG.
        responses_by_pg: dict[int, list[SegmentRecoveryResponse]] = {}
        pg_configs = {}
        # The allocation ceiling starts above every truncation range a
        # responder installed: an earlier recovery's range may reach past
        # every record it kept, and LSNs inside it are refused for good.
        highest_seen = NULL_LSN
        for pg_index in pg_indexes:
            replies: dict[str, RecoveryScanResponse] = (
                yield self.driver.scan_pg(pg_index)
            )
            responses_by_pg[pg_index] = [
                SegmentRecoveryResponse(
                    segment_id=reply.segment_id,
                    pg_index=reply.pg_index,
                    scl=reply.scl,
                    digests=reply.digests,
                    gc_horizon=reply.gc_horizon,
                )
                for reply in replies.values()
            ]
            pg_configs[pg_index] = self.metadata.quorum_config(pg_index)
            for reply in replies.values():
                highest_seen = max(
                    highest_seen,
                    reply.annulled_upto,
                    max((d.lsn for d in reply.digests), default=NULL_LSN),
                )

        # 2. Locally re-compute PGCLs, VCL, VDL, and the truncation range.
        result = recover_volume_state(
            pg_configs=pg_configs,
            responses_by_pg=responses_by_pg,
            highest_possible_lsn=highest_seen + RECOVERY_MARGIN,
        )

        # 3. Snip the ragged edge under the already-established epoch.
        truncation = result.truncation
        if truncation is None:
            truncation = TruncationRange(
                first=result.vcl + 1,
                last=result.vcl + RECOVERY_MARGIN,
            )
        for pg_index in pg_indexes:
            acks: dict[str, TruncateAck] = yield self.driver.truncate_pg(
                pg_index,
                result.pg_truncation_points[pg_index],
                truncation,
                new_epochs,
            )
            for segment_id, ack in acks.items():
                self.driver.seed_member_scl(pg_index, segment_id, ack.scl)

        # 4. Re-anchor all local bookkeeping above the truncation range.
        self.allocator = LSNAllocator()
        self.allocator.apply_truncation(truncation)
        self.chains.reset_to(result.vcl, result.pg_truncation_points)
        self.driver.volume.reset(result.vcl, result.vdl)
        self.frontiers.reset(result.vdl, result.pg_vdl_frontiers)
        self.min_read.advance_floor(result.vdl)
        # Seed the recovered durable points so reads can route immediately.
        for pg_index in pg_indexes:
            tracker = self.driver.pg_trackers[pg_index]
            self.driver.volume.on_pgcl(pg_index, tracker.pgcl)

        # 5. Reload durable transaction statuses: META lists the status
        #    pages, each page holds its range's ``{txn_id: scn}`` entries.
        #    A page allocated but never committed to reads back empty.
        self._txn_ids_seeded = False
        self.state = InstanceState.OPEN
        self._notify_writer_open()
        self._schedule_gc_floor_tick()
        meta = yield from self.read_image(self.META_BLOCK)
        self._txn_pages = tuple(meta.get("txn_pages", ()))
        for block in self._txn_pages:
            image = yield from self.read_image(block)
            self.registry.load_txn_table_image(image)
        max_txn = max(self.registry.known_commits(), default=0)
        self.txns.seed_above(max_txn)
        self._txn_ids_seeded = True

        # If the crash predated bootstrap durability the recovered volume
        # is empty; re-create the (empty) tree so the instance is usable.
        if "root" not in meta:
            mtr = MTRBuilder(txn_id=0)
            self.btree.bootstrap(
                mtr,
                root_block=self.root_leaf_block,
                first_free_block=self.root_leaf_block + 1,
            )
            self._apply_mtr(mtr)

        # 6. "No redo replay is required ...  Undo of previously active
        #    transactions ... can occur after the database has been opened":
        #    purge versions of transactions that never committed.
        purged = yield from self._purge_orphan_versions()
        self.stats.orphan_versions_purged += purged
        self.stats.recovery_durations.append(self.loop.now - started)
        return result

    def _purge_orphan_versions(self):
        """Remove versions written by transactions with no durable commit."""
        yield self._write_mutex.acquire()
        try:
            leaves = yield from self.btree.iterate_leaves()
            purged = 0
            for leaf_block, image in leaves:
                doomed: set[int] = set()
                for _key, versions in leaf_rows(image):
                    for txn_id, _value in versions:
                        if (
                            self.registry.commit_scn(txn_id) is None
                            and txn_id != 0
                        ):
                            doomed.add(txn_id)
                if not doomed:
                    continue
                mtr = MTRBuilder(txn_id=0)
                changed = self.btree.prune_leaf(
                    mtr,
                    leaf_block,
                    image,
                    purge_point=NULL_LSN,
                    doomed_txns=frozenset(doomed),
                )
                if changed:
                    self._apply_mtr(mtr)
                    purged += changed
            return purged
        finally:
            self._write_mutex.release()

    # ------------------------------------------------------------------
    # Maintenance: MVCC version purge (the undo-purge analogue)
    # ------------------------------------------------------------------
    def purge_old_versions(self):
        """Generator: drop versions below the minimum active read point.

        The storage-side analogue (block-version GC below PGMRPL) happens
        on the nodes; this prunes the in-row version chains.
        """
        self._require(InstanceState.OPEN)
        purge_point = self.current_pgmrpl()
        yield self._write_mutex.acquire()
        try:
            leaves = yield from self.btree.iterate_leaves()
            pruned = 0
            for leaf_block, image in leaves:
                mtr = MTRBuilder(txn_id=0)
                changed = self.btree.prune_leaf(
                    mtr, leaf_block, image, purge_point, frozenset()
                )
                if changed:
                    self._apply_mtr(mtr)
                    pruned += changed
            return pruned
        finally:
            self._write_mutex.release()
