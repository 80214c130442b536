"""Segments: the unit of failure, repair, and replication.

A segment stores "the redo log for their portion of the database volume as
well as coalesced data blocks" (section 2.1).  Section 4.2 splits the six
copies of a protection group into three **full** segments (redo log + data
blocks) and three **tail** segments (redo log only), cutting cost
amplification from 6x to roughly 3x.

The segment implements the storage half of Figure 2:

- activity 1/2: :meth:`receive` / :meth:`receive_batch` -- append to the hot
  log (update queue) and advance the SCL chain tracker,
- activity 3/5: :meth:`coalesce` -- sort/group hot-log records by block and
  apply redo to materialize block versions (full segments only; also done
  on demand by :meth:`read_block`),
- activity 6: :meth:`snapshot_for_backup` -- point-in-time state for S3,
- activity 7: :meth:`garbage_collect` -- drop hot-log records and block
  versions no longer needed,
- activity 8: :meth:`scrub` -- verify checksums.

Reads are only served between PGMRPL and SCL (section 3.4): "The storage
nodes will only accept read requests between PGMRPL and SCL."
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import replace
from typing import Iterable, Mapping, Sequence

from repro.core.consistency import SegmentChainTracker
from repro.core.lsn import NULL_LSN, TruncationRange
from repro.core.records import (
    EMPTY_IMAGE,
    NO_BLOCK,
    ChainDigest,
    LogRecord,
    record_digest,
    release_redo,
)
from repro.errors import ConfigurationError, CorruptVersionError, ReadPointError
from repro.storage.page import BlockVersionChain, image_checksum


class SegmentKind(enum.Enum):
    """Full segments materialize data blocks; tail segments hold log only.

    LOG segments play the Taurus log-store role: durability-first copies
    that hold the redo log like tails but can materialize block versions
    *on demand*, so reads can fall back to the log tail while page stores
    hydrate asynchronously.
    """

    FULL = "full"
    TAIL = "tail"
    LOG = "log"


class Segment:
    """One copy of a protection group's log (and, if full, its blocks)."""

    def __init__(
        self,
        segment_id: str,
        pg_index: int,
        kind: SegmentKind = SegmentKind.FULL,
    ) -> None:
        self.segment_id = segment_id
        self.pg_index = pg_index
        self.kind = kind
        self.chain = SegmentChainTracker()
        #: The hot log / update queue: every not-yet-GC'd record, as three
        #: parallel arrays sorted by LSN -- ``_records[i]`` is the record at
        #: ``_lsn_index[i]`` and ``_digests[i]`` its ingest digest.
        #: Receives are near-append (LSNs mostly arrive in order), so
        #: keeping them sorted costs a binary search per record and saves a
        #: sort per coalesce tick / gossip query / recovery scan; a lookup
        #: by LSN is a bisect (:meth:`record_at`).  Every mutation site
        #: (receive, truncate, GC, restore, lose, corrupt) keeps the three
        #: aligned.  The digests are what the scrubber, the coalescer and
        #: the gossip ship path re-derive against to catch bit-rot on a
        #: stored record before its redo is ever applied or propagated.
        self._lsn_index: list[int] = []
        self._records: list[LogRecord] = []
        self._digests: list[int] = []
        #: Redo memos (``core.records.apply_redo``) of hot-log records up
        #: to here are released; the next GC tick releases them up to
        #: ``_memo_bound``, the ``min(gc_floor, coalesced_upto)`` this
        #: segment saw at its last tick (see :meth:`garbage_collect`).
        self._memos_released = NULL_LSN
        self._memo_bound = NULL_LSN
        #: Materialized block version chains (full segments only).
        self.blocks: dict[int, BlockVersionChain] = {}
        #: Blocks whose chain holds more than one retained version, kept
        #: current by the chains themselves; the only ones a GC tick
        #: visits (a single-version chain has nothing to drop).
        self._multi_version_blocks: set[int] = set()
        #: Highest LSN whose redo has been applied to blocks.
        self.coalesced_upto = NULL_LSN
        #: Highest LSN included in a completed backup.
        self.backed_up_upto = NULL_LSN
        #: GC floor advertised by database instances (min over instances).
        self.gc_floor = NULL_LSN
        #: Highest LSN below which hot-log records may have been GC'd; a
        #: hydrating peer must take everything at or below this point from
        #: the materialized blocks / backup rather than the hot log.
        self.gc_horizon = NULL_LSN
        #: Truncation ranges installed by crash recoveries; records inside
        #: any of them are annulled and refused even if they arrive later
        #: ("even if in-flight asynchronous operations complete during the
        #: process of crash recovery, they are ignored").
        self.truncations: list[TruncationRange] = []
        #: ``max(t.last)`` over ``truncations``: no LSN above it can be
        #: annulled.  A post-recovery writer allocates above every range it
        #: installed (``LSNAllocator.apply_truncation``), so live ingest
        #: compares against this scalar and never walks the ranges.
        self.annulled_upto = NULL_LSN
        #: Hot-log LSNs whose stored record failed digest verification;
        #: coalescing stops below the lowest one until peer repair replaces
        #: the record.
        self._corrupt_record_lsns: set[int] = set()
        #: Below this LSN the per-version chain structure is condensed
        #: (snapshot restore / hydration collapse history into a single
        #: baseline version), so cross-peer structural votes are only
        #: meaningful above it.  Monotone.
        self.granular_floor = NULL_LSN
        #: Rotating cursor for scrub block sampling (full coverage every
        #: ``ceil(len(blocks)/sample)`` scrub rounds, deterministically).
        self._scrub_cursor = 0
        self.stats = {
            "records_received": 0,
            "duplicates": 0,
            "annulled_refused": 0,
            "records_gossiped_in": 0,
            "coalesce_applications": 0,
            "gc_records_dropped": 0,
            "gc_versions_dropped": 0,
            "reads_served": 0,
            "scrub_failures": 0,
            "record_scrub_failures": 0,
            "versions_quarantined": 0,
            "votes_answered": 0,
        }

    # ------------------------------------------------------------------
    # Foreground: receive + acknowledge
    # ------------------------------------------------------------------
    @property
    def scl(self) -> int:
        return self.chain.scl

    def receive(self, record: LogRecord, via_gossip: bool = False) -> bool:
        """Store a record; returns True if the SCL advanced.

        Receiving is unconditional: "storage nodes do not have a vote in
        determining whether to accept a write, they must do so" (section
        2.3).  Duplicates are idempotently ignored.
        """
        if record.pg_index != self.pg_index:
            raise ConfigurationError(
                f"record for PG {record.pg_index} routed to segment "
                f"{self.segment_id} of PG {self.pg_index}"
            )
        lsn = record.lsn
        if lsn <= self.annulled_upto and any(
            t.contains(lsn) for t in self.truncations
        ):
            self.stats["annulled_refused"] += 1
            return False
        if lsn <= self.chain.scl:
            self.stats["duplicates"] += 1
            return False
        index = self._lsn_index
        if not index or lsn > index[-1]:
            # In-order arrival (the overwhelmingly common case): the end.
            pos = len(index)
        else:
            pos = bisect_left(index, lsn)
            if index[pos] == lsn:
                self.stats["duplicates"] += 1
                return False
        digest = record._digest
        if digest is None:
            digest = record_digest(record)
        index.insert(pos, lsn)
        self._records.insert(pos, record)
        self._digests.insert(pos, digest)
        self.stats["records_received"] += 1
        if via_gossip:
            self.stats["records_gossiped_in"] += 1
        return self.chain.offer(record.lsn, record.prev_pg_lsn)

    def receive_batch(
        self, records: Sequence[LogRecord], via_gossip: bool = False
    ) -> bool:
        """Store ``records`` in order; returns True if the SCL advanced.

        Equivalent to calling :meth:`receive` on each record, which stays
        the general path and the reference this one is tested against.  A
        boxcar is normally one chain-contiguous run that lies above
        everything already stored; such a run (above every installed
        truncation range, so nothing in it can be annulled) is appended to
        the hot-log arrays in bulk, and when it also attaches at
        the SCL the chain tracker takes it in one step.  A run behind a gap
        is still appended in bulk but linked record by record; anything
        else -- out of order, overlapping what is stored, internally
        gapped, reaching into or below an annulled range -- goes through
        :meth:`receive`.
        """
        lsns = self._appendable_run(records)
        if lsns is None:
            # (Lists, not generators: ``any`` must not stop at the first.)
            return any([self.receive(r, via_gossip) for r in records])
        self._lsn_index.extend(lsns)
        self._records.extend(records)
        self._digests.extend(map(record_digest, records))
        self.stats["records_received"] += len(lsns)
        if via_gossip:
            self.stats["records_gossiped_in"] += len(lsns)
        chain = self.chain
        if chain.offer_run(records[0].prev_pg_lsn, lsns[-1]):
            return True
        return any([chain.offer(r.lsn, r.prev_pg_lsn) for r in records])

    def _appendable_run(self, records: Sequence[LogRecord]) -> list[int] | None:
        """The LSNs of ``records`` if they can be appended in bulk, else None.

        That takes a non-empty run of this PG's records, each linked to the
        one before it (so strictly ascending), that starts above the SCL and
        above every stored record (so none is a duplicate) and above every
        installed truncation range (so none is annulled).
        """
        if not records:
            return None
        first = records[0]
        index = self._lsn_index
        if (
            first.lsn <= self.chain.scl
            or first.lsn <= self.annulled_upto
            or (index and first.lsn <= index[-1])
        ):
            return None
        pg_index = self.pg_index
        prev = first.prev_pg_lsn  # whatever the run hangs from
        lsns = []
        for record in records:
            if record.prev_pg_lsn != prev or record.pg_index != pg_index:
                return None
            prev = record.lsn
            lsns.append(prev)
        return lsns

    # ------------------------------------------------------------------
    # Background: sort/group + coalesce
    # ------------------------------------------------------------------
    def coalesce(self, upto: int | None = None) -> int:
        """Apply redo for chain-complete records to block versions.

        Only records at or below the SCL are eligible (the chain guarantees
        nothing is missing below it).  Tail segments never materialize;
        log segments materialize only on demand (``upto`` given), never in
        the background.  Returns the number of records applied.
        """
        if self.kind is SegmentKind.TAIL:
            return 0
        if self.kind is SegmentKind.LOG and upto is None:
            return 0
        limit = self.scl if upto is None else min(upto, self.scl)
        if limit <= self.coalesced_upto:
            return 0
        index = self._lsn_index
        lo = bisect_right(index, self.coalesced_upto)
        hi = bisect_right(index, limit)
        applied = 0
        records = self._records
        digests = self._digests
        blocks = self.blocks
        for i in range(lo, hi):
            record = records[i]
            # Verify the stored record against its ingest digest before
            # applying redo: bit-rot on a hot-log record must never be
            # materialized into a corrupt version carrying a *valid* image
            # checksum.  Coalescing stalls just below the damaged record
            # until peer repair replaces it.
            digest = record._digest
            if digest is None:
                digest = record_digest(record)
            if digest != digests[i]:
                lsn = index[i]
                if lsn not in self._corrupt_record_lsns:
                    self._corrupt_record_lsns.add(lsn)
                    self.stats["record_scrub_failures"] += 1
                self.coalesced_upto = lsn - 1
                self.stats["coalesce_applications"] += applied
                return applied
            block = record.block
            if block != NO_BLOCK:
                chain = blocks.get(block)
                if chain is None:
                    chain = self.chain_for(block)
                chain.materialize(record)
            applied += 1
        self.coalesced_upto = limit
        self.stats["coalesce_applications"] += applied
        return applied

    def chain_for(self, block: int) -> BlockVersionChain:
        """The version chain of ``block``, created empty on first use."""
        chain = self.blocks.get(block)
        if chain is None:
            chain = BlockVersionChain(block, self._multi_version_blocks)
            self.blocks[block] = chain
        return chain

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_block(self, block: int, read_point: int) -> Mapping:
        """Serve the latest durable version of ``block`` at ``read_point``
        (the stored image itself: shared, do not mutate).

        Materializes on demand ("materializing blocks in background or
        on-demand to satisfy a read request").  Raises
        :class:`ReadPointError` outside the [gc_floor, SCL] window and on
        tail segments (which hold no blocks), and
        :class:`CorruptVersionError` when the served version fails
        verification.
        """
        version = self.read_version(block, read_point)
        return version.image if version is not None else EMPTY_IMAGE

    def read_version(self, block: int, read_point: int):
        """Guarded, verified read returning a :class:`BlockVersion` handle
        on the served version (``None`` for a never-written block).

        Every read verifies the served version's checksum (DESIGN.md §12):
        raises :class:`CorruptVersionError` when it fails verification --
        quarantining the version so it can never be served or vouched for
        until repaired -- or when a corrupt hot-log record at or below the
        read point stalled coalescing (the image would be silently
        incomplete).
        """
        if self.kind is SegmentKind.TAIL:
            raise ReadPointError(read_point, 0, 0)
        if (
            self.kind is SegmentKind.LOG
            and self.coalesced_upto < self.gc_horizon
        ):
            # History below the GC horizon is gone from the hot log and was
            # never materialized here (e.g. after a backup restore); an
            # on-demand coalesce would produce silently incomplete images.
            # Refuse so the driver reroutes to a page store.
            raise ReadPointError(read_point, 0, 0)
        if not self.gc_floor <= read_point <= self.scl:
            raise ReadPointError(read_point, self.gc_floor, self.scl)
        self.coalesce(upto=read_point)
        if self._corrupt_record_lsns:
            blocking = min(self._corrupt_record_lsns)
            if blocking <= min(read_point, self.scl):
                raise CorruptVersionError(block, blocking)
        chain = self.blocks.get(block)
        version = chain.version_at(read_point) if chain is not None else None
        if version is not None and not version.verify():
            if not version.quarantined:
                version.quarantined = True
                self.stats["versions_quarantined"] += 1
            raise CorruptVersionError(block, version.lsn)
        self.stats["reads_served"] += 1
        return version

    # ------------------------------------------------------------------
    # Gossip support
    # ------------------------------------------------------------------
    def records_after(self, lsn: int, limit: int = 1024) -> list[LogRecord]:
        """Hot-log records above ``lsn``, in LSN order (gossip fill-ins).

        Verified on the way out: a record whose stored bytes no longer
        match the ingest digest is withheld (and remembered as corrupt for
        vote repair) rather than shipped.  This matters most for lagging
        copies -- a Taurus page store draining the log, or a hydrating
        replacement -- which would otherwise ingest the rotted bytes as
        authentic and materialize them under a *valid* image checksum.
        The requester fills the hole from another peer's clean copy.
        """
        index = self._lsn_index
        lo = bisect_right(index, lsn)
        records = self._records
        digests = self._digests
        out: list[LogRecord] = []
        for i in range(lo, len(index)):
            if len(out) >= limit:
                break
            record = records[i]
            if record_digest(record) != digests[i]:
                l = index[i]
                if l not in self._corrupt_record_lsns:
                    self._corrupt_record_lsns.add(l)
                    self.stats["record_scrub_failures"] += 1
                continue
            out.append(record)
        return out

    def missing_below_scl_of(self, peer_scl: int) -> bool:
        """Would gossip with a peer at ``peer_scl`` teach this segment
        anything?"""
        return peer_scl > self.scl

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------
    def chain_digests(self) -> tuple[ChainDigest, ...]:
        """Digests of every hot-log record (recovery scan payload)."""
        return tuple(ChainDigest.of(record) for record in self._records)

    def truncate(self, pg_point: int, truncation: TruncationRange) -> int:
        """Annul records above this PG's surviving point; returns count.

        ``pg_point`` is the highest surviving LSN routed to this PG (the
        per-PG anchor of the volume-wide truncation range); the segment
        chain is clamped there so post-recovery records re-link cleanly.
        """
        self.truncations.append(truncation)
        self.annulled_upto = max(self.annulled_upto, truncation.last)
        # Annul only the window (pg_point, truncation.last].  LSNs above the
        # range belong to post-recovery writer generations (the allocator
        # jumps above it): a TruncateRequest delivered late, to a segment
        # that was unreachable while recovery ran, must not destroy records
        # gossiped in from the new generation since.
        index = self._lsn_index
        lo = bisect_right(index, pg_point)
        hi = bisect_right(index, truncation.last)
        self._corrupt_record_lsns.difference_update(index[lo:hi])
        del index[lo:hi]
        del self._records[lo:hi]
        del self._digests[lo:hi]
        self.chain.truncate(pg_point, truncation.last)
        for chain in self.blocks.values():
            chain.truncate_above(pg_point, truncation.last)
        if self.chain.scl <= truncation.last:
            self.coalesced_upto = min(self.coalesced_upto, pg_point)
        return hi - lo

    # ------------------------------------------------------------------
    # Backup, GC, scrub
    # ------------------------------------------------------------------
    def snapshot_for_backup(self) -> dict:
        """Point-in-time snapshot shipped to the simulated S3."""
        self.coalesce()
        return {
            "segment_id": self.segment_id,
            "pg_index": self.pg_index,
            "scl": self.scl,
            "blocks": {
                block: chain.image_at(self.scl)
                for block, chain in self.blocks.items()
            },
        }

    def mark_backed_up(self, upto: int) -> None:
        self.backed_up_upto = max(self.backed_up_upto, upto)

    def restore_from_snapshot(self, payload: dict) -> int:
        """Rebuild this (fresh) segment from an S3 backup snapshot.

        Point-in-time restore: the snapshot's coalesced block images become
        the baseline (one version each, stamped at the snapshot SCL); the
        chain re-anchors at the snapshot SCL and ``gc_horizon`` marks
        everything below it as complete-from-backup, so post-restore crash
        recovery and gossip hydration compose with the normal machinery.
        Returns the restored SCL.
        """
        snapshot_scl = payload["scl"]
        self._lsn_index.clear()
        self._records.clear()
        self._digests.clear()
        self._corrupt_record_lsns.clear()
        self.blocks = {}
        self._multi_version_blocks.clear()
        if self.kind is SegmentKind.FULL:
            for block, image in payload["blocks"].items():
                chain = self.chain_for(block)
                if image or snapshot_scl > NULL_LSN:
                    chain.append(snapshot_scl, image)
        self.chain.rebase(snapshot_scl)
        # A log segment restores no block baseline, so it must not claim
        # materialization through the snapshot point; the read_block guard
        # then routes reads to page stores until it adopts a baseline.
        if self.kind is not SegmentKind.LOG:
            self.coalesced_upto = snapshot_scl
        self.backed_up_upto = snapshot_scl
        self.gc_horizon = max(self.gc_horizon, snapshot_scl)
        # The restored baseline collapses per-block history into one
        # version at the snapshot SCL; structural votes below it would
        # disagree with peers that kept granular chains.
        self.granular_floor = max(self.granular_floor, snapshot_scl)
        return snapshot_scl

    def advance_gc_floor(self, floor: int) -> None:
        """Adopt a new PGMRPL-derived GC floor (monotonic)."""
        self.gc_floor = max(self.gc_floor, floor)

    def garbage_collect(self) -> tuple[int, int]:
        """Drop unneeded hot-log records and block versions.

        A hot-log record may be dropped once it is (a) coalesced into a
        block version (or this is a tail segment and it is backed up),
        (b) covered by a completed backup, and (c) below the GC floor --
        "garbage collects backed-up data that will no longer be referenced
        by an instance".  Block versions are dropped below the GC floor.
        Returns ``(records_dropped, versions_dropped)``.

        First it releases the redo memos of hot-log records at or below
        ``min(gc_floor, coalesced_upto)`` as it stood at the *previous*
        tick: a memo pins the image its record made and that image's base
        after every chain has dropped them.  A GC interval is about twenty
        coalesce ticks, so by then every copy that keeps up has applied the
        record and shared the memoised image; a copy that was down for
        longer runs the payload itself.
        """
        index = self._lsn_index
        records = self._records
        for i in range(
            bisect_right(index, self._memos_released),
            bisect_right(index, self._memo_bound),
        ):
            release_redo(records[i])
        self._memos_released = max(self._memos_released, self._memo_bound)
        self._memo_bound = min(self.gc_floor, self.coalesced_upto)
        # Log segments use the coalesced bound like fulls: a hot-log record
        # is only droppable once its effects are materialized here, so a
        # log store never discards history it might have to serve.
        materialized = (
            self.backed_up_upto
            if self.kind is SegmentKind.TAIL
            else self.coalesced_upto
        )
        record_limit = min(materialized, self.backed_up_upto, self.gc_floor)
        self.gc_horizon = max(self.gc_horizon, record_limit)
        cut = bisect_right(index, record_limit)
        if self._corrupt_record_lsns:
            self._corrupt_record_lsns.difference_update(index[:cut])
        del index[:cut]
        del records[:cut]
        del self._digests[:cut]
        versions_dropped = 0
        multi_version = self._multi_version_blocks
        for block in list(multi_version):
            chain = self.blocks[block]
            versions_dropped += chain.gc_below(self.gc_floor)
            if len(chain) <= 1:
                multi_version.discard(block)
        self.stats["gc_records_dropped"] += cut
        self.stats["gc_versions_dropped"] += versions_dropped
        return (cut, versions_dropped)

    def scrub(self) -> list[tuple[int, int]]:
        """Verify every block version checksum; returns (block, lsn) failures."""
        failures: list[tuple[int, int]] = []
        for block, chain in self.blocks.items():
            for lsn in chain.scrub():
                failures.append((block, lsn))
        self.stats["scrub_failures"] += len(failures)
        return failures

    # ------------------------------------------------------------------
    # Integrity: record scrub + quorum-vote repair (DESIGN.md §12)
    # ------------------------------------------------------------------
    def scrub_records(self) -> list[int]:
        """Verify every hot-log record against its ingest digest.

        Returns the LSNs of records whose stored bytes no longer match
        (bit-rot on the log itself); they are also remembered so coalescing
        refuses to apply them until peer repair replaces the record.
        """
        bad = self._corrupt_record_lsns
        index = self._lsn_index
        records = self._records
        digests = self._digests
        for i in range(len(index)):
            lsn = index[i]
            if lsn in bad:
                continue
            if record_digest(records[i]) != digests[i]:
                bad.add(lsn)
                self.stats["record_scrub_failures"] += 1
        return sorted(bad)

    @property
    def corrupt_record_lsns(self) -> frozenset[int]:
        return frozenset(self._corrupt_record_lsns)

    def vote_window(self) -> tuple[int, int]:
        """``(lo, hi]``: where this copy's version chains are granular and
        materialized, i.e. structurally comparable across peers.

        Below ``granular_floor`` history was condensed by restore or
        hydration; below ``gc_floor`` versions have been collected; above
        ``coalesced_upto`` nothing is materialized yet.
        """
        return (max(self.granular_floor, self.gc_floor), self.coalesced_upto)

    def scrub_sample_blocks(self, n: int) -> list[int]:
        """Next ``n`` blocks under the rotating scrub cursor.

        Sampling healthy-looking blocks is what catches corruption with a
        *valid* checksum (misdirected writes, lost-but-acked writes): only
        a cross-peer content vote can expose those, so the scrubber sweeps
        every block through the vote on a deterministic rotation.
        """
        if not self.blocks or n <= 0:
            return []
        order = sorted(self.blocks)
        start = self._scrub_cursor % len(order)
        picked = [
            order[(start + i) % len(order)]
            for i in range(min(n, len(order)))
        ]
        self._scrub_cursor = (start + len(picked)) % len(order)
        return picked

    def vote_request_blocks(
        self, blocks_of_interest: Iterable[int]
    ) -> tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]:
        """Build the per-block entries of an IntegrityVoteRequest.

        For each block: this copy's granular window and its retained
        ``(version_lsn, checksum)`` pairs inside it.  A checksum of 0 marks
        a version held but unvouchable (quarantined or locally corrupt) so
        a responder knows to attach its image.

        A leading pair ``(lo, 0)`` is the *floor ballot*: the version
        visible at read point ``lo`` fails verification, so the peers are
        asked for their content at that point.  It is asked only on damage
        (a clean floor costs no hashing) and only while ``lo <= hi``: a
        copy whose GC floor passed its coalesce point has no content at
        ``lo`` to repair.
        """
        lo, hi = self.vote_window()
        out = []
        for block in blocks_of_interest:
            chain = self.blocks.get(block)
            pairs = []
            if chain is not None:
                floor = chain.version_at(lo) if lo <= hi else None
                if floor is not None and not floor.verify():
                    pairs.append((lo, 0))
                for version in chain.versions_in(lo, hi):
                    pairs.append(
                        (
                            version.lsn,
                            version.checksum if version.verify() else 0,
                        )
                    )
            out.append((block, lo, hi, tuple(pairs)))
        return tuple(out)

    def answer_vote(
        self,
        blocks: Iterable[tuple[int, int, int, tuple[tuple[int, int], ...]]],
        record_lsns: Iterable[int] = (),
    ) -> tuple[
        tuple[tuple[int, int, int, tuple[tuple[int, int, object], ...]], ...],
        tuple[LogRecord, ...],
    ]:
        """Answer a peer's integrity vote (IntegrityVoteResponse payload).

        Per block: the overlap of our granular window with the requested
        one, and our versions inside it -- a corrupt or quarantined local
        version is never vouched for nor shipped: it answers
        ``(lsn, None, None)``, an abstention that still tells the
        requester the version exists here.  Images
        ride along only where the requester's checksum was absent or
        different.  Clean hot-log records are attached for probed LSNs and
        for every differing version (so a lost write's record is restored
        together with its image).

        A floor ballot (a leading pair at the requested ``lo``) is answered
        first, as ``(lo, checksum, image)`` of our version visible at read
        point ``lo``, when our own window covers that point
        (``lo_own <= lo <= hi_own``) and that version verifies.  Every
        correct copy sees the same content at one read point, whatever its
        version LSNs, so the ballot carries the point, not an LSN.
        """
        self.stats["votes_answered"] += 1
        blocks = tuple(blocks)
        # Log stores materialize on demand so their chains can vouch: this
        # is the Taurus log-tail-replay fallback that breaks a 2-copy page
        # store tie.  Skip when history below the GC horizon was never
        # materialized here (same guard as read_block).
        if (
            self.kind is SegmentKind.LOG
            and self.coalesced_upto >= self.gc_horizon
        ):
            hi_needed = max((b[2] for b in blocks), default=NULL_LSN)
            if hi_needed > self.coalesced_upto:
                self.coalesce(upto=hi_needed)
        lo_own, hi_own = self.vote_window()
        reply_blocks = []
        want_records: set[int] = set(record_lsns)
        for block, req_lo, req_hi, pairs in blocks:
            cover_lo = max(lo_own, req_lo)
            cover_hi = min(hi_own, req_hi)
            chain = self.blocks.get(block)
            entries = []
            if (
                chain is not None
                and pairs
                and pairs[0][0] == req_lo
                and lo_own <= req_lo <= hi_own
            ):
                floor = chain.version_at(req_lo)
                if floor is not None and floor.verify():
                    entries.append((req_lo, floor.checksum, floor.image))
            if self.kind is SegmentKind.TAIL or cover_lo >= cover_hi:
                reply_blocks.append(
                    (block, cover_lo, cover_lo, tuple(entries))
                )
                continue
            theirs = dict(pairs)
            if chain is not None:
                for version in chain.versions_in(cover_lo, cover_hi):
                    if not version.verify():
                        # Present but unverified: an abstention, so the
                        # requester does not count this copy as lacking
                        # the version.
                        entries.append((version.lsn, None, None))
                        continue
                    image = None
                    if theirs.get(version.lsn) != version.checksum:
                        image = version.image
                        want_records.add(version.lsn)
                    entries.append((version.lsn, version.checksum, image))
            reply_blocks.append((block, cover_lo, cover_hi, tuple(entries)))
        records = []
        for lsn in sorted(want_records):
            pos = self._find(lsn)
            if pos >= 0:
                record = self._records[pos]
                if record_digest(record) == self._digests[pos]:
                    records.append(record)
        return tuple(reply_blocks), tuple(records)

    def repair_version(self, block: int, lsn: int, image: Mapping) -> bool:
        """Adopt a majority-agreed image (the voter's object itself): swap
        it into the local version (clearing quarantine) or insert it
        mid-chain (lost write)."""
        if any(t.contains(lsn) for t in self.truncations):
            return False
        chain = self.chain_for(block)
        version = chain.version(lsn)
        if version is not None:
            version.image = image
            version.checksum = image_checksum(image)
            version.quarantined = False
            return True
        chain.insert(lsn, image)
        return True

    def drop_version(self, block: int, lsn: int) -> bool:
        """Remove a version the peer majority does not have (the local
        artifact of a misdirected write)."""
        chain = self.blocks.get(block)
        return chain.remove_version(lsn) if chain is not None else False

    def restore_record(self, record: LogRecord) -> bool:
        """Re-adopt a clean peer copy of a hot-log record.

        Replaces a bit-rotted stored record, or refills the record a
        lost-but-acked write dropped.  Bypasses :meth:`receive`'s duplicate
        guard (the LSN is typically at or below our SCL already) but still
        honours truncation annulment and the GC horizon.
        """
        if any(t.contains(record.lsn) for t in self.truncations):
            return False
        if record.lsn <= self.gc_horizon:
            return False
        digest = record_digest(record)
        pos = self._find(record.lsn)
        if pos >= 0:
            self._records[pos] = record
            self._digests[pos] = digest
        else:
            pos = bisect_left(self._lsn_index, record.lsn)
            self._lsn_index.insert(pos, record.lsn)
            self._records.insert(pos, record)
            self._digests.insert(pos, digest)
        self._corrupt_record_lsns.discard(record.lsn)
        return True

    def corrupt_record(self, lsn: int, payload=None) -> LogRecord | None:
        """Injector API: silently mangle the stored hot-log record at
        ``lsn``.  The digest captured at ingest is deliberately left
        untouched -- that mismatch is what :meth:`scrub_records` and the
        verified :meth:`coalesce` detect.  Returns the mangled record, or
        ``None`` if the LSN is not in the hot log.
        """
        pos = self._find(lsn)
        if pos < 0:
            return None
        mangled = replace(
            self._records[pos],
            payload=("__bit_rot__", lsn) if payload is None else payload,
        )
        self._records[pos] = mangled
        return mangled

    def intact_lsns_above(self, floor: int) -> list[int]:
        """Injector API: the hot-log LSNs above ``floor``, ascending, whose
        stored record still matches its ingest digest."""
        index = self._lsn_index
        return [
            index[i]
            for i in range(bisect_right(index, floor), len(index))
            if record_digest(self._records[i]) == self._digests[i]
        ]

    def lose_record(self, lsn: int) -> LogRecord | None:
        """Injector API: drop an acknowledged record -- and its
        materialized version -- as if the disk write never happened.

        The SCL keeps covering ``lsn``; that is the fault being modelled
        (a lost-but-acked write): gossip never re-fetches below the SCL,
        so only a cross-peer integrity vote can notice the hole.  Returns
        the dropped record, or ``None`` if the LSN is not in the hot log.
        """
        pos = self._find(lsn)
        if pos < 0:
            return None
        record = self._records[pos]
        del self._lsn_index[pos]
        del self._records[pos]
        del self._digests[pos]
        self._corrupt_record_lsns.discard(lsn)
        chain = self.blocks.get(record.block)
        if chain is not None:
            chain.remove_version(lsn)
        return record

    # ------------------------------------------------------------------
    # Hydration (membership repair, section 4.2)
    # ------------------------------------------------------------------
    def hydrate_from(self, source: "Segment") -> int:
        """Bootstrap a new segment from a healthy peer; returns records copied.

        Tail repair "simply requires reading from the other members ...
        using our SCL to determine and fill in the gaps"; full repair also
        copies the materialized block baseline.
        """
        if (
            self.kind is not SegmentKind.TAIL
            and source.kind is not SegmentKind.TAIL
        ):
            source.coalesce()
            for block, chain in source.blocks.items():
                ours = self.chain_for(block)
                for version in chain.versions_in(ours.latest_lsn):
                    ours.append(version.lsn, version.image)
            self.coalesced_upto = max(
                self.coalesced_upto, source.coalesced_upto
            )
        # Records at or below the source's GC horizon are no longer in its
        # hot log; they are covered by the copied block baseline (full) or
        # by the S3 backup (tail), so the chain re-anchors there.
        self.chain.rebase(source.gc_horizon)
        self.gc_horizon = max(self.gc_horizon, source.gc_horizon)
        # Copied chains inherit the source's structure only inside its own
        # granular window; below that (and below any pre-existing local
        # baseline) this copy is condensed relative to other peers.
        self.granular_floor = max(
            self.granular_floor, source.granular_floor, source.gc_horizon
        )
        records = source.records_after(self.scl, limit=10**9)
        self.receive_batch(records, via_gossip=True)
        return len(records)

    # ------------------------------------------------------------------
    # The hot log by LSN
    # ------------------------------------------------------------------
    def _find(self, lsn: int) -> int:
        """Position of ``lsn`` in the hot-log arrays, or -1."""
        index = self._lsn_index
        pos = bisect_left(index, lsn)
        return pos if pos < len(index) and index[pos] == lsn else -1

    def record_at(self, lsn: int) -> LogRecord | None:
        """The hot-log record at ``lsn``, or ``None`` if it holds none."""
        pos = self._find(lsn)
        return self._records[pos] if pos >= 0 else None

    def hot_log_lsns(self) -> tuple[int, ...]:
        """Every hot-log LSN, ascending (a copy, for cold callers)."""
        return tuple(self._lsn_index)

    @property
    def hot_log_size(self) -> int:
        return len(self._lsn_index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Segment {self.segment_id} pg={self.pg_index} "
            f"{self.kind.value} scl={self.scl}>"
        )
