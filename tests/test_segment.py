"""Unit tests for segments: receive, coalesce, reads, GC, scrub, hydration."""

import pytest

from repro.core.lsn import NULL_LSN, TruncationRange
from repro.core.records import (
    BlockPut,
    CommitPayload,
    LogRecord,
    RecordKind,
)
from repro.errors import ConfigurationError, ReadPointError
from repro.storage.segment import Segment, SegmentKind


def record(lsn, prev_pg, block=0, pg=0, key="k", value=None, mtr_end=True):
    return LogRecord(
        lsn=lsn,
        prev_volume_lsn=max(0, lsn - 1),
        prev_pg_lsn=prev_pg,
        prev_block_lsn=0,
        block=block,
        pg_index=pg,
        kind=RecordKind.DATA,
        payload=BlockPut(entries=((key, value if value is not None else lsn),)),
        mtr_end=mtr_end,
    )


def fill(segment, count, block=0):
    prev = segment.scl
    for i in range(count):
        lsn = prev + 1
        segment.receive(record(lsn, prev, block=block))
        prev = lsn
    return prev


class TestReceive:
    def test_advances_scl_in_order(self):
        segment = Segment("s", 0)
        fill(segment, 3)
        assert segment.scl == 3
        assert segment.hot_log_size == 3

    def test_wrong_pg_rejected(self):
        segment = Segment("s", 0)
        with pytest.raises(ConfigurationError):
            segment.receive(record(1, 0, pg=5))

    def test_duplicates_counted_not_stored(self):
        segment = Segment("s", 0)
        r = record(1, 0)
        segment.receive(r)
        segment.receive(r)
        assert segment.stats["duplicates"] == 1
        assert segment.hot_log_size == 1

    def test_gossip_flag_counted(self):
        segment = Segment("s", 0)
        segment.receive(record(1, 0), via_gossip=True)
        assert segment.stats["records_gossiped_in"] == 1


class TestCoalesce:
    def test_materializes_chain_complete_records(self):
        segment = Segment("s", 0)
        fill(segment, 3)
        applied = segment.coalesce()
        assert applied == 3
        assert segment.blocks[0].latest_lsn == 3

    def test_does_not_apply_beyond_gap(self):
        segment = Segment("s", 0)
        segment.receive(record(1, 0))
        segment.receive(record(5, 3))  # gap at 2..3
        segment.coalesce()
        assert segment.coalesced_upto == 1
        assert segment.blocks[0].latest_lsn == 1

    def test_tail_segments_never_materialize(self):
        segment = Segment("s", 0, SegmentKind.TAIL)
        fill(segment, 3)
        assert segment.coalesce() == 0
        assert segment.blocks == {}

    def test_idempotent(self):
        segment = Segment("s", 0)
        fill(segment, 2)
        segment.coalesce()
        assert segment.coalesce() == 0

    def test_commit_records_materialize_txn_table(self):
        segment = Segment("s", 0)
        commit = LogRecord(
            lsn=1, prev_volume_lsn=0, prev_pg_lsn=0, prev_block_lsn=0,
            block=3, pg_index=0, kind=RecordKind.COMMIT,
            payload=CommitPayload(txn_id=9, scn=1), txn_id=9,
        )
        segment.receive(commit)
        segment.coalesce()
        assert segment.blocks[3].latest_image() == {9: 1}


class TestReads:
    def test_read_at_point_serves_right_version(self):
        segment = Segment("s", 0)
        fill(segment, 4)
        assert segment.read_block(0, 2) == {"k": 2}
        assert segment.read_block(0, 4) == {"k": 4}

    def test_read_beyond_scl_rejected(self):
        segment = Segment("s", 0)
        fill(segment, 2)
        with pytest.raises(ReadPointError):
            segment.read_block(0, 3)

    def test_read_below_gc_floor_rejected(self):
        segment = Segment("s", 0)
        fill(segment, 5)
        segment.advance_gc_floor(3)
        with pytest.raises(ReadPointError):
            segment.read_block(0, 2)
        assert segment.read_block(0, 3) == {"k": 3}

    def test_read_on_tail_rejected(self):
        segment = Segment("s", 0, SegmentKind.TAIL)
        fill(segment, 2)
        with pytest.raises(ReadPointError):
            segment.read_block(0, 1)

    def test_unknown_block_serves_empty(self):
        segment = Segment("s", 0)
        fill(segment, 1)
        assert segment.read_block(42, 1) == {}

    def test_on_demand_materialization(self):
        """Reads coalesce lazily -- no background tick required."""
        segment = Segment("s", 0)
        fill(segment, 3)
        assert segment.coalesced_upto == NULL_LSN
        assert segment.read_block(0, 3) == {"k": 3}
        assert segment.coalesced_upto == 3


class TestGossipSupport:
    def test_records_after_ordered_and_limited(self):
        segment = Segment("s", 0)
        fill(segment, 5)
        got = segment.records_after(2, limit=2)
        assert [r.lsn for r in got] == [3, 4]

    def test_missing_below_scl_of(self):
        segment = Segment("s", 0)
        fill(segment, 3)
        assert segment.missing_below_scl_of(5)
        assert not segment.missing_below_scl_of(3)


class TestTruncation:
    def test_annuls_records_above_pg_point(self):
        segment = Segment("s", 0)
        fill(segment, 5)
        segment.coalesce()
        dropped = segment.truncate(3, TruncationRange(first=4, last=100))
        assert dropped == 2
        assert segment.scl == 3
        assert segment.blocks[0].latest_lsn == 3
        # Post-recovery records chain from the truncation point.
        segment.receive(record(101, 3))
        assert segment.scl == 101

    def test_late_arriving_annulled_write_is_ignored(self):
        """'even if in-flight asynchronous operations complete during the
        process of crash recovery, they are ignored'"""
        segment = Segment("s", 0)
        fill(segment, 3)
        segment.truncate(3, TruncationRange(first=4, last=100))
        advanced = segment.receive(record(4, 3))  # zombie in-flight write
        assert not advanced
        assert segment.scl == 3
        assert segment.record_at(4) is None
        assert segment.stats["annulled_refused"] == 1
        # The recovered writer's records (above the range) still chain.
        assert segment.receive(record(101, 3))

    def test_late_truncation_preserves_new_generation_records(self):
        """A TruncateRequest landing on a segment that was unreachable
        during recovery — after the segment has already received records
        from the post-recovery writer generation — annuls only its window,
        never the new generation's durable data."""
        segment = Segment("s", 0)
        fill(segment, 3)
        segment.receive(record(5, 4))    # dead-generation in-flight stray
        segment.receive(record(101, 3))  # new generation, above the range
        assert segment.scl == 101
        segment.coalesce()
        dropped = segment.truncate(3, TruncationRange(first=4, last=100))
        assert dropped == 1              # only the stray inside (3, 100]
        assert segment.scl == 101        # not regressed
        assert segment.record_at(101).lsn == 101
        assert segment.blocks[0].latest_lsn == 101
        assert segment.scl == 101


class TestGCAndBackup:
    def _prepared(self):
        segment = Segment("s", 0)
        fill(segment, 6)
        segment.coalesce()
        segment.mark_backed_up(6)
        return segment

    def test_gc_requires_floor_backup_and_coalesce(self):
        segment = self._prepared()
        records, _versions = segment.garbage_collect()
        assert records == 0  # gc floor still at 0
        segment.advance_gc_floor(4)
        records, _versions = segment.garbage_collect()
        assert records == 4
        assert segment.hot_log_lsns() == (5, 6)
        assert segment.gc_horizon == 4

    def test_gc_drops_old_block_versions(self):
        segment = self._prepared()
        segment.advance_gc_floor(4)
        _records, versions = segment.garbage_collect()
        assert versions == 3  # versions 1..3; version 4 is the base
        assert segment.blocks[0].version_at(4).lsn == 4

    def test_tail_gc_uses_backup_not_coalesce(self):
        segment = Segment("s", 0, SegmentKind.TAIL)
        fill(segment, 4)
        segment.advance_gc_floor(4)
        assert segment.garbage_collect() == (0, 0)  # not backed up yet
        segment.mark_backed_up(4)
        records, _ = segment.garbage_collect()
        assert records == 4

    def test_snapshot_for_backup_contains_blocks_and_log(self):
        segment = self._prepared()
        snapshot = segment.snapshot_for_backup()
        assert snapshot["scl"] == 6
        assert snapshot["blocks"][0] == {"k": 6}


class TestScrub:
    @staticmethod
    def _at_floor(*names):
        """Segments holding block 0 at LSNs 1..3 with the read floor at 3:
        the newest version is the one visible at the vote window's floor."""
        segments = []
        for name in names:
            segment = Segment(name, 0)
            fill(segment, 3)
            segment.coalesce()
            segment.advance_gc_floor(3)
            segments.append(segment)
        return segments

    def test_detects_and_repairs_from_peer(self):
        """Scrub finds rot in the version visible at the vote window's
        floor; a peer's floor ballot carries the clean content there."""
        a, b = self._at_floor("a", "b")
        assert a.vote_window() == (3, 3)
        assert a.vote_request_blocks([0]) == ((0, 3, 3, ()),)
        a.blocks[0].corrupt_version()
        assert a.scrub() == [(0, 3)]
        request = a.vote_request_blocks([0])
        assert request == ((0, 3, 3, ((3, 0),)),)
        blocks, records = b.answer_vote(request)
        clean = b.blocks[0].version(3)
        assert blocks == ((0, 3, 3, ((3, clean.checksum, clean.image),)),)
        assert records == ()
        assert a.repair_version(0, 3, blocks[0][3][0][2])
        assert a.scrub() == []
        assert a.blocks[0].latest_image() == {"k": 3}

    def test_floor_ballot_needs_content_at_the_point(self):
        """A copy whose GC floor passed its coalesce point has no content
        at its floor: it neither asks nor answers a floor ballot."""
        a, ahead = self._at_floor("a", "ahead")
        ahead.advance_gc_floor(5)
        for segment in (a, ahead):
            segment.blocks[0].corrupt_version()
        assert ahead.vote_window() == (5, 3)
        assert ahead.vote_request_blocks([0]) == ((0, 5, 3, ()),)
        request = a.vote_request_blocks([0])
        assert request == ((0, 3, 3, ((3, 0),)),)
        blocks, _records = ahead.answer_vote(request)
        assert blocks == ((0, 5, 5, ()),)
        # ...nor does a copy that has not materialized the point yet.
        behind = Segment("behind", 0)
        fill(behind, 3)
        behind.coalesce(upto=2)
        blocks, _records = behind.answer_vote(request)
        assert blocks == ((0, 3, 3, ()),)

    def test_a_corrupt_copy_casts_no_floor_ballot(self):
        a, b = self._at_floor("a", "b")
        for segment in (a, b):
            segment.blocks[0].corrupt_version()
        blocks, _records = b.answer_vote(a.vote_request_blocks([0]))
        assert blocks == ((0, 3, 3, ()),)


class TestHydration:
    def test_tail_hydrates_from_hot_log(self):
        source = Segment("src", 0)
        fill(source, 5)
        fresh = Segment("new", 0, SegmentKind.TAIL)
        copied = fresh.hydrate_from(source)
        assert copied == 5
        assert fresh.scl == 5

    def test_full_hydrates_blocks_past_gc_horizon(self):
        """The repair case of section 4.2: the source already GC'd early
        hot-log records; the baseline comes from materialized blocks."""
        source = Segment("src", 0)
        fill(source, 6)
        source.coalesce()
        source.mark_backed_up(6)
        source.advance_gc_floor(4)
        source.garbage_collect()
        assert source.hot_log_lsns() == (5, 6)

        fresh = Segment("new", 0, SegmentKind.FULL)
        fresh.hydrate_from(source)
        assert fresh.scl == 6
        assert fresh.read_block(0, 6) == {"k": 6}

    def test_hydration_is_incremental(self):
        source = Segment("src", 0)
        fill(source, 3)
        fresh = Segment("new", 0)
        fresh.hydrate_from(source)
        fill(source, 2)  # two more records arrive at the source
        fresh.hydrate_from(source)
        assert fresh.scl == source.scl == 5
