"""Boxcar write batching: protocol-level edge cases.

The driver coalesces consecutive redo records per protection group into
single WriteBatch messages under the paper's boxcar strategy (section
2.2).  Batching must never weaken the protocol: partial quorums under a
segment crash, whole-boxcar resubmission after an epoch rejection, and
the time-bound flush on an idle driver all have to behave exactly as the
unbatched path would.
"""

from repro import AuroraCluster
from repro.db.driver import SUBMIT_DELAY_MS, BoxcarMode


def burst(db, cluster, count, prefix="k"):
    """Enqueue `count` concurrent commits so records share boxcars."""
    futures = []
    for i in range(count):
        txn = db.begin()
        db.put(txn, f"{prefix}{i:03d}", i)
        futures.append(db.commit_async(txn))
    for future in futures:
        db.drive(future)


class TestBoxcarsFill:
    def test_concurrent_commits_share_write_batches(self, cluster):
        db = cluster.session()
        burst(db, cluster, 24)
        by_type = cluster.network.stats.by_type
        batches = by_type["WriteBatch"]
        records = by_type["WriteBatch.records"]
        # More than one record per batch on average: boxcars filled.
        assert records > batches
        # The wire count matches the driver's own bookkeeping.
        assert batches == cluster.writer.driver.stats.batches_sent
        assert records == cluster.writer.driver.stats.records_sent


class TestPartialBatchAckUnderCrash:
    def test_commits_complete_on_4_of_6_with_boxcars_in_flight(
        self, cluster
    ):
        db = cluster.session()
        db.write("seed", 0)
        # Two members die with boxcars about to be in flight: their
        # batch copies are never acked, yet every commit reaches 4/6.
        cluster.failures.crash_node("pg0-e")
        cluster.failures.crash_node("pg0-f")
        burst(db, cluster, 16)
        assert all(db.get(f"k{i:03d}") == i for i in range(16))
        tracker = cluster.writer.driver.pg_trackers[0]
        scls = tracker.member_scls
        # The dead members' SCLs froze behind the survivors'.
        live_floor = min(
            scl for m, scl in scls.items() if m not in ("pg0-e", "pg0-f")
        )
        assert scls["pg0-e"] < live_floor or scls["pg0-e"] == 0
        # Restored members catch up from peer gossip, not the driver.
        cluster.failures.restore_node("pg0-e")
        cluster.failures.restore_node("pg0-f")
        cluster.run_for(400.0)
        assert len(set(cluster.segment_scls(0).values())) == 1


class TestEpochRejectedBoxcarResubmission:
    def test_whole_boxcar_resubmitted_across_membership_change(
        self, cluster
    ):
        db = cluster.session()
        db.write("seed", 0)
        # A membership change this writer has not heard about yet: every
        # storage node adopts the next membership epoch, so the writer's
        # next boxcars are rejected wholesale.
        for node in cluster.nodes.values():
            node.epochs.advance(node.epochs.current.bump_membership())
        driver = cluster.writer.driver
        before = driver.stats.batches_resubmitted
        burst(db, cluster, 12, prefix="after")
        cluster.run_for(200.0)
        assert driver.stats.rejections_seen >= 1
        assert driver.stats.batches_resubmitted > before
        # Resubmission preserved the batch: multi-record boxcars were
        # retried as units, and no record was lost or duplicated.
        assert all(db.get(f"after{i:03d}") == i for i in range(12))
        assert driver.epochs.membership == next(
            iter(cluster.nodes.values())
        ).epochs.current.membership


class TestTimeBoundFlushOnIdleDriver:
    def test_timeout_mode_flushes_a_lone_record_at_the_bound(self):
        cluster = AuroraCluster.build(
            seed=71, boxcar_mode=BoxcarMode.TIMEOUT, boxcar_timeout=6.0
        )
        db = cluster.session()
        sent_before = cluster.writer.driver.stats.batches_sent
        txn = db.begin()
        db.put(txn, "lonely", 1)
        future = db.commit_async(txn)
        # Idle driver, nothing else arriving: the record waits out the
        # full boxcar window...
        cluster.run_for(5.0)
        assert cluster.writer.driver.stats.batches_sent == sent_before
        assert not future.done
        # ...and the time bound (not another record) flushes it.
        cluster.run_for(30.0)
        assert cluster.writer.driver.stats.batches_sent > sent_before
        db.drive(future)
        assert db.get("lonely") == 1

    def test_aurora_mode_bounds_the_wait_by_submit_delay(self):
        cluster = AuroraCluster.build(seed=72)
        assert cluster.config.instance.driver.boxcar_mode is BoxcarMode.AURORA
        db = cluster.session()
        db.write("lonely", 1)
        delays = cluster.writer.driver.stats.boxcar_delays
        assert delays
        # No record ever waits past the submit window (+ float slack).
        assert max(delays) <= SUBMIT_DELAY_MS + 1e-9

    def test_max_records_cap_flushes_before_the_window(self, cluster):
        db = cluster.session()
        cap = cluster.config.instance.driver.boxcar_max_records
        burst(db, cluster, 3 * cap)
        records = cluster.network.stats.by_type["WriteBatch.records"]
        batches = cluster.network.stats.by_type["WriteBatch"]
        # No batch exceeded the cap even though arrivals outpaced it.
        assert records / batches <= cap


# ----------------------------------------------------------------------
# Compressed wire format (repro.db.wire): the protocol edge cases above
# must hold when batches ship with delta-encoded LSNs and superseded
# same-transaction payloads elided.
# ----------------------------------------------------------------------
from repro.core.records import (
    BlockPut,
    BlockReplace,
    CommitPayload,
    ElidedPayload,
    LogRecord,
    NO_BLOCK,
    RecordKind,
)
from repro.db.wire import (
    batch_logical_bytes,
    batch_wire_bytes,
    elide_superseded,
)


def _rec(lsn, block=1, txn=7, kind=RecordKind.DATA, payload=None):
    if payload is None:
        payload = BlockPut(entries=((f"k{lsn}", lsn),))
    return LogRecord(
        lsn=lsn,
        prev_volume_lsn=lsn - 1,
        prev_pg_lsn=lsn - 1,
        prev_block_lsn=max(lsn - 1, 0),
        block=block,
        pg_index=0,
        kind=kind,
        payload=payload,
        txn_id=txn,
    )


class TestElideSuperseded:
    def test_same_txn_same_key_overwrite_is_elided(self):
        first = _rec(10, payload=BlockPut(entries=(("row", 1),)))
        second = _rec(11, payload=BlockPut(entries=(("row", 2),)))
        out, elided = elide_superseded((first, second))
        assert elided == 1
        assert isinstance(out[0].payload, ElidedPayload)
        assert out[0].payload.covered_by == 11
        # Everything but the payload is untouched: chains, LSN, txn.
        assert out[0].lsn == 10 and out[0].prev_pg_lsn == 9
        assert out[1] is second

    def test_block_replace_covers_all_prior_keys(self):
        first = _rec(10, payload=BlockPut(entries=(("a", 1), ("b", 2))))
        second = _rec(11, payload=BlockReplace.of({"c": 3}))
        out, elided = elide_superseded((first, second))
        assert elided == 1
        assert isinstance(out[0].payload, ElidedPayload)

    def test_cross_txn_overwrite_is_never_elided(self):
        first = _rec(10, txn=7, payload=BlockPut(entries=(("row", 1),)))
        second = _rec(11, txn=8, payload=BlockPut(entries=(("row", 2),)))
        out, elided = elide_superseded((first, second))
        assert elided == 0
        assert out == (first, second)

    def test_partial_coverage_keeps_the_record(self):
        first = _rec(10, payload=BlockPut(entries=(("a", 1), ("b", 2))))
        second = _rec(11, payload=BlockPut(entries=(("a", 9),)))  # no "b"
        _out, elided = elide_superseded((first, second))
        assert elided == 0

    def test_commit_and_control_records_are_never_elided(self):
        data = _rec(10, payload=BlockPut(entries=(("row", 1),)))
        commit = _rec(
            11, block=NO_BLOCK, kind=RecordKind.COMMIT,
            payload=CommitPayload(txn_id=7, scn=11),
        )
        covering = _rec(12, payload=BlockPut(entries=(("row", 2),)))
        out, elided = elide_superseded((data, commit, covering))
        assert elided == 1  # only the superseded DATA record
        assert out[1] is commit

    def test_different_blocks_do_not_cover_each_other(self):
        first = _rec(10, block=1, payload=BlockPut(entries=(("row", 1),)))
        second = _rec(11, block=2, payload=BlockPut(entries=(("row", 2),)))
        _out, elided = elide_superseded((first, second))
        assert elided == 0

    def test_wire_bytes_shrink_and_logical_bytes_do_not(self):
        records = tuple(
            _rec(lsn, payload=BlockPut(entries=(("row", lsn),)))
            for lsn in range(10, 18)
        )
        logical = batch_logical_bytes(records)
        compressed, elided = elide_superseded(records)
        assert elided == len(records) - 1
        wire = batch_wire_bytes(compressed)
        assert wire < logical
        # Consecutive LSNs delta-encode even without elision.
        assert batch_wire_bytes(records) < logical


class TestPayloadSizeMemo:
    """A payload's value tree is walked once per payload object: a flush
    sizes each record for the logical total and again for the wire total,
    and a resubmitted boxcar would size it a third time."""

    def _counted(self, monkeypatch):
        from repro.db import wire

        walks = []
        value_bytes = wire.value_bytes

        def counting(value):
            walks.append(value)
            return value_bytes(value)

        monkeypatch.setattr(wire, "value_bytes", counting)
        return walks

    def test_second_and_later_passes_walk_nothing(self, monkeypatch):
        walks = self._counted(monkeypatch)
        chain = tuple((scn, f"v{scn}") for scn in range(40))
        records = tuple(
            _rec(lsn, payload=BlockPut(entries=((("k", lsn), chain),)))
            for lsn in range(10, 16)
        )
        logical = batch_logical_bytes(records)
        first_pass = len(walks)
        assert first_pass > 6 * 40
        wire_bytes = batch_wire_bytes(records)
        assert batch_logical_bytes(records) == logical
        assert batch_wire_bytes(records) == wire_bytes
        assert len(walks) == first_pass

    def test_a_replaced_payload_is_sized_afresh(self, monkeypatch):
        from dataclasses import replace

        from repro.db.wire import payload_bytes

        payload = BlockPut(entries=(("row", "abc"),))
        size = payload_bytes(payload)
        walks = self._counted(monkeypatch)
        longer = replace(payload, entries=(("row", "abcdefgh"),))
        assert payload_bytes(longer) == size + 5
        assert walks  # the copy did not inherit the memo
        assert payload_bytes(payload) == size


class TestCompressedWireEndToEnd:
    def multi_write_burst(self, db, count, writes_per_txn=3):
        """Transactions that overwrite their own row: elision fodder."""
        futures = []
        for i in range(count):
            txn = db.begin()
            for v in range(writes_per_txn):
                db.put(txn, f"k{i:03d}", v)
            futures.append(db.commit_async(txn))
        for future in futures:
            db.drive(future)

    def test_elision_fires_and_reads_stay_correct(self):
        cluster = AuroraCluster.build(seed=73)
        assert cluster.config.instance.driver.wire_compression
        db = cluster.session()
        self.multi_write_burst(db, 12)
        stats = cluster.writer.driver.stats
        assert stats.records_elided > 0
        assert 0 < stats.wire_bytes < stats.logical_bytes
        # The final value of every self-overwriting txn is what reads see.
        assert all(db.get(f"k{i:03d}") == 2 for i in range(12))

    def test_epoch_rejected_compressed_boxcars_resubmit_whole(self):
        cluster = AuroraCluster.build(seed=74)
        db = cluster.session()
        db.write("seed", 0)
        for node in cluster.nodes.values():
            node.epochs.advance(node.epochs.current.bump_membership())
        driver = cluster.writer.driver
        before = driver.stats.batches_resubmitted
        self.multi_write_burst(db, 10)
        cluster.run_for(200.0)
        assert driver.stats.rejections_seen >= 1
        assert driver.stats.batches_resubmitted > before
        assert driver.stats.records_elided > 0
        # Resubmission reships the *retained elided* batch as a unit and
        # storage converges on it: no record lost, no divergent segment.
        assert all(db.get(f"k{i:03d}") == 2 for i in range(10))
        cluster.run_for(400.0)
        assert len(set(cluster.segment_scls(0).values())) == 1

    def test_partial_batch_acks_under_crash_with_elision(self):
        cluster = AuroraCluster.build(seed=75)
        db = cluster.session()
        db.write("seed", 0)
        cluster.failures.crash_node("pg0-e")
        cluster.failures.crash_node("pg0-f")
        self.multi_write_burst(db, 8)
        driver = cluster.writer.driver
        assert driver.stats.records_elided > 0
        # 4/6 quorum carried every commit despite two unacked copies of
        # each compressed boxcar.
        assert all(db.get(f"k{i:03d}") == 2 for i in range(8))
        cluster.failures.restore_node("pg0-e")
        cluster.failures.restore_node("pg0-f")
        cluster.run_for(400.0)
        # Gossip refills the restored members from the elided hot log and
        # all six segments converge to one SCL.
        assert len(set(cluster.segment_scls(0).values())) == 1
