"""Integration tests for storage-node actors on the simulated network."""

from repro.core.epochs import EpochStamp
from repro.core.lsn import TruncationRange
from repro.core.records import EMPTY_IMAGE
from repro.storage.messages import (
    BaselineRequest,
    BaselineResponse,
    EpochWrite,
    EpochWriteAck,
    GCFloorUpdate,
    GossipQuery,
    GossipResponse,
    ReadBlockRequest,
    ReadBlockResponse,
    RecoveryScanRequest,
    RecoveryScanResponse,
    RequestRejected,
    TruncateRequest,
)

from .conftest import batch, build_fleet, make_record


class TestWritePath:
    def test_write_batch_acked_with_scl(self):
        loop, network, _m, nodes, instance = build_fleet()
        network.send("db", "seg0", batch([make_record(1, 0), make_record(2, 1)]))
        loop.run()
        assert len(instance.acks) == 1
        ack = instance.acks[0]
        assert ack.segment_id == "seg0"
        assert ack.scl == 2

    def test_ack_carries_gapped_scl(self):
        loop, network, _m, nodes, instance = build_fleet()
        network.send("db", "seg0", batch([make_record(3, 2)]))  # hole at 1-2
        loop.run()
        assert instance.acks[0].scl == 0

    def test_stale_epoch_write_rejected(self):
        loop, network, _m, nodes, instance = build_fleet()
        nodes["seg0"].epochs.advance(EpochStamp(volume=3))
        network.send("db", "seg0", batch([make_record(1, 0)]))
        loop.run()
        assert instance.acks == []
        assert len(instance.rejections) == 1
        assert instance.rejections[0].current_epochs.volume == 3
        assert nodes["seg0"].segment.hot_log_size == 0

    def test_newer_epoch_teaches_the_node(self):
        loop, network, _m, nodes, instance = build_fleet()
        network.send(
            "db", "seg0",
            batch([make_record(1, 0)], epochs=EpochStamp(volume=5)),
        )
        loop.run()
        assert nodes["seg0"].epochs.current.volume == 5
        assert len(instance.acks) == 1

    def test_pgmrpl_piggyback_advances_gc_floor(self):
        loop, network, _m, nodes, _i = build_fleet()
        network.send("db", "seg0", batch([make_record(1, 0)], pgmrpl=1))
        loop.run()
        assert nodes["seg0"].segment.gc_floor == 1

    def test_gc_floor_is_min_across_instances(self):
        loop, network, _m, nodes, _i = build_fleet()
        node = nodes["seg0"]
        stamp = EpochStamp()
        network.send("db", "seg0",
                     GCFloorUpdate("inst-a", 0, 10, stamp))
        loop.run()
        assert node.segment.gc_floor == 10
        network.send("db", "seg0",
                     GCFloorUpdate("inst-b", 0, 4, stamp))
        loop.run()
        assert node.segment.gc_floor == 10  # monotonic; min governs future
        node.forget_instance("inst-b")

    def test_forgetting_the_lowest_instance_releases_the_floor(self):
        loop, network, _m, nodes, _i = build_fleet()
        node = nodes["seg0"]
        stamp = EpochStamp()
        for instance_id, pgmrpl in (("inst-a", 3), ("inst-b", 9)):
            network.send("db", "seg0",
                         GCFloorUpdate(instance_id, 0, pgmrpl, stamp))
        loop.run()
        assert node.segment.gc_floor == 3
        node.forget_instance("inst-a")
        assert node.segment.gc_floor == 9
        node.forget_instance("inst-b")  # nobody left: the floor stays
        node.forget_instance("never-seen")
        assert node.segment.gc_floor == 9

    def test_an_unchanged_read_floor_recomputes_nothing(self):
        loop, network, _m, nodes, _i = build_fleet()
        node = nodes["seg0"]
        advances = []
        advance = node.segment.advance_gc_floor
        node.segment.advance_gc_floor = lambda floor: (
            advances.append(floor), advance(floor)
        )
        stamp = EpochStamp()
        for pgmrpl in (0, 5, 5, 4, 5, 7):
            network.send("db", "seg0",
                         GCFloorUpdate("inst-a", 0, pgmrpl, stamp))
        loop.run()
        assert advances == [5, 7]
        assert node.segment.gc_floor == 7
        assert node._instance_read_floors == {"inst-a": 7}


class TestReadPath:
    def _written_fleet(self):
        loop, network, m, nodes, instance = build_fleet()
        records = [make_record(1, 0), make_record(2, 1)]
        network.send("db", "seg0", batch(records))
        loop.run()
        return loop, network, nodes, instance

    def test_read_block_round_trip(self):
        loop, network, nodes, _i = self._written_fleet()
        future = network.rpc(
            "db", "seg0",
            ReadBlockRequest(pg_index=0, block=0, read_point=2,
                             epochs=EpochStamp()),
        )
        loop.run()
        response = future.result()
        assert isinstance(response, ReadBlockResponse)
        assert response.image == {"k": 2}
        assert response.version_lsn == 2
        # The reply carries the chain's image object, not a copy of it.
        assert response.image is nodes["seg0"].segment.blocks[0].latest_image()

    def test_a_never_written_block_reads_as_the_shared_empty_image(self):
        loop, network, nodes, _i = self._written_fleet()
        future = network.rpc(
            "db", "seg0",
            ReadBlockRequest(pg_index=0, block=7, read_point=2,
                             epochs=EpochStamp()),
        )
        loop.run()
        response = future.result()
        assert response.image is EMPTY_IMAGE
        assert response.version_lsn == 0

    def test_read_outside_window_rejected(self):
        loop, network, nodes, _i = self._written_fleet()
        future = network.rpc(
            "db", "seg0",
            ReadBlockRequest(pg_index=0, block=0, read_point=9,
                             epochs=EpochStamp()),
        )
        loop.run()
        assert isinstance(future.result(), RequestRejected)


class TestGossip:
    def test_gossip_query_returns_missing_records(self):
        loop, network, _m, nodes, _i = build_fleet()
        network.send("db", "seg0",
                     batch([make_record(1, 0), make_record(2, 1)]))
        loop.run()
        future = network.rpc(
            "db", "seg0",
            GossipQuery(from_segment="seg1", pg_index=0, scl=0,
                        epochs=EpochStamp()),
        )
        loop.run()
        response = future.result()
        assert isinstance(response, GossipResponse)
        assert [r.lsn for r in response.records] == [1, 2]

    def test_background_gossip_heals_a_lagging_node(self):
        loop, network, _m, nodes, _i = build_fleet(background=True)
        # seg5 misses the writes (down), others receive them.
        network.fail_node("seg5")
        records = [make_record(i, i - 1) for i in range(1, 6)]
        for name in list(nodes)[:5]:
            network.send("db", name, batch(records))
        loop.run(until=50.0)
        network.restore_node("seg5")
        loop.run(until=600.0)
        assert nodes["seg5"].segment.scl == 5
        assert nodes["seg5"].counters["gossip_records_pulled"] >= 5


class TestControlPlane:
    def test_recovery_scan_returns_digests(self):
        loop, network, _m, nodes, _i = build_fleet()
        network.send("db", "seg0",
                     batch([make_record(1, 0), make_record(2, 1)]))
        loop.run()
        future = network.rpc(
            "db", "seg0",
            RecoveryScanRequest(pg_index=0, epochs=EpochStamp()),
        )
        loop.run()
        response = future.result()
        assert isinstance(response, RecoveryScanResponse)
        assert response.scl == 2
        assert [d.lsn for d in response.digests] == [1, 2]

    def test_truncate_installs_epoch_and_clamps(self):
        loop, network, _m, nodes, _i = build_fleet()
        network.send("db", "seg0",
                     batch([make_record(1, 0), make_record(2, 1),
                            make_record(3, 2)]))
        loop.run()
        future = network.rpc(
            "db", "seg0",
            TruncateRequest(
                pg_index=0, pg_point=2,
                truncation=TruncationRange(first=3, last=50),
                new_epochs=EpochStamp(volume=2),
            ),
        )
        loop.run()
        ack = future.result()
        assert ack.scl == 2
        assert nodes["seg0"].epochs.current.volume == 2
        # Old-epoch writers are now boxed out.
        network.send("db", "seg0", batch([make_record(51, 2)]))
        loop.run()
        assert nodes["seg0"].segment.scl == 2

    def test_epoch_write_round_trip(self):
        loop, network, _m, nodes, _i = build_fleet()
        future = network.rpc(
            "db", "seg0",
            EpochWrite(pg_index=0, epochs=EpochStamp(),
                       new_epochs=EpochStamp(membership=2)),
        )
        loop.run()
        ack = future.result()
        assert isinstance(ack, EpochWriteAck)
        assert ack.epochs.membership == 2

    def test_baseline_request_for_hydration(self):
        loop, network, _m, nodes, _i = build_fleet()
        network.send("db", "seg0",
                     batch([make_record(1, 0), make_record(2, 1)]))
        loop.run()
        future = network.rpc(
            "db", "seg0",
            BaselineRequest(from_segment="fresh", pg_index=0,
                            epochs=EpochStamp()),
        )
        loop.run()
        response = future.result()
        assert isinstance(response, BaselineResponse)
        assert response.scl == 2
        assert len(response.records) == 2
        block, version_lsn, image = response.blocks[0]
        assert (block, version_lsn) == (0, 2)
        donor = nodes["seg0"].segment.blocks[0]
        assert image is donor.latest_image()
        # A hydrated copy holds the donor's object too.
        fresh = nodes["seg1"]
        fresh.apply_baseline(response)
        assert fresh.segment.blocks[0].latest_image() is donor.latest_image()


class TestBackgroundMaintenance:
    def test_backup_and_gc_ticks(self):
        loop, network, _m, nodes, _i = build_fleet(background=True)
        records = [make_record(i, i - 1) for i in range(1, 4)]
        for name in nodes:
            network.send("db", name, batch(records, pgmrpl=3))
        loop.run(until=2_000.0)
        node = nodes["seg0"]
        assert node.counters["backups_taken"] >= 1
        assert node.segment.backed_up_upto == 3
        assert node.counters["gc_runs"] >= 1
        assert node.segment.hot_log_size == 0  # fully GC'd

    def test_ticks_rearm_while_down_and_resume_after_restore(self):
        """Five periodic timers per node, each re-armed forever through one
        bound method: a crashed node skips the work but keeps the timers,
        so it ticks again as soon as it is restored."""
        loop, network, _m, nodes, _i = build_fleet(background=True)
        node = nodes["seg0"]
        assert loop.pending == 5 * len(nodes)
        loop.run(until=1_000.0)
        ran = node.counters["gc_runs"]
        assert ran >= 3
        network.fail_node("seg0")
        loop.run(until=2_000.0)
        assert node.counters["gc_runs"] == ran
        network.restore_node("seg0")
        loop.run(until=3_000.0)
        assert node.counters["gc_runs"] >= ran + 3

    def test_scrub_vote_repairs_injected_corruption(self):
        loop, network, _m, nodes, _i = build_fleet(background=True)
        records = [make_record(i, i - 1) for i in range(1, 4)]
        for name in nodes:
            network.send("db", name, batch(records))
        loop.run(until=100.0)
        node = nodes["seg0"]
        node.segment.coalesce()
        node.segment.blocks[0].corrupt_version()
        loop.run(until=6_000.0)
        assert node.counters["vote_repairs"] >= 1
        assert node.segment.scrub() == []
        # The repaired version is a voter's image object, not a rebuilt one.
        repaired = node.segment.blocks[0].latest_image()
        assert any(
            repaired is peer.segment.blocks[0].latest_image()
            for name, peer in nodes.items()
            if name != "seg0"
        )
