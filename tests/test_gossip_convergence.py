"""Property tests for gossip convergence (DESIGN.md invariant:
"after quiescence all live segments in a PG have equal SCL").
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.epochs import EpochStamp
from repro.core.membership import MembershipState
from repro.core.records import BlockPut, LogRecord, RecordKind
from repro.sim.events import EventLoop
from repro.sim.latency import FixedLatency
from repro.sim.network import Network
from repro.storage.backup import SimulatedS3
from repro.storage.messages import WriteBatch
from repro.storage.metadata import SegmentPlacement, StorageMetadataService
from repro.storage.node import StorageNode, StorageNodeConfig
from repro.storage.segment import Segment, SegmentKind
from repro.storage.volume import VolumeGeometry


def build_fleet(seed):
    loop = EventLoop()
    rng = random.Random(seed)
    network = Network(
        loop, rng, intra_az=FixedLatency(0.2), cross_az=FixedLatency(0.7)
    )
    metadata = StorageMetadataService(
        VolumeGeometry(blocks_per_pg=32, pg_count=1)
    )
    names = [f"seg{i}" for i in range(6)]
    metadata.set_membership(0, MembershipState.initial(names))
    nodes = {}
    config = StorageNodeConfig(
        disk=FixedLatency(0.05),
        gossip_interval=10.0,
        backup_interval=10_000.0,   # keep backups/GC out of the way
        gc_interval=10_000.0,
        scrub_interval=10_000.0,
    )
    for i, name in enumerate(names):
        segment = Segment(name, 0)
        node = StorageNode(segment, metadata, SimulatedS3(), rng, config)
        network.attach(node, az=f"az{i % 3 + 1}")
        metadata.place_segment(
            SegmentPlacement(name, 0, name, f"az{i % 3 + 1}",
                             SegmentKind.FULL)
        )
        nodes[name] = node
    for node in nodes.values():
        node.start()

    from repro.sim.network import Actor

    class _Sink(Actor):
        def on_message(self, message):
            pass

    network.attach(_Sink("db"), az="az1")  # ack sink for WriteBatches
    return loop, network, nodes, names


def make_records(count):
    records = []
    prev = 0
    for lsn in range(1, count + 1):
        records.append(
            LogRecord(
                lsn=lsn, prev_volume_lsn=lsn - 1, prev_pg_lsn=prev,
                prev_block_lsn=0, block=lsn % 4, pg_index=0,
                kind=RecordKind.DATA,
                payload=BlockPut(entries=(("k", lsn),)),
            )
        )
        prev = lsn
    return records


class TestGossipConvergence:
    @given(
        seed=st.integers(0, 10_000),
        record_count=st.integers(1, 25),
        delivery_bits=st.integers(0, 2**30 - 1),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_partial_delivery_converges(
        self, seed, record_count, delivery_bits
    ):
        """Deliver each record to an arbitrary nonempty subset of segments;
        after quiescence, every segment's SCL equals the maximum."""
        loop, network, nodes, names = build_fleet(seed)
        records = make_records(record_count)
        for i, record in enumerate(records):
            subset_bits = (delivery_bits >> (i % 25)) & 0x3F
            subset = [
                names[j] for j in range(6) if subset_bits >> j & 1
            ] or [names[i % 6]]
            for name in subset:
                network.send(
                    "db",
                    name,
                    WriteBatch(
                        instance_id="db", pg_index=0,
                        records=(record,), epochs=EpochStamp(), pgmrpl=0,
                    ),
                )
        # At least one segment got record N only if some subset included
        # it; every record went SOMEWHERE, so the union is complete and
        # gossip must spread it everywhere.
        loop.run(until=3_000.0)
        scls = {name: nodes[name].segment.scl for name in names}
        assert len(set(scls.values())) == 1, scls
        assert max(scls.values()) == record_count

    def test_two_isolated_halves_converge_after_heal(self):
        loop, network, nodes, names = build_fleet(99)
        left, right = set(names[:3]), set(names[3:])
        network.partition(left, right)
        records = make_records(10)
        # Odd records to the left half, even to the right.
        for i, record in enumerate(records):
            targets = names[:3] if i % 2 else names[3:]
            for name in targets:
                network.send(
                    "db", name,
                    WriteBatch(
                        instance_id="db", pg_index=0,
                        records=(record,), epochs=EpochStamp(), pgmrpl=0,
                    ),
                )
        loop.run(until=500.0)
        # Halves are internally consistent but globally incomplete.
        assert all(nodes[n].segment.scl < 10 for n in names)
        network.heal_all_partitions()
        loop.run(until=3_000.0)
        assert {nodes[n].segment.scl for n in names} == {10}

    def test_gossip_is_epoch_fenced(self):
        """A segment at a newer epoch refuses gossip from a stale peer --
        but the stale peer LEARNS the epoch from the rejection's reply and
        can then participate again."""
        loop, network, nodes, names = build_fleet(7)
        nodes["seg0"].epochs.advance(EpochStamp(volume=5))
        records = make_records(3)
        for record in records:
            network.send(
                "db", "seg0",
                WriteBatch(
                    instance_id="db", pg_index=0, records=(record,),
                    epochs=EpochStamp(volume=5), pgmrpl=0,
                ),
            )
        loop.run(until=3_000.0)
        # Every node ends at the new epoch (learned through gossip).
        assert all(
            nodes[n].epochs.current.volume == 5 for n in names
        )
        assert {nodes[n].segment.scl for n in names} == {3}
