"""Unit tests for the S3 archive, metadata service, and volume geometry."""

import pytest

from repro.core.epochs import EpochStamp
from repro.core.membership import MembershipState
from repro.errors import (
    ConfigurationError,
    MembershipError,
    VolumeGeometryError,
)
from repro.storage.backup import SimulatedS3
from repro.storage.metadata import SegmentPlacement, StorageMetadataService
from repro.storage.segment import SegmentKind
from repro.storage.volume import VolumeGeometry


class TestSimulatedS3:
    def test_put_and_latest(self):
        s3 = SimulatedS3()
        s3.put_snapshot("seg0", 0, scl=5, taken_at=1.0, payload={})
        s3.put_snapshot("seg0", 0, scl=9, taken_at=2.0, payload={})
        latest = s3.latest_snapshot("seg0")
        assert latest.scl == 9
        assert len(s3) == 2

    def test_a_snapshot_at_an_archived_scl_keeps_its_first_time(self):
        """The state at an SCL was restorable from its first snapshot on;
        a later backup tick at the same SCL does not move that later."""
        s3 = SimulatedS3()
        s3.put_snapshot("seg0", 0, scl=5, taken_at=1.0, payload={})
        s3.put_snapshot("seg0", 0, scl=5, taken_at=3.0, payload={})
        assert s3.latest_snapshot("seg0").taken_at == 1.0
        assert len(s3) == 1

    def test_latest_of_unknown_segment(self):
        assert SimulatedS3().latest_snapshot("ghost") is None

    def test_snapshots_for_pg(self):
        s3 = SimulatedS3()
        s3.put_snapshot("a", 0, 1, 0.0, {})
        s3.put_snapshot("b", 1, 1, 0.0, {})
        assert [o.segment_id for o in s3.snapshots_for_pg(0)] == ["a"]

    def test_gc_keeps_latest_n(self):
        s3 = SimulatedS3()
        for scl in range(1, 6):
            s3.put_snapshot("seg0", 0, scl, float(scl), {})
        removed = s3.collect_garbage(keep_latest_per_segment=2)
        assert removed == 3
        remaining = sorted(o.scl for o in s3.objects.values())
        assert remaining == [4, 5]


MEMBERS = [f"m{i}" for i in range(6)]


def service():
    geometry = VolumeGeometry(blocks_per_pg=10, pg_count=2)
    metadata = StorageMetadataService(geometry)
    metadata.set_membership(0, MembershipState.initial(MEMBERS))
    for i, member in enumerate(MEMBERS):
        metadata.place_segment(
            SegmentPlacement(
                member, 0, member, f"az{i % 3 + 1}",
                SegmentKind.FULL if i % 2 == 0 else SegmentKind.TAIL,
            )
        )
    return metadata


class TestMetadataService:
    def test_membership_round_trip(self):
        metadata = service()
        assert metadata.membership(0).members == frozenset(MEMBERS)
        assert metadata.pg_indexes() == [0]

    def test_membership_epoch_must_advance(self):
        metadata = service()
        with pytest.raises(MembershipError):
            metadata.set_membership(0, MembershipState.initial(MEMBERS))

    def test_unknown_pg_rejected(self):
        with pytest.raises(ConfigurationError):
            service().membership(9)

    def test_epochs_monotonic_per_component(self):
        metadata = service()
        metadata.record_epochs(EpochStamp(volume=3))
        metadata.record_epochs(EpochStamp(membership=2))
        assert metadata.epochs.volume == 3
        assert metadata.epochs.membership == 2

    def test_placement_queries(self):
        metadata = service()
        assert metadata.placement("m0").az == "az1"
        assert len(metadata.segments_of_pg(0)) == 6
        fulls = metadata.full_segments_of_pg(0)
        assert [p.segment_id for p in fulls] == ["m0", "m2", "m4"]

    def test_peers_of(self):
        metadata = service()
        peers = metadata.peers_of("m0")
        assert "m0" not in peers
        assert len(peers) == 5

    def test_quorum_config_tracks_membership(self):
        metadata = service()
        config = metadata.quorum_config(0)
        assert config.write_satisfied(set(MEMBERS[:4]))


class TestVolumeGeometry:
    def test_block_routing(self):
        geometry = VolumeGeometry(blocks_per_pg=10, pg_count=3)
        assert geometry.pg_of_block(0) == 0
        assert geometry.pg_of_block(9) == 0
        assert geometry.pg_of_block(10) == 1
        assert geometry.pg_of_block(29) == 2
        assert geometry.total_blocks == 30

    def test_out_of_range_block_rejected(self):
        geometry = VolumeGeometry(blocks_per_pg=10, pg_count=1)
        with pytest.raises(VolumeGeometryError):
            geometry.pg_of_block(10)
        with pytest.raises(VolumeGeometryError):
            geometry.pg_of_block(-1)

    def test_blocks_of_pg(self):
        geometry = VolumeGeometry(blocks_per_pg=5, pg_count=2)
        assert list(geometry.blocks_of_pg(1)) == [5, 6, 7, 8, 9]
        with pytest.raises(VolumeGeometryError):
            geometry.blocks_of_pg(2)

    def test_grow_bumps_geometry_epoch(self):
        geometry = VolumeGeometry(blocks_per_pg=10, pg_count=1)
        epoch = geometry.grow(2)
        assert epoch == 2
        assert geometry.pg_count == 3
        assert geometry.growth_log == [(2, 3)]
        geometry.pg_of_block(25)  # now addressable

    def test_segment_count(self):
        geometry = VolumeGeometry(blocks_per_pg=10, pg_count=4)
        assert geometry.segment_count() == 24

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            VolumeGeometry(blocks_per_pg=0, pg_count=1)
        with pytest.raises(ConfigurationError):
            VolumeGeometry(blocks_per_pg=1, pg_count=1).grow(0)
