"""Integration tests for the full/tail segment mix (section 4.2)."""

import pytest

from repro import AuroraCluster
from repro.db.session import Session
from repro.storage.segment import SegmentKind


class TestFullTailCluster:
    def test_layout_is_three_full_three_tail_one_full_per_az(
        self, full_tail_cluster
    ):
        cluster = full_tail_cluster
        placements = cluster.metadata.segments_of_pg(0)
        fulls = [p for p in placements if p.kind is SegmentKind.FULL]
        tails = [p for p in placements if p.kind is SegmentKind.TAIL]
        assert len(fulls) == 3 and len(tails) == 3
        assert {p.az for p in fulls} == {"az1", "az2", "az3"}

    def test_basic_traffic_works(self, full_tail_cluster):
        db = full_tail_cluster.session()
        db.write_many({f"k{i}": i for i in range(20)})
        for i in range(20):
            assert db.get(f"k{i}") == i

    def test_tail_segments_store_log_but_no_blocks(self, full_tail_cluster):
        cluster = full_tail_cluster
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(10)})
        cluster.run_for(100)
        for node in cluster.nodes.values():
            segment = node.segment
            assert segment.hot_log_size > 0 or segment.gc_horizon > 0
            if segment.kind is SegmentKind.TAIL:
                assert segment.blocks == {}

    def test_reads_only_route_to_full_segments(self):
        cluster = AuroraCluster.build(
            seed=56, full_tail=True, cache_capacity=8
        )
        db = cluster.session()
        for i in range(120):
            db.write(f"key{i:03d}", i)
        cluster.run_for(50)
        for i in range(0, 120, 6):
            assert db.get(f"key{i:03d}") == i
        full_ids = {
            p.segment_id for p in cluster.metadata.full_segments_of_pg(0)
        }
        for node in cluster.nodes.values():
            if node.name not in full_ids:
                assert node.counters["reads_answered"] == 0

    def test_crash_recovery_on_full_tail(self, full_tail_cluster):
        cluster = full_tail_cluster
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(15)})
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        for i in range(15):
            assert db.get(f"k{i}") == i

    def test_commit_via_three_full_segments_alone(self):
        """Write quorum '4/6 OR 3/3 full': with all three tails dead,
        commits still complete through the full segments."""
        cluster = AuroraCluster.build(seed=57, full_tail=True)
        # Tails are slots 1, 3, 5 -> pg0-b, pg0-d, pg0-f.
        for name in ("pg0-b", "pg0-d", "pg0-f"):
            assert cluster.metadata.placement(name).kind is SegmentKind.TAIL
            cluster.failures.crash_node(name)
        db = cluster.session()
        db.write("survives", 1)
        assert db.get("survives") == 1

    def test_four_any_segments_also_commit(self):
        """The '4/6 of any segment' arm: one full + three tails + ...
        kill two fulls, four survivors include only one full."""
        cluster = AuroraCluster.build(seed=58, full_tail=True)
        for name in ("pg0-c", "pg0-e"):  # two fulls (slots 2, 4)
            assert cluster.metadata.placement(name).kind is SegmentKind.FULL
            cluster.failures.crash_node(name)
        db = cluster.session()
        db.write("still-writable", 1)
        assert db.get("still-writable") == 1

    def test_transitions_are_proved_against_the_installed_quorum_set(
        self, full_tail_cluster
    ):
        """The config a membership transition is proved against is the
        one the data plane runs on: 4/6 any OR 3/3 full to write."""
        metadata = full_tail_cluster.metadata
        proved = metadata.membership_config_of(0, metadata.membership(0))
        installed = metadata.quorum_config(0)
        assert repr(proved.write_expr) == repr(installed.write_expr)
        assert repr(proved.read_expr) == repr(installed.read_expr)
        assert " OR 3/3(" in repr(installed.write_expr)

    @pytest.mark.parametrize("slot", range(6))
    def test_replacing_any_slot_keeps_the_quorum_set_and_the_data(self, slot):
        """Figure 5 on each of the six slots: the candidate inherits its
        slot's kind, the finalized membership installs the full/tail
        quorum set again, and every row reads back from storage after a
        writer crash."""
        cluster = AuroraCluster.build(seed=60 + slot, full_tail=True)
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(12)})
        victim = cluster.segment_name(0, slot)
        kind = cluster.metadata.placement(victim).kind
        cluster.failures.crash_node(victim)
        candidate = db.drive(cluster.replace_segment(0, victim))
        metadata = cluster.metadata
        assert metadata.placement(candidate).kind is kind
        assert metadata.membership(0).is_stable
        assert " OR 3/3(" in repr(metadata.quorum_config(0).write_expr)
        db.write("after", 12)
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        for i in range(12):
            assert db.get(f"k{i}") == i
        assert db.get("after") == 12

    def test_az_failure_tolerated(self):
        cluster = AuroraCluster.build(seed=59, full_tail=True)
        db = cluster.session()
        db.write("pre", 0)
        cluster.failures.crash_az("az2")
        db.write("during", 1)
        assert db.get("during") == 1
        assert db.get("pre") == 0
