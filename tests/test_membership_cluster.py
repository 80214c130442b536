"""Integration tests for live membership changes (section 4, Figure 5)."""

import pytest

from repro import AuroraCluster
from repro.errors import MembershipError

from .conftest import pump_until


class TestFigure5Flow:
    def test_full_replacement_under_load(self, cluster):
        """Epoch 1 -> 2 -> 3 with writes flowing the whole time."""
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(20)})
        cluster.failures.crash_node("pg0-f")

        process = cluster.replace_segment(0, "pg0-f")
        # Writes proceed during the change ("Membership changes do not
        # block either reads or writes").
        for i in range(20, 30):
            db.write(f"k{i}", i)
        candidate = db.drive(process)

        final = cluster.metadata.membership(0)
        assert final.is_stable
        assert candidate in final.members
        assert "pg0-f" not in final.members
        assert final.epoch == 3
        for i in range(30):
            assert db.get(f"k{i}") == i

    def test_candidate_hydrates_to_durable_point(self, cluster):
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(15)})
        cluster.failures.crash_node("pg0-f")
        candidate = db.drive(cluster.replace_segment(0, "pg0-f"))
        tracker = cluster.writer.driver.pg_trackers[0]
        assert cluster.nodes[candidate].segment.scl >= tracker.pgcl

    def test_rollback_when_suspect_returns(self, cluster):
        """'If F comes back, we can make a second membership change back
        to ABCDEF.'"""
        db = cluster.session()
        db.write("a", 1)
        candidate = cluster.begin_segment_replacement(0, "pg0-f")
        assert not cluster.metadata.membership(0).is_stable
        # F turns out to be healthy: reverse.
        cluster.rollback_segment_replacement(0, "pg0-f")
        final = cluster.metadata.membership(0)
        assert final.is_stable
        assert "pg0-f" in final.members
        assert candidate not in final.members
        db.write("b", 2)
        assert db.get("b") == 2

    def test_epoch_visible_on_storage_nodes(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        cluster.failures.crash_node("pg0-f")
        db.drive(cluster.replace_segment(0, "pg0-f"))
        db.write("b", 2)  # carries the new membership epoch everywhere
        cluster.run_for(20)
        assert cluster.nodes["pg0-a"].epochs.current.membership >= 3

    def test_writes_during_dual_membership_reach_candidate(self, cluster):
        db = cluster.session()
        db.write("seed", 0)
        cluster.failures.crash_node("pg0-f")
        candidate = cluster.begin_segment_replacement(0, "pg0-f")
        db.write("during", 1)
        cluster.run_for(20)
        assert cluster.nodes[candidate].segment.hot_log_size > 0

    def test_double_fault_replacement(self, cluster):
        """Replace E and F concurrently (the paper's quad quorum set)."""
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(10)})
        cluster.failures.crash_node("pg0-f")
        cluster.failures.crash_node("pg0-e")
        candidate_f = cluster.begin_segment_replacement(0, "pg0-f")
        candidate_e = cluster.begin_segment_replacement(0, "pg0-e")
        state = cluster.metadata.membership(0)
        assert len(state.member_groups()) == 4
        # "simply writing to the four members ABCD meets quorum":
        db.write("during-double-fault", 1)
        db.drive(cluster.hydrate_segment(0, candidate_f))
        db.drive(cluster.hydrate_segment(0, candidate_e))
        cluster.finalize_segment_replacement(0, "pg0-f")
        cluster.finalize_segment_replacement(0, "pg0-e")
        final = cluster.metadata.membership(0)
        assert final.is_stable
        assert {candidate_e, candidate_f} <= final.members
        for i in range(10):
            assert db.get(f"k{i}") == i

    def test_replaced_data_fully_durable_after_change(self, cluster):
        """After the change completes, crash recovery with the NEW
        membership finds everything."""
        from repro.db.session import Session

        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(12)})
        cluster.failures.crash_node("pg0-f")
        db.drive(cluster.replace_segment(0, "pg0-f"))
        db.write("late", 99)
        cluster.crash_writer()
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        assert db.get("k5") == 5
        assert db.get("late") == 99


class TestMembershipGuards:
    def test_finalize_without_begin_rejected(self, cluster):
        with pytest.raises(MembershipError):
            cluster.finalize_segment_replacement(0, "pg0-f")

    def test_unknown_member_rejected(self, cluster):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            cluster.begin_segment_replacement(0, "ghost")


class TestVolumeGrowth:
    def test_grow_adds_pgs_and_bumps_geometry_epoch(self):
        cluster = AuroraCluster.build(seed=66, pg_count=1, blocks_per_pg=16)
        db = cluster.session()
        db.write("a", 1)
        epoch_before = cluster.writer.driver.epochs.geometry
        cluster.grow_volume(2)
        assert cluster.metadata.geometry.pg_count == 3
        assert cluster.writer.driver.epochs.geometry == epoch_before + 1
        assert len(cluster.nodes) == 18
        # New PGs accept traffic: fill past the first PG's 16 blocks (an
        # ascending fill leaves its leaves full: ~16 rows per block).
        for i in range(240):
            db.write(f"grown{i:03d}", i)
        assert db.get("grown110") == 110
        used_pgs = {
            node.segment.pg_index
            for node in cluster.nodes.values()
            if node.segment.hot_log_size
        }
        assert len(used_pgs) >= 2


class TestFalsePositiveRepair:
    """Figure 5's reversibility, driven by the autonomous control plane:
    a suspect that returns mid-hydration must be rolled back to, with no
    acknowledged commit lost (satellite of the self-healing tentpole)."""

    def test_suspect_returns_mid_hydration_rolls_back(self):
        from repro.audit import Auditor
        from repro.repair.metrics import ACTIVE, ROLLED_BACK

        cluster = AuroraCluster.build(seed=101)
        auditor = Auditor()
        cluster.arm_auditor(auditor)
        monitor, planner = cluster.arm_healer()
        db = cluster.session()
        acked = {f"acked{i:02d}": i for i in range(15)}
        for key, value in acked.items():
            db.write(key, value)

        target = "pg0-e"
        members_before = cluster.metadata.membership(0).members
        others = (set(cluster.nodes) | {cluster.writer.name}) - {target}
        # Pin the (deterministically named) future candidate behind a
        # partition so hydration cannot win the race against the
        # incumbent's return.
        predicted = cluster.segment_name(
            0,
            cluster.metadata.membership(0).slot_of(target),
            generation=cluster._candidate_counter + 1,
        )
        cluster.failures.partition_node(predicted, others)
        cluster.failures.partition_node(target, others - {predicted})

        assert pump_until(
            cluster,
            db,
            lambda: planner.active_repair(0) is not None
            and planner.active_repair(0).candidate_id is not None,
            prefix="fp-pump",
        ), "monitor never confirmed the partitioned segment dead"
        record = planner.active_repair(0)
        assert not cluster.metadata.membership(0).is_stable

        # Acked commits issued while the dual membership is installed
        # must survive the rollback too.
        for i in range(5):
            db.write(f"dual{i}", i)
            acked[f"dual{i}"] = i

        cluster.failures.heal_node_partition(target, others - {predicted})
        assert pump_until(
            cluster, db, lambda: record.outcome != ACTIVE, prefix="fp-pump"
        )

        assert record.outcome == ROLLED_BACK
        final = cluster.metadata.membership(0)
        assert final.is_stable
        assert final.members == members_before
        assert monitor.counters["false_positives"] >= 1
        cluster.failures.heal_node_partition(predicted, others)
        for key, value in acked.items():
            assert db.get(key) == value
        auditor.assert_clean()
