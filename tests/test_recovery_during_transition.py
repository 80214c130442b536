"""Crash recovery while a membership change is in flight.

The hardest interaction in the paper's design space: the writer dies with a
protection group in its dual-quorum state (epoch 2 of Figure 5).  The
recovering instance loads the transition membership from the metadata
service, must reach the transition's read quorum (OR of the groups' 3/6),
truncate on the transition's write quorum (AND of the groups' 4/6), and the
change itself must remain completable or reversible afterwards.
"""

from repro import AuroraCluster

from .conftest import crash_and_recover, pump_until


class TestRecoveryDuringTransition:
    def test_recovery_under_dual_membership_then_finalize(self):
        cluster = AuroraCluster.build(seed=515)
        db = cluster.session()
        db.write_many({f"k{i}": i for i in range(12)})
        cluster.failures.crash_node("pg0-f")
        candidate = cluster.begin_segment_replacement(0, "pg0-f")
        db.write("mid-transition", 1)
        hydration = cluster.hydrate_segment(0, candidate)
        db.drive(hydration)
        # Crash the writer with the PG still in its dual-quorum state.
        assert not cluster.metadata.membership(0).is_stable
        db = crash_and_recover(cluster)
        # Data intact under the transition quorum config.
        for i in range(12):
            assert db.get(f"k{i}") == i
        assert db.get("mid-transition") == 1
        # The change completes normally after recovery.
        cluster.finalize_segment_replacement(0, "pg0-f")
        final = cluster.metadata.membership(0)
        assert final.is_stable
        assert candidate in final.members
        db.write("post-everything", 2)
        assert db.get("post-everything") == 2

    def test_recovery_under_dual_membership_then_rollback(self):
        cluster = AuroraCluster.build(seed=516)
        db = cluster.session()
        db.write("seed", 0)
        candidate = cluster.begin_segment_replacement(0, "pg0-e")
        db.write("mid", 1)
        db = crash_and_recover(cluster)
        assert db.get("mid") == 1
        # The suspect was healthy all along: reverse.
        cluster.rollback_segment_replacement(0, "pg0-e")
        final = cluster.metadata.membership(0)
        assert "pg0-e" in final.members
        assert candidate not in final.members
        db.write("post-rollback", 2)
        assert db.get("post-rollback") == 2

    def test_durability_property_holds_mid_transition(self):
        """Acknowledged commits issued DURING the dual-quorum phase (which
        must meet BOTH groups' 4/6) survive a crash mid-transition."""
        cluster = AuroraCluster.build(seed=517)
        db = cluster.session()
        db.write("pre", 0)
        cluster.failures.crash_node("pg0-f")
        cluster.begin_segment_replacement(0, "pg0-f")
        acknowledged = {}
        for i in range(15):
            txn = db.begin()
            db.put(txn, f"dual{i:02d}", i)
            db.commit_async(txn).add_done_callback(
                lambda f, k=f"dual{i:02d}", v=i: acknowledged.__setitem__(
                    k, v
                )
            )
        cluster.run_for(6.0)
        assert acknowledged
        db = crash_and_recover(cluster)
        for key, value in acknowledged.items():
            assert db.get(key) == value

    def test_epoch_ordering_across_crash_and_transition(self):
        """Volume and membership epochs advance independently and
        monotonically through the interleaving."""
        cluster = AuroraCluster.build(seed=518)
        db = cluster.session()
        db.write("a", 1)
        epochs_0 = cluster.writer.driver.epochs
        cluster.failures.crash_node("pg0-f")
        cluster.begin_segment_replacement(0, "pg0-f")
        epochs_1 = cluster.writer.driver.epochs
        assert epochs_1.membership == epochs_0.membership + 1
        db = crash_and_recover(cluster)
        epochs_2 = cluster.writer.driver.epochs
        assert epochs_2.volume == epochs_1.volume + 1
        assert epochs_2.membership == epochs_1.membership
        # Storage nodes agree once traffic flows.
        db.write("b", 2)
        cluster.run_for(20)
        node = cluster.nodes["pg0-a"]
        assert node.epochs.current.volume == epochs_2.volume
        assert node.epochs.current.membership == epochs_2.membership


class TestHealerAcrossWriterCrash:
    """The autonomous repair pipeline interleaved with writer recovery."""

    def test_repair_survives_writer_crash_mid_hydration(self):
        """The planner's watermark floor is monotonic: a writer crash
        resets the live PGCL trackers, but the repair must still finalize
        against the highest durable point ever observed."""
        from repro.audit import Auditor
        from repro.repair.metrics import REPLACED

        cluster = AuroraCluster.build(seed=519)
        auditor = Auditor()
        cluster.arm_auditor(auditor)
        monitor, planner = cluster.arm_healer()
        db = cluster.session()
        acked = {f"k{i:02d}": i for i in range(12)}
        for key, value in acked.items():
            db.write(key, value)

        cluster.failures.crash_node("pg0-f")
        assert pump_until(
            cluster, db, lambda: planner.active_repair(0) is not None,
            prefix="hpump",
        ), "repair never started"

        # Writer dies with the repair somewhere in flight (dual quorum or
        # hydration); recovery must not break the transition.
        db = crash_and_recover(cluster)

        assert pump_until(
            cluster,
            db,
            lambda: any(r.outcome == REPLACED for r in planner.records),
            prefix="hpump",
        ), f"repair never finalized after recovery: {planner.records}"
        final = cluster.metadata.membership(0)
        assert final.is_stable
        assert "pg0-f" not in final.members
        for key, value in acked.items():
            assert db.get(key) == value
        auditor.assert_clean()

    def test_rollback_state_survives_writer_crash(self):
        """False-positive rollback, then a writer crash: the restored
        membership and every acked commit persist through recovery."""
        from repro.audit import Auditor
        from repro.repair.metrics import ACTIVE, ROLLED_BACK

        cluster = AuroraCluster.build(seed=520)
        auditor = Auditor()
        cluster.arm_auditor(auditor)
        monitor, planner = cluster.arm_healer()
        db = cluster.session()
        acked = {f"k{i:02d}": i for i in range(10)}
        for key, value in acked.items():
            db.write(key, value)

        target = "pg0-d"
        members_before = cluster.metadata.membership(0).members
        others = (set(cluster.nodes) | {cluster.writer.name}) - {target}
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
            prefix="hpump",
        )
        record = planner.active_repair(0)
        cluster.failures.heal_node_partition(target, others - {predicted})
        assert pump_until(
            cluster, db, lambda: record.outcome != ACTIVE, prefix="hpump"
        )
        assert record.outcome == ROLLED_BACK
        cluster.failures.heal_node_partition(predicted, others)

        db = crash_and_recover(cluster)
        final = cluster.metadata.membership(0)
        assert final.is_stable
        assert final.members == members_before
        for key, value in acked.items():
            assert db.get(key) == value
        auditor.assert_clean()
