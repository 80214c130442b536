"""Soak test: sustained load, background failures, mid-run recovery.

One long deterministic scenario exercising everything at once -- the kind
of run that shakes out interaction bugs unit tests cannot see.  Kept to a
few seconds of wall-clock.
"""

from repro import AuroraCluster
from repro.db.session import Session
from repro.workloads import WorkloadGenerator, WorkloadRunner, profile


class TestSoak:
    def test_long_run_with_background_failures(self):
        cluster = AuroraCluster.build(
            seed=424, backup_interval=100.0, gc_interval=50.0
        )
        cluster.add_replica("r1")
        # Background noise: every segment flaps occasionally, never more
        # than the fault budget at once (MTTF chosen so overlap of >2
        # simultaneous failures is essentially never hit at this horizon).
        cluster.failures.enable_background_failures(
            [f"pg0-{c}" for c in "abc"],
            mttf_ms=4_000.0,
            mttr_ms=60.0,
            horizon_ms=8_000.0,
        )
        db = cluster.session()
        oracle = {}

        def write_block(tag, count):
            for i in range(count):
                key = f"{tag}:{i % 40:02d}"
                value = f"{tag}-{i}"
                db.write(key, value)
                oracle[key] = value

        write_block("phase1", 150)
        cluster.run_for(500)

        # Mid-run crash + recovery under the background churn.
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        for key, value in oracle.items():
            assert db.get(key) == value

        write_block("phase2", 150)
        cluster.run_for(500)

        # A membership change under the same churn.
        cluster.failures.crash_node("pg0-f")
        db.drive(cluster.replace_segment(0, "pg0-f"))
        write_block("phase3", 100)

        # Promotion to the replica, then final verification of everything.
        cluster.run_for(200)
        cluster.crash_writer()
        new_writer, recovery = cluster.promote_replica("r1")
        db = Session(new_writer)
        db.drive(recovery)
        mismatches = [
            key for key, value in oracle.items() if db.get(key) != value
        ]
        assert mismatches == []
        # The tree survived ~400 committed transactions, churn, two
        # recoveries, and a membership change structurally intact.
        leaves = db.drive(new_writer.btree.check_structure())
        assert leaves >= 2
        assert len(new_writer.stats.recovery_durations) == 1

    def test_sustained_mixed_workload_with_replica_reads(self):
        cluster = AuroraCluster.build(seed=425)
        cluster.add_replica("r1")
        generator = WorkloadGenerator(profile("read_write"), seed=425)
        runner = WorkloadRunner(cluster, generator)
        stats = runner.run_closed_loop(
            clients=6, transactions_per_client=40
        )
        assert stats.committed > 200
        cluster.run_for(100)
        replica = cluster.replicas["r1"]
        assert replica.replica_lag == 0
        # Spot-check writer/replica agreement on a scan.
        db = cluster.session()
        rs = cluster.replica_session("r1")
        writer_rows = db.scan("key00000000", "keyzzzzzzzz")
        replica_rows = rs.scan("key00000000", "keyzzzzzzzz")
        assert writer_rows == replica_rows
