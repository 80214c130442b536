"""Tests for the CLI and the cluster report."""

import pytest

from repro.cli import main
from repro.report import cluster_report, format_report


class TestClusterReport:
    def test_report_structure(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        cluster.add_replica("r1")
        report = cluster_report(cluster)
        assert report["writer"]["vcl"] >= 1
        assert report["writer"]["state"] == "open"
        assert set(report["segments"]) == {
            f"pg0-{c}" for c in "abcdef"
        }
        assert report["protection_groups"][0]["stable"]
        assert "r1" in report["replicas"]
        assert report["network"]["sent"] > 0

    def test_report_reflects_failures(self, cluster):
        cluster.failures.crash_node("pg0-c")
        report = cluster_report(cluster)
        assert report["segments"]["pg0-c"]["up"] is False
        assert report["segments"]["pg0-a"]["up"] is True

    def test_report_reflects_transition(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        cluster.begin_segment_replacement(0, "pg0-f")
        report = cluster_report(cluster)
        assert not report["protection_groups"][0]["stable"]
        assert report["protection_groups"][0]["epoch"] == 2

    def test_format_is_readable(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        text = format_report(cluster_report(cluster))
        assert "VCL=" in text
        assert "pg0-a" in text
        assert "network:" in text

    def test_every_instance_reports_its_own_pool(self):
        """A replica whose pool is smaller than the index re-reads it from
        storage; that shows on the replica's line, not the writer's."""
        from repro import AuroraCluster
        from repro.db.instance import InstanceConfig

        cluster = AuroraCluster.build(
            seed=3, replica=InstanceConfig(cache_capacity=4)
        )
        cluster.add_replica("r1")
        db = cluster.session()
        db.write_many({f"key{i:03d}": i for i in range(120)})
        cluster.run_for(30)
        reader = cluster.replica_session("r1")
        for i in range(0, 120, 3):
            assert reader.get(f"key{i:03d}") == i
        report = cluster_report(cluster)
        pool = report["replicas"]["r1"]["cache"]
        stats = cluster.replicas["r1"].cache.stats
        assert pool["blocks"] == pool["probation"] + pool["protected"] == 4
        assert pool["declined"] == stats.declined > 0
        assert report["replicas"]["r1"]["reads"]["issued"] >= stats.misses > 0
        assert report["writer"]["cache"]["declined"] == 0
        lines = format_report(report).splitlines()
        (writer_line,) = [l for l in lines if l.startswith("  cache:")]
        (replica_line,) = [l for l in lines if l.startswith("      cache:")]
        assert "0 declined" in writer_line
        assert f"{stats.declined} declined" in replica_line
        assert (
            f"({pool['probation']} probation / {pool['protected']} protected)"
            in replica_line
        )

    def test_report_is_json_serializable(self, cluster):
        import json

        db = cluster.session()
        db.write("a", 1)
        json.dumps(cluster_report(cluster))  # must not raise


class TestCLI:
    def test_demo_command(self, capsys):
        assert main(["--seed", "5", "demo"]) == 0
        out = capsys.readouterr().out
        assert "committed 'hello'" in out
        assert "survived: 'aurora'" in out
        assert "VCL=" in out

    def test_workload_command(self, capsys):
        assert main(
            ["--seed", "5", "workload", "--profile", "write_only",
             "--clients", "2", "--txns", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "committed=20" in out
        assert "p99=" in out

    def test_workload_full_tail(self, capsys):
        assert main(
            ["workload", "--profile", "trickle", "--clients", "1",
             "--txns", "5", "--full-tail"]
        ) == 0
        assert "full_tail=True" in capsys.readouterr().out

    def test_faults_command(self, capsys):
        assert main(["--seed", "5", "faults"]) == 0
        out = capsys.readouterr().out
        assert "az3 down" in out
        assert "crashed + recovered" in out
        assert "replaced by" in out
        assert "intact: True" in out

    def test_report_command(self, capsys):
        assert main(
            ["--seed", "5", "report", "--txns", "10", "--replicas", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "replica-1" in out
        assert "segments:" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
