"""Tests for workload generation and the client drivers."""

import pytest

from repro import AuroraCluster
from repro.errors import ConfigurationError
from repro.workloads import (
    OpKind,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadRunner,
    profile,
)


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = WorkloadGenerator(WorkloadConfig(), seed=3).transactions(20)
        b = WorkloadGenerator(WorkloadConfig(), seed=3).transactions(20)
        assert a == b

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(WorkloadConfig(), seed=3).transactions(20)
        b = WorkloadGenerator(WorkloadConfig(), seed=4).transactions(20)
        assert a != b

    def test_transaction_sizes_within_bounds(self):
        config = WorkloadConfig(min_ops=2, max_ops=5)
        generator = WorkloadGenerator(config, seed=1)
        for txn in generator.transactions(100):
            assert 2 <= len(txn) <= 5

    def test_mix_fractions_roughly_hold(self):
        config = WorkloadConfig(
            write_fraction=0.6, delete_fraction=0.1, min_ops=1, max_ops=1
        )
        generator = WorkloadGenerator(config, seed=2)
        operations = [txn[0] for txn in generator.transactions(5000)]
        writes = sum(1 for op in operations if op.kind is OpKind.WRITE)
        deletes = sum(1 for op in operations if op.kind is OpKind.DELETE)
        assert 0.55 < writes / 5000 < 0.65
        assert 0.07 < deletes / 5000 < 0.13

    def test_zipf_skew_concentrates_on_hot_keys(self):
        skewed = WorkloadGenerator(
            WorkloadConfig(zipf_theta=1.2, key_count=100), seed=5
        )
        uniform = WorkloadGenerator(
            WorkloadConfig(zipf_theta=0.0, key_count=100), seed=5
        )

        def top_key_share(generator):
            from collections import Counter

            counts = Counter(
                op.key
                for txn in generator.transactions(2000)
                for op in txn
            )
            return counts.most_common(1)[0][1] / sum(counts.values())

        assert top_key_share(skewed) > 3 * top_key_share(uniform)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(write_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(min_ops=3, max_ops=2)

    def test_profiles_exist(self):
        for name in ("write_only", "read_write", "read_mostly", "hotspot",
                     "trickle"):
            assert isinstance(profile(name), WorkloadConfig)
        with pytest.raises(ConfigurationError):
            profile("nope")


class TestRunner:
    def test_closed_loop_commits_everything(self):
        cluster = AuroraCluster.build(seed=61)
        generator = WorkloadGenerator(profile("read_write"), seed=61)
        runner = WorkloadRunner(cluster, generator)
        stats = runner.run_closed_loop(clients=3, transactions_per_client=15)
        assert stats.committed + stats.aborted == 45
        assert stats.committed >= 40
        summary = stats.summary()
        assert summary["p99_ms"] >= summary["p50_ms"] > 0

    def test_open_loop_measures_latency_under_rate(self):
        cluster = AuroraCluster.build(seed=62)
        generator = WorkloadGenerator(profile("trickle"), seed=62)
        runner = WorkloadRunner(cluster, generator)
        stats = runner.run_open_loop(rate_per_ms=0.2, duration_ms=200.0)
        assert stats.committed > 10
        assert stats.summary()["mean_ms"] > 0

    def test_hotspot_profile_generates_aborts(self):
        cluster = AuroraCluster.build(seed=63)
        generator = WorkloadGenerator(profile("hotspot"), seed=63)
        runner = WorkloadRunner(cluster, generator)
        stats = runner.run_closed_loop(clients=6, transactions_per_client=20)
        assert stats.committed > 0
        # With heavy skew and NO-WAIT locking, some conflicts are expected.
        assert stats.aborted > 0

    def test_runner_data_is_readable_afterwards(self):
        cluster = AuroraCluster.build(seed=64)
        generator = WorkloadGenerator(profile("write_only"), seed=64)
        runner = WorkloadRunner(cluster, generator)
        runner.run_closed_loop(clients=2, transactions_per_client=10)
        db = cluster.session()
        results = db.scan("key00000000", "keyzzzzzzzz")
        assert len(results) > 0
