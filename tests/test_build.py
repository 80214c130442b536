"""``AuroraCluster.build`` is the one constructor (DESIGN.md D14): its
override rule, the call the benchmark makes, and every world built through
the class attribute at call time -- the ledger finds ``run_audit``'s
cluster by replacing it."""

import dataclasses

import pytest

from repro import AuroraCluster, ClusterConfig
from repro.audit import PROFILES, AuditRunConfig, run_audit
from repro.audit.profiles import Run
from repro.db.instance import InstanceConfig
from repro.multiwriter import MultiWriterCluster

#: What a module-level alias of ``build`` holds: the constructor at import.
BUILD_AT_IMPORT = AuroraCluster.build


def test_an_override_names_a_field_the_writers_first():
    with pytest.raises(TypeError, match="'cache_size'"):
        AuroraCluster.build(seed=1, cache_size=8)
    cluster = AuroraCluster.build(
        seed=1, cache_capacity=8, wire_compression=False
    )
    assert cluster.writer.cache.capacity == 8
    assert cluster.config.instance.driver.wire_compression is False
    assert cluster.config.replica == InstanceConfig()


def test_a_replicas_settings_are_given_whole():
    cluster = AuroraCluster.build(
        seed=1, replica=InstanceConfig(cache_capacity=64)
    )
    assert cluster.add_replica().cache.capacity == 64


def test_the_benchmarks_call_builds_on_its_config():
    config = ClusterConfig(seed=3)
    cluster = AuroraCluster.build(config, seed=5)
    assert cluster.config is config and config.seed == 5


def worlds_built(name: str, built_clusters: list) -> int:
    run_audit(PROFILES[name].configure(AuditRunConfig(seed=1, steps=1)))
    return len(built_clusters)


@pytest.mark.parametrize(
    "name, worlds",
    [("chaos", 1), ("integrity", 1), ("failover", 1), ("geo", 2)],
)
def test_run_audit_builds_through_the_class_attribute(
    name, worlds, built_clusters
):
    assert worlds_built(name, built_clusters) == worlds


def test_a_world_built_by_a_captured_alias_goes_unseen(
    built_clusters, monkeypatch
):
    """The planted mutant: the chaos world built by an alias captured at
    import.  The count above drops to zero, so it would fail."""

    def aliased(cfg, profile):
        cluster = BUILD_AT_IMPORT(seed=cfg.seed)
        return Run(cfg, cluster, cluster.nodes)

    mutant = dataclasses.replace(PROFILES["chaos"], world=aliased)
    monkeypatch.setitem(PROFILES, "chaos", mutant)
    assert worlds_built("chaos", built_clusters) == 0


def test_each_multiwriter_partition_is_one_build(built_clusters):
    mw = MultiWriterCluster(partition_count=3, seed=1)
    assert built_clusters == [*mw.partitions, mw.journal.cluster]
