"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import AuroraCluster
from repro.audit.integrity import IntegrityLog
from repro.sim.events import EventLoop
from repro.sim.network import Network


#: Storage backends every conformance-parametrized test must pass on.
BACKEND_NAMES = ("aurora", "taurus")


@pytest.fixture(params=BACKEND_NAMES)
def backend(request) -> str:
    """Storage backend name; tests using this fixture run once per backend."""
    return request.param


@pytest.fixture
def backend_cluster(backend: str) -> AuroraCluster:
    """A single-PG cluster built on the parametrized storage backend."""
    return AuroraCluster.build(seed=99, backend=backend)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def loop() -> EventLoop:
    return EventLoop()


@pytest.fixture
def network(loop: EventLoop, rng: random.Random) -> Network:
    return Network(loop, rng)


@pytest.fixture
def cluster() -> AuroraCluster:
    """A small single-PG cluster with a bootstrapped writer."""
    return AuroraCluster.build(seed=99)


@pytest.fixture
def built_clusters(monkeypatch) -> list:
    """Every cluster ``AuroraCluster.build`` returns during the test, for
    code that builds its own and does not hand it back (``run_audit``, the
    ledger's workloads)."""
    clusters: list[AuroraCluster] = []
    build = vars(AuroraCluster)["build"].__func__

    def capturing(cls, *args, **kwargs):
        clusters.append(build(cls, *args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(AuroraCluster, "build", classmethod(capturing))
    return clusters


@pytest.fixture
def multi_pg_cluster() -> AuroraCluster:
    """Three protection groups, 16 blocks each (forces cross-PG spread)."""
    return AuroraCluster.build(seed=77, pg_count=3, blocks_per_pg=16)


@pytest.fixture
def full_tail_cluster() -> AuroraCluster:
    """Single PG with the section-4.2 full/tail segment mix."""
    return AuroraCluster.build(seed=55, full_tail=True)


def integrity_cluster(backend: str = "aurora", seed: int = 5):
    """The ``--integrity`` gate's world: a fast scrub rotation and the
    corruption ledger (:class:`repro.audit.integrity.IntegrityLog`, the
    injector's ``integrity_probe``) armed over every storage node."""
    cluster = AuroraCluster.build(
        seed=seed, backend=backend, scrub_interval=400.0
    )
    ledger = IntegrityLog(cluster.loop)
    cluster.failures.attach_storage(cluster.nodes.values(), ledger)
    ledger.start_reconcile(cluster.nodes.values())
    return cluster


def drive(cluster: AuroraCluster, awaitable):
    """Run the cluster loop until the future/process completes."""
    from repro.db.session import Session

    return Session(cluster.writer).drive(awaitable)
