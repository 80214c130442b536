"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import AuroraCluster
from repro.audit import PROFILES, AuditRunConfig, run_audit
from repro.audit.integrity import IntegrityLog
from repro.core.epochs import EpochStamp
from repro.core.membership import MembershipState
from repro.core.records import BlockPut, LogRecord, Overlay, RecordKind
from repro.db.session import Session
from repro.sim.events import EventLoop
from repro.sim.latency import FixedLatency
from repro.sim.network import Actor, Network
from repro.storage.backup import SimulatedS3
from repro.storage.messages import (
    ReadBlockResponse,
    RequestRejected,
    WriteAck,
    WriteBatch,
)
from repro.storage.metadata import SegmentPlacement, StorageMetadataService
from repro.storage.node import StorageNode, StorageNodeConfig
from repro.storage.page import image_checksum
from repro.storage.segment import Segment, SegmentKind
from repro.storage.volume import VolumeGeometry


def assert_reads_as(image, reference: dict, absent) -> None:
    """``image`` is ``reference`` to every read a block image serves;
    ``absent`` are keys it does not hold."""
    assert list(image.items()) == list(reference.items())
    assert list(image) == list(reference)
    assert list(image.keys()) == list(reference.keys())
    assert list(image.values()) == list(reference.values())
    assert len(image) == len(reference)
    assert image == reference and reference == image
    assert image_checksum(image) == image_checksum(reference)
    for key, value in reference.items():
        assert key in image and image[key] == value
        assert image.get(key) == value
    for key in absent:
        if key not in reference:
            assert key not in image and image.get(key, "-") == "-"
            with pytest.raises(KeyError):
                image[key]


def held_entries(segment, blocks) -> int:
    """Entries the retained versions of ``blocks`` physically hold: each
    distinct object reachable from them counted once, a dict for its
    length and an :class:`Overlay` node for its one entry."""
    seen: set[int] = set()
    held = 0
    for block in blocks:
        chain = segment.blocks.get(block)
        for version in chain.versions if chain is not None else ():
            image = version.image
            while id(image) not in seen:
                seen.add(id(image))
                if type(image) is not Overlay:
                    held += len(image)
                    break
                held += 1
                image = image.base
    return held


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
    return Session(cluster.writer).drive(awaitable)


def crash_and_recover(cluster: AuroraCluster) -> Session:
    """Crash the writer, drive its recovery and return a session on it."""
    cluster.crash_writer()
    db = Session(cluster.writer)
    db.drive(cluster.recover_writer())
    return db


def pump_until(cluster, session, predicate, max_steps=800, step_ms=10.0,
               prefix="wait"):
    """Run the cluster in ``step_ms`` steps until ``predicate`` holds,
    writing a ``prefix`` key every tenth step so traffic (and with it the
    liveness signals) keeps flowing; the predicate's last answer."""
    for step in range(max_steps):
        if predicate():
            return True
        if step % 10 == 0:
            session.write(f"{prefix}{step:04d}", step)
        cluster.run_for(step_ms)
    return predicate()


# ----------------------------------------------------------------------
# Searches: one integer seed per example
# ----------------------------------------------------------------------
#: What a randomized test draws: one integer, from which it builds its own
#: ``random.Random(seed)``, so Hypothesis makes one draw per example and
#: not one per ``random`` call.
SEEDS = st.integers(min_value=0, max_value=1 << 32)


def found_by_search(check, max_examples: int, **strategies) -> bool:
    """Does a derandomized search of ``check(seed, **strategies)`` find a
    counterexample unaided?  (No shrinking: any counterexample will do.)"""
    searched = settings(
        max_examples=max_examples, deadline=None, database=None,
        derandomize=True, phases=[Phase.generate], report_multiple_bugs=False,
    )(given(seed=SEEDS, **strategies)(check))
    try:
        searched()
    except AssertionError:
        return True
    return False


# ----------------------------------------------------------------------
# Audit runs: each unpatched world once per session
# ----------------------------------------------------------------------
_AUDIT_REPORTS: list = []


def audit_report(profile: str, **fields):
    """``run_audit`` of row ``profile`` over ``AuditRunConfig(**fields)``,
    run once per session.  The key is the row's value and the configured
    config, so a row a test has replaced is a world of its own.  For pins
    that read an unpatched run only: a test that plants a mutant calls
    ``run_audit`` itself."""
    row = PROFILES[profile]
    key = (row, row.configure(AuditRunConfig(**fields)))
    for seen, report in _AUDIT_REPORTS:
        if seen == key:
            return report
    report = run_audit(key[1])
    _AUDIT_REPORTS.append((key, report))
    return report


# ----------------------------------------------------------------------
# A storage fleet with no database instance: six nodes of one PG
# ----------------------------------------------------------------------
class FakeInstance(Actor):
    """Stands where the writer would: keeps what the nodes send it."""

    def __init__(self, name="db"):
        super().__init__(name)
        self.acks = []
        self.reads = []
        self.rejections = []

    def on_message(self, message):
        payload = message.payload
        if isinstance(payload, WriteAck):
            self.acks.append(payload)
        elif isinstance(payload, ReadBlockResponse):
            self.reads.append(payload)
        elif isinstance(payload, RequestRejected):
            self.rejections.append(payload)


def build_fleet(node_count=6, background=False, **node_settings):
    """``node_count`` full segments of PG 0 (``StorageNodeConfig``
    ``node_settings``) and a :class:`FakeInstance` ``db`` on one network:
    ``(loop, network, metadata, nodes, instance)``."""
    loop = EventLoop()
    rng = random.Random(17)
    network = Network(
        loop, rng, intra_az=FixedLatency(0.2), cross_az=FixedLatency(0.8)
    )
    geometry = VolumeGeometry(blocks_per_pg=64, pg_count=1)
    metadata = StorageMetadataService(geometry)
    s3 = SimulatedS3()
    names = [f"seg{i}" for i in range(node_count)]
    metadata.set_membership(0, MembershipState.initial(names))
    nodes = {}
    config = StorageNodeConfig(
        disk=FixedLatency(0.05), enable_background=background,
        **node_settings,
    )
    for i, name in enumerate(names):
        segment = Segment(name, 0)
        node = StorageNode(segment, metadata, s3, rng, config)
        network.attach(node, az=f"az{i % 3 + 1}")
        metadata.place_segment(
            SegmentPlacement(name, 0, name, f"az{i % 3 + 1}",
                             SegmentKind.FULL)
        )
        nodes[name] = node
    for node in nodes.values():
        node.start()
    instance = FakeInstance()
    network.attach(instance, az="az1")
    return loop, network, metadata, nodes, instance


def make_record(lsn, prev_pg, block=0):
    return LogRecord(
        lsn=lsn, prev_volume_lsn=lsn - 1, prev_pg_lsn=prev_pg,
        prev_block_lsn=0, block=block, pg_index=0, kind=RecordKind.DATA,
        payload=BlockPut(entries=(("k", lsn),)),
    )


def batch(records, epochs=None, pgmrpl=0):
    return WriteBatch(
        instance_id="db", pg_index=0, records=tuple(records),
        epochs=epochs or EpochStamp(), pgmrpl=pgmrpl,
    )
