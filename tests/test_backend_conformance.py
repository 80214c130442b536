"""Cross-backend conformance suite: one contract, every storage backend.

The pluggable-backend abstraction (``repro.storage.backend``) is only safe
if every backend honours the same externally observable contract.  This
suite states that contract once -- durability, commit visibility, crash
recovery, truncation, and epoch fencing -- and runs it against each
registered backend via the shared ``backend`` fixture, then closes with a
hypothesis equivalence property: the same workload trace produces the same
committed prefix on every backend.

Backend-specific *failure-edge* tests (e.g. Taurus page-store loss) live in
their own classes at the bottom; everything above is backend-agnostic.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AuroraCluster
from repro.db.instance import InstanceState
from repro.db.session import Session
from repro.errors import CommitUncertainError, InstanceStateError
from repro.storage.backend import BACKENDS, resolve_backend
from repro.storage.segment import SegmentKind

from .conftest import BACKEND_NAMES, integrity_cluster


def sync_members(cluster, pg_index: int = 0) -> list[str]:
    """Members on the synchronous write path (all members for Aurora)."""
    return list(cluster.metadata.routes_of_pg(pg_index).write_members)


def test_registry_covers_fixture():
    """The conformance fixture exercises every registered backend."""
    assert set(BACKEND_NAMES) == set(BACKENDS)


# ----------------------------------------------------------------------
# Contract 1: durability
# ----------------------------------------------------------------------
class TestDurabilityContract:
    def test_acked_commit_survives_writer_crash(self, backend):
        cluster = AuroraCluster.build(backend=backend)
        db = Session(cluster.writer)
        for i in range(6):
            db.write(f"k{i}", f"v{i}")
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        for i in range(6):
            assert db.get(f"k{i}") == f"v{i}"

    def test_acked_commit_survives_max_tolerated_kills(self, backend):
        """Crash the backend's advertised worst-case number of sync-path
        segments, then crash-recover the writer: nothing acknowledged may
        be lost."""
        cluster = AuroraCluster.build(backend=backend)
        db = Session(cluster.writer)
        for i in range(4):
            db.write(f"k{i}", f"v{i}")
        kills = cluster.backend.max_tolerated_kills()
        assert kills >= 1
        for name in sync_members(cluster)[:kills]:
            cluster.failures.crash_node(name)
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        for i in range(4):
            assert db.get(f"k{i}") == f"v{i}"

    def test_commits_proceed_with_tolerated_kills(self, backend):
        cluster = AuroraCluster.build(backend=backend)
        db = Session(cluster.writer)
        kills = cluster.backend.max_tolerated_kills()
        for name in sync_members(cluster)[:kills]:
            cluster.failures.crash_node(name)
        db.write("alive", "yes")
        assert db.get("alive") == "yes"

    def test_writes_block_past_write_quorum_loss(self, backend):
        """One kill beyond the tolerated count leaves the write quorum
        unreachable: the commit stays pending, and resolves as soon as a
        quorum member returns.  No backend may acknowledge early."""
        cluster = AuroraCluster.build(backend=backend)
        db = Session(cluster.writer)
        members = sync_members(cluster)
        losses = cluster.backend.replication().write_loss_failures
        for name in members[:losses]:
            cluster.failures.crash_node(name)
        txn = db.begin()
        db.put(txn, "blocked", "w")
        future = db.commit_async(txn)
        cluster.run_for(3_000.0)
        assert not future.done, "acknowledged without a write quorum"
        cluster.failures.restore_node(members[0])
        cluster.run_for(3_000.0)
        assert future.done and future.exception() is None
        assert db.get("blocked") == "w"


# ----------------------------------------------------------------------
# Contract 2: commit visibility
# ----------------------------------------------------------------------
class TestCommitVisibilityContract:
    def test_committed_writes_visible_immediately(self, backend_cluster):
        db = Session(backend_cluster.writer)
        txn = db.begin()
        db.put(txn, "a", "1")
        db.put(txn, "b", "2")
        db.commit(txn)
        assert db.get("a") == "1"
        assert db.get("b") == "2"

    def test_rolled_back_writes_never_visible(self, backend_cluster):
        db = Session(backend_cluster.writer)
        db.write("a", "keep")
        txn = db.begin()
        db.put(txn, "a", "discard")
        db.rollback(txn)
        assert db.get("a") == "keep"

    def test_async_commit_visible_once_acknowledged(self, backend_cluster):
        db = Session(backend_cluster.writer)
        txn = db.begin()
        db.put(txn, "later", "x")
        future = db.commit_async(txn)
        backend_cluster.run_for(2_000.0)
        assert future.done and future.exception() is None
        assert db.get("later") == "x"

    def test_overwrites_read_latest_committed(self, backend_cluster):
        db = Session(backend_cluster.writer)
        for i in range(5):
            db.write("k", f"v{i}")
        assert db.get("k") == "v4"


# ----------------------------------------------------------------------
# Contract 3: crash recovery
# ----------------------------------------------------------------------
class TestCrashRecoveryContract:
    def test_recovery_preserves_committed_prefix(self, backend):
        cluster = AuroraCluster.build(backend=backend)
        db = Session(cluster.writer)
        expected = {}
        for i in range(8):
            db.write(f"k{i}", f"v{i}")
            expected[f"k{i}"] = f"v{i}"
        for _ in range(2):
            cluster.crash_writer()
            db = Session(cluster.writer)
            db.drive(cluster.recover_writer())
        for key, value in expected.items():
            assert db.get(key) == value

    @pytest.mark.parametrize("grace_ms", [0.0, 0.5, 1.5, 4.0])
    def test_inflight_commit_is_all_or_nothing(self, backend, grace_ms):
        """A multi-key transaction in flight at the crash is either fully
        replayed or fully annulled by recovery -- never half-applied."""
        cluster = AuroraCluster.build(seed=17, backend=backend)
        db = Session(cluster.writer)
        db.write("base", "b")
        writer = cluster.writer
        txn = writer.begin()
        keys = [f"atomic{i}" for i in range(3)]
        for key in keys:
            db.drive(writer.put(txn, key, f"{key}.v"))
        future = writer.commit(txn)
        cluster.run_for(grace_ms)
        acked = future.done and future.exception() is None
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        got = {key: db.get(key) for key in keys}
        applied = [k for k, v in got.items() if v == f"{k}.v"]
        absent = [k for k, v in got.items() if v is None]
        assert len(applied) + len(absent) == len(keys), got
        assert not (applied and absent), (
            f"half-applied transaction: {got} (grace={grace_ms})"
        )
        if acked:
            assert not absent, f"acknowledged transaction lost: {got}"
        assert db.get("base") == "b"

    def test_recovered_writer_accepts_new_writes(self, backend):
        cluster = AuroraCluster.build(backend=backend)
        db = Session(cluster.writer)
        db.write("old", "1")
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        db.write("new", "2")
        assert db.get("old") == "1"
        assert db.get("new") == "2"


# ----------------------------------------------------------------------
# Contract 4: truncation (the Figure-4 ragged edge)
# ----------------------------------------------------------------------
class TestTruncationContract:
    def test_unacked_suffix_annulled_then_lsns_reusable(self, backend):
        """Crash with the entire sync path down: the in-flight suffix
        cannot have met quorum, recovery truncates it, and the recovered
        writer allocates fresh LSNs over the annulled range without the
        stale records ever resurfacing."""
        cluster = AuroraCluster.build(seed=23, backend=backend)
        db = Session(cluster.writer)
        db.write("stable", "s")
        for name in sync_members(cluster):
            cluster.failures.crash_node(name)
        writer = cluster.writer
        txn = writer.begin()
        db.drive(writer.put(txn, "doomed", "d"))
        writer.commit(txn)
        cluster.run_for(50.0)
        cluster.crash_writer()
        for name in sync_members(cluster):
            cluster.failures.restore_node(name)
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        assert db.get("stable") == "s"
        assert db.get("doomed") is None
        db.write("fresh", "f")
        assert db.get("fresh") == "f"
        assert db.get("doomed") is None

    @pytest.mark.parametrize("seed", [6, 7])
    def test_second_recovery_allocates_above_the_first_range(
        self, backend, seed
    ):
        """Recovery 1 keeps an unacked write held by one segment only and
        installs its truncation range everywhere.  Recovery 2 no longer
        sees that segment, so no scanned record reaches the range: the
        writer must still allocate above it, or every segment refuses
        its LSNs and no later commit is ever acknowledged."""
        cluster = AuroraCluster.build(seed=seed, backend=backend)
        db = Session(cluster.writer)
        db.write("k", "v1")
        holder = sync_members(cluster)[0]
        others = [name for name in cluster.nodes if name != holder]
        for name in others:
            cluster.failures.crash_node(name)
        writer = cluster.writer
        txn = writer.begin()
        db.drive(writer.put(txn, "k", "unacked"))
        writer.commit(txn)
        cluster.run_for(50.0)
        cluster.crash_writer()
        for name in others:
            cluster.failures.restore_node(name)
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        cluster.failures.crash_node(holder)
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        db.write("after", "x")
        assert db.get("after") == "x"

    def test_btree_structure_survives_truncation(self, backend):
        cluster = AuroraCluster.build(seed=29, backend=backend)
        db = Session(cluster.writer)
        for i in range(20):
            db.write(f"key{i:02d}", f"v{i}")
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        leaves = db.drive(cluster.writer.btree.check_structure())
        assert leaves >= 1


# ----------------------------------------------------------------------
# Contract 5: epoch fencing
# ----------------------------------------------------------------------
class TestEpochFencingContract:
    def test_recovery_advances_the_volume_epoch(self, backend):
        cluster = AuroraCluster.build(backend=backend)
        before = cluster.writer.driver.epochs.volume
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        assert cluster.writer.driver.epochs.volume > before

    def test_foreign_epoch_bump_closes_the_writer(self, backend):
        """Any volume-epoch advance the driver learns from a rejection
        means a successor exists: the writer must fence itself shut."""
        cluster = AuroraCluster.build(backend=backend)
        writer = cluster.writer
        node = cluster.nodes[sorted(cluster.nodes)[0]]
        ahead = node.epochs.current.bump_volume()
        node.epochs.advance(ahead)
        db = Session(writer)
        with pytest.raises((CommitUncertainError, InstanceStateError)):
            db.write("fence-me", "x")
            db.write("fence-me-2", "x")
        assert writer.state is InstanceState.CLOSED
        assert writer.driver.epochs.volume == ahead.volume


# ----------------------------------------------------------------------
# Cross-backend equivalence: same trace, same committed prefix
# ----------------------------------------------------------------------
EQUIV_KEYS = [f"key{i:02d}" for i in range(8)]


@st.composite
def equivalence_traces(draw):
    """A fault-light workload trace valid on every backend: transactions
    with awaited commits, clock advances, writer crash/recover cycles, and
    crash/restore of slot 0 (within every backend's tolerated-kill count).
    """
    steps = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        kind = draw(
            st.sampled_from(
                ["txn", "txn", "txn", "run", "crash_recover",
                 "kill0", "restore0"]
            )
        )
        if kind == "txn":
            ops = draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(["put", "delete"]),
                        st.sampled_from(EQUIV_KEYS),
                        st.integers(0, 99),
                    ),
                    min_size=1,
                    max_size=3,
                )
            )
            steps.append(("txn", ops))
        elif kind == "run":
            steps.append(("run", draw(st.integers(1, 25))))
        else:
            steps.append((kind,))
    return draw(st.integers(0, 2**16)), steps


def run_trace(backend: str, seed: int, steps) -> dict:
    """Run one trace; returns the committed state as read back."""
    cluster = AuroraCluster.build(seed=seed, backend=backend)
    db = Session(cluster.writer)
    slot0 = sorted(cluster.metadata.membership(0).members)[0]
    slot0_down = False
    for step in steps:
        if step[0] == "txn":
            txn = db.begin()
            for op, key, value in step[1]:
                if op == "put":
                    db.put(txn, key, value)
                else:
                    db.delete(txn, key)
            db.commit(txn)
        elif step[0] == "run":
            cluster.run_for(float(step[1]))
        elif step[0] == "kill0":
            if not slot0_down:
                cluster.failures.crash_node(slot0)
                slot0_down = True
        elif step[0] == "restore0":
            if slot0_down:
                cluster.failures.restore_node(slot0)
                slot0_down = False
        else:
            cluster.crash_writer()
            db = Session(cluster.writer)
            db.drive(cluster.recover_writer())
    cluster.crash_writer()
    db = Session(cluster.writer)
    db.drive(cluster.recover_writer())
    return {key: db.get(key) for key in EQUIV_KEYS}


class TestCrossBackendEquivalence:
    @given(equivalence_traces())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_trace_same_committed_prefix(self, trace):
        """Every acknowledged commit is in the committed prefix on every
        backend, and the prefixes agree key-for-key: quorum shape and read
        routing are implementation detail, not semantics."""
        seed, steps = trace
        states = {
            name: run_trace(name, seed, steps) for name in BACKEND_NAMES
        }
        reference = states[BACKEND_NAMES[0]]
        for name, state in states.items():
            assert state == reference, (
                f"backend {name} diverged: {state} != {reference} "
                f"(seed={seed}, steps={steps})"
            )

    def test_trace_replay_is_deterministic_per_backend(self, backend):
        steps = [
            ("txn", [("put", "key00", 1), ("put", "key01", 2)]),
            ("kill0",),
            ("run", 10),
            ("txn", [("delete", "key00", 0), ("put", "key02", 3)]),
            ("crash_recover",),
            ("restore0",),
            ("txn", [("put", "key03", 4)]),
        ]
        assert run_trace(backend, 7, steps) == run_trace(backend, 7, steps)


# ----------------------------------------------------------------------
# Taurus failure edges (backend-specific, not part of the shared contract)
# ----------------------------------------------------------------------
class TestTaurusFailureEdges:
    def test_layout_is_three_logs_two_pages(self):
        cluster = AuroraCluster.build(seed=5, backend="taurus")
        kinds = [p.kind for p in cluster.metadata.segments_of_pg(0)]
        assert kinds.count(SegmentKind.LOG) == 3
        assert kinds.count(SegmentKind.FULL) == 2

    def test_page_stores_hydrate_from_log_via_gossip(self):
        cluster = AuroraCluster.build(seed=5, backend="taurus")
        db = Session(cluster.writer)
        db.write("k", "v")
        pages = [
            p.segment_id
            for p in cluster.metadata.segments_of_pg(0)
            if p.kind is SegmentKind.FULL
        ]
        cluster.run_for(300.0)
        scls = cluster.segment_scls(0)
        for name in pages:
            assert scls[name] == cluster.writer.vcl, scls

    def test_one_page_store_down_reads_still_served(self):
        cluster = AuroraCluster.build(seed=5, backend="taurus")
        db = Session(cluster.writer)
        db.write("k", "v")
        cluster.run_for(200.0)
        pages = [
            p.segment_id
            for p in cluster.metadata.segments_of_pg(0)
            if p.kind is SegmentKind.FULL
        ]
        cluster.failures.crash_node(pages[0])
        assert db.get("k") == "v"

    def test_both_page_stores_down_reads_fall_back_to_log(self):
        """With no page store reachable, reads are forced back to the log
        tail: a log store materializes the block on demand."""
        cluster = AuroraCluster.build(seed=5, backend="taurus")
        db = Session(cluster.writer)
        for i in range(5):
            db.write(f"k{i}", f"v{i}")
        cluster.run_for(200.0)
        for placement in cluster.metadata.segments_of_pg(0):
            if placement.kind is SegmentKind.FULL:
                cluster.failures.crash_node(placement.segment_id)
        for i in range(5):
            assert db.get(f"k{i}") == f"v{i}"
        # And the log-served state survives a crash-recover cycle.
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        for i in range(5):
            assert db.get(f"k{i}") == f"v{i}"

    def test_log_store_loss_during_page_store_hydration(self):
        """Replace a page store while a log store is down: the baseline
        must come from the surviving copies, writes keep committing on the
        2/3 log majority, and reads stay correct throughout."""
        cluster = AuroraCluster.build(seed=15, backend="taurus")
        db = Session(cluster.writer)
        for i in range(5):
            db.write(f"k{i}", f"v{i}")
        cluster.run_for(200.0)
        logs = [
            p.segment_id
            for p in cluster.metadata.segments_of_pg(0)
            if p.kind is SegmentKind.LOG
        ]
        pages = [
            p.segment_id
            for p in cluster.metadata.segments_of_pg(0)
            if p.kind is SegmentKind.FULL
        ]
        cluster.failures.crash_node(logs[1])
        db.drive(cluster.replace_segment(0, pages[1]))
        members = cluster.metadata.membership(0).members
        assert pages[1] not in members
        assert any(m.startswith(pages[1]) for m in members)
        for i in range(5):
            assert db.get(f"k{i}") == f"v{i}"
        db.write("after", "yes")
        assert db.get("after") == "yes"

    def test_log_store_replacement_keeps_quorum_safe(self):
        """Replacing a log store runs the epoch-fenced membership dance
        against the 2/3 quorum and must leave data intact."""
        cluster = AuroraCluster.build(seed=31, backend="taurus")
        db = Session(cluster.writer)
        for i in range(4):
            db.write(f"k{i}", f"v{i}")
        logs = [
            p.segment_id
            for p in cluster.metadata.segments_of_pg(0)
            if p.kind is SegmentKind.LOG
        ]
        cluster.failures.crash_node(logs[0])
        db.drive(cluster.replace_segment(0, logs[0]))
        for i in range(4):
            assert db.get(f"k{i}") == f"v{i}"
        db.write("post-repair", "ok")
        cluster.crash_writer()
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        assert db.get("post-repair") == "ok"

    def test_write_amplification_is_three_not_six(self):
        """The headline Taurus economy: each redo batch fans out to the
        three log stores only; page stores learn via gossip."""
        replication = resolve_backend("taurus").replication()
        assert replication.sync_write_copies == 3
        aurora = resolve_backend("aurora").replication()
        assert aurora.sync_write_copies == 6


# ----------------------------------------------------------------------
# Contract 7: integrity under silent corruption
class TestIntegrityContract:
    """Every backend must detect injected silent corruption, never serve
    it to a reader, and repair it from surviving copies (see DESIGN.md
    section 12).  The fleet runs with read-time verification, record
    scrub, quorum-vote repair, and the integrity ledger armed -- the same
    machinery the `--integrity` audit gates on."""

    def _inject_one(self, cluster, db) -> None:
        """Land one corruption on a fresh mid-chain victim (a pinned read
        view keeps the GC floor below it; see tests/test_integrity.py)."""
        failures = cluster.failures
        injectors = (
            failures.bit_rot, failures.lost_write, failures.misdirected_write,
        )
        for attempt in range(20):
            view = cluster.writer.open_view()
            try:
                for i in range(4):
                    db.write(f"victim{attempt}.{i}", f"v{attempt}.{i}")
                for i in range(4):
                    db.write(f"victim{attempt}.{i}", f"w{attempt}.{i}")
                cluster.run_for(30.0)
                corruption = failures.inject_anywhere(
                    injectors[attempt % len(injectors)]
                )
            finally:
                cluster.writer.close_view(view)
            if corruption is not None:
                return
            cluster.run_for(120.0)
        raise AssertionError("injector found no eligible victim")

    def test_corruption_repaired_and_never_served(self, backend):
        cluster = integrity_cluster(backend, seed=7)
        db = Session(cluster.writer)
        expected = {}
        for i in range(10):
            db.write(f"k{i}", f"v{i}")
            expected[f"k{i}"] = f"v{i}"
        integrity = cluster.failures.integrity_probe
        self._inject_one(cluster, db)
        assert integrity.open_count() >= 1
        for _ in range(60):
            if integrity.open_count() == 0:
                break
            cluster.run_for(500.0)
        assert integrity.open_count() == 0, integrity.open_records()
        assert integrity.corrupt_reads_served == 0
        for key, value in expected.items():
            assert db.get(key) == value
