"""End-to-end integrity: silent corruption, verification, and repair.

Covers the DESIGN.md section 12 machinery at three levels:

- segment/chain units: the general corruption-injection API, record
  scrub, verified coalescing, and ship-path verification;
- storage-node fleets: read-time interception (a corrupt version is
  never served), the quorum vote under peer crashes, and the baseline
  rehydration fallback for records no peer can restore;
- whole clusters: each injector kind is detected and repaired under a
  live workload on both storage backends, the corruption bookkeeping
  reconciles entries destroyed by GC, and the integrity chaos mix draws
  all four corruption kinds;
- verification by construction: a stored image is hashed only once it
  was replaced, and damage to a version nothing has looked at is caught.
"""

from __future__ import annotations

import pytest

from repro import AuroraCluster
from repro.audit import Auditor
from repro.audit import integrity as integrity_module
from repro.audit.integrity import EXPOSURE_WINDOW
from repro.core.epochs import EpochStamp
from repro.db.instance import InstanceConfig
from repro.db.session import Session
from repro.errors import CorruptVersionError
from repro.sim.chaos import CHAOS, INTEGRITY, STORAGE_TARGET, ChaosSchedule
from repro.storage import page as page_module
from repro.storage import segment as segment_module
from repro.storage.messages import ReadBlockRequest, ReadBlockResponse
from repro.storage.node import StorageNode
from repro.storage.page import BlockVersionChain
from repro.storage.segment import Segment, SegmentKind

from .conftest import (
    batch,
    build_fleet,
    crash_and_recover,
    integrity_cluster,
    make_record,
)


def feed_all(network, nodes, records, pgmrpl=0):
    for name in nodes:
        network.send("db", name, batch(records, pgmrpl=pgmrpl))


# ----------------------------------------------------------------------
# The general corruption-injection API (and its back-compat shim)
# ----------------------------------------------------------------------
class TestCorruptionApi:
    def _chain(self):
        chain = BlockVersionChain(0)
        for lsn in (1, 2, 3):
            chain.append(lsn, {"k": lsn})
        return chain

    def test_corrupt_version_targets_specific_lsn(self):
        chain = self._chain()
        chain.corrupt_version(2)
        by_lsn = {v.lsn: v for v in chain.versions}
        assert not by_lsn[2].verify()
        assert by_lsn[1].verify() and by_lsn[3].verify()

    def test_corrupt_version_defaults_to_newest(self):
        chain = self._chain()
        chain.corrupt_version()
        assert not max(chain.versions, key=lambda v: v.lsn).verify()

    def test_valid_checksum_corruption_passes_local_verification(self):
        chain = self._chain()
        chain.corrupt_version(2, valid_checksum=True)
        damaged = next(v for v in chain.versions if v.lsn == 2)
        # The image changed but the checksum was recomputed over the
        # bogus content: only a cross-peer vote can expose this.
        assert damaged.verify()
        assert damaged.image != {"k": 2}


# ----------------------------------------------------------------------
# Record scrub, verified coalescing, ship-path verification
# ----------------------------------------------------------------------
class TestRecordIntegrity:
    def _segment(self):
        seg = Segment("s", 0)
        for lsn in (1, 2, 3):
            seg.receive(make_record(lsn, lsn - 1))
        return seg

    def test_scrub_records_detects_bit_rot(self):
        seg = self._segment()
        assert seg.scrub_records() == []
        seg.corrupt_record(2)
        assert seg.scrub_records() == [2]
        assert seg.stats["record_scrub_failures"] == 1

    def test_coalesce_stalls_below_corrupt_record(self):
        seg = self._segment()
        seg.corrupt_record(2)
        applied = seg.coalesce()
        assert applied == 1
        assert seg.coalesced_upto == 1
        assert 2 in seg.corrupt_record_lsns
        # The stall never materializes the rotted payload.
        assert seg.blocks[0].latest_lsn == 1

    def test_read_refuses_while_corrupt_record_blocks_the_point(self):
        seg = self._segment()
        seg.corrupt_record(2)
        with pytest.raises(CorruptVersionError):
            seg.read_version(0, 3)

    def test_records_after_withholds_corrupt_records(self):
        seg = self._segment()
        seg.corrupt_record(2)
        shipped = [r.lsn for r in seg.records_after(0)]
        # The rotted record is withheld from gossip/baseline shipping and
        # flagged for repair, instead of propagating to a lagging peer.
        assert shipped == [1, 3]
        assert 2 in seg.corrupt_record_lsns

    def test_restore_record_clears_corruption_and_unstalls(self):
        seg = self._segment()
        clean = seg.record_at(2)
        seg.corrupt_record(2)
        seg.coalesce()
        assert seg.coalesced_upto == 1
        assert seg.restore_record(clean)
        assert 2 not in seg.corrupt_record_lsns
        seg.coalesce()
        assert seg.coalesced_upto == 3
        assert seg.read_version(0, 3).image == {"k": 3}


# ----------------------------------------------------------------------
# Read-time interception: a corrupt version is never served
# ----------------------------------------------------------------------
class TestReadInterception:
    def test_corrupt_version_intercepted_and_repaired_inline(self):
        loop, network, _m, nodes, instance = build_fleet()
        records = [make_record(i, i - 1) for i in range(1, 4)]
        feed_all(network, nodes, records)
        loop.run(until=50.0)
        for node in nodes.values():
            node.segment.coalesce()
        victim = nodes["seg0"]
        victim.segment.blocks[0].corrupt_version(3)
        future = network.rpc(
            "db", "seg0",
            ReadBlockRequest(
                pg_index=0, block=0, read_point=3, epochs=EpochStamp()
            ),
        )
        loop.run(until=2_000.0)
        assert victim.counters["reads_intercepted"] >= 1
        # The reply is either the repaired clean image or a rejection
        # (driver reroutes) -- never the corrupt bytes.
        assert future.done and future.exception() is None
        reply = future.result()
        assert isinstance(reply, ReadBlockResponse)
        assert dict(reply.image) == {"k": 3}
        assert victim.segment.read_version(0, 3).image == {"k": 3}

    def test_vote_round_survives_peer_crash(self):
        loop, network, _m, nodes, instance = build_fleet()
        records = [make_record(i, i - 1) for i in range(1, 4)]
        feed_all(network, nodes, records)
        loop.run(until=50.0)
        for node in nodes.values():
            node.segment.coalesce()
        network.fail_node("seg1")
        network.fail_node("seg2")
        victim = nodes["seg0"]
        victim.segment.blocks[0].corrupt_version(3)
        network.rpc(
            "db", "seg0",
            ReadBlockRequest(
                pg_index=0, block=0, read_point=3, epochs=EpochStamp()
            ),
        )
        loop.run(until=3_000.0)
        # Crashed peers simply never vote; the surviving majority still
        # repairs, and the client still gets the clean image.
        assert victim.segment.read_version(0, 3).image == {"k": 3}

    def test_scrub_reply_ignores_failed_future(self):
        """Regression: a vote RPC whose future completed with an exception
        (peer crashed mid-RPC) casts no ballot; it must not raise out of
        the callback."""
        loop, network, _m, nodes, _instance = build_fleet()

        class FailedFuture:
            def exception(self):
                return RuntimeError("peer crashed mid-RPC")

            def result(self):
                raise AssertionError(
                    "result() must not be called on a failed future"
                )

        state = {"responses": [], "expected": 1}
        nodes["seg0"]._on_vote_reply(state, FailedFuture())  # must not raise
        assert state["responses"] == []


# ----------------------------------------------------------------------
# The vote window's floor: content at one read point, not a version LSN
# ----------------------------------------------------------------------
class TestFloorVote:
    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    @pytest.mark.parametrize("block_kind", ["leaf", "status_page"])
    def test_rotted_floor_version_caught_by_recovery_is_repaired(
        self, backend, block_kind
    ):
        """A block's newest version rots, a writer crash-recovery reads it
        (quarantine), and the read floor has passed it: the version is at
        the vote window's floor, where no LSN ballot reaches.  The floor
        ballot repairs it within 15 scrub intervals."""
        cluster = integrity_cluster(backend)
        db = Session(cluster.writer)
        for i in range(30):
            db.write(f"k{i:02d}", i)
        cluster.run_for(100.0)
        node = next(
            node for _name, node in sorted(cluster.nodes.items())
            if node.segment.blocks
        )
        seg = node.segment
        if block_kind == "leaf":
            block = cluster.writer.root_leaf_block
        else:
            (block,) = cluster.writer._txn_pages
        chain = seg.blocks[block]
        lsn = chain.corrupt_version()
        db = crash_and_recover(cluster)
        lo, _hi = seg.vote_window()
        assert lsn <= lo
        version = chain.version(lsn)
        if not version.verify():
            # Recovery read another copy (a Taurus page store has one
            # peer): read this one, as the next reader here would.
            with pytest.raises(CorruptVersionError):
                seg.read_version(block, lo)
        assert seg.stats["versions_quarantined"] >= 1
        for _ in range(15):
            if version.verify() and not version.quarantined:
                break
            cluster.run_for(node.config.scrub_interval)
        assert version.verify()
        assert not version.quarantined
        assert node.counters["vote_repairs"] >= 1
        for i in range(30):
            assert db.get(f"k{i:02d}") == i

    def test_tally_reads_the_point_the_request_carried(self):
        """The floor moves while a floor ballot is in flight: the peers
        answered about the point the request carried, so the tally reads
        that point, not the current floor."""
        loop, network, _m, nodes, _instance = build_fleet()
        feed_all(network, nodes, [make_record(i, i - 1) for i in range(1, 4)])
        loop.run(until=50.0)
        for node in nodes.values():
            node.segment.coalesce()
            node.segment.advance_gc_floor(3)
        victim = nodes["seg0"]
        chain = victim.segment.blocks[0]
        chain.corrupt_version(3)
        assert victim._start_vote([0], (), lambda repairs, replies: None)
        victim.segment.advance_gc_floor(5)
        loop.run(until=1_000.0)
        assert victim.counters["vote_repairs"] == 1
        assert chain.version(3).verify()
        assert chain.latest_image() == {"k": 3}


# ----------------------------------------------------------------------
# The judge catches a broken repair (planted mutants)
# ----------------------------------------------------------------------
class TestJudgeCatchesBrokenRepair:
    @pytest.mark.parametrize("never_votes", [False, True])
    def test_rot_no_vote_repairs_is_flagged_past_budget(
        self, monkeypatch, never_votes
    ):
        """``integrity-unrepaired-past-budget``, planted: a node that never
        votes leaves a rotted version rotted.  The judge keeps the record
        open because it compares the stored *image* with the corruption
        (bit rot leaves the recorded checksum clean), and flags it once
        the exposure budget has passed."""
        if never_votes:
            monkeypatch.setattr(
                StorageNode, "_start_vote", lambda self, *args: False
            )
        cluster = integrity_cluster()
        integrity = cluster.failures.integrity_probe
        integrity.auditor = Auditor()
        db = Session(cluster.writer)
        for i in range(12):
            db.write(f"k{i}", f"v{i}")
        cluster.run_for(100.0)
        name, node = next(
            (name, node) for name, node in sorted(cluster.nodes.items())
            if node.segment.blocks
        )
        block = cluster.writer.root_leaf_block
        chain = node.segment.blocks[block]
        lsn = chain.corrupt_version()  # the newest: GC never drops it
        corruption = integrity.inject(
            "bit_rot", name, block, lsn, chain.version(lsn)
        )
        cluster.run_for(EXPOSURE_WINDOW.limit_ms + 1_000.0)
        flagged = integrity.audit_unrepaired(EXPOSURE_WINDOW.limit_ms)
        invariants = [v.invariant for v in integrity.auditor.violations]
        if never_votes:
            assert flagged == [corruption]
            assert invariants == ["integrity-unrepaired-past-budget"]
        else:
            assert not corruption.open and invariants == []


    @pytest.mark.parametrize("ballot", ["floor", "lsn"])
    @pytest.mark.parametrize("vouches_unverified", [False, True])
    def test_a_corrupt_copy_winning_a_ballot_is_flagged(
        self, monkeypatch, ballot, vouches_unverified
    ):
        """``integrity-repair-propagated-corruption``, planted: voters that
        vouch for their versions without verifying them.  Every copy of
        version 3 has rotted the same way, so each peer ships its corrupt
        image under the clean recorded checksum; the requester adopts it,
        and the judge, which hashes the adopted image, flags it.  Honest
        voters vouch for no corrupt image, so none is adopted; nor do they
        count as lacking version 3, so it is not dropped either, and a
        read at its point refuses rather than serve version 2."""
        loop, network, _m, nodes, _instance = build_fleet()
        feed_all(network, nodes, [make_record(i, i - 1) for i in range(1, 4)])
        loop.run(until=50.0)
        judge = integrity_module.IntegrityLog(loop, Auditor())
        for name, node in sorted(nodes.items()):
            segment = node.segment
            segment.coalesce()
            if ballot == "floor":
                segment.advance_gc_floor(3)  # window (3, 3]: version 3
            node.attach_integrity_probe(judge)
            chain = segment.blocks[0]
            chain.corrupt_version(3)
            judge.inject("bit_rot", name, 0, 3, chain.version(3))
        if vouches_unverified:
            answer_vote = Segment.answer_vote

            def vouching_unverified(segment, *args):
                with monkeypatch.context() as patched:
                    patched.setattr(
                        page_module.BlockVersion, "verify", lambda v: True
                    )
                    return answer_vote(segment, *args)

            monkeypatch.setattr(Segment, "answer_vote", vouching_unverified)
        victim = nodes["seg0"]
        assert victim._start_vote([0], (), lambda repairs, replies: None)
        loop.run(until=1_000.0)
        invariants = {v.invariant for v in judge.auditor.violations}
        if vouches_unverified:
            assert victim.counters["vote_repairs"] == 1
            assert invariants == {"integrity-repair-propagated-corruption"}
        else:
            assert invariants == set()
            assert victim.counters["vote_repairs"] == 0
            assert victim.segment.blocks[0].version(3) is not None
            with pytest.raises(CorruptVersionError):
                victim.segment.read_block(0, 3)


# ----------------------------------------------------------------------
# Baseline rehydration fallback: records no peer can restore
# ----------------------------------------------------------------------
class TestRehydrationFallback:
    def test_unrecoverable_record_unwedged_by_baseline(self):
        """A corrupt hot-log record whose clean copies every peer has
        already GC'd can never be restored by vote; after two dry rounds
        the node rehydrates a coalesced baseline in place and resumes."""
        loop, network, _m, nodes, _instance = build_fleet(
            background=True, scrub_interval=400.0
        )
        records = [make_record(i, i - 1) for i in range(1, 4)]
        feed_all(network, nodes, records)
        # Records are delivered (sub-ms latency) but the first coalesce
        # tick (10ms) has not fired yet: the rot lands pre-materialization.
        loop.run(until=2.0)
        victim = nodes["seg0"]
        victim.segment.corrupt_record(2)
        # Peers materialize, back up, and GC their hot logs entirely:
        # no clean copy of record 2 survives anywhere.
        for name, node in nodes.items():
            if name == "seg0":
                continue
            seg = node.segment
            seg.coalesce()
            seg.mark_backed_up(3)
            seg.advance_gc_floor(3)
            seg.garbage_collect()
            assert seg.record_at(2) is None
        # The read floor has moved past the stall (as PGMRPL updates do
        # in a live cluster): the wedge is now exactly seed-shaped --
        # coalesce pinned below the rot, no peer able to restore it.
        victim.segment.advance_gc_floor(3)
        assert victim.segment.coalesce() == 1  # stalls below the rot
        loop.run(until=30_000.0)
        seg = victim.segment
        assert seg.coalesced_upto >= 3
        assert 2 not in seg.corrupt_record_lsns
        assert seg.read_version(0, 3).image == {"k": 3}


# ----------------------------------------------------------------------
# Cluster-level: every injector kind repaired under a live workload
# ----------------------------------------------------------------------
def _inject_with_fresh_writes(cluster, db, inject, attempts=20):
    """Write fresh victims, then inject while a pinned read view holds
    the GC floor below them (the injectors refuse victims no instance
    could ever read; PGMRPL is the minimum open read point, so an open
    view keeps the floor from riding past the new records).  Each key is
    written twice so the earlier version sits mid-chain -- lost and
    misdirected writes only accept such victims -- and a short quiet run
    lets coalesce materialize the chains before the draw."""
    for attempt in range(attempts):
        view = cluster.writer.open_view()
        try:
            for i in range(4):
                db.write(f"fresh{attempt}.{i}", f"v{attempt}.{i}")
            for i in range(4):
                db.write(f"fresh{attempt}.{i}", f"w{attempt}.{i}")
            cluster.run_for(30.0)
            corruption = inject()
        finally:
            cluster.writer.close_view(view)
        if corruption is not None:
            return corruption
        cluster.run_for(120.0)
    raise AssertionError("injector found no eligible victim")


class TestClusterRepair:
    @pytest.mark.parametrize(
        "kind", ["bit_rot", "lost_write", "misdirected_write", "torn_write"]
    )
    def test_injected_corruption_detected_and_repaired(self, kind):
        cluster = integrity_cluster()
        db = Session(cluster.writer)
        expected = {}
        for i in range(12):
            db.write(f"k{i}", f"v{i}")
            expected[f"k{i}"] = f"v{i}"
        failures = cluster.failures
        integrity = failures.integrity_probe
        _inject_with_fresh_writes(
            cluster, db,
            lambda: failures.inject_anywhere(getattr(failures, kind)),
        )
        assert integrity.open_count() >= 1
        for _ in range(40):
            if integrity.open_count() == 0:
                break
            cluster.run_for(500.0)
        assert integrity.open_count() == 0, (
            f"unrepaired after settling: {integrity.open_records()}"
        )
        assert integrity.corrupt_reads_served == 0
        for key, value in expected.items():
            assert db.get(key) == value

    def test_reconcile_closes_corruption_destroyed_by_gc(self):
        """GC can drop a rotted record (its redo was already applied)
        without any repair hook firing; the reconcile sweep must close
        the book entry instead of counting it unrepaired forever."""
        cluster = integrity_cluster()
        db = Session(cluster.writer)
        for i in range(6):
            db.write(f"k{i}", f"v{i}")
        integrity = cluster.failures.integrity_probe
        name, node = next(iter(sorted(cluster.nodes.items())))
        seg = node.segment
        eligible = [lsn for lsn in seg.hot_log_lsns()
                    if lsn > seg.gc_horizon]
        assert eligible, "no hot-log records to corrupt"
        lsn = eligible[0]
        block = seg.record_at(lsn).block
        seg.corrupt_record(lsn)
        record = integrity.inject("bit_rot_record", name, block, lsn)
        # Destroy the rotted bytes outside the repair path, as GC would.
        pos = seg._lsn_index.index(lsn)
        del seg._lsn_index[pos]
        del seg._records[pos]
        del seg._digests[pos]
        seg._corrupt_record_lsns.discard(lsn)
        closed = integrity.reconcile({name: node})
        assert closed == 1
        assert not record.open
        assert integrity.open_count() == 0


# ----------------------------------------------------------------------
# Verification by construction: an image is hashed only once replaced
# ----------------------------------------------------------------------
def _count_image_hashes(monkeypatch) -> list:
    """Every ``image_checksum`` call from here on, counted."""
    calls = []
    real = page_module.image_checksum

    def counted(image):
        calls.append(None)
        return real(image)

    for module in (page_module, segment_module, integrity_module):
        monkeypatch.setattr(module, "image_checksum", counted)
    return calls


def _stated(node) -> set[tuple[int, int]]:
    """The ``(block, lsn)`` versions of ``node`` with verification state."""
    return {
        (block, lsn)
        for block, chain in node.segment.blocks.items()
        for lsn in chain._checksums or ()
    }


class TestVerificationByConstruction:
    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    def test_steady_state_reads_and_scrubs_hash_no_image(
        self, backend, monkeypatch
    ):
        """A replica whose pool is too small for its index reads from
        storage, and the scrubber runs three passes: no stored image was
        replaced, so nothing is hashed."""
        cluster = AuroraCluster.build(
            seed=1, backend=backend, replica=InstanceConfig(cache_capacity=8)
        )
        replica = cluster.add_replica()
        db = cluster.session()
        keys = [f"key{i:05d}" for i in range(300)]
        for low in range(0, len(keys), 50):
            txn = db.begin()
            for key in keys[low:low + 50]:
                db.put(txn, key, f"v-{key}")
            db.commit(txn)
        cluster.run_for(100.0)
        nodes = cluster.nodes.values()
        answered = sum(n.counters["reads_answered"] for n in nodes)
        scrubs = {n.name: n.counters["scrub_runs"] for n in nodes}
        calls = _count_image_hashes(monkeypatch)
        reader = Session(replica)
        for key in keys:
            assert reader.get(key) == f"v-{key}"
        while min(n.counters["scrub_runs"] - scrubs[n.name] for n in nodes) < 3:
            cluster.run_for(100.0)
        assert sum(n.counters["reads_answered"] for n in nodes) > answered
        assert len(calls) == 0

    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    @pytest.mark.parametrize(
        "kind", ["bit_rot", "torn_write", "lost_write", "misdirected_write"]
    )
    def test_damage_to_a_version_nothing_looked_at_is_caught(
        self, kind, backend
    ):
        """Each corruption kind lands on a version that has no
        verification state yet and is still caught: bit rot by local
        verification (the image setter recorded the clean checksum), the
        others by the record digests or the vote, and nothing corrupt is
        served on the way to the repair."""
        cluster = integrity_cluster(backend)
        db = Session(cluster.writer)
        for i in range(12):
            db.write(f"k{i}", f"v{i}")
        failures = cluster.failures
        integrity = failures.integrity_probe
        unseen = {}

        def inject(name):
            node = cluster.nodes[name]
            before = _stated(node)
            if kind == "bit_rot":  # the block-version flavour
                corruption = failures._rot_version(node)
            else:
                corruption = getattr(failures, kind)(name)
            if corruption is not None:
                unseen[name] = (corruption.block, corruption.lsn) not in before
            return corruption

        corruption = _inject_with_fresh_writes(
            cluster, db, lambda: failures.inject_anywhere(inject)
        )
        assert unseen[corruption.node]
        if kind == "bit_rot":
            chain = cluster.nodes[corruption.node].segment.blocks[
                corruption.block
            ]
            assert not chain.version(corruption.lsn).verify()
            assert corruption.lsn in chain.scrub()
        for _ in range(40):
            if integrity.open_count() == 0:
                break
            cluster.run_for(500.0)
        assert integrity.open_count() == 0, integrity.open_records()
        assert corruption.detected_at is not None
        assert integrity.corrupt_reads_served == 0


# ----------------------------------------------------------------------
# Taurus edges: the log/page split under corruption
# ----------------------------------------------------------------------
class TestTaurusIntegrity:
    def _log_and_page_stores(self, cluster):
        logs = sorted(
            n for n, node in cluster.nodes.items()
            if node.segment.kind is SegmentKind.LOG
        )
        pages = sorted(
            n for n, node in cluster.nodes.items()
            if node.segment.kind is SegmentKind.FULL
        )
        return logs, pages

    def test_log_record_rot_never_reaches_page_stores(self):
        """A rotted redo record on a log store must not be shipped to the
        asynchronously-draining page stores, which would materialize it
        under a valid image checksum."""
        cluster = integrity_cluster(backend="taurus")
        db = Session(cluster.writer)
        logs, pages = self._log_and_page_stores(cluster)
        expected = {}

        def rot_a_log_record():
            seg = cluster.nodes[logs[0]].segment
            eligible = [lsn for lsn in seg.hot_log_lsns()
                        if lsn > max(seg.gc_horizon, seg.gc_floor)]
            if not eligible:
                return None
            lsn = eligible[-1]
            mangled = seg.corrupt_record(lsn)
            return cluster.failures.integrity_probe.inject(
                "bit_rot_record", logs[0], mangled.block, lsn
            )

        for i in range(8):
            db.write(f"k{i}", f"v{i}")
            expected[f"k{i}"] = f"v{i}"
        _inject_with_fresh_writes(cluster, db, rot_a_log_record)
        integrity = cluster.failures.integrity_probe
        for _ in range(40):
            if integrity.open_count() == 0:
                break
            cluster.run_for(500.0)
        assert integrity.open_count() == 0
        # Page stores never materialized the rotted payload: every
        # committed value reads back correct (reads route to them).
        for key, value in expected.items():
            assert db.get(key) == value
        for name in pages:
            seg = cluster.nodes[name].segment
            for chain in seg.blocks.values():
                for version in chain.versions:
                    assert version.verify()

    def test_page_store_divergence_broken_by_log_tail_replay(self):
        """With only two page stores, a misdirected write on one creates
        a 1-1 structural tie; a log store's on-demand materialization of
        its tail must break it in favour of the clean copy."""
        cluster = integrity_cluster(backend="taurus")
        db = Session(cluster.writer)
        _logs, pages = self._log_and_page_stores(cluster)
        expected = {}
        for i in range(10):
            db.write(f"k{i}", f"v{i}")
            expected[f"k{i}"] = f"v{i}"
        cluster.run_for(600.0)  # let the page stores drain + coalesce
        integrity = cluster.failures.integrity_probe
        _inject_with_fresh_writes(
            cluster, db,
            lambda: cluster.failures.misdirected_write(pages[0]),
        )
        for _ in range(40):
            if integrity.open_count() == 0:
                break
            cluster.run_for(500.0)
        assert integrity.open_count() == 0, (
            f"unrepaired: {integrity.open_records()}"
        )
        assert integrity.corrupt_reads_served == 0
        for key, value in expected.items():
            assert db.get(key) == value


# ----------------------------------------------------------------------
# Chaos schedule determinism: the integrity mix, and legacy mixes
# replaying byte-identically (the general form over every mix and kind
# is tests/test_audit_invariants.py's property)
# ----------------------------------------------------------------------
class TestChaosDeterminism:
    NODES = [f"pg0-{c}" for c in "abcdef"]
    AZS = {
        "az1": {"pg0-a", "pg0-d"},
        "az2": {"pg0-b", "pg0-e"},
        "az3": {"pg0-c", "pg0-f"},
    }

    def test_disabled_integrity_kinds_draw_nothing(self):
        """The silent-corruption kinds draw last and only in a mix that
        names them: a schedule from the default mix is event-for-event
        identical to the non-storage prefix of one that adds them."""
        enabled = CHAOS.joined({
            "bit_rot": 900.0,
            "torn_write": 4000.0,
            "lost_write": 2500.0,
            "misdirected_write": 2800.0,
        })
        for seed in range(6):
            legacy = ChaosSchedule.generate(
                seed, self.NODES, self.AZS, 20_000.0, mix=CHAOS
            )
            with_storage = ChaosSchedule.generate(
                seed, self.NODES, self.AZS, 20_000.0, mix=enabled
            )
            assert legacy.events == [
                e for e in with_storage.events
                if e.target != STORAGE_TARGET
            ]

    def test_integrity_profile_draws_all_four_kinds(self):
        schedule = ChaosSchedule.generate(
            3, self.NODES, self.AZS, 30_000.0, mix=INTEGRITY
        )
        kinds = {e.kind for e in schedule.events if e.target == STORAGE_TARGET}
        assert kinds == {
            "bit_rot", "torn_write", "lost_write", "misdirected_write",
        }

    def test_schedule_reproducible_for_seed(self):
        a = ChaosSchedule.generate(
            7, self.NODES, self.AZS, 20_000.0, mix=INTEGRITY
        )
        b = ChaosSchedule.generate(
            7, self.NODES, self.AZS, 20_000.0, mix=INTEGRITY
        )
        assert a.events == b.events
