"""Block images are immutable and shared across copies (DESIGN.md section 8).

A record's redo runs once -- when the writer stages the change -- and the
same image goes to the writer's cache and, through ``apply_redo``, to every
segment of the protection group; from there it moves by reference -- in a
read reply to a replica's or a reloading writer's cache, in a baseline, a
scrub repair or a vote answer to another copy's chain -- and is never
re-derived.  These tests pin that the sharing actually happens, that
nothing anywhere edits a shared image in place, and that damage or repair
on one copy stays on that copy.
"""

import importlib.util
from collections import Counter
from pathlib import Path
from types import MappingProxyType

import pytest

from repro import AuroraCluster
from repro.audit import PROFILES, AuditRunConfig, run_audit
from repro.core.lsn import LSNAllocator
from repro.core.records import (
    EMPTY_IMAGE,
    BlockDelete,
    BlockPut,
    BlockReplace,
    CommitPayload,
    ControlPayload,
    ElidedPayload,
    LogRecord,
    Overlay,
    RecordKind,
    apply_redo,
    seed_redo,
)
from repro.db.instance import InstanceConfig
from repro.db.mtr import ChainState, MTRBuilder
from repro.storage import node as node_module
from repro.storage.page import BlockVersion, BlockVersionChain
from repro.storage.segment import Segment

from .conftest import integrity_cluster

PAYLOAD_TYPES = (
    BlockPut, BlockDelete, BlockReplace, CommitPayload, ControlPayload,
    ElidedPayload,
)

#: ``make ledger-heap``'s tool, for the count of images only a memo holds.
TOOL = Path(__file__).resolve().parent.parent / "tools" / "heap_sites.py"
spec = importlib.util.spec_from_file_location("heap_sites", TOOL)
heap_sites = importlib.util.module_from_spec(spec)
spec.loader.exec_module(heap_sites)


class TestHeapTable:
    """The tool's live image bytes by block kind: a block is classified by
    its number (META, the status-page directory) or its image's
    ``"type"``, and every overlay node of an image's chain is an object."""

    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    def test_images_and_objects_per_kind_on_a_small_world(self, backend):
        totals = {}
        for gc_interval in (1e9, 200.0):
            cluster = AuroraCluster.build(
                seed=3, backend=backend, gc_interval=gc_interval
            )
            db = cluster.session()
            for i in range(30):
                db.write(f"r{i % 5}", i)
            cluster.run_for(1_000)
            for node in cluster.nodes.values():
                node.segment.coalesce()
            totals[gc_interval] = heap_sites.image_bytes_by_kind([cluster])
        kept, collected = totals[1e9], totals[200.0]
        # GC off: every copy shares one version per change.  A commit
        # version is a node, over EMPTY_IMAGE; the leaf's are its
        # bootstrap dict and a node or (once flattened) a dict per write.
        assert [kept[kind][:2] for kind in heap_sites.BLOCK_KINDS] == [
            [30, 31], [31, 31], [0, 0], [3, 3],
        ]
        # GC on: one version each is left, and it holds its chain.
        assert [collected[kind][:2] for kind in heap_sites.BLOCK_KINDS] == [
            [1, 31], [1, 7], [0, 0], [1, 3],
        ]
        assert collected["status page"][2] == kept["status page"][2]
        assert 0 < collected["leaf"][2] < kept["leaf"][2]


class TestApplyRedoMemo:
    def record(self, payload=None):
        return LogRecord(
            lsn=5, prev_volume_lsn=4, prev_pg_lsn=4, prev_block_lsn=0,
            block=1, pg_index=0, kind=RecordKind.DATA,
            payload=payload or BlockPut(entries=(("k", 1),)),
        )

    def test_same_base_object_shares_the_image(self):
        record = self.record()
        base = {"a": 0}
        image = apply_redo(record, base)
        assert image == {"a": 0, "k": 1}
        assert apply_redo(record, base) is image

    def counting_record(self):
        """A record whose payload counts its own executions."""
        runs = []

        class CountingPut(BlockPut):
            def apply(self, image):
                runs.append(image)
                return super().apply(image)

        return self.record(CountingPut(entries=(("k", 1),))), runs

    def test_an_equal_but_distinct_base_is_recomputed(self):
        """...and re-converges: the payload *runs* on the distinct base (a
        miss is never answered from the memo), and because its result
        equals the memoised image, the memoised object is what comes
        back -- a fork costs one application, not one per record forever.
        """
        record, runs = self.counting_record()
        first = apply_redo(record, {"a": 0})
        distinct = {"a": 0}
        second = apply_redo(record, distinct)
        assert len(runs) == 2 and runs[1] is distinct
        assert second is first
        # The memo follows the latest base, so that copy now hits.
        assert apply_redo(record, distinct) is first and len(runs) == 2

    def test_a_base_that_differs_by_value_keeps_its_own_image(self):
        """The converse: the payload ran on what the copy really holds, and
        an unequal result is kept and stamped -- never the memoised one."""
        record, runs = self.counting_record()
        clean = apply_redo(record, {"a": 0})
        rotten = apply_redo(record, {"a": "rot"})
        assert len(runs) == 2
        assert rotten == {"a": "rot", "k": 1} and rotten is not clean
        assert record._applied[1] is rotten

    def test_a_diverged_base_never_hits(self):
        record = self.record()
        clean = {"a": 0}
        apply_redo(record, clean)
        assert apply_redo(record, {"a": "rot"}) == {"a": "rot", "k": 1}
        # The memo follows the latest base, and still tells them apart.
        assert apply_redo(record, clean) == {"a": 0, "k": 1}

    def test_a_replaced_record_drops_the_memo(self):
        from dataclasses import replace

        record = self.record()
        base = {}
        apply_redo(record, base)
        mangled = replace(record, payload=BlockPut(entries=(("k", "rot"),)))
        assert apply_redo(mangled, base) == {"k": "rot"}
        assert apply_redo(record, base) == {"k": 1}

    def test_the_empty_image_is_one_read_only_object(self):
        with pytest.raises(TypeError):
            EMPTY_IMAGE["k"] = 1
        chain = Segment("s", 0).chain_for(3)
        assert chain.latest_image() is EMPTY_IMAGE

    def test_a_seeded_memo_is_what_the_payload_returned(self):
        record = self.record()
        base = {"a": 0}
        image = record.payload.apply(base)
        seed_redo(record, base, image)
        assert apply_redo(record, base) is image
        # An equal base that is another object: the payload runs on it
        # (the seed is not taken on trust) and, the results being equal,
        # the seeded image is the one handed back.
        record, runs = self.counting_record()
        image = record.payload.apply(base)
        seed_redo(record, base, image)
        assert apply_redo(record, {"a": 0}) is image
        assert len(runs) == 2

    def test_sealing_seeds_every_staged_change(self):
        mtr = MTRBuilder(txn_id=1)
        payload = BlockPut(entries=(("k", 1),))
        base = {"a": 0}
        image = payload.apply(base)
        mtr.change(1, 0, payload, base=base, image=image)
        mtr.change(2, 0, payload)  # logged without staging: no memo
        staged, plain = mtr.seal(LSNAllocator(), ChainState())
        assert apply_redo(staged, base) is image
        assert getattr(plain, "_applied", None) is None


class TestSharingIsOn:
    def test_one_application_per_record_and_one_image_for_six_copies(
        self, cluster, monkeypatch
    ):
        """After a 200-transaction burst every payload ran exactly once in
        the whole system -- at the writer's staging (commit records: at
        ``commit``) -- and the six segments and the writer hold one image
        object for the hot block's newest version."""
        applied = {}

        def counted(original):
            def apply(payload, image):
                applied[id(payload)] = applied.get(id(payload), 0) + 1
                return original(payload, image)
            return apply

        for payload_type in PAYLOAD_TYPES:
            monkeypatch.setattr(
                payload_type, "apply", counted(payload_type.apply)
            )

        bootstrap = cluster.writer.chains.last_volume_lsn
        db = cluster.session()
        for i in range(200):
            db.write(f"k{i % 8}", i)  # eight keys: no split, one hot leaf
        cluster.run_for(50)

        hot = cluster.writer.root_leaf_block
        segments = [node.segment for node in cluster.nodes.values()]
        assert len(segments) == 6
        for segment in segments:
            segment.coalesce()
        records = [r for r in segments[0]._records if r.lsn > bootstrap]
        assert len(records) >= 400
        assert {applied.get(id(r.payload)) for r in records} == {1}
        assert sum(applied.values()) == len(records)
        newest = {id(s.blocks[hot].latest_image()) for s in segments}
        assert len(newest) == 1
        assert cluster.writer.cache.peek(hot).image is (
            segments[0].blocks[hot].latest_image()
        )

    def test_coalesce_builds_no_version_objects(self, cluster, monkeypatch):
        db = cluster.session()
        for i in range(50):
            db.write(f"k{i % 8}", i)
        cluster.run_for(50)
        built = []
        original = BlockVersion.__init__

        def counting(self, chain, lsn):
            built.append(lsn)
            original(self, chain, lsn)

        monkeypatch.setattr(BlockVersion, "__init__", counting)
        for i in range(50):
            db.write(f"k{i % 8}", i)
        cluster.run_for(50)
        for node in cluster.nodes.values():
            assert node.segment.coalesce() == 0  # the ticks got there first
            assert node.segment.stats["coalesce_applications"] >= 200
        assert built == []


class TestMemoLifetime:
    """A redo memo pins the image its record made and that image's base.
    A segment's GC tick releases the memos of its hot-log records at or
    below ``min(gc_floor, coalesced_upto)`` as it stood at the tick
    before: by then every copy that keeps up has applied the record and
    shared the image, and the version chains may have dropped both."""

    @pytest.fixture(scope="class")
    def burst(self):
        """Six segments after a 1 200-transaction burst, settled, then two
        GC ticks each with nothing in between."""
        cluster = AuroraCluster.build(seed=99)
        db = cluster.session()
        for i in range(1200):
            db.write(f"k{i % 64}", i)
        cluster.run_for(50)
        segments = [node.segment for node in cluster.nodes.values()]
        for _tick in range(2):
            for segment in segments:
                segment.garbage_collect()
        return segments

    def test_no_memo_outlives_the_previous_ticks_bound(self, burst):
        # Nothing moved between the two ticks, so the bound the first one
        # saw is the one each segment shows now.
        released = 0
        for segment in burst:
            bound = min(segment.gc_floor, segment.coalesced_upto)
            for lsn in segment.hot_log_lsns():
                if lsn <= bound:
                    record = segment.record_at(lsn)
                    assert getattr(record, "_applied", None) is None, (
                        f"{segment.segment_id} still holds a memo at {lsn}"
                    )
                    released += 1
        # Backups lag GC, so released records are still in the hot logs.
        assert released > 100

    def test_no_image_is_held_only_by_a_memo(self, burst):
        records = [
            segment.record_at(lsn)
            for segment in burst for lsn in segment.hot_log_lsns()
        ]
        assert len(records) > 100
        assert len(heap_sites.memo_only_images(records)) == 0

    def test_a_copy_down_across_two_ticks_runs_the_payloads_itself(
        self, monkeypatch
    ):
        """...and still ends equal to its peers: without the memo, the
        late copy takes the reference path."""
        inside, ran = [False], [0]

        def counted(original):
            def apply(payload, image):
                ran[0] += inside[0]
                return original(payload, image)
            return apply

        for payload_type in PAYLOAD_TYPES:
            monkeypatch.setattr(
                payload_type, "apply", counted(payload_type.apply)
            )
        # Rare backups keep the records the copy missed in its peers' hot
        # logs, so it catches up by gossip, not from a baseline.
        cluster = AuroraCluster.build(seed=99, backup_interval=10_000.0)
        db = cluster.session()
        for i in range(100):
            db.write(f"k{i % 64}", i)
        cluster.run_for(50)
        name = "pg0-c"
        victim = cluster.nodes[name].segment
        peers = [
            node.segment for other, node in cluster.nodes.items()
            if other != name
        ]
        cluster.failures.crash_node(name)
        for i in range(300):
            db.write(f"k{i % 64}", f"v{i}")
        cluster.run_for(600)  # at least two GC ticks on every peer

        coalesce = victim.coalesce

        def coalescing(upto=None):
            inside[0] = True
            try:
                return coalesce(upto)
            finally:
                inside[0] = False

        monkeypatch.setattr(victim, "coalesce", coalescing)
        stats = victim.stats
        before = dict(stats)
        cluster.failures.restore_node(name)
        cluster.run_for(500)
        gossiped = stats["records_gossiped_in"] - before["records_gossiped_in"]
        applied = (
            stats["coalesce_applications"] - before["coalesce_applications"]
        )
        assert gossiped == applied >= 600
        assert ran[0] == applied
        assert victim.scrub() == [] and victim.scrub_records() == []

        def latest(segment):
            return {
                block: dict(chain.latest_image())
                for block, chain in segment.blocks.items()
            }

        for peer in peers:
            assert victim.scl == peer.scl
            assert latest(victim) == latest(peer)


class TestReconvergenceCannotMaskDivergence:
    """By-value re-convergence adopts the memoised image only after the
    payload has run on what the copy really holds and produced an equal
    result.  A copy whose base really differs keeps its own, different
    image, and the integrity vote sees and repairs it as before."""

    def damaged_then_written(self, monkeypatch, redo=None):
        """One copy takes a misdirected write (valid checksum, so local
        verification passes) on the hot leaf, then every copy coalesces
        more redo on top.  Returns (cluster, victim, peers, hot, lsn)."""
        from repro.storage import page as page_module

        if redo is not None:
            monkeypatch.setattr(page_module, "apply_redo", redo)
        cluster = AuroraCluster.build(seed=11)
        # An open view pins the GC floor, so what follows stays inside the
        # window the cross-peer vote can arbitrate.
        cluster.writer.open_view()
        db = cluster.session()
        for i in range(20):
            db.write(f"k{i % 8}", i)
        cluster.run_for(50)
        segments = [node.segment for node in cluster.nodes.values()]
        for segment in segments:
            segment.coalesce()
        hot = cluster.writer.root_leaf_block
        victim, peers = segments[0], segments[1:]
        lsn = victim.blocks[hot].corrupt_version(valid_checksum=True)
        assert victim.scrub() == []  # self-consistent: only a vote can tell
        for i in range(20, 30):
            db.write(f"k{i % 8}", i)
        cluster.run_for(50)
        for segment in segments:
            segment.coalesce()
        return cluster, victim, peers, hot, lsn

    def test_a_really_different_base_keeps_its_own_image(self, monkeypatch):
        cluster, victim, peers, hot, lsn = self.damaged_then_written(
            monkeypatch
        )
        newest = victim.blocks[hot].latest_image()
        assert newest.get("__corrupted__") is True
        clean = cluster.writer.cache.peek(hot).image
        for peer in peers:
            assert peer.blocks[hot].latest_image() == clean != newest
        # ...and the cross-peer content vote repairs every version the
        # damage reached, with a voter's own object each time.
        cluster.run_for(12_000)
        assert cluster.nodes[victim.segment_id].counters["vote_repairs"] >= 1
        damaged = victim.blocks[hot].versions_in(lsn - 1)
        assert len(damaged) >= 2
        for version in damaged:
            assert any(
                version.image is peer.blocks[hot].version(version.lsn).image
                for peer in peers
            )

    def test_adopting_the_memo_without_comparing_is_caught(self, monkeypatch):
        def adopt_blindly(record, base):
            memo = getattr(record, "_applied", None)
            return memo[1] if memo is not None else apply_redo(record, base)

        _cluster, victim, peers, hot, _lsn = self.damaged_then_written(
            monkeypatch, redo=adopt_blindly
        )
        # The mutant papers over the damaged base: the copy's newer
        # versions look clean, which is what the test above forbids.
        newest = victim.blocks[hot].latest_image()
        assert "__corrupted__" not in newest
        assert newest is peers[0].blocks[hot].latest_image()


class TestReadsCarryReferences:
    """A ``replica_read``-shaped run: writers with multi-put transactions
    beside replica readers whose 64-block caches keep missing, then one
    writer cache reload.  Every image that reaches a cache from a storage
    read is the object a segment's chain holds, so redo applied on top of
    it hits the memo like everybody else's, and no payload runs outside the
    writer -- except across a shipped stand-in, until the lineage
    re-converges at the end of that write batch."""

    KEYS = [f"key{i:04d}" for i in range(800)]

    def run(self, monkeypatch, wire_compression):
        from repro.db import driver as driver_module
        from repro.db.driver import StorageDriver
        from repro.db.instance import WriterInstance
        from repro.db.replica import ReplicaInstance
        from repro.sim.process import Process

        where = ["segments"]
        ran = Counter()      # where -> payload executions
        outside = []         # LSNs whose payload ran outside the writer
        current = [None]     # the record apply_redo is working on

        def counted(original):
            def apply(payload, image):
                ran[where[0]] += 1
                if where[0] != "writer":
                    outside.append(current[0])
                return original(payload, image)
            return apply

        for payload_type in PAYLOAD_TYPES:
            monkeypatch.setattr(
                payload_type, "apply", counted(payload_type.apply)
            )

        def at(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                previous, where[0] = where[0], label
                try:
                    return original(*args, **kwargs)
                finally:
                    where[0] = previous
            monkeypatch.setattr(owner, name, wrapper)

        sealed = []
        absorb = WriterInstance._absorb_record
        monkeypatch.setattr(
            WriterInstance, "_absorb_record",
            lambda self, record, image=None: (
                sealed.append(record.lsn), absorb(self, record, image)
            )[1],
        )
        at(WriterInstance, "stage_change", "writer")
        at(WriterInstance, "_absorb_record", "writer")
        at(ReplicaInstance, "_apply_record", "replica")

        # Which record a payload execution belongs to: the modules call
        # ``apply_redo`` through their own globals.
        from repro.db import instance as instance_module
        from repro.db import replica as replica_module
        from repro.storage import page as page_module

        def noting(original):
            def redo(record, base):
                current[0] = record.lsn
                return original(record, base)
            return redo

        for module in (instance_module, replica_module, page_module):
            monkeypatch.setattr(
                module, "apply_redo", noting(module.apply_redo)
            )

        # A stand-in forks its block's lineage on the segments until the
        # covering records of the same batch have been applied.
        forked = set()
        elide = driver_module.elide_superseded

        def eliding(records):
            shipped, elided = elide(records)
            if elided:
                blocks = set()
                for record in shipped:
                    if isinstance(record.payload, ElidedPayload):
                        blocks.add(record.block)
                    if record.block in blocks:
                        forked.add(record.lsn)
            return shipped, elided

        monkeypatch.setattr(driver_module, "elide_superseded", eliding)

        # Every storage read reply, as the driver resolved it.
        reads = []
        read_block = StorageDriver.read_block

        def recording(driver, block, pg_index, read_point):
            future = read_block(driver, block, pg_index, read_point)
            future.add_done_callback(
                lambda f: f.exception() is None and reads.append(
                    (driver.instance_id, block, *f.result())
                )
            )
            return future

        monkeypatch.setattr(StorageDriver, "read_block", recording)

        cluster = AuroraCluster.build(
            seed=23, wire_compression=wire_compression,
            replica=InstanceConfig(cache_capacity=64),
        )
        replicas = [cluster.add_replica(), cluster.add_replica()]
        segments = [node.segment for node in cluster.nodes.values()]

        def holders(block, lsn):
            """The image objects the copies hold for ``block`` at ``lsn``."""
            found = []
            for segment in segments:
                chain = segment.blocks.get(block)
                version = chain.version(lsn) if chain is not None else None
                if version is not None:
                    found.append(version.image)
            return found

        db = cluster.session()
        for low in range(0, len(self.KEYS), 40):
            txn = db.begin()
            for key in self.KEYS[low:low + 40]:
                db.put(txn, key, f"init-{key}")
            db.commit(txn)
        cluster.run_for(100.0)

        writer = cluster.writer

        def writing(keys, rounds):
            for i in range(rounds):
                txn = writer.begin()
                first = keys[(7 * i) % len(keys)]
                second = keys[(7 * i + 3) % len(keys)]
                # The same row twice in one transaction: the first put is
                # superseded inside the batch and ships as a stand-in.
                yield from writer.put(txn, first, f"a{i}")
                yield from writer.put(txn, second, f"b{i}")
                yield from writer.put(txn, first, f"c{i}")
                yield writer.commit(txn)

        def reading(replica, offset, rounds):
            for i in range(rounds):
                key = self.KEYS[(offset + 37 * i) % len(self.KEYS)]
                assert (yield from replica.get(key)) is not None

        clients = [
            Process(cluster.loop, writing(self.KEYS[:300], 120)),
            Process(cluster.loop, writing(self.KEYS[500:], 120)),
            *(
                Process(cluster.loop, reading(replica, offset, 200))
                for offset, replica in enumerate(replicas * 2)
            ),
        ]
        for client in clients:
            db.drive(client.completion)
        cluster.run_for(100.0)
        for segment in segments:
            segment.coalesce()

        # One writer cache reload: evict a leaf, read through it, write on.
        leaf = next(
            block for block in writer.cache.blocks()
            if writer.cache.peek(block).image.get("type") == "leaf"
        )
        (row_key,) = [k for k in writer.cache.peek(leaf).image if k[0] == "k"][:1]
        assert writer.cache.evict(leaf, writer.vdl)
        outside_before_reload = len(outside)
        assert db.get(row_key[1]) is not None
        reloaded = writer.cache.peek(leaf)
        assert reloaded is not None
        assert any(
            reloaded.image is image
            for image in holders(leaf, reloaded.latest_lsn)
        )
        db.write(row_key[1], "after-reload")
        cluster.run_for(100.0)
        for segment in segments:
            segment.coalesce()
        assert len(outside) == outside_before_reload

        return {
            "cluster": cluster, "replicas": replicas, "holders": holders,
            "reads": reads, "ran": ran, "outside": outside,
            "sealed": sealed, "forked": forked,
        }

    def assert_references(self, run):
        # Every read reply carried the object a chain holds at that LSN...
        assert len(run["reads"]) > 100
        sources = {name for name, *_ in run["reads"]}
        assert sources == {"writer-1", "replica-1", "replica-2"}, sources
        for _name, block, image, version_lsn in run["reads"]:
            if version_lsn == 0:
                assert image is EMPTY_IMAGE
        # ...and what a cache holds now -- installed from a read or brought
        # forward by redo -- is still the segments' object for its LSN.
        cluster = run["cluster"]
        checked = 0
        for instance in (cluster.writer, *run["replicas"]):
            for block in instance.cache.blocks():
                cached = instance.cache.peek(block)
                for image in run["holders"](block, cached.latest_lsn):
                    assert cached.image is image, (instance.name, block)
                    checked += 1
        assert checked > 500

    def test_without_stand_ins_no_payload_runs_outside_the_writer(
        self, monkeypatch
    ):
        run = self.run(monkeypatch, wire_compression=False)
        self.assert_references(run)
        assert run["outside"] == []
        assert run["ran"]["writer"] == len(run["sealed"])

    def test_with_stand_ins_a_fork_ends_with_its_batch(self, monkeypatch):
        run = self.run(monkeypatch, wire_compression=True)
        self.assert_references(run)
        elided = run["cluster"].writer.driver.stats.records_elided
        assert elided >= 100
        assert run["ran"]["writer"] == len(run["sealed"])
        # Outside the writer a payload ran only on a record that rode in a
        # batch behind a stand-in for its block (the fork ends with the
        # batch).  The segments hold the forked lineage, the replicas the
        # writer's, and a record's redo memo keeps one (base, image) pair:
        # the segments run a forked record's payload once, and every
        # replica that applies it in between takes the memo over, so it
        # runs once for that replica and once more for the segments.
        assert run["outside"]
        assert set(run["outside"]) <= run["forked"]
        runs_per_record = Counter(run["outside"])
        assert max(runs_per_record.values()) <= 1 + 2 * len(run["replicas"])


#: The read-only image types: an overlay node has no ``__setitem__``, and
#: under the fixture below its root is wrapped like every other image.
READ_ONLY = (MappingProxyType, Overlay)


def read_only(image):
    return image if type(image) in READ_ONLY else MappingProxyType(image)


#: The replies that carry images, and the field that holds them.
IMAGE_REPLIES = {
    "read": ("ReadBlockResponse", "image"),
    "baseline": ("BaselineResponse", "blocks"),
    "vote": ("IntegrityVoteResponse", "blocks"),
}


@pytest.fixture
def read_only_images(monkeypatch):
    """Every image that can end up shared is read-only (``READ_ONLY``): what a
    payload returns (so everything staged in an MTR, cached, or coalesced),
    what a storage node puts into a read reply, a baseline or a vote
    answer (the hand-off by reference: from there it reaches a cache or
    another copy's chain as it is), and whatever else is put into a
    version chain (snapshots, injected damage).  An in-place edit of any
    of them, anywhere, raises ``TypeError``.  Returns the number of images
    wrapped so far, by source, and under ``"floor"`` the floor ballots
    among the vote answers' (an entry at its block's ``cover_lo``)."""
    wrapped = {
        "redo": 0, "chain": 0, "floor": 0, **dict.fromkeys(IMAGE_REPLIES, 0)
    }

    def wrapping(original, source, image_arg=None):
        def wrapper(*args):
            if image_arg is None:
                wrapped[source] += 1
                return read_only(original(*args))
            args = list(args)
            if type(args[image_arg]) not in READ_ONLY:
                wrapped[source] += 1
                args[image_arg] = MappingProxyType(args[image_arg])
            return original(*args)
        return wrapper

    for payload_type in PAYLOAD_TYPES:
        monkeypatch.setattr(
            payload_type, "apply", wrapping(payload_type.apply, "redo")
        )

    def images_read_only(value, source):
        """``value`` with every image in it -- at any tuple depth --
        wrapped (anything that is not a tuple or an image stays)."""
        if isinstance(value, tuple):
            return tuple(images_read_only(v, source) for v in value)
        if isinstance(value, (dict, *READ_ONLY)):
            wrapped[source] += 1
            return read_only(value)
        return value

    def replying(reply_type, source, field):
        class Reply(reply_type):  # a subclass: ``isinstance`` still holds
            __slots__ = ()

            def __init__(self, **fields):
                fields[field] = images_read_only(fields[field], source)
                if source == "vote":
                    wrapped["floor"] += sum(
                        entry[0] == cover_lo
                        for _block, cover_lo, _hi, entries in fields[field]
                        for entry in entries
                    )
                super().__init__(**fields)

        return Reply

    for source, (name, field) in IMAGE_REPLIES.items():
        monkeypatch.setattr(
            node_module, name,
            replying(getattr(node_module, name), source, field),
        )
    for name in ("append", "insert"):
        monkeypatch.setattr(
            BlockVersionChain, name,
            wrapping(getattr(BlockVersionChain, name), "chain", image_arg=2),
        )
    image = BlockVersion.image
    monkeypatch.setattr(
        BlockVersion, "image",
        image.setter(wrapping(image.fset, "chain", image_arg=1)),
    )
    return wrapped


class TestSharingIsSafe:
    #: Per backend, a seed whose run ships images in votes (most integrity
    #: runs repair records only).
    INTEGRITY_SEEDS = {"aurora": 9, "taurus": 12}

    @staticmethod
    def assert_wrapped(wrapped, *sources):
        """Non-vacuity: the run did hand images over at these points."""
        assert all(wrapped[s] for s in ("redo", "read", *sources)), wrapped

    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    def test_integrity_audit_never_edits_an_image_in_place(
        self, read_only_images, backend
    ):
        config = AuditRunConfig(
            seed=self.INTEGRITY_SEEDS[backend], steps=400, backend=backend
        )
        report = run_audit(PROFILES["integrity"].configure(config))
        assert report.ok, report.render()
        self.assert_wrapped(read_only_images, "chain", "vote")

    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    def test_a_floor_ballot_hands_over_the_voter_image(
        self, read_only_images, backend
    ):
        """A rotted version at the vote window's floor is repaired from a
        floor ballot: the voter's image object, read-only, is adopted."""
        cluster = integrity_cluster(backend)
        db = cluster.session()
        for i in range(30):
            db.write(f"k{i:02d}", i)
        cluster.run_for(100.0)
        segment = next(
            node.segment for _name, node in sorted(cluster.nodes.items())
            if node.segment.blocks
        )
        chain = segment.blocks[cluster.writer.root_leaf_block]
        lsn = chain.corrupt_version()
        assert lsn <= segment.vote_window()[0]
        for _ in range(15):
            cluster.run_for(400.0)
            if chain.version(lsn).verify():
                break
        assert chain.version(lsn).verify()
        assert type(chain.version(lsn).image) in READ_ONLY
        assert all(db.get(f"k{i:02d}") == i for i in range(30))
        assert read_only_images["vote"] and read_only_images["floor"]

    def test_chaos_audit_never_edits_an_image_in_place(self, read_only_images):
        report = run_audit(AuditRunConfig(seed=2, steps=500))
        assert report.ok, report.render()
        self.assert_wrapped(read_only_images, "baseline")

    def test_the_fixture_does_catch_an_in_place_edit(self, read_only_images):
        cluster = AuroraCluster.build(seed=11)
        db = cluster.session()
        db.write("k", 1)
        cluster.run_for(50)
        writer = cluster.writer
        with pytest.raises(TypeError):
            writer.cache.peek(writer.root_leaf_block).image["k"] = "edit"
        segment = next(iter(cluster.nodes.values())).segment
        with pytest.raises(TypeError):
            segment.blocks[writer.root_leaf_block].latest_image()["k"] = 1


class TestDamageStaysOnOneCopy:
    """Injectors and repair replace one copy's reference to an image; the
    other five copies keep the shared object, untouched."""

    @pytest.fixture
    def copies(self):
        cluster = AuroraCluster.build(seed=11)
        db = cluster.session()
        for i in range(40):
            db.write(f"k{i % 8}", i)
        cluster.run_for(50)
        segments = [node.segment for node in cluster.nodes.values()]
        for segment in segments:
            segment.coalesce()
        hot = cluster.writer.root_leaf_block
        return segments, hot

    @staticmethod
    def images(segment, block):
        return [(v.lsn, dict(v.image)) for v in segment.blocks[block].versions]

    def assert_others_clean(self, segments, block, before):
        for other in segments[1:]:
            assert other.scrub() == []
            assert other.scrub_records() == []
            assert self.images(other, block) == before

    def test_corrupt_and_repair_version(self, copies):
        segments, hot = copies
        victim = segments[0]
        before = self.images(victim, hot)
        lsn = victim.blocks[hot].corrupt_version()
        assert victim.scrub() == [(hot, lsn)]
        self.assert_others_clean(segments, hot, before)
        clean = segments[1].blocks[hot].version_at(lsn).image
        assert victim.repair_version(hot, lsn, clean)
        assert victim.scrub() == []
        assert self.images(victim, hot) == before
        # Repair put the copy back on the shared lineage: it holds the
        # peer's object, so the next record's redo hits on it again...
        assert victim.blocks[hot].version_at(lsn).image is clean
        # ...and the next fault on this copy still cannot reach the shared
        # one, because damage swaps in a new object too.
        assert victim.blocks[hot].corrupt_version(lsn) == lsn
        assert victim.blocks[hot].version_at(lsn).image is not clean
        self.assert_others_clean(segments, hot, before)

    def test_hydration_shares_the_donor_images(self, copies):
        segments, hot = copies
        donor = segments[1]
        before = self.images(donor, hot)
        fresh = Segment("fresh", donor.pg_index)
        fresh.hydrate_from(donor)
        fresh.coalesce()
        for lsn, _image in before:
            assert fresh.blocks[hot].version(lsn).image is (
                donor.blocks[hot].version(lsn).image
            )
        fresh.blocks[hot].corrupt_version()
        assert fresh.scrub() != []
        self.assert_others_clean(segments, hot, self.images(segments[0], hot))

    def test_corrupt_record_then_restore(self, copies):
        segments, hot = copies
        victim = segments[0]
        before = self.images(victim, hot)
        # A record this copy has not applied yet: the newest one.
        tail = victim._records[-1]
        shared = segments[1].record_at(tail.lsn)
        assert shared is tail
        victim.corrupt_record(tail.lsn)
        assert victim.scrub_records() == [tail.lsn]
        assert segments[1].record_at(tail.lsn) is shared
        self.assert_others_clean(segments, hot, before)
        assert victim.restore_record(shared)
        assert victim.scrub_records() == []

    def test_lose_record_then_repair_converges(self, copies):
        segments, hot = copies
        victim = segments[0]
        before = self.images(victim, hot)
        lost = victim.blocks[hot].versions[-2].lsn
        record = victim.lose_record(lost)
        assert record is not None
        assert lost not in [lsn for lsn, _image in self.images(victim, hot)]
        self.assert_others_clean(segments, hot, before)
        peer = segments[1]
        assert victim.restore_record(peer.record_at(lost))
        assert victim.repair_version(
            hot, lost, peer.blocks[hot].version_at(lost).image
        )
        assert self.images(victim, hot) == before
        assert victim._lsn_index == peer._lsn_index
        assert victim._digests == peer._digests
        self.assert_others_clean(segments, hot, before)
