"""Block images are immutable and shared across copies (DESIGN.md section 8).

A record's redo runs once -- when the writer stages the change -- and the
same image goes to the writer's cache and, through ``apply_redo``, to every
segment of the protection group.  These tests pin that the sharing actually
happens, that nothing anywhere edits a shared image in place, and that
damage or repair on one copy stays on that copy.
"""

from types import MappingProxyType

import pytest

from repro import AuroraCluster, ClusterConfig
from repro.audit.runner import AuditRunConfig, run_audit
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
    RecordKind,
    apply_redo,
    seed_redo,
)
from repro.db.mtr import ChainState, MTRBuilder
from repro.storage.messages import ReadBlockResponse
from repro.storage.page import BlockVersion, BlockVersionChain
from repro.storage.segment import Segment

PAYLOAD_TYPES = (
    BlockPut, BlockDelete, BlockReplace, CommitPayload, ControlPayload,
    ElidedPayload,
)


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

    def test_an_equal_but_distinct_base_is_recomputed(self):
        record = self.record()
        first = apply_redo(record, {"a": 0})
        second = apply_redo(record, {"a": 0})
        assert first == second and first is not second

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
        assert apply_redo(record, {"a": 0}) is not image

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


def read_only(image):
    return image if type(image) is MappingProxyType else MappingProxyType(image)


@pytest.fixture
def read_only_images(monkeypatch):
    """Every image that can end up shared is a ``MappingProxyType``: what a
    payload returns (so everything staged in an MTR, cached, or coalesced),
    what a storage read hands ``read_image``, and whatever else is put into
    a version chain (baselines, repairs, injected damage).  An in-place
    edit of any of them, anywhere, raises ``TypeError``.  Returns the
    number of images wrapped so far, by source."""
    wrapped = {"redo": 0, "read": 0, "chain": 0}

    def wrapping(original, source, image_arg=None):
        def wrapper(*args):
            if image_arg is None:
                wrapped[source] += 1
                return read_only(original(*args))
            args = list(args)
            if type(args[image_arg]) is not MappingProxyType:
                wrapped[source] += 1
                args[image_arg] = MappingProxyType(args[image_arg])
            return original(*args)
        return wrapper

    for payload_type in PAYLOAD_TYPES:
        monkeypatch.setattr(
            payload_type, "apply", wrapping(payload_type.apply, "redo")
        )
    monkeypatch.setattr(
        ReadBlockResponse, "image_dict",
        wrapping(ReadBlockResponse.image_dict, "read"),
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
    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    def test_integrity_audit_never_edits_an_image_in_place(
        self, read_only_images, backend
    ):
        config = AuditRunConfig(seed=3, steps=400, backend=backend)
        report = run_audit(config.as_integrity())
        assert report.ok, report.render()
        assert all(read_only_images.values()), read_only_images

    def test_chaos_audit_never_edits_an_image_in_place(self, read_only_images):
        report = run_audit(AuditRunConfig(seed=2, steps=500))
        assert report.ok, report.render()
        assert all(read_only_images.values()), read_only_images

    def test_the_fixture_does_catch_an_in_place_edit(self, read_only_images):
        cluster = AuroraCluster.build(ClusterConfig(seed=11))
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
        cluster = AuroraCluster.build(ClusterConfig(seed=11))
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
        assert victim.repair_version(hot, lsn, clean.items())
        assert victim.scrub() == []
        assert self.images(victim, hot) == before
        # Repair installed a copy, not the peer's object: nothing a later
        # fault does to this copy can reach the shared one.
        assert victim.blocks[hot].version_at(lsn).image is not clean
        self.assert_others_clean(segments, hot, before)

    def test_corrupt_record_then_restore(self, copies):
        segments, hot = copies
        victim = segments[0]
        before = self.images(victim, hot)
        # A record this copy has not applied yet: the newest one.
        tail = victim._records[-1]
        shared = segments[1].hot_log[tail.lsn]
        assert shared is tail
        victim.corrupt_record(tail.lsn)
        assert victim.scrub_records() == [tail.lsn]
        assert segments[1].hot_log[tail.lsn] is shared
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
        assert victim.restore_record(peer.hot_log[lost])
        assert victim.repair_version(
            hot, lost, peer.blocks[hot].version_at(lost).image.items()
        )
        assert self.images(victim, hot) == before
        assert victim._lsn_index == peer._lsn_index
        assert victim._digests == peer._digests
        self.assert_others_clean(segments, hot, before)
