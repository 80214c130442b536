"""Block images are immutable and shared across copies (DESIGN.md section 8).

``apply_redo`` computes a record's redo once and hands the same image to
the writer's cache and to every segment of the protection group.  These
tests pin that the sharing actually happens, that nothing anywhere edits a
shared image in place, and that damage or repair on one copy stays on that
copy.
"""

from types import MappingProxyType

import pytest

import repro.db.instance
import repro.db.replica
import repro.storage.segment
from repro import AuroraCluster, ClusterConfig
from repro.audit.runner import AuditRunConfig, run_audit
from repro.core.records import (
    EMPTY_IMAGE,
    BlockPut,
    CommitPayload,
    LogRecord,
    RecordKind,
    apply_redo,
)
from repro.storage.segment import Segment

CALL_SITES = (repro.storage.segment, repro.db.instance, repro.db.replica)


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
        assert chain.latest_image_view() is EMPTY_IMAGE


class TestSharingIsOn:
    def test_one_application_per_record_and_one_image_for_six_copies(
        self, cluster, monkeypatch
    ):
        """After a 200-transaction burst every redo record was applied by
        ``apply_redo`` exactly once -- counted on the payloads themselves
        -- and the six segments and the writer hold one image object for
        the hot block's newest version."""
        inside = []
        applied = {}

        def counted(original):
            def apply(payload, image):
                if inside:
                    applied[id(payload)] = applied.get(id(payload), 0) + 1
                return original(payload, image)
            return apply

        def flagged(record, base):
            inside.append(record)
            try:
                return apply_redo(record, base)
            finally:
                inside.pop()

        for payload_type in (BlockPut, CommitPayload):
            monkeypatch.setattr(
                payload_type, "apply", counted(payload_type.apply)
            )
        for module in CALL_SITES:
            monkeypatch.setattr(module, "apply_redo", flagged)

        db = cluster.session()
        for i in range(200):
            db.write(f"k{i % 8}", i)  # eight keys: no split, one hot leaf
        cluster.run_for(50)

        hot = cluster.writer.root_leaf_block
        segments = [node.segment for node in cluster.nodes.values()]
        assert len(segments) == 6
        for segment in segments:
            segment.coalesce()
        records = [
            r for r in segments[0]._records
            if type(r.payload) in (BlockPut, CommitPayload)
        ]
        assert len(records) >= 400
        assert {applied.get(id(r.payload)) for r in records} == {1}
        newest = {id(s.blocks[hot].versions[-1].image) for s in segments}
        assert len(newest) == 1
        assert cluster.writer.cache.peek(hot).image is (
            segments[0].blocks[hot].versions[-1].image
        )


@pytest.fixture
def read_only_images(monkeypatch):
    """Every image ``apply_redo`` returns is a ``MappingProxyType``: an
    in-place edit of a shared image, anywhere, raises ``TypeError``.  One
    proxy per image keeps the identity the memo and the sharing rely on."""
    proxies = {}

    def proxied(record, base):
        image = apply_redo(record, base)
        held = proxies.get(id(image))
        if held is None or held[0] is not image:
            held = proxies[id(image)] = (image, MappingProxyType(image))
        return held[1]

    for module in CALL_SITES:
        monkeypatch.setattr(module, "apply_redo", proxied)
    return proxies


class TestSharingIsSafe:
    @pytest.mark.parametrize("backend", ["aurora", "taurus"])
    def test_integrity_audit_never_edits_an_image_in_place(
        self, read_only_images, backend
    ):
        config = AuditRunConfig(seed=3, steps=400, backend=backend)
        report = run_audit(config.as_integrity())
        assert report.ok, report.render()
        assert read_only_images

    def test_chaos_audit_never_edits_an_image_in_place(self, read_only_images):
        report = run_audit(AuditRunConfig(seed=2, steps=500))
        assert report.ok, report.render()
        assert read_only_images


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
