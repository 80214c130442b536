"""A block version one change made shares the version it was made from.

A single-entry ``BlockPut`` (a row write, a META counter) and a commit's
status entry return an :class:`~repro.core.records.Overlay` node on the
image they apply to (DESIGN.md section 8).  These tests pin that every read
sees exactly the dict a copy per change would have built, that a chain
never lies deeper than the rows it shows, and that an overwritten leaf's
retained versions hold about two entries per write, where a copy per
write held the whole leaf.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro import AuroraCluster
from repro.core.records import (
    EMPTY_IMAGE,
    BlockDelete,
    BlockPut,
    BlockReplace,
    Overlay,
)
from repro.db.btree import empty_leaf, leaf_row_count, row_key
from repro.db.instance import WriterInstance
from repro.db.session import Session
from repro.storage.segment import SegmentKind

from .conftest import (
    SEEDS,
    assert_reads_as,
    held_entries,
    integrity_cluster,
)

#: Keys no image below ever holds.
ABSENT = (("k", -1), "root", "__corrupted__", 7)


def assert_reads_as_a_copy(image, reference: dict) -> None:
    """``image`` reads as ``reference``, and its chain is no deeper than
    the rows it shows."""
    assert_reads_as(image, reference, ABSENT)
    if type(image) is Overlay:
        assert image.depth <= len(image)


def copied(reference: dict, payload) -> dict:
    """What ``payload`` made of ``reference`` when every change copied."""
    if type(payload) is BlockDelete:
        new = dict(reference)
        for key in payload.keys:
            new.pop(key, None)
        return new
    new = dict(reference)
    for key, value in payload.entries:
        new[key] = value
    return new


def leaf_change(rng: random.Random, reference: dict):
    """One random change of a leaf: mostly row writes over ten keys (new
    rows and overwrites), sometimes a ``next`` pointer, a two-row put or
    a delete."""
    roll = rng.random()
    key = row_key(rng.randrange(10))
    if roll < 0.8:
        return BlockPut(entries=((key, (rng.randrange(99),)),))
    if roll < 0.87:
        return BlockPut(entries=(("next", rng.randrange(50)),))
    if roll < 0.94:
        other = row_key(rng.randrange(10))
        return BlockPut(entries=((key, (1,)), (other, (2,))))
    rows = [k for k in reference if isinstance(k, tuple)]
    return BlockDelete(keys=(rng.choice(rows) if rows else key, ("k", -1)))


def meta_change(rng: random.Random, reference: dict):
    """One random change of META: ``next_block`` and ``txn_pages`` puts,
    and now and then a root growth's two-entry put."""
    roll = rng.random()
    if roll < 0.6:
        return BlockPut(entries=(("next_block", rng.randrange(1_000)),))
    if roll < 0.9:
        pages = reference.get("txn_pages", ()) + (rng.randrange(1_000),)
        return BlockPut(entries=(("txn_pages", pages),))
    height = reference.get("height", 0) + 1
    return BlockPut(entries=(("root", rng.randrange(99)), ("height", height)))


class TestOverlayReadsAsACopy:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS)
    def test_random_changes_on_a_leaf_read_as_the_copies(self, seed):
        rng = random.Random(seed)
        image = BlockReplace.of(empty_leaf()).apply(EMPTY_IMAGE)
        reference = dict(image)
        for _ in range(rng.randint(1, 120)):
            payload = leaf_change(rng, reference)
            image = payload.apply(image)
            reference = copied(reference, payload)
            assert_reads_as_a_copy(image, reference)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS)
    def test_random_changes_on_meta_read_as_the_copies(self, seed):
        rng = random.Random(seed)
        image = BlockReplace.of(
            {"root": 1, "height": 0, "next_block": 2}
        ).apply(EMPTY_IMAGE)
        reference = dict(image)
        for _ in range(rng.randint(1, 60)):
            payload = meta_change(rng, reference)
            image = payload.apply(image)
            reference = copied(reference, payload)
            assert_reads_as_a_copy(image, reference)

    def test_a_put_shares_its_base_and_a_deep_chain_flattens(self):
        leaf = BlockReplace.of(empty_leaf()).apply(EMPTY_IMAGE)
        first = BlockPut(entries=((row_key(1), (1,)),)).apply(leaf)
        assert type(first) is Overlay and first.base is leaf
        assert (first.depth, len(first), leaf_row_count(first)) == (1, 3, 1)
        with pytest.raises(AttributeError):
            first.value = (2,)
        assert not hasattr(first, "__dict__")
        # Overwriting the one row: the chain reaches its three entries,
        # and the put that would go deeper makes a dict instead.
        image, depths = first, []
        for version in range(2, 6):
            image = BlockPut(entries=((row_key(1), (version,)),)).apply(image)
            depths.append(getattr(image, "depth", 0))
        assert depths == [2, 3, 0, 1]
        assert dict(image.items()) == {
            "type": "leaf", "next": None, row_key(1): (5,)
        }

    def test_a_lookup_never_raises_on_a_miss(self, monkeypatch):
        """``get`` and ``in`` answer an absent key at the root; neither
        takes ``Mapping``'s path through ``KeyError``."""
        image = EMPTY_IMAGE
        for key in range(5):
            image = BlockPut(entries=((key, key),)).apply(image)

        def raising(self, key):
            raise AssertionError("a lookup went through __getitem__")

        monkeypatch.setattr(Overlay, "__getitem__", raising)
        assert image.get(9) is None and image.get(9, "d") == "d"
        assert 9 not in image and 3 in image and image.get(3) == 3


class TestOverwrittenLeaf:
    ROWS = 8
    WRITES = 120

    def test_retained_versions_hold_two_entries_per_write(self, backend):
        """``WRITES`` row writes over ``ROWS`` keys of one leaf (GC off, so
        every version is retained): the retained versions hold at most the
        leaf's entries plus two per write -- a node each, and a flattened
        dict of the leaf once per about its entry count of writes -- where
        a copy per write held the whole leaf each time.  Each version reads
        as the writer's copy at its LSN, and no chain is deeper than its
        rows."""
        cluster = AuroraCluster.build(seed=3, backend=backend, gc_interval=1e9)
        db = Session(cluster.writer)
        rng = random.Random(3)
        for i in range(self.WRITES):
            db.write(f"r{rng.randrange(self.ROWS)}", i)
        cluster.run_for(100)
        leaf = cluster.writer.root_leaf_block
        cached = cluster.writer.cache.peek(leaf)
        entries = len(cached.image)
        assert leaf_row_count(cached.image) == self.ROWS
        checked = 0
        for node in cluster.nodes.values():
            segment = node.segment
            if segment.kind is not SegmentKind.FULL:
                continue
            segment.coalesce()
            versions = segment.blocks[leaf].versions
            assert len(versions) > self.WRITES
            copies = sum(len(version.image) for version in versions)
            held = held_entries(segment, [leaf])
            assert held <= entries + 2 * self.WRITES
            assert copies > 3 * held
            for version in versions:
                image = version.image
                if type(image) is Overlay:
                    assert image.depth <= len(image)
            assert segment.blocks[leaf].latest_image() == cached.image
            checked += 1
        assert checked >= 2  # taurus has two page stores

    def test_meta_stays_shallow_and_status_pages_never_flatten(
        self, backend
    ):
        """META's puts overwrite its four fields, so its chain flattens
        within four puts; a status page gains a row per commit and never
        flattens, its depth the number of commits on it."""
        cluster = AuroraCluster.build(seed=3, backend=backend, gc_interval=1e9)
        db = Session(cluster.writer)
        for i in range(60):
            db.write(f"r{i}", i)
        cluster.run_for(100)
        writer = cluster.writer
        meta = writer.cache.peek(WriterInstance.META_BLOCK).image
        assert getattr(meta, "depth", 0) <= len(meta) <= 4
        (page,) = writer._txn_pages
        for node in cluster.nodes.values():
            segment = node.segment
            if segment.kind is not SegmentKind.FULL:
                continue
            segment.coalesce()
            for version in segment.blocks[page].versions:
                assert type(version.image) is Overlay
                assert version.image.depth == len(version.image)


class TestInjectorsCopyThroughItems:
    """The corruption injectors copy an overlay version with one
    ``items()`` call, which flattens it once; a ``dict(image)`` would
    look every key up through the chain."""

    @staticmethod
    def items_only(monkeypatch, inject):
        """``inject()``, with every per-key read of an overlay refused."""
        def refused(*args):
            raise AssertionError("an injector copy looked keys up")

        with monkeypatch.context() as patched:
            patched.setattr(Overlay, "keys", refused)
            patched.setattr(Overlay, "__getitem__", refused)
            return inject()

    def test_bit_rot_copies_an_overlay_through_items(self, monkeypatch):
        cluster = AuroraCluster.build(seed=3)
        db = Session(cluster.writer)
        for i in range(6):
            db.write(f"r{i}", i)
        cluster.run_for(50)
        chain = cluster.nodes["pg0-a"].segment.blocks[
            cluster.writer.root_leaf_block
        ]
        clean = chain.latest_image()
        assert type(clean) is Overlay
        lsn = self.items_only(monkeypatch, chain.corrupt_version)
        damaged = chain.version(lsn).image
        assert type(damaged) is dict
        assert list(damaged.items()) == [
            *clean.items(), ("__corrupted__", True)
        ]

    def test_a_misdirected_write_copies_an_overlay_through_items(
        self, monkeypatch
    ):
        cluster = integrity_cluster()
        db = Session(cluster.writer)
        # An open read view holds the GC floor below the writes, so their
        # versions stay eligible victims.
        cluster.writer.open_view()
        for i in range(40):
            db.write(f"r{i % 6}", i)
        cluster.run_for(30)
        name = "pg0-a"
        segment = cluster.nodes[name].segment
        before = {
            (block, version.lsn): version.image
            for block, chain in segment.blocks.items()
            for version in chain.versions
        }
        injected = self.items_only(
            monkeypatch, lambda: cluster.failures.misdirected_write(name)
        )
        assert injected is not None
        moved = segment.blocks[injected.block].version(injected.lsn).image
        (source,) = [
            image for (block, lsn), image in before.items()
            if lsn == injected.lsn and block != injected.block
        ]
        assert type(source) is Overlay and type(moved) is dict
        assert list(moved.items()) == list(source.items())
