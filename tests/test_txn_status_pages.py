"""The range-paged transaction-status table (DESIGN.md section 3).

Transaction ``t``'s commit status lives in page ``t // TXNS_PER_PAGE``;
the page directory is META's ``"txn_pages"`` tuple.  These tests are
count-based: they bound what a commit copies and what storage retains by
the page constant, never by wall clock.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro import AuroraCluster
from repro.core.records import EMPTY_IMAGE, CommitPayload, Overlay
from repro.db.instance import TXNS_PER_PAGE, WriterInstance
from repro.db.session import Session
from repro.errors import TransactionError
from repro.storage.page import BlockVersionChain
from repro.storage.segment import SegmentKind

from .conftest import (
    SEEDS,
    assert_reads_as,
    crash_and_recover,
    held_entries,
    integrity_cluster,
)


def commit_writes(db: Session, count: int, tag: str = "v") -> None:
    """``count`` writing transactions, one commit each, churning 50 keys."""
    for i in range(count):
        db.write(f"k{i % 50:02d}", f"{tag}{i}")


def durable_directory(cluster) -> tuple[int, ...]:
    """The page directory as META records it in the writer's cache."""
    meta = cluster.writer.cache.peek(WriterInstance.META_BLOCK).image
    return meta.get("txn_pages", ())


def retained_status_entries(segment, pages) -> int:
    """Entries held across every retained version of the status pages."""
    return sum(
        len(version.image)
        for block in pages
        if block in segment.blocks
        for version in segment.blocks[block].versions
    )


#: Keys no status page holds.
ABSENT = (-1, TXNS_PER_PAGE, "type")


def damaged_copy(rng: random.Random) -> dict:
    """What the bit-rot injector leaves of a status page: a dict."""
    chain = BlockVersionChain(7)
    page = EMPTY_IMAGE
    for txn_id in rng.sample(range(TXNS_PER_PAGE), 10):
        page = CommitPayload(txn_id=txn_id, scn=500 + txn_id).apply(page)
    chain.append(1, page)
    chain.corrupt_version(1)
    damaged = chain.latest_image()
    assert type(damaged) is dict and "__corrupted__" in damaged
    return damaged


class TestStatusPageVersions:
    """A status-page version is its predecessor plus one entry, and reads
    as the dict a copying commit would have built."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS)
    def test_random_commits_read_as_the_reference_dict(self, seed):
        rng = random.Random(seed)
        roots = [
            EMPTY_IMAGE,
            {t: 900 + t for t in rng.sample(range(TXNS_PER_PAGE), 20)},
            damaged_copy(rng),
        ]
        for root in roots:
            image, reference = root, dict(root)
            order = rng.sample(range(TXNS_PER_PAGE), rng.randint(1, 60))
            # A txn already on the page (a redo applied again) rewrites
            # its entry in place.
            order += rng.sample(order, min(3, len(order)))
            for scn, txn_id in enumerate(order, start=1000):
                image = CommitPayload(txn_id=txn_id, scn=scn).apply(image)
                reference[txn_id] = scn
                assert_reads_as(image, reference, ABSENT)
            assert image != {**reference, order[0]: -1}

    def test_a_version_is_immutable_and_shares_its_base(self):
        base = CommitPayload(txn_id=1, scn=10).apply(EMPTY_IMAGE)
        page = CommitPayload(txn_id=2, scn=11).apply(base)
        assert page.base is base and base.base is EMPTY_IMAGE
        with pytest.raises(AttributeError):
            page.value = 12
        assert not hasattr(page, "__dict__")
        # Two lineages compare by content, below their equal top entries.
        def lineage(root, first_scn):
            first = CommitPayload(txn_id=1, scn=first_scn).apply(root)
            return CommitPayload(txn_id=2, scn=11).apply(first)

        assert page == lineage({}, 10) and lineage({}, 10) == page
        assert page != lineage(EMPTY_IMAGE, 99)
        assert lineage(base, 10) == lineage(base, 10)

    def test_a_commit_walks_nothing(self, monkeypatch):
        """Making a status-page version is O(1): it neither counts the
        page nor looks its transaction up (either walks up to
        ``TXNS_PER_PAGE`` nodes); the count waits for a ``len``."""
        page = EMPTY_IMAGE
        for txn_id in range(TXNS_PER_PAGE - 1):
            page = CommitPayload(txn_id=txn_id, scn=900 + txn_id).apply(page)

        def refused(*args):
            raise AssertionError("a commit walked its page")

        with monkeypatch.context() as patched:
            for name in ("__contains__", "__len__", "__getitem__", "get",
                         "flat"):
                patched.setattr(Overlay, name, refused)
            top = CommitPayload(txn_id=127, scn=1100).apply(page)
        assert top.base is page and top.depth == TXNS_PER_PAGE
        assert top.size is None and len(top) == TXNS_PER_PAGE == top.size

    def test_every_retained_version_reads_as_its_commits(self, backend):
        """Transactions of one page commit in a random order; every
        version each page store retains reads as the commits at or below
        its LSN, in commit order."""
        cluster = AuroraCluster.build(seed=3, backend=backend, gc_interval=1e9)
        db = Session(cluster.writer)
        writer = cluster.writer
        txns = [writer.begin() for _ in range(40)]
        for txn in txns:
            db.drive(writer.put(txn, f"t{txn.txn_id}", txn.txn_id))
        random.Random(3).shuffle(txns)
        for txn in txns:
            db.commit(txn)
        cluster.run_for(100)
        (page,) = writer._txn_pages
        commits = sorted((txn.scn, txn.txn_id) for txn in txns)
        checked = 0
        for node in cluster.nodes.values():
            if node.segment.kind is not SegmentKind.FULL:
                continue
            node.segment.coalesce()
            for version in node.segment.blocks[page].versions:
                reference = {t: c for c, t in commits if c <= version.lsn}
                assert_reads_as(version.image, reference, ABSENT)
                checked += 1
        assert checked >= 2 * len(txns)  # taurus has two page stores

    def test_bit_rot_on_a_status_page_is_caught_and_repaired(self, backend):
        cluster = integrity_cluster(backend)
        db = Session(cluster.writer)
        for i in range(30):
            db.write(f"k{i}", i)
        cluster.run_for(50)
        (page,) = cluster.writer._txn_pages
        before = cluster.writer.registry.known_commits()
        integrity = cluster.failures.integrity_probe
        victim = next(
            node
            for _name, node in sorted(cluster.nodes.items())
            if node.segment.kind is SegmentKind.FULL
        )
        chain = victim.segment.blocks[page]
        clean = chain.latest_image()
        assert type(clean) is Overlay
        lsn = chain.corrupt_version()
        assert not chain.version(lsn).verify()
        corruption = integrity.inject(
            "bit_rot", victim.name, page, lsn, chain.version(lsn)
        )
        for _ in range(20):
            cluster.run_for(500.0)
            if chain.version(lsn).verify():
                break
        assert corruption.detected_at is not None
        assert chain.version(lsn).verify()
        assert chain.version(lsn).image == clean
        assert integrity.corrupt_reads_served == 0
        # Recovery reads every status page back at the volume's end.
        db = crash_and_recover(cluster)
        assert cluster.writer.registry.known_commits() == before
        assert integrity.corrupt_reads_served == 0
        assert db.get("k7") == 7


class TestPagedLayout:
    def test_root_leaf_follows_meta_and_no_page_before_first_write(
        self, cluster
    ):
        assert cluster.writer.root_leaf_block == 1
        assert durable_directory(cluster) == ()
        db = cluster.session()
        assert db.get("missing") is None  # read-only commits need no page
        assert durable_directory(cluster) == ()
        db.write("a", 1)
        assert len(durable_directory(cluster)) == 1

    def test_every_status_image_is_bounded_by_the_page_constant(
        self, backend
    ):
        # GC off: every materialized version is retained, the worst case.
        cluster = AuroraCluster.build(seed=7, backend=backend, gc_interval=1e9)
        db = Session(cluster.writer)
        commits = 3 * TXNS_PER_PAGE + 5
        commit_writes(db, commits)
        cluster.run_for(100)  # let the last records coalesce
        pages = durable_directory(cluster)
        assert pages == cluster.writer._txn_pages
        assert len(pages) == commits // TXNS_PER_PAGE + 1
        assert len(set(pages)) == len(pages)
        # Writer cache: one bounded image per page, together the history.
        cached = [cluster.writer.cache.peek(block).image for block in pages]
        assert all(len(image) <= TXNS_PER_PAGE for image in cached)
        assert sum(len(image) for image in cached) == commits
        for page, image in enumerate(cached):
            assert all(txn_id // TXNS_PER_PAGE == page for txn_id in image)
        # Storage: every retained version of every page, on every segment.
        materialized = 0
        for node in cluster.nodes.values():
            for block in pages:
                chain = node.segment.blocks.get(block)
                if chain is None:
                    continue
                materialized += len(chain)
                assert all(
                    len(version.image) <= TXNS_PER_PAGE
                    for version in chain.versions
                )
        assert materialized >= commits

    def test_retained_status_entries_grow_linearly(self):
        """Doubling the commits doubles what one segment retains for the
        status pages (GC off); the striped table quadrupled it."""
        cluster = AuroraCluster.build(seed=7, gc_interval=1e9)
        db = Session(cluster.writer)
        segment = cluster.nodes["pg0-a"].segment
        commit_writes(db, 3 * TXNS_PER_PAGE)
        cluster.run_for(100)
        first = retained_status_entries(segment, durable_directory(cluster))
        commit_writes(db, 3 * TXNS_PER_PAGE, tag="w")
        cluster.run_for(100)
        second = retained_status_entries(segment, durable_directory(cluster))
        per_page = TXNS_PER_PAGE * (TXNS_PER_PAGE + 1) // 2
        assert 2 * per_page < first <= 3 * per_page
        assert second <= 2.2 * first
        assert second <= 6 * per_page

    def test_a_commit_adds_one_held_entry(self, backend):
        """What one segment's retained status-page versions physically
        hold grows by one entry per commit (GC off): a version shares
        its predecessor.  A version that copied its page held half a
        page per commit on average."""
        cluster = AuroraCluster.build(seed=7, backend=backend, gc_interval=1e9)
        db = Session(cluster.writer)
        segment = next(
            node.segment
            for _name, node in sorted(cluster.nodes.items())
            if node.segment.kind is SegmentKind.FULL
        )
        held = []
        for round_ in range(2):
            commit_writes(db, 3 * TXNS_PER_PAGE, tag=f"r{round_}")
            cluster.run_for(100)
            segment.coalesce()
            pages = durable_directory(cluster)
            held.append(held_entries(segment, pages))
        assert held[0] <= 3 * TXNS_PER_PAGE + len(pages)
        assert held[1] - held[0] <= 3 * TXNS_PER_PAGE + len(pages)
        assert held[1] >= 6 * TXNS_PER_PAGE

    def test_later_begun_transaction_writes_first_at_a_page_boundary(
        self, cluster
    ):
        db = cluster.session()
        writer = cluster.writer
        handles = [writer.begin() for _ in range(2 * TXNS_PER_PAGE + 1)]
        early, late = handles[0], handles[-1]
        assert late.txn_id // TXNS_PER_PAGE == 2
        # The page-2 transaction writes first: pages 0..2 appear together.
        db.drive(writer.put(late, "late", "L"))
        pages = durable_directory(cluster)
        assert len(pages) == 3
        db.drive(writer.put(early, "early", "E"))
        assert durable_directory(cluster) == pages  # page 0 already there
        db.commit(late)
        db.commit(early)
        assert late.txn_id in writer.cache.peek(pages[2]).image
        assert early.txn_id in writer.cache.peek(pages[0]).image
        assert writer.cache.peek(pages[1]) is None  # allocated, untouched
        db = crash_and_recover(cluster)
        assert db.get("late") == "L"
        assert db.get("early") == "E"


class TestPagedRecovery:
    def test_recovery_spanning_three_pages_restores_every_status(
        self, backend
    ):
        cluster = AuroraCluster.build(seed=7, backend=backend)
        db = Session(cluster.writer)
        commits = 3 * TXNS_PER_PAGE + 10
        for i in range(20):
            db.write(f"page0-{i}", i)  # statuses all in page 0
        commit_writes(db, commits - 20)
        before = cluster.writer.registry.known_commits()
        assert len(before) == commits
        assert len(durable_directory(cluster)) >= 3
        db = crash_and_recover(cluster)
        writer = cluster.writer
        assert writer.registry.known_commits() == before
        assert writer._txn_pages == durable_directory(cluster)
        # Rows whose only version was committed in page 0 stay visible.
        for i in range(20):
            assert db.get(f"page0-{i}") == i
        assert db.get("k00") == f"v{commits - 20 - (commits - 20) % 50}"
        # New ids seed above every recovered one and land in a real page.
        txn = writer.begin()
        assert txn.txn_id > max(before)
        db.drive(writer.put(txn, "after", "x"))
        db.commit(txn)
        assert db.get("after") == "x"
        assert writer.stats.orphan_versions_purged == 0

    def test_crash_between_page_allocation_and_first_commit(self, backend):
        cluster = AuroraCluster.build(seed=7, backend=backend)
        db = Session(cluster.writer)
        writer = cluster.writer
        db.write("kept", 1)
        pending = writer.begin()
        db.drive(writer.put(pending, "orphan", 2))
        # Skip ahead so the next transaction opens a fresh page.
        while (writer.begin().txn_id + 1) % TXNS_PER_PAGE:
            pass
        opener = writer.begin()
        db.drive(writer.put(opener, "opener", 3))
        pages = durable_directory(cluster)
        assert len(pages) == opener.txn_id // TXNS_PER_PAGE + 1
        cluster.run_for(50)  # the allocating MTR becomes durable
        db = crash_and_recover(cluster)
        writer = cluster.writer
        # The directory survived with its never-committed-to last page.
        assert writer._txn_pages == pages
        assert db.get("kept") == 1
        assert db.get("orphan") is None and db.get("opener") is None
        assert writer.stats.orphan_versions_purged >= 2
        db.write("next", 4)  # the empty page is simply used
        assert db.get("next") == 4
        assert writer._txn_pages == pages

    def test_handle_from_a_crashed_generation_cannot_commit(self, cluster):
        db = cluster.session()
        writer = cluster.writer
        zombie = writer.begin()
        db.drive(writer.put(zombie, "z", 1))
        cluster.crash_writer()  # before the allocating MTR is durable
        db = Session(cluster.writer)
        db.drive(cluster.recover_writer())
        assert cluster.writer._txn_pages == ()
        with pytest.raises(TransactionError):
            cluster.writer.commit(zombie)
        db.write("fresh", 2)
        assert db.get("fresh") == 2 and db.get("z") is None


# ----------------------------------------------------------------------
# Status pages under cache pressure.  A writer-cached image is a segment's
# object or one this writer staged -- never one it made up.  A commit whose
# status page had been evicted used to run its redo on a fabricated empty
# base and *install* the result: the one image in the system no copy of the
# volume held.
# ----------------------------------------------------------------------
def assert_cache_matches_storage(cluster) -> int:
    """Every image in the writer's cache equals the storage image at its
    cached LSN; returns how many status pages were among them."""
    cluster.run_for(50)
    writer = cluster.writer
    segment = cluster.nodes["pg0-a"].segment
    segment.coalesce()
    assert len(writer.cache) > 0
    for block in writer.cache.blocks():
        cached = writer.cache.peek(block)
        stored = segment.blocks[block].version_at(cached.latest_lsn)
        assert stored is not None and stored.lsn == cached.latest_lsn
        assert cached.image == stored.image, block
    return len(set(writer.cache.blocks()) & set(writer._txn_pages))


def late_commit(cluster, db) -> None:
    """Begin A and put one key, commit 380 other transactions (evicting
    A's status page many times over), then commit A."""
    writer = cluster.writer
    late = writer.begin()
    db.drive(writer.put(late, "late", "A"))
    commit_writes(db, 380)
    page = writer._txn_pages[late.txn_id // TXNS_PER_PAGE]
    assert writer.cache.peek(page) is None
    db.commit(late)
    assert db.get("late") == "A"
    cached = writer.cache.peek(page)
    segment = cluster.nodes["pg0-a"].segment
    cluster.run_for(50)
    segment.coalesce()
    stored = segment.blocks[page].latest_image()
    assert len(stored) >= TXNS_PER_PAGE - 1
    assert cached is None or cached.image == stored


def test_late_commit_on_an_evicted_status_page():
    cluster = AuroraCluster.build(seed=7, cache_capacity=8)
    db = Session(cluster.writer)
    late_commit(cluster, db)
    assert_cache_matches_storage(cluster)
    # A page this generation allocates and has not written starts from the
    # empty image, which is real: its first commit installs it.
    writer = cluster.writer
    while (writer.begin().txn_id + 1) % TXNS_PER_PAGE:
        pass
    opener = writer.begin()
    db.drive(writer.put(opener, "opener", 1))
    page = writer._txn_pages[opener.txn_id // TXNS_PER_PAGE]
    assert page in writer._unwritten_txn_pages
    db.commit(opener)
    assert writer.cache.peek(page).image == {opener.txn_id: opener.scn}
    assert page not in writer._unwritten_txn_pages
    assert assert_cache_matches_storage(cluster) >= 1


def test_late_commit_on_an_evicted_status_page_after_recovery():
    cluster = AuroraCluster.build(seed=7, cache_capacity=8)
    db = Session(cluster.writer)
    commit_writes(db, 200)
    cluster.run_for(50)
    db = crash_and_recover(cluster)
    # The recovery walk installs the pages it reads (real images).
    assert_cache_matches_storage(cluster)
    late_commit(cluster, db)
    assert_cache_matches_storage(cluster)
    assert cluster.writer.registry.commit_scn(1) is not None
