"""Unit + property tests for the MTR-atomic B-tree.

Runs against an in-memory BlockIO fake, with every generator driven to
completion synchronously (no storage round trips needed at this layer).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsn import LSNAllocator
from repro.db.btree import BlockIO, BTree, leaf_rows, row_key
from repro.db.mtr import ChainState, MTRBuilder
from repro.db.mvcc import ReadView, TransactionStatusRegistry


class MemoryIO(BlockIO):
    """Block store over a plain dict; applies MTRs synchronously."""

    def __init__(self):
        self.blocks: dict[int, dict] = {}
        self.allocator = LSNAllocator()
        self.chains = ChainState()

    def cached_image(self, block, mtr=None):
        if mtr is not None and block in mtr.staged_images:
            return mtr.staged_images[block]
        return self.blocks.get(block)

    def fetch_image(self, block):
        return {}  # only a never-written block misses
        yield  # pragma: no cover - makes this a generator

    def stage_change(self, mtr, block, base, payload):
        base = mtr.staged_images.get(block, base)
        new_image = payload.apply(base)
        mtr.staged_images[block] = new_image
        mtr.change(block, 0, payload, base=base, image=new_image)
        return new_image

    def allocate_block(self, mtr):
        meta = yield from self.read_image(0, mtr)
        from repro.core.records import BlockPut

        new_block = meta["next_block"]
        self.stage_change(
            mtr, 0, meta, BlockPut(entries=(("next_block", new_block + 1),))
        )
        mtr.staged_images.setdefault(new_block, {})
        return new_block

    def apply(self, mtr):
        """Seal and absorb an MTR (the instance's _apply_mtr analogue)."""
        records = mtr.seal(self.allocator, self.chains)
        for record in records:
            image = record.payload.apply(self.blocks.get(record.block, {}))
            self.blocks[record.block] = image
        return records


def run(gen):
    """Drive a generator that never actually yields externally."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("B-tree traversal yielded unexpectedly")


@pytest.fixture
def tree():
    io = MemoryIO()
    registry = TransactionStatusRegistry()
    registry.record_commit(1, 1)  # txn 1 committed at SCN 1
    btree = BTree(io, registry, meta_block=0, max_leaf_rows=4,
                  max_internal_keys=4)
    mtr = MTRBuilder()
    btree.bootstrap(mtr, root_block=1, first_free_block=2)
    io.apply(mtr)
    return io, btree, registry


def put(io, btree, key, value, txn_id=1):
    mtr = MTRBuilder(txn_id=txn_id)
    prior = run(btree.put(mtr, txn_id, key, value))
    io.apply(mtr)
    return prior


def get(btree, key, read_point=10**9, txn_id=0):
    view = ReadView(view_id=1, read_point=read_point, txn_id=txn_id)
    found, value = run(btree.get(view, key))
    return value if found else None


class TestBasicOperations:
    def test_put_then_get(self, tree):
        io, btree, _ = tree
        put(io, btree, 5, "five")
        assert get(btree, 5) == "five"
        assert get(btree, 6) is None

    def test_put_returns_prior_versions(self, tree):
        io, btree, _ = tree
        assert put(io, btree, 5, "a") == ()
        prior = put(io, btree, 5, "b")
        assert prior == ((1, "a"),)

    def test_overwrite_appends_version(self, tree):
        io, btree, registry = tree
        put(io, btree, 5, "a")
        put(io, btree, 5, "b", txn_id=2)
        registry.record_commit(2, 100)
        assert get(btree, 5, read_point=50) == "a"
        assert get(btree, 5, read_point=100) == "b"

    def test_scan_range(self, tree):
        io, btree, _ = tree
        for key in (5, 1, 9, 3, 7):
            put(io, btree, key, key * 10)
        view = ReadView(view_id=1, read_point=10**9)
        results = run(btree.scan(view, 3, 7))
        assert results == [(3, 30), (5, 50), (7, 70)]

    def test_scan_empty_range(self, tree):
        io, btree, _ = tree
        put(io, btree, 1, "x")
        view = ReadView(view_id=1, read_point=10**9)
        assert run(btree.scan(view, 5, 9)) == []

    def test_get_before_bootstrap_fails(self):
        io = MemoryIO()
        btree = BTree(io, TransactionStatusRegistry(), meta_block=0)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            get(btree, 1)


class TestSplits:
    def test_leaf_split_preserves_all_keys(self, tree):
        io, btree, _ = tree
        for key in range(10):
            put(io, btree, key, f"v{key}")
        for key in range(10):
            assert get(btree, key) == f"v{key}"
        assert io.blocks[0]["height"] >= 1  # root grew

    def test_split_is_single_mtr(self, tree):
        """A split's records share one MTR id with one mtr_end at the end."""
        io, btree, _ = tree
        for key in range(4):
            put(io, btree, key, "x")
        mtr = MTRBuilder(txn_id=1)
        run(btree.put(mtr, 1, 4, "x"))  # triggers the split
        records = io.apply(mtr)
        assert len(records) > 2  # leaf + sibling + meta + parent...
        assert [r.mtr_end for r in records].count(True) == 1
        assert records[-1].mtr_end
        assert len({r.mtr_id for r in records}) == 1

    def test_deep_tree_with_internal_splits(self, tree):
        io, btree, _ = tree
        keys = list(range(200))
        random.Random(5).shuffle(keys)
        for key in keys:
            put(io, btree, key, key)
        assert io.blocks[0]["height"] >= 2
        for key in range(200):
            assert get(btree, key) == key
        leaves = run(btree.check_structure())
        assert leaves > 10

    def test_scan_crosses_leaf_boundaries(self, tree):
        io, btree, _ = tree
        for key in range(50):
            put(io, btree, key, key)
        view = ReadView(view_id=1, read_point=10**9)
        results = run(btree.scan(view, 0, 49))
        assert [k for k, _ in results] == list(range(50))


class TestSplitPoint:
    def leaf_keys(self, btree):
        return [
            [key for key, _versions in leaf_rows(image)]
            for _block, image in run(btree.iterate_leaves())
        ]

    def test_an_ascending_load_fills_every_leaf_but_the_last(self):
        io = MemoryIO()
        registry = TransactionStatusRegistry()
        registry.record_commit(1, 1)
        btree = BTree(io, registry, meta_block=0)
        mtr = MTRBuilder()
        btree.bootstrap(mtr, root_block=1, first_free_block=2)
        io.apply(mtr)
        for key in range(5000):
            put(io, btree, key, key)
        assert run(btree.check_structure()) == 313
        leaves = self.leaf_keys(btree)
        assert all(len(keys) == btree.max_leaf_rows for keys in leaves[:-1])
        assert leaves[-1] == list(range(312 * btree.max_leaf_rows, 5000))
        internal = [
            image for image in io.blocks.values()
            if image.get("type") == "internal"
        ]
        assert (io.blocks[0]["height"], len(internal)) == (3, 23)

    def test_an_overflow_off_the_right_edge_splits_at_the_middle(
        self, tree
    ):
        io, btree, _ = tree
        for key in (0, 10, 20, 30, 40):
            put(io, btree, key, key)
        # The append split at the insert point: the left leaf stays full.
        assert self.leaf_keys(btree) == [[0, 10, 20, 30], [40]]
        # The end of a leaf that is not the rightmost: the middle.
        put(io, btree, 35, 35)
        assert self.leaf_keys(btree) == [[0, 10], [20, 30, 35], [40]]
        # The rightmost leaf, but not at its end: the middle.
        for key in (45, 50, 55, 42):
            put(io, btree, key, key)
        assert self.leaf_keys(btree) == [
            [0, 10], [20, 30, 35], [40, 42], [45, 50, 55],
        ]
        run(btree.check_structure())


class TestMaintenance:
    def test_iterate_leaves_left_to_right(self, tree):
        io, btree, _ = tree
        for key in range(20):
            put(io, btree, key, key)
        leaves = run(btree.iterate_leaves())
        seen = []
        for _block, image in leaves:
            seen.extend(k for k, _v in leaf_rows(image))
        assert seen == sorted(seen) == list(range(20))

    def test_prune_leaf_removes_doomed_versions(self, tree):
        io, btree, registry = tree
        put(io, btree, 5, "committed")
        put(io, btree, 5, "orphan", txn_id=66)  # never commits
        leaves = run(btree.iterate_leaves())
        mtr = MTRBuilder()
        changed = btree.prune_leaf(
            mtr, leaves[0][0], leaves[0][1], purge_point=0,
            doomed_txns=frozenset({66}),
        )
        io.apply(mtr)
        assert changed == 1
        versions = run(btree.versions_of(5))
        assert versions == ((1, "committed"),)

    def test_replace_versions(self, tree):
        io, btree, _ = tree
        put(io, btree, 5, "a")
        mtr = MTRBuilder()
        run(btree.replace_versions(mtr, 5, ((1, "rewritten"),)))
        io.apply(mtr)
        assert get(btree, 5) == "rewritten"

    def test_check_structure_detects_disorder(self, tree):
        io, btree, _ = tree
        for key in range(10):
            put(io, btree, key, key)
        # Corrupt: swap a key into the wrong leaf.
        leaves = run(btree.iterate_leaves())
        block, image = leaves[0]
        io.blocks[block][row_key(999)] = ((1, "bogus"),)
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(btree.check_structure())

    @pytest.mark.parametrize("damage", ["empty", "disorder", "stray"])
    def test_check_structure_checks_internal_nodes(self, tree, damage):
        io, btree, _ = tree
        for key in range(40):
            put(io, btree, key, key)
        run(btree.check_structure())
        root = io.blocks[io.blocks[0]["root"]]
        keys, children = list(root["keys"]), list(root["children"])
        if damage == "empty":  # one child, no separator
            keys, children = [], children[:1]
        elif damage == "disorder":  # separators descend
            keys.reverse()
        else:  # a separator past the keys of the child below it
            keys[0] = keys[1] - 1
        io.blocks[io.blocks[0]["root"]] = {
            **root, "keys": tuple(keys), "children": tuple(children),
        }
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(btree.check_structure())


#: One run of puts: random keys, or an ascending or descending key range.
RUNS = st.one_of(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 10**6)),
        min_size=1,
        max_size=40,
    ),
    st.builds(
        lambda start, count: [(key, key) for key in range(start, start + count)],
        st.integers(0, 500), st.integers(1, 60),
    ),
    st.builds(
        lambda start, count: [
            (key, -key) for key in range(start + count - 1, start - 1, -1)
        ],
        st.integers(0, 500), st.integers(1, 60),
    ),
)


class TestBTreeProperties:
    @given(st.lists(RUNS, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model(self, runs):
        """Property: a B-tree with committed single-version writes behaves
        exactly like a dict, across any interleaving of puts -- random,
        ascending and descending runs -- and keeps its structure after
        every run."""
        io = MemoryIO()
        registry = TransactionStatusRegistry()
        registry.record_commit(1, 1)
        btree = BTree(io, registry, meta_block=0, max_leaf_rows=4,
                      max_internal_keys=4)
        mtr = MTRBuilder()
        btree.bootstrap(mtr, root_block=1, first_free_block=2)
        io.apply(mtr)
        model: dict[int, int] = {}
        for operations in runs:
            for key, value in operations:
                put(io, btree, key, value)
                model[key] = value
            run(btree.check_structure())
        for key, value in model.items():
            view = ReadView(view_id=1, read_point=10**9)
            found, got = run(btree.get(view, key))
            # Several versions may exist; the newest committed wins.
            assert found and got == value
        view = ReadView(view_id=1, read_point=10**9)
        scan = run(btree.scan(view, 0, 10**6))
        assert [k for k, _ in scan] == sorted(model)
