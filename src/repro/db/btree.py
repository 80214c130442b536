"""B-tree access method with MTR-atomic structural changes.

"Structural changes to the database, for example B-Tree splits and merges,
must be made visible ... atomically" (section 3.3).  Every operation here
funnels its block changes into a single :class:`~repro.db.mtr.MTRBuilder`,
so a split that touches a leaf, a new sibling, a parent, and the tree meta
block occupies one contiguous LSN batch with a single ``mtr_end`` -- the
atomicity unit replicas and the VDL respect.

Layout (the storage block format; a version one row write made is an
:class:`~repro.core.records.Overlay` on the version before, which reads
as the same dict):

- **meta block**: ``{"root": b, "height": h, "next_block": n}``.
- **internal node**: ``{"type": "internal", "keys": (...), "children": (...)}``
  with ``len(children) == len(keys) + 1``; child ``i`` covers keys strictly
  below ``keys[i]``.
- **leaf node**: ``{"type": "leaf", "next": b_or_None, ("k", key): versions}``
  -- one image entry per row, keyed by a ``("k", key)`` tuple, holding that
  row's MVCC version chain (oldest first).  Row updates therefore log a
  one-entry :class:`~repro.core.records.BlockPut` delta, not a page image.
- **splits**: a node that overflows splits at the middle, except an append
  at the right edge.  When the node is the rightmost on its level (every
  step of the descent took the last child) and the new entry landed at its
  end, the new right sibling takes only that entry -- a leaf's new row, or
  an internal node's last separator and the two children beside it -- and
  the left node stays full.  An ascending load therefore fills its pages
  instead of leaving each half empty.

Keys within one tree must be mutually comparable (all ints, or all strs).

All traversals are generator functions driven by the simulation's process
machinery: ``yield from`` a traversal inside an instance process, and block
reads transparently hit the buffer cache or go to storage.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Any, Generator, Hashable, Mapping

from repro.core.records import (
    EMPTY_IMAGE,
    BlockPut,
    BlockReplace,
    RedoPayload,
)
from repro.db.mtr import MTRBuilder
from repro.db.mvcc import (
    ReadView,
    TransactionStatusRegistry,
    Version,
    prune_versions,
    visible_value,
)
from repro.errors import ConfigurationError


class BlockIO:
    """What the tree needs from its host instance.

    A block's current image comes from the MTR overlay first, then the
    buffer cache, then storage.  ``cached_image`` answers synchronously
    from the first two (``None`` on a cache miss, which it counts);
    ``fetch_image`` is the generator that then reads storage, and
    ``read_image`` is the two together.  ``stage_change`` applies a payload
    to the image the caller read (or to what the MTR already staged for
    the block) and registers the change in the MTR.  ``allocate_block``
    hands out a fresh block number, durably bumping the meta block's
    ``next_block`` inside the same MTR.

    Every image handed out or staged is the shared, immutable object the
    cache and the storage copies hold (DESIGN.md section 8): nobody edits
    one in place.

    The host also owns the other half of the read contract: a read that is
    not serialised against structural changes runs through
    :meth:`_structurally_stable`, and the host reports every MTR it makes
    visible to its readers to :meth:`_note_structure_change`.  (``stats``
    is the host's stats object; it counts ``traversals_retried``.)
    """

    #: Bumped by every MTR made visible that rewrites whole block images
    #: together with other blocks (a B-tree split or root growth).  Each
    #: block of a traversal is fetched when the traversal gets to it, so a
    #: traversal that waited on storage across such an MTR may pair a
    #: pre-split parent with a post-split child and miss a row that moved
    #: to the new sibling; reads re-run when this moved underneath them.
    _structure_epoch = 0

    def _note_structure_change(self, records) -> None:
        """``records`` (one whole MTR) just became visible to readers."""
        if len(records) > 1 and any(
            type(record.payload) is BlockReplace for record in records
        ):
            self._structure_epoch += 1

    def _structurally_stable(self, traverse):
        """Generator: run the B-tree read ``traverse()`` again until no
        structural MTR became visible while it waited on storage."""
        while True:
            epoch = self._structure_epoch
            result = yield from traverse()
            if epoch == self._structure_epoch:
                return result
            self.stats.traversals_retried += 1

    def cached_image(
        self, block: int, mtr: MTRBuilder | None = None
    ) -> Mapping | None:
        raise NotImplementedError

    def fetch_image(self, block: int) -> Generator[Any, Any, Mapping]:
        raise NotImplementedError

    def read_image(
        self, block: int, mtr: MTRBuilder | None = None
    ) -> Generator[Any, Any, Mapping]:
        image = self.cached_image(block, mtr)
        if image is None:
            image = yield from self.fetch_image(block)
        return image

    def stage_change(
        self, mtr: MTRBuilder, block: int, base: Mapping, payload: RedoPayload
    ) -> Mapping:
        raise NotImplementedError

    def allocate_block(self, mtr: MTRBuilder) -> Generator[Any, Any, int]:
        raise NotImplementedError


def row_key(key: Hashable) -> tuple[str, Hashable]:
    """Image key under which a row's version chain is stored in a leaf."""
    return ("k", key)


def leaf_rows(image: dict) -> list[tuple[Hashable, tuple[Version, ...]]]:
    """Sorted (key, versions) rows of a leaf image."""
    rows = [
        (image_key[1], versions)
        for image_key, versions in image.items()
        if isinstance(image_key, tuple) and image_key[0] == "k"
    ]
    rows.sort(key=lambda kv: kv[0])
    return rows


def empty_leaf(next_block: int | None = None) -> dict:
    return {"type": "leaf", "next": next_block}


#: A leaf image is its header fields plus one entry per row.
_LEAF_HEADER_FIELDS = len(empty_leaf())


def leaf_row_count(image: Mapping) -> int:
    """Number of rows in a leaf image, without building or sorting them."""
    return len(image) - _LEAF_HEADER_FIELDS


class BTree:
    """A B-tree over versioned rows, hosted by a database instance."""

    def __init__(
        self,
        io: BlockIO,
        registry: TransactionStatusRegistry,
        meta_block: int,
        max_leaf_rows: int = 16,
        max_internal_keys: int = 16,
    ) -> None:
        if max_leaf_rows < 2 or max_internal_keys < 2:
            raise ConfigurationError("fanout parameters must be >= 2")
        self.io = io
        self.registry = registry
        self.meta_block = meta_block
        self.max_leaf_rows = max_leaf_rows
        self.max_internal_keys = max_internal_keys

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap(
        self, mtr: MTRBuilder, root_block: int, first_free_block: int
    ) -> None:
        """Create an empty tree (meta + root leaf) inside ``mtr``."""
        self.io.stage_change(
            mtr,
            self.meta_block,
            EMPTY_IMAGE,
            BlockReplace.of(
                {
                    "root": root_block,
                    "height": 0,
                    "next_block": first_free_block,
                }
            ),
        )
        self.io.stage_change(
            mtr, root_block, EMPTY_IMAGE, BlockReplace.of(empty_leaf())
        )

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _find_leaf(self, key: Hashable, mtr: MTRBuilder | None = None):
        """Descend to the leaf covering ``key``.

        Returns ``(meta_image, path, leaf_block, leaf_image)`` where
        ``path`` is a list of ``(block, image, child_index)`` internal
        steps from the root down.  When ``mtr`` is given, reads see that
        MTR's staged-but-unsealed images (and nobody else's).  Cached
        blocks are stepped through synchronously; only a miss waits.
        """
        cached_image = self.io.cached_image
        fetch_image = self.io.fetch_image
        meta = cached_image(self.meta_block, mtr)
        if meta is None:
            meta = yield from fetch_image(self.meta_block)
        node = meta.get("root")
        if node is None:
            raise ConfigurationError("B-tree is not bootstrapped")
        path: list[tuple[int, Mapping, int]] = []
        for _level in range(meta["height"]):
            image = cached_image(node, mtr)
            if image is None:
                image = yield from fetch_image(node)
            child_index = bisect_right(image["keys"], key)
            path.append((node, image, child_index))
            node = image["children"][child_index]
        leaf_image = cached_image(node, mtr)
        if leaf_image is None:
            leaf_image = yield from fetch_image(node)
        return meta, path, node, leaf_image

    # ------------------------------------------------------------------
    # Point reads
    # ------------------------------------------------------------------
    def get(self, view: ReadView, key: Hashable):
        """Visible value of ``key`` under ``view`` -- ``(found, value)``."""
        _meta, _path, _leaf, image = yield from self._find_leaf(key)
        versions = image.get(row_key(key), ())
        return visible_value(versions, view, self.registry)

    def versions_of(self, key: Hashable):
        """Raw version chain of ``key`` (diagnostics and undo)."""
        _meta, _path, _leaf, image = yield from self._find_leaf(key)
        return image.get(row_key(key), ())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(
        self, mtr: MTRBuilder, txn_id: int, key: Hashable, value: Any
    ):
        """Append a version of ``key``; returns the prior version chain.

        Splits the leaf (and ancestors, and possibly the root) inside the
        same MTR when the row count exceeds the fanout.
        """
        meta, path, leaf, image = yield from self._find_leaf(key, mtr)
        prior = image.get(row_key(key), ())
        new_versions = prior + ((txn_id, value),)
        new_image = self.io.stage_change(
            mtr, leaf, image, BlockPut(entries=((row_key(key), new_versions),))
        )
        if leaf_row_count(new_image) > self.max_leaf_rows:
            yield from self._split_leaf(
                mtr, meta, path, leaf, new_image, key
            )
        return prior

    def replace_versions(
        self,
        mtr: MTRBuilder,
        key: Hashable,
        versions: tuple[Version, ...],
    ):
        """Overwrite ``key``'s version chain (rollback / purge paths)."""
        _meta, _path, leaf, image = yield from self._find_leaf(key, mtr)
        self.io.stage_change(
            mtr, leaf, image, BlockPut(entries=((row_key(key), versions),))
        )

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------
    def scan(self, view: ReadView, low: Hashable, high: Hashable):
        """Visible (key, value) pairs with ``low <= key <= high``, in order."""
        _meta, _path, leaf, image = yield from self._find_leaf(low)
        results: list[tuple[Hashable, Any]] = []
        while True:
            for key, versions in leaf_rows(image):
                if key < low:
                    continue
                if key > high:
                    return results
                found, value = visible_value(versions, view, self.registry)
                if found:
                    results.append((key, value))
            next_block = image.get("next")
            if next_block is None:
                return results
            leaf = next_block
            image = self.io.cached_image(leaf)
            if image is None:
                image = yield from self.io.fetch_image(leaf)

    def iterate_leaves(self):
        """Yield every ``(leaf_block, image)`` left to right (maintenance)."""
        meta = yield from self.io.read_image(self.meta_block)
        node = meta["root"]
        for _level in range(meta["height"]):
            image = yield from self.io.read_image(node)
            node = image["children"][0]
        leaves: list[tuple[int, dict]] = []
        while node is not None:
            image = yield from self.io.read_image(node)
            leaves.append((node, image))
            node = image.get("next")
        return leaves

    # ------------------------------------------------------------------
    # Maintenance: version purge (undo application / MVCC GC)
    # ------------------------------------------------------------------
    def prune_leaf(
        self,
        mtr: MTRBuilder,
        leaf_block: int,
        image: Mapping,
        purge_point: int,
        doomed_txns: frozenset[int],
    ) -> int:
        """Prune one leaf's version chains; returns rows changed.

        ``image`` is the leaf as the caller read it; it is the base of the
        first change even if the block has left the cache since.
        """
        changed = 0
        for key, versions in leaf_rows(image):
            pruned = prune_versions(
                versions, purge_point, self.registry, doomed_txns
            )
            if pruned != versions:
                self.io.stage_change(
                    mtr,
                    leaf_block,
                    image,
                    BlockPut(entries=((row_key(key), pruned),)),
                )
                changed += 1
        return changed

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def _split_leaf(self, mtr, meta, path, leaf_block, image, key):
        rows = leaf_rows(image)
        if key == rows[-1][0] and _at_right_edge(path):
            # An append to the last leaf: the left leaf stays full and
            # the new sibling starts with the new row alone.
            mid = len(rows) - 1
        else:
            mid = len(rows) // 2
        left_rows, right_rows = rows[:mid], rows[mid:]
        separator = right_rows[0][0]
        right_block = yield from self.io.allocate_block(mtr)
        right_image = empty_leaf(next_block=image.get("next"))
        for key, versions in right_rows:
            right_image[row_key(key)] = versions
        left_image = empty_leaf(next_block=right_block)
        for key, versions in left_rows:
            left_image[row_key(key)] = versions
        self.io.stage_change(
            mtr, right_block, EMPTY_IMAGE, BlockReplace.of(right_image)
        )
        self.io.stage_change(
            mtr, leaf_block, image, BlockReplace.of(left_image)
        )
        yield from self._insert_into_parent(
            mtr, meta, path, leaf_block, separator, right_block
        )

    def _insert_into_parent(
        self, mtr, meta, path, left_block, separator, right_block
    ):
        if not path:
            yield from self._grow_root(
                mtr, meta, left_block, separator, right_block
            )
            return
        node, image, child_index = path[-1]
        keys = list(image["keys"])
        children = list(image["children"])
        keys.insert(child_index, separator)
        children.insert(child_index + 1, right_block)
        if len(keys) <= self.max_internal_keys:
            self.io.stage_change(
                mtr,
                node,
                image,
                BlockReplace.of(
                    {
                        "type": "internal",
                        "keys": tuple(keys),
                        "children": tuple(children),
                    }
                ),
            )
            return
        # Split this internal node; the key at the split point moves up.
        if _at_right_edge(path):
            # The separator landed at the end of the last node on its
            # level: the new sibling takes only it and the two children
            # beside it, the left node keeps the rest.
            mid = len(keys) - 2
        else:
            mid = len(keys) // 2
        promoted = keys[mid]
        right_node = yield from self.io.allocate_block(mtr)
        self.io.stage_change(
            mtr,
            node,
            image,
            BlockReplace.of(
                {
                    "type": "internal",
                    "keys": tuple(keys[:mid]),
                    "children": tuple(children[: mid + 1]),
                }
            ),
        )
        self.io.stage_change(
            mtr,
            right_node,
            EMPTY_IMAGE,
            BlockReplace.of(
                {
                    "type": "internal",
                    "keys": tuple(keys[mid + 1:]),
                    "children": tuple(children[mid + 1:]),
                }
            ),
        )
        yield from self._insert_into_parent(
            mtr, meta, path[:-1], node, promoted, right_node
        )

    def _grow_root(self, mtr, meta, left_block, separator, right_block):
        new_root = yield from self.io.allocate_block(mtr)
        self.io.stage_change(
            mtr,
            new_root,
            EMPTY_IMAGE,
            BlockReplace.of(
                {
                    "type": "internal",
                    "keys": (separator,),
                    "children": (left_block, right_block),
                }
            ),
        )
        self.io.stage_change(
            mtr,
            self.meta_block,
            meta,
            BlockPut(
                entries=(
                    ("root", new_root),
                    ("height", meta["height"] + 1),
                )
            ),
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_structure(self):
        """Verify ordering and fanout invariants; returns leaf count.

        Every internal node holds at least one separator and one child
        more than separators, its separators ascend, and every key below
        child ``i`` lies inside that child's separators
        (``keys[i - 1] <= key < keys[i]``).  The descent reaches the leaf
        chain's leaves, in its order; no leaf overflows, and keys ascend
        along the chain.  Used by integration tests and the
        failure-injection suites to assert the tree survived splits,
        crashes, and recovery intact.
        """
        meta = yield from self.io.read_image(self.meta_block)
        level = [(meta["root"], None, None)]  # (block, low, high)
        for _depth in range(meta["height"]):
            below = []
            for block, low, high in level:
                image = yield from self.io.read_image(block)
                keys, children = image.get("keys"), image.get("children")
                if (
                    image.get("type") != "internal"
                    or not keys
                    or len(children or ()) != len(keys) + 1
                ):
                    raise ConfigurationError(
                        f"malformed internal node {block}: {image!r}"
                    )
                bounds = (low, *keys, high)
                for i, child in enumerate(children):
                    child_low, child_high = bounds[i], bounds[i + 1]
                    if (
                        child_low is not None
                        and child_high is not None
                        and not child_low < child_high
                    ):
                        raise ConfigurationError(
                            f"separators out of order in node {block}: "
                            f"{child_low!r} before {child_high!r}"
                        )
                    below.append((child, child_low, child_high))
            level = below
        leaves = yield from self.iterate_leaves()
        if [block for block, _low, _high in level] != [
            block for block, _image in leaves
        ]:
            raise ConfigurationError("leaf chain differs from the descent")
        previous_key = None
        for (block, low, high), (_block, image) in zip(level, leaves):
            rows = leaf_rows(image)
            if len(rows) > self.max_leaf_rows:
                raise ConfigurationError(
                    f"leaf overflow: {len(rows)} rows"
                )
            for key, _versions in rows:
                if previous_key is not None and key <= previous_key:
                    raise ConfigurationError(
                        f"key order violated: {key!r} after {previous_key!r}"
                    )
                if (low is not None and key < low) or (
                    high is not None and not key < high
                ):
                    raise ConfigurationError(
                        f"key {key!r} in leaf {block} outside its "
                        f"separators [{low!r}, {high!r})"
                    )
                previous_key = key
        return len(leaves)


def _at_right_edge(path) -> bool:
    """Whether every step of a traversal ``path`` took the last child:
    the node it reached is the rightmost on its level."""
    return all(
        child_index == len(image["keys"])
        for _block, image, child_index in path
    )


# Re-export for convenience so callers can use insort-based key batching
# without importing bisect themselves.
__all__ = [
    "BTree",
    "BlockIO",
    "empty_leaf",
    "insort",
    "leaf_rows",
    "row_key",
]
