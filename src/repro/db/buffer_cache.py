"""The buffer cache and its write-ahead-logging eviction invariant.

"Even though Aurora does not write blocks to storage from the database
instance, it must support write-ahead logging by ensuring redo log records
for dirty blocks have been made durable before discarding the block from
cache.  This ensures that the latest version of a data block can always be
found either in cache or ... by finding the latest durable version of the
block in one of the segments" (section 3.1).

Because the instance never writes blocks back, "dirty" here means *ahead of
the durable point*: a cached block whose newest redo LSN exceeds the current
VDL may not be evicted.  Once VDL catches up the block is clean by
definition -- storage can regenerate it -- so eviction is a pure discard.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.core.lsn import NULL_LSN
from repro.errors import ConfigurationError


@dataclass
class CachedBlock:
    """A block image held in the buffer pool."""

    block: int
    image: dict[Any, Any]
    #: LSN of the newest redo applied to this cached image.
    latest_lsn: int = NULL_LSN

    def is_evictable(self, vdl: int) -> bool:
        return self.latest_lsn <= vdl


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    eviction_blocked: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """LRU buffer pool enforcing the WAL eviction invariant."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._blocks: OrderedDict[int, CachedBlock] = OrderedDict()
        self.stats = CacheStats()

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def lookup(self, block: int) -> CachedBlock | None:
        """Fetch from cache (counts hit/miss, refreshes LRU position)."""
        cached = self._blocks.get(block)
        if cached is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._blocks.move_to_end(block)
        return cached

    def peek(self, block: int) -> CachedBlock | None:
        """Fetch without touching stats or LRU order."""
        return self._blocks.get(block)

    def install(
        self, block: int, image: dict[Any, Any], latest_lsn: int, vdl: int
    ) -> CachedBlock:
        """Insert (or refresh) a block image, evicting as needed.

        ``vdl`` is the current Volume Durable LSN, consulted for the WAL
        invariant when making room.  Over-capacity with nothing evictable is
        tolerated (the pool temporarily over-fills rather than ever
        discarding a non-durable block).
        """
        cached = self._blocks.get(block)
        if cached is not None:
            if latest_lsn >= cached.latest_lsn:
                cached.image = image
                cached.latest_lsn = latest_lsn
            self._blocks.move_to_end(block)
            return cached
        self._make_room(vdl)
        cached = CachedBlock(block=block, image=image, latest_lsn=latest_lsn)
        self._blocks[block] = cached
        return cached

    def apply_change(
        self, block: int, image: dict[Any, Any], lsn: int
    ) -> CachedBlock:
        """Update a cached block in place with a new redo application.

        Redo apply is not a reference: the block keeps its LRU position
        (on a replica the writer's writes would otherwise renew blocks no
        reader of the replica asked for).
        """
        cached = self._blocks.get(block)
        if cached is None:
            raise ConfigurationError(
                f"block {block} must be cached before modification"
            )
        if lsn <= cached.latest_lsn:
            raise ConfigurationError(
                f"redo must move the block forward: {lsn} <= "
                f"{cached.latest_lsn}"
            )
        cached.image = image
        cached.latest_lsn = lsn
        return cached

    def _evict_one(self, vdl: int) -> bool:
        """Discard the least recently used evictable block, if there is one."""
        for block, cached in self._blocks.items():
            if cached.is_evictable(vdl):
                del self._blocks[block]
                self.stats.evictions += 1
                return True
        return False

    def _make_room(self, vdl: int) -> None:
        while len(self._blocks) >= self.capacity:
            if not self._evict_one(vdl):
                # Nothing evictable: every block is ahead of the VDL.
                # Over-fill rather than violate the WAL invariant.
                self.stats.eviction_blocked += 1
                return

    def shrink(self, vdl: int) -> int:
        """Re-enforce capacity after a WAL-blocked over-fill.

        Called when the VDL advances: blocks that were un-evictable while
        their redo was in flight become plain discards.  Returns the number
        evicted.
        """
        evicted = 0
        while len(self._blocks) > self.capacity and self._evict_one(vdl):
            evicted += 1
        return evicted

    def evict(self, block: int, vdl: int) -> bool:
        """Explicitly evict one block if the invariant allows it."""
        cached = self._blocks.get(block)
        if cached is None:
            return False
        if not cached.is_evictable(vdl):
            self.stats.eviction_blocked += 1
            return False
        del self._blocks[block]
        self.stats.evictions += 1
        return True

    def drop_all(self) -> None:
        """Crash: instance memory is ephemeral."""
        self._blocks.clear()

    def dirty_blocks(self, vdl: int) -> list[int]:
        """Blocks whose newest redo is not yet durable."""
        return [
            block
            for block, cached in self._blocks.items()
            if cached.latest_lsn > vdl
        ]

    def blocks(self) -> list[int]:
        return list(self._blocks)
