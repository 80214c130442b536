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

A miss costs one storage round trip and nothing else (no quorum read), so
what the pool keeps *is* the read path's cost.  Residency is earned by
re-reference and takes no hint about what a block holds: a block enters a
probationary segment, a second read promotes it to a protected one, victims
come from probation first, and once the pool has filled a clean newcomer
must have been read more often than the victim it would displace
(DESIGN.md D11, docs/PERF.md "Keep what is read twice").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.core.lsn import NULL_LSN
from repro.errors import ConfigurationError

#: Share of the capacity the protected segment may hold.  The rest is where
#: a newcomer waits for its second read: too little and it is gone before
#: then, too much and one-touch blocks crowd out re-read ones as they did
#: under LRU.  80/20 is the split SLRU and W-TinyLFU settled on.
PROTECTED_SHARE = 0.8
#: The frequency table is halved every this many capacities' worth of
#: lookups, so a block that *was* hot stops outranking one that *is*, and
#: the table stays bounded (an entry halved to zero is dropped).
AGING_PERIOD = 10


@dataclass
class CachedBlock:
    """A block image held in the buffer pool."""

    block: int
    image: dict[Any, Any]
    #: LSN of the newest redo applied to this cached image.
    latest_lsn: int = NULL_LSN
    #: Which segment orders it: earned by a second read, lost by overflow.
    protected: bool = False

    def is_evictable(self, vdl: int) -> bool:
        return self.latest_lsn <= vdl


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    eviction_blocked: int = 0
    #: Clean images handed to their reader without being kept.
    declined: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """Segmented, frequency-gated buffer pool enforcing the WAL eviction
    invariant: a block ahead of the VDL is never evicted, never declined."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._protected_capacity = int(capacity * PROTECTED_SHARE)
        #: Residency is one dict, as under LRU: redo apply and ``peek`` run
        #: per record and must not pay for the policy.  Replacement order
        #: is two more, each from its next victim to its most recent block.
        self._blocks: dict[int, CachedBlock] = {}
        self._probation: OrderedDict[int, CachedBlock] = OrderedDict()
        self._protected: OrderedDict[int, CachedBlock] = OrderedDict()
        #: Lookups per block, resident or not, since the pool first filled.
        self._frequency: dict[int, int] = {}
        self._filled = False
        self._lookups_until_aging = AGING_PERIOD * capacity
        self.stats = CacheStats()

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def lookup(self, block: int) -> CachedBlock | None:
        """Fetch from cache (counts hit/miss; a hit is a reference)."""
        if self._filled:
            self._count(block)
        cached = self._blocks.get(block)
        if cached is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if cached.protected:
            self._protected.move_to_end(block)
        else:
            self._promote(cached)
        return cached

    def _promote(self, cached: CachedBlock) -> None:
        """The second read; overflow demotes protected's oldest block."""
        protected = self._protected
        del self._probation[cached.block]
        protected[cached.block] = cached
        cached.protected = True
        if len(protected) > self._protected_capacity:
            _, demoted = protected.popitem(last=False)
            demoted.protected = False
            self._probation[demoted.block] = demoted

    def _count(self, block: int) -> None:
        frequency = self._frequency
        frequency[block] = frequency.get(block, 0) + 1
        self._lookups_until_aging -= 1
        if not self._lookups_until_aging:
            self._lookups_until_aging = AGING_PERIOD * self.capacity
            self._frequency = {
                block: count >> 1
                for block, count in frequency.items()
                if count > 1
            }

    def peek(self, block: int) -> CachedBlock | None:
        """Fetch without touching stats, order or frequency."""
        return self._blocks.get(block)

    def install(
        self, block: int, image: dict[Any, Any], latest_lsn: int, vdl: int
    ) -> CachedBlock | None:
        """Insert (or refresh) a block image, evicting as needed.

        ``vdl`` is the current Volume Durable LSN, consulted for the WAL
        invariant when making room.  Over-capacity with nothing evictable is
        tolerated (the pool temporarily over-fills rather than ever
        discarding a non-durable block).  Returns ``None`` when the image is
        not kept: it is clean, so storage can serve it again, and it has
        been read no more often than the block it would push out.
        """
        cached = self._blocks.get(block)
        if cached is not None:
            if latest_lsn >= cached.latest_lsn:
                cached.image = image
                cached.latest_lsn = latest_lsn
            return cached
        if len(self._blocks) >= self.capacity:
            victim = self._victim(vdl) if latest_lsn <= vdl else None
            frequency = self._frequency.get
            if victim and frequency(block, 0) <= frequency(victim.block, 0):
                self.stats.declined += 1
                return None
            while len(self._blocks) >= self.capacity:
                if not self._evict_one(vdl):
                    # Nothing evictable: every block is ahead of the VDL.
                    # Over-fill rather than violate the WAL invariant.
                    self.stats.eviction_blocked += 1
                    break
        cached = CachedBlock(block=block, image=image, latest_lsn=latest_lsn)
        self._blocks[block] = self._probation[block] = cached
        if len(self._blocks) >= self.capacity:
            self._filled = True
        return cached

    def apply_change(
        self, block: int, image: dict[Any, Any], lsn: int
    ) -> CachedBlock:
        """Update a cached block in place with a new redo application.

        Redo apply is not a reference: the block keeps its place and its
        segment (on a replica the writer's writes would otherwise renew
        blocks no reader of the replica asked for).
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

    def _victim(self, vdl: int) -> CachedBlock | None:
        """The next block to go: probation before protected, oldest first,
        skipping whatever is ahead of the VDL."""
        for segment in (self._probation, self._protected):
            for cached in segment.values():
                if cached.is_evictable(vdl):
                    return cached
        return None

    def _evict_one(self, vdl: int) -> bool:
        victim = self._victim(vdl)
        if victim is None:
            return False
        self._discard(victim)
        return True

    def _discard(self, cached: CachedBlock) -> None:
        del self._blocks[cached.block]
        segment = self._protected if cached.protected else self._probation
        del segment[cached.block]
        self.stats.evictions += 1

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
        self._discard(cached)
        return True

    def drop_all(self) -> None:
        """Crash: instance memory is ephemeral."""
        self._blocks.clear()
        self._probation.clear()
        self._protected.clear()
        self._frequency = {}
        self._filled = False
        self._lookups_until_aging = AGING_PERIOD * self.capacity

    def dirty_blocks(self, vdl: int) -> list[int]:
        """Blocks whose newest redo is not yet durable."""
        return [b for b, c in self._blocks.items() if c.latest_lsn > vdl]

    def blocks(self) -> list[int]:
        """Resident blocks in eviction order."""
        return [*self._probation, *self._protected]

    def segment_sizes(self) -> tuple[int, int]:
        """Blocks in (probation, protected)."""
        return len(self._probation), len(self._protected)
