"""Versioned data blocks.

"Aurora blocks are written out-of-place and non-destructively.  Older
versions are not garbage collected until we can assure neither the writer
instance or any replica might need to access it." (section 3.4)

A :class:`BlockVersionChain` keeps every materialized version of one block,
ordered by LSN.  Reads ask for the latest version at or below a read point;
garbage collection drops versions strictly below the PGMRPL floor (always
retaining the newest version at or below the floor, which future reads at or
above the floor may still need).

Each version carries a checksum so the scrubber (Figure 2, activity 8) can
"periodically scrub data to ensure checksums continue to match the data on
disk"; tests inject corruption to exercise it.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.lsn import NULL_LSN
from repro.core.records import EMPTY_IMAGE
from repro.errors import ReadPointError


def image_checksum(image: Mapping[str, Any]) -> int:
    """Deterministic checksum of a block image (order-independent).

    A frozenset hash is order-independent by construction, which avoids
    repr-ing and sorting the keys -- this is among the hottest functions in
    long simulations.  Most images hold hashable values (tuples, ints,
    strings), which hash directly; only images carrying unhashable values
    fall back to ``repr``.  Equal images always take the same path, so the
    checksum stays a pure content function either way.
    """
    try:
        return hash(frozenset(image.items()))
    except TypeError:
        return hash(frozenset((k, repr(v)) for k, v in image.items()))


class BlockVersion:
    """One materialized version of a block.

    ``quarantined`` marks a version the read path caught failing
    verification: it must never be served or vouched for in a repair vote
    until overwritten with a verified peer image (DESIGN.md §12).

    The checksum is captured lazily: the vast majority of versions written
    during a simulation are never individually read, voted on, or scrubbed,
    so the checksum of the just-applied image is only materialized on first
    access.  Corruption injectors force-capture it *before* mutating the
    image (bit-rot damages data under an already-recorded checksum), which
    keeps detection semantics identical to eager capture.
    """

    __slots__ = ("lsn", "image", "_checksum", "quarantined")

    def __init__(
        self,
        lsn: int,
        image: dict[str, Any],
        checksum: int | None = None,
        quarantined: bool = False,
    ) -> None:
        self.lsn = lsn
        self.image = image
        self._checksum = checksum
        self.quarantined = quarantined

    @property
    def checksum(self) -> int:
        """Recorded checksum, captured from the image on first access."""
        if self._checksum is None:
            self._checksum = image_checksum(self.image)
        return self._checksum

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._checksum = value

    @staticmethod
    def of(lsn: int, image: Mapping[str, Any]) -> "BlockVersion":
        return BlockVersion(lsn=lsn, image=dict(image))

    @staticmethod
    def of_owned(lsn: int, image: dict[str, Any]) -> "BlockVersion":
        """Like :meth:`of` but takes ownership of ``image`` (no copy)."""
        return BlockVersion(lsn=lsn, image=image)

    def verify(self) -> bool:
        return not self.quarantined and self.checksum == image_checksum(self.image)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BlockVersion lsn={self.lsn} keys={len(self.image)}>"


class BlockVersionChain:
    """All retained versions of one block, ordered by ascending LSN."""

    def __init__(
        self, block: int, multi_version: set[int] | None = None
    ) -> None:
        self.block = block
        self._versions: list[BlockVersion] = []
        #: The owning segment's set of blocks whose chains hold more than
        #: one retained version -- the only chains garbage collection can
        #: shrink.  Every growth path reports here, so the segment's GC
        #: tick never has to visit single-version chains.
        self._multi_version = multi_version

    @property
    def versions(self) -> list[BlockVersion]:
        return list(self._versions)

    @property
    def latest_lsn(self) -> int:
        return self._versions[-1].lsn if self._versions else NULL_LSN

    def append(self, lsn: int, image: Mapping[str, Any]) -> BlockVersion:
        """Add a new version; LSNs must strictly increase."""
        return self.append_owned(lsn, dict(image))

    def append_owned(self, lsn: int, image: dict[str, Any]) -> BlockVersion:
        """Append a version holding ``image`` itself (no defensive copy).

        Images are immutable and shared (``apply_redo`` hands the same
        object to every copy of the protection group); neither the caller
        nor the chain may mutate ``image`` afterwards.
        """
        versions = self._versions
        if versions:
            if lsn <= versions[-1].lsn:
                raise ReadPointError(lsn, versions[-1].lsn + 1, 2**63)
            if self._multi_version is not None:
                self._multi_version.add(self.block)
        version = BlockVersion.of_owned(lsn, image)
        versions.append(version)
        return version

    def latest_image(self) -> dict[str, Any]:
        """The newest image (empty dict for a never-written block)."""
        if not self._versions:
            return {}
        return dict(self._versions[-1].image)

    def latest_image_view(self) -> Mapping[str, Any]:
        """The newest image itself (no copy; do not mutate), or the one
        shared :data:`~repro.core.records.EMPTY_IMAGE` for a never-written
        block -- the base the next redo record applies to."""
        if not self._versions:
            return EMPTY_IMAGE
        return self._versions[-1].image

    def _count_at_or_below(self, lsn: int) -> int:
        """Number of versions with ``version.lsn <= lsn`` (binary search)."""
        versions = self._versions
        lo, hi = 0, len(versions)
        while lo < hi:
            mid = (lo + hi) // 2
            if versions[mid].lsn <= lsn:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def version_at(self, read_point: int) -> BlockVersion | None:
        """Latest version with ``lsn <= read_point``."""
        count = self._count_at_or_below(read_point)
        return self._versions[count - 1] if count else None

    def image_at(self, read_point: int) -> dict[str, Any]:
        version = self.version_at(read_point)
        return dict(version.image) if version is not None else {}

    def gc_below(self, floor: int) -> int:
        """Drop versions no reader can need; returns the number removed.

        Retains every version with ``lsn >= floor`` plus the single newest
        version at or below the floor (the base image for reads at the
        floor).
        """
        removed = max(0, self._count_at_or_below(floor) - 1)
        if removed:
            del self._versions[:removed]
        return removed

    def truncate_above(self, lsn: int, last: int | None = None) -> int:
        """Discard versions in ``(lsn, last]`` (recovery annulment).

        Versions above ``last`` were materialized from a post-recovery
        writer generation and survive a late-delivered truncation;
        ``last=None`` discards everything above ``lsn``.  Returns the
        number of versions removed.
        """
        kept = [
            v
            for v in self._versions
            if v.lsn <= lsn or (last is not None and v.lsn > last)
        ]
        removed = len(self._versions) - len(kept)
        self._versions = kept
        return removed

    def insert(self, lsn: int, image: Mapping[str, Any]) -> BlockVersion:
        """Insert a version at an arbitrary chain position (repair adopt).

        Unlike :meth:`append` this accepts mid-chain LSNs -- peer repair of
        a lost write restores a version *between* existing ones.  The LSN
        must not collide with a retained version.
        """
        version = BlockVersion.of(lsn, image)
        lo, hi = 0, len(self._versions)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._versions[mid].lsn < lsn:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self._versions) and self._versions[lo].lsn == lsn:
            raise ReadPointError(lsn, lsn + 1, 2**63)
        self._versions.insert(lo, version)
        if self._multi_version is not None and len(self._versions) > 1:
            self._multi_version.add(self.block)
        return version

    def remove_version(self, lsn: int) -> bool:
        """Drop the version at exactly ``lsn`` (misdirected-write cleanup)."""
        for i, version in enumerate(self._versions):
            if version.lsn == lsn:
                del self._versions[i]
                return True
        return False

    def corrupt_version(
        self,
        lsn: int | None = None,
        *,
        valid_checksum: bool = False,
        image: Mapping[str, Any] | None = None,
    ) -> int | None:
        """Injector API: silently damage this chain's copy of a version.

        The damaged image is a new object swapped into the version (images
        are shared with the other copies of the protection group and never
        edited in place).  ``lsn=None`` targets the newest version.  With
        ``valid_checksum=False`` the image changes *under* its recorded
        checksum (disk bit-rot -- local verification catches it).  With
        ``valid_checksum=True`` the image (``image`` or a marker) replaces
        the stored one and the checksum is recomputed, modelling a
        misdirected write: self-consistent, only a cross-peer content vote
        can catch it.  Returns the damaged LSN, or ``None`` if no version
        matched.
        """
        if not self._versions:
            return None
        victim = self._versions[-1] if lsn is None else None
        if victim is None:
            for version in self._versions:
                if version.lsn == lsn:
                    victim = version
                    break
        if victim is None:
            return None
        # Capture the checksum of the *good* image before damaging it: bit
        # rot mutates data under an already-recorded checksum.  (With lazy
        # capture this is the injection point's responsibility.)
        victim.checksum
        new_image = dict(image) if image is not None else dict(victim.image)
        if image is None:
            new_image["__corrupted__"] = True
        victim.image = new_image
        if valid_checksum:
            victim.checksum = image_checksum(new_image)
        return victim.lsn

    def corrupt_latest(self) -> None:
        """Back-compat shim for :meth:`corrupt_version` (newest, bit-rot)."""
        self.corrupt_version()

    def scrub(self) -> list[int]:
        """Return the LSNs of versions whose checksum no longer matches."""
        return [v.lsn for v in self._versions if not v.verify()]

    def __len__(self) -> int:
        return len(self._versions)
