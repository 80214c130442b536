"""Versioned data blocks.

"Aurora blocks are written out-of-place and non-destructively.  Older
versions are not garbage collected until we can assure neither the writer
instance or any replica might need to access it." (section 3.4)

A :class:`BlockVersionChain` keeps every materialized version of one block,
ordered by LSN.  Reads ask for the latest version at or below a read point;
garbage collection drops versions strictly below the PGMRPL floor (always
retaining the newest version at or below the floor, which future reads at or
above the floor may still need).

Each version can be verified so the scrubber (Figure 2, activity 8) can
"periodically scrub data to ensure checksums continue to match the data on
disk"; tests inject corruption to exercise it.  Images are immutable and
shared, so a stored image changes only when repair or an injector
*replaces* it, and the checksum is captured when the image is replaced:
the image setter records the outgoing image's checksum first.  A version
whose image was never replaced holds the image it was created with and
verifies without hashing.  This is the rule ``record_digest`` follows for
hot-log records, where corruption replaces the record object.

The chain is struct-of-arrays: two parallel lists (LSNs, images) hold the
versions, and the per-copy verification state lives in sparse maps keyed by
LSN, made on first use, that only replacement, votes and the integrity
probe ever populate.  Materializing a version is two list appends; lookups
and trimming are ``bisect`` plus slices.  A :class:`BlockVersion` is a
short-lived ``(chain, lsn)`` handle made on demand for the code that
inspects or repairs one version.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Mapping

from repro.core.lsn import NULL_LSN
from repro.core.records import EMPTY_IMAGE, LogRecord, Overlay, apply_redo
from repro.errors import ReadPointError


def image_checksum(image: Mapping[str, Any]) -> int:
    """Deterministic checksum of a block image (order-independent).

    A frozenset hash is order-independent by construction, which avoids
    repr-ing and sorting the keys -- this is among the hottest functions in
    long simulations.  Most images hold hashable values (tuples, ints,
    strings), which hash directly; only images carrying unhashable values
    fall back to ``repr``.  Equal images always take the same path, so the
    checksum stays a pure content function either way.

    An :class:`Overlay` node keeps its checksum once computed: it is
    immutable and every copy of the protection group holds the same node,
    and hashing one flattens its chain.
    """
    if type(image) is Overlay:
        checksum = image.checksum
        if checksum is None:
            checksum = _content_checksum(image.flat())
            image.keep_checksum(checksum)
        return checksum
    return _content_checksum(image)


def _content_checksum(image: Mapping[str, Any]) -> int:
    try:
        return hash(frozenset(image.items()))
    except TypeError:
        return hash(frozenset((k, repr(v)) for k, v in image.items()))


class BlockVersion:
    """Handle on one retained version of a block: ``(chain, lsn)``.

    It owns no state.  Every attribute resolves by LSN against the chain
    when it is used, so a handle taken before a GC pass still names the
    same version afterwards, and raises :class:`KeyError` once the chain
    no longer retains that LSN.

    ``quarantined`` marks a version the read path caught failing
    verification: it must never be served or vouched for in a repair vote
    until overwritten with a verified peer image (DESIGN.md §12).

    Verification state is created only when something damages the version
    or asks for its checksum.  The image setter is the one place a
    retained version's image is replaced (vote repair, the injectors),
    and it records the outgoing image's checksum first unless one is
    already recorded, so bit rot damages data under the checksum of the
    image it replaced.  A version with no recorded checksum still holds
    the image it was created with and verifies without hashing;
    :attr:`checksum` is captured lazily for the votes and the integrity
    probe that ask for it.
    """

    __slots__ = ("chain", "lsn")

    def __init__(self, chain: "BlockVersionChain", lsn: int) -> None:
        self.chain = chain
        self.lsn = lsn

    @property
    def image(self) -> Mapping[str, Any]:
        """The stored image itself (immutable and shared; do not mutate)."""
        chain = self.chain
        return chain._images[chain._index_of(self.lsn)]

    @image.setter
    def image(self, image: Mapping[str, Any]) -> None:
        """Swap this copy's image for another object (repair, injectors),
        recording the outgoing image's checksum first if none is."""
        chain = self.chain
        index = chain._index_of(self.lsn)
        chain._capture(self.lsn, chain._images[index])
        chain._images[index] = image

    @property
    def checksum(self) -> int:
        """Recorded checksum, captured from the image on first access."""
        return self.chain._capture(self.lsn, self.image)

    @checksum.setter
    def checksum(self, value: int) -> None:
        chain = self.chain
        chain._index_of(self.lsn)
        if chain._checksums is None:
            chain._checksums = {}
        chain._checksums[self.lsn] = value

    @property
    def quarantined(self) -> bool:
        return self.lsn in (self.chain._quarantined or ())

    @quarantined.setter
    def quarantined(self, value: bool) -> None:
        chain = self.chain
        if value:
            # A quarantined version always has a recorded checksum, so
            # the checksum map alone says which versions carry state.
            chain._capture(self.lsn, self.image)
            if chain._quarantined is None:
                chain._quarantined = set()
            chain._quarantined.add(self.lsn)
        else:
            chain._index_of(self.lsn)
            if chain._quarantined:
                chain._quarantined.discard(self.lsn)

    def verify(self) -> bool:
        return self.chain._verify(self.lsn, self.image)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BlockVersion block={self.chain.block} lsn={self.lsn}>"


class BlockVersionChain:
    """All retained versions of one block, ordered by ascending LSN.

    Verification state exists only for versions whose image was replaced
    or whose checksum was asked for (see :class:`BlockVersion`); a chain
    with none carries no container for it, and :meth:`scrub` visits only
    the versions that have some.
    """

    __slots__ = (
        "block", "_lsns", "_images", "_checksums", "_quarantined",
        "_multi_version",
    )

    def __init__(
        self, block: int, multi_version: set[int] | None = None
    ) -> None:
        self.block = block
        #: ``_images[i]`` is the image of the version at ``_lsns[i]``.
        self._lsns: list[int] = []
        self._images: list[Mapping[str, Any]] = []
        #: Verification state of this copy, by LSN, made on first use: the
        #: recorded checksums and the quarantined LSNs (each of which has a
        #: recorded checksum).  An entry exists only for a version that was
        #: replaced, voted on or probed (see :class:`BlockVersion`) and
        #: goes when the version does.
        self._checksums: dict[int, int] | None = None
        self._quarantined: set[int] | None = None
        #: The owning segment's set of blocks whose chains hold more than
        #: one retained version -- the only chains garbage collection can
        #: shrink.  Every growth path reports here, so the segment's GC
        #: tick never has to visit single-version chains.
        self._multi_version = multi_version

    def _position(self, lsn: int) -> int:
        """Index of the version at exactly ``lsn``, or -1."""
        lsns = self._lsns
        index = bisect_left(lsns, lsn)
        return index if index < len(lsns) and lsns[index] == lsn else -1

    def _index_of(self, lsn: int) -> int:
        index = self._position(lsn)
        if index < 0:
            raise KeyError(f"block {self.block} retains no version at {lsn}")
        return index

    def _forget(self, lo: int, hi: int) -> None:
        """Drop the verification state of the versions at ``[lo:hi]``,
        which are about to leave the chain."""
        checksums = self._checksums
        if checksums:
            quarantined = self._quarantined
            for lsn in self._lsns[lo:hi]:
                if checksums.pop(lsn, None) is not None and quarantined:
                    quarantined.discard(lsn)

    def _capture(self, lsn: int, image: Mapping[str, Any]) -> int:
        """The recorded checksum of the version at ``lsn``; records
        ``image``'s, the version's current one, if none is."""
        checksums = self._checksums
        if checksums is None:
            checksums = self._checksums = {}
        checksum = checksums.get(lsn)
        if checksum is None:
            checksum = checksums[lsn] = image_checksum(image)
        return checksum

    def _verify(self, lsn: int, image: Mapping[str, Any]) -> bool:
        """Does the retained version ``(lsn, image)`` pass verification?"""
        checksums = self._checksums
        recorded = checksums.get(lsn) if checksums else None
        if recorded is None:
            # Never replaced: the stored image is the one the version was
            # created with, so it verifies by construction.
            return True
        if self._quarantined and lsn in self._quarantined:
            return False
        return recorded == image_checksum(image)

    @property
    def versions(self) -> list[BlockVersion]:
        return [BlockVersion(self, lsn) for lsn in self._lsns]

    def versions_in(self, lo: int, hi: int | None = None) -> list[BlockVersion]:
        """Handles on the versions with ``lo < lsn <= hi`` (``hi=None``:
        no upper bound), ascending."""
        lsns = self._lsns
        stop = len(lsns) if hi is None else bisect_right(lsns, hi)
        return [
            BlockVersion(self, lsn)
            for lsn in lsns[bisect_right(lsns, lo):stop]
        ]

    def version(self, lsn: int) -> BlockVersion | None:
        """The version at exactly ``lsn``, if retained."""
        return BlockVersion(self, lsn) if self._position(lsn) >= 0 else None

    @property
    def latest_lsn(self) -> int:
        return self._lsns[-1] if self._lsns else NULL_LSN

    def _grew(self) -> None:
        if self._multi_version is not None and len(self._lsns) > 1:
            self._multi_version.add(self.block)

    def append(self, lsn: int, image: Mapping[str, Any]) -> None:
        """Add a new version holding ``image`` itself; LSNs must strictly
        increase.

        Images are immutable and shared (``apply_redo`` hands the same
        object to every copy of the protection group); neither the caller
        nor the chain may mutate ``image`` afterwards.
        """
        lsns = self._lsns
        if lsns and lsn <= lsns[-1]:
            raise ReadPointError(lsn, lsns[-1] + 1, 2**63)
        lsns.append(lsn)
        self._images.append(image)
        self._grew()

    def materialize(self, record: LogRecord) -> None:
        """Apply ``record``'s redo on top of the newest version (coalesce).

        A record at or below the newest version is already reflected here
        and is skipped.  The same record applied to the same base image
        yields the same image on every copy of the PG: the first copy to
        get here computes it (or the writer did, at staging), the others
        share it.
        """
        lsns = self._lsns
        lsn = record.lsn
        if lsns:
            if lsn <= lsns[-1]:
                return
            image = apply_redo(record, self._images[-1])
            if len(lsns) == 1 and self._multi_version is not None:
                self._multi_version.add(self.block)
        else:
            image = apply_redo(record, EMPTY_IMAGE)
        lsns.append(lsn)
        self._images.append(image)

    def latest_image(self) -> Mapping[str, Any]:
        """The newest image itself (no copy; do not mutate), or the one
        shared :data:`~repro.core.records.EMPTY_IMAGE` for a never-written
        block -- the base the next redo record applies to."""
        return self._images[-1] if self._images else EMPTY_IMAGE

    def version_at(self, read_point: int) -> BlockVersion | None:
        """Latest version with ``lsn <= read_point``."""
        count = bisect_right(self._lsns, read_point)
        return BlockVersion(self, self._lsns[count - 1]) if count else None

    def image_at(self, read_point: int) -> Mapping[str, Any]:
        """The image :meth:`version_at` names (shared; do not mutate)."""
        count = bisect_right(self._lsns, read_point)
        return self._images[count - 1] if count else EMPTY_IMAGE

    def gc_below(self, floor: int) -> int:
        """Drop versions no reader can need; returns the number removed.

        Retains every version with ``lsn >= floor`` plus the single newest
        version at or below the floor (the base image for reads at the
        floor).
        """
        removed = bisect_right(self._lsns, floor) - 1
        if removed <= 0:
            return 0
        self._forget(0, removed)
        del self._lsns[:removed]
        del self._images[:removed]
        return removed

    def truncate_above(self, lsn: int, last: int | None = None) -> int:
        """Discard versions in ``(lsn, last]`` (recovery annulment).

        Versions above ``last`` were materialized from a post-recovery
        writer generation and survive a late-delivered truncation;
        ``last=None`` discards everything above ``lsn``.  Returns the
        number of versions removed.
        """
        lsns = self._lsns
        lo = bisect_right(lsns, lsn)
        hi = len(lsns) if last is None else max(lo, bisect_right(lsns, last))
        self._forget(lo, hi)
        del lsns[lo:hi]
        del self._images[lo:hi]
        return hi - lo

    def insert(self, lsn: int, image: Mapping[str, Any]) -> BlockVersion:
        """Insert a version at an arbitrary chain position (repair adopt).

        Unlike :meth:`append` this accepts mid-chain LSNs -- peer repair of
        a lost write restores a version *between* existing ones.  The LSN
        must not collide with a retained version.  Holds ``image`` itself.
        """
        lsns = self._lsns
        index = bisect_left(lsns, lsn)
        if index < len(lsns) and lsns[index] == lsn:
            raise ReadPointError(lsn, lsn + 1, 2**63)
        lsns.insert(index, lsn)
        self._images.insert(index, image)
        self._grew()
        return BlockVersion(self, lsn)

    def remove_version(self, lsn: int) -> bool:
        """Drop the version at exactly ``lsn`` (misdirected-write cleanup)."""
        index = self._position(lsn)
        if index < 0:
            return False
        self._forget(index, index + 1)
        del self._lsns[index]
        del self._images[index]
        return True

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
        if not self._lsns:
            return None
        victim = self.version(self._lsns[-1] if lsn is None else lsn)
        if victim is None:
            return None
        new_image = dict((victim.image if image is None else image).items())
        if image is None:
            new_image["__corrupted__"] = True
        victim.image = new_image
        if valid_checksum:
            victim.checksum = image_checksum(new_image)
        return victim.lsn

    def scrub(self) -> list[int]:
        """Return the LSNs of versions whose checksum no longer matches,
        ascending.  Only versions with recorded state can fail, so only
        those are visited."""
        checksums = self._checksums
        if not checksums:
            return []
        images = self._images
        return [
            lsn
            for lsn in sorted(checksums)
            if not self._verify(lsn, images[self._index_of(lsn)])
        ]

    def __len__(self) -> int:
        return len(self._lsns)
