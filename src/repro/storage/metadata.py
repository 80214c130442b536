"""The storage metadata service.

The paper mentions it in passing (section 2.4: "Aurora increments an epoch
in its **storage metadata service** and records this volume epoch in a write
quorum of each protection group").  It is the control-plane directory a
(re)starting database instance consults to learn the volume's geometry,
each protection group's membership, and the last known epochs -- *not* a
consensus service, and deliberately not on any data path: every correctness
property still rests on the epochs recorded in the storage write quorums.

It also records segment placement (which storage node and AZ host each
segment), which the failure injector and membership manager use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.epochs import EpochStamp
from repro.core.membership import MembershipState
from repro.core.quorum import QuorumConfig
from repro.errors import ConfigurationError, MembershipError
from repro.storage.segment import SegmentKind
from repro.storage.volume import VolumeGeometry


@dataclass
class SegmentPlacement:
    """Where one segment lives."""

    segment_id: str
    pg_index: int
    node: str
    az: str
    kind: SegmentKind


class PGRoutes:
    """The lists the data plane routes one PG by, derived once per
    membership state and set of placements (DESIGN.md D8) so that a read, a
    flush or a gossip tick looks a tuple up; each is sorted by segment id."""

    __slots__ = (
        "members", "placements", "placed", "full_members", "write_members",
        "read_fallback", "peers",
    )

    def __init__(self, metadata: "StorageMetadataService", pg_index: int):
        #: Every current member, candidates in flight included.
        self.members = tuple(sorted(metadata.membership(pg_index).members))
        #: The placements of those that have one (a node to talk to).
        self.placements = tuple(
            metadata._placements[m]
            for m in self.members
            if m in metadata._placements
        )
        self.placed = tuple(p.segment_id for p in self.placements)
        #: Who serves reads: the placed members that materialize blocks.
        self.full_members = tuple(
            p.segment_id
            for p in self.placements
            if p.kind is SegmentKind.FULL
        )
        targets = metadata.backend.write_targets(metadata, pg_index)
        #: The synchronous write fan-out, in send order (backend policy:
        #: Aurora ships to every member, Taurus only to the log stores).
        self.write_members = (
            self.members if targets is None else tuple(sorted(targets))
        )
        #: Who can serve a read when fewer than two full copies can (the
        #: Taurus log tail; empty for Aurora).
        self.read_fallback = tuple(
            sorted(metadata.backend.read_fallback_members(metadata, pg_index))
        )
        #: Gossip targets of each placed member: the others.
        self.peers = {
            m: tuple(p for p in self.placed if p != m) for m in self.placed
        }


class StorageMetadataService:
    """Directory of volume geometry, membership, placement, and epochs."""

    def __init__(self, geometry: VolumeGeometry, backend=None) -> None:
        if backend is None:
            # Imported lazily: backend.py imports SegmentKind and quorum
            # machinery at module level; the default here must not cycle.
            from repro.storage.backend import AuroraBackend

            backend = AuroraBackend()
        self.backend = backend
        self.geometry = geometry
        self._memberships: dict[int, MembershipState] = {}
        self._placements: dict[str, SegmentPlacement] = {}
        #: pg_index -> its routes; filled on first use, dropped by the two
        #: mutators of their inputs (``set_membership``, ``place_segment``).
        self._routes: dict[int, PGRoutes] = {}
        self._epochs = EpochStamp()
        #: Per-PG quorum-model overrides (section 4.1: the geometry epoch
        #: "can also be used to change the quorum model itself, for
        #: example, when moving from a 4/6 write quorum to 3/4 to handle
        #: the extended loss of an AZ").
        self._quorum_overrides: dict[int, QuorumConfig] = {}

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> EpochStamp:
        return self._epochs

    def record_epochs(self, stamp: EpochStamp) -> None:
        """Adopt newer epochs (components never move backwards)."""
        self._epochs = self._epochs.merge(stamp)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def set_membership(self, pg_index: int, state: MembershipState) -> None:
        existing = self._memberships.get(pg_index)
        if existing is not None and state.epoch <= existing.epoch:
            raise MembershipError(
                f"membership epoch must advance: {existing.epoch} -> "
                f"{state.epoch}"
            )
        self._memberships[pg_index] = state
        self._routes.pop(pg_index, None)

    def membership(self, pg_index: int) -> MembershipState:
        try:
            return self._memberships[pg_index]
        except KeyError:
            raise ConfigurationError(
                f"no membership recorded for PG {pg_index}"
            ) from None

    def quorum_config(self, pg_index: int) -> QuorumConfig:
        override = self._quorum_overrides.get(pg_index)
        if override is not None:
            return override
        return self.membership_config_of(pg_index, self.membership(pg_index))

    def membership_config_of(self, pg_index: int, state) -> QuorumConfig:
        """The backend's quorum config for an arbitrary membership state
        (used to prove transitions against the *installed* policy)."""
        return self.backend.membership_quorum_config(self, pg_index, state)

    def set_quorum_override(
        self, pg_index: int, config: QuorumConfig
    ) -> None:
        """Install a non-standard quorum model for one PG (proved)."""
        config.prove()
        self._quorum_overrides[pg_index] = config

    def clear_quorum_override(self, pg_index: int) -> None:
        self._quorum_overrides.pop(pg_index, None)

    def has_quorum_override(self, pg_index: int) -> bool:
        return pg_index in self._quorum_overrides

    def pg_indexes(self) -> list[int]:
        return sorted(self._memberships)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place_segment(self, placement: SegmentPlacement) -> None:
        self._placements[placement.segment_id] = placement
        self._routes.pop(placement.pg_index, None)

    def routes_of_pg(self, pg_index: int) -> PGRoutes:
        routes = self._routes.get(pg_index)
        if routes is None:
            routes = self._routes[pg_index] = PGRoutes(self, pg_index)
        return routes

    def placement(self, segment_id: str) -> SegmentPlacement:
        try:
            return self._placements[segment_id]
        except KeyError:
            raise ConfigurationError(
                f"no placement recorded for segment {segment_id!r}"
            ) from None

    def segments_of_pg(self, pg_index: int) -> list[SegmentPlacement]:
        """Placements for every *current* member of the PG."""
        return list(self.routes_of_pg(pg_index).placements)

    def full_segments_of_pg(self, pg_index: int) -> list[SegmentPlacement]:
        return [
            p
            for p in self.segments_of_pg(pg_index)
            if p.kind is SegmentKind.FULL
        ]

    # ------------------------------------------------------------------
    # Backend policy pass-throughs (the driver and repair planner ask the
    # metadata service, which owns the backend reference)
    # ------------------------------------------------------------------
    def tracked_members_of_pg(self, pg_index: int):
        return self.backend.tracked_members(self, pg_index)

    def baseline_sources_of_pg(self, pg_index: int) -> list[SegmentPlacement]:
        return self.backend.baseline_sources(self, pg_index)

    def pg_of(self, segment_id: str) -> int:
        """The protection group a (current or former) segment serves."""
        return self.placement(segment_id).pg_index

    def is_current_member(self, segment_id: str) -> bool:
        """True when the segment appears in its PG's current membership
        (candidates in flight count; replaced incumbents do not)."""
        try:
            pg_index = self.pg_of(segment_id)
        except ConfigurationError:
            return False
        return segment_id in self.membership(pg_index).members

    def peers_of(self, segment_id: str) -> tuple[str, ...]:
        """Other current members of the same PG (gossip targets); all of
        them for a segment that is no longer one."""
        routes = self.routes_of_pg(self.placement(segment_id).pg_index)
        return routes.peers.get(segment_id, routes.placed)
