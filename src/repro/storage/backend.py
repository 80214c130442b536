"""Pluggable storage backends: segment layout, quorum, and routing policy.

The storage tier's *mechanisms* (segments, chain trackers, gossip, epochs,
recovery scans) are backend-agnostic; what varies between designs is the
*policy*: how many copies a protection group keeps, which of them sit on
the synchronous durability path, which serve reads, and what quorum rule
acknowledges a commit.  A :class:`StorageBackend` bundles those choices so
``repro.db.cluster``/``driver``, ``repro.storage.metadata``, and
``repro.repair.planner`` ask the backend instead of assuming Aurora's
symmetric 4/6 layout.

Two backends are provided:

- :class:`AuroraBackend` -- the paper's design: six copies, two per AZ,
  4/6 write / 3/6 read quorum (optionally the section-4.2 full/tail mix).
  This is the default and is byte-identical to the pre-backend behaviour.
- :class:`TaurusBackend` -- the log/page split of "Taurus Database: How to
  be Fast, Available, and Frugal in the Cloud" (PAPERS.md): three log
  stores (one per AZ) form the synchronous durability path with a 2/3
  write *and* read quorum, while two page stores hydrate asynchronously
  from the log via gossip and serve steady-state reads.  Writes touch only
  the three log stores, so write amplification drops from 6x to 3x; reads
  fall back to the log tail (on-demand materialization) whenever the page
  stores lag or fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quorum import (
    QuorumConfig,
    full_tail_config,
    group_transition_config,
)
from repro.errors import ConfigurationError
from repro.storage.segment import SegmentKind

#: The simulated availability zones (one region, three AZs -- section 2.2).
AZS = ("az1", "az2", "az3")


@dataclass(frozen=True)
class SlotSpec:
    """Placement template for one membership slot."""

    az: str
    kind: SegmentKind


@dataclass(frozen=True)
class ReplicationConfig:
    """The replica arithmetic of one backend, for cost/durability models.

    ``sync_write_copies`` counts the copies on the synchronous durability
    path (every copy a commit's redo is shipped to before acknowledgement);
    ``write_loss_failures``/``read_loss_failures`` are the minimum number
    of *sync-path* copy failures that break the write/read quorum; and
    ``segments_per_az`` is how many sync-path copies share one AZ (the
    correlated-failure exposure).
    """

    copies_per_pg: int
    sync_write_copies: int
    full_copies: int
    log_only_copies: int
    write_loss_failures: int
    read_loss_failures: int
    segments_per_az: int
    az_count: int = 3


class StorageBackend:
    """Policy object consulted by the cluster, driver, and repair planner.

    Methods taking a ``metadata`` argument receive the volume's
    :class:`~repro.storage.metadata.StorageMetadataService` (placement and
    membership directory); backends are stateless and shareable.
    """

    name = "abstract"

    def replication(self) -> ReplicationConfig:
        raise NotImplementedError

    def segment_layout(self) -> tuple[SlotSpec, ...]:
        """Per-slot AZ and segment kind for a fresh protection group."""
        raise NotImplementedError

    @property
    def slot_count(self) -> int:
        return len(self.segment_layout())

    def membership_quorum_config(
        self, metadata, pg_index: int, state
    ) -> QuorumConfig:
        """The proved quorum config for a (possibly dual) membership."""
        raise NotImplementedError

    def write_targets(self, metadata, pg_index: int):
        """Members on the synchronous write path, or ``None`` for all."""
        return None

    def read_fallback_members(self, metadata, pg_index: int) -> frozenset[str]:
        """Members that can serve reads when no full copy is caught up."""
        return frozenset()

    def tracked_members(self, metadata, pg_index: int):
        """Members whose acks feed PGCL bookkeeping, or ``None`` for the
        quorum config's own members."""
        return None

    def baseline_sources(self, metadata, pg_index: int) -> list:
        """Placements a hydrating replacement may pull a baseline from."""
        return metadata.full_segments_of_pg(pg_index)

    def max_tolerated_kills(self) -> int:
        """Segment crashes per PG the write quorum provably survives."""
        return self.replication().write_loss_failures - 1

    def _config_once(self, state, kinds, build) -> QuorumConfig:
        """The config ``build()`` makes for ``state`` under the slot
        ``kinds``, built and proved once per (state, kinds): the state is
        frozen and the proof is a 2^n sweep, as for the uniform config
        :meth:`MembershipState.quorum_config` memoises.  Kept on the state,
        so it goes when a membership change replaces the state."""
        memo = state.__dict__.setdefault("_backend_configs", {})
        key = (self, tuple(kinds.items()))
        config = memo.get(key)
        if config is None:
            config = memo[key] = build()
        return config

    def _slot_kinds(self, metadata, state) -> dict[str, SegmentKind]:
        """Kind per member, inferred from placements slot-by-slot.

        A replacement candidate inherits its slot's kind, so the lookup
        works even before (or after) either alternative is placed, as long
        as one of them is.
        """
        kinds: dict[str, SegmentKind] = {}
        for alternatives in state.slots:
            kind = None
            for member in alternatives:
                try:
                    kind = metadata.placement(member).kind
                    break
                except ConfigurationError:
                    continue
            if kind is None:
                raise ConfigurationError(
                    f"no placement known for any of {alternatives}"
                )
            for member in alternatives:
                kinds[member] = kind
        return kinds


class AuroraBackend(StorageBackend):
    """The paper's 6-way symmetric quorum (default backend).

    ``full_tail=True`` selects the section-4.2 cost mix (3 full + 3 tail
    segments) and its quorum set (:meth:`membership_quorum_config`).
    """

    name = "aurora"

    def __init__(self, full_tail: bool = False) -> None:
        self.full_tail = full_tail

    def replication(self) -> ReplicationConfig:
        return ReplicationConfig(
            copies_per_pg=6,
            sync_write_copies=6,
            full_copies=3 if self.full_tail else 6,
            log_only_copies=3 if self.full_tail else 0,
            write_loss_failures=3,
            read_loss_failures=4,
            segments_per_az=2,
        )

    def segment_layout(self) -> tuple[SlotSpec, ...]:
        specs = []
        for slot in range(6):
            az = AZS[slot % 3]
            # Full slots 0, 2, 4: one full segment per AZ (section 4.2).
            kind = (
                SegmentKind.FULL
                if not self.full_tail or slot in (0, 2, 4)
                else SegmentKind.TAIL
            )
            specs.append(SlotSpec(az=az, kind=kind))
        return tuple(specs)

    def membership_quorum_config(
        self, metadata, pg_index: int, state
    ) -> QuorumConfig:
        """The uniform 4/6 config, or under ``full_tail`` the section-4.2
        quorum set for a stable membership of 3 full + 3 tail members.
        A membership transition falls back to the uniform 4/6-based
        transition config (reads still route to full segments only, via
        the placement kinds)."""
        if self.full_tail and state.is_stable:
            kinds = self._slot_kinds(metadata, state)
            fulls = [m for m in state.members if kinds[m] is SegmentKind.FULL]
            tails = [m for m in state.members if kinds[m] is SegmentKind.TAIL]
            if len(fulls) == 3 and len(tails) == 3:
                return self._config_once(
                    state, kinds, lambda: full_tail_config(fulls, tails)
                )
        return state.quorum_config()


class TaurusBackend(StorageBackend):
    """Taurus's log/page split: 3 log stores (sync) + 2 page stores (async).

    Durability runs entirely through the log stores: a commit is
    acknowledged once 2 of the 3 log stores hold the redo (majority, so
    write/write and read/write overlap hold; one log store -- or a whole
    AZ -- can be down without blocking writes).  The page stores never
    appear in the quorum config; they drain the log via the ordinary
    gossip machinery and acknowledge what they have, which the driver's
    bookkeeping uses to route steady-state reads to them.  When neither
    page store is caught up to a read point, the read falls back to a log
    store, which materializes the requested block on demand from its log
    tail.
    """

    name = "taurus"

    #: Slots 0-2: the replicated log, one store per AZ.  Slots 3-4: the
    #: two page stores (different AZs, so one AZ loss costs at most one).
    _LAYOUT = (
        SlotSpec(az="az1", kind=SegmentKind.LOG),
        SlotSpec(az="az2", kind=SegmentKind.LOG),
        SlotSpec(az="az3", kind=SegmentKind.LOG),
        SlotSpec(az="az2", kind=SegmentKind.FULL),
        SlotSpec(az="az3", kind=SegmentKind.FULL),
    )

    def replication(self) -> ReplicationConfig:
        return ReplicationConfig(
            copies_per_pg=5,
            sync_write_copies=3,
            full_copies=2,
            log_only_copies=3,
            write_loss_failures=2,
            read_loss_failures=2,
            segments_per_az=1,
        )

    def segment_layout(self) -> tuple[SlotSpec, ...]:
        return self._LAYOUT

    def membership_quorum_config(
        self, metadata, pg_index: int, state
    ) -> QuorumConfig:
        """Majority-of-log-stores quorum, transition-aware.

        Each member group (cartesian expansion over slots) is restricted
        to its log-store members; the write quorum is the AND of each
        group's majority and the read quorum the OR (exactly the shape of
        Aurora's transition config, over the log subset).  Page-store
        replacements leave the config unchanged -- they are invisible to
        the durability quorum.
        """
        kinds = self._slot_kinds(metadata, state)

        def build() -> QuorumConfig:
            log_groups = []
            for group in state.member_groups():
                logs = frozenset(
                    m for m in group if kinds[m] is SegmentKind.LOG
                )
                if not logs:
                    raise ConfigurationError(
                        f"PG {pg_index} membership has no log stores"
                    )
                if logs not in log_groups:
                    log_groups.append(logs)
            return group_transition_config(log_groups)

        return self._config_once(state, kinds, build)

    def write_targets(self, metadata, pg_index: int):
        state = metadata.membership(pg_index)
        kinds = self._slot_kinds(metadata, state)
        return frozenset(
            m for m in state.members if kinds[m] is SegmentKind.LOG
        )

    def read_fallback_members(self, metadata, pg_index: int) -> frozenset[str]:
        targets = self.write_targets(metadata, pg_index)
        return targets if targets is not None else frozenset()

    def tracked_members(self, metadata, pg_index: int):
        return metadata.membership(pg_index).members

    def baseline_sources(self, metadata, pg_index: int) -> list:
        return [
            p
            for p in metadata.segments_of_pg(pg_index)
            if p.kind is not SegmentKind.TAIL
        ]


#: Registry consulted by :func:`resolve_backend` and the benchmark /
#: conformance fixtures.
BACKENDS = {
    "aurora": AuroraBackend,
    "taurus": TaurusBackend,
}


def resolve_backend(backend, full_tail: bool = False) -> StorageBackend:
    """Turn a name or backend instance into a backend instance.

    ``full_tail`` applies only to the Aurora backend (the section-4.2
    segment mix is an Aurora cost option, not a separate backend).
    """
    if isinstance(backend, StorageBackend):
        return backend
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown storage backend {backend!r}; "
            f"known: {sorted(BACKENDS)}"
        ) from None
    if cls is AuroraBackend:
        return AuroraBackend(full_tail=full_tail)
    if full_tail:
        raise ConfigurationError(
            f"full_tail is an Aurora option; backend {backend!r} has its "
            "own layout"
        )
    return cls()
