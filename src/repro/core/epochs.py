"""Epochs: volume, membership, and geometry.

Epochs are the paper's substitute for leases and for consensus-based
configuration change:

- **Volume epoch** (section 2.4): incremented during crash recovery and
  recorded in a write quorum of each protection group.  "Storage nodes will
  not accept requests at stale volume epochs.  This boxes out old instances
  with previously open connections ...  Aurora, rather than waiting for a
  lease to expire, just changes the locks on the door."
- **Membership epoch** (section 4.1): incremented with each quorum
  membership change; "clients with stale membership epochs have their
  requests rejected and must update membership information".
- **Volume geometry epoch** (section 4.1): incremented with each protection
  group added to the volume (or on a change of quorum model).

Epoch checks are strictly local: a storage node compares the stamp carried
by a request against its own registry.  Stale requests raise
:class:`StaleEpochError`.  A *newer* stamp teaches the node the new epoch --
the increment was durably recorded on a write quorum, and quorum overlap
guarantees any legitimate reader of the new configuration has seen it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, StaleEpochError


@dataclass(frozen=True)
class EpochStamp:
    """The epoch triple every storage request carries."""

    volume: int = 1
    membership: int = 1
    geometry: int = 1

    def __post_init__(self) -> None:
        if min(self.volume, self.membership, self.geometry) < 1:
            raise ConfigurationError(f"epochs must be >= 1: {self}")

    def bump_volume(self) -> "EpochStamp":
        return replace(self, volume=self.volume + 1)

    def bump_membership(self) -> "EpochStamp":
        return replace(self, membership=self.membership + 1)

    def bump_geometry(self) -> "EpochStamp":
        return replace(self, geometry=self.geometry + 1)

    def merge(self, other: "EpochStamp") -> "EpochStamp":
        """Component-wise maximum: the adopt rule every party applies when
        it learns a newer stamp (components never move backwards)."""
        return EpochStamp(
            volume=max(self.volume, other.volume),
            membership=max(self.membership, other.membership),
            geometry=max(self.geometry, other.geometry),
        )

    def __repr__(self) -> str:
        return (
            f"EpochStamp(v={self.volume}, m={self.membership}, "
            f"g={self.geometry})"
        )


class EpochRegistry:
    """A storage node's durable record of the epochs it has seen.

    ``check_and_learn`` implements the validation rule applied to every
    read, write, and gossip request.
    """

    def __init__(self, initial: EpochStamp | None = None) -> None:
        self._current = initial if initial is not None else EpochStamp()
        self.rejections = 0
        #: Optional :class:`repro.audit.Auditor` observer (zero-cost when
        #: unattached); ``audit_owner`` labels events (the node name).
        self.audit_probe = None
        self.audit_owner = ""

    @property
    def current(self) -> EpochStamp:
        return self._current

    def check_and_learn(self, presented: EpochStamp) -> None:
        """Validate a request's epoch stamp.

        Raises :class:`StaleEpochError` if any component of ``presented`` is
        behind this node's view; otherwise adopts any newer components.
        Nearly every request carries the stamp the node already holds, and
        that costs one comparison and builds nothing.
        """
        current = self._current
        if presented is current or presented == current:
            return
        for kind in ("volume", "membership", "geometry"):
            have = getattr(current, kind)
            got = getattr(presented, kind)
            if got < have:
                self.rejections += 1
                if self.audit_probe is not None:
                    self.audit_probe.on_stale_epoch(
                        self.audit_owner, kind, got, have, rejected=True
                    )
                raise StaleEpochError(kind, presented=got, current=have)
        # No component behind and not equal: ``presented`` is the
        # component-wise maximum itself.
        self._current = presented
        if self.audit_probe is not None:
            self.audit_probe.on_epoch_change(
                self.audit_owner, current, presented
            )

    def advance(self, target: EpochStamp) -> None:
        """Directly install newer epochs (used when applying an epoch-bump
        write that itself carried the new stamp)."""
        current = self._current
        if target is current or target == current:
            return
        self._current = current.merge(target)
        if self._current != current and self.audit_probe is not None:
            self.audit_probe.on_epoch_change(
                self.audit_owner, current, self._current
            )
