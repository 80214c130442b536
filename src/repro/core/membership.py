"""Quorum membership changes via quorum sets and epochs (section 4).

A protection group's membership is modelled as six ordered *slots*.  A
healthy group has one segment per slot.  When a segment (say F) becomes
suspect, Aurora does **not** wait to find out whether F is dead; it adds a
replacement candidate (G) to F's slot.  While a slot has two alternatives,
the active member groups are the cartesian expansion over slots -- e.g.

- F suspect, G hydrating:      groups = {ABCDEF, ABCDEG}
- additionally E suspect, H:   groups = {ABCDEF, ABCDEG, ABCDFH, ABCDGH}

and the quorum set is ``AND`` of each group's 4/6 write quorum / ``OR`` of
each group's 3/6 read quorum (see
:func:`repro.core.quorum.transition_config`).  Every transition:

- increments the **membership epoch** (itself written to a write quorum),
- is **reversible** -- if F comes back, collapse the slot to F; if G
  finishes hydrating, collapse to G; either endpoint "met our write quorum
  and is an available next step",
- blocks neither reads nor writes -- "simply writing to the four members
  ABCD meets quorum".

:class:`MembershipState` is immutable; transitions return new states, which
makes reversibility and epoch monotonicity easy to property-test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.quorum import (
    QuorumConfig,
    group_transition_config,
    transition_config,
)
from repro.errors import MembershipError

#: Aurora protection groups have six segments: two in each of three AZs.
#: Alternative backends (e.g. the Taurus log/page split) may use other
#: slot counts; :meth:`MembershipState.initial` accepts ``slot_count``.
SLOT_COUNT = 6


@dataclass(frozen=True)
class ReplacementPlan:
    """A pending slot replacement: ``incumbent`` suspect, ``candidate`` new."""

    slot: int
    incumbent: str
    candidate: str


@dataclass(frozen=True)
class MembershipState:
    """Immutable membership of one protection group.

    ``slots`` holds, per slot, a tuple of alternatives: ``(incumbent,)``
    when healthy, ``(incumbent, candidate)`` while a replacement is in
    flight.
    """

    epoch: int
    slots: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise MembershipError("membership needs at least one slot")
        seen: set[str] = set()
        for alternatives in self.slots:
            if not 1 <= len(alternatives) <= 2:
                raise MembershipError(
                    f"each slot needs 1 or 2 alternatives, got {alternatives}"
                )
            for member in alternatives:
                if member in seen:
                    raise MembershipError(f"duplicate member {member!r}")
                seen.add(member)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def initial(
        members: list[str], epoch: int = 1, slot_count: int = SLOT_COUNT
    ) -> "MembershipState":
        if len(members) != slot_count:
            raise MembershipError(
                f"initial membership needs {slot_count} members"
            )
        return MembershipState(
            epoch=epoch, slots=tuple((m,) for m in members)
        )

    @property
    def is_stable(self) -> bool:
        """True when no replacement is in flight."""
        return all(len(alternatives) == 1 for alternatives in self.slots)

    @property
    def members(self) -> frozenset[str]:
        """Every member referenced by any alternative."""
        return frozenset(
            member for alternatives in self.slots for member in alternatives
        )

    @property
    def pending_replacements(self) -> tuple[ReplacementPlan, ...]:
        return tuple(
            ReplacementPlan(slot=i, incumbent=alts[0], candidate=alts[1])
            for i, alts in enumerate(self.slots)
            if len(alts) == 2
        )

    def slot_of(self, segment_id: str) -> int:
        """The slot holding ``segment_id`` (incumbent or candidate)."""
        for slot, alternatives in enumerate(self.slots):
            if segment_id in alternatives:
                return slot
        raise MembershipError(f"{segment_id!r} is not a member")

    def member_groups(self) -> list[frozenset[str]]:
        """The cartesian expansion of slot alternatives (Figure 5's groups)."""
        return [
            frozenset(choice)
            for choice in itertools.product(*self.slots)
        ]

    def quorum_config(self) -> QuorumConfig:
        """The proved quorum set for the current (possibly dual) membership.

        Six-slot groups use Aurora's 4/6 write / 3/6 read thresholds;
        other slot counts fall back to the generalised majority-overlap
        transition config (backends install their own policy on top via
        :meth:`StorageBackend.membership_quorum_config`).
        """
        # The state is frozen and the proof is a 2^n sweep, so derive once
        # (D8: the data plane asks per RPC; only a membership change, which
        # makes a new state, re-derives).  Not a field: equality, hash and
        # repr stay those of (epoch, slots).
        config = self.__dict__.get("_quorum_config")
        if config is None:
            groups = self.member_groups()
            if len(self.slots) == SLOT_COUNT:
                config = transition_config(groups)
            else:
                config = group_transition_config(groups)
            object.__setattr__(self, "_quorum_config", config)
        return config

    # ------------------------------------------------------------------
    # Transitions (each returns a new state with epoch + 1)
    # ------------------------------------------------------------------
    def begin_replacement(self, incumbent: str, candidate: str) -> "MembershipState":
        """Add ``candidate`` alongside suspect ``incumbent`` (Figure 5, epoch 2)."""
        if candidate in self.members:
            raise MembershipError(f"{candidate!r} is already a member")
        new_slots = []
        found = False
        for alternatives in self.slots:
            if alternatives[0] == incumbent and len(alternatives) == 1:
                new_slots.append((incumbent, candidate))
                found = True
            elif incumbent in alternatives:
                raise MembershipError(
                    f"slot holding {incumbent!r} already has a pending "
                    f"replacement: {alternatives}"
                )
            else:
                new_slots.append(alternatives)
        if not found:
            raise MembershipError(f"{incumbent!r} is not an incumbent member")
        if sum(1 for s in new_slots if len(s) == 2) > 2:
            raise MembershipError(
                "at most two concurrent replacements are supported "
                "(the paper's double-fault scenario)"
            )
        return MembershipState(epoch=self.epoch + 1, slots=tuple(new_slots))

    def commit_replacement(self, slot: int) -> "MembershipState":
        """Finish a replacement: the candidate becomes the member
        (Figure 5, epoch 3)."""
        return self._collapse(slot, keep_index=1)

    def rollback_replacement(self, slot: int) -> "MembershipState":
        """Revert a replacement: the incumbent came back; drop the candidate."""
        return self._collapse(slot, keep_index=0)

    def _collapse(self, slot: int, keep_index: int) -> "MembershipState":
        if not 0 <= slot < len(self.slots):
            raise MembershipError(f"slot {slot} out of range")
        alternatives = self.slots[slot]
        if len(alternatives) != 2:
            raise MembershipError(f"slot {slot} has no pending replacement")
        new_slots = list(self.slots)
        new_slots[slot] = (alternatives[keep_index],)
        return MembershipState(epoch=self.epoch + 1, slots=tuple(new_slots))

    def __repr__(self) -> str:
        rendered = []
        for alternatives in self.slots:
            rendered.append("|".join(alternatives))
        return f"<Membership epoch={self.epoch} [{' '.join(rendered)}]>"


def verify_transition_safety(
    before: MembershipState,
    after: MembershipState,
    audit_probe=None,
    config_of=None,
) -> None:
    """Prove a transition is safe in the paper's sense.

    Two properties are checked exhaustively over the combined member
    universe:

    1. the membership epoch strictly increases, and
    2. every write quorum of the new configuration intersects every write
       quorum of the old one (no two epochs can independently make
       progress -- the analogue of ``Vw > V/2`` carried *across* the
       transition; this is what makes the epoch increment itself, which
       is a quorum write, serialize against all prior configurations).

    Cross-configuration *read* intersection is deliberately not required:
    the paper's quorum sets do not provide it in either direction (a
    minimal new read quorum containing a still-hydrating candidate can
    miss old writes; a minimal new write quorum can miss an old read
    quorum pinned on the suspect member).  Those cases are fenced
    operationally instead: stale membership epochs are rejected outright,
    recovery scans every reachable segment rather than a minimal quorum,
    candidates hydrate via gossip before the collapsing transition, and
    "we do not discard any durable state until back to a fully repaired
    quorum".  Within each configuration, read/write overlap is proved by
    :meth:`~repro.core.quorum.QuorumConfig.prove` at construction.

    When an ``audit_probe`` (:class:`repro.audit.Auditor`) is given, the
    transition is reported *before* the checks run, so the auditor flags
    an unsafe transition independently of the exceptions raised here.

    ``config_of`` maps a membership state to the quorum config actually
    installed for it; it defaults to the state's own
    :meth:`MembershipState.quorum_config` and lets storage backends with
    asymmetric quorum policies (e.g. Taurus's log-store-only quorum)
    prove *their* configs across the transition.
    """
    if audit_probe is not None:
        audit_probe.on_membership_transition(before, after)
    if after.epoch <= before.epoch:
        raise MembershipError(
            f"epoch must increase: {before.epoch} -> {after.epoch}"
        )
    if config_of is None:
        config_of = lambda state: state.quorum_config()  # noqa: E731
    old = config_of(before)
    new = config_of(after)
    members = sorted(old.members | new.members)
    universe = set(members)
    for size in range(len(members) + 1):
        for combo in itertools.combinations(members, size):
            subset = set(combo)
            complement = universe - subset
            if new.write_expr.satisfied(subset) and old.write_expr.satisfied(
                complement
            ):
                raise MembershipError(
                    f"unsafe transition: new write quorum {sorted(subset)} "
                    f"is disjoint from old write quorum {sorted(complement)}"
                )
