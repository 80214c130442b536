"""Consistency-point trackers: SCL, PGCL, VCL, VDL, and PGMRPL.

These are the "local oases of consistency" of the paper's conclusion.  Each
tracker is a pure state machine fed by acknowledgement bookkeeping; none of
them ever requires agreement among nodes:

- **SCL** (Segment Complete LSN), tracked *on each storage node*: "the
  inclusive upper bound on log records continuously linked through the
  segment chain without gaps" (section 2.3).
- **PGCL** (Protection Group Complete LSN), tracked *on the database
  instance*: "once the database instance observes SCL advance at four of six
  members of the protection group, it is able to locally advance PGCL".
  Generalised here to any :class:`~repro.core.quorum.QuorumConfig`, so the
  same tracker works for plain 4/6, full/tail, and in-flight membership
  transitions.
- **VCL** (Volume Complete LSN) and **VDL** (Volume Durable LSN), tracked on
  the instance: VCL is "the highest point at which all previous log records
  have met quorum"; VDL is "the last LSN below VCL representing an MTR
  completion" (section 3.3).
- **PGMRPL** (Protection Group Minimum Read Point LSN), the garbage
  collection floor: "the lowest LSN read point for any active request on
  that database instance" (section 3.4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.lsn import NULL_LSN
from repro.core.quorum import QuorumConfig
from repro.errors import ConfigurationError


class SegmentChainTracker:
    """Advances a segment's SCL along the protection-group chain.

    Records may arrive in any order and may be missing (writes "may be lost
    for any reason").  The tracker links arrivals through their
    ``prev_pg_lsn`` pointers and advances SCL over every contiguous prefix.
    Records received above a gap are remembered and linked in as soon as
    gossip (or a retry) fills the hole.
    """

    def __init__(self, baseline: int = NULL_LSN) -> None:
        self._scl = baseline
        #: successor map: prev_pg_lsn -> lsn, for records above the SCL.
        self._pending: dict[int, int] = {}
        self._max_received = baseline
        #: Optional :class:`repro.audit.Auditor` observer (zero-cost when
        #: unattached); ``audit_owner`` labels events (the segment id).
        self.audit_probe = None
        self.audit_owner = ""

    @property
    def scl(self) -> int:
        return self._scl

    @property
    def max_received(self) -> int:
        """Highest LSN seen, whether or not it is chain-connected yet."""
        return self._max_received

    @property
    def has_gap(self) -> bool:
        """True if records exist above SCL that are not chain-connected."""
        return self._max_received > self._scl

    def offer(self, lsn: int, prev_pg_lsn: int) -> bool:
        """Register a received record; return True if the SCL advanced."""
        if lsn <= self._scl:
            return False  # duplicate of an already-complete record
        self._max_received = max(self._max_received, lsn)
        self._pending[prev_pg_lsn] = lsn
        old = self._scl
        advanced = self._advance()
        if advanced and self.audit_probe is not None:
            self.audit_probe.on_scl(self.audit_owner, old, self._scl, "chain")
        return advanced

    def offer_run(self, first_prev_pg_lsn: int, last_lsn: int) -> bool:
        """Register a whole chain-contiguous run in one step, if it can be.

        The caller vouches that the run is linked record to record and lies
        above everything received so far.  When it also attaches exactly at
        the SCL and nothing is pending, offering its records one by one
        would walk the SCL to ``last_lsn`` and leave nothing behind, so the
        tracker jumps there (one ``on_scl`` probe for the whole advance) and
        returns True.  Otherwise it changes nothing and returns False: the
        caller links the records through :meth:`offer`.  No run is ever
        *stored* -- ``_pending`` keeps one link per record, which is what
        lets :meth:`truncate` and :meth:`rebase` clip it member by member.
        """
        if self._pending or first_prev_pg_lsn != self._scl:
            return False
        old = self._scl
        self._scl = last_lsn
        self._max_received = max(self._max_received, last_lsn)
        if self.audit_probe is not None:
            self.audit_probe.on_scl(self.audit_owner, old, last_lsn, "chain")
        return True

    def _advance(self) -> bool:
        advanced = False
        while self._scl in self._pending:
            self._scl = self._pending.pop(self._scl)
            advanced = True
        return advanced

    def rebase(self, baseline: int) -> bool:
        """Jump the SCL forward to ``baseline`` (hydration from a peer).

        Used when a new segment bootstraps from a materialized block
        baseline (or a backup): everything at or below ``baseline`` is known
        complete without individual records.  Pending records above the new
        baseline re-link immediately.  Returns True if the SCL moved.
        """
        if baseline <= self._scl:
            return False
        old = self._scl
        self._scl = baseline
        self._max_received = max(self._max_received, baseline)
        self._pending = {
            prev: lsn for prev, lsn in self._pending.items() if lsn > baseline
        }
        # The baseline may fall between two chain records (e.g. a global
        # coalesce point between this PG's LSNs).  In a linear chain exactly
        # one pending record can span it; re-key that link at the baseline
        # so normal advancement picks it up.
        spanning = [prev for prev in self._pending if prev < baseline]
        if spanning:
            successor = self._pending.pop(spanning[0])
            self._pending[baseline] = successor
        self._advance()
        if self.audit_probe is not None:
            self.audit_probe.on_scl(
                self.audit_owner, old, self._scl, "rebase"
            )
        return True

    def truncate(self, to_lsn: int, last: int | None = None) -> None:
        """Annul the window ``(to_lsn, last]`` (crash-recovery truncation).

        ``last`` is the upper end of the recovery truncation range.  LSNs
        above it were allocated by a *post-recovery* writer generation (the
        allocator jumps above the range) and must survive: a TruncateRequest
        delivered late — to a segment that was unreachable during recovery —
        must not destroy records the segment has since received from the new
        generation.  ``last=None`` annuls everything above ``to_lsn``.
        """
        old = self._scl
        self._pending = {
            prev: lsn
            for prev, lsn in self._pending.items()
            if (lsn <= to_lsn and prev < to_lsn)
            or (last is not None and lsn > last)
        }
        if last is None or self._scl <= last:
            self._scl = min(self._scl, to_lsn)
        self._max_received = max([self._scl, *self._pending.values()])
        self._advance()
        if self.audit_probe is not None:
            self.audit_probe.on_scl_truncate(
                self.audit_owner, to_lsn, old, self._scl, last
            )

    def pending_count(self) -> int:
        return len(self._pending)


class PGConsistencyTracker:
    """Database-side PGCL bookkeeping for one protection group.

    Fed with the SCL value piggybacked on every write acknowledgement
    ("SCL is sent by the storage node as part of acknowledging a write"),
    it advances PGCL to the highest LSN made durable on a write quorum of
    the *current* quorum configuration.  Swapping the configuration (during
    a membership change) re-evaluates PGCL against the new member set but
    never moves it backwards.
    """

    def __init__(
        self,
        pg_index: int,
        config: QuorumConfig,
        audit_probe=None,
        audit_owner: str = "",
        tracked=None,
    ) -> None:
        self.pg_index = pg_index
        self._config = config
        #: Members whose acked SCLs are bookkept.  Defaults to the quorum
        #: config's members; backends whose durability quorum spans only a
        #: subset of the membership (e.g. Taurus's log stores) pass the
        #: full membership here so asynchronous replicas (page stores)
        #: still feed :meth:`durable_members_at` for read routing.
        tracked_members = (
            frozenset(tracked) | config.members
            if tracked is not None
            else config.members
        )
        self._member_scls: dict[str, int] = {
            m: NULL_LSN for m in tracked_members
        }
        self._pgcl = NULL_LSN
        self.audit_probe = audit_probe
        self.audit_owner = audit_owner
        if audit_probe is not None:
            audit_probe.on_quorum_config(audit_owner, pg_index, config)

    @property
    def pgcl(self) -> int:
        return self._pgcl

    @property
    def config(self) -> QuorumConfig:
        return self._config

    @property
    def member_scls(self) -> dict[str, int]:
        return dict(self._member_scls)

    def set_config(self, config: QuorumConfig, tracked=None) -> None:
        """Install a new quorum configuration (membership change).

        ``tracked`` extends the retained member set beyond the config's
        own members (see ``__init__``); by default only quorum members
        survive the swap.
        """
        self._config = config
        if self.audit_probe is not None:
            self.audit_probe.on_quorum_config(
                self.audit_owner, self.pg_index, config
            )
        tracked_members = (
            frozenset(tracked) | config.members
            if tracked is not None
            else config.members
        )
        for member in tracked_members:
            self._member_scls.setdefault(member, NULL_LSN)
        # Forget members no longer referenced by any quorum expression
        # (or, for backends with a wider tracked set, by the membership).
        self._member_scls = {
            m: scl
            for m, scl in self._member_scls.items()
            if m in tracked_members
        }
        # A new configuration can change the verdict on every candidate.
        self._advance_pgcl(
            self._pgcl, max(self._member_scls.values(), default=NULL_LSN)
        )

    def record_ack(self, member: str, scl: int) -> bool:
        """Record an acknowledged SCL; return True if PGCL advanced."""
        scls = self._member_scls
        old = scls.get(member)
        if old is None or scl <= old:
            return False  # evicted member, or nothing new
        scls[member] = scl
        pgcl = self._pgcl
        if scl <= pgcl:
            return False  # a straggler catching up below the durable point
        # The ack moved ``member`` into the durable set of the candidates in
        # (old, scl] and of no others, so only those can have just turned
        # durable; every other candidate above PGCL failed with this same
        # set the last time it was evaluated.
        return self._advance_pgcl(old if old > pgcl else pgcl, scl)

    def _advance_pgcl(self, above: int, upto: int) -> bool:
        """PGCL := the highest acked SCL ``L`` in ``(above, upto]`` such
        that {members with SCL >= L} is a write quorum, if there is one."""
        best = self._pgcl
        scls = self._member_scls
        for candidate in set(scls.values()):
            if not above < candidate <= upto or candidate <= best:
                continue
            durable_at = {m for m, scl in scls.items() if scl >= candidate}
            if self._config.write_satisfied(durable_at):
                best = candidate
        if best > self._pgcl:
            old = self._pgcl
            self._pgcl = best
            if self.audit_probe is not None:
                self.audit_probe.on_pgcl(
                    self.audit_owner, self.pg_index, old, best
                )
            return True
        return False

    def durable_members_at(self, lsn: int, among) -> list[str]:
        """Those of ``among``, in the order given, known (via acks) to hold
        every record up to ``lsn``.

        This is the bookkeeping that lets Aurora avoid quorum reads
        (section 3.1): the instance "knows which segments have the last
        durable version of a data block and can request it directly".
        """
        scls = self._member_scls
        return [m for m in among if scls.get(m, NULL_LSN - 1) >= lsn]


@dataclass(frozen=True)
class _VolumeEntry:
    lsn: int
    pg_index: int
    mtr_end: bool


class VolumeConsistencyTracker:
    """Database-side VCL/VDL bookkeeping across all protection groups.

    The writer registers every allocated record in LSN order; as PGCLs
    advance, the tracker walks the volume chain forward.  VCL stops at the
    first record whose PG has not yet made it durable; VDL trails VCL at the
    last MTR completion point.
    """

    def __init__(self) -> None:
        self._chain: deque[_VolumeEntry] = deque()
        self._pgcls: dict[int, int] = {}
        self._vcl = NULL_LSN
        self._vdl = NULL_LSN
        self._last_registered = NULL_LSN
        self.audit_probe = None
        self.audit_owner = ""

    @property
    def vcl(self) -> int:
        return self._vcl

    @property
    def vdl(self) -> int:
        return self._vdl

    def register(self, lsn: int, pg_index: int, mtr_end: bool) -> None:
        """Declare an allocated record (must be called in LSN order)."""
        if lsn <= self._last_registered:
            raise ConfigurationError(
                f"records must be registered in LSN order: {lsn} after "
                f"{self._last_registered}"
            )
        self._last_registered = lsn
        self._chain.append(_VolumeEntry(lsn, pg_index, mtr_end))

    def on_pgcl(self, pg_index: int, pgcl: int) -> tuple[bool, bool]:
        """Feed a PGCL advance; returns (vcl_advanced, vdl_advanced)."""
        if pgcl <= self._pgcls.get(pg_index, NULL_LSN):
            return (False, False)
        self._pgcls[pg_index] = pgcl
        old_vcl, old_vdl = self._vcl, self._vdl
        advanced = self._advance()
        if advanced[0] and self.audit_probe is not None:
            self.audit_probe.on_volume_points(
                self.audit_owner, old_vcl, old_vdl, self._vcl, self._vdl,
                "ack",
            )
        return advanced

    def _advance(self) -> tuple[bool, bool]:
        vcl_advanced = False
        vdl_advanced = False
        while self._chain:
            head = self._chain[0]
            if self._pgcls.get(head.pg_index, NULL_LSN) < head.lsn:
                break
            self._chain.popleft()
            self._vcl = head.lsn
            vcl_advanced = True
            if head.mtr_end:
                self._vdl = head.lsn
                vdl_advanced = True
        return (vcl_advanced, vdl_advanced)

    def reset(self, vcl: int, vdl: int | None = None) -> None:
        """Install recovered consistency points after crash recovery.

        ``vdl`` defaults to ``vcl`` (a recovery that truncated the volume
        at an MTR boundary).  A ``vdl`` above ``vcl`` is never legal --
        VDL is by definition the last MTR completion *below* VCL.
        """
        if vdl is not None and vdl > vcl:
            raise ConfigurationError(
                f"recovered VDL {vdl} may not exceed recovered VCL {vcl}"
            )
        old_vcl, old_vdl = self._vcl, self._vdl
        self._chain.clear()
        self._pgcls.clear()
        self._vcl = vcl
        self._vdl = vdl if vdl is not None else vcl
        self._last_registered = max(self._last_registered, vcl)
        if self.audit_probe is not None:
            self.audit_probe.on_volume_points(
                self.audit_owner, old_vcl, old_vdl, self._vcl, self._vdl,
                "reset",
            )

    @property
    def lag(self) -> int:
        """Number of registered records not yet volume-complete."""
        return len(self._chain)


class PGFrontierHistory:
    """Translates volume-global read points into per-PG read points.

    The LSN space is global, but each segment's SCL only ever equals LSNs
    routed to *its* protection group.  A read anchored at a global durable
    point P must therefore be issued to storage at the PG-local point
    ``f(pg, P)`` = the highest LSN of that PG at or below P; the block
    version chains are keyed by those PG-local LSNs.

    The history records, for every VDL the instance has anchored a read
    view at, the per-PG frontier map as of that VDL.  Entries below the
    minimum active read point are pruned (nothing can anchor there any
    more).  Replicas maintain their own instance of this class, fed by the
    replication stream.
    """

    def __init__(self) -> None:
        self._pending: deque[tuple[int, int]] = deque()  # (lsn, pg_index)
        self._current: dict[int, int] = {}
        self._history: dict[int, dict[int, int]] = {NULL_LSN: {}}
        self._last_vdl = NULL_LSN

    def record(self, lsn: int, pg_index: int) -> None:
        """Register an allocated record (in LSN order)."""
        if self._pending and lsn <= self._pending[-1][0]:
            raise ConfigurationError(
                f"frontier records must arrive in LSN order: {lsn}"
            )
        self._pending.append((lsn, pg_index))

    def advance_vdl(self, vdl: int) -> dict[int, int]:
        """Fold records up to ``vdl`` into the frontier; snapshot it."""
        while self._pending and self._pending[0][0] <= vdl:
            lsn, pg_index = self._pending.popleft()
            self._current[pg_index] = lsn
        self._last_vdl = max(self._last_vdl, vdl)
        snapshot = dict(self._current)
        self._history[vdl] = snapshot
        return snapshot

    def frontier_at(self, read_point: int) -> dict[int, int]:
        """Per-PG frontier for a read anchored at ``read_point``.

        ``read_point`` must be a VDL value the history has seen (read views
        only ever anchor at durable points), or NULL_LSN.
        """
        try:
            return self._history[read_point]
        except KeyError:
            raise ConfigurationError(
                f"no frontier recorded for read point {read_point}; "
                "read views must anchor at observed VDL values"
            ) from None

    def knows(self, read_point: int) -> bool:
        """True when a frontier snapshot exists for ``read_point``.

        A read view can outlive a :meth:`reset` (replica re-attach after a
        writer failover); its anchor then belongs to the previous stream
        generation and has no snapshot here.
        """
        return read_point in self._history

    def pg_read_point(self, pg_index: int, read_point: int) -> int:
        """``f(pg, read_point)``: the PG-local equivalent of a global point."""
        return self.frontier_at(read_point).get(pg_index, NULL_LSN)

    def prune_below(self, floor: int) -> int:
        """Drop snapshots below ``floor`` (the min active read point)."""
        doomed = [
            point
            for point in self._history
            if point < floor and point != self._last_vdl
        ]
        for point in doomed:
            del self._history[point]
        return len(doomed)

    def reset(self, vdl: int, frontiers: dict[int, int]) -> None:
        """Install recovered state: the frontier map as of the new VDL."""
        self._pending.clear()
        self._current = dict(frontiers)
        self._history = {vdl: dict(frontiers)}
        self._last_vdl = vdl


class MinReadPointTracker:
    """PGMRPL bookkeeping: the lowest active read point on one instance.

    Each open read view registers its read-point LSN; the minimum over all
    active views (falling back to ``floor`` when idle) is the PGMRPL this
    instance advertises to storage nodes, which "may only advance [their]
    garbage collection point once PGMRPL has advanced for all instances that
    have opened the volume".
    """

    def __init__(self) -> None:
        self._active: dict[int, int] = {}  # read-point lsn -> refcount
        self._floor = NULL_LSN

    def register(self, read_point: int) -> None:
        if read_point < self._floor:
            raise ConfigurationError(
                f"read point {read_point} below released floor {self._floor}"
            )
        self._active[read_point] = self._active.get(read_point, 0) + 1

    def release(self, read_point: int) -> None:
        count = self._active.get(read_point)
        if count is None:
            raise ConfigurationError(
                f"release of unregistered read point {read_point}"
            )
        if count == 1:
            del self._active[read_point]
        else:
            self._active[read_point] = count - 1

    def advance_floor(self, lsn: int) -> None:
        """Move the idle fallback forward (typically to the current VDL)."""
        self._floor = max(self._floor, lsn)

    def clear_active(self) -> None:
        """Crash or re-attach: every open view died with the instance's
        old generation; the floor (a durable fact) survives."""
        self._active.clear()

    def current(self) -> int:
        """The PGMRPL this instance should advertise.

        The minimum active read point if any view is open, else the idle
        floor.  Monotonic because registration below the floor is rejected
        and the floor itself only advances.
        """
        if self._active:
            return min(self._active)
        return self._floor

    @property
    def active_count(self) -> int:
        return sum(self._active.values())
