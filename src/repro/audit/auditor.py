"""The runtime invariant auditor.

The auditor is a passive observer: protocol components expose optional
``audit_probe`` attributes (``None`` by default -- the hook sites cost one
attribute load when unarmed) and, when armed, report every state transition
here.  The auditor re-checks the paper's safety argument on each event and
records a named :class:`AuditViolation` whenever an invariant breaks,
instead of raising mid-protocol -- a broken invariant must not change the
schedule it is observing.

Invariant names are part of the public contract (tests and the CLI report
key off them):

``scl-monotonic``
    A segment's SCL only moves forward through chain advance / rebase;
    only an explicit crash-recovery truncation may lower it (section 3.1).
``scl-truncate-durable``
    A recovery truncation's annulment window ``(pg_point, range.last]``
    never covers the PG's proven durable point (section 3.3: the ragged
    edge above VCL is annulled, never data below a write-quorum-complete
    LSN).  Durable points *above* the window belong to a post-recovery
    writer generation and survive a late-delivered truncation untouched.
``pgcl-monotonic``
    PGCL never regresses within a writer generation (section 2.2).
``vcl-monotonic`` / ``vdl-monotonic``
    Volume points never regress within a writer generation (section 2.2).
``vdl-le-vcl``
    VDL trails VCL at an MTR boundary, never exceeds it (section 2.2).
``commit-ack-durable``
    A commit is acknowledged only once its SCN is durable: SCN <= VCL and
    SCN <= VDL at ack time (sections 2.2, 3.2).
``durable-commit-lost``
    Crash recovery re-establishes volume points at or above every
    acknowledged commit SCN (section 3.3 / Figure 5: read/write overlap
    guarantees the recovered VCL covers all durable writes).
``quorum-overlap``
    Every active :class:`~repro.core.quorum.QuorumConfig` -- including the
    mixed quorum sets installed during membership transitions -- proves
    read/write and write/write intersection (sections 2.1, 4.1).
``epoch-monotonic``
    Epoch stamps adopted by any party never move a component backwards
    (section 2.4).
``stale-epoch-accepted``
    A request carrying an epoch below the current one must be rejected,
    never serviced (section 2.4).
``membership-epoch``
    A membership transition strictly increases the membership epoch
    (section 4.2 / Figure 6).
``geometry-epoch``
    Volume growth strictly increases the geometry epoch (section 4.3).
``replica-read-above-vdl`` / ``replica-apply-above-vdl``
    A read replica never exposes a read view -- nor applies redo -- above
    the VDL advertised by the writer (section 2.3).
``repair-available-quorum``
    A repair transition never reduces an available quorum: if the live
    members satisfied the write quorum before the step, they still do
    after it (section 4's "I/Os continue throughout").
``repair-epoch``
    Every repair transition (begin / finalize / rollback) strictly
    increases the membership epoch (Figure 5).
``repair-rollback-membership``
    Rolling back a replacement restores the exact prior slot structure --
    the change really was "reversible until the point it is finalized".
``repair-hydration-watermark``
    A replacement is finalized only once the candidate's SCL covers the
    PG's proven durable point: no acknowledged write is lost by dropping
    the incumbent (section 4.2's hydration requirement).
``writer-single-per-epoch``
    At most one writer is ever open at a given volume epoch.  A zombie
    predecessor lingering at an older epoch is legal -- the fence exists
    precisely to contain it -- but two writers sharing an epoch means
    recovery failed to change the locks (section 6).
``writer-epoch-regressed``
    Every writer generation after bootstrap opens at a strictly higher
    volume epoch than any generation before it (section 2.4: recovery
    bumps the volume epoch before the volume reopens).
``failover-read-view-regression``
    A promoted writer's recovered durable point never falls below the
    applied VDL its replica incarnation had already exposed to readers
    (section 3.2: promotion must not move reads backwards).
``integrity-corrupt-served``
    A read never serves a block version for which an injected corruption
    is still open: read-time verification plus quarantine must intercept
    every corrupt image before it reaches a replica or client
    (DESIGN.md §12; flagged by :class:`repro.audit.integrity.IntegrityLog`).
``integrity-repair-propagated-corruption``
    A quorum-vote repair never adopts an image whose checksum matches an
    open corruption's digest: a corrupt peer must not win the vote
    (DESIGN.md §12).
``integrity-unrepaired-past-budget``
    Every injected corruption is detected and repaired within the
    configured repair budget; scrubbing plus the vote give bounded, not
    best-effort, exposure windows (DESIGN.md §12).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import QuorumError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.epochs import EpochStamp
    from repro.core.membership import MembershipState
    from repro.core.quorum import QuorumConfig
    from repro.sim.events import EventLoop


class AuditError(AssertionError):
    """Raised by :meth:`Auditor.assert_clean` when violations were found."""


@dataclass(frozen=True)
class AuditViolation:
    """One broken invariant, with enough context to reproduce it."""

    invariant: str
    subject: str
    detail: str
    at: float
    #: Snapshot of the trailing protocol events when the violation fired.
    tail: tuple[str, ...] = field(default=(), compare=False)

    def __str__(self) -> str:
        return (
            f"[t={self.at:.3f}] {self.invariant}: {self.subject} -- "
            f"{self.detail}"
        )


class Auditor:
    """Collects protocol events and checks every safety invariant.

    The auditor never raises from a hook: violations accumulate in
    :attr:`violations` and the run continues, so a single broken invariant
    yields a full report rather than a truncated schedule.  Call
    :meth:`assert_clean` (tests) or inspect :attr:`violations` (CLI).
    """

    def __init__(self, tail_size: int = 64) -> None:
        self.violations: list[AuditViolation] = []
        self.events_seen = 0
        #: The last ``tail_size`` protocol events as ``(time, text)``;
        #: rendered by :attr:`event_tail`, which only a violation or a
        #: report reads.
        self._tail: deque[tuple[float, str]] = deque(maxlen=tail_size)
        self._loop: EventLoop | None = None
        # Watermarks.  Per-owner state is cleared when that owner crashes
        # (a fresh writer generation restarts its trackers); the durable
        # facts -- per-PG durable points and the acked-commit high water --
        # survive crashes, because durability does.
        self._scl: dict[str, int] = {}
        self._pgcl: dict[tuple[str, int], int] = {}
        self._vcl: dict[str, int] = {}
        self._vdl: dict[str, int] = {}
        self._epochs: dict[str, "EpochStamp"] = {}
        self._segment_pg: dict[str, int] = {}
        self._pg_durable: dict[int, int] = {}
        self._max_geometry_epoch = 0
        self._max_acked_scn = 0
        self.commit_acks = 0
        # Writer-generation tracking (failover invariants): every open
        # writer by name -> the volume epoch it opened at, plus the
        # highest volume epoch any writer ever opened at.
        self._open_writers: dict[str, int] = {}
        self._max_writer_epoch = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_loop(self, loop: "EventLoop") -> None:
        """Attach the simulator clock so events/violations are timestamped."""
        self._loop = loop

    def register_segment(self, segment_id: str, pg_index: int) -> None:
        """Teach the auditor which PG a segment serves (for truncation
        checks against that PG's durable point)."""
        self._segment_pg[segment_id] = pg_index

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def event_tail(self) -> list[str]:
        return [f"[t={at:.3f}] {text}" for at, text in self._tail]

    def assert_clean(self) -> None:
        if self.violations:
            lines = [f"{len(self.violations)} invariant violation(s):"]
            lines += [f"  {v}" for v in self.violations]
            lines.append("event tail:")
            lines += [f"  {e}" for e in self.event_tail]
            raise AuditError("\n".join(lines))

    def flag(self, invariant: str, subject: str, detail: str) -> None:
        """Record a violation (also the entry point for external checkers
        such as the chaos runner's client-side read validation)."""
        violation = AuditViolation(
            invariant=invariant,
            subject=subject,
            detail=detail,
            at=self._now(),
            tail=tuple(self.event_tail),
        )
        self.violations.append(violation)
        self._record(f"VIOLATION {invariant} {subject}: {detail}")

    def _now(self) -> float:
        return self._loop.now if self._loop is not None else 0.0

    def _record(self, text: str) -> None:
        self.events_seen += 1
        self._tail.append((self._now(), text))

    # ------------------------------------------------------------------
    # Hook: segment chains (SCL)
    # ------------------------------------------------------------------
    def on_scl(self, owner: str, old: int, new: int, reason: str) -> None:
        self._record(f"scl {owner} {old}->{new} ({reason})")
        floor = self._scl.get(owner, old)
        if new < floor:
            self.flag(
                "scl-monotonic",
                owner,
                f"SCL moved {floor} -> {new} via {reason}; only an "
                f"explicit truncation may lower an SCL",
            )
        self._scl[owner] = max(floor, new)

    def on_scl_truncate(
        self, owner: str, to_lsn: int, old: int, new: int,
        last: int | None = None,
    ) -> None:
        self._record(f"scl-truncate {owner} {old}->{new} (target {to_lsn})")
        pg = self._segment_pg.get(owner)
        if pg is not None:
            durable = self._pg_durable.get(pg, 0)
            # Only the window (to_lsn, last] is annulled; a durable point
            # above `last` lives in a post-recovery generation and survives
            # a late-delivered truncation untouched.
            if to_lsn < durable and (last is None or durable <= last):
                self.flag(
                    "scl-truncate-durable",
                    owner,
                    f"truncation window ({to_lsn}, "
                    f"{'inf' if last is None else last}] covers PG {pg}'s "
                    f"durable point {durable}: committed data destroyed",
                )
        # Truncation legitimately lowers the SCL; rebase the watermark.
        self._scl[owner] = new

    # ------------------------------------------------------------------
    # Hook: PG consistency (PGCL, quorum configs)
    # ------------------------------------------------------------------
    def on_pgcl(self, owner: str, pg_index: int, old: int, new: int) -> None:
        self._record(f"pgcl {owner} pg{pg_index} {old}->{new}")
        key = (owner, pg_index)
        floor = self._pgcl.get(key, old)
        if new < floor:
            self.flag(
                "pgcl-monotonic",
                f"{owner}/pg{pg_index}",
                f"PGCL moved {floor} -> {new}",
            )
        self._pgcl[key] = max(floor, new)
        durable = self._pg_durable.get(pg_index, 0)
        self._pg_durable[pg_index] = max(durable, new)

    def on_quorum_config(
        self, owner: str, pg_index: int, config: "QuorumConfig"
    ) -> None:
        self._record(
            f"quorum-config {owner} pg{pg_index} "
            f"members={len(config.members)} proven={config.is_proven}"
        )
        try:
            config.prove()
        except QuorumError as exc:
            self.flag(
                "quorum-overlap",
                f"{owner}/pg{pg_index}",
                f"active config {config!r} fails its overlap proof: {exc}",
            )

    # ------------------------------------------------------------------
    # Hook: volume points (VCL / VDL)
    # ------------------------------------------------------------------
    def on_volume_points(
        self,
        owner: str,
        old_vcl: int,
        old_vdl: int,
        new_vcl: int,
        new_vdl: int,
        reason: str,
    ) -> None:
        self._record(
            f"volume {owner} vcl {old_vcl}->{new_vcl} "
            f"vdl {old_vdl}->{new_vdl} ({reason})"
        )
        if new_vdl > new_vcl:
            self.flag(
                "vdl-le-vcl",
                owner,
                f"VDL {new_vdl} exceeds VCL {new_vcl} ({reason})",
            )
        if reason == "reset":
            # Crash recovery installs fresh points.  They may regress
            # relative to the lost generation's uncommitted tail, but never
            # below an acknowledged commit (section 3.3).
            if new_vcl < self._max_acked_scn:
                self.flag(
                    "durable-commit-lost",
                    owner,
                    f"recovered VCL {new_vcl} is below acknowledged "
                    f"commit SCN {self._max_acked_scn}",
                )
            if new_vdl < self._max_acked_scn:
                self.flag(
                    "durable-commit-lost",
                    owner,
                    f"recovered VDL {new_vdl} is below acknowledged "
                    f"commit SCN {self._max_acked_scn}",
                )
            self._vcl[owner] = new_vcl
            self._vdl[owner] = new_vdl
            return
        vcl_floor = self._vcl.get(owner, old_vcl)
        if new_vcl < vcl_floor:
            self.flag(
                "vcl-monotonic", owner, f"VCL moved {vcl_floor} -> {new_vcl}"
            )
        vdl_floor = self._vdl.get(owner, old_vdl)
        if new_vdl < vdl_floor:
            self.flag(
                "vdl-monotonic", owner, f"VDL moved {vdl_floor} -> {new_vdl}"
            )
        self._vcl[owner] = max(vcl_floor, new_vcl)
        self._vdl[owner] = max(vdl_floor, new_vdl)

    # ------------------------------------------------------------------
    # Hook: commit acknowledgements
    # ------------------------------------------------------------------
    def on_commit_ack(self, owner: str, scn: int, vcl: int) -> None:
        self._record(f"commit-ack {owner} scn={scn} vcl={vcl}")
        self.commit_acks += 1
        if scn > vcl:
            self.flag(
                "commit-ack-durable",
                owner,
                f"commit SCN {scn} acknowledged at VCL {vcl}",
            )
        vdl = self._vdl.get(owner)
        if vdl is not None and scn > vdl:
            self.flag(
                "commit-ack-durable",
                owner,
                f"commit SCN {scn} acknowledged above VDL {vdl}",
            )
        self._max_acked_scn = max(self._max_acked_scn, scn)

    # ------------------------------------------------------------------
    # Hook: epochs
    # ------------------------------------------------------------------
    def on_epoch_change(
        self, owner: str, old: "EpochStamp", new: "EpochStamp"
    ) -> None:
        self._record(f"epoch {owner} {old} -> {new}")
        floor = self._epochs.get(owner, old)
        if (
            new.volume < floor.volume
            or new.membership < floor.membership
            or new.geometry < floor.geometry
        ):
            self.flag(
                "epoch-monotonic",
                owner,
                f"epoch stamp regressed: {floor} -> {new}",
            )
            self._epochs[owner] = new
            return
        self._epochs[owner] = new

    def on_stale_epoch(
        self,
        owner: str,
        kind: str,
        presented: int,
        current: int,
        rejected: bool = True,
    ) -> None:
        self._record(
            f"stale-epoch {owner} {kind} presented={presented} "
            f"current={current} rejected={rejected}"
        )
        if not rejected:
            self.flag(
                "stale-epoch-accepted",
                owner,
                f"serviced a request at {kind} epoch {presented} "
                f"while current epoch is {current}",
            )

    # ------------------------------------------------------------------
    # Hook: membership and geometry
    # ------------------------------------------------------------------
    def on_membership_transition(
        self, before: "MembershipState", after: "MembershipState"
    ) -> None:
        self._record(
            f"membership epoch {before.epoch}->{after.epoch} "
            f"members={sorted(after.members)}"
        )
        if after.epoch <= before.epoch:
            self.flag(
                "membership-epoch",
                "membership",
                f"membership epoch did not advance: {before.epoch} -> "
                f"{after.epoch}",
            )
        try:
            after.quorum_config().prove()
        except QuorumError as exc:
            self.flag(
                "quorum-overlap",
                "membership",
                f"post-transition quorum config fails overlap proof: {exc}",
            )

    # ------------------------------------------------------------------
    # Hook: autonomous repair (Figure 5 driven by the repair planner)
    # ------------------------------------------------------------------
    def on_repair_transition(
        self,
        pg_index: int,
        stage: str,
        before: "MembershipState",
        after: "MembershipState",
        up_members: frozenset,
    ) -> None:
        """One step of an autonomous repair, with the live-member set as
        observed when the step was taken."""
        self._record(
            f"repair-{stage} pg{pg_index} epoch {before.epoch}->"
            f"{after.epoch} up={sorted(up_members)}"
        )
        if after.epoch <= before.epoch:
            self.flag(
                "repair-epoch",
                f"pg{pg_index}/{stage}",
                f"repair step did not advance the membership epoch: "
                f"{before.epoch} -> {after.epoch}",
            )
        live_before = up_members & before.members
        live_after = up_members & after.members
        if before.quorum_config().write_satisfied(
            live_before
        ) and not after.quorum_config().write_satisfied(live_after):
            self.flag(
                "repair-available-quorum",
                f"pg{pg_index}/{stage}",
                f"live members {sorted(live_before)} satisfied the write "
                f"quorum before the step but {sorted(live_after)} do not "
                f"after it: the repair reduced an available quorum",
            )

    def on_repair_rollback(
        self,
        pg_index: int,
        transitional: "MembershipState",
        restored: "MembershipState",
    ) -> None:
        self._record(
            f"repair-rollback-check pg{pg_index} epoch {restored.epoch}"
        )
        # Exactly one slot may change, and it must collapse from
        # (incumbent, candidate) back to (incumbent,): the membership
        # before the begin step, restored bit-for-bit.
        diffs = [
            i
            for i, (t, r) in enumerate(
                zip(transitional.slots, restored.slots)
            )
            if t != r
        ]
        ok = (
            len(diffs) == 1
            and len(transitional.slots[diffs[0]]) == 2
            and restored.slots[diffs[0]]
            == transitional.slots[diffs[0]][:1]
        )
        if not ok:
            self.flag(
                "repair-rollback-membership",
                f"pg{pg_index}",
                f"rollback produced {restored.slots} from "
                f"{transitional.slots}: prior membership not restored",
            )

    def on_repair_finalize(
        self, pg_index: int, candidate_id: str, candidate_scl: int
    ) -> None:
        self._record(
            f"repair-finalize pg{pg_index} {candidate_id} "
            f"scl={candidate_scl}"
        )
        durable = self._pg_durable.get(pg_index, 0)
        if candidate_scl < durable:
            self.flag(
                "repair-hydration-watermark",
                f"pg{pg_index}/{candidate_id}",
                f"replacement finalized at SCL {candidate_scl}, below PG "
                f"{pg_index}'s durable point {durable}: acked writes would "
                f"be lost with the incumbent",
            )

    def on_geometry_growth(
        self, old_epoch: int, new_epoch: int, pg_count: int
    ) -> None:
        self._record(
            f"geometry epoch {old_epoch}->{new_epoch} pgs={pg_count}"
        )
        # The watermark spans calls: a growth whose epoch does not clear
        # every epoch previously observed re-used a stamp (section 4.1).
        floor = max(old_epoch, self._max_geometry_epoch)
        if new_epoch <= floor:
            self.flag(
                "geometry-epoch",
                "volume",
                f"geometry epoch did not advance past {floor}: "
                f"{old_epoch} -> {new_epoch}",
            )
        self._max_geometry_epoch = max(floor, new_epoch)

    # ------------------------------------------------------------------
    # Hook: replicas
    # ------------------------------------------------------------------
    def on_replica_view(
        self, owner: str, read_point: int, writer_vdl_seen: int
    ) -> None:
        self._record(
            f"replica-view {owner} read_point={read_point} "
            f"vdl_seen={writer_vdl_seen}"
        )
        if read_point > writer_vdl_seen:
            self.flag(
                "replica-read-above-vdl",
                owner,
                f"read view anchored at {read_point} above the writer's "
                f"advertised VDL {writer_vdl_seen}",
            )

    def on_replica_apply(
        self, owner: str, applied_vdl: int, writer_vdl_seen: int
    ) -> None:
        self._record(
            f"replica-apply {owner} applied={applied_vdl} "
            f"vdl_seen={writer_vdl_seen}"
        )
        if applied_vdl > writer_vdl_seen:
            self.flag(
                "replica-apply-above-vdl",
                owner,
                f"applied redo to {applied_vdl} above the writer's "
                f"advertised VDL {writer_vdl_seen}",
            )

    # ------------------------------------------------------------------
    # Hook: lifecycle
    # ------------------------------------------------------------------
    def on_instance_crash(self, owner: str) -> None:
        """A database instance crashed: its in-memory trackers restart, so
        per-generation watermarks reset.  Durable facts are kept."""
        self._record(f"instance-crash {owner}")
        self._vcl.pop(owner, None)
        self._vdl.pop(owner, None)
        for key in [k for k in self._pgcl if k[0] == owner]:
            del self._pgcl[key]

    # ------------------------------------------------------------------
    # Hook: writer generations (failover invariants)
    # ------------------------------------------------------------------
    def on_writer_open(self, owner: str, volume_epoch: int) -> None:
        """A writer opened for business at ``volume_epoch``.

        Two invariants:

        - **writer-single-per-epoch**: at most one live writer per volume
          epoch.  A zombie predecessor still open at an *older* epoch is
          legal (that is what the fence is for); two writers open at the
          same epoch means fencing failed.
        - **writer-epoch-regressed**: each successive writer generation
          must open at a strictly higher volume epoch than any before it
          (bootstrap excepted); otherwise its recovery failed to change
          the locks.
        """
        self._record(f"writer-open {owner} volume-epoch={volume_epoch}")
        for other, other_epoch in self._open_writers.items():
            if other != owner and other_epoch == volume_epoch:
                self.flag(
                    "writer-single-per-epoch",
                    owner,
                    f"opened at volume epoch {volume_epoch} while "
                    f"{other} is still open at the same epoch",
                )
        if self._max_writer_epoch and volume_epoch <= self._max_writer_epoch:
            self.flag(
                "writer-epoch-regressed",
                owner,
                f"opened at volume epoch {volume_epoch}, but a writer "
                f"has already opened at epoch {self._max_writer_epoch}",
            )
        self._open_writers[owner] = volume_epoch
        self._max_writer_epoch = max(self._max_writer_epoch, volume_epoch)

    def on_writer_close(self, owner: str) -> None:
        """A writer crashed, was fenced, or retired: no longer live."""
        self._record(f"writer-close {owner}")
        self._open_writers.pop(owner, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Auditor events={self.events_seen} "
            f"violations={len(self.violations)}>"
        )
