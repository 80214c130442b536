"""Passive failure detection for every tier of the control plane.

The paper never polls anything with a dedicated heartbeat: "quorums help to
mitigate the performance variability of individual disks and nodes", and a
membership change begins when a segment *"is suspected to have failed"*
from the signals the system already produces.  One
:class:`FailureDetector` turns such signals into verdicts for every tier
that needs them -- storage segments, database instances, the primary
region -- and the tiers are rows (:class:`Tier`, docs/REPAIR.md "Failure
detection"): who the subjects are, how they group, where the signals come
from and who acts on a verdict is wiring; the only numbers they differ on
are the two floors.  The signals:

- **heard** (:meth:`FailureDetector.heard`) -- anything that proves a
  subject alive.  Storage: the writer's driver reports every write ack,
  read reply and rejection (a rejection is stale-epoch evidence, but it
  proves the segment alive) and peer nodes report gossip replies and
  queries.  Database: storage nodes report the sending instance of every
  write batch and of every GC-floor advertisement (writer *and* replicas
  advertise their PGMRPL on a fixed interval, a steady passive heartbeat
  even when the workload is idle), and replicas report the writer of every
  redo chunk, VDL heartbeat and commit notice.  Region: the WAN stream the
  secondary's applier observes.
- **bursts** (:meth:`FailureDetector.burst`) -- evidence that a subject is
  grey, alive but slow: a read hedged away from it, a gossip RPC it left
  unanswered.

Silence is judged *relative to the freshest liveness signal in the same
group* (a protection group's members; the database tier is one group), not
against wall-clock: when the writer crashes (or the whole fleet
partitions), every segment goes quiet together, the group's freshness
frontier stops advancing, and nobody is suspected -- mass silence is
indistinguishable from observer failure and must not trigger churn.  A
subject is only suspected when it is silent *while its peers are heard
from*.  A tier whose group can fall silent as a whole for a real reason --
the writer is most of the database tier's traffic, and all of the region
tier's -- is given a **reference frontier**: the freshest signal of a tier
whose traffic does not depend on the subject (storage gossip keeps flowing
when the writer dies).  A fresh reference proves the observer alive, so
silence against it is evidence about the subject; when both tiers go quiet
together (full partition, observer failure) judgement is suspended.

The state machine per subject is ``HEALTHY -> SUSPECT -> DEAD`` with
hysteresis in both directions:

- HEALTHY -> SUSPECT on relative silence beyond the subject's *adaptive*
  silence threshold, or on a burst of hedges/gossip timeouts (grey
  failure);
- SUSPECT -> HEALTHY on a liveness signal once the burst evidence has
  subsided (a single ack does not refute a live hedge/timeout burst --
  recovering on every ack while the burst persists is exactly the flap
  storm this detector used to produce);
- SUSPECT -> DEAD only after the confirmation window of *continued*
  silence -- a grey subject that keeps being heard from (a slow segment's
  acks, a slow writer's delayed GC-floor ticks) can live in SUSPECT
  forever without ever being confirmed dead;
- DEAD -> HEALTHY when the subject is heard from again (the false-positive
  path Figure 5 is designed to survive).  Each false positive doubles that
  subject's future confirmation timeout (capped), so a flapping subject
  stops causing repair churn.

**Adaptive cadence.**  Fixed silence constants assume traffic density the
workload does not promise: under sparse keepalive traffic a segment that
is acked every 600 ms is 450 ms "silent" relative to its freshest peer for
most of every cycle, and a fixed 150 ms threshold turns that into hundreds
of suspect/recover transitions per run.  The detector therefore keeps an
EWMA of observed inter-signal gaps -- per subject, and per group -- and
derives each subject's suspect threshold and confirmation window from the
cadence it has actually seen (a multiple of the EWMA, clamped between the
tier's floor and a ceiling).  The group EWMA tracks the *aggregate* signal
rate, so it is scaled by the member count before use: a PG heard from
every 100 ms through six members implies each member speaks about every
600 ms, and that per-member expectation -- not the aggregate rate -- is
what a subject's silence must be judged against.  Dense gossip keeps the
thresholds at their floors (detection stays fast); sparse traffic
stretches them automatically.  A group whose *entire* signal stream has
gone quiet (workload idle, every peer silent together) suspends silence
judgement outright: the frontier is stale, so accrued relative silence is
evidence about the observer, not the subject.

A detector is part of the repair control plane, like the storage metadata
service: deliberately not on any data path, and correctness never depends
on it (a wrong verdict only triggers a reversible membership change, or a
promotion the epoch fence makes safe).  It draws nothing from the shared
simulation RNG and sweeps on a fixed interval, so arming it perturbs no
seeded schedule.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.core.read_routing import ewma

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import EventLoop
    from repro.storage.metadata import StorageMetadataService


class Health(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass(frozen=True)
class Tier:
    """What a control-plane tier's detector is tuned to (simulated ms).

    The storage floors are tuned against the chaos sweep: transient faults
    (the chaos generator bounds event durations at ~350 ms) mostly come
    back inside ``suspect_floor_ms + confirm_floor_ms``, so only genuinely
    extended outages graduate to DEAD and trigger a repair.  The database
    floors are tuned to the GC-floor advertisement interval (50 ms): a live
    writer is heard from by some storage node every tick, so even a fully
    idle workload gives the detector a dense signal stream and the
    adaptive thresholds sit at their floors.
    """

    name: str
    #: Floor of the relative-silence threshold: with dense traffic the
    #: adaptive threshold sits exactly here, preserving fast detection.
    suspect_floor_ms: float
    #: Floor of the continued-silence confirmation window.
    confirm_floor_ms: float


STORAGE = Tier("storage", suspect_floor_ms=150.0, confirm_floor_ms=450.0)
#: Database instances, and the primary region as the secondary sees it.
DB = Tier("db", suspect_floor_ms=250.0, confirm_floor_ms=600.0)

#: Sweep interval.  Fixed (never jittered): a detector draws nothing from
#: the shared simulation RNG, so arming it does not perturb seeded
#: schedules.
TICK_INTERVAL_MS = 25.0
#: Burst window and per-kind thresholds for grey suspicion.
BURST_WINDOW_MS = 250.0
BURST_SUSPECT_COUNT = {"hedge": 4, "timeout": 3}
#: Per-subject confirmation backoff after a false positive, and its cap
#: (also the ceiling of the adaptive confirmation window).
FALSE_POSITIVE_BACKOFF = 2.0
MAX_CONFIRM_MS = 8_000.0
#: EWMA weight of the newest observed gap.
CADENCE_ALPHA = 0.25
#: Suspect threshold = clamp(multiplier x EWMA gap, floor, ceiling).
CADENCE_MULTIPLIER = 4.0
MAX_SUSPECT_SILENCE_MS = 2_000.0
#: Confirmation window = clamp(multiplier x EWMA gap, confirm floor,
#: MAX_CONFIRM_MS); sparse evidence demands a longer confirmation.
CONFIRM_MULTIPLIER = 6.0
#: A group whose freshest signal -- the reference frontier included -- is
#: older than this multiple of its own cadence is idle as a whole: silence
#: judgement is suspended.
IDLE_MULTIPLIER = 3.0


#: A membership provider: the groups to judge, as ``(key, members)``.
Groups = Callable[[], Iterable[tuple[Hashable, frozenset]]]


def pg_groups(metadata: "StorageMetadataService") -> Groups:
    """The storage tier's groups: every PG's current members, candidates
    in flight included, re-read from ``metadata`` at each sweep."""

    def groups():
        for pg_index in metadata.pg_indexes():
            yield pg_index, metadata.membership(pg_index).members

    return groups


@dataclass
class _Group:
    members: set = field(default_factory=set)
    #: Aggregate cadence: the last signal from any member, and the EWMA of
    #: the gaps between them (None until the second signal).
    last_signal_at: float | None = None
    gap_ewma_ms: float | None = None


@dataclass
class _State:
    group: _Group
    last_heard: float
    #: Base confirmation timeout (grows on false positives).
    confirm_ms: float
    state: Health = Health.HEALTHY
    suspect_since: float = 0.0
    #: EWMA of this subject's observed inter-signal gaps (None until it
    #: is first heard; the thresholds then sit at their floors).
    gap_ewma_ms: float | None = None
    #: Burst kind -> times of the signals still inside the window.
    bursts: dict[str, deque] = field(default_factory=dict)


class FailureDetector:
    """Aggregates passive liveness signals into per-subject verdicts.

    Signal producers hold a detector as a probe attribute (``health_probe``,
    ``db_health_probe``; same pattern as the auditor's ``audit_probe``) and
    report the ids they hear from; consumers subscribe to
    :attr:`on_confirmed_dead` / :attr:`on_recovered`.  Only tracked
    subjects are judged, and a signal about anything else is ignored -- so
    a freshly fenced writer's late traffic, a replaced segment still
    gossiping or a dismantled node cannot re-enter the tracked set or move
    :meth:`freshest_signal`.  Subjects are tracked either by the sweep,
    which follows ``membership`` when one is given (:func:`pg_groups`), or
    explicitly through :meth:`track` / :meth:`untrack`.
    """

    def __init__(
        self,
        loop: "EventLoop",
        tier: Tier,
        membership: Groups | None = None,
        reference_frontier: Callable[[], float | None] | None = None,
    ) -> None:
        self.loop = loop
        self.tier = tier
        self.membership = membership
        #: Proof-of-observer-liveness hook (another tier's
        #: :meth:`freshest_signal`); None judges against the group alone.
        self.reference_frontier = reference_frontier
        #: Fired with ``(subject, last_heard_at, confirmed_at)`` when a
        #: suspect is confirmed dead.
        self.on_confirmed_dead: list[Callable[[str, float, float], None]] = []
        #: Fired with ``(subject,)`` when a DEAD subject is heard from
        #: again (false positive; the acting half rolls back).
        self.on_recovered: list[Callable[[str], None]] = []
        self.events: list[tuple[float, str, str]] = []
        self.counters = {
            "suspected": 0,
            "confirmed_dead": 0,
            "false_positives": 0,
            "recovered_suspects": 0,
        }
        self._states: dict[str, _State] = {}
        self._groups: dict[Hashable, _Group] = {}
        #: Subjects torn down for good (a dismantled region's nodes).
        #: ``membership`` may still list them -- nobody is left to run the
        #: membership change -- but the sweep must neither re-track nor
        #: judge them, or every tick confirms a fresh ghost suspect.
        self._retired: set[str] = set()
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle and tracking
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.loop.schedule(TICK_INTERVAL_MS, self._tick)

    def stop(self) -> None:
        self._running = False

    def track(self, subject: str, group: Hashable = None) -> None:
        """Start judging ``subject`` as a member of ``group``.  Grace
        period: a newly tracked subject (bootstrap, a candidate
        mid-hydration, a replica just attached) starts provisionally
        alive now.  No-op for a subject already tracked."""
        if subject in self._states:
            return
        entry = _State(
            group=self._groups.setdefault(group, _Group()),
            last_heard=self.loop.now,
            confirm_ms=self.tier.confirm_floor_ms,
        )
        entry.group.members.add(subject)
        self._states[subject] = entry

    def untrack(self, subject: str) -> None:
        """Stop judging ``subject`` (replaced, rolled back, deregistered)
        and forget when it was last heard along with its state."""
        entry = self._states.pop(subject, None)
        if entry is not None:
            entry.group.members.discard(subject)

    def retire(self, subject: str) -> None:
        """Permanently stop tracking ``subject`` (teardown, not death).

        Unlike :meth:`untrack`, retirement survives the sweep's membership
        re-scan: a retired subject is never re-added even while
        ``membership`` still lists it.
        """
        self._retired.add(subject)
        self.untrack(subject)

    def tracked(self) -> list[str]:
        return sorted(self._states)

    def state_of(self, subject: str) -> Health:
        entry = self._states.get(subject)
        return entry.state if entry is not None else Health.HEALTHY

    def last_heard(self, subject: str) -> float | None:
        entry = self._states.get(subject)
        return entry.last_heard if entry is not None else None

    def freshest_signal(self) -> float | None:
        """Timestamp of the newest liveness signal across *all* tracked
        subjects: what a tier above wires as its ``reference_frontier``."""
        return max(
            (entry.last_heard for entry in self._states.values()),
            default=None,
        )

    # ------------------------------------------------------------------
    # Signal intake
    # ------------------------------------------------------------------
    def heard(self, subject: str) -> None:
        """Any passive evidence that ``subject`` is alive."""
        entry = self._states.get(subject)
        if entry is None:
            return  # untracked: not evidence
        now = self.loop.now
        # The cadence observation: the subject's own gap, then the
        # group's aggregate one.
        entry.gap_ewma_ms = ewma(
            entry.gap_ewma_ms, now - entry.last_heard, CADENCE_ALPHA
        )
        entry.last_heard = now
        group = entry.group
        if group.last_signal_at is not None:
            group.gap_ewma_ms = ewma(
                group.gap_ewma_ms, now - group.last_signal_at, CADENCE_ALPHA
            )
        group.last_signal_at = now
        if entry.state is Health.SUSPECT:
            # A liveness signal only refutes *silence*.  While a hedge or
            # gossip-timeout burst is still live, recovering here would
            # let the next sweep re-suspect instantly -- one flap per ack
            # for as long as the subject stays grey.
            if not self._burst_live(entry, now):
                entry.state = Health.HEALTHY
                self.counters["recovered_suspects"] += 1
                self._log("suspect-recovered", subject)
        elif entry.state is Health.DEAD:
            entry.state = Health.HEALTHY
            self.counters["false_positives"] += 1
            # Cried wolf: require longer confirmation next time.
            entry.confirm_ms = min(
                entry.confirm_ms * FALSE_POSITIVE_BACKOFF, MAX_CONFIRM_MS
            )
            self._log("false-positive-return", subject)
            for callback in list(self.on_recovered):
                callback(subject)

    def burst(self, subject: str, kind: str) -> None:
        """One more ``kind`` of grey evidence against ``subject`` (a key of
        :data:`BURST_SUSPECT_COUNT`)."""
        entry = self._states.get(subject)
        if entry is None:
            return
        times = entry.bursts.setdefault(kind, deque())
        # Prune on intake, not only on tick: long runs must not
        # accumulate unbounded signal history between sweeps.
        now = self.loop.now
        self._prune(times, now)
        times.append(now)

    @staticmethod
    def _prune(times: deque, now: float) -> int:
        horizon = now - BURST_WINDOW_MS
        while times and times[0] < horizon:
            times.popleft()
        return len(times)

    def _burst_live(self, entry: _State, now: float) -> bool:
        for kind, times in entry.bursts.items():
            if self._prune(times, now) >= BURST_SUSPECT_COUNT[kind]:
                return True
        return False

    # ------------------------------------------------------------------
    # Adaptive windows
    # ------------------------------------------------------------------
    @staticmethod
    def _cadence_ms(entry: _State) -> float | None:
        """Slowest of the subject's own cadence and the group's per-member
        cadence (aggregate group gap x member count: with signals spread
        round-robin, each member speaks once per full rotation)."""
        cadence = entry.gap_ewma_ms
        group = entry.group
        if group.gap_ewma_ms is not None:
            per_member = group.gap_ewma_ms * max(1, len(group.members))
            if cadence is None or per_member > cadence:
                cadence = per_member
        return cadence

    def suspect_threshold_ms(self, subject: str) -> float:
        """The relative-silence threshold currently applied to a subject."""
        floor = self.tier.suspect_floor_ms
        entry = self._states.get(subject)
        cadence = self._cadence_ms(entry) if entry is not None else None
        if cadence is None:
            return floor
        return min(
            max(floor, CADENCE_MULTIPLIER * cadence), MAX_SUSPECT_SILENCE_MS
        )

    def confirm_window_ms(self, subject: str) -> float:
        """The confirmation window currently applied to a SUSPECT subject
        (false-positive backoff raises the base; sparse cadence stretches
        it further)."""
        entry = self._states.get(subject)
        if entry is None:
            return self.tier.confirm_floor_ms
        cadence = self._cadence_ms(entry)
        if cadence is None:
            return entry.confirm_ms
        return min(
            max(entry.confirm_ms, CONFIRM_MULTIPLIER * cadence),
            MAX_CONFIRM_MS,
        )

    def _group_active(
        self, group: _Group, frontier: float, now: float
    ) -> bool:
        """False when the whole group's signal stream has gone quiet: the
        frontier is stale, so relative silence says nothing about any one
        member (workload idle, observer partitioned, writer down)."""
        floor = self.tier.suspect_floor_ms
        grace = (
            floor
            if group.gap_ewma_ms is None
            else min(
                max(floor, IDLE_MULTIPLIER * group.gap_ewma_ms),
                MAX_SUSPECT_SILENCE_MS,
            )
        )
        return now - frontier <= grace

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._running:
            return
        now = self.loop.now
        if self.membership is not None:
            for key, members in self.membership():
                self._follow(key, members)
        reference = (
            self.reference_frontier()
            if self.reference_frontier is not None
            else None
        )
        states = self._states
        for group in list(self._groups.values()):
            if not group.members:
                continue
            # Freshest liveness evidence the observer holds about this
            # group, advanced by the reference frontier when one is wired.
            frontier = max(states[m].last_heard for m in group.members)
            if reference is not None and reference > frontier:
                frontier = reference
            active = self._group_active(group, frontier, now)
            # In name order, not the set's: two members confirmed dead in
            # one tick queue their repairs in the order judged, and
            # string-hash order differs from process to process.
            for subject in sorted(group.members):
                self._judge(subject, frontier, now, active)
        self.loop.schedule(TICK_INTERVAL_MS, self._tick)

    def _follow(self, key: Hashable, members: frozenset) -> None:
        """Track what ``membership`` lists for one group and nothing else."""
        if self._retired:
            members = members - self._retired
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
        if members == group.members:
            return
        for subject in members - group.members:
            self.track(subject, key)
        for subject in group.members - members:
            self.untrack(subject)

    def _judge(
        self, subject: str, frontier: float, now: float, active: bool
    ) -> None:
        entry = self._states[subject]
        if entry.state is Health.DEAD:
            return  # stays dead until a liveness signal revives it (heard)
        silent = (
            frontier - entry.last_heard > self.suspect_threshold_ms(subject)
        )
        grey = self._burst_live(entry, now)
        if entry.state is Health.HEALTHY:
            if (active and silent) or grey:
                entry.state = Health.SUSPECT
                entry.suspect_since = now
                self.counters["suspected"] += 1
                self._log("suspected", subject)
        elif not silent and not grey:
            # SUSPECT, and the grey burst subsided while acks kept flowing.
            entry.state = Health.HEALTHY
            self.counters["recovered_suspects"] += 1
            self._log("suspect-decayed", subject)
        elif (
            active
            and silent
            and now - entry.suspect_since >= self.confirm_window_ms(subject)
        ):
            # Confirmation always requires *silence* while peers (or the
            # reference tier) are being heard: a slow but acknowledging
            # subject never graduates past SUSPECT, and a quiet group
            # confirms nobody.
            entry.state = Health.DEAD
            self.counters["confirmed_dead"] += 1
            self._log("confirmed-dead", subject)
            for callback in list(self.on_confirmed_dead):
                callback(subject, entry.last_heard, now)

    def _log(self, event: str, subject: str) -> None:
        self.events.append((self.loop.now, event, subject))
