"""Passive per-segment failure detection for the repair control plane.

The paper never polls storage nodes with a dedicated heartbeat: "quorums
help to mitigate the performance variability of individual disks and
nodes", and membership changes begin when a segment *"is suspected to have
failed"* from the signals the system already produces.  The monitor infers
health the same way, from three passive streams:

- **acknowledgement staleness** -- the writer's driver reports every
  :class:`~repro.storage.messages.WriteAck` (and every read reply and
  rejection: a rejection is stale-epoch evidence, but it proves the
  segment alive);
- **gossip evidence** -- peer storage nodes report both replies (alive)
  and unanswered gossip RPCs (timeouts);
- **hedged-read escalations** -- a segment the read router repeatedly
  hedges away from is grey: alive but slow.

Silence is judged *relative to the freshest liveness signal in the same
protection group*, not against wall-clock: when the writer crashes (or the
whole fleet partitions), every segment goes quiet together, the PG's
freshness frontier stops advancing, and nobody is suspected -- mass
silence is indistinguishable from observer failure and must not trigger
churn.  A segment is only suspected when it is silent *while its peers are
heard from*.

The state machine per segment is ``HEALTHY -> SUSPECT -> DEAD`` with
hysteresis in both directions:

- HEALTHY -> SUSPECT on relative silence beyond the segment's *adaptive*
  silence threshold, or on a burst of hedges/gossip timeouts (grey
  failure);
- SUSPECT -> HEALTHY on a liveness signal once the burst evidence has
  subsided (a single ack does not refute a live hedge/timeout burst --
  recovering on every ack while the burst persists is exactly the flap
  storm this monitor used to produce);
- SUSPECT -> DEAD only after the confirmation window of *continued* ack
  silence -- a grey segment that keeps acknowledging writes can live in
  SUSPECT forever without ever being confirmed dead;
- DEAD -> HEALTHY when the segment is heard from again (the false-positive
  path Figure 5 is designed to survive).  Each false positive doubles that
  segment's future confirmation timeout (capped), so a flapping segment
  stops causing repair churn -- the configurable backoff the issue asks
  for.

**Adaptive cadence.**  Fixed silence constants assume traffic density the
workload does not promise: under sparse keepalive traffic a segment that
is acked every 600 ms is 450 ms "silent" relative to its freshest peer for
most of every cycle, and a fixed 150 ms threshold turns that into hundreds
of suspect/recover transitions per run.  The monitor therefore keeps an
EWMA of observed inter-signal gaps -- per segment, and per protection
group -- and derives each segment's suspect threshold and confirmation
window from the cadence it has actually seen (``cadence_multiplier`` /
``confirm_multiplier`` times the EWMA, clamped between the configured
floor and ceiling).  The PG-wide EWMA tracks the *aggregate* signal
rate, so it is scaled by the member count before use: a PG heard from
every 100 ms through six members implies each member speaks about every
600 ms, and that per-member expectation -- not the aggregate rate -- is
what a segment's silence must be judged against.  Dense gossip keeps the thresholds at their floors
(detection stays fast); sparse traffic stretches them automatically.  A
protection group whose *entire* signal stream has gone quiet (workload
idle, every peer silent together) suspends silence judgement outright:
the PG frontier is stale, so accrued relative silence is evidence about
the observer, not the segment.

The monitor is part of the repair control plane, like the storage metadata
service: deliberately not on any data path, and correctness never depends
on it (a wrong verdict only triggers a reversible membership change).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import EventLoop
    from repro.storage.metadata import StorageMetadataService


class SegmentHealth(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class HealthConfig:
    """Detection knobs (times in simulated ms).

    Defaults are tuned against the chaos sweep: transient faults (the
    chaos generator bounds event durations at ~350 ms) mostly come back
    inside ``suspect_silence_ms + confirm_after_ms``, so only genuinely
    extended outages graduate to DEAD and trigger a repair.
    """

    #: Monitor sweep interval.  Fixed (never jittered): the monitor draws
    #: nothing from the shared simulation RNG, so arming it does not
    #: perturb seeded schedules.
    tick_interval_ms: float = 25.0
    #: Floor of the relative-silence threshold: with dense traffic the
    #: adaptive threshold sits exactly here, preserving fast detection.
    suspect_silence_ms: float = 150.0
    #: Floor of the continued-silence confirmation window.
    confirm_after_ms: float = 450.0
    #: Hedge/timeout burst window and thresholds for grey suspicion.
    burst_window_ms: float = 250.0
    hedge_suspect_count: int = 4
    timeout_suspect_count: int = 3
    #: Per-segment confirmation backoff after a false positive.
    false_positive_backoff: float = 2.0
    max_confirm_ms: float = 8_000.0
    #: Adaptive cadence: derive per-segment thresholds from an EWMA of
    #: observed inter-signal gaps instead of trusting the fixed floors.
    #: Disable to reproduce the legacy fixed-constant monitor.
    adaptive: bool = True
    #: EWMA weight of the newest observed gap.
    cadence_alpha: float = 0.25
    #: Suspect threshold = clamp(multiplier x EWMA gap, floor, ceiling).
    cadence_multiplier: float = 4.0
    max_suspect_silence_ms: float = 2_000.0
    #: Confirmation window = clamp(multiplier x EWMA gap, confirm floor,
    #: max_confirm_ms); sparse evidence demands a longer confirmation.
    confirm_multiplier: float = 6.0
    #: A PG whose freshest signal is older than this multiple of its own
    #: cadence is idle as a whole: silence judgement is suspended.
    pg_idle_multiplier: float = 3.0


@dataclass
class _SegmentState:
    state: SegmentHealth = SegmentHealth.HEALTHY
    pg_index: int = -1
    suspect_since: float = 0.0
    #: Base confirmation timeout (grows on false positives).
    confirm_ms: float = 0.0
    #: EWMA of this segment's observed inter-signal gaps (None until the
    #: second signal; the thresholds then sit at their floors).
    gap_ewma_ms: float | None = None
    hedges: deque = field(default_factory=deque)
    timeouts: deque = field(default_factory=deque)


class HealthMonitor:
    """Aggregates passive liveness signals into per-segment verdicts.

    Signal producers hold this as a ``health_probe`` attribute (same
    pattern as the auditor's ``audit_probe``); consumers subscribe to
    :attr:`on_confirmed_dead` / :attr:`on_recovered`.
    """

    def __init__(
        self,
        loop: "EventLoop",
        metadata: "StorageMetadataService",
        config: HealthConfig | None = None,
    ) -> None:
        self.loop = loop
        self.metadata = metadata
        self.config = config if config is not None else HealthConfig()
        #: Fired with ``(segment_id, last_alive_at, confirmed_at)`` when a
        #: suspect is confirmed dead.
        self.on_confirmed_dead: list[Callable[[str, float, float], None]] = []
        #: Fired with ``(segment_id,)`` when a DEAD segment is heard from
        #: again (false positive; the planner rolls back).
        self.on_recovered: list[Callable[[str], None]] = []
        self.events: list[tuple[float, str, str]] = []
        self.counters = {
            "suspected": 0,
            "confirmed_dead": 0,
            "false_positives": 0,
            "recovered_suspects": 0,
        }
        self._last_alive: dict[str, float] = {}
        self._states: dict[str, _SegmentState] = {}
        #: Segments torn down for good (a dismantled region's nodes).
        #: Metadata may still list them -- nobody is left to run the
        #: membership change -- but the sweep must neither re-track nor
        #: judge them, or every tick confirms a fresh ghost suspect.
        self._retired: set[str] = set()
        #: Per-PG signal cadence: pg_index -> [last_signal_at, gap EWMA].
        self._pg_cadence: dict[int, list] = {}
        #: Current member count per PG (scales the aggregate PG cadence
        #: into a per-member expectation).
        self._pg_size: dict[int, int] = {}
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.loop.schedule(self.config.tick_interval_ms, self._tick)

    def stop(self) -> None:
        self._running = False

    def retire(self, segment_id: str) -> None:
        """Permanently stop tracking ``segment_id`` (teardown, not death).

        Unlike silent removal from ``_states``, retirement survives the
        sweep's membership re-scan: a retired segment is never re-added
        even while metadata still lists it, and late liveness signals
        from it are ignored rather than resurrecting tracking.
        """
        self._retired.add(segment_id)
        self._states.pop(segment_id, None)
        self._last_alive.pop(segment_id, None)

    def is_retired(self, segment_id: str) -> bool:
        return segment_id in self._retired

    def state_of(self, segment_id: str) -> SegmentHealth:
        entry = self._states.get(segment_id)
        return entry.state if entry is not None else SegmentHealth.HEALTHY

    def last_alive(self, segment_id: str) -> float | None:
        return self._last_alive.get(segment_id)

    def freshest_signal(self) -> float | None:
        """Timestamp of the newest liveness signal across *all* tracked
        segments.  The database-tier monitor uses this as a reference
        frontier: storage gossip keeps flowing even when the writer is
        down, so a fresh storage frontier proves the observer itself is
        alive and that database-tier silence is evidence."""
        return max(self._last_alive.values(), default=None)

    # ------------------------------------------------------------------
    # Signal intake (producers: driver acks/reads, node gossip)
    # ------------------------------------------------------------------
    def note_ack(self, segment_id: str) -> None:
        self._alive(segment_id)

    def note_alive(self, segment_id: str) -> None:
        self._alive(segment_id)

    def note_rejection(self, segment_id: str) -> None:
        # Stale-epoch evidence, but the segment answered: it is alive.
        self._alive(segment_id)

    def note_peer_alive(self, segment_id: str) -> None:
        self._alive(segment_id)

    def note_hedge(self, segment_id: str) -> None:
        entry = self._states.get(segment_id)
        if entry is not None:
            # Prune on intake, not only on tick: long runs must not
            # accumulate unbounded signal history between sweeps.
            self._prune(entry.hedges, self.loop.now)
            entry.hedges.append(self.loop.now)

    def note_peer_timeout(self, segment_id: str) -> None:
        entry = self._states.get(segment_id)
        if entry is not None:
            self._prune(entry.timeouts, self.loop.now)
            entry.timeouts.append(self.loop.now)

    def _alive(self, segment_id: str) -> None:
        entry = self._states.get(segment_id)
        if entry is None:
            # Not (or no longer) tracked -- a replaced member still
            # gossiping, a retired node, a member the sweep has not met
            # yet: not evidence.  Last-heard entries exist for tracked
            # segments only, so ``freshest_signal`` cannot be advanced by
            # a segment nobody judges.
            return
        now = self.loop.now
        last = self._last_alive[segment_id]
        self._last_alive[segment_id] = now
        self._observe_cadence(entry, last, now)
        if entry.state is SegmentHealth.SUSPECT:
            # A liveness signal only refutes *silence*.  While a hedge or
            # gossip-timeout burst is still live, recovering here would
            # let the next sweep re-suspect instantly -- one flap per ack
            # for as long as the segment stays grey.
            if (
                self._prune(entry.hedges, now)
                < self.config.hedge_suspect_count
                and self._prune(entry.timeouts, now)
                < self.config.timeout_suspect_count
            ):
                entry.state = SegmentHealth.HEALTHY
                self.counters["recovered_suspects"] += 1
                self._log("suspect-recovered", segment_id)
        elif entry.state is SegmentHealth.DEAD:
            entry.state = SegmentHealth.HEALTHY
            self.counters["false_positives"] += 1
            # Cried wolf: require longer confirmation next time.
            entry.confirm_ms = min(
                entry.confirm_ms * self.config.false_positive_backoff,
                self.config.max_confirm_ms,
            )
            self._log("false-positive-return", segment_id)
            for callback in list(self.on_recovered):
                callback(segment_id)

    # ------------------------------------------------------------------
    # Adaptive cadence (EWMA of observed inter-signal gaps)
    # ------------------------------------------------------------------
    def _observe_cadence(
        self, entry: _SegmentState, last: float | None, now: float
    ) -> None:
        cfg = self.config
        if not cfg.adaptive:
            return
        alpha = cfg.cadence_alpha
        if last is not None:
            gap = now - last
            entry.gap_ewma_ms = (
                gap
                if entry.gap_ewma_ms is None
                else alpha * gap + (1.0 - alpha) * entry.gap_ewma_ms
            )
        cadence = self._pg_cadence.get(entry.pg_index)
        if cadence is None:
            self._pg_cadence[entry.pg_index] = [now, None]
            return
        pg_gap = now - cadence[0]
        cadence[0] = now
        cadence[1] = (
            pg_gap
            if cadence[1] is None
            else alpha * pg_gap + (1.0 - alpha) * cadence[1]
        )

    def _cadence_ms(self, entry: _SegmentState) -> float | None:
        """Slowest of the segment's own cadence and the PG's per-member
        cadence (aggregate PG gap x member count: with signals spread
        round-robin, each member speaks once per full rotation)."""
        pg = self._pg_cadence.get(entry.pg_index)
        per_member = None
        if pg is not None and pg[1] is not None:
            per_member = pg[1] * max(1, self._pg_size.get(entry.pg_index, 1))
        gaps = [
            g for g in (entry.gap_ewma_ms, per_member) if g is not None
        ]
        return max(gaps) if gaps else None

    def suspect_threshold_ms(self, segment_id: str) -> float:
        """The relative-silence threshold currently applied to a segment."""
        cfg = self.config
        entry = self._states.get(segment_id)
        if entry is None or not cfg.adaptive:
            return cfg.suspect_silence_ms
        cadence = self._cadence_ms(entry)
        if cadence is None:
            return cfg.suspect_silence_ms
        return min(
            max(cfg.suspect_silence_ms, cfg.cadence_multiplier * cadence),
            cfg.max_suspect_silence_ms,
        )

    def confirm_window_ms(self, segment_id: str) -> float:
        """The confirmation window currently applied to a SUSPECT segment
        (false-positive backoff raises the base; sparse cadence stretches
        it further)."""
        cfg = self.config
        entry = self._states.get(segment_id)
        if entry is None:
            return cfg.confirm_after_ms
        base = entry.confirm_ms or cfg.confirm_after_ms
        if not cfg.adaptive:
            return base
        cadence = self._cadence_ms(entry)
        if cadence is None:
            return base
        return min(
            max(base, cfg.confirm_multiplier * cadence), cfg.max_confirm_ms
        )

    def _pg_active(self, pg_index: int, freshest: float, now: float) -> bool:
        """False when the whole PG's signal stream has gone quiet: the
        frontier is stale, so relative silence says nothing about any one
        member (workload idle, observer partitioned, writer down)."""
        cfg = self.config
        if not cfg.adaptive:
            return True
        cadence = self._pg_cadence.get(pg_index)
        ewma = cadence[1] if cadence and cadence[1] is not None else None
        grace = (
            cfg.suspect_silence_ms
            if ewma is None
            else min(
                max(cfg.suspect_silence_ms, cfg.pg_idle_multiplier * ewma),
                cfg.max_suspect_silence_ms,
            )
        )
        return now - freshest <= grace

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._running:
            return
        now = self.loop.now
        cfg = self.config
        for pg_index in self.metadata.pg_indexes():
            members = self.metadata.membership(pg_index).members
            if self._retired:
                members = frozenset(m for m in members if m not in self._retired)
            if not members:
                continue
            self._track_membership(pg_index, members, now)
            freshest = max(self._last_alive[m] for m in members)
            pg_active = self._pg_active(pg_index, freshest, now)
            # In name order, not the frozenset's: two members confirmed
            # dead in one tick queue their repairs in the order judged, and
            # string-hash order differs from process to process.
            for segment_id in sorted(members):
                self._judge(segment_id, freshest, now, pg_active)
        self.loop.schedule(cfg.tick_interval_ms, self._tick)

    def _track_membership(
        self, pg_index: int, members: frozenset, now: float
    ) -> None:
        self._pg_size[pg_index] = len(members)
        for segment_id in members:
            if segment_id not in self._states:
                # Grace period: a newly tracked member (bootstrap, or a
                # candidate mid-hydration) starts provisionally alive.
                self._last_alive[segment_id] = now
                entry = _SegmentState(
                    pg_index=pg_index,
                    confirm_ms=self.config.confirm_after_ms,
                )
                self._states[segment_id] = entry
        for segment_id in [
            s
            for s, _e in self._states.items()
            if s not in members
            and self.metadata.placement(s).pg_index == pg_index
        ]:
            # Replaced (or rolled-back candidate): stop judging it, and
            # forget when it was last heard along with its state.
            del self._states[segment_id]
            del self._last_alive[segment_id]

    def _prune(self, times: deque, now: float) -> int:
        horizon = now - self.config.burst_window_ms
        while times and times[0] < horizon:
            times.popleft()
        return len(times)

    def _judge(
        self, segment_id: str, freshest: float, now: float, pg_active: bool
    ) -> None:
        cfg = self.config
        entry = self._states[segment_id]
        silence = freshest - self._last_alive[segment_id]
        threshold = self.suspect_threshold_ms(segment_id)
        hedges = self._prune(entry.hedges, now)
        timeouts = self._prune(entry.timeouts, now)
        if entry.state is SegmentHealth.HEALTHY:
            if (
                (pg_active and silence > threshold)
                or hedges >= cfg.hedge_suspect_count
                or timeouts >= cfg.timeout_suspect_count
            ):
                entry.state = SegmentHealth.SUSPECT
                entry.suspect_since = now
                self.counters["suspected"] += 1
                self._log("suspected", segment_id)
        elif entry.state is SegmentHealth.SUSPECT:
            if (
                silence <= threshold
                and hedges < cfg.hedge_suspect_count
                and timeouts < cfg.timeout_suspect_count
            ):
                # Grey burst subsided while acks kept flowing.
                entry.state = SegmentHealth.HEALTHY
                self.counters["recovered_suspects"] += 1
                self._log("suspect-decayed", segment_id)
            elif (
                pg_active
                and silence > threshold
                and now - entry.suspect_since
                >= self.confirm_window_ms(segment_id)
            ):
                # Confirmation always requires *ack* silence while peers
                # are being heard: a slow but acknowledging segment never
                # graduates past SUSPECT, and a quiet PG confirms nobody.
                entry.state = SegmentHealth.DEAD
                self.counters["confirmed_dead"] += 1
                self._log("confirmed-dead", segment_id)
                failed_at = self._last_alive[segment_id]
                for callback in list(self.on_confirmed_dead):
                    callback(segment_id, failed_at, now)
        # DEAD: stays dead until a liveness signal revives it (_alive).

    def _log(self, event: str, segment_id: str) -> None:
        self.events.append((self.loop.now, event, segment_id))
