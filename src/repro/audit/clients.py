"""The audit clients: what a profile drives its world with.

Each client issues its seeded workload and records what it submitted,
was told and read into a :class:`~repro.history.History`; it judges
nothing.  The run's one checker (:func:`repro.history.check`) holds every
read to section 3.3's "no committed write lost", observed from the
client's chair.  A client also owns the chaos callbacks that must know
who the writer (or the primary region) currently is.
"""

from __future__ import annotations

import random

from repro.db.instance import InstanceState
from repro.errors import ReproError, SimulationError
from repro.history import History
from repro.repair.metrics import ACTIVE, ROLLED_BACK

#: The keyed clients' key space: ``k000`` .. ``k023``.
KEYS = 24
#: Simulated ms allowed per client operation before it is counted as an
#: availability error (chaos makes timeouts normal, not fatal).
OP_TIMEOUT_MS = 2500.0


def spin_until(
    world, done, spins=4000, step_ms=25.0, keepalive=None, every=40
) -> bool:
    """Advance ``world`` in ``step_ms`` slices until ``done()`` holds, for
    at most ``spins`` slices; ``keepalive(spin)`` runs every ``every``
    slices so liveness signals keep flowing (segments only ack when there
    is traffic).  False if the slices ran out first."""
    for spin in range(spins):
        if done():
            return True
        world.run_for(step_ms)
        if keepalive is not None and spin % every == 0:
            keepalive(spin)
    return False


def kill_writer(cluster) -> bool:
    """Hard-kill the writer host -- crash the instance and take its link
    down, with no scheduled restore: bringing a writer back is the
    failover coordinator's job.  False (and nothing done) mid-failover,
    so kills never stack."""
    writer = cluster.writer
    if (
        writer is None
        or cluster.failover_in_progress
        or writer.state is not InstanceState.OPEN
    ):
        return False
    cluster.crash_writer()
    return True


class _ClientModel:
    """What every keyed client shares: the seeded key choice, the
    availability-error count (chaos makes timeouts normal, not fatal), and
    the history of what it submitted, was told and read."""

    def __init__(self, run) -> None:
        self.cfg = run.cfg
        self.rng = random.Random(run.cfg.seed * 7919 + 13)
        self.availability_errors = 0
        self.recoveries = 0
        self.history = History(run.world.loop)

    def _key(self) -> str:
        return f"k{self.rng.randrange(KEYS):03d}"


class ClusterClient(_ClientModel):
    """Drives the mixed workload against one cluster -- including the
    operator's part (writer crash/recovery cycles, the mid-run membership
    change) and the planted scenarios (false positive, fleet storm)."""

    def __init__(self, run) -> None:
        super().__init__(run)
        self.profile = run.profile
        self.cluster = cluster = run.world
        # In failover mode the writer identity changes under the client's
        # feet; the cluster session re-resolves it per operation.
        self.session = (
            cluster.cluster_session()
            if self.profile.failover
            else cluster.session()
        )
        self.writer_kills = 0
        #: unresolved commit futures: (future, {key: value}).
        self.pending: list[tuple[object, dict[str, str]]] = []
        #: Outcome of the planted false positive (None = never planted).
        self.planted_rollback_ok: bool | None = None
        #: Segments permanently killed by the fleet storm.
        self.fleet_killed: list[str] = []

    def chaos_callbacks(self) -> dict:
        """Writer kills and grey failures resolve their target at fire
        time (the writer's name changes across failovers); a mix draws
        them under `failover` only."""
        return {"writer_kill": self._kill_writer,
                "writer_grey": self._grey_writer}

    def run(self) -> None:
        cfg, profile = self.cfg, self.profile
        # In failover mode the chaos schedule kills the writer and the
        # coordinator restores it; the operator-driven cadence would race
        # the autonomous plane.
        crash_every = (
            max(150, cfg.steps // 4)
            if profile.operator and not profile.failover
            else 0
        )
        # step -> what the operator (or the scenario) does before its op;
        # the membership change and the plant are skipped on tiny runs.
        plan: dict[int, list] = {}
        if profile.operator and cfg.steps >= 300:
            plan.setdefault(cfg.steps // 2, []).append(self._membership_change)
            if cfg.heal:
                plan.setdefault(cfg.steps // 3, []).append(
                    self._plant_rollback
                )
        if profile.storm is not None and cfg.heal:
            # After the planted false positive resolves (it blocks until
            # the rollback lands), so the storm's candidate churn cannot
            # race the plant's candidate-name prediction.
            storm = cfg.steps * 3 // 5
            plan.setdefault(storm, []).append(self._fleet_storm)
            double = min(cfg.steps - 1, storm + max(20, cfg.steps // 10))
            plan.setdefault(double, []).append(self._fleet_double_fault)
        for step in range(cfg.steps):
            self._harvest_pending()
            if crash_every and step > 0 and step % crash_every == 0:
                self._crash_and_recover()
            for action in plan.get(step, ()):
                action()
            self._one_op(step)
            self.cluster.run_for(self.rng.uniform(0.5, 2.5))
        # Let in-flight chaos and acks drain, then harvest final acks.
        self.settled(500.0)

    def settled(self, quiet_ms: float = 200.0) -> None:
        """Let in-flight work land, then fold the final acks in."""
        self.cluster.run_for(quiet_ms)
        self._harvest_pending()

    # ------------------------------------------------------------------
    # Failover mode: chaos callbacks
    # ------------------------------------------------------------------
    def _kill_writer(self) -> None:
        # The crash resolves every in-flight commit future with
        # CommitUncertainError; _harvest_pending records those as failed
        # (uncertain), never as acknowledged.
        self.writer_kills += kill_writer(self.cluster)

    def _grey_writer(self, factor: float, duration_ms: float) -> None:
        """Grey failure: the writer host turns slow, not dead, for
        ``duration_ms``.  The health monitor must ride it out (SUSPECT at
        worst); a failover here would be a false positive."""
        cluster = self.cluster
        writer = cluster.writer
        if writer is None or not cluster.network.is_up(writer.name):
            return
        name = writer.name
        cluster.failures.slow_node(name, factor)
        cluster.loop.schedule(
            duration_ms, lambda: cluster.failures.unslow_node(name)
        )

    def _writer_open(self) -> bool:
        writer = self.cluster.writer
        return writer is not None and writer.state is InstanceState.OPEN

    def _restore_writer(self) -> None:
        """No writer is open: wait (in simulated time -- this *is* the
        write-unavailability window the failover report measures) for the
        coordinator to promote one, or, without it, do the operator's part
        and recover the crashed one."""
        if not self.profile.failover:
            self._crash_and_recover()
            return
        try:
            self.session.await_writer(max_ms=10_000.0)
        except SimulationError:
            self.availability_errors += 1

    def keepalive(self, step: int) -> None:
        """One cheap write so liveness signals keep flowing while a plane
        settles."""
        try:
            if not self._writer_open():
                self._restore_writer()
                return
        except ReproError:
            return
        key = self._key()
        try:
            self._write({key: f"keep{step}.{self.rng.randrange(1000)}"})
        except ReproError:
            self.availability_errors += 1

    # ------------------------------------------------------------------
    # The history: acks are learned here, once per step
    # ------------------------------------------------------------------
    def _harvest_pending(self) -> None:
        still = []
        for future, writes in self.pending:
            if not future.done:
                still.append((future, writes))
                continue
            try:
                future.result()
            except ReproError:
                # The commit was rejected, but its redo may still have
                # reached a write quorum first (an epoch bump from a
                # concurrent repair can fail the future after the records
                # landed): the values are uncertain, not absent.
                self._record(self.history.fail, writes)
                continue
            self._record(self.history.ack, writes)
        self.pending = still

    @staticmethod
    def _record(event, writes: dict[str, str]) -> None:
        for key, value in writes.items():
            event(key, value)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _one_op(self, step: int) -> None:
        if not self._writer_open():
            self._restore_writer()
            return
        roll = self.rng.random()
        try:
            if roll < 0.40:
                self._write({self._key(): f"v{step}"})
            elif roll < 0.50:
                count = self.rng.randint(2, 4)
                self._write(
                    {self._key(): f"m{step}.{i}" for i in range(count)}
                )
            elif roll < 0.75:
                self._read(replica=False)
            elif roll < 0.80:
                low, high = sorted((self._key(), self._key()))
                self._drive(self.cluster.writer.scan(low, high))
            elif roll < 0.85:
                self._delete()
            elif roll < 0.90:
                # Whatever happens, the value may reach storage buffers
                # before the rollback lands; never flag a read of it.
                self._write({self._key(): f"r{step}"}, commit=False)
            else:
                self._read(replica=True)
        except ReproError:
            self.availability_errors += 1

    def _drive(self, awaitable):
        return self.session.drive(awaitable, max_ms=OP_TIMEOUT_MS)

    def _abandon(self, txn) -> None:
        """Best-effort rollback so a failed op does not pin locks forever
        (NO-WAIT locking would otherwise starve the key until the next
        writer crash clears the lock table)."""
        try:
            self._drive(self.cluster.writer.rollback(txn))
        except ReproError:
            pass

    def _write(self, writes: dict[str, str], commit: bool = True) -> None:
        """One transaction putting ``writes``, then committed or (for the
        rollback op) rolled back."""
        writer = self.cluster.writer
        txn = writer.begin()
        if not commit:
            self._record(self.history.submit, writes)
        try:
            for key in sorted(writes):
                self._drive(writer.put(txn, key, writes[key]))
        except ReproError:
            # The values may have reached storage buffers.
            self._record(self.history.fail, writes)
            self._abandon(txn)
            raise
        if not commit:
            self._drive(writer.rollback(txn))
            return
        future = self.cluster.writer.commit(txn)
        self._record(self.history.submit, writes)
        self.pending.append((future, writes))
        try:
            self._drive(future)
        except ReproError:
            # Timed out under chaos (_harvest_pending resolves it later),
            # or rejected -- possibly after the redo reached a quorum.
            self._record(self.history.fail, writes)
            self.availability_errors += 1

    def _delete(self) -> None:
        writer = self.cluster.writer
        key = self._key()
        self.history.submit(key, None)
        txn = writer.begin()
        try:
            self._drive(writer.delete(txn, key))
        except ReproError:
            self._abandon(txn)
            raise
        self._drive(writer.commit(txn))

    def _read(self, replica: bool) -> None:
        """Read one key on the writer, or on a seeded pick of the replicas
        (when there are any)."""
        source, session = self.cluster.writer, self.session
        replica = replica and bool(self.cluster.replicas)
        if replica:
            name = self.rng.choice(sorted(self.cluster.replicas))
            session = self.cluster.replica_session(name)
            source = self.cluster.replicas[name]
        key = self._key()
        value = session.drive(source.get(key), max_ms=OP_TIMEOUT_MS)
        # Held to the acks learned by the read's start: a commit that
        # resolved while the read was in flight postdates its snapshot.
        self.history.read(key, value, "replica" if replica else "writer")

    # ------------------------------------------------------------------
    # The operator's part: writer crash / recovery, membership change
    # ------------------------------------------------------------------
    def _crash_and_recover(self) -> None:
        cluster = self.cluster
        if cluster.writer.state is InstanceState.OPEN:
            cluster.crash_writer()
        # Commit futures from the dead generation never resolve; their
        # outcomes stay uncertain (recovery may still surface them if the
        # commit record was durable before the crash).
        for _future, writes in self.pending:
            self._record(self.history.fail, writes)
        self.pending = []
        self.recoveries += 1
        process = cluster.recover_writer()
        for _attempt in range(60):
            try:
                self.session.drive(process, max_ms=2000.0)
                break
            except SimulationError:
                continue  # recovery still in flight; keep driving it
            except ReproError:
                # Recovery failed (read quorum unreachable mid-chaos).
                # Wait for faults to heal, then start a fresh recovery.
                self.availability_errors += 1
                cluster.writer.state = InstanceState.CRASHED
                cluster.run_for(250.0)
                process = cluster.recover_writer()
        if cluster.writer.state is not InstanceState.OPEN:
            raise SimulationError(
                f"writer never recovered (seed {self.cfg.seed})"
            )
        if cluster.replicas:
            cluster.reattach_replicas()

    def _pick_up(self, members):
        """A seeded pick among the ``members`` that are up (None: none)."""
        up = sorted(m for m in members if self.cluster.network.is_up(m))
        return self.rng.choice(up) if up else None

    def _membership_change(self) -> None:
        """Figure 5 under fire: one member of PG 0 goes down for good."""
        cluster = self.cluster
        state = cluster.metadata.membership(0)
        if cluster.writer.state is not InstanceState.OPEN:
            return
        if not state.is_stable:
            return  # a previous attempt is still in flight
        target = self._pick_up(state.members)
        if target is None:
            return
        if self.cfg.heal:
            # Condemn (not merely crash) the segment: a chaos-schedule AZ
            # restore must not resurrect it -- it is down for good.  The
            # healer must now detect it, confirm it dead, and drive
            # Figure 5 on its own, no operator-driven replacement.
            cluster.failures.condemn_node(target)
            return
        cluster.failures.crash_node(target)
        try:
            self.session.drive(
                cluster.replace_segment(0, target), max_ms=20_000.0
            )
        except ReproError:
            # Replacement stalled under chaos; the dual-quorum membership
            # is legal indefinitely, so leave it and carry on.
            self.availability_errors += 1

    # ------------------------------------------------------------------
    # Fleet storm: simultaneous permanent kills across distinct PGs
    # ------------------------------------------------------------------
    def _condemn_one(self, members) -> None:
        """Permanently kill one of ``members``.  A *condemned* victim
        stays down through every later restore -- including a
        chaos-schedule AZ recovery sweeping over it -- so the healer must
        drive a full Figure 5 repair for it."""
        target = self._pick_up(members)
        if target is not None:
            self.cluster.failures.condemn_node(target)
            self.fleet_killed.append(target)

    def _fleet_storm(self) -> None:
        """Condemn one member in each of the storm's ``kills`` distinct PGs
        at the same instant.  PG 0 is left out -- it already hosts the
        mid-run membership change and the planted false positive."""
        metadata = self.cluster.metadata
        for pg_index in metadata.pg_indexes():
            if len(self.fleet_killed) >= self.profile.storm.kills:
                break
            state = metadata.membership(pg_index)
            # An unstable PG has a repair in flight already; next PG.
            if pg_index != 0 and state.is_stable:
                self._condemn_one(state.members)

    def _fleet_double_fault(self) -> None:
        """A second permanent kill in the first storm PG: the healer must
        queue it behind the in-flight repair (per-PG serialization)."""
        metadata = self.cluster.metadata
        if self.fleet_killed:
            pg_index = metadata.pg_of(self.fleet_killed[0])
            self._condemn_one(
                metadata.membership(pg_index).members
                - set(self.fleet_killed)
            )

    # ------------------------------------------------------------------
    # Planted false positive (grey failure that comes back mid-repair)
    # ------------------------------------------------------------------
    def _plant_rollback(self) -> None:
        """Isolate a healthy segment until the healer starts replacing it,
        then let it return and require the transition to roll back.

        The incumbent is partitioned (not crashed): its durable state is
        intact the whole time, exactly the paper's "network problem"
        false-positive scenario.  The candidate is slowed so hydration
        cannot win the race against the returning incumbent.
        """
        cluster = self.cluster
        healer = cluster.healer
        state = cluster.metadata.membership(0)
        if not state.is_stable or healer.active_repair(0) is not None:
            return  # needs a quiet PG; skip rather than entangle repairs
        target = self._pick_up(state.members)
        if target is None:
            return
        # Bump the target's failure generation (cancelling pre-scheduled
        # background events) so nothing crashes it for real: the scenario
        # needs the segment to *return*.
        cluster.failures.restore_node(target)
        # Quarantine (not pairwise-partition) the target and the names
        # its replacement candidate could get: a quarantine also drops
        # traffic with nodes created *later* -- a concurrent repair's
        # candidate would otherwise gossip with the target and keep
        # reviving it in the monitor, so it could never be confirmed
        # dead.  The quarantined candidate then cannot hydrate, which
        # removes the race between hydration finishing and the incumbent
        # returning: the rollback path is the only way out.  Candidate
        # names are slot-specific but draw generations from a
        # cluster-wide counter, and concurrent repairs can consume
        # generations between this prediction and our begin -- so
        # reserve a window of future generations.  Only a candidate for
        # *this* slot can ever match these names, so the reservations
        # are inert for every other repair.
        predictions = {
            cluster.segment_name(
                0,
                state.slot_of(target),
                generation=cluster._candidate_counter + 1 + drift,
            )
            for drift in range(6)
        }
        for predicted in predictions:
            cluster.failures.quarantine_node(predicted, allow={target})
        cluster.failures.quarantine_node(target, allow=predictions)

        def replacement():
            return next(
                (
                    r
                    for r in healer.records
                    if r.subject == target
                    and r.outcome == ACTIVE
                    and r.candidate_id is not None
                ),
                None,
            )

        paced = dict(spins=1500, step_ms=5.0, keepalive=self.keepalive,
                     every=60)
        if not spin_until(cluster, lambda: replacement() is not None, **paced):
            for isolated in predictions | {target}:
                cluster.failures.lift_quarantine(isolated)
            self.planted_rollback_ok = False
            return
        record = replacement()
        if record.candidate_id not in predictions:
            # The counter drifted past the reserved window; isolate the
            # actual candidate instead (best effort against the race).
            cluster.failures.quarantine_node(
                record.candidate_id, allow={target}
            )
        # The incumbent "returns": lift its quarantine and let its acks
        # and gossip revive it in the monitor.
        cluster.failures.lift_quarantine(target)
        spin_until(cluster, lambda: record.outcome != ACTIVE, **paced)
        for isolated in predictions | {record.candidate_id}:
            cluster.failures.lift_quarantine(isolated)
        self.planted_rollback_ok = record.outcome == ROLLED_BACK


class GeoClient(_ClientModel):
    """Drives the keyed workload through a region-failover-aware session
    and, at promotion, reconciles every acknowledged commit against the
    promoted region."""

    def __init__(self, run) -> None:
        super().__init__(run)
        self.geo = run.world
        self.chaos_end_ms = run.chaos_end_ms
        self.db = self.geo.session()
        self.reconciled = False

    def chaos_callbacks(self) -> dict:
        geo = self.geo
        return {"region_loss": geo.lose_region,
                "region_partition": self.region_partition,
                "wan_brownout": geo.wan_brownout,
                "stream_stall": geo.stall_stream}

    # ------------------------------------------------------------------
    def run(self) -> None:
        cfg = self.cfg
        # Pace the workload across the chaos horizon so writes are in
        # flight when the region event fires (ops themselves also burn
        # simulated time -- a sync commit costs a WAN round trip).
        remaining_ms = self.chaos_end_ms - self.geo.loop.now
        pace = max(1.0, remaining_ms) / max(1, cfg.steps)
        for step in range(cfg.steps):
            self.maybe_reconcile()
            self._one_op(step)
            self.geo.run_for(self.rng.uniform(0.2, 1.8) * pace)
        self.geo.run_for(500.0)

    def region_partition(self, duration_ms: float) -> None:
        """Chaos callback: split brain for ``duration_ms``, then heal.
        The heal is the interesting part -- the deposed primary comes
        back reachable and must stay fenced."""
        geo = self.geo
        geo.partition_regions()
        geo.loop.schedule(duration_ms, geo.heal_regions)

    # ------------------------------------------------------------------
    def _one_op(self, step: int) -> None:
        roll = self.rng.random()
        key = self._key()
        history = self.history
        try:
            if roll < 0.55:
                value = f"g{step}"
                # Record before driving: the value may land even if the
                # ack never arrives.
                history.submit(key, value)
                history.ack(key, value, scn=self.db.write(key, value))
            elif roll < 0.65:
                history.submit(key, None)
                history.ack(key, None, scn=self.db.remove(key))
            else:
                history.read(key, self.db.get(key), "region")
        except ReproError:
            # Any failed operation leaves the key's value set ambiguous.
            history.fail(key)
            self.availability_errors += 1

    # ------------------------------------------------------------------
    def maybe_reconcile(self) -> None:
        """At promotion, read every pre-failure acknowledged commit back
        from the promoted region (once, before new writes muddy it).  A
        key acked again after promotion (a write that blocked across the
        failover re-applied on the new region), or with an outcome never
        learned, has no single expected value and is not read."""
        geo = self.geo
        if self.reconciled or not geo.promoted:
            return
        self.reconciled = True
        record = geo.promoted_record
        kind = f"promoted-{geo.ack_mode}"
        for ack in self.history.unsettled(kind, before=record.promoted_at):
            try:
                value = self.db.get(ack.key)
            except ReproError:
                continue
            self.history.read(
                ack.key, value, kind, frontier=record.applied_vdl
            )


class ProxyClient:
    """The serving tier's client: a ``ConnectionProxy`` in front of the
    cluster, a closed-loop ``SessionScaleWorkload`` of ``proxy_sessions``
    logical sessions through it (think times that dwarf the horizon, so a
    bounded sample is active at any instant while the whole fleet's
    floors, outage clocks and acked-write logs stay live), and the one
    disaster under test: exactly one writer kill at a seed-derived point
    mid-horizon, away from the edges so both the pre-kill steady state and
    the post-kill recovery are observed."""

    def __init__(self, run) -> None:
        from repro.db.proxy import ConnectionProxy, ProxyConfig
        from repro.workloads.sessions import (
            SessionScaleConfig,
            SessionScaleWorkload,
        )

        cfg = run.cfg
        self.cluster = cluster = run.world
        horizon_ms = run.horizon_ms
        self.proxy = ConnectionProxy(
            cluster, ProxyConfig(pool_size=cfg.proxy_pool)
        )
        self.workload = SessionScaleWorkload(
            self.proxy,
            SessionScaleConfig(
                sessions=cfg.proxy_sessions,
                horizon_ms=horizon_ms,
                think_ms=max(60_000.0, horizon_ms * 6.0),
                seed=cfg.seed,
            ),
        )
        self.history = self.workload.history
        self.run = self.workload.run
        self.writer_kills = 0
        rng = random.Random(cfg.seed * 104_729 + 7)
        # (now + x) - now is not x in floating point: the kill keeps the
        # instant every recorded report has it at.
        kill_at = cluster.loop.now + horizon_ms * (0.35 + 0.3 * rng.random())
        cluster.loop.schedule(kill_at - cluster.loop.now, self._kill_writer)

    def _kill_writer(self) -> None:
        self.writer_kills += kill_writer(self.cluster)

    @property
    def availability_errors(self) -> int:
        return self.workload.stats.errors

    @property
    def recoveries(self) -> int:
        return self.cluster.failover.summary().promoted
