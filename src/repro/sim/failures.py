"""Failure injection for the simulated fleet.

The paper's durability story is built around *correlated* failure: "it is
insufficient to treat failures as independent.  At a minimum, it is necessary
to consider the correlated impact of the largest unit of failure" -- in AWS,
an Availability Zone.  The injector therefore supports four granularities:

- single node crash/restart (the background noise of independent failures),
- whole-AZ outage (the correlated event Figure 1 is about),
- degraded ("slow" / "busy") nodes, which are not down but answer late --
  the case the paper's read hedging and membership "suspect state" handle,
- network partitions isolating a node from the rest of the fleet.

Deterministic schedules (``crash_at``) serve scripted tests and scenarios;
stochastic MTTF/MTTR background failure (``enable_background_failures``)
is the churn the audit gates' healer runs against;
:class:`repro.sim.chaos.ChaosSchedule` composes the operations into seeded
randomized scenarios, one table row per fault kind.

**Manual intervention vs. background schedules.**  Background failures are
pre-scheduled at enable time (keeping runs deterministic for a given seed),
which historically meant a node manually restored mid-schedule -- e.g. via
``restore_az`` after a staged outage -- could be immediately re-crashed or
resurrected by a stale pre-scheduled event.  Every node now carries a
*failure generation*; manual crash/restore operations bump it, and each
background event captures the generation current when it was scheduled and
becomes a no-op if the node's generation has moved on.  Call
``enable_background_failures`` again to resume background noise for a
manually-touched node.

**Silent corruption.**  Beyond fail-stop faults, the injector models the
faults checksums and scrubbing exist for (DESIGN.md §12): disk bit-rot on a
stored block version or hot-log record, a torn write surfacing when a node
restarts after a crash, a write that was acknowledged but never retained
(``lost_write``), and a misdirected write applied under the wrong block id
-- self-consistent (valid checksum), so only a cross-peer content vote can
catch it.  Victims are picked from the storage nodes' physical state
alone; each corruption landed -- what, where, when: the ground truth -- is
reported to the probe :meth:`attach_storage` was given, which judges it
(:class:`repro.audit.integrity.IntegrityLog`).
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.sim.events import EventLoop
from repro.sim.network import Network


class FailureInjector:
    """Schedules failures and repairs against a :class:`Network`."""

    def __init__(
        self, loop: EventLoop, network: Network, rng: random.Random
    ) -> None:
        self.loop = loop
        self.network = network
        self.rng = rng
        self.log: list[tuple[float, str, str]] = []
        self._az_members: dict[str, set[str]] = {}
        #: Per-node failure generation; bumped by every *manual* crash or
        #: restore so stale pre-scheduled background events cancel.
        self._generations: dict[str, int] = {}
        #: Permanently decommissioned nodes: every restore (manual,
        #: AZ-wide, or background) is a no-op for them.
        self._condemned: set[str] = set()
        #: Storage nodes registered for silent-corruption injection.
        self._storage_nodes: dict[str, object] = {}
        #: What every landed corruption is reported to (set by
        #: :meth:`attach_storage`): the same probe the nodes report to.
        self.integrity_probe = None

    def register_az(self, az: str, nodes: set[str]) -> None:
        """Declare which nodes belong to an AZ (for whole-AZ events)."""
        self._az_members.setdefault(az, set()).update(nodes)

    def az_nodes(self, az: str) -> set[str]:
        if az not in self._az_members:
            raise ConfigurationError(f"unknown AZ {az!r}")
        return set(self._az_members[az])

    def attach_storage(self, nodes, probe) -> None:
        """Register storage nodes as silent-corruption targets and arm
        ``probe`` on each, so every corruption landed here and every
        detection / repair / served read there reports to it."""
        self.integrity_probe = probe
        for node in nodes:
            self._storage_nodes[node.name] = node
            node.attach_integrity_probe(probe)

    def _storage_node(self, name: str):
        if name not in self._storage_nodes:
            raise ConfigurationError(
                f"{name!r} is not an attached storage node "
                f"(call attach_storage first)"
            )
        return self._storage_nodes[name]

    def generation_of(self, name: str) -> int:
        return self._generations.get(name, 0)

    def _bump(self, name: str) -> None:
        self._generations[name] = self._generations.get(name, 0) + 1

    # ------------------------------------------------------------------
    # Immediate operations
    # ------------------------------------------------------------------
    def crash_node(self, name: str) -> None:
        self._bump(name)
        self.log.append((self.loop.now, "crash", name))
        self.network.fail_node(name)

    def restore_node(self, name: str) -> None:
        if name in self._condemned:
            return
        self._bump(name)
        self.log.append((self.loop.now, "restore", name))
        self.network.restore_node(name)

    def condemn_node(self, name: str) -> None:
        """Permanently decommission ``name``: crash it now and make every
        future restore -- manual, AZ-wide, or background -- a no-op.

        A plain :meth:`crash_node` only cancels *pre-scheduled background*
        restores (via the generation bump); a chaos schedule's
        ``restore_az`` or ``restore_node`` event landing later would still
        resurrect the node.  Condemnation models an unrecoverable host
        loss: the AZ can come back without that disk coming back with it.
        """
        self._condemned.add(name)
        self.log.append((self.loop.now, "condemn", name))
        self.crash_node(name)

    def crash_az(self, az: str) -> None:
        self.log.append((self.loop.now, "crash_az", az))
        for node in self.az_nodes(az):
            self._bump(node)
            self.network.fail_node(node)

    def restore_az(self, az: str) -> None:
        self.log.append((self.loop.now, "restore_az", az))
        for node in self.az_nodes(az):
            if node in self._condemned:
                continue
            self._bump(node)
            self.network.restore_node(node)

    def slow_node(self, name: str, factor: float) -> None:
        """Degrade a node: all its traffic is ``factor`` times slower."""
        self.log.append((self.loop.now, f"slow_x{factor}", name))
        self.network.set_latency_scale(name, factor)

    def unslow_node(self, name: str) -> None:
        self.log.append((self.loop.now, "unslow", name))
        self.network.set_latency_scale(name, 1.0)

    def partition_node(self, name: str, others: set[str]) -> None:
        """Isolate ``name`` from ``others`` (both directions drop)."""
        self.log.append((self.loop.now, "partition", name))
        self.network.partition({name}, set(others))

    def heal_node_partition(self, name: str, others: set[str]) -> None:
        self.log.append((self.loop.now, "heal_partition", name))
        self.network.heal_partition({name}, set(others))

    def quarantine_node(self, name: str, allow: set[str] = frozenset()) -> None:
        """Drop all traffic to/from ``name`` except ``allow`` -- unlike
        :meth:`partition_node`, this also covers peers created after the
        quarantine is installed."""
        self.log.append((self.loop.now, "quarantine", name))
        self.network.quarantine(name, allow)

    def lift_quarantine(self, name: str) -> None:
        self.log.append((self.loop.now, "lift_quarantine", name))
        self.network.lift_quarantine(name)

    # ------------------------------------------------------------------
    # Scheduled operations
    # ------------------------------------------------------------------
    def crash_at(
        self, time: float, name: str, duration: float | None = None
    ) -> None:
        """Crash ``name`` at ``time``; restore after ``duration`` if given."""
        self.loop.schedule_at(time, self.crash_node, name)
        if duration is not None:
            self.loop.schedule_at(time + duration, self.restore_node, name)

    def crash_az_at(
        self, time: float, az: str, duration: float | None = None
    ) -> None:
        self.loop.schedule_at(time, self.crash_az, az)
        if duration is not None:
            self.loop.schedule_at(time + duration, self.restore_az, az)

    def slow_at(
        self, time: float, name: str, factor: float, duration: float | None = None
    ) -> None:
        self.loop.schedule_at(time, self.slow_node, name, factor)
        if duration is not None:
            self.loop.schedule_at(time + duration, self.unslow_node, name)

    def partition_at(
        self,
        time: float,
        name: str,
        others: set[str],
        duration: float | None = None,
    ) -> None:
        self.loop.schedule_at(time, self.partition_node, name, set(others))
        if duration is not None:
            self.loop.schedule_at(
                time + duration, self.heal_node_partition, name, set(others)
            )

    # ------------------------------------------------------------------
    # Silent corruption (DESIGN.md §12)
    # ------------------------------------------------------------------
    def bit_rot(self, name: str):
        """Rot one stored artifact on ``name``: 50/50 a materialized block
        version (image mutated *under* its recorded checksum) or a hot-log
        record (content diverges from its ingest digest).  Falls through
        to the other flavour when the first has no eligible target.

        Each operation here returns what the integrity probe made of the
        corruption it landed, or None when it found no eligible victim."""
        node = self._storage_node(name)
        if self.rng.random() < 0.5:
            return self._rot_version(node) or self._rot_record(node)
        return self._rot_record(node) or self._rot_version(node)

    def _rot_version(self, node):
        seg = node.segment
        lo = max(seg.granular_floor, seg.gc_floor)
        victims = [
            (block, version.lsn)
            for block, chain in sorted(seg.blocks.items())
            for version in chain.versions_in(lo)
            if not version.quarantined
        ]
        if not victims:
            return None
        block, lsn = self.rng.choice(victims)
        chain = seg.blocks[block]
        chain.corrupt_version(lsn)
        self.log.append((self.loop.now, "bit_rot_version", node.name))
        return self.integrity_probe.inject(
            "bit_rot", node.name, block, lsn, chain.version(lsn)
        )

    def _record_rot_targets(self, node) -> list[int]:
        # Above the GC floor as well as the local horizon: a record below
        # the PGMRPL floor may already be gone from every peer's hot log
        # (they GC eagerly; this copy may lag), which would make the
        # injected rot unrepairable by design rather than by failure --
        # and no instance will ever read below the floor anyway.  A record
        # already rotted is no victim: it would be one fault counted twice.
        seg = node.segment
        return seg.intact_lsns_above(max(seg.gc_horizon, seg.gc_floor))

    def _rot_record(self, node):
        eligible = self._record_rot_targets(node)
        if not eligible:
            return None
        lsn = self.rng.choice(eligible)
        mangled = node.segment.corrupt_record(lsn)
        self.log.append((self.loop.now, "bit_rot_record", node.name))
        return self.integrity_probe.inject(
            "bit_rot_record", node.name, mangled.block, lsn, mangled
        )

    def torn_write(self, name: str, duration: float = 150.0):
        """Crash ``name`` now; its newest hot-log record surfaces *torn*
        (content no longer matching the ingest digest) when the node
        restarts ``duration`` ms later.  No-op if the node is already
        down or holds no eligible record."""
        node = self._storage_node(name)
        if not self.network.is_up(name):
            return None
        eligible = self._record_rot_targets(node)
        if not eligible:
            return None
        lsn = eligible[-1]
        mangled = node.segment.corrupt_record(lsn, payload=("__torn__", lsn))
        self.log.append((self.loop.now, "torn_write", name))
        corruption = self.integrity_probe.inject(
            "torn_write", name, mangled.block, lsn, mangled
        )
        self.crash_node(name)
        self.loop.schedule_at(
            self.loop.now + duration, self.restore_node, name
        )
        return corruption

    def lost_write(self, name: str):
        """Drop an acknowledged write from ``name``: hot-log record and
        materialized version vanish while the SCL still covers the LSN.
        Restricted to blocks with a *later* retained version, so the hole
        sits mid-chain where the vote's structural comparison finds it."""
        node = self._storage_node(name)
        seg = node.segment
        lo = max(seg.granular_floor, seg.gc_floor, seg.gc_horizon)
        eligible = []
        for lsn in seg.hot_log_lsns():
            if lsn <= lo:
                continue
            chain = seg.blocks.get(seg.record_at(lsn).block)
            if chain is not None and chain.latest_lsn > lsn:
                eligible.append(lsn)
        if not eligible:
            return None
        lsn = self.rng.choice(eligible)
        record = seg.lose_record(lsn)
        self.log.append((self.loop.now, "lost_write", name))
        return self.integrity_probe.inject(
            "lost_write", name, record.block, lsn
        )

    def misdirected_write(self, name: str):
        """Apply a write under the wrong block id: block A's version at
        LSN L disappears and re-surfaces mid-chain in block B with a
        freshly computed -- *valid* -- checksum.  Both halves pass local
        verification; only the quorum vote's cross-peer structural
        comparison catches them."""
        node = self._storage_node(name)
        seg = node.segment
        lo = max(seg.granular_floor, seg.gc_floor)
        sources = [
            (block, version.lsn)
            for block, chain in sorted(seg.blocks.items())
            for version in chain.versions_in(lo, chain.latest_lsn - 1)
            if not version.quarantined
        ]
        self.rng.shuffle(sources)
        for block_a, lsn in sources[:8]:
            targets = [
                block
                for block, chain in sorted(seg.blocks.items())
                if block != block_a
                and chain.latest_lsn > lsn
                and chain.version(lsn) is None
            ]
            if not targets:
                continue
            block_b = self.rng.choice(targets)
            chain_a = seg.blocks[block_a]
            bogus = seg.blocks[block_b].insert(
                lsn, dict(chain_a.version(lsn).image.items())
            )
            chain_a.remove_version(lsn)
            self.log.append((self.loop.now, "misdirected_write", name))
            injected = self.integrity_probe.inject(
                "misdirected_write", name, block_b, lsn, bogus
            )
            self.integrity_probe.inject(
                "misdirected_write_hole", name, block_a, lsn
            )
            return injected
        return None

    def inject_anywhere(self, inject, *args):
        """``inject(name, *args)`` -- one of the operations above -- on
        the attached storage nodes in a seeded random order, until one
        has an eligible victim: the chaos schedule resolves its victim
        when the event fires.  What ``inject`` returned, or None if no
        node had one."""
        names = sorted(self._storage_nodes)
        self.rng.shuffle(names)
        for name in names:
            record = inject(name, *args)
            if record is not None:
                return record
        return None

    # ------------------------------------------------------------------
    # Background stochastic failures
    # ------------------------------------------------------------------
    def enable_background_failures(
        self,
        nodes: list[str],
        mttf_ms: float,
        mttr_ms: float,
        horizon_ms: float,
    ) -> None:
        """Schedule an independent crash/repair renewal process per node.

        Each node alternates exponentially-distributed up intervals (mean
        ``mttf_ms``) and down intervals (mean ``mttr_ms``), pre-scheduled out
        to ``horizon_ms``.  Pre-scheduling keeps runs deterministic for a
        given seed regardless of what the protocols under test do.

        The whole pre-scheduled sequence for a node is tied to that node's
        current failure generation: a manual ``crash_node`` / ``restore_node``
        / ``crash_az`` / ``restore_az`` touching the node invalidates its
        remaining background events (see module docstring).
        """
        if mttf_ms <= 0 or mttr_ms <= 0:
            raise ConfigurationError("mttf_ms and mttr_ms must be > 0")
        for node in nodes:
            generation = self.generation_of(node)
            t = self.loop.now + self.rng.expovariate(1.0 / mttf_ms)
            while t < horizon_ms:
                down_for = self.rng.expovariate(1.0 / mttr_ms)
                self.loop.schedule_at(
                    t, self._background_crash, node, generation
                )
                restore_at = t + down_for
                if restore_at < horizon_ms:
                    self.loop.schedule_at(
                        restore_at, self._background_restore, node, generation
                    )
                t = restore_at + self.rng.expovariate(1.0 / mttf_ms)

    def _background_crash(self, name: str, generation: int) -> None:
        if self.generation_of(name) != generation:
            return  # stale: the node was manually touched since scheduling
        self.log.append((self.loop.now, "crash", name))
        self.network.fail_node(name)

    def _background_restore(self, name: str, generation: int) -> None:
        if name in self._condemned:
            return
        if self.generation_of(name) != generation:
            return  # stale: the node was manually touched since scheduling
        self.log.append((self.loop.now, "restore", name))
        self.network.restore_node(name)
