"""One-call construction and administration of a simulated Aurora cluster.

:class:`AuroraCluster` wires together everything the paper describes:

- a deterministic event loop, network, and failure injector,
- three Availability Zones hosting six storage nodes per protection group
  (two per AZ), optionally in the section-4.2 full/tail mix,
- the storage metadata service, the simulated S3 archive,
- a single writer instance and any number of read replicas,

and exposes the administrative flows of section 4 as methods: segment
replacement with quorum sets and membership epochs (Figure 5), volume
growth with geometry epochs, writer crash/recovery, and replica promotion.

This is the public entry point most users want::

    from repro import AuroraCluster

    cluster = AuroraCluster.build(seed=7)
    db = cluster.session()
    txn = db.begin()
    db.put(txn, "k", "v")
    db.commit(txn)                      # waits for 4/6 quorum durability
    assert db.get("k") == "v"
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.membership import MembershipState, verify_transition_safety
from repro.core.quorum import QuorumConfig, QuorumLeaf
from repro.db.instance import InstanceConfig, WriterInstance
from repro.db.replica import ReplicaInstance
from repro.db.session import ClusterSession, Session
from repro.errors import (
    ConfigurationError,
    FailoverInProgressError,
    MembershipError,
    RecoveryError,
)
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Network
from repro.sim.process import Process
from repro.storage.backend import AZS, resolve_backend
from repro.storage.backup import SimulatedS3
from repro.storage.messages import BaselineRequest, BaselineResponse, EpochWrite
from repro.storage.metadata import SegmentPlacement, StorageMetadataService
from repro.storage.node import StorageNode, StorageNodeConfig
from repro.storage.segment import Segment, SegmentKind
from repro.storage.volume import VolumeGeometry

@dataclass
class ClusterConfig:
    """Shape of the simulated deployment."""

    seed: int = 42
    pg_count: int = 1
    blocks_per_pg: int = 4096
    #: Use the section-4.2 cost-reducing mix: 3 full + 3 tail segments.
    full_tail: bool = False
    #: Storage backend: ``"aurora"`` (default), ``"taurus"``, or a
    #: :class:`repro.storage.backend.StorageBackend` instance.
    backend: object = "aurora"
    instance: InstanceConfig = field(default_factory=InstanceConfig)
    replica: InstanceConfig = field(default_factory=InstanceConfig)
    node: StorageNodeConfig = field(default_factory=StorageNodeConfig)
    #: Optional network latency model overrides (defaults: see repro.sim).
    intra_az_latency: object = None
    cross_az_latency: object = None
    #: Prefix for segment/writer names (lets several volumes share one
    #: simulated network, e.g. the multi-writer extension).
    name_prefix: str = ""


    def __post_init__(self) -> None:
        if self.pg_count < 1:
            raise ConfigurationError("pg_count must be >= 1")


class AuroraCluster:
    """A fully wired simulated Aurora deployment."""

    def __init__(
        self,
        config: ClusterConfig,
        loop: EventLoop,
        rng: random.Random,
        network: Network,
        failures: FailureInjector,
        metadata: StorageMetadataService,
        s3: SimulatedS3,
    ) -> None:
        self.config = config
        self.loop = loop
        self.rng = rng
        self.network = network
        self.failures = failures
        self.metadata = metadata
        self.backend = metadata.backend
        self.s3 = s3
        self.nodes: dict[str, StorageNode] = {}
        self.writer: WriterInstance | None = None
        self.replicas: dict[str, ReplicaInstance] = {}
        self._writer_counter = 0
        self._candidate_counter = 0
        #: Optional :class:`repro.audit.Auditor`; see :meth:`arm_auditor`.
        self.auditor = None
        #: Optional self-healing control plane; see :meth:`arm_healer`.
        self.health = None
        self.healer = None
        #: Optional database-tier failover plane; see :meth:`arm_failover`.
        self.db_health = None
        self.failover = None
        #: True while a :class:`repro.repair.FailoverCoordinator` is mid
        #: promotion; gates new sessions and suppresses monitor wiring for
        #: the successor until it is actually open.
        self.failover_in_progress = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def segment_name(self, pg_index: int, slot: int, generation: int = 0) -> str:
        base = (
            f"{self.config.name_prefix}pg{pg_index}-"
            f"{chr(ord('a') + slot)}"
        )
        return base if generation == 0 else f"{base}.{generation}"

    @classmethod
    def build(
        cls,
        config: ClusterConfig | None = None,
        seed: int | None = None,
        *,
        bootstrap: bool = True,
        shared: "AuroraCluster | None" = None,
        **overrides,
    ) -> "AuroraCluster":
        """Create a cluster: storage fleet + writer, ready for traffic.

        An override names a field of ``ClusterConfig`` or of a config
        nested in it -- the cluster's, the storage nodes', the writer's,
        the writer's driver's, looked up in that order (so
        ``cache_capacity`` is the writer's pool, never a replica's; a
        replica's settings are given whole, as ``replica=InstanceConfig()``).

        Pass ``shared=<cluster>`` to place this volume on that cluster's
        simulated infrastructure -- its loop, network, failure injector
        and random stream (the multi-writer partitions and the geo
        regions co-locate this way); give each volume its own
        ``name_prefix``.
        """
        config = config if config is not None else ClusterConfig()
        if seed is not None:
            config.seed = seed
        owners = (config, config.node, config.instance, config.instance.driver)
        for name, value in overrides.items():
            owner = next((o for o in owners if hasattr(o, name)), None)
            if owner is None:
                raise TypeError(f"build() has no config field {name!r}")
            setattr(owner, name, value)
        if shared is not None:
            loop, network = shared.loop, shared.network
            failures, rng = shared.failures, shared.rng
        else:
            rng = random.Random(config.seed)
            loop = EventLoop()
            network = Network(
                loop,
                rng,
                intra_az=config.intra_az_latency,
                cross_az=config.cross_az_latency,
            )
            failures = FailureInjector(loop, network, rng)
        backend = resolve_backend(config.backend, full_tail=config.full_tail)
        geometry = VolumeGeometry(
            blocks_per_pg=config.blocks_per_pg,
            pg_count=config.pg_count,
            copies_per_pg=backend.slot_count,
        )
        metadata = StorageMetadataService(geometry, backend=backend)
        s3 = SimulatedS3()
        cluster = cls(config, loop, rng, network, failures, metadata, s3)
        for pg_index in range(config.pg_count):
            cluster._create_protection_group(pg_index)
        cluster._start_nodes()
        cluster._create_writer(bootstrap=bootstrap)
        return cluster

    def _create_protection_group(self, pg_index: int) -> None:
        layout = self.backend.segment_layout()
        members = []
        for slot, spec in enumerate(layout):
            segment_id = self.segment_name(pg_index, slot)
            members.append(segment_id)
            self._create_storage_node(segment_id, pg_index, spec.az, spec.kind)
        self.metadata.set_membership(
            pg_index,
            MembershipState.initial(members, slot_count=len(layout)),
        )

    def _create_storage_node(
        self, segment_id: str, pg_index: int, az: str, kind: SegmentKind
    ) -> StorageNode:
        segment = Segment(segment_id, pg_index, kind)
        node = StorageNode(
            segment=segment,
            metadata=self.metadata,
            s3=self.s3,
            rng=self.rng,
            config=self.config.node,
        )
        self.network.attach(node, az=az)
        self.failures.register_az(az, {segment_id})
        self.nodes[segment_id] = node
        self.metadata.place_segment(
            SegmentPlacement(
                segment_id=segment_id,
                pg_index=pg_index,
                node=segment_id,
                az=az,
                kind=kind,
            )
        )
        if self.auditor is not None:
            node.attach_audit_probe(self.auditor)
        if self.health is not None:
            node.health_probe = self.health
        if self.db_health is not None:
            node.db_health_probe = self.db_health
        return node

    def _start_nodes(self) -> None:
        for node in self.nodes.values():
            node.start()

    def _create_writer(self, bootstrap: bool) -> WriterInstance:
        self._writer_counter += 1
        writer = WriterInstance(
            name=f"{self.config.name_prefix}writer-{self._writer_counter}",
            metadata=self.metadata,
            rng=self.rng,
            config=self.config.instance,
        )
        self.network.attach(writer, az=AZS[0])
        writer.start()
        if self.auditor is not None:
            writer.driver.attach_audit_probe(self.auditor)
        if self.health is not None:
            writer.driver.health_probe = self.health
        if self.db_health is not None and not self.failover_in_progress:
            # During a coordinated failover the successor is tracked by
            # the coordinator once promotion succeeds -- tracking it
            # here, mid-recovery, would let its (legitimate) silence be
            # judged as a death.
            self.db_health.track(writer.name)
        if bootstrap:
            writer.bootstrap()
            # The volume is only usable once the bootstrap MTR is durable
            # (otherwise an instant crash would recover an empty volume).
            for _ in range(200):
                if writer.vcl >= writer.allocator.highest_allocated:
                    break
                self.loop.run(until=self.loop.now + 1.0)
        self.writer = writer
        return writer

    # ------------------------------------------------------------------
    # Invariant auditing
    # ------------------------------------------------------------------
    def arm_auditor(self, auditor) -> None:
        """Attach a :class:`repro.audit.Auditor` to every protocol
        component: current writer, storage nodes, replicas, and geometry.
        Components created later (candidates, promoted writers, new
        replicas) are armed automatically.
        """
        self.auditor = auditor
        auditor.bind_loop(self.loop)
        self.metadata.geometry.audit_probe = auditor
        if self.writer is not None:
            self.writer.driver.attach_audit_probe(auditor)
        for node in self.nodes.values():
            node.attach_audit_probe(auditor)
        for replica in self.replicas.values():
            replica.audit_probe = auditor
            replica.driver.attach_audit_probe(auditor)

    # ------------------------------------------------------------------
    # Self-healing (failure detection + autonomous Figure 5 repairs)
    # ------------------------------------------------------------------
    def arm_healer(self, repair_config=None) -> tuple:
        """Attach the self-healing control plane.

        Wires the storage tier's :class:`repro.repair.FailureDetector` as
        the health probe of the writer's driver and every storage node
        (components created later -- candidates, promoted writers -- are
        wired automatically), starts its sweep over every PG's members,
        and subscribes a :class:`repro.repair.RepairPlanner` that drives
        Figure 5 for every confirmed-dead segment.  Returns
        ``(monitor, planner)``.
        """
        from repro.repair import (
            STORAGE,
            FailureDetector,
            RepairPlanner,
            pg_groups,
        )

        monitor = FailureDetector(
            self.loop, STORAGE, membership=pg_groups(self.metadata)
        )
        self.health = monitor
        if self.writer is not None:
            self.writer.driver.health_probe = monitor
        for node in self.nodes.values():
            node.health_probe = monitor
        monitor.start()
        self.healer = RepairPlanner(self, monitor, repair_config)
        return monitor, self.healer

    # ------------------------------------------------------------------
    # Database-tier failover (autonomous writer promotion)
    # ------------------------------------------------------------------
    def arm_failover(self) -> tuple:
        """Attach the database-tier failover plane.

        Wires the database tier's :class:`repro.repair.FailureDetector` as
        the db-health probe of every storage node and replica (so the
        passive signals they already receive -- write batches, GC-floor
        heartbeats, the redo stream -- double as liveness evidence),
        tracks the current writer and replicas as one group judged
        against the storage tier's frontier, and subscribes a
        :class:`repro.repair.FailoverCoordinator` that answers a confirmed
        writer death with a fenced replica promotion.  Returns
        ``(monitor, coordinator)``.
        """
        from repro.repair import DB, FailoverCoordinator, FailureDetector

        reference = (
            self.health.freshest_signal if self.health is not None else None
        )
        monitor = FailureDetector(
            self.loop, DB, reference_frontier=reference
        )
        self.db_health = monitor
        for node in self.nodes.values():
            node.db_health_probe = monitor
        for name, replica in self.replicas.items():
            replica.db_health_probe = monitor
            monitor.track(name)
        if self.writer is not None:
            monitor.track(self.writer.name)
        monitor.start()
        self.failover = FailoverCoordinator(self, monitor)
        return monitor, self.failover

    # ------------------------------------------------------------------
    # Client access
    # ------------------------------------------------------------------
    def session(self) -> Session:
        """A client session against the writer."""
        if self.writer is None or self.failover_in_progress:
            raise FailoverInProgressError(
                "writer endpoint unresolved: a failover is in progress; "
                "retry once promotion completes"
            )
        return Session(self.writer)

    def cluster_session(self) -> "ClusterSession":
        """A failover-aware session: tracks the current writer across
        promotions and retries idempotent operations transparently."""
        return ClusterSession(self)

    def replica_session(self, name: str) -> Session:
        if name not in self.replicas:
            if self.failover_in_progress:
                # The replica may be mid-promotion: not gone, just not a
                # replica any more.  Typed + retryable, per the driver
                # contract.
                raise FailoverInProgressError(
                    f"replica {name!r} unavailable: a failover is in "
                    "progress; retry once promotion completes"
                )
            raise ConfigurationError(f"no replica named {name!r}")
        return Session(self.replicas[name])

    def run_for(self, duration_ms: float) -> None:
        """Advance simulated time (lets background activity run)."""
        self.loop.run(until=self.loop.now + duration_ms)

    # ------------------------------------------------------------------
    # Replicas (section 3.2)
    # ------------------------------------------------------------------
    def add_replica(self, name: str | None = None) -> ReplicaInstance:
        name = name or f"replica-{len(self.replicas) + 1}"
        replica = ReplicaInstance(
            name=name,
            metadata=self.metadata,
            rng=self.rng,
            config=self.config.replica,
        )
        az = AZS[(1 + len(self.replicas)) % 3]
        self.network.attach(replica, az=az)
        replica.start()
        if self.auditor is not None:
            replica.audit_probe = self.auditor
            replica.driver.attach_audit_probe(self.auditor)
        if self.db_health is not None:
            replica.db_health_probe = self.db_health
            self.db_health.track(name)
        writer = self.writer
        replica.attach(
            next_expected_lsn=writer.allocator.next_lsn,
            vdl=writer.vdl,
            pg_frontiers=writer.frontiers.frontier_at(writer.vdl),
            commit_history=writer.registry.known_commits(),
        )
        writer.publisher.attach_replica(name)
        self.replicas[name] = replica
        return replica

    def remove_replica(self, name: str) -> None:
        replica = self.replicas.pop(name)
        replica.detach()
        if self.writer is not None:
            self.writer.publisher.detach_replica(name)
        if self.db_health is not None:
            self.db_health.untrack(name)

    # ------------------------------------------------------------------
    # Writer crash / recovery / promotion
    # ------------------------------------------------------------------
    def crash_writer(self) -> None:
        """Kill the writer process: ephemeral state is gone."""
        self.writer.crash()
        self.network.fail_node(self.writer.name)

    def recover_writer(self) -> Process:
        """Restart the crashed writer and run crash recovery."""
        self.network.restore_node(self.writer.name)
        process = self.writer.recover()
        return process

    def promote_replica(self, name: str) -> tuple[WriterInstance, Process]:
        """Fail over to a replica (section 3.2).

        The promoted identity gets a fresh writer instance which "only
        needs to run a local crash recovery to align its in-memory state"
        against the shared volume.  Returns (new_writer, recovery_process).
        """
        old_writer = self.writer
        self.remove_replica(name)
        writer = self._create_writer(bootstrap=False)
        if old_writer is not None:
            self._retire_writer(old_writer)
        process = writer.recover()
        return writer, process

    def _retire_writer(self, old_writer: WriterInstance) -> None:
        """Condemn a superseded writer so it can never serve again.

        A reachable incumbent is closed in place.  An unreachable one
        cannot be told anything -- it stays a potential zombie, which is
        exactly what the successor's volume-epoch fence exists for -- but
        we condemn its node (so a later chaos *restore* cannot resurrect
        it into the scheduler) and make every storage node forget it (so
        gossip-driven re-acks never reach it again).
        """
        if self.network.is_up(old_writer.name):
            old_writer.close(reason="superseded by promotion")
        self.failures.condemn_node(old_writer.name)
        for node in self.nodes.values():
            node.forget_instance(old_writer.name)
        if self.db_health is not None:
            self.db_health.untrack(old_writer.name)

    def reattach_replicas(self) -> None:
        """Re-subscribe surviving replicas to the (new) writer's stream."""
        writer = self.writer
        for name, replica in self.replicas.items():
            replica.detach()
            replica.attach(
                next_expected_lsn=writer.allocator.next_lsn,
                vdl=writer.vdl,
                pg_frontiers=writer.frontiers.frontier_at(writer.vdl),
                commit_history=writer.registry.known_commits(),
            )
            writer.publisher.attach_replica(name)

    # ------------------------------------------------------------------
    # Membership changes (section 4, Figure 5)
    # ------------------------------------------------------------------
    def begin_segment_replacement(
        self, pg_index: int, failed_segment: str
    ) -> str:
        """Step 1 of Figure 5: add a candidate alongside the suspect member.

        Creates the candidate node, installs the dual-quorum membership
        (epoch += 1), and returns the candidate's segment id.  I/Os continue
        throughout; the change is reversible until finalized.
        """
        state = self.metadata.membership(pg_index)
        placement = self.metadata.placement(failed_segment)
        self._candidate_counter += 1
        slot = self._slot_of(state, failed_segment)
        candidate_id = self.segment_name(
            pg_index, slot, generation=self._candidate_counter
        )
        self._create_storage_node(
            candidate_id, pg_index, placement.az, placement.kind
        )
        self.nodes[candidate_id].start()
        new_state = state.begin_replacement(failed_segment, candidate_id)
        self._verify_transition(pg_index, state, new_state)
        self._install_membership(pg_index, new_state)
        return candidate_id

    def finalize_segment_replacement(
        self, pg_index: int, failed_segment: str
    ) -> None:
        """Step 2 of Figure 5: the candidate is hydrated; drop the suspect."""
        state = self.metadata.membership(pg_index)
        slot = self._slot_of(state, failed_segment)
        if len(state.slots[slot]) != 2:
            raise MembershipError(
                f"no replacement in flight for {failed_segment}"
            )
        new_state = state.commit_replacement(slot)
        self._verify_transition(pg_index, state, new_state)
        self._install_membership(pg_index, new_state)

    def rollback_segment_replacement(
        self, pg_index: int, failed_segment: str
    ) -> None:
        """Reverse path: the suspect came back; drop the candidate."""
        state = self.metadata.membership(pg_index)
        slot = self._slot_of(state, failed_segment)
        new_state = state.rollback_replacement(slot)
        self._verify_transition(pg_index, state, new_state)
        self._install_membership(pg_index, new_state)

    def _verify_transition(
        self, pg_index: int, state: MembershipState, new_state: MembershipState
    ) -> None:
        """Prove the transition against the backend's *installed* quorum
        policy (for Aurora this is exactly the membership-derived config)."""
        verify_transition_safety(
            state,
            new_state,
            audit_probe=self.auditor,
            config_of=lambda s: self.metadata.membership_config_of(
                pg_index, s
            ),
        )

    @staticmethod
    def _slot_of(state: MembershipState, segment_id: str) -> int:
        for slot, alternatives in enumerate(state.slots):
            if segment_id in alternatives:
                return slot
        raise MembershipError(f"{segment_id!r} is not a member")

    def _install_membership(
        self, pg_index: int, new_state: MembershipState
    ) -> None:
        self.metadata.set_membership(pg_index, new_state)
        driver = self.writer.driver
        new_epochs = driver.epochs.bump_membership()
        driver.configure_pg(pg_index)
        # The epoch increment is itself a quorum write under the *new*
        # membership; the returned future is intentionally fire-and-forget
        # here -- I/Os never stall on a membership change.
        driver.quorum_rpc(
            pg_index,
            lambda _m: EpochWrite(
                pg_index=pg_index,
                epochs=driver.epochs,
                new_epochs=new_epochs,
            ),
            quorum="write",
        )
        driver.adopt_epochs(new_epochs)

    def hydrate_segment(self, pg_index: int, candidate_id: str) -> Process:
        """Run hydration for a replacement segment (section 4.2).

        Tail repair "simply requires reading from the other members";
        full repair copies a materialized baseline from a healthy full
        peer first, then both catch up via the hot log and gossip.
        """
        return Process(self.loop, self._hydrate(pg_index, candidate_id))

    def _hydrate(self, pg_index: int, candidate_id: str):
        candidate = self.nodes[candidate_id]
        sources = [
            p
            for p in self.metadata.baseline_sources_of_pg(pg_index)
            if p.segment_id != candidate_id
            and self.network.is_up(p.segment_id)
        ]
        if sources:
            source = sources[0]
            reply = yield self.network.rpc(
                candidate_id,
                source.segment_id,
                BaselineRequest(
                    from_segment=candidate_id,
                    pg_index=pg_index,
                    epochs=candidate.epochs.current,
                ),
            )
            if isinstance(reply, BaselineResponse):
                candidate.apply_baseline(reply)
        # Wait until gossip closes the remaining gap to the PG's durable
        # point, checking every few milliseconds.  The tracker is re-read
        # each round: a writer crash mid-hydration replaces the driver's
        # in-memory trackers.
        for _ in range(10_000):
            tracker = self.writer.driver.pg_trackers.get(pg_index)
            target = tracker.pgcl if tracker is not None else 0
            if candidate.segment.scl >= target:
                return candidate.segment.scl
            yield 5.0
        raise MembershipError(
            f"hydration of {candidate_id} did not converge"
        )

    def replace_segment(self, pg_index: int, failed_segment: str) -> Process:
        """The full Figure 5 flow: add candidate, hydrate, finalize."""
        return Process(
            self.loop, self._replace(pg_index, failed_segment)
        )

    def _replace(self, pg_index: int, failed_segment: str):
        candidate_id = self.begin_segment_replacement(
            pg_index, failed_segment
        )
        yield self.hydrate_segment(pg_index, candidate_id).completion
        self.finalize_segment_replacement(pg_index, failed_segment)
        return candidate_id

    # ------------------------------------------------------------------
    # Heat management / planned migration (sections 1 and 4)
    # ------------------------------------------------------------------
    def migrate_segment(self, pg_index: int, segment_id: str) -> Process:
        """Move a HEALTHY segment to a fresh node (heat management,
        planned software upgrades).

        Exactly the Figure 5 flow -- the paper uses the same membership
        machinery for "unexpected failures, heat management, as well as
        planned software upgrades" -- except the incumbent keeps serving
        throughout and is only decommissioned after the change finalizes.
        """
        return Process(self.loop, self._migrate(pg_index, segment_id))

    def _migrate(self, pg_index: int, segment_id: str):
        candidate = self.begin_segment_replacement(pg_index, segment_id)
        yield self.hydrate_segment(pg_index, candidate).completion
        self.finalize_segment_replacement(pg_index, segment_id)
        # Decommission the old node only now: durable state was never
        # discarded before the quorum was fully repaired.
        self.network.fail_node(segment_id)
        return candidate

    # ------------------------------------------------------------------
    # Quorum-model change (section 4.1: 4/6 -> 3/4 under extended AZ loss)
    # ------------------------------------------------------------------
    def adopt_degraded_quorum(self, pg_index: int, lost_az: str) -> QuorumConfig:
        """Switch a PG to a 3/4 write / 2/4 read quorum over the four
        segments outside ``lost_az``.

        "This can also be used to change the quorum model itself, for
        example, when moving from a 4/6 write quorum to 3/4 to handle the
        extended loss of an AZ."  The change rides the geometry epoch and
        restores one-extra-failure write tolerance while the AZ is gone.
        """
        survivors = [
            p.segment_id
            for p in self.metadata.segments_of_pg(pg_index)
            if p.az != lost_az
        ]
        if len(survivors) != 4:
            raise ConfigurationError(
                f"expected 4 surviving segments outside {lost_az}, got "
                f"{len(survivors)}"
            )
        config = QuorumConfig(
            write_expr=QuorumLeaf.of(survivors, 3),
            read_expr=QuorumLeaf.of(survivors, 2),
        ).prove()
        self.metadata.set_quorum_override(pg_index, config)
        self._bump_geometry_epoch(pg_index)
        return config

    def restore_standard_quorum(self, pg_index: int) -> None:
        """The AZ came back: return to the 4/6 model (epoch bump)."""
        self.metadata.clear_quorum_override(pg_index)
        self._bump_geometry_epoch(pg_index)

    def _bump_geometry_epoch(self, pg_index: int) -> None:
        driver = self.writer.driver
        new_epochs = driver.epochs.bump_geometry()
        driver.configure_pg(pg_index)
        driver.quorum_rpc(
            pg_index,
            lambda _m: EpochWrite(
                pg_index=pg_index,
                epochs=driver.epochs,
                new_epochs=new_epochs,
            ),
            quorum="write",
        )
        driver.adopt_epochs(new_epochs)

    # ------------------------------------------------------------------
    # Point-in-time restore from the S3 archive (section 2.1's offloaded
    # backup/restore)
    # ------------------------------------------------------------------
    @classmethod
    def restore_from_backup(
        cls,
        source: "AuroraCluster",
        as_of_ms: float | None = None,
        seed: int | None = None,
    ) -> "AuroraCluster":
        """Build a brand-new cluster from the source's S3 snapshots.

        Each fresh segment restores the newest snapshot taken at or before
        ``as_of_ms`` (source simulation time; default: everything).  The
        new writer then runs ordinary crash recovery against the restored
        fleet -- restore IS recovery against archived state -- after which
        gossip/hydration level out any per-segment skew -- including a
        segment with no such snapshot (S3 GC keeps the newest two per
        segment), which starts empty.  When the segments that have one do
        not form a write quorum of their protection group, or include no
        full segment (the only kind a snapshot gives block images: Aurora's
        full segments, Taurus's page stores), nothing could level that
        group out: this raises :class:`RecoveryError`, naming a segment
        without one and its oldest retained snapshot, instead of restoring
        an empty volume.
        """
        cluster = cls.build(
            seed=seed if seed is not None else source.config.seed + 1,
            bootstrap=False,
            pg_count=source.config.pg_count,
            blocks_per_pg=source.config.blocks_per_pg,
            full_tail=source.config.full_tail,
            backend=source.config.backend,
        )
        retained: dict[str, list] = {}
        for obj in source.s3.objects.values():
            retained.setdefault(obj.segment_id, []).append(obj)
        chosen = {}
        for segment_id in cluster.nodes:
            usable = [
                obj
                for obj in retained.get(segment_id, ())
                if as_of_ms is None or obj.taken_at <= as_of_ms
            ]
            if usable:
                chosen[segment_id] = max(usable, key=lambda obj: obj.scl)
        for pg_index in cluster.metadata.pg_indexes():
            quorum = cluster.metadata.quorum_config(pg_index)
            full = {
                p.segment_id
                for p in cluster.metadata.full_segments_of_pg(pg_index)
            }
            if not quorum.write_satisfied(frozenset(chosen)):
                missing = min(quorum.members - chosen.keys())
            elif not full & chosen.keys():
                missing = min(full)
            else:
                continue
            oldest = min(
                retained.get(missing, ()),
                key=lambda obj: obj.taken_at,
                default=None,
            )
            raise RecoveryError(
                f"cannot restore protection group {pg_index} as of "
                f"{as_of_ms} ms: segment {missing} has no snapshot taken "
                "at or before it, "
                + (
                    "and S3 retains none"
                    if oldest is None
                    else f"its oldest retained snapshot {oldest.key} was "
                    f"taken at {oldest.taken_at:g} ms"
                )
            )
        for segment_id, obj in chosen.items():
            cluster.nodes[segment_id].segment.restore_from_snapshot(
                obj.payload
            )
        process = cluster.writer.recover()
        Session(cluster.writer).drive(process)
        return cluster

    # ------------------------------------------------------------------
    # Volume growth (section 4.1's geometry epoch)
    # ------------------------------------------------------------------
    def grow_volume(self, additional_pgs: int = 1) -> None:
        """Append protection groups and bump the geometry epoch."""
        first_new = self.metadata.geometry.pg_count
        self.metadata.geometry.grow(additional_pgs)
        for pg_index in range(first_new, first_new + additional_pgs):
            self._create_protection_group(pg_index)
            for placement in self.metadata.segments_of_pg(pg_index):
                self.nodes[placement.segment_id].start()
        driver = self.writer.driver
        new_epochs = driver.epochs.bump_geometry()
        driver.configure_all_pgs()
        for pg_index in range(first_new, first_new + additional_pgs):
            driver.quorum_rpc(
                pg_index,
                lambda _m, pg_index=pg_index: EpochWrite(
                    pg_index=pg_index,
                    epochs=driver.epochs,
                    new_epochs=new_epochs,
                ),
                quorum="write",
            )
        driver.adopt_epochs(new_epochs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nodes_of_pg(self, pg_index: int) -> list[StorageNode]:
        return [
            self.nodes[p.segment_id]
            for p in self.metadata.segments_of_pg(pg_index)
        ]

    def segment_scls(self, pg_index: int) -> dict[str, int]:
        return {
            node.name: node.segment.scl for node in self.nodes_of_pg(pg_index)
        }
