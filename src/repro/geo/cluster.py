"""A geo-replicated Global Database: two regions, one WAN, one facade.

:class:`GeoCluster` wires the whole tier together on ONE simulated event
loop and network:

- a **primary region**: an ordinary :class:`~repro.db.cluster.AuroraCluster`
  (any registered storage backend) carrying the workload;
- a **secondary region**: a second, fully independent volume whose
  storage fleet lives on region-prefixed AZs (``geo-az1`` ...) via
  :class:`RegionBackend`, so failure domains never straddle the WAN and
  a whole region can be condemned by name;
- the cross-region transport: a :class:`~repro.sim.wan.WanLink`
  installed on the sender/applier pair, with the
  :class:`~repro.geo.replicator.GeoSender` /
  :class:`~repro.geo.replicator.GeoApplier` endpoints on top;
- the disaster-recovery plane (:meth:`arm_geo_failover`): a secondary
  -region storage :class:`~repro.repair.FailureDetector` whose gossip-fed
  ``freshest_signal`` serves as the observer-liveness frontier for a
  second one watching the primary, plus the
  :class:`~repro.geo.failover.GeoFailoverCoordinator`.

The facade duck-types the surface
:class:`~repro.db.session.ClusterSession` resolves against (``writer``,
``failover_in_progress``, ``loop``, ``run_for``) and adds
``region_unavailable`` so sessions raise the typed
:class:`~repro.errors.RegionUnavailableError` while promotion is
pending: a client created before region loss keeps working across it,
transparently re-resolving to the promoted region.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.db.cluster import AuroraCluster
from repro.db.instance import InstanceState, WriterInstance
from repro.db.session import ClusterSession
from repro.geo.failover import GeoFailoverCoordinator
from repro.geo.replicator import ASYNC, GeoApplier, GeoSender
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Network
from repro.sim.wan import WanConfig, WanLink
from repro.storage.backend import SlotSpec, StorageBackend, resolve_backend


#: Name prefix / AZ prefix for the secondary region.
SECONDARY_REGION = "geo"


class RegionBackend(StorageBackend):
    """Region-scoping wrapper: delegates every policy decision to the
    wrapped backend but prefixes its AZ names, so a secondary volume's
    failure domains (``geo-az1`` ...) are disjoint from the primary's and
    AZ-level chaos in one region never touches the other."""

    def __init__(self, inner, region: str) -> None:
        self.inner = resolve_backend(inner)
        self.region = region
        self.name = f"{self.inner.name}@{region}"

    def segment_layout(self) -> tuple[SlotSpec, ...]:
        return tuple(
            SlotSpec(az=f"{self.region}-{spec.az}", kind=spec.kind)
            for spec in self.inner.segment_layout()
        )

    def replication(self):
        return self.inner.replication()

    def membership_quorum_config(self, metadata, pg_index, state):
        return self.inner.membership_quorum_config(metadata, pg_index, state)

    def write_targets(self, metadata, pg_index):
        return self.inner.write_targets(metadata, pg_index)

    def read_fallback_members(self, metadata, pg_index):
        return self.inner.read_fallback_members(metadata, pg_index)

    def tracked_members(self, metadata, pg_index):
        return self.inner.tracked_members(metadata, pg_index)

    def baseline_sources(self, metadata, pg_index):
        return self.inner.baseline_sources(metadata, pg_index)

    def max_tolerated_kills(self) -> int:
        return self.inner.max_tolerated_kills()


@dataclass
class GeoConfig:
    """Shape of the geo-replicated deployment."""

    seed: int = 42
    #: ``"sync"`` or ``"async"`` commit acknowledgement (see
    #: :mod:`repro.geo.replicator`).
    ack_mode: str = ASYNC
    wan: WanConfig = field(default_factory=WanConfig)


class GeoCluster:
    """Two wired regions plus the cross-region replication/DR plane."""

    def __init__(
        self,
        config: GeoConfig,
        primary: AuroraCluster,
        secondary: AuroraCluster,
    ) -> None:
        self.config = config
        self.primary = primary
        self.secondary = secondary
        self.sender: GeoSender | None = None
        self.applier: GeoApplier | None = None
        self.wan: WanLink | None = None
        #: Set by :meth:`lose_region`: the primary region is definitively
        #: gone (chaos-level ground truth, used to veto false-positive
        #: rollbacks, never consulted by the detection path itself).
        self.primary_lost = False
        #: True from region-loss confirmation until promotion completes;
        #: sessions surface it as :class:`RegionUnavailableError`.
        self.region_unavailable = False
        self.failover_in_progress = False
        self.promoted = False
        self.promoted_record = None
        #: DR plane (see :meth:`arm_geo_failover`).
        self.secondary_health = None
        self.geo_health = None
        self.geo_failover = None
        self.primary_writer_id = (
            primary.writer.name if primary.writer is not None else ""
        )
        self._region_partitioned = False
        self._brownout_token = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, config: GeoConfig | None = None, seed: int | None = None,
        **overrides,
    ) -> "GeoCluster":
        """Both regions on one loop, network and injector: ``overrides``
        reach :meth:`AuroraCluster.build` for each, the secondary's
        ``backend`` wrapped in a :class:`RegionBackend`."""
        config = config if config is not None else GeoConfig()
        if seed is not None:
            config.seed = seed
        primary = AuroraCluster.build(
            seed=config.seed, bootstrap=False, **overrides
        )
        overrides["backend"] = RegionBackend(
            primary.config.backend, SECONDARY_REGION
        )
        secondary = AuroraCluster.build(
            seed=config.seed,
            bootstrap=False,
            shared=primary,
            name_prefix=f"{SECONDARY_REGION}-",
            **overrides,
        )
        geo = cls(config, primary, secondary)
        geo._wire()
        geo._bootstrap()
        return geo

    def _wire(self) -> None:
        region = SECONDARY_REGION
        network = self.network
        self.applier = GeoApplier(
            f"{region}-rx", self.secondary, peer=f"{region}-tx"
        )
        network.attach(self.applier, az=f"{region}-az1")
        self.applier.start()
        self.sender = GeoSender(
            f"{region}-tx",
            self.primary.writer,
            peer=self.applier.name,
            ack_mode=self.config.ack_mode,
        )
        network.attach(self.sender, az="az1")
        self.sender.start()
        wan_config = self.config.wan
        if wan_config.seed == 0:
            # Derive a per-deployment link seed so sweeps decorrelate,
            # without touching the clusters' shared random stream.
            wan_config = dataclasses.replace(
                wan_config,
                seed=(self.config.seed * 2_654_435_761 + 1) % (2**31),
            )
        self.wan = WanLink(wan_config)
        network.set_wan_link(self.sender.name, self.applier.name, self.wan)

    def _bootstrap(self) -> None:
        writer = self.primary.writer
        writer.bootstrap()
        for _ in range(200):
            if writer.vcl >= writer.allocator.highest_allocated:
                break
            self.loop.run(until=self.loop.now + 1.0)

    # ------------------------------------------------------------------
    # ClusterSession facade
    # ------------------------------------------------------------------
    @property
    def loop(self) -> EventLoop:
        return self.primary.loop

    @property
    def network(self) -> Network:
        return self.primary.network

    @property
    def failures(self) -> FailureInjector:
        return self.primary.failures

    @property
    def ack_mode(self) -> str:
        return self.config.ack_mode

    @property
    def writer(self) -> WriterInstance | None:
        """The active region's writer; ``None`` while the active region
        is lost and promotion has not completed (sessions then raise the
        typed :class:`RegionUnavailableError` and retry)."""
        if self.promoted:
            return self.secondary.writer
        if self.region_unavailable:
            return None
        return self.primary.writer

    def run_for(self, duration_ms: float) -> None:
        self.loop.run(until=self.loop.now + duration_ms)

    def session(self) -> ClusterSession:
        """A region-failover-aware client session."""
        return ClusterSession(self)

    # ------------------------------------------------------------------
    # Auditing and the DR plane
    # ------------------------------------------------------------------
    def arm_auditors(self, primary_auditor, secondary_auditor) -> None:
        """One auditor per volume (PG indexes collide across regions, so
        sharing one would cross-wire its per-PG watermarks); the runner
        merges their violation lists."""
        self.primary.arm_auditor(primary_auditor)
        self.secondary.arm_auditor(secondary_auditor)
        self.applier.audit_probe = secondary_auditor

    def arm_geo_failover(self):
        """Attach the disaster-recovery plane; returns
        ``(monitor, coordinator)``.

        Detection is the database tier's
        :class:`~repro.repair.FailureDetector` row with one twist: the
        group is the primary alone and its only signal source is the
        primary itself (via the WAN stream the applier observes), so the
        observer-liveness frontier MUST come from somewhere else or
        silence would never accrue.  The secondary region's storage
        gossip provides it: a storage-tier detector over the secondary
        fleet keeps a continuously advancing ``freshest_signal`` with zero
        extra traffic, proving the *observer's* side of the world alive
        while the primary is quiet.
        """
        from repro.repair import DB, STORAGE, FailureDetector, pg_groups

        monitor_ref = FailureDetector(
            self.loop, STORAGE, membership=pg_groups(self.secondary.metadata)
        )
        self.secondary_health = monitor_ref
        self.applier.driver.health_probe = monitor_ref
        for node in self.secondary.nodes.values():
            node.health_probe = monitor_ref
        monitor_ref.start()
        monitor = FailureDetector(
            self.loop, DB, reference_frontier=monitor_ref.freshest_signal
        )
        self.geo_health = monitor
        monitor.track(self.primary_writer_id)
        self.applier.on_signal = (
            lambda: monitor.heard(self.primary_writer_id)
        )
        monitor.start()
        self.geo_failover = GeoFailoverCoordinator(self, monitor)
        return monitor, self.geo_failover

    def on_promoted(self, record) -> None:
        """Called by the coordinator the moment the secondary writer is
        open: flip the facade to the promoted region."""
        self.promoted = True
        self.promoted_record = record
        self.region_unavailable = False
        if self.geo_health is not None:
            self.geo_health.untrack(self.primary_writer_id)
            # One terminal region event per deployment: the monitor's
            # job is done (and the old primary must never be re-judged).
            self.geo_health.stop()

    def check_fencing(self, auditor) -> None:
        """Audited invariant (call once the run settles): the deposed
        primary never acknowledged a commit at or after promotion --
        the lease self-fence provably beat the promotion."""
        record = self.promoted_record
        if record is None or record.promoted_at is None:
            return
        writer = self.primary.writer
        last_ack = writer.stats.last_commit_ack_at
        if last_ack is not None and last_ack >= record.promoted_at:
            auditor.flag(
                "geo-stale-primary-ack",
                writer.name,
                f"stale primary acked a commit at {last_ack:.1f}ms, at or "
                f"after the secondary's promotion at "
                f"{record.promoted_at:.1f}ms (fence failed)",
            )

    # ------------------------------------------------------------------
    # Chaos surface
    # ------------------------------------------------------------------
    def _primary_names(self) -> set[str]:
        names = {self.sender.name}
        names.update(self.primary.nodes)
        names.update(self.primary.replicas)
        if self.primary.writer is not None:
            names.add(self.primary.writer.name)
        return names

    def _secondary_names(self) -> set[str]:
        names = {self.applier.name}
        names.update(self.secondary.nodes)
        if self.secondary.writer is not None:
            names.add(self.secondary.writer.name)
        return names

    def lose_region(self) -> None:
        """Chaos: the primary region vanishes wholesale (power + WAN).

        Every primary-region host is crashed and condemned -- a later
        restore event must not resurrect any of them -- and the primary's
        own monitors retire their nodes so no ghost is ever judged.  The
        writer is crashed explicitly (a network-level ``fail_node`` alone
        does not kill the instance process).
        """
        if self.primary_lost:
            return
        self.primary_lost = True
        self.region_unavailable = True
        writer = self.primary.writer
        if writer is not None and writer.state is not InstanceState.CLOSED:
            writer.crash()
        self.sender.stop()
        for name in sorted(self._primary_names()):
            self.failures.condemn_node(name)
        if self.primary.health is not None:
            for name in self.primary.nodes:
                self.primary.health.retire(name)
            self.primary.health.stop()
        if self.primary.db_health is not None:
            self.primary.db_health.stop()

    def partition_regions(self) -> None:
        """Chaos: split brain -- the WAN between the regions is cut, but
        BOTH regions stay up and the primary keeps serving until its
        lease self-fence.  Heal with :meth:`heal_regions`."""
        if self._region_partitioned:
            return
        self._region_partitioned = True
        self.network.partition(self._primary_names(), self._secondary_names())

    def heal_regions(self) -> None:
        if not self._region_partitioned:
            return
        self._region_partitioned = False
        self.network.heal_partition(
            self._primary_names(), self._secondary_names()
        )

    def wan_brownout(
        self,
        loss_rate: float,
        latency_factor: float,
        duration_ms: float,
    ) -> None:
        """Chaos: degrade (not cut) the WAN for ``duration_ms``."""
        self._brownout_token += 1
        token = self._brownout_token
        self.wan.set_brownout(loss_rate, latency_factor)

        def _clear() -> None:
            if self._brownout_token == token:
                self.wan.clear_brownout()

        self.loop.schedule(duration_ms, _clear)

    def stall_stream(self, duration_ms: float) -> None:
        """Chaos: the replication stream stops shipping data frames
        (heartbeats continue -- a stalled stream is lag, not death)."""
        self.sender.stall_stream(duration_ms)
