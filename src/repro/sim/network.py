"""Message-passing network between named actors.

The network models the paper's deployment: nodes live in Availability Zones;
links within an AZ are fast, links across AZs slower; nodes can crash and
recover; AZs can fail wholesale; arbitrary partitions can be injected.

Two communication styles are offered:

- :meth:`Network.send` -- one-way, fire-and-forget.  This is what Aurora's
  write path uses: the driver streams redo records and acknowledgements flow
  back as independent one-way messages.
- :meth:`Network.rpc` -- request/response with a :class:`Future` resolved on
  reply.  Used for reads, gossip queries, and the consensus baselines.

If either endpoint is down or the pair is partitioned at *delivery* time the
message is silently dropped, exactly as a real network loses packets during a
failure -- the protocols above must tolerate this (the paper, section 2.3:
"since any given write may be lost for any reason we need to tolerate missing
writes in the storage nodes").

Message counts per payload type are tracked in :attr:`Network.stats`; the
consensus-comparison benchmarks read them to report messages-per-commit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import EventLoop, Future
from repro.sim.latency import (
    FixedLatency,
    LatencyModel,
    cross_az_link,
    intra_az_link,
)


@dataclass(slots=True)
class Message:
    """A delivered network message.

    ``request_id`` is non-None for RPC requests (replies carry the same id).
    Actors answer an RPC by calling :meth:`Network.reply` with the original
    message.
    """

    src: str
    dst: str
    payload: Any
    send_time: float
    deliver_time: float
    request_id: int | None = None
    is_reply: bool = False


class Actor:
    """Base class for network-attached components.

    Subclasses override :meth:`on_message`.  Attaching an actor to the
    network gives it ``self.network`` and ``self.loop`` handles.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: "Network" | None = None

    @property
    def loop(self) -> EventLoop:
        if self.network is None:
            raise SimulationError(f"actor {self.name} is not attached")
        return self.network.loop

    def on_message(self, message: Message) -> None:
        raise NotImplementedError

    def on_crash(self) -> None:
        """Hook invoked when the failure injector crashes this node."""

    def on_restart(self) -> None:
        """Hook invoked when the failure injector restores this node."""


@dataclass(slots=True)
class _NodeState:
    az: str | None
    actor: Actor | None = None
    up: bool = True
    latency_scale: float = 1.0


@dataclass(slots=True)
class _Route:
    """What the fabric knows about one ordered ``(src, dst)`` pair.

    Everything here is derived from control-plane state (AZ placement,
    latency overrides and scales, WAN links, partitions, quarantines) and is
    recomputed only after one of those changes; see
    :meth:`Network._drop_routes`.  The two endpoints are held by reference,
    so ``up`` and ``actor`` -- which crash, restore and ``set_actor`` flip
    without telling the table -- are always read live.
    """

    src_node: _NodeState
    dst_node: _NodeState
    #: The link's latency distribution: override, local, intra- or cross-AZ.
    model: LatencyModel
    #: ``src.latency_scale * dst.latency_scale``.
    scale: float
    #: The :class:`repro.sim.wan.WanLink` the pair crosses, if any.
    wan: Any
    #: Partitioned or quarantined: dropped at delivery time.
    blocked: bool


@dataclass
class NetworkStats:
    """Counters exposed for benchmarks and assertions.

    ``detailed`` arms per-payload-type accounting in :attr:`by_type`.  It
    defaults to on (benchmarks and tests read the breakdown); long sweeps
    that only need aggregate counts switch to the lite mode via
    :meth:`Network.set_stats_detail` and skip the per-message ``Counter``
    update on the hot path.

    Batched payloads (``WriteBatch``, ``ReplicationFrame``) are counted
    twice over: once as a wire message under the payload class name, and
    once per contained record under ``"<ClassName>.records"`` so batching
    ratios stay observable.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    by_type: Counter = field(default_factory=Counter)
    detailed: bool = True
    #: Wire-byte accounting for boxcar payloads that carry a size model
    #: (:class:`~repro.storage.messages.WriteBatch`): modelled bytes
    #: actually sent (delta-encoded LSNs, elided payloads) versus the
    #: uncompressed bytes of the same logical records.  Ratio =
    #: ``wire_bytes_sent / logical_bytes_sent`` is the on-wire compression
    #: factor benchmarks report alongside write amplification.
    wire_bytes_sent: int = 0
    logical_bytes_sent: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
        }


def payload_type_name(payload: Any) -> str:
    """Human-readable payload class name used for per-type stats."""
    return type(payload).__name__


class Network:
    """The simulated network fabric."""

    def __init__(
        self,
        loop: EventLoop,
        rng: random.Random,
        intra_az: LatencyModel | None = None,
        cross_az: LatencyModel | None = None,
        local: LatencyModel | None = None,
    ) -> None:
        self.loop = loop
        self.rng = rng
        self.intra_az = intra_az if intra_az is not None else intra_az_link()
        self.cross_az = cross_az if cross_az is not None else cross_az_link()
        self.local = local if local is not None else FixedLatency(0.01)
        self.stats = NetworkStats()
        self._nodes: dict[str, _NodeState] = {}
        self._link_overrides: dict[tuple[str, str], LatencyModel] = {}
        # Partitioned name-pairs, refcounted: independent injectors (a
        # chaos schedule and a planted scenario, say) may partition
        # overlapping pairs, and one healing must not un-partition the
        # other's still-active isolation.
        self._partitions: dict[frozenset[str], int] = {}
        # Quarantined names: all traffic to/from the name is dropped
        # except peers in its allowlist.  Unlike a pairwise partition, a
        # quarantine also covers nodes *added after* it is installed --
        # the hole a snapshot-of-peers partition cannot close.
        self._quarantines: dict[str, frozenset[str]] = {}
        self._next_request_id = 0
        self._pending_rpcs: dict[int, Future] = {}
        self._taps: list[Callable[[Message], None]] = []
        # WAN policies per unordered pair (see repro.sim.wan.WanLink):
        # the link decides loss and latency for every message crossing
        # the pair, from its own rng.  Resolved into the pair's route.
        self._wan_links: dict[frozenset[str], Any] = {}
        # Route table, filled lazily per ordered (src, dst) pair and dropped
        # whole by every mutator of what a route caches.  A message compares
        # nothing but this one entry on its way out and on its way in.
        self._routes: dict[tuple[str, str], _Route] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(
        self, name: str, az: str | None = None, actor: Actor | None = None
    ) -> None:
        """Register a node; each name may only be added once."""
        if name in self._nodes:
            raise ConfigurationError(f"node {name!r} already registered")
        self._nodes[name] = _NodeState(az=az, actor=actor)
        if actor is not None:
            actor.network = self

    def attach(self, actor: Actor, az: str | None = None) -> None:
        """Register ``actor`` under its own name."""
        self.add_node(actor.name, az=az, actor=actor)

    def set_actor(self, name: str, actor: Actor) -> None:
        self._node(name).actor = actor
        actor.network = self

    def az_of(self, name: str) -> str | None:
        return self._node(name).az

    def nodes(self) -> list[str]:
        return list(self._nodes)

    def set_link_latency(self, a: str, b: str, model: LatencyModel) -> None:
        """Override latency for the (unordered) pair ``a``-``b``."""
        self._link_overrides[self._pair(a, b)] = model
        self._drop_routes()

    def set_wan_link(self, a: str, b: str, wan: Any) -> None:
        """Route the (unordered) pair ``a``-``b`` over a lossy WAN.

        ``wan`` is a :class:`repro.sim.wan.WanLink`; its :meth:`plan`
        decides per message whether the link drops it and, if not, the
        total one-way latency (RTT distribution, bandwidth queueing,
        reorder).  Partitions and quarantines still apply at delivery
        time on top of the WAN's own loss.
        """
        self._wan_links[self._pair(a, b)] = wan
        self._drop_routes()

    # ------------------------------------------------------------------
    # Failure state
    # ------------------------------------------------------------------
    def is_up(self, name: str) -> bool:
        return self._node(name).up

    def fail_node(self, name: str) -> None:
        node = self._node(name)
        if node.up:
            node.up = False
            if node.actor is not None:
                node.actor.on_crash()

    def restore_node(self, name: str) -> None:
        node = self._node(name)
        if not node.up:
            node.up = True
            if node.actor is not None:
                node.actor.on_restart()

    def set_latency_scale(self, name: str, factor: float) -> None:
        """Make every message to/from ``name`` slower by ``factor``."""
        if factor <= 0:
            raise ConfigurationError(f"factor must be > 0, got {factor}")
        self._node(name).latency_scale = factor
        self._drop_routes()

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Drop all traffic between ``group_a`` and ``group_b``."""
        for a in group_a:
            for b in group_b:
                pair = self._pair(a, b)
                self._partitions[pair] = self._partitions.get(pair, 0) + 1
        self._drop_routes()

    def heal_partition(self, group_a: set[str], group_b: set[str]) -> None:
        for a in group_a:
            for b in group_b:
                pair = self._pair(a, b)
                count = self._partitions.get(pair, 0)
                if count > 1:
                    self._partitions[pair] = count - 1
                elif count == 1:
                    del self._partitions[pair]
        self._drop_routes()

    def heal_all_partitions(self) -> None:
        self._partitions.clear()
        self._drop_routes()

    def is_partitioned(self, a: str, b: str) -> bool:
        return self._pair(a, b) in self._partitions

    def quarantine(self, name: str, allow: set[str] = frozenset()) -> None:
        """Drop all traffic to/from ``name`` except peers in ``allow``.

        Covers peers that do not exist yet: ``name`` is just a key, so a
        quarantine can isolate a node from members the cluster will only
        create later (candidates, recovered writers), which a pairwise
        :meth:`partition` against a snapshot of current nodes cannot.
        """
        self._quarantines[name] = frozenset(allow)
        self._drop_routes()

    def lift_quarantine(self, name: str) -> None:
        self._quarantines.pop(name, None)
        self._drop_routes()

    def is_quarantined(self, a: str, b: str) -> bool:
        if a == b:
            return False  # a node always reaches itself
        for us, peer in ((a, b), (b, a)):
            allow = self._quarantines.get(us)
            if allow is not None and peer not in allow:
                return True
        return False

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any) -> None:
        """One-way message; silently lost if the path is unavailable."""
        self._transmit(src, dst, payload, request_id=None, is_reply=False)

    def rpc(self, src: str, dst: str, payload: Any) -> Future:
        """Request/response; the future resolves with the reply payload.

        The future never resolves if the request or reply is lost -- the
        caller is responsible for hedging or retrying, which is faithful to
        the paper's design (section 3.1 handles exactly this case without
        timeouts).
        """
        request_id = self._next_request_id
        self._next_request_id += 1
        future = Future(self.loop)
        self._pending_rpcs[request_id] = future
        self._transmit(src, dst, payload, request_id=request_id, is_reply=False)
        return future

    def reply(self, request: Message, payload: Any) -> None:
        """Answer an RPC request message."""
        if request.request_id is None:
            raise SimulationError("cannot reply to a one-way message")
        self._transmit(
            request.dst,
            request.src,
            payload,
            request_id=request.request_id,
            is_reply=True,
        )

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Observe every delivered message (tracing, debugging, benches)."""
        self._taps.append(tap)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _node(self, name: str) -> _NodeState:
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    @staticmethod
    def _pair(a: str, b: str) -> frozenset[str]:
        return frozenset((a, b))

    def set_stats_detail(self, detailed: bool) -> None:
        """Toggle per-payload-type accounting (lite mode when ``False``)."""
        self.stats.detailed = detailed

    def _drop_routes(self) -> None:
        """Forget every resolved route; called by each mutator of what a
        route caches, and by nothing else."""
        self._routes.clear()

    def _resolve_route(self, src: str, dst: str) -> _Route:
        """Derive the route of ``(src, dst)`` from the control-plane state
        and remember it until the next mutator runs.

        Resolution is lazy, so a pair is first looked at when a message
        crosses it: a quarantine installed before a node existed covers
        that node like any other, with nothing to invalidate in
        :meth:`add_node`.
        """
        src_node = self._node(src)
        dst_node = self._node(dst)
        pair = self._pair(src, dst)
        model = self._link_overrides.get(pair)
        if model is None:
            if src == dst:
                model = self.local
            elif src_node.az is not None and src_node.az == dst_node.az:
                model = self.intra_az
            else:
                model = self.cross_az
        route = self._routes[(src, dst)] = _Route(
            src_node=src_node,
            dst_node=dst_node,
            model=model,
            scale=src_node.latency_scale * dst_node.latency_scale,
            wan=self._wan_links.get(pair),
            blocked=(
                self.is_partitioned(src, dst) or self.is_quarantined(src, dst)
            ),
        )
        return route

    def _transmit(
        self,
        src: str,
        dst: str,
        payload: Any,
        request_id: int | None,
        is_reply: bool,
    ) -> None:
        route = self._routes.get((src, dst))
        if route is None:
            route = self._resolve_route(src, dst)
        stats = self.stats
        stats.messages_sent += 1
        if stats.detailed:
            name = type(payload).__name__
            stats.by_type[name] += 1
            if getattr(payload, "is_boxcar", False):
                stats.by_type[name + ".records"] += payload.boxcar_count()
                wire = getattr(payload, "wire_bytes", 0)
                if wire:
                    stats.wire_bytes_sent += wire
                    stats.logical_bytes_sent += payload.logical_bytes
        now = self.loop.now
        if not route.src_node.up:
            self._drop(request_id)
            return
        if route.wan is not None:
            latency = route.wan.plan(src, payload, now)
            if latency is None:
                self._drop(request_id)
                return
        else:
            latency = route.model.sample(self.rng) * route.scale
        deliver_time = now + latency
        self.loop.schedule_at(
            deliver_time,
            self._deliver,
            Message(
                src, dst, payload, now, deliver_time, request_id, is_reply
            ),
        )

    def _drop(self, request_id: int | None) -> None:
        """The fabric lost a message.  If it was an RPC request or reply,
        nothing can resolve that RPC's future any more, so stop tracking it
        (the caller's future stays pending: hedging and retries are the
        caller's business)."""
        self.stats.messages_dropped += 1
        if request_id is not None:
            self._pending_rpcs.pop(request_id, None)

    def _deliver(self, message: Message) -> None:
        route = self._routes.get((message.src, message.dst))
        if route is None:
            route = self._resolve_route(message.src, message.dst)
        node = route.dst_node
        if not node.up or route.blocked:
            self._drop(message.request_id)
            return
        self.stats.messages_delivered += 1
        for tap in self._taps:
            tap(message)
        if message.is_reply:
            future = self._pending_rpcs.pop(message.request_id, None)
            if future is not None and not future.done:
                future.set_result(message.payload)
            return
        if node.actor is None:
            raise SimulationError(
                f"message delivered to node {message.dst!r} with no actor"
            )
        node.actor.on_message(message)
