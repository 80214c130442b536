"""Lossy, high-RTT wide-area links and a reliable framing protocol.

The intra-region network (:mod:`repro.sim.network`) models links that are
slow or partitioned but otherwise honest: a message that is delivered is
delivered once, in latency order.  A cross-region WAN is meaner -- packets
are *lost* routinely (not just during failures), latency is two orders of
magnitude higher with a heavy tail, bandwidth is capped, and independent
routing means reordering is normal.  This module adds both halves of the
geo-replication transport:

- :class:`WanLink` -- a per-link policy installed into a
  :class:`~repro.sim.network.Network` via :meth:`Network.set_wan_link`.
  Every message crossing the pair samples loss, latency (default
  :func:`repro.sim.latency.wan_link`), a serialization delay against a
  bandwidth cap, and optional extra reorder delay, from the link's **own**
  RNG so installing a WAN never perturbs the intra-region random stream.
  A *brownout* (loss/RTT spike) can be imposed and lifted at runtime.

- :class:`WanSender` / :class:`WanReceiver` -- a retransmission/ack layer
  making the lossy link reliable and FIFO: sequence-numbered
  :class:`WanFrame`\\ s, cumulative :class:`WanAck`\\ s, exponential
  backoff with jitter (the shared :mod:`repro.core.retry` policy), bounded
  sender-side buffering with a backpressure signal, and idle
  :class:`WanHeartbeat`\\ s that carry liveness (and piggybacked sender
  state) even when no data flows.  The receiver delivers a **gapless
  in-order prefix** of offered payloads, exactly once, no matter what the
  link drops, duplicates, or reorders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.retry import Backoff, RetryPolicy
from repro.errors import ConfigurationError
from repro.sim.events import EventLoop
from repro.sim.latency import LatencyModel, wan_link


# ----------------------------------------------------------------------
# Wire payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WanFrame:
    """One sequenced unit on the WAN; ``payload`` is opaque to the link."""

    seq: int
    payload: Any
    #: Relative size for the bandwidth model (e.g. records carried).
    wan_size: int = 1


@dataclass(frozen=True, slots=True)
class WanAck:
    """Cumulative acknowledgement: every frame ``seq <= cumulative`` has
    been received (and delivered in order) by the receiver.  ``info``
    carries opaque receiver state back to the sender -- the geo tier uses
    it for the secondary region's applied-VDL frontier."""

    cumulative: int
    info: Any = None


@dataclass(frozen=True, slots=True)
class WanHeartbeat:
    """Unsequenced liveness probe sent when the data stream is idle (or
    stalled); ``info`` piggybacks sender state (the geo tier ships the
    primary's epochs and VDL).  Receivers ack heartbeats like frames, so
    a healthy-but-idle link keeps both directions' liveness fresh."""

    info: Any = None


# ----------------------------------------------------------------------
# The lossy link itself
# ----------------------------------------------------------------------
#: Extra delay applied to reordered messages (ms).
REORDER_EXTRA_MS = 20.0


@dataclass
class WanConfig:
    """Shape of one wide-area link (times in simulated ms)."""

    #: One-way latency model (default ~35 ms log-normal).
    latency: LatencyModel | None = None
    #: Independent per-message loss probability in [0, 1).
    loss_rate: float = 0.02
    #: Payload units per ms, or ``None`` for an uncapped link.  Messages
    #: queue behind each other per direction (serialization delay).
    bandwidth_per_ms: float | None = None
    #: Probability a delivered message is held back an extra beat.
    reorder_rate: float = 0.05
    #: Seed for the link's private RNG (keeps the owning simulation's
    #: random stream untouched).
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.reorder_rate <= 1.0:
            raise ConfigurationError("reorder_rate must be in [0, 1]")
        if self.bandwidth_per_ms is not None and self.bandwidth_per_ms <= 0:
            raise ConfigurationError("bandwidth_per_ms must be > 0")


@dataclass
class WanStats:
    messages_lost: int = 0
    #: Cumulative serialization wait imposed by the bandwidth cap.
    queueing_ms: float = 0.0


class WanLink:
    """Loss/latency/bandwidth/reorder policy for one network pair.

    Installed via :meth:`repro.sim.network.Network.set_wan_link`; the
    network consults :meth:`plan` for every message crossing the pair and
    drops the message when it returns ``None``.  Both directions share
    the link (acks are as lossy as data) but queue independently against
    the bandwidth cap.
    """

    def __init__(self, config: WanConfig | None = None) -> None:
        self.config = config if config is not None else WanConfig()
        self.latency = (
            self.config.latency
            if self.config.latency is not None
            else wan_link()
        )
        self.rng = random.Random(self.config.seed)
        self.stats = WanStats()
        self._busy_until: dict[str, float] = {}
        #: Active brownout, as (loss_rate, latency_factor) or ``None``.
        self._brownout: tuple[float, float] | None = None

    # -- degraded-mode control ----------------------------------------
    def set_brownout(
        self, loss_rate: float, latency_factor: float = 1.0
    ) -> None:
        """Impose a loss/RTT spike until :meth:`clear_brownout`."""
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError("brownout loss_rate must be in [0, 1)")
        if latency_factor <= 0:
            raise ConfigurationError("latency_factor must be > 0")
        self._brownout = (loss_rate, latency_factor)

    def clear_brownout(self) -> None:
        self._brownout = None

    @property
    def in_brownout(self) -> bool:
        return self._brownout is not None

    # -- the per-message verdict --------------------------------------
    def plan(self, src: str, payload: Any, now: float) -> float | None:
        """Latency for one message, or ``None`` if the link eats it."""
        if self._brownout is not None:
            loss_rate, latency_factor = self._brownout
        else:
            loss_rate, latency_factor = self.config.loss_rate, 1.0
        if loss_rate > 0.0 and self.rng.random() < loss_rate:
            self.stats.messages_lost += 1
            return None
        delay = self.latency.sample(self.rng) * latency_factor
        bandwidth = self.config.bandwidth_per_ms
        if bandwidth is not None:
            size = getattr(payload, "wan_size", 1)
            serialize = size / bandwidth
            start = max(now, self._busy_until.get(src, 0.0))
            self._busy_until[src] = start + serialize
            queued = (start - now) + serialize
            self.stats.queueing_ms += queued
            delay += queued
        if (
            self.config.reorder_rate > 0.0
            and self.rng.random() < self.config.reorder_rate
        ):
            delay += REORDER_EXTRA_MS
        return delay


# ----------------------------------------------------------------------
# Reliable framing over the lossy link
# ----------------------------------------------------------------------
#: Retransmission pacing (jittered so concurrent links decorrelate).
RETRANSMIT = RetryPolicy(base_ms=120.0, cap_ms=960.0, jitter=0.2)
#: Retransmission check cadence (ms).
POLL_MS = 25.0


@dataclass
class WanSenderConfig:
    """Knobs for the sending half of the reliable layer."""

    #: Oldest unacked frames re-sent per retransmission burst.
    retransmit_window: int = 32
    #: Hard bound on buffered (unacked + queued) frames; :meth:`offer`
    #: refuses beyond it.
    buffer_limit: int = 16_384
    #: Backpressure trips at this fraction of the buffer.
    high_water_fraction: float = 0.75
    #: Idle heartbeat cadence.
    heartbeat_ms: float = 200.0
    #: Seed for retransmission jitter.
    seed: int = 1


class WanSender:
    """Sequencing, retransmission, and bounded buffering.

    ``transmit`` puts one wire payload (:class:`WanFrame`,
    :class:`WanHeartbeat`) on the link; the owner must route incoming
    :class:`WanAck`\\ s to :meth:`on_ack`.  ``heartbeat_info`` (when
    given) is called at each heartbeat to snapshot piggybacked state.
    """

    def __init__(
        self,
        loop: EventLoop,
        transmit: Callable[[Any], None],
        config: WanSenderConfig | None = None,
        heartbeat_info: Callable[[], Any] | None = None,
        on_ack_info: Callable[[Any], None] | None = None,
    ) -> None:
        self.loop = loop
        self.transmit = transmit
        self.config = config if config is not None else WanSenderConfig()
        self.heartbeat_info = heartbeat_info
        self.on_ack_info = on_ack_info
        self._rng = random.Random(self.config.seed)
        self._backoff = Backoff(RETRANSMIT, rng=self._rng)
        self._next_seq = 1
        #: Frames sent (or queued under a stall) and not yet cum-acked.
        self._unacked: list[WanFrame] = []
        self.cumulative_acked = 0
        self.last_ack_at = loop.now
        self.last_transmit_at = loop.now
        #: Next retransmission is allowed at this time (backoff cursor).
        self._retransmit_at = loop.now + self._backoff.next_delay()
        self._stalled_until = 0.0
        self._stopped = False
        self.frames_sent = 0
        self.frames_retransmitted = 0
        self.heartbeats_sent = 0
        self.offers_rejected = 0
        self._tick_scheduled = False
        self._schedule_tick()

    # -- public surface -----------------------------------------------
    @property
    def buffered(self) -> int:
        return len(self._unacked)

    @property
    def buffer_limit(self) -> int:
        return self.config.buffer_limit

    @property
    def backpressured(self) -> bool:
        limit = self.config.buffer_limit * self.config.high_water_fraction
        return len(self._unacked) >= limit

    @property
    def stalled(self) -> bool:
        return self.loop.now < self._stalled_until

    def offer(self, payload: Any, size: int = 1) -> bool:
        """Enqueue one payload for reliable delivery.  Returns ``False``
        (and drops the payload) when the buffer bound is hit -- the
        caller decides what backpressure means at its layer."""
        if self._stopped or len(self._unacked) >= self.config.buffer_limit:
            self.offers_rejected += 1
            return False
        frame = WanFrame(seq=self._next_seq, payload=payload, wan_size=size)
        self._next_seq += 1
        self._unacked.append(frame)
        if not self.stalled:
            self._transmit_frame(frame)
        return True

    def stall(self, duration_ms: float) -> None:
        """Stop emitting *data* frames for ``duration_ms`` (heartbeats
        keep flowing -- a stalled stream is not a dead region).  Queued
        frames flush when the stall lifts."""
        self._stalled_until = max(
            self._stalled_until, self.loop.now + duration_ms
        )

    def on_ack(self, ack: WanAck) -> None:
        self.last_ack_at = self.loop.now
        if ack.cumulative > self.cumulative_acked:
            self.cumulative_acked = ack.cumulative
            while self._unacked and self._unacked[0].seq <= ack.cumulative:
                self._unacked.pop(0)
            # Progress: restart the backoff ladder.
            self._backoff.reset()
            self._retransmit_at = self.loop.now + self._backoff.next_delay()
        if self.on_ack_info is not None:
            self.on_ack_info(ack.info)

    def stop(self) -> None:
        """Permanently silence the sender (region torn down or fenced)."""
        self._stopped = True
        self._unacked.clear()

    # -- internals ----------------------------------------------------
    def _transmit_frame(self, frame: WanFrame) -> None:
        self.transmit(frame)
        self.frames_sent += 1
        self.last_transmit_at = self.loop.now

    def _schedule_tick(self) -> None:
        if self._tick_scheduled or self._stopped:
            return
        self._tick_scheduled = True
        self.loop.schedule(POLL_MS, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self._stopped:
            return
        now = self.loop.now
        if not self.stalled and self._unacked and now >= self._retransmit_at:
            for frame in self._unacked[: self.config.retransmit_window]:
                self._transmit_frame(frame)
                self.frames_retransmitted += 1
            self._retransmit_at = now + self._backoff.next_delay()
        if now - self.last_transmit_at >= self.config.heartbeat_ms:
            info = (
                self.heartbeat_info() if self.heartbeat_info is not None
                else None
            )
            self.transmit(WanHeartbeat(info=info))
            self.heartbeats_sent += 1
            self.last_transmit_at = now
        self._schedule_tick()


class WanReceiver:
    """In-order, exactly-once delivery plus cumulative acks.

    Frames at the expected sequence deliver immediately (draining any
    buffered successors); out-of-order frames wait; duplicates -- fresh
    retransmissions or stale reorders -- are dropped but still re-acked,
    so a sender whose acks were lost converges without re-applying.
    """

    def __init__(
        self,
        loop: EventLoop,
        transmit: Callable[[Any], None],
        deliver: Callable[[Any], None],
        ack_info: Callable[[], Any] | None = None,
        on_heartbeat: Callable[[Any], None] | None = None,
    ) -> None:
        self.loop = loop
        self.transmit = transmit
        self.deliver = deliver
        self.ack_info = ack_info
        self.on_heartbeat = on_heartbeat
        self._next_seq = 1
        self._pending: dict[int, Any] = {}
        self.delivered = 0
        self.duplicates = 0
        self.last_signal_at = loop.now

    @property
    def cumulative(self) -> int:
        return self._next_seq - 1

    def on_message(self, payload: Any) -> None:
        self.last_signal_at = self.loop.now
        if isinstance(payload, WanHeartbeat):
            if self.on_heartbeat is not None:
                self.on_heartbeat(payload.info)
            self._send_ack()
            return
        if isinstance(payload, WanFrame):
            self._on_frame(payload)
            return
        raise ConfigurationError(
            f"WanReceiver got unexpected payload {type(payload).__name__}"
        )

    def _on_frame(self, frame: WanFrame) -> None:
        if frame.seq < self._next_seq:
            self.duplicates += 1
        elif frame.seq == self._next_seq:
            self._deliver_one(frame.payload)
            while self._next_seq in self._pending:
                self._deliver_one(self._pending.pop(self._next_seq))
        else:
            # Out of order: hold; a duplicate of a held frame overwrites
            # itself harmlessly (same seq, same payload).
            self._pending[frame.seq] = frame.payload
        self._send_ack()

    def _deliver_one(self, payload: Any) -> None:
        self._next_seq += 1
        self.delivered += 1
        self.deliver(payload)

    def push_ack(self) -> None:
        """Send an unsolicited (cumulative, idempotent) ack.

        Owners call this when the piggybacked ``ack_info`` state changed
        *between* messages -- e.g. the geo applier's applied-VDL frontier
        advancing once the secondary quorum acks -- so the sender learns
        promptly instead of waiting for the next frame or heartbeat.
        """
        self._send_ack()

    def _send_ack(self) -> None:
        info = self.ack_info() if self.ack_info is not None else None
        self.transmit(WanAck(cumulative=self.cumulative, info=info))
