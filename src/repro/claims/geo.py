"""Measurements on two regions joined by a lossy WAN."""

from __future__ import annotations

from repro.claims.table import Table
from repro.geo import ASYNC, SYNC, GeoCluster, GeoConfig
from repro.sim.wan import WanConfig
from repro.verdict import percentile

GEO_SEED = 7
GEO_WRITES = 120
LOSS_RATES = (0.0, 0.05, 0.2, 0.4)


def _geo_world(backend: str, loss_rate: float, ack_mode: str) -> GeoCluster:
    return GeoCluster.build(
        GeoConfig(
            seed=GEO_SEED, ack_mode=ack_mode,
            wan=WanConfig(loss_rate=loss_rate),
        ),
        backend=backend,
    )


def geo_lag(backend: str) -> list[Table]:
    def at_loss(loss_rate: float) -> list:
        """The same seeded writes twice: async for the lag profile, sync
        for the commit latency a remote-gated commit pays."""
        geo = _geo_world(backend, loss_rate, ASYNC)
        db = geo.session()

        def true_lag() -> int:
            # Omniscient lag: the applier's own ``lag`` only counts redo
            # it KNOWS about (heartbeats are as lossy as data), which
            # underreports at high loss rates.
            return max(0, geo.primary.writer.vdl - geo.applier.applied_vdl)

        lag_samples = []
        for i in range(GEO_WRITES):
            db.write(f"k{i % 16:02d}", f"v{i}")
            geo.run_for(20.0)
            lag_samples.append(float(true_lag()))
        # Drain: retransmission rounds back off to ~1 s, so high loss
        # rates need many rounds to push the tail through the window.
        for _ in range(40):
            if true_lag() == 0:
                break
            geo.run_for(1000.0)
        final_lag = true_lag()
        sender = geo.sender.wan

        sync_geo = _geo_world(backend, loss_rate, SYNC)
        sync_db = sync_geo.session()
        commit_ms = []
        for i in range(GEO_WRITES // 4):
            start = sync_geo.loop.now
            sync_db.write(f"k{i % 16:02d}", f"v{i}")
            commit_ms.append(sync_geo.loop.now - start)
        return [
            loss_rate, sum(lag_samples) / len(lag_samples),
            percentile(lag_samples, 95), max(lag_samples), final_lag,
            sender.frames_retransmitted / max(1, sender.frames_sent),
            geo.wan.stats.messages_lost,
            percentile(commit_ms, 50), percentile(commit_ms, 95),
        ]

    return [Table(
        f"GEO: replication lag vs WAN loss rate ({GEO_WRITES} writes; lag "
        "in LSNs, sync commit in ms)",
        [("loss", ".2f"), ("lag mean", ".1f"), ("lag p95", ".0f"),
         ("lag max", ".0f"), "final", ("rtx ratio", ".2f"), "dropped",
         ("sync p50", ".1f"), ("sync p95", ".1f")],
        [at_loss(loss_rate) for loss_rate in LOSS_RATES],
    )]
