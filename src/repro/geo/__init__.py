"""Geo-replicated Global Database tier: lossy-WAN redo shipping, region
-loss failover, and audited disaster-recovery guarantees.

See :mod:`repro.geo.cluster` for the one-call entry point::

    from repro.geo import GeoCluster, GeoConfig

    geo = GeoCluster.build(GeoConfig(seed=7, ack_mode="sync"))
    geo.arm_geo_failover()
    db = geo.session()
    db.write("k", "v")          # acked only once the secondary applied it
    geo.lose_region()           # chaos: the primary region vanishes
    db.write("k", "v2")         # retries through RegionUnavailableError,
                                # lands on the promoted secondary
"""

from repro.geo.cluster import GeoCluster, GeoConfig, RegionBackend
from repro.geo.failover import (
    PROMOTED,
    GeoFailoverCoordinator,
    GeoFailoverRecord,
    GeoFailoverSummary,
)
from repro.geo.replicator import (
    ASYNC,
    SYNC,
    GeoApplier,
    GeoSender,
)

__all__ = [
    "ASYNC",
    "PROMOTED",
    "SYNC",
    "GeoApplier",
    "GeoCluster",
    "GeoConfig",
    "GeoFailoverCoordinator",
    "GeoFailoverRecord",
    "GeoFailoverSummary",
    "GeoSender",
    "RegionBackend",
]
