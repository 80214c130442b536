"""Cluster introspection reports.

Gathers the state an operator (or a curious reader of the paper) wants to
see at a glance: the consistency points, per-segment log/GC state, quorum
membership and epochs, cache/commit statistics, and network traffic --
as a plain dict (for programmatic use) and as formatted text (for the CLI).
"""

from __future__ import annotations

from typing import Any

from repro.db.cluster import AuroraCluster


def _pool_report(instance) -> dict[str, Any]:
    """One instance's buffer pool and the storage reads its misses cost."""
    cache, reads = instance.cache, instance.driver.stats
    probation, protected = cache.segment_sizes()
    return {
        "cache": {
            "blocks": len(cache),
            "probation": probation,
            "protected": protected,
            "hit_rate": round(cache.stats.hit_rate, 4),
            "evictions": cache.stats.evictions,
            "declined": cache.stats.declined,
        },
        "reads": {
            "issued": reads.reads_issued,
            "completed": reads.reads_completed,
            "hedges": reads.hedges_issued,
        },
    }


def _format_pool(instance: dict[str, Any]) -> str:
    cache, reads = instance["cache"], instance["reads"]
    return (
        f"cache: {cache['blocks']} blocks ({cache['probation']} probation / "
        f"{cache['protected']} protected), hit rate {cache['hit_rate']:.1%}, "
        f"{cache['evictions']} evictions, {cache['declined']} declined | "
        f"storage reads: {reads['completed']}/{reads['issued']} "
        f"({reads['hedges']} hedged)"
    )


def cluster_report(cluster: AuroraCluster) -> dict[str, Any]:
    """Structured snapshot of a cluster's observable state."""
    writer = cluster.writer
    driver = writer.driver
    segments = {}
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        segment = node.segment
        segments[name] = {
            "pg": segment.pg_index,
            "kind": segment.kind.value,
            "az": cluster.metadata.placement(name).az,
            "up": cluster.network.is_up(name),
            "scl": segment.scl,
            "hot_log": segment.hot_log_size,
            "blocks": len(segment.blocks),
            "gc_floor": segment.gc_floor,
            "gc_horizon": segment.gc_horizon,
            "backed_up_upto": segment.backed_up_upto,
            "epochs": {
                "volume": node.epochs.current.volume,
                "membership": node.epochs.current.membership,
                "geometry": node.epochs.current.geometry,
            },
        }
    memberships = {}
    for pg_index in cluster.metadata.pg_indexes():
        state = cluster.metadata.membership(pg_index)
        memberships[pg_index] = {
            "epoch": state.epoch,
            "stable": state.is_stable,
            "members": sorted(state.members),
            "pgcl": (
                driver.pg_trackers[pg_index].pgcl
                if pg_index in driver.pg_trackers
                else None
            ),
            "quorum_override": cluster.metadata.has_quorum_override(
                pg_index
            ),
        }
    return {
        "time_ms": cluster.loop.now,
        "writer": {
            "name": writer.name,
            "state": writer.state.value,
            "vcl": writer.vcl,
            "vdl": writer.vdl,
            "pgmrpl": writer.current_pgmrpl(),
            "next_lsn": writer.allocator.next_lsn,
            "epochs": {
                "volume": driver.epochs.volume,
                "membership": driver.epochs.membership,
                "geometry": driver.epochs.geometry,
            },
            "active_txns": writer.txns.active_count,
            "commits": {
                "requested": writer.stats.commits_requested,
                "acknowledged": writer.stats.commits_acknowledged,
                "queue_depth": driver.commit_queue.depth,
            },
            **_pool_report(writer),
        },
        "replicas": {
            name: {
                "applied_vdl": replica.applied_vdl,
                "lag": replica.replica_lag,
                "chunks_applied": replica.stats.chunks_applied,
                **_pool_report(replica),
            }
            for name, replica in cluster.replicas.items()
        },
        "protection_groups": memberships,
        "segments": segments,
        "network": {
            "sent": cluster.network.stats.messages_sent,
            "delivered": cluster.network.stats.messages_delivered,
            "dropped": cluster.network.stats.messages_dropped,
            "by_type": dict(cluster.network.stats.by_type),
        },
        "s3_snapshots": len(cluster.s3),
    }


def format_report(report: dict[str, Any]) -> str:
    """Render a report dict as readable multi-line text."""
    lines: list[str] = []
    writer = report["writer"]
    lines.append(
        f"cluster @ t={report['time_ms']:.1f} ms | writer "
        f"{writer['name']} ({writer['state']})"
    )
    lines.append(
        f"  consistency: VCL={writer['vcl']} VDL={writer['vdl']} "
        f"PGMRPL={writer['pgmrpl']} next_lsn={writer['next_lsn']}"
    )
    epochs = writer["epochs"]
    lines.append(
        f"  epochs: volume={epochs['volume']} "
        f"membership={epochs['membership']} geometry={epochs['geometry']}"
    )
    commits = writer["commits"]
    lines.append(
        f"  commits: {commits['acknowledged']}/{commits['requested']} "
        f"acked, queue depth {commits['queue_depth']}; "
        f"active txns {writer['active_txns']}"
    )
    lines.append(f"  {_format_pool(writer)}")
    for pg_index, pg in report["protection_groups"].items():
        override = " [quorum override]" if pg["quorum_override"] else ""
        lines.append(
            f"  PG{pg_index}: epoch={pg['epoch']} "
            f"{'stable' if pg['stable'] else 'IN TRANSITION'} "
            f"PGCL={pg['pgcl']}{override}"
        )
    lines.append("  segments:")
    for name, seg in report["segments"].items():
        status = "up" if seg["up"] else "DOWN"
        lines.append(
            f"    {name:12s} {seg['kind']:4s} {seg['az']} {status:4s} "
            f"scl={seg['scl']:<6d} hotlog={seg['hot_log']:<5d} "
            f"blocks={seg['blocks']:<4d} gc_floor={seg['gc_floor']}"
        )
    if report["replicas"]:
        lines.append("  replicas:")
        for name, replica in report["replicas"].items():
            lines.append(
                f"    {name}: applied_vdl={replica['applied_vdl']} "
                f"lag={replica['lag']} chunks={replica['chunks_applied']}"
            )
            lines.append(f"      {_format_pool(replica)}")
    network = report["network"]
    lines.append(
        f"  network: {network['sent']} sent / {network['delivered']} "
        f"delivered / {network['dropped']} dropped; "
        f"S3 snapshots: {report['s3_snapshots']}"
    )
    return "\n".join(lines)
