"""Storage cost amplification (section 4.2).

"In Aurora, a protection group is composed of three full segments, which
store both redo log records and materialized data blocks, and three tail
segments, which contain redo log records alone.  Since most databases use
much more space for data blocks than for redo logs, this yields a cost
amplification closer to three copies of the data rather than a full six."

:class:`CostModel` computes the amplification factor (bytes stored per byte
of user data) for any segment mix, given the block:log space ratio, and the
resulting price per user GB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SegmentMix:
    """How many copies store blocks+log versus log only."""

    full_segments: int
    tail_segments: int

    def __post_init__(self) -> None:
        if self.full_segments < 1 or self.tail_segments < 0:
            raise ConfigurationError(
                "need at least one full segment and non-negative tails"
            )

    @property
    def total(self) -> int:
        return self.full_segments + self.tail_segments

    @classmethod
    def from_replication(cls, replication) -> "SegmentMix":
        """The mix implied by a backend's
        :class:`~repro.storage.backend.ReplicationConfig`: block-holding
        copies versus log-only copies (Aurora full/tail tails and Taurus
        log stores alike store redo without materialized blocks)."""
        return cls(
            full_segments=replication.full_copies,
            tail_segments=replication.log_only_copies,
        )


#: The paper's designs.
ALL_FULL_V6 = SegmentMix(full_segments=6, tail_segments=0)
FULL_TAIL_V6 = SegmentMix(full_segments=3, tail_segments=3)
#: Taurus's log/page split: 2 page stores + 3 log stores.
TAURUS_MIX = SegmentMix(full_segments=2, tail_segments=3)


def sync_write_amplification(replication) -> int:
    """Copies of each redo byte crossing the wire before the commit ack.

    Aurora ships every batch to all six segments; Taurus only to its
    three log stores (page stores learn via gossip off the commit path).
    """
    return replication.sync_write_copies


class CostModel:
    """Bytes-stored amplification for a protection-group segment mix.

    ``log_to_block_ratio`` is the steady-state ratio of retained redo-log
    bytes to materialized data-block bytes (small: logs are trimmed as
    blocks coalesce and backups complete; 0.05-0.2 is typical).
    """

    def __init__(self, log_to_block_ratio: float = 0.1) -> None:
        if log_to_block_ratio < 0:
            raise ConfigurationError("log_to_block_ratio must be >= 0")
        self.log_to_block_ratio = log_to_block_ratio

    def amplification(self, mix: SegmentMix) -> float:
        """Bytes stored across the PG per byte of user data.

        Full segments store blocks (1.0) + log; tail segments store only
        the log.
        """
        log = self.log_to_block_ratio
        per_full = 1.0 + log
        per_tail = log
        return mix.full_segments * per_full + mix.tail_segments * per_tail

    def savings_vs_all_full(self, mix: SegmentMix) -> float:
        """Fractional byte savings of ``mix`` relative to six full copies."""
        baseline = self.amplification(ALL_FULL_V6)
        return 1.0 - self.amplification(mix) / baseline

    def price_per_user_gb(
        self, mix: SegmentMix, raw_price_per_gb_month: float
    ) -> float:
        """What one user GB costs per month under this mix."""
        return self.amplification(mix) * raw_price_per_gb_month

    def sweep_ratios(
        self, mix: SegmentMix, ratios: list[float]
    ) -> list[tuple[float, float]]:
        """(ratio, amplification) series for sensitivity plots."""
        results = []
        for ratio in ratios:
            model = CostModel(log_to_block_ratio=ratio)
            results.append((ratio, model.amplification(mix)))
        return results


def measured_amplification_from_cluster(cluster) -> dict[str, float]:
    """Empirical cross-check: count bytes actually held by a simulated
    cluster's segments (block versions as block bytes, hot log as log
    bytes), normalized per byte of latest user data.
    """
    import sys

    block_bytes = 0
    log_bytes = 0
    user_bytes = 0
    seen_user_blocks: set[int] = set()
    for node in cluster.nodes.values():
        segment = node.segment
        for lsn in segment.hot_log_lsns():
            log_bytes += sys.getsizeof(segment.record_at(lsn).payload)
        for block, chain in segment.blocks.items():
            for version in chain.versions:
                size = sum(
                    sys.getsizeof(k) + sys.getsizeof(v)
                    for k, v in version.image.items()
                )
                block_bytes += size
                if block not in seen_user_blocks and version.lsn == chain.latest_lsn:
                    user_bytes += size
                    seen_user_blocks.add(block)
    total = block_bytes + log_bytes
    return {
        "block_bytes": float(block_bytes),
        "log_bytes": float(log_bytes),
        "user_bytes": float(max(user_bytes, 1)),
        "amplification": total / max(user_bytes, 1),
    }


def wire_compression_from_network(stats) -> dict[str, float]:
    """On-wire write amplification under redo compression.

    ``stats`` is a :class:`~repro.sim.network.NetworkStats` captured in
    detailed mode: every transmitted WriteBatch contributes its modelled
    compressed size (``wire_bytes_sent``) and the uncompressed size of the
    same records (``logical_bytes_sent``) *per fan-out copy*, so the ratio
    is the network-level savings of delta-encoded LSNs plus superseded-
    payload elision -- the honest denominator for bench C6's wire numbers.
    """
    wire = float(stats.wire_bytes_sent)
    logical = float(stats.logical_bytes_sent)
    return {
        "wire_bytes": wire,
        "logical_bytes": logical,
        "compression_ratio": logical / max(wire, 1.0),
        "savings_pct": (
            100.0 * (1.0 - wire / logical) if logical else 0.0
        ),
    }
