"""Durability window analysis (sections 2.1 and 4).

The paper's argument: "Assuming a 10 second window to detect and repair a
segment failure, it would require two independent segment failures as well
as an AZ failure in the same 10 second period to lose the ability to repair
a quorum."  And on fleet scale: "with six segments spread across three AZs
for every 10GB of user data, a 64TB volume has 38,400 segments."

:class:`DurabilityModel` turns those sentences into numbers: per-quorum and
per-volume probabilities of losing write or read availability (or the
ability to repair) within a repair window, under Poisson segment failures
and rare AZ events, plus the fleet-wide expectation the paper's "some small
number of quorums will be degraded" remark describes.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.storage.volume import COPIES_PER_PG, SEGMENT_SIZE_GB

#: Seconds in a (365-day) year, for MTTF conversions.
SECONDS_PER_YEAR = 365 * 24 * 3600

#: The paper's assumed detect-and-repair window (section 2.2's "Assuming a
#: 10 second window to detect and repair a segment failure...") -- the C7
#: budget the self-healing control plane is measured against.
C7_WINDOW_S = 10.0


class DurabilityModel:
    """Quorum-loss probabilities for replicated protection groups.

    Parameters
    ----------
    segment_mttf_hours:
        Mean time to failure of one segment (disk/node/switch combined).
    repair_window_s:
        Detection + repair time for a failed segment (the paper's 10 s).
    az_failures_per_year:
        Rate of whole-AZ events.
    copies_per_pg:
        Copies on the synchronous durability path (Aurora: all 6; Taurus:
        the 3 log stores -- page stores are hydrated asynchronously and do
        not hold the durability quorum).
    write_loss_failures / read_loss_failures:
        Minimum simultaneous sync-path failures that break the write /
        read quorum (Aurora: 3 and 4; a 2/3 majority quorum: 2 and 2).
    segments_per_az:
        Sync-path copies sharing one AZ (the correlated exposure).

    The defaults are exactly Aurora's 4/6 write / 3/6 read quorum; use
    :meth:`from_replication` to instantiate from a backend's
    :class:`~repro.storage.backend.ReplicationConfig`.
    """

    def __init__(
        self,
        segment_mttf_hours: float = 10_000.0,
        repair_window_s: float = 10.0,
        az_failures_per_year: float = 0.5,
        copies_per_pg: int = COPIES_PER_PG,
        write_loss_failures: int = 3,
        read_loss_failures: int = 4,
        segments_per_az: int = 2,
        az_count: int = 3,
    ) -> None:
        if min(segment_mttf_hours, repair_window_s) <= 0:
            raise ConfigurationError("MTTF and repair window must be > 0")
        if az_failures_per_year < 0:
            raise ConfigurationError("az_failures_per_year must be >= 0")
        if not 1 <= write_loss_failures <= read_loss_failures:
            raise ConfigurationError(
                "need 1 <= write_loss_failures <= read_loss_failures"
            )
        if read_loss_failures > copies_per_pg:
            raise ConfigurationError(
                "read_loss_failures cannot exceed copies_per_pg"
            )
        if not 1 <= segments_per_az <= copies_per_pg:
            raise ConfigurationError(
                "need 1 <= segments_per_az <= copies_per_pg"
            )
        self.segment_mttf_hours = segment_mttf_hours
        self.repair_window_s = repair_window_s
        self.az_failures_per_year = az_failures_per_year
        self.copies_per_pg = copies_per_pg
        self.write_loss_failures = write_loss_failures
        self.read_loss_failures = read_loss_failures
        self.segments_per_az = segments_per_az
        self.az_count = az_count

    @classmethod
    def from_replication(cls, replication, **kwargs) -> "DurabilityModel":
        """A model with quorum arithmetic taken from a backend's
        :class:`~repro.storage.backend.ReplicationConfig` (keyword
        arguments pass through: MTTF, window, AZ rate)."""
        return cls(
            copies_per_pg=replication.sync_write_copies,
            write_loss_failures=replication.write_loss_failures,
            read_loss_failures=replication.read_loss_failures,
            segments_per_az=replication.segments_per_az,
            az_count=replication.az_count,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Elementary rates
    # ------------------------------------------------------------------
    @property
    def segment_failure_rate_per_s(self) -> float:
        return 1.0 / (self.segment_mttf_hours * 3600.0)

    def p_segment_fails_in_window(self) -> float:
        """P(one given segment fails within one repair window)."""
        rate = self.segment_failure_rate_per_s * self.repair_window_s
        return 1.0 - math.exp(-rate)

    def p_az_fails_in_window(self) -> float:
        rate = (
            self.az_failures_per_year / SECONDS_PER_YEAR
        ) * self.repair_window_s
        return 1.0 - math.exp(-rate)

    # ------------------------------------------------------------------
    # Per-quorum events within one window
    # ------------------------------------------------------------------
    def _p_at_least(self, j: int, m: int) -> float:
        """P(>= j of m independent segments fail in one window)."""
        if j <= 0:
            return 1.0
        if j > m:
            return 0.0
        p = self.p_segment_fails_in_window()
        return sum(
            math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
            for k in range(j, m + 1)
        )

    def _p_quorum_loss(self, loss_failures: int) -> float:
        """P(>= ``loss_failures`` sync-path copies down in one window).

        Counts both the purely independent path and the correlated path:
        an AZ event removes ``segments_per_az`` copies at once, so only
        the remainder must fail independently alongside it.
        """
        n = self.copies_per_pg
        independent = self._p_at_least(loss_failures, n)
        p_az = self.p_az_fails_in_window()
        remainder = self._p_at_least(
            loss_failures - self.segments_per_az, n - self.segments_per_az
        )
        correlated = self.az_count * p_az * remainder
        return independent + correlated

    def p_write_quorum_loss(self) -> float:
        """P(enough copies down together to block writes).

        Aurora: >= 3 of 6 (4/6 writes unavailable) -- AZ + 1 more, or 3
        independent failures.  Taurus: >= 2 of the 3 log stores.
        """
        return self._p_quorum_loss(self.write_loss_failures)

    def p_read_quorum_loss(self) -> float:
        """P(enough copies down together to block reads and repair).

        This is the paper's data-loss-risk event: losing the read quorum
        means the volume can no longer repair itself.  Aurora: >= 4 of 6
        (AZ + 2, or 4 independent failures).
        """
        return self._p_quorum_loss(self.read_loss_failures)

    # ------------------------------------------------------------------
    # Fleet / volume scale
    # ------------------------------------------------------------------
    @staticmethod
    def segments_for_volume(volume_tb: float) -> int:
        """The paper's arithmetic: 64 TB -> 38,400 segments.

        (Decimal units, as the paper uses: 64 TB = 64,000 GB; at 10 GB per
        segment that is 6,400 protection groups x 6 copies.)
        """
        user_gb = volume_tb * 1000
        pgs = math.ceil(user_gb / SEGMENT_SIZE_GB)
        return pgs * COPIES_PER_PG

    @staticmethod
    def protection_groups_for_volume(volume_tb: float) -> int:
        return math.ceil(volume_tb * 1000 / SEGMENT_SIZE_GB)

    def windows_per_year(self) -> float:
        return SECONDS_PER_YEAR / self.repair_window_s

    def p_volume_read_loss_per_year(self, volume_tb: float) -> float:
        """P(any PG of the volume loses read quorum within a year)."""
        pgs = self.protection_groups_for_volume(volume_tb)
        p_window = self.p_read_quorum_loss()
        exposures = pgs * self.windows_per_year()
        # Rare-event complement computed in log space: p_window can be
        # ~1e-19, far below float epsilon, so (1 - p)^n would collapse to
        # exactly 1.0 and hide the risk entirely.
        return -math.expm1(exposures * math.log1p(-p_window))

    def expected_degraded_quorums(
        self, fleet_pgs: int, mttr_s: float | None = None
    ) -> float:
        """Steady-state expected number of PGs with >= 1 member down.

        The paper: "Across a large fleet, some small number of quorums
        will be degraded, with some quorum member already failed at the
        time of an AZ failure."
        """
        mttr = mttr_s if mttr_s is not None else self.repair_window_s
        rate = self.segment_failure_rate_per_s
        p_member_down = (rate * mttr) / (1.0 + rate * mttr)
        p_pg_degraded = 1.0 - (1.0 - p_member_down) ** self.copies_per_pg
        return fleet_pgs * p_pg_degraded

    def mean_windows_to_read_loss(self) -> float:
        """Expected number of repair windows until one PG breaks reads."""
        p = self.p_read_quorum_loss()
        return math.inf if p == 0 else 1.0 / p


def model_from_observed_mttr(
    mean_mttr_ms: float,
    segment_mttf_hours: float = 10_000.0,
    az_failures_per_year: float = 0.5,
) -> DurabilityModel:
    """A :class:`DurabilityModel` whose repair window is a *measured* MTTR.

    The paper *assumes* "a 10 second window to detect and repair a segment
    failure"; the self-healing control plane measures the window it
    actually achieves (failure to finalized replacement, see
    :class:`repro.repair.RepairRecord`).  Feeding the observed mean back
    in closes the loop: the AZ+1 quorum-loss probabilities below are then
    statements about the system as built, not about an assumption.

    Simulated milliseconds are treated as real milliseconds -- the
    simulator's latency scales are modelled on real datacenter numbers, so
    the conversion is direct.
    """
    if mean_mttr_ms <= 0:
        raise ConfigurationError("mean_mttr_ms must be > 0")
    return DurabilityModel(
        segment_mttf_hours=segment_mttf_hours,
        repair_window_s=mean_mttr_ms / 1000.0,
        az_failures_per_year=az_failures_per_year,
    )
