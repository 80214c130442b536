"""ARIES-style recovery: the redo replay Aurora's restart does not do.

Section 2.4: "No redo replay is required as part of crash recovery since
segments are able to generate data blocks on their own".
:class:`AriesRecoveryModel` is an analytic stand-in for a classic ARIES
engine whose restart must re-apply every redo record since the last
checkpoint, making recovery time proportional to log volume -- claim C8's
comparator.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class AriesRecoveryModel:
    """Analytic model of classic redo-replay restart.

    Parameters are per-record costs; :meth:`recovery_time_ms` returns the
    restart time for a crash occurring ``records_since_checkpoint`` into
    the log.  Contrast with Aurora, where recovery cost is a read-quorum
    scan per protection group, independent of redo volume.
    """

    def __init__(
        self,
        redo_apply_us: float = 2.0,
        log_read_us: float = 0.5,
        analysis_pass_us: float = 0.2,
    ) -> None:
        if min(redo_apply_us, log_read_us, analysis_pass_us) < 0:
            raise ConfigurationError("per-record costs must be >= 0")
        self.redo_apply_us = redo_apply_us
        self.log_read_us = log_read_us
        self.analysis_pass_us = analysis_pass_us

    def recovery_time_ms(self, records_since_checkpoint: int) -> float:
        """ARIES restart: analysis pass + redo pass over the whole tail."""
        per_record_us = (
            self.analysis_pass_us + self.log_read_us + self.redo_apply_us
        )
        return records_since_checkpoint * per_record_us / 1000.0

    def checkpoint_interval_tradeoff(
        self,
        write_rate_per_s: float,
        checkpoint_cost_ms: float,
        interval_s: float,
    ) -> dict[str, float]:
        """Foreground checkpoint overhead versus worst-case recovery time.

        The classic tension Aurora dissolves by removing checkpoints from
        the database entirely (storage coalesces continuously).
        """
        worst_case_records = write_rate_per_s * interval_s
        return {
            "worst_case_recovery_ms": self.recovery_time_ms(
                int(worst_case_records)
            ),
            "checkpoint_overhead_pct": (
                100.0 * checkpoint_cost_ms / (interval_s * 1000.0)
            ),
        }
