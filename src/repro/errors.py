"""Exception hierarchy for the Aurora reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the boundary.  The sub-hierarchy mirrors the
paper's subsystems: quorum construction, epoch fencing, storage-node request
validation, transaction management, and recovery.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid or inconsistent parameters."""


class QuorumError(ReproError):
    """A quorum definition violates the overlap rules (Vr + Vw > V, Vw > V/2)."""


class StaleEpochError(ReproError):
    """A request carried an out-of-date volume, membership, or geometry epoch.

    Per the paper (section 2.4 and 4.1), storage nodes reject any request at
    a stale epoch.  The rejected caller is expected to refresh its view of the
    epoch and retry -- "requiring just one additional request past the one
    rejected".
    """

    def __init__(self, kind: str, presented: int, current: int) -> None:
        super().__init__(
            f"stale {kind} epoch: presented {presented}, current {current}"
        )
        self.kind = kind
        self.presented = presented
        self.current = current


class MembershipError(ReproError):
    """An illegal quorum-membership transition was requested."""


class SegmentUnavailableError(ReproError):
    """A storage node or segment is down or unreachable."""


class ReadPointError(ReproError):
    """A storage read requested an LSN outside the [PGMRPL, SCL] window."""

    def __init__(self, read_point: int, low: int, high: int) -> None:
        super().__init__(
            f"read point {read_point} outside serveable window "
            f"[{low}, {high}]"
        )
        self.read_point = read_point
        self.low = low
        self.high = high


class TransactionError(ReproError):
    """A transaction operation was invalid (e.g. use after commit)."""


class LockConflictError(TransactionError):
    """A lock could not be granted without blocking (deadlock avoidance)."""


class TransactionAbortedError(TransactionError):
    """The transaction was aborted and must not issue further operations."""


class RecoveryError(ReproError):
    """Crash recovery could not complete (e.g. read quorum unavailable)."""


class InstanceStateError(ReproError):
    """The database instance is not in a state that allows the operation."""


class FailoverInProgressError(InstanceStateError):
    """No writer endpoint is currently resolvable; retry after promotion.

    Raised while a writer failover is being driven: the old writer has been
    confirmed dead (or fenced) and a replacement has not yet finished
    opening.  This is a *retryable* condition -- clients are expected to
    back off and reconnect, exactly as Aurora drivers re-resolve the
    cluster writer endpoint after a failover.
    """


class CommitUncertainError(TransactionError):
    """The outcome of an in-flight commit is unknown after a writer failure.

    The redo records may or may not have reached a write quorum before the
    writer died; recovery on the successor decides.  The transaction is
    either durably present in its entirety or absent -- never partially
    applied -- but the client cannot tell which without re-reading.  This
    is deliberately *not* an abort: the one guarantee is that the commit
    was never falsely acknowledged.
    """


class RegionUnavailableError(InstanceStateError):
    """The active region's writer endpoint is gone (region loss or
    cross-region partition) and the secondary has not finished promoting.

    Raised by the geo tier's session surface instead of a generic failure
    so clients can distinguish "this region is dying, re-resolve" from a
    local instance-state problem.  Retryable: the
    :class:`~repro.geo.GeoFailoverCoordinator` resolves it by promoting
    the secondary region, after which session retries land there.
    """


class ReplicationLagExceededError(CommitUncertainError):
    """A synchronously geo-replicated commit could not be acknowledged
    within the configured cross-region lag bound.

    The commit *is* durable in the primary region (local quorum reached)
    but its replication to the secondary is stalled or too far behind --
    under sync-ack semantics that makes the outcome uncertain from the
    client's point of view (a region loss right now would lose it), so
    this derives from :class:`CommitUncertainError` and inherits its
    retry/reconcile handling.
    """


class CorruptVersionError(ReproError):
    """A read landed on a block version that failed checksum verification
    (or was already quarantined by an earlier detection).

    The storage node intercepts this before any image leaves the node: the
    version is quarantined and repaired from peers, and the reader is served
    the repaired image or redirected to another segment.  A corrupt image is
    never returned to a replica or client (DESIGN.md §12).
    """

    def __init__(self, block: int, lsn: int) -> None:
        super().__init__(f"block {block} version {lsn} failed verification")
        self.block = block
        self.lsn = lsn


class VolumeGeometryError(ReproError):
    """A block address fell outside the current volume geometry."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven incorrectly."""
