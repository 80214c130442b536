"""Self-healing control plane: failure detection and repair orchestration.

The paper treats membership changes as routine: "the most common reason
for a quorum membership change is a suspected failed segment" and the
Figure 5 machinery makes the change "reversible until the point it is
finalized".  This package closes the loop the paper leaves to the
operator, as a detect-confirm-act control plane whose tiers are rows: one
:class:`FailureDetector` turns passive signals into suspect/confirmed-dead
verdicts (:data:`STORAGE` segments, :data:`DB` instances, the primary
region), and each tier's acting half answers a confirmed death with a
change the protocol makes reversible or safe -- the :class:`RepairPlanner`
drives the Figure 5 flow, including the rollback path when a suspect turns
out to have been merely slow; the :class:`FailoverCoordinator` answers a
confirmed writer death with a fenced replica promotion (section 6's
"changing the locks on the door", driven autonomously).  The acting
halves are one :class:`Coordinator` lifecycle around a per-tier act: each
verdict is stamped into one :class:`Record` and rolled up by one
:func:`summarize`.
"""

from repro.repair.detector import (
    DB,
    STORAGE,
    FailureDetector,
    Health,
    Tier,
    pg_groups,
)
from repro.repair.failover import (
    PROMOTED,
    RESTARTED,
    FailoverCoordinator,
    FailoverSummary,
)
from repro.repair.metrics import (
    ABORTED,
    ACTIVE,
    REPLACED,
    ROLLED_BACK,
    STALLED,
    Coordinator,
    OutcomeSummary,
    Record,
    RepairRecord,
    RepairSummary,
    summarize,
)
from repro.repair.planner import RepairConfig, RepairPlanner
from repro.verdict import LatencyStats, percentile

__all__ = [
    "ABORTED",
    "ACTIVE",
    "DB",
    "PROMOTED",
    "REPLACED",
    "RESTARTED",
    "ROLLED_BACK",
    "STALLED",
    "STORAGE",
    "Coordinator",
    "FailoverCoordinator",
    "FailoverSummary",
    "FailureDetector",
    "Health",
    "LatencyStats",
    "OutcomeSummary",
    "RepairConfig",
    "Record",
    "RepairPlanner",
    "RepairRecord",
    "RepairSummary",
    "Tier",
    "percentile",
    "pg_groups",
    "summarize",
]
