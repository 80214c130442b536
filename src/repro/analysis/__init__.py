"""Analytic models for availability, durability, and cost.

These reproduce the arithmetic behind the paper's design arguments:

- :mod:`repro.analysis.availability` -- quorum availability under
  independent node failure and under correlated AZ failure (Figure 1's
  "why are 6 copies necessary?" argument).
- :mod:`repro.analysis.durability` -- the "AZ+1" window analysis: how
  likely is a 10-second repair window to contain the two extra failures
  that break quorum, across fleets of tens of thousands of segments.
- :mod:`repro.analysis.cost` -- storage amplification of the full/tail
  quorum set versus six full copies (section 4.2's ~3x result).

Models only: what a run *measured* against these -- the repair, failover,
disaster-recovery, serving and integrity windows and their budgets -- is
a :class:`repro.verdict.Section` next to the tier's records
(docs/AUDIT.md "Budgets").
"""

from repro.analysis.availability import (
    az_failure_survival,
    quorum_availability,
    quorum_availability_under_az_failure,
)
from repro.analysis.cost import CostModel
from repro.analysis.durability import (
    C7_WINDOW_S,
    DurabilityModel,
    model_from_observed_mttr,
)

__all__ = [
    "C7_WINDOW_S",
    "CostModel",
    "DurabilityModel",
    "model_from_observed_mttr",
    "az_failure_survival",
    "quorum_availability",
    "quorum_availability_under_az_failure",
]
