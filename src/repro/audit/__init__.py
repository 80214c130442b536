"""Runtime invariant auditing for the quorum protocol.

The paper's correctness story rests on *local* consistency points (SCL,
PGCL, VCL, VDL), epoch fencing, and machine-checkable quorum overlap --
none of which were continuously verified while the simulator ran.  This
package closes that gap:

- :class:`~repro.audit.auditor.Auditor` subscribes to lightweight observer
  hooks wired through the protocol layers and asserts every safety property
  on every state transition (see ``docs/AUDIT.md`` for the invariant
  catalogue and paper citations).
- :func:`~repro.audit.runner.run_audit` drives a workload through a small
  cluster under a seeded :class:`~repro.sim.chaos.ChaosSchedule` with the
  auditor armed, producing a reproducible violation report.

Usage::

    from repro import AuroraCluster
    from repro.audit import Auditor

    cluster = AuroraCluster.build(seed=7)
    auditor = Auditor()
    cluster.arm_auditor(auditor)
    ...  # run any traffic / chaos
    auditor.assert_clean()

or, end to end::

    python -m repro audit-run --seed 7 --steps 2000
"""

from repro.audit.auditor import AuditViolation, Auditor
from repro.audit.profiles import PROFILES
from repro.audit.runner import (
    AuditReport,
    AuditRunConfig,
    merged_sections,
    run_audit,
    run_audit_sweep,
)

__all__ = [
    "AuditReport",
    "AuditRunConfig",
    "AuditViolation",
    "Auditor",
    "PROFILES",
    "merged_sections",
    "run_audit",
    "run_audit_sweep",
]
