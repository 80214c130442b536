"""Baseline distributed-commit, fencing and recovery designs.

The paper's introduction positions Aurora against "two-phase commit (2PC),
Paxos commit, Paxos membership changes, and their variants", claiming the
systems built on them "may scale well but have order-of-magnitude worse
cost, performance, and peak to average latency".  To measure those claims
instead of taking them on faith, this package implements each comparator a
row of ``repro.claims.CLAIMS`` measures against, from scratch and on the
same simulated network Aurora runs on:

- :mod:`repro.baselines.two_phase_commit` -- classic presumed-nothing 2PC
  with a blocking window when the coordinator dies.
- :mod:`repro.baselines.paxos` -- Multi-Paxos with a stable leader (the
  "consensus for every write" design of Spanner-like systems).
- :mod:`repro.baselines.aries` -- an ARIES-style redo-replay recovery
  model.
- :mod:`repro.baselines.leases` -- lease-based fencing, the alternative to
  epochs that "introduce[s] latency when one needs to wait for expiry".
"""

from repro.baselines.aries import AriesRecoveryModel
from repro.baselines.leases import LeaseFencing
from repro.baselines.paxos import PaxosCluster
from repro.baselines.two_phase_commit import TwoPhaseCommitCluster

__all__ = [
    "AriesRecoveryModel",
    "LeaseFencing",
    "PaxosCluster",
    "TwoPhaseCommitCluster",
]
