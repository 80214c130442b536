"""repro: a reproduction of "Amazon Aurora: On Avoiding Distributed
Consensus for I/Os, Commits, and Membership Changes" (SIGMOD 2018).

The library builds, from scratch, every system the paper describes:

- a deterministic discrete-event simulator (:mod:`repro.sim`) standing in
  for the paper's EC2 + multi-AZ storage fleet testbed,
- the core protocol (:mod:`repro.core`): the writer-allocated monotonic
  LSN space, quorums and quorum sets, epochs, the SCL/PGCL/VCL/VDL/PGMRPL
  consistency points, commit processing, crash recovery, membership
  changes, and hedged read routing,
- the storage fleet (:mod:`repro.storage`): segments (full and tail),
  redo application, gossip, backup, GC, and scrub,
- a transactional database kernel (:mod:`repro.db`): buffer cache with the
  WAL eviction invariant, MTR-atomic B-tree, MVCC snapshot isolation,
  asynchronous commits, read replicas, and failover,
- the consensus baselines the paper positions itself against
  (:mod:`repro.baselines`): 2PC, Multi-Paxos, lease-based fencing, and an
  ARIES redo-replay model,
- analytic models (:mod:`repro.analysis`) for quorum availability,
  durability windows, and storage cost amplification,
- workload generators (:mod:`repro.workloads`), and
- the paper's figures and quantified claims as measured, checked rows
  (:mod:`repro.claims`; ``python -m repro claims``).

Quickstart::

    from repro import AuroraCluster

    cluster = AuroraCluster.build(seed=7)
    db = cluster.session()
    txn = db.begin()
    db.put(txn, "user:1", {"name": "ada"})
    scn = db.commit(txn)      # acknowledged once SCN <= VCL (4/6 durable)
    assert db.get("user:1") == {"name": "ada"}
"""

from repro.db.cluster import AuroraCluster, ClusterConfig
from repro.db.session import Session
from repro.errors import ReproError
from repro.report import cluster_report, format_report

__version__ = "1.0.0"

__all__ = [
    "AuroraCluster",
    "ClusterConfig",
    "ReproError",
    "Session",
    "__version__",
    "cluster_report",
    "format_report",
]
