"""The paper's stated extension: multi-writer via a journal (section 1).

"The approach described below is extensible to multi-writer databases by
ordering writes at database nodes, storage nodes, and using a journal to
order operations that span multiple database instances and multiple
storage nodes."

This package builds that sentence out:

- **ordering writes at database nodes**: each writer owns a key partition
  backed by its own volume (its own LSN space, quorums, recovery) -- all
  single-partition behaviour is exactly the single-writer protocol;
- **a journal to order cross-instance operations**: cross-partition
  transactions are sequenced by :class:`~repro.multiwriter.journal.Journal`
  -- the single writer of a one-PG volume of its own, whose committed
  rows are the entries (each carrying its full write set), so the
  journal's durability, fencing and recovery are the single-writer
  protocol's.  The journal entry IS the commit decision; participants
  apply it locally (idempotently, in GSN order), and a recovering
  participant replays any durable journal entries it has not applied --
  so cross-partition atomicity needs no 2PC and survives any single
  participant crash.

Consistency model: snapshot isolation within each partition (unchanged);
cross-partition transactions are atomic and durable once acknowledged,
with read-your-writes provided by the session (it waits for local applies
before resolving).  Cross-partition *snapshot* reads are not provided --
matching the paper's scope, which defers global ordering entirely to the
journal.
"""

from repro.multiwriter.cluster import MultiWriterCluster
from repro.multiwriter.journal import Journal, JournalEntry
from repro.multiwriter.session import MultiWriterSession

__all__ = [
    "Journal",
    "JournalEntry",
    "MultiWriterCluster",
    "MultiWriterSession",
]
