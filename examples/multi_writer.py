#!/usr/bin/env python3
"""The multi-writer extension (section 1 of the paper).

"The approach described below is extensible to multi-writer databases by
ordering writes at database nodes, storage nodes, and using a journal to
order operations that span multiple database instances and multiple
storage nodes."

Three writers, each owning a key partition backed by its own volume; a
journal -- the writer of a fourth, one-PG volume -- sequences
cross-partition transactions.  The demo
shows the single-partition fast path (identical to single-writer Aurora),
a cross-partition transaction, and the decisive failure case: a
participant dying between the journal commit point and its local apply --
replayed on recovery, with the surviving partitions never blocking.

Run:  python examples/multi_writer.py
"""

from repro.multiwriter import MultiWriterCluster


def main() -> None:
    mw = MultiWriterCluster(partition_count=3, seed=71)
    session = mw.session()

    # -- Routing -----------------------------------------------------------
    sample = {k: mw.partition_of(k) for k in ("alice", "bob", "carol")}
    print("key routing:", sample)

    # -- Single-partition fast path ------------------------------------------
    result = session.write("alice", {"balance": 100})
    print(f"single-partition commit: {result}")

    # -- Cross-partition transaction -----------------------------------------
    # A transfer between accounts on different partitions.
    session.write("bob", {"balance": 50})
    txn = session.begin()
    session.put(txn, "alice", {"balance": 70})
    session.put(txn, "bob", {"balance": 80})
    result = session.commit(txn)
    print(f"cross-partition transfer: {result}")
    print(f"  alice={session.get('alice')} bob={session.get('bob')}")

    # -- The decisive failure case --------------------------------------------
    # Sequence a decided transaction at the journal, then crash a
    # participant BEFORE it applies locally.
    victim = mw.partition_of("alice")
    entry = session.drive(
        mw.journal.append(
            "decided-but-unapplied",
            {
                mw.partition_of("alice"): [("alice", {"balance": 0})],
                mw.partition_of("bob"): [("bob", {"balance": 150})],
            },
        )
    )
    print(f"\njournal entry gsn={entry.gsn} durable; crashing partition "
          f"{victim} before it applies")
    mw.crash_partition(victim)

    # The OTHER participant applies immediately -- no blocking window.
    other = mw.partition_of("bob")
    session.drive(mw.appliers[other].ensure_applied(entry.gsn))
    print(f"surviving partition applied: bob={session.get('bob')}")

    # Recovery replays the decided transaction from the journal.
    session.drive(mw.recover_partition(victim))
    print(f"victim recovered + replayed: alice={session.get('alice')}")
    assert session.get("alice") == {"balance": 0}

    print(f"\nstats: journal appends={mw.journal.appends}, "
          f"durable gsn={mw.journal.durable_gsn}, "
          f"cross commits={session.cross_partition_commits}, "
          f"single commits={session.single_partition_commits}")


if __name__ == "__main__":
    main()
