#!/usr/bin/env python3
"""Disaster recovery toolbox: logical CDC, PITR, and quorum-model changes.

Three of the paper's secondary capabilities, composed into one scenario:

1. **Logical replication** (section 3.2) feeds a downstream analytics
   store (different schema) with only durably-committed changes.
2. An operator fat-fingers a bulk delete; **point-in-time restore** from
   the continuous S3 backups (Figure 2, activity 6) forks the volume back
   to just before the incident.
3. Meanwhile an AZ suffers an extended outage; the cluster adopts the
   paper's **3/4 quorum model** (section 4.1) so it tolerates one more
   failure until the AZ returns.

Run:  python examples/disaster_recovery.py
"""

from repro import AuroraCluster
from repro.db.logical_replication import TransformingSubscriber


def main() -> None:
    # A brisk continuous backup.
    cluster = AuroraCluster.build(seed=77, backup_interval=50.0)
    db = cluster.session()

    # -- 1. Logical CDC into a differently-shaped store --------------------
    analytics = TransformingSubscriber(
        transform=lambda key, value: (
            key.upper(), {"value": value, "source": "aurora"}
        )
    )
    cluster.writer.logical.subscribe(analytics)
    for i in range(20):
        db.write(f"account:{i:03d}", 1000 + i)
    print(f"analytics store has {len(analytics.table)} rows, e.g. "
          f"ACCOUNT:007 -> {analytics.table['ACCOUNT:007']}")

    # Let the continuous backup cover this state.
    cluster.run_for(300)
    safe_point = cluster.loop.now
    print(f"backups cover t<={safe_point:.0f} ms "
          f"({len(cluster.s3)} snapshots in S3)")

    # -- 2. The incident -----------------------------------------------------
    txn = db.begin()
    for i in range(20):
        db.delete(txn, f"account:{i:03d}")
    db.commit(txn)
    print("\nincident: bulk delete committed;",
          "account:007 =", db.get("account:007"))

    restored = AuroraCluster.restore_from_backup(
        cluster, as_of_ms=safe_point
    )
    rdb = restored.session()
    print("restored fork as-of the safe point;",
          "account:007 =", rdb.get("account:007"))
    assert rdb.get("account:007") == 1007

    # -- 3. Extended AZ loss on the restored fork ----------------------------
    restored.failures.crash_az("az2")
    rdb.write("during-az-loss", 1)  # 4/6 still fine
    print("\naz2 down: writes continue on 4/6")
    restored.adopt_degraded_quorum(0, "az2")
    print("adopted 3/4 quorum over the survivors "
          "(geometry epoch bumped)")
    restored.failures.crash_node("pg0-a")  # one MORE failure
    rdb.write("during-az-plus-one", 2)
    print("AZ+1: writes STILL continue on 3/4 ->",
          rdb.get("during-az-plus-one"))

    # The AZ returns: catch up by gossip, go back to 4/6.
    restored.failures.restore_az("az2")
    restored.failures.restore_node("pg0-a")
    restored.run_for(400)
    restored.restore_standard_quorum(0)
    rdb.write("back-to-normal", 3)
    print("az2 restored, back on 4/6; final check:",
          rdb.get("account:019"), rdb.get("back-to-normal"))


if __name__ == "__main__":
    main()
