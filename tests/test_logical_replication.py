"""Tests for logical replication to non-Aurora systems (section 3.2)."""

import pytest

from repro.db.logical_replication import (
    ChangeKind,
    LogicalPublisher,
    LogicalTransaction,
    RowChange,
    TableSubscriber,
    TransformingSubscriber,
)
from repro.db.session import Session


class TestLogicalPublisherUnit:
    def test_publishes_net_effects_in_key_order(self):
        publisher = LogicalPublisher()
        seen = []
        publisher.subscribe(seen.append)
        publisher.stage(1, RowChange(ChangeKind.UPSERT, "b", 1))
        publisher.stage(1, RowChange(ChangeKind.UPSERT, "a", 2))
        publisher.stage(1, RowChange(ChangeKind.UPSERT, "b", 3))  # supersedes
        publisher.publish_commit(1, scn=10)
        assert len(seen) == 1
        txn = seen[0]
        assert txn.scn == 10
        assert [(c.key, c.value) for c in txn.changes] == [
            ("a", 2), ("b", 3),
        ]

    def test_discard_suppresses_rollback(self):
        publisher = LogicalPublisher()
        seen = []
        publisher.subscribe(seen.append)
        publisher.stage(1, RowChange(ChangeKind.UPSERT, "a", 1))
        publisher.discard(1)
        publisher.publish_commit(1, scn=5)
        assert seen == []

    def test_commit_with_no_changes_publishes_nothing(self):
        publisher = LogicalPublisher()
        seen = []
        publisher.subscribe(seen.append)
        publisher.publish_commit(42, scn=5)
        assert seen == []
        assert publisher.published == 0

    def test_unsubscribe(self):
        publisher = LogicalPublisher()
        seen = []
        publisher.subscribe(seen.append)
        publisher.unsubscribe(seen.append)
        publisher.stage(1, RowChange(ChangeKind.UPSERT, "a", 1))
        publisher.publish_commit(1, scn=1)
        assert seen == []

    def test_crash_drops_staged_only(self):
        publisher = LogicalPublisher()
        publisher.stage(1, RowChange(ChangeKind.UPSERT, "a", 1))
        publisher.drop_transient_state()
        seen = []
        publisher.subscribe(seen.append)
        publisher.publish_commit(1, scn=5)
        assert seen == []  # staged changes died with the instance


class TestLogicalStreamIntegration:
    def test_table_subscriber_mirrors_committed_state(self, cluster):
        db = cluster.session()
        mirror = TableSubscriber()
        cluster.writer.logical.subscribe(mirror)
        db.write("a", 1)
        db.write("b", 2)
        db.remove("a")
        txn = db.begin()
        db.put(txn, "c", 3)
        db.rollback(txn)  # never reaches the stream
        assert mirror.table == {"b": 2}
        assert mirror.in_order

    def test_stream_is_scn_ordered_under_pipelined_commits(self, cluster):
        db = cluster.session()
        mirror = TableSubscriber()
        cluster.writer.logical.subscribe(mirror)
        futures = []
        for i in range(10):
            txn = db.begin()
            db.put(txn, f"k{i}", i)
            futures.append(db.commit_async(txn))
        for future in futures:
            db.drive(future)
        assert len(mirror.applied) == 10
        assert mirror.in_order

    def test_only_durable_transactions_reach_subscribers(self, cluster):
        """Nothing published before its commit is quorum-durable: a crash
        can never contradict what a subscriber already applied."""
        db = cluster.session()
        mirror = TableSubscriber()
        cluster.writer.logical.subscribe(mirror)
        txn = db.begin()
        db.put(txn, "doomed", 1)
        db.commit_async(txn)  # crash before the ack
        cluster.crash_writer()
        assert "doomed" not in mirror.table
        process = cluster.recover_writer()
        db = Session(cluster.writer)
        db.drive(process)
        # Whatever recovery decided, the subscriber was never lied to:
        if "doomed" in mirror.table:
            assert db.get("doomed") == 1

    def test_transforming_subscriber_schema_change(self, cluster):
        db = cluster.session()
        sink = TransformingSubscriber(
            transform=lambda key, value: (
                f"ext:{key}", None if value is None else value * 100
            )
        )
        cluster.writer.logical.subscribe(sink)
        db.write("x", 5)
        assert sink.table == {"ext:x": 500}
        db.remove("x")
        assert sink.table == {}

    def test_multi_statement_transaction_is_one_logical_unit(self, cluster):
        db = cluster.session()
        units = []
        cluster.writer.logical.subscribe(units.append)
        txn = db.begin()
        db.put(txn, "a", 1)
        db.put(txn, "b", 2)
        db.delete(txn, "a")
        db.commit(txn)
        assert len(units) == 1
        changes = {c.key: c.kind for c in units[0].changes}
        assert changes == {"a": ChangeKind.DELETE, "b": ChangeKind.UPSERT}
