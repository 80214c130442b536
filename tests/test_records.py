"""Unit tests for log records and redo payloads."""

from dataclasses import replace

import pytest

from repro.core.records import (
    EMPTY_IMAGE,
    NO_BLOCK,
    BlockDelete,
    BlockPut,
    BlockReplace,
    ChainDigest,
    CommitPayload,
    ControlPayload,
    ElidedPayload,
    LogRecord,
    RecordBatch,
    RecordKind,
    apply_redo,
    record_digest,
)
from repro.db.wire import payload_bytes


def make_record(lsn=5, **overrides):
    defaults = dict(
        lsn=lsn,
        prev_volume_lsn=lsn - 1,
        prev_pg_lsn=lsn - 2,
        prev_block_lsn=0,
        block=7,
        pg_index=0,
        kind=RecordKind.DATA,
        payload=BlockPut(entries=(("k", "v"),)),
    )
    defaults.update(overrides)
    return LogRecord(**defaults)


class TestPayloads:
    def test_block_put_overwrites_and_preserves(self):
        payload = BlockPut(entries=(("a", 1), ("b", 2)))
        image = payload.apply({"a": 0, "c": 3})
        assert image == {"a": 1, "b": 2, "c": 3}

    def test_block_put_is_pure(self):
        original = {"a": 0}
        BlockPut(entries=(("a", 1),)).apply(original)
        assert original == {"a": 0}

    def test_block_delete_ignores_missing(self):
        payload = BlockDelete(keys=("a", "ghost"))
        assert payload.apply({"a": 1, "b": 2}) == {"b": 2}

    def test_block_replace_discards_everything(self):
        payload = BlockReplace.of({"x": 1})
        assert payload.apply({"old": "gone"}) == {"x": 1}

    def test_block_replace_handles_tuple_keys(self):
        payload = BlockReplace.of({("k", 5): "v", "type": "leaf"})
        assert payload.apply({}) == {("k", 5): "v", "type": "leaf"}

    def test_commit_payload_materializes_txn_table_entry(self):
        payload = CommitPayload(txn_id=9, scn=104)
        assert payload.apply({3: 50}) == {3: 50, 9: 104}

    def test_control_payload_is_identity(self):
        assert ControlPayload("note").apply({"a": 1}) == {"a": 1}

    def test_idempotence_of_all_payloads(self):
        """Applying a payload twice equals applying it once -- required for
        'idempotent operations using local state' (section 2.3)."""
        payloads = [
            BlockPut(entries=(("a", 1),)),
            BlockDelete(keys=("b",)),
            BlockReplace.of({"c": 3}),
            CommitPayload(txn_id=1, scn=10),
        ]
        base = {"a": 0, "b": 2}
        for payload in payloads:
            once = payload.apply(base)
            twice = payload.apply(once)
            assert once == twice


class TestLogRecord:
    def test_chains_must_precede_lsn(self):
        with pytest.raises(ValueError):
            make_record(lsn=5, prev_volume_lsn=5)
        with pytest.raises(ValueError):
            make_record(lsn=5, prev_pg_lsn=6)
        with pytest.raises(ValueError):
            make_record(lsn=5, prev_block_lsn=9)

    def test_lsn_must_be_positive(self):
        with pytest.raises(ValueError):
            make_record(lsn=0, prev_volume_lsn=-1, prev_pg_lsn=-1,
                        prev_block_lsn=-1)

    def test_scn_only_on_commit_records(self):
        commit = make_record(
            kind=RecordKind.COMMIT,
            payload=CommitPayload(txn_id=1, scn=5),
            block=1,
        )
        assert commit.scn == 5
        with pytest.raises(ValueError):
            _ = make_record().scn

    def test_records_are_frozen(self):
        record = make_record()
        with pytest.raises(AttributeError):
            record.lsn = 99

    def test_records_and_payloads_are_slotted_and_replace_drops_memos(self):
        """No record or payload carries an instance dict; the memos live in
        declared slots, and ``dataclasses.replace`` makes an object
        without them."""
        record = make_record()
        record_digest(record)
        apply_redo(record, EMPTY_IMAGE)
        payload_bytes(record.payload)
        for obj in (record, record.payload, ControlPayload("n"),
                    ElidedPayload(covered_by=3), BlockDelete(keys=("a",)),
                    BlockReplace.of({"a": 1}), CommitPayload(1, 2)):
            assert not hasattr(obj, "__dict__")
        fresh = replace(record, payload=replace(record.payload))
        assert fresh == record
        for obj, memo in ((fresh, "_digest"), (fresh, "_applied"),
                          (fresh.payload, "_wire_size")):
            assert getattr(obj, memo, None) is None
        assert getattr(record, "_digest") is not None
        assert getattr(record.payload, "_wire_size") is not None

    def test_no_block_constant(self):
        record = make_record(block=NO_BLOCK, kind=RecordKind.CONTROL,
                             payload=ControlPayload())
        assert record.block == NO_BLOCK


class TestChainDigest:
    def test_of_extracts_recovery_fields(self):
        record = make_record(lsn=10, prev_volume_lsn=8, mtr_end=False)
        digest = ChainDigest.of(record)
        assert digest.lsn == 10
        assert digest.prev_volume_lsn == 8
        assert digest.pg_index == 0
        assert digest.mtr_end is False


class TestRecordBatch:
    def test_accumulates_records(self):
        batch = RecordBatch(pg_index=0)
        batch.add(make_record(lsn=5))
        batch.add(make_record(lsn=6, prev_volume_lsn=5, prev_pg_lsn=4))
        assert len(batch) == 2
