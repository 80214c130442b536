"""``Segment.receive_batch`` against its reference, per-record ``receive``.

The batch path appends chain-contiguous runs in bulk and lets the chain
tracker take a run that attaches at the SCL in one step; everything else
falls back to ``receive``.  Whatever the delivery order, the two must leave
a segment in the same state -- the hot log's three sorted arrays included,
as read back through ``hot_log_lsns`` and ``record_at``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsn import TruncationRange
from repro.core.records import BlockPut, LogRecord, RecordKind
from repro.storage.segment import Segment, SegmentKind

from .conftest import SEEDS, found_by_search


def chain_records(rng, prev, first_lsn, count):
    """``count`` linked records of PG 0 starting at ``first_lsn`` behind
    ``prev``; LSNs stride 1-3 (the volume's LSN space is shared)."""
    records = []
    lsn = first_lsn
    for _ in range(count):
        records.append(
            LogRecord(
                lsn=lsn,
                prev_volume_lsn=lsn - 1,
                prev_pg_lsn=prev,
                prev_block_lsn=0,
                block=rng.randrange(4),
                pg_index=0,
                kind=RecordKind.DATA,
                payload=BlockPut(entries=((rng.randrange(6), lsn),)),
            )
        )
        prev = lsn
        lsn += rng.randint(1, 3)
    return records


def cut(rng, records):
    """Contiguous runs of 1-8 records (boxcars)."""
    batches = []
    while records:
        size = rng.randint(1, 8)
        batches.append(records[:size])
        records = records[size:]
    return batches


def scenario(rng, recoveries=1):
    """Operations in delivery order: boxcars of ``recoveries + 1`` writer
    generations, a place or two out of order and a fifth of them twice,
    one recovery truncation between generations, late pre-recovery runs
    that start inside or below a range already annulled, gossip answers
    with holes, a lost write or two, coalesce ticks and one rebase."""
    timeline = []  # (when, operation)
    everything = []
    prev, first_lsn, start = 0, 1, 0.0
    for generation in range(recoveries + 1):
        records = chain_records(rng, prev, first_lsn, rng.randint(8, 40))
        everything += records
        boxcars = cut(rng, records)
        for i, batch in enumerate(boxcars):
            when = start + i + rng.uniform(0, 1.5)
            timeline.append((when, ("batch", batch)))
            if rng.random() < 0.2:  # a resubmission
                timeline.append((when + rng.uniform(0.5, 6), ("batch", batch)))
        end = start + len(boxcars) + 4.0
        if generation == recoveries:
            break
        pg_point = rng.choice(records[len(records) // 3:]).lsn
        truncation = TruncationRange(pg_point + 1, records[-1].lsn + 50)
        # The next generation's first boxcars may overtake the truncation
        # (a late TruncateRequest); once it is installed they start above
        # everything annulled and are appended in bulk again.
        truncated_at = rng.uniform(start + (end - start) / 3, end)
        timeline.append((truncated_at, ("truncate", pg_point, truncation)))
        # In-flight writes of the dead generation that land afterwards:
        # runs that start below the surviving point, at it, or inside the
        # annulled range.
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(records))
            stale = records[at:at + rng.randint(1, 8)]
            timeline.append(
                (truncated_at + rng.uniform(0, 4), ("batch", stale))
            )
        prev, first_lsn, start = pg_point, truncation.last + 1, truncated_at - 1
    first = everything[:len(everything) // 2]
    # A gossip answer: what a peer holds above some LSN, up to a limit.
    for _ in range(rng.randint(1, 4)):
        above = rng.choice(first).lsn
        held = [
            r for r in everything if r.lsn > above and rng.random() < 0.8
        ]
        timeline.append((rng.uniform(0, end), ("gossip", held[:12])))
    for _ in range(rng.randint(1, 2)):
        lost = rng.choice(everything).lsn
        timeline.append((rng.uniform(0, end), ("lose", lost)))
    for _ in range(rng.randint(1, 3)):
        timeline.append((rng.uniform(0, end), ("coalesce",)))
    baseline = rng.randint(1, everything[-1].lsn)
    timeline.append((rng.uniform(0, end), ("rebase", baseline)))
    timeline.sort(key=lambda entry: entry[0])
    return [op for _when, op in timeline]


def coalesce(segment):
    if segment.kind is SegmentKind.LOG:
        return segment.coalesce(upto=segment.scl)
    return segment.coalesce()


def play(segment, ops, ingest):
    results = []
    for op in ops:
        if op[0] == "batch":
            results.append(ingest(segment, op[1], False))
        elif op[0] == "gossip":
            results.append(ingest(segment, op[1], True))
        elif op[0] == "truncate":
            results.append(segment.truncate(op[1], op[2]))
        elif op[0] == "rebase":
            results.append(segment.chain.rebase(op[1]))
        elif op[0] == "lose":
            results.append(segment.lose_record(op[1]))
        else:
            results.append(coalesce(segment))
    coalesce(segment)
    return results


def per_record(segment, records, via_gossip):
    advanced = False
    for record in records:
        if segment.receive(record, via_gossip):
            advanced = True
    return advanced


def batched(segment, records, via_gossip):
    return segment.receive_batch(records, via_gossip)


def touched(ops):
    """Every LSN the operations name, ascending."""
    lsns = set()
    for op in ops:
        if op[0] in ("batch", "gossip"):
            lsns.update(record.lsn for record in op[1])
        elif op[0] == "lose":
            lsns.add(op[1])
    return sorted(lsns)


def hot_log(segment, lsns):
    """The hot log as its callers see it."""
    return segment.hot_log_lsns(), [segment.record_at(lsn) for lsn in lsns]


def state(segment, lsns):
    chain = segment.chain
    return {
        "hot_log": hot_log(segment, lsns),
        "lsn_index": segment._lsn_index,
        "records": segment._records,
        "digests": segment._digests,
        "scl": segment.scl,
        "has_gap": chain.has_gap,
        "pending": chain._pending,
        "max_received": chain.max_received,
        "coalesced_upto": segment.coalesced_upto,
        "versions": {
            block: [(v.lsn, dict(v.image)) for v in versions.versions]
            for block, versions in segment.blocks.items()
        },
        "stats": segment.stats,
        "truncations": segment.truncations,
        "annulled_upto": segment.annulled_upto,
    }


def assert_same_outcome(ops, kind, subject_class=Segment):
    reference = Segment("reference", 0, kind)
    subject = subject_class("subject", 0, kind)
    assert play(subject, ops, batched) == play(reference, ops, per_record)
    lsns = touched(ops)
    assert state(subject, lsns) == state(reference, lsns)


def searched_out(subject_class):
    """Does the differential find ``subject_class`` out unaided?"""
    return found_by_search(
        lambda seed: assert_same_outcome(
            scenario(random.Random(seed), 3), SegmentKind.FULL, subject_class
        ),
        200,
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    kind=st.sampled_from([SegmentKind.FULL, SegmentKind.LOG]),
    recoveries=st.sampled_from([1, 3]),
)
def test_batch_ingest_matches_per_record_ingest(seed, kind, recoveries):
    assert_same_outcome(scenario(random.Random(seed), recoveries), kind)


class AcceptsAnnulledRuns(Segment):
    """Planted bug: the bulk path forgets the installed truncations."""

    def _appendable_run(self, records):
        upto, self.annulled_upto = self.annulled_upto, 0
        try:
            return super()._appendable_run(records)
        finally:
            self.annulled_upto = upto


def test_a_bulk_path_that_accepts_annulled_runs_is_caught():
    run = linked(1, 0, 9)
    survivor = run[3].lsn
    ops = [
        ("batch", run[:5]),
        ("truncate", survivor, TruncationRange(survivor + 1, 10_000)),
        ("batch", run[5:]),  # in flight when the writer died: annulled
    ]
    assert_same_outcome(ops, SegmentKind.FULL)
    with pytest.raises(AssertionError):
        assert_same_outcome(ops, SegmentKind.FULL, AcceptsAnnulledRuns)
    assert searched_out(AcceptsAnnulledRuns)


class LoseKeepsTheRecord(Segment):
    """Planted bug: ``lose_record`` drops the LSN and its digest but leaves
    the record in ``_records``, so the arrays no longer line up."""

    def lose_record(self, lsn):
        pos = self._find(lsn)
        record = super().lose_record(lsn)
        if record is not None:
            self._records.insert(pos, record)
        return record


def test_a_lose_that_keeps_the_record_is_caught():
    run = linked(1, 0, 6)
    lost = run[2].lsn
    ops = [("batch", run), ("lose", lost)]
    assert_same_outcome(ops, SegmentKind.FULL)
    with pytest.raises(AssertionError):
        assert_same_outcome(ops, SegmentKind.FULL, LoseKeepsTheRecord)
    # The LSNs agree; what ``record_at`` answers does not.
    lsns = touched(ops)
    reference, mutant = Segment("r", 0), LoseKeepsTheRecord("m", 0)
    play(reference, ops, batched)
    play(mutant, ops, batched)
    assert mutant.hot_log_lsns() == reference.hot_log_lsns()
    assert reference.record_at(lost) is None
    assert [reference.record_at(lsn) for lsn in lsns] == [
        None if r.lsn == lost else r for r in run
    ]
    assert hot_log(mutant, lsns) != hot_log(reference, lsns)
    assert searched_out(LoseKeepsTheRecord)


class CountingProbe:
    def __init__(self):
        self.scl_events = []

    def on_scl(self, owner, old, new, reason):
        self.scl_events.append((old, new, reason))

    def on_scl_truncate(self, *args):
        pass


def probed_segment():
    segment = Segment("s", 0)
    segment.chain.audit_probe = CountingProbe()
    return segment


def linked(first_lsn, prev, count):
    return chain_records(random.Random(0), prev, first_lsn, count)


class TestBulkPaths:
    def test_run_at_the_scl_is_one_chain_step(self):
        segment = probed_segment()
        run = linked(1, 0, 6)
        assert segment.receive_batch(run) is True
        assert segment.scl == run[-1].lsn
        assert not segment.chain.has_gap
        assert segment.chain.audit_probe.scl_events == [
            (0, run[-1].lsn, "chain")
        ]
        assert segment._records == run
        assert segment.stats["records_received"] == 6

    def test_run_behind_a_gap_is_stored_and_links_when_the_gap_fills(self):
        segment = probed_segment()
        run = linked(1, 0, 9)
        head, tail = run[:3], run[3:]
        assert segment.receive_batch(tail, via_gossip=True) is False
        assert segment.scl == 0 and segment.chain.has_gap
        assert segment.chain.pending_count() == len(tail)
        assert segment.stats["records_gossiped_in"] == len(tail)
        # The filling run arrives below stored records: the general path.
        assert segment.receive_batch(head) is True
        assert segment.scl == run[-1].lsn
        assert segment._lsn_index == [r.lsn for r in run]

    def test_overlap_with_stored_records_takes_the_general_path(self):
        segment = probed_segment()
        run = linked(1, 0, 6)
        segment.receive_batch(run[:4])
        assert segment.receive_batch(run[2:]) is True
        assert segment.stats["duplicates"] == 2
        assert segment._records == run

    def test_an_installed_truncation_annuls_inside_a_run(self):
        segment = probed_segment()
        run = linked(1, 0, 6)
        segment.truncate(run[2].lsn, TruncationRange(run[2].lsn + 1, 10_000))
        segment.receive_batch(run)
        assert segment.scl == run[2].lsn
        assert segment.stats["annulled_refused"] == 3
        assert segment._records == run[:3]

    def test_a_post_recovery_run_is_one_chain_step_again(self):
        segment = probed_segment()
        old = linked(1, 0, 6)
        segment.receive_batch(old)
        survivor = old[3].lsn
        for last in (500, 900):  # two recoveries, the second one empty
            segment.truncate(survivor, TruncationRange(survivor + 1, last))
        events = segment.chain.audit_probe.scl_events
        del events[:]
        fresh = linked(901, survivor, 5)
        assert segment.receive_batch(fresh) is True
        assert events == [(survivor, fresh[-1].lsn, "chain")]
        assert segment._records == old[:4] + fresh
        assert segment.stats["annulled_refused"] == 0

    def test_an_internal_gap_is_not_a_run(self):
        segment = probed_segment()
        run = linked(1, 0, 6)
        holed = run[:2] + run[3:]
        assert segment.receive_batch(holed) is True
        assert segment.scl == run[1].lsn and segment.chain.has_gap
        assert segment._records == holed

    def test_empty_batch(self):
        assert Segment("s", 0).receive_batch(()) is False
