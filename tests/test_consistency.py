"""Unit + property tests for the consistency-point trackers.

Includes the exact Figure 3 scenario from the paper.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import (
    MinReadPointTracker,
    PGConsistencyTracker,
    PGFrontierHistory,
    SegmentChainTracker,
    VolumeConsistencyTracker,
)
from repro.core.lsn import NULL_LSN
from repro.core.quorum import aurora_v6_config, v6_config
from repro.errors import ConfigurationError


class TestSegmentChainTracker:
    def test_in_order_arrival_advances(self):
        chain = SegmentChainTracker()
        assert chain.offer(1, 0)
        assert chain.offer(3, 1)
        assert chain.offer(7, 3)
        assert chain.scl == 7
        assert not chain.has_gap

    def test_gap_blocks_advancement(self):
        chain = SegmentChainTracker()
        chain.offer(1, 0)
        advanced = chain.offer(7, 3)  # record 3 missing
        assert not advanced
        assert chain.scl == 1
        assert chain.has_gap
        assert chain.max_received == 7

    def test_gap_fill_links_pending_records(self):
        chain = SegmentChainTracker()
        chain.offer(1, 0)
        chain.offer(7, 3)
        chain.offer(9, 7)
        assert chain.scl == 1
        assert chain.offer(3, 1)  # the hole (gossip fill-in)
        assert chain.scl == 9
        assert chain.pending_count() == 0

    def test_out_of_order_storm(self):
        chain = SegmentChainTracker()
        lsns = [2, 4, 6, 8, 10]
        prevs = [0, 2, 4, 6, 8]
        for lsn, prev in reversed(list(zip(lsns, prevs))):
            chain.offer(lsn, prev)
        assert chain.scl == 10

    def test_duplicate_below_scl_ignored(self):
        chain = SegmentChainTracker()
        chain.offer(1, 0)
        chain.offer(2, 1)
        assert not chain.offer(1, 0)
        assert chain.scl == 2

    def test_truncate_clamps_and_drops_pending(self):
        chain = SegmentChainTracker()
        chain.offer(1, 0)
        chain.offer(2, 1)
        chain.offer(9, 5)  # beyond the coming truncation
        chain.truncate(2)
        assert chain.scl == 2
        assert chain.max_received == 2
        assert chain.pending_count() == 0
        # Post-truncation records chain from the surviving point.
        assert chain.offer(10, 2)
        assert chain.scl == 10

    def test_truncate_window_relinks_new_generation_pending(self):
        chain = SegmentChainTracker()
        chain.offer(1, 0)
        chain.offer(2, 1)        # dead-generation record, inside the window
        chain.offer(101, 1)      # post-recovery record, above the window
        assert chain.scl == 2
        chain.truncate(1, last=100)
        # The window (1, 100] is annulled; the new-generation record
        # relinks through the surviving anchor.
        assert chain.scl == 101
        assert chain.max_received == 101

    def test_truncate_window_is_noop_past_new_generation_scl(self):
        chain = SegmentChainTracker()
        chain.offer(1, 0)
        chain.offer(5, 3)        # dead-generation stray, never chained
        chain.offer(101, 1)      # already chain-complete in the new gen
        assert chain.scl == 101
        chain.truncate(1, last=100)  # late-delivered truncation
        assert chain.scl == 101      # not regressed
        assert chain.pending_count() == 0  # the stray was annulled

    def test_rebase_jumps_forward(self):
        chain = SegmentChainTracker()
        chain.offer(9, 7)  # above the hydration baseline
        assert chain.rebase(7)
        assert chain.scl == 9

    def test_rebase_spanning_link(self):
        """Baseline between two chain records (e.g. a global coalesce
        point): the spanning record re-links at the baseline."""
        chain = SegmentChainTracker()
        chain.offer(9, 5)
        assert chain.rebase(7)  # 5 < 7 < 9
        assert chain.scl == 9

    def test_rebase_backwards_is_noop(self):
        chain = SegmentChainTracker()
        chain.offer(5, 0)
        assert not chain.rebase(3)
        assert chain.scl == 5


class TestPGConsistencyTracker:
    def test_pgcl_advances_at_write_quorum(self):
        tracker = PGConsistencyTracker(0, aurora_v6_config())
        members = sorted(tracker.config.members)
        for member in members[:3]:
            assert not tracker.record_ack(member, 10) or tracker.pgcl == 0
        assert tracker.pgcl == NULL_LSN
        assert tracker.record_ack(members[3], 10)  # 4th ack
        assert tracker.pgcl == 10

    def test_pgcl_is_the_fourth_highest_scl(self):
        tracker = PGConsistencyTracker(0, aurora_v6_config())
        members = sorted(tracker.config.members)
        scls = [20, 18, 15, 12, 7, 3]
        for member, scl in zip(members, scls):
            tracker.record_ack(member, scl)
        assert tracker.pgcl == 12

    def test_pgcl_never_regresses(self):
        tracker = PGConsistencyTracker(0, aurora_v6_config())
        members = sorted(tracker.config.members)
        for member in members[:4]:
            tracker.record_ack(member, 10)
        assert tracker.pgcl == 10
        # Stale/lower acks change nothing.
        tracker.record_ack(members[0], 5)
        assert tracker.pgcl == 10

    def test_ack_from_evicted_member_ignored(self):
        tracker = PGConsistencyTracker(0, aurora_v6_config())
        assert not tracker.record_ack("stranger", 100)
        assert tracker.pgcl == NULL_LSN

    def test_config_swap_preserves_known_scls(self):
        members = [f"s{i}" for i in range(6)]
        tracker = PGConsistencyTracker(0, v6_config(members))
        for member in members[:4]:
            tracker.record_ack(member, 10)
        from repro.core.quorum import transition_config

        dual = transition_config([members, members[:5] + ["g"]])
        tracker.set_config(dual)
        # Old acks meet 4/6 of the old group but not 4/6 of the new one.
        assert tracker.pgcl == NULL_LSN or tracker.pgcl == 10
        # PGCL may not regress below what was already observed... but the
        # new AND-quorum needs g too:
        tracker.record_ack("g", 10)
        assert tracker.pgcl == 10

    def test_durable_members_at(self):
        tracker = PGConsistencyTracker(0, aurora_v6_config())
        members = sorted(tracker.config.members)
        tracker.record_ack(members[0], 20)
        tracker.record_ack(members[1], 10)
        assert tracker.durable_members_at(15, members) == [members[0]]
        assert tracker.durable_members_at(10, members) == members[:2]
        # In the order asked, and only of those asked about (or tracked).
        asked = [members[1], "stranger", members[0]]
        assert tracker.durable_members_at(10, asked) == [members[1], members[0]]
        assert tracker.durable_members_at(0, ["stranger"]) == []


class TestNarrowedPGCLRecompute:
    """``record_ack`` evaluates the quorum expression only for the SCL
    candidates its ack can have made durable.  After every step the result
    must equal evaluating every candidate (what ``set_config`` still does)."""

    MEMBERS = [f"s{i}" for i in range(6)]
    SPARE = "g"

    @classmethod
    def configs(cls):
        from repro.core.quorum import full_tail_config, transition_config

        m = cls.MEMBERS
        return {
            "4/6": v6_config(m),
            # Membership transition: 4/6 of the old group AND of the new.
            "and": transition_config([m, m[:5] + [cls.SPARE]]),
            # Full/tail: 4/6 of everyone OR 3/3 of the fulls.
            "or": full_tail_config(m[:3], m[3:]),
        }

    @staticmethod
    def full_recompute(pgcl, scls, config):
        passing = [
            candidate
            for candidate in set(scls.values())
            if candidate > pgcl
            and config.write_satisfied(
                {m for m, scl in scls.items() if scl >= candidate}
            )
        ]
        return max(passing, default=pgcl)

    @given(
        first=st.sampled_from(["4/6", "and", "or"]),
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("ack"), st.integers(0, 6), st.integers(0, 12)
                ),
                st.tuples(
                    st.just("config"), st.sampled_from(["4/6", "and", "or"])
                ),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_a_full_recompute_after_every_step(self, first, steps):
        configs = self.configs()
        everyone = self.MEMBERS + [self.SPARE]
        config = configs[first]
        tracker = PGConsistencyTracker(0, config)
        model_pgcl = NULL_LSN
        for step in steps:
            if step[0] == "ack":
                before = tracker.pgcl
                advanced = tracker.record_ack(everyone[step[1]], step[2])
                assert advanced == (tracker.pgcl > before)
            else:
                config = configs[step[1]]
                tracker.set_config(config)
            model_pgcl = self.full_recompute(
                model_pgcl, tracker.member_scls, config
            )
            assert tracker.pgcl == model_pgcl

    def test_only_candidates_the_ack_can_have_changed_are_evaluated(self):
        evaluated = []

        class Spy:
            members = frozenset(self.MEMBERS)

            def write_satisfied(self, durable):
                evaluated.append(len(durable))
                return len(durable) >= 4

        tracker = PGConsistencyTracker(0, Spy())
        for member, scl in zip(self.MEMBERS, [30, 25, 20, 15, 10, 5]):
            tracker.record_ack(member, scl)
        assert tracker.pgcl == 15
        del evaluated[:]
        # s5: 5 -> 12.  Candidates in (max(pgcl, 5), 12] = none but 12
        # itself, which is below PGCL: nothing to evaluate.
        assert not tracker.record_ack("s5", 12)
        assert evaluated == []
        # s4: 10 -> 22.  Candidates in (15, 22] are 20 and 22; 30 and 25
        # were failing before and this ack cannot have changed that.
        assert tracker.record_ack("s4", 22)
        assert tracker.pgcl == 20
        assert sorted(evaluated) == [3, 4]


class TestVolumeConsistencyTracker:
    def test_figure_3_scenario(self):
        """Reproduce Figure 3 exactly: odd records -> PG1, even -> PG2;
        105 and 106 not yet at quorum; PGCL1=103, PGCL2=104, VCL=104."""
        volume = VolumeConsistencyTracker()
        for lsn in range(101, 107):
            pg = 1 if lsn % 2 else 2
            volume.register(lsn, pg, mtr_end=True)
        volume.on_pgcl(1, 103)
        volume.on_pgcl(2, 104)
        assert volume.vcl == 104
        assert volume.vdl == 104
        # 105 reaches quorum: VCL moves through 105... and 106 needs PG2.
        volume.on_pgcl(1, 105)
        assert volume.vcl == 105
        volume.on_pgcl(2, 106)
        assert volume.vcl == 106

    def test_vdl_sticks_to_mtr_boundaries(self):
        volume = VolumeConsistencyTracker()
        volume.register(1, 0, mtr_end=False)
        volume.register(2, 0, mtr_end=False)
        volume.register(3, 0, mtr_end=True)
        volume.register(4, 0, mtr_end=False)
        volume.on_pgcl(0, 2)
        assert volume.vcl == 2
        assert volume.vdl == NULL_LSN  # no MTR completed yet
        volume.on_pgcl(0, 4)
        assert volume.vcl == 4
        assert volume.vdl == 3  # the only MTR boundary

    def test_registration_must_be_ordered(self):
        volume = VolumeConsistencyTracker()
        volume.register(5, 0, True)
        with pytest.raises(ConfigurationError):
            volume.register(4, 0, True)

    def test_pgcl_regression_ignored(self):
        volume = VolumeConsistencyTracker()
        volume.register(1, 0, True)
        volume.on_pgcl(0, 1)
        assert volume.on_pgcl(0, 1) == (False, False)

    def test_reset_installs_recovered_points(self):
        volume = VolumeConsistencyTracker()
        volume.register(1, 0, True)
        volume.reset(vcl=50, vdl=48)
        assert volume.vcl == 50
        assert volume.vdl == 48
        assert volume.lag == 0

    def test_reset_vdl_defaults_to_vcl(self):
        volume = VolumeConsistencyTracker()
        volume.reset(vcl=7)
        assert volume.vcl == 7
        assert volume.vdl == 7

    def test_reset_rejects_vdl_above_vcl(self):
        # VDL is by definition the last MTR completion at or below VCL;
        # a recovery handing in the opposite ordering is a caller bug.
        volume = VolumeConsistencyTracker()
        with pytest.raises(ConfigurationError):
            volume.reset(vcl=5, vdl=7)

    def test_reset_below_current_points_is_allowed(self):
        # Recovery may truncate the uncommitted tail of a dead generation:
        # the recovered points can sit below where the old generation's
        # trackers had advanced (loss above VCL is legal, section 3.3).
        volume = VolumeConsistencyTracker()
        for lsn in (1, 2, 3):
            volume.register(lsn, 0, True)
        volume.on_pgcl(0, 3)
        assert volume.vcl == 3
        volume.reset(vcl=2, vdl=2)
        assert (volume.vcl, volume.vdl) == (2, 2)
        assert volume.lag == 0

    def test_reset_keeps_registration_high_water(self):
        # The LSN allocator does not rewind on recovery: re-registering an
        # LSN from the dead generation must still be rejected even when
        # the recovered VCL is lower.
        volume = VolumeConsistencyTracker()
        for lsn in (1, 2, 3):
            volume.register(lsn, 0, True)
        volume.reset(vcl=1)
        with pytest.raises(ConfigurationError):
            volume.register(3, 0, True)
        volume.register(4, 0, True)  # fresh LSNs continue fine
        assert volume.lag == 1

    def test_reset_discards_in_flight_mtr_tail(self):
        # An open MTR (no mtr_end yet) straddling the crash: the recovered
        # chain is cleared, and stale PGCL echoes from the old generation
        # cannot resurrect the annulled tail.
        volume = VolumeConsistencyTracker()
        volume.register(1, 0, True)
        volume.register(2, 0, False)
        volume.register(3, 1, False)  # MTR still open at crash time
        volume.on_pgcl(0, 2)
        assert (volume.vcl, volume.vdl) == (2, 1)
        volume.reset(vcl=1, vdl=1)
        assert volume.lag == 0
        assert volume.on_pgcl(0, 3) == (False, False)
        assert volume.on_pgcl(1, 3) == (False, False)
        assert (volume.vcl, volume.vdl) == (1, 1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_vcl_vdl_monotonic_under_any_ack_order(self, assignments):
        """Property: however PGCLs advance, VCL/VDL only move forward and
        VDL <= VCL always, with VDL on an MTR boundary."""
        volume = VolumeConsistencyTracker()
        mtr_ends = {}
        for lsn, (pg, end) in enumerate(assignments, start=1):
            volume.register(lsn, pg, end)
            mtr_ends[lsn] = end
        last_vcl, last_vdl = 0, 0
        import random as _random

        order = list(range(1, len(assignments) + 1))
        _random.Random(42).shuffle(order)
        for lsn in order:
            pg = assignments[lsn - 1][0]
            volume.on_pgcl(pg, lsn)
            assert volume.vcl >= last_vcl
            assert volume.vdl >= last_vdl
            assert volume.vdl <= volume.vcl
            if volume.vdl > 0:
                assert mtr_ends[volume.vdl]
            last_vcl, last_vdl = volume.vcl, volume.vdl


class TestPGFrontierHistory:
    def test_translates_global_points_to_pg_points(self):
        history = PGFrontierHistory()
        history.record(1, 0)
        history.record(2, 1)
        history.record(3, 0)
        history.advance_vdl(3)
        assert history.pg_read_point(0, 3) == 3
        assert history.pg_read_point(1, 3) == 2
        assert history.pg_read_point(2, 3) == NULL_LSN

    def test_snapshots_per_vdl_point(self):
        history = PGFrontierHistory()
        history.record(1, 0)
        history.advance_vdl(1)
        history.record(2, 1)
        history.advance_vdl(2)
        assert history.frontier_at(1) == {0: 1}
        assert history.frontier_at(2) == {0: 1, 1: 2}

    def test_unknown_read_point_rejected(self):
        history = PGFrontierHistory()
        with pytest.raises(ConfigurationError):
            history.frontier_at(17)

    def test_null_point_always_known(self):
        assert PGFrontierHistory().frontier_at(NULL_LSN) == {}

    def test_prune_keeps_floor_and_latest(self):
        history = PGFrontierHistory()
        for lsn in range(1, 6):
            history.record(lsn, 0)
            history.advance_vdl(lsn)
        history.prune_below(4)
        assert history.frontier_at(4) == {0: 4}
        assert history.frontier_at(5) == {0: 5}
        with pytest.raises(ConfigurationError):
            history.frontier_at(2)

    def test_out_of_order_record_rejected(self):
        history = PGFrontierHistory()
        history.record(5, 0)
        with pytest.raises(ConfigurationError):
            history.record(4, 0)

    def test_reset_installs_recovered_frontier(self):
        history = PGFrontierHistory()
        history.reset(vdl=100, frontiers={0: 99, 1: 100})
        assert history.pg_read_point(0, 100) == 99
        assert history.pg_read_point(1, 100) == 100


class TestMinReadPointTracker:
    def test_idle_reports_floor(self):
        tracker = MinReadPointTracker()
        tracker.advance_floor(10)
        assert tracker.current() == 10

    def test_active_views_pin_the_minimum(self):
        tracker = MinReadPointTracker()
        tracker.advance_floor(10)
        tracker.register(10)
        tracker.advance_floor(50)
        assert tracker.current() == 10  # old view pins PGMRPL
        tracker.release(10)
        assert tracker.current() == 50

    def test_refcounting_same_point(self):
        tracker = MinReadPointTracker()
        tracker.register(5)
        tracker.register(5)
        tracker.release(5)
        assert tracker.current() == 5
        tracker.release(5)
        assert tracker.current() == NULL_LSN

    def test_register_below_floor_rejected(self):
        tracker = MinReadPointTracker()
        tracker.advance_floor(10)
        with pytest.raises(ConfigurationError):
            tracker.register(5)

    def test_release_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            MinReadPointTracker().release(1)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_pgmrpl_is_monotonic(self, points):
        """Property: opening views at non-decreasing durable points and
        closing them in any order never moves PGMRPL backwards."""
        tracker = MinReadPointTracker()
        reported = [tracker.current()]
        open_views = []
        floor = 0
        for point in sorted(points):
            floor = max(floor, point)
            tracker.advance_floor(floor)
            tracker.register(point if point >= floor else floor)
            open_views.append(point if point >= floor else floor)
            reported.append(tracker.current())
        import random as _random

        _random.Random(7).shuffle(open_views)
        for point in open_views:
            tracker.release(point)
            reported.append(tracker.current())
        assert reported == sorted(reported)
