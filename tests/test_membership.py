"""Unit + property tests for membership-change state machines (section 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.membership import (
    MembershipState,
    verify_transition_safety,
)
from repro.errors import MembershipError

SIX = ["A", "B", "C", "D", "E", "F"]


class TestMembershipState:
    def test_initial_is_stable(self):
        state = MembershipState.initial(SIX)
        assert state.is_stable
        assert state.epoch == 1
        assert state.members == frozenset(SIX)
        assert state.member_groups() == [frozenset(SIX)]

    def test_initial_requires_six(self):
        with pytest.raises(MembershipError):
            MembershipState.initial(SIX[:5])

    def test_duplicate_members_rejected(self):
        with pytest.raises(MembershipError):
            MembershipState.initial(["A"] * 6)

    def test_figure_5_epoch_2(self):
        """F suspect, G added: both groups active, epoch 2."""
        state = MembershipState.initial(SIX).begin_replacement("F", "G")
        assert state.epoch == 2
        assert not state.is_stable
        groups = state.member_groups()
        assert frozenset(SIX) in groups
        assert frozenset(["A", "B", "C", "D", "E", "G"]) in groups
        assert len(groups) == 2
        plans = state.pending_replacements
        assert len(plans) == 1
        assert (plans[0].incumbent, plans[0].candidate) == ("F", "G")

    def test_figure_5_epoch_3_commit(self):
        """G hydrated, F confirmed dead: collapse to ABCDEG, epoch 3."""
        dual = MembershipState.initial(SIX).begin_replacement("F", "G")
        final = dual.commit_replacement(slot=5)
        assert final.epoch == 3
        assert final.is_stable
        assert final.members == frozenset(["A", "B", "C", "D", "E", "G"])

    def test_rollback_when_f_comes_back(self):
        """'If F comes back, we can make a second membership change back
        to ABCDEF.'"""
        dual = MembershipState.initial(SIX).begin_replacement("F", "G")
        reverted = dual.rollback_replacement(slot=5)
        assert reverted.epoch == 3
        assert reverted.members == frozenset(SIX)

    def test_double_fault_gives_four_groups(self):
        """E fails while F->G is in flight: the paper's quad quorum set."""
        state = (
            MembershipState.initial(SIX)
            .begin_replacement("F", "G")
            .begin_replacement("E", "H")
        )
        groups = {frozenset(g) for g in state.member_groups()}
        assert groups == {
            frozenset("ABCDEF"),
            frozenset("ABCDEG"),
            frozenset("ABCDFH"),
            frozenset("ABCDGH"),
        }
        # "simply writing to the four members ABCD meets quorum"
        config = state.quorum_config()
        assert config.write_satisfied(set("ABCD"))

    def test_triple_concurrent_replacement_rejected(self):
        state = (
            MembershipState.initial(SIX)
            .begin_replacement("F", "G")
            .begin_replacement("E", "H")
        )
        with pytest.raises(MembershipError):
            state.begin_replacement("D", "I")

    def test_replacing_a_pending_slot_rejected(self):
        state = MembershipState.initial(SIX).begin_replacement("F", "G")
        with pytest.raises(MembershipError):
            state.begin_replacement("F", "H")
        with pytest.raises(MembershipError):
            state.begin_replacement("G", "H")

    def test_candidate_must_be_new(self):
        state = MembershipState.initial(SIX)
        with pytest.raises(MembershipError):
            state.begin_replacement("F", "A")

    def test_unknown_incumbent_rejected(self):
        with pytest.raises(MembershipError):
            MembershipState.initial(SIX).begin_replacement("Z", "G")

    def test_collapse_without_pending_rejected(self):
        state = MembershipState.initial(SIX)
        with pytest.raises(MembershipError):
            state.commit_replacement(0)
        with pytest.raises(MembershipError):
            state.rollback_replacement(3)

    def test_every_state_quorum_config_proves(self):
        state = MembershipState.initial(SIX)
        state.quorum_config().prove()
        dual = state.begin_replacement("F", "G")
        dual.quorum_config().prove()
        quad = dual.begin_replacement("E", "H")
        quad.quorum_config().prove()

    def test_quorum_config_is_derived_once_per_state(self):
        """The proof is a 2^n sweep and the state is frozen: a second ask
        returns the same proved object, a transition derives its own, and
        the memo is not part of the state's value."""
        state = MembershipState.initial(SIX)
        twin = MembershipState.initial(SIX)
        config = state.quorum_config()
        assert state.quorum_config() is config and config.is_proven
        assert state == twin and hash(state) == hash(twin)
        assert repr(state) == repr(twin)
        dual = state.begin_replacement("F", "G")
        assert dual.quorum_config() is not config
        assert dual.quorum_config().members == frozenset(SIX) | {"G"}
        assert state.quorum_config() is config


class TestTransitionSafety:
    def test_figure_5_sequence_is_safe(self):
        s1 = MembershipState.initial(SIX)
        s2 = s1.begin_replacement("F", "G")
        verify_transition_safety(s1, s2)
        s3 = s2.commit_replacement(5)
        verify_transition_safety(s2, s3)

    def test_rollback_is_safe(self):
        s1 = MembershipState.initial(SIX)
        s2 = s1.begin_replacement("F", "G")
        verify_transition_safety(s2, s2.rollback_replacement(5))

    def test_double_fault_sequence_is_safe(self):
        s1 = MembershipState.initial(SIX)
        s2 = s1.begin_replacement("F", "G")
        s3 = s2.begin_replacement("E", "H")
        verify_transition_safety(s2, s3)
        s4 = s3.commit_replacement(5)
        verify_transition_safety(s3, s4)
        s5 = s4.commit_replacement(4)
        verify_transition_safety(s4, s5)

    def test_epoch_must_increase(self):
        s1 = MembershipState.initial(SIX)
        with pytest.raises(MembershipError, match="epoch"):
            verify_transition_safety(s1, s1)

    def test_disjoint_jump_rejected(self):
        """Swapping the whole membership at once has no write overlap."""
        s1 = MembershipState.initial(SIX)
        s2 = MembershipState.initial(
            ["U", "V", "W", "X", "Y", "Z"], epoch=2
        )
        with pytest.raises(MembershipError, match="disjoint"):
            verify_transition_safety(s1, s2)


@st.composite
def replacement_walks(draw):
    """Random sequences of legal membership operations."""
    ops = draw(
        st.lists(
            st.sampled_from(["begin", "commit", "rollback"]),
            min_size=1,
            max_size=8,
        )
    )
    return ops


class TestMembershipProperties:
    @given(replacement_walks())
    @settings(max_examples=60, deadline=None)
    def test_random_walks_stay_safe(self, ops):
        """Property: every legal transition in a random op walk passes the
        safety proof and strictly bumps the epoch."""
        state = MembershipState.initial(SIX)
        candidate_counter = 0
        for op in ops:
            pending = state.pending_replacements
            try:
                if op == "begin":
                    incumbents = [
                        alts[0]
                        for alts in state.slots
                        if len(alts) == 1
                    ]
                    candidate_counter += 1
                    new_state = state.begin_replacement(
                        incumbents[0], f"N{candidate_counter}"
                    )
                elif op == "commit" and pending:
                    new_state = state.commit_replacement(pending[0].slot)
                elif op == "rollback" and pending:
                    new_state = state.rollback_replacement(pending[0].slot)
                else:
                    continue
            except MembershipError:
                continue  # illegal in this state (e.g. 3rd concurrent)
            verify_transition_safety(state, new_state)
            assert new_state.epoch == state.epoch + 1
            new_state.quorum_config().prove()
            state = new_state

    @given(st.integers(0, 5))
    @settings(max_examples=6, deadline=None)
    def test_replacement_is_reversible_from_any_slot(self, slot):
        state = MembershipState.initial(SIX)
        incumbent = state.slots[slot][0]
        dual = state.begin_replacement(incumbent, "G")
        reverted = dual.rollback_replacement(slot)
        assert reverted.members == state.members
