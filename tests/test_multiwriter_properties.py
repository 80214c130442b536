"""Property tests for the multi-writer extension.

The headline invariant is conservation: a workload of random transfers
between accounts scattered across partitions, interleaved with random
participant crashes and recoveries, must never create or destroy money --
every transfer is atomic across partitions or not visible at all, and
acknowledged transfers survive every crash.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.multiwriter import MultiWriterCluster

ACCOUNTS = [f"acct{i:02d}" for i in range(8)]
INITIAL = 100


def setup_bank(seed, partitions=3):
    mw = MultiWriterCluster(partition_count=partitions, seed=seed)
    session = mw.session()
    for account in ACCOUNTS:
        session.write(account, INITIAL)
    return mw, session


def total_balance(session):
    return sum(session.get(account) or 0 for account in ACCOUNTS)


def catch_up_all(mw, session):
    for applier in mw.appliers:
        session.drive(applier.ensure_applied(mw.journal.durable_gsn))


def transfer_writes(mw, session, src, dst, amount):
    """A transfer's write set, by partition, from the current balances."""
    writes = {}
    for account, delta in ((src, -amount), (dst, amount)):
        writes.setdefault(mw.partition_of(account), []).append(
            (account, session.get(account) + delta)
        )
    return writes


@st.composite
def transfer_scripts(draw):
    steps = []
    for _ in range(draw(st.integers(2, 10))):
        kind = draw(
            st.sampled_from(["transfer", "transfer", "crash", "journal-crash"])
        )
        if kind == "transfer":
            src = draw(st.sampled_from(ACCOUNTS))
            dst = draw(st.sampled_from(ACCOUNTS))
            amount = draw(st.integers(1, 30))
            steps.append(("transfer", src, dst, amount))
        elif kind == "crash":
            steps.append(("crash", draw(st.integers(0, 2))))
        else:
            # The transfer in flight, how long it flies, and the AZ whose
            # two journal segments are down from then on (None: all up).
            steps.append((
                "journal-crash",
                draw(st.sampled_from(ACCOUNTS)),
                draw(st.sampled_from(ACCOUNTS)),
                draw(st.integers(1, 30)),
                draw(st.sampled_from([0.05, 0.25, 0.5, 1.0])),
                draw(st.sampled_from([None, 0, 1, 2])),
            ))
    return draw(st.integers(0, 10_000)), steps


class TestConservation:
    @given(transfer_scripts())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_money_is_conserved_under_crashes(self, script):
        seed, steps = script
        mw, session = setup_bank(seed)
        expected_total = len(ACCOUNTS) * INITIAL
        crashed: set[int] = set()
        journal_down: list[str] = []
        gsns: list[int] = []
        for step in steps:
            if step[0] == "journal-crash":
                _tag, src, dst, amount, grace_ms, az = step
                if src != dst:
                    mw.journal.append(
                        "in-flight",
                        transfer_writes(mw, session, src, dst, amount),
                    )
                mw.run_for(grace_ms)
                for name in journal_down:
                    mw.failures.restore_node(name)
                journal_down = [] if az is None else [
                    mw.journal.cluster.segment_name(0, slot)
                    for slot in (az, az + 3)  # Aurora's slot -> AZ map
                ]
                for name in journal_down:
                    mw.failures.crash_node(name)
                mw.journal.crash()
                session.drive(mw.journal.recover())
                catch_up_all(mw, session)
            elif step[0] == "transfer":
                _tag, src, dst, amount = step
                involved = {mw.partition_of(src), mw.partition_of(dst)}
                if involved & crashed:
                    continue  # that owner is down; skip the transfer
                txn = session.begin()
                src_balance = session.get(src, txn=txn)
                dst_balance = session.get(dst, txn=txn)
                if src == dst:
                    continue
                session.put(txn, src, src_balance - amount)
                session.put(txn, dst, dst_balance + amount)
                result = session.commit(txn)
                if result["path"] == "journal":
                    gsns.append(result["gsn"])
            else:
                index = step[1] % mw.partition_count
                if index not in crashed and len(crashed) == 0:
                    mw.crash_partition(index)
                    crashed.add(index)
                    session.drive(mw.recover_partition(index))
                    crashed.discard(index)
        catch_up_all(mw, session)
        assert total_balance(session) == expected_total
        # No GSN names two entries.
        assert gsns == sorted(set(gsns))

    def test_transfer_is_atomic_across_partitions(self):
        mw, session = setup_bank(777)
        # Pick two accounts on different partitions.
        src = ACCOUNTS[0]
        dst = next(
            a for a in ACCOUNTS
            if mw.partition_of(a) != mw.partition_of(src)
        )
        txn = session.begin()
        session.put(txn, src, INITIAL - 40)
        session.put(txn, dst, INITIAL + 40)
        session.commit(txn)
        assert session.get(src) == 60
        assert session.get(dst) == 140
        # Crash BOTH participants; the transfer must fully survive.
        for index in {mw.partition_of(src), mw.partition_of(dst)}:
            mw.crash_partition(index)
            session.drive(mw.recover_partition(index))
        assert session.get(src) == 60
        assert session.get(dst) == 140

    def test_unsequenced_transfer_vanishes_entirely(self):
        """A cross transaction that never reached the journal is no
        transaction at all -- no partial state anywhere."""
        mw, session = setup_bank(778)
        src, dst = ACCOUNTS[0], ACCOUNTS[1]
        txn = session.begin()
        session.put(txn, src, 0)
        session.put(txn, dst, 999)
        session.rollback(txn)  # staged writes discarded client-side
        assert session.get(src) == INITIAL
        assert session.get(dst) == INITIAL
        assert total_balance(session) == len(ACCOUNTS) * INITIAL
