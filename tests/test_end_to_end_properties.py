"""End-to-end property tests: random workloads, random faults, one oracle.

Each hypothesis example generates a script of client operations and fault
injections, runs it against a fresh deterministic cluster, and checks the
library against a plain-dict oracle updated only on *acknowledged* commits:

- every acknowledged transaction's effects are visible afterwards,
- after a crash + recovery, the database equals the oracle exactly on all
  acknowledged state (unacknowledged transactions may appear only if they
  are complete),
- the B-tree structure check passes whenever we look.

These are the paper's guarantees, stated once and hammered with random
schedules.  The whole module is parametrized over the storage backend (the
shared ``backend`` fixture), so it doubles as a conformance check: the
guarantees must hold for the Aurora 4/6 quorum and the Taurus log/page
split alike.  Fault amplitudes (how many segments a script may kill, when
a transaction is refused as hopeless) come from the backend's replication
config rather than hard-coded 6-way constants.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AuroraCluster
from repro.db.session import Session

KEYS = [f"key{i:02d}" for i in range(12)]


@st.composite
def scripts(draw):
    """A random interleaving of transactions and fault events."""
    steps = []
    step_count = draw(st.integers(min_value=3, max_value=14))
    for _ in range(step_count):
        kind = draw(
            st.sampled_from(
                ["txn", "txn", "txn", "run", "kill_segment",
                 "restore_segment", "crash_recover"]
            )
        )
        if kind == "txn":
            ops = draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(["put", "delete"]),
                        st.sampled_from(KEYS),
                        st.integers(0, 999),
                    ),
                    min_size=1,
                    max_size=4,
                )
            )
            wait = draw(st.booleans())
            steps.append(("txn", ops, wait))
        elif kind == "run":
            steps.append(("run", draw(st.integers(1, 30))))
        elif kind == "kill_segment":
            steps.append(("kill", draw(st.integers(0, 5))))
        elif kind == "restore_segment":
            steps.append(("restore", draw(st.integers(0, 5))))
        else:
            steps.append(("crash_recover",))
    seed = draw(st.integers(0, 2**20))
    return seed, steps


def run_script(seed, steps, backend="aurora"):
    cluster = AuroraCluster.build(seed=seed, backend=backend)
    db = Session(cluster.writer)
    oracle: dict = {}
    #: key -> values an *unacknowledged but possibly complete* transaction
    #: wrote; keys such a transaction may have deleted.  Recovery rolls a
    #: complete transaction forward whether or not its commit future ever
    #: resolved ("unacknowledged transactions may appear only if they are
    #: complete"), so these are legitimate read results, not lost acks.
    uncertain: dict = {}
    uncertain_deleted: set = set()
    pending: list = []
    down: set[str] = set()
    segment_names = [
        p.segment_id for p in cluster.metadata.segments_of_pg(0)
    ]
    max_kills = cluster.backend.max_tolerated_kills()

    def apply_to_oracle(ops):
        for op, key, value in ops:
            if op == "put":
                oracle[key] = value
            else:
                oracle.pop(key, None)

    def note_uncertain(ops):
        for op, key, value in ops:
            if op == "put":
                uncertain.setdefault(key, set()).add(value)
            else:
                uncertain_deleted.add(key)

    def on_commit_done(future, ops):
        if future.exception() is None:
            apply_to_oracle(ops)
        else:
            # Rejected -- but possibly after the redo reached a quorum.
            note_uncertain(ops)

    def sweep_unresolved():
        """A writer crash kills in-flight commit futures; their effects
        are uncertain from here on."""
        for future, ops in pending:
            if not future.done:
                note_uncertain(ops)
        pending.clear()

    for step in steps:
        if step[0] == "txn":
            _tag, ops, wait = step
            # Refuse to start a txn that cannot commit (quorum down).
            if len(down) > max_kills:
                continue
            txn = db.begin()
            try:
                for op, key, value in ops:
                    if op == "put":
                        db.put(txn, key, value)
                    else:
                        db.delete(txn, key)
            except Exception:
                db.rollback(txn)
                continue
            if wait:
                db.commit(txn)
                apply_to_oracle(ops)
            else:
                future = db.commit_async(txn)
                future.add_done_callback(
                    lambda f, ops=ops: on_commit_done(f, ops)
                )
                pending.append((future, ops))
        elif step[0] == "run":
            cluster.run_for(float(step[1]))
        elif step[0] == "kill":
            name = segment_names[step[1] % len(segment_names)]
            if len(down) < max_kills and name not in down:
                cluster.failures.crash_node(name)
                down.add(name)
        elif step[0] == "restore":
            name = segment_names[step[1] % len(segment_names)]
            if name in down:
                cluster.failures.restore_node(name)
                down.remove(name)
        elif step[0] == "crash_recover":
            sweep_unresolved()
            cluster.crash_writer()
            process = cluster.recover_writer()
            db = Session(cluster.writer)
            db.drive(process)
    # Final recovery pass: everything acknowledged must be intact.
    sweep_unresolved()
    cluster.crash_writer()
    process = cluster.recover_writer()
    db = Session(cluster.writer)
    db.drive(process)
    return cluster, db, oracle, uncertain, uncertain_deleted


class TestEndToEndProperties:
    @given(script=scripts())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_acknowledged_state_always_survives(self, backend, script):
        seed, steps = script
        cluster, db, oracle, uncertain, uncertain_deleted = run_script(
            seed, steps, backend=backend
        )
        for key, value in oracle.items():
            got = db.get(key)
            legitimate = (
                got == value
                or got in uncertain.get(key, ())
                or (got is None and key in uncertain_deleted)
            )
            assert legitimate, (
                f"acknowledged {key}={value} lost, read {got!r} "
                f"(seed={seed}, steps={steps})"
            )

    @given(script=scripts())
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_btree_structure_survives_everything(self, backend, script):
        seed, steps = script
        cluster, db, _oracle, _unc, _del = run_script(
            seed, steps, backend=backend
        )
        leaves = db.drive(cluster.writer.btree.check_structure())
        assert leaves >= 1

    @given(
        seed=st.integers(0, 2**20),
        grace_ms=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_uncertain_commits_are_all_or_nothing_across_failover(
        self, backend, seed, grace_ms
    ):
        """A multi-key transaction whose commit future resolved as
        *uncertain* (the writer died before acknowledging) must be either
        entirely visible or entirely absent after an autonomous failover
        -- never half-applied.  ``grace_ms`` varies how far the redo
        batches get before the kill, sweeping the interesting window from
        nothing-sent to everything-durable-but-unacked."""
        from repro.db.instance import InstanceState
        from repro.errors import CommitUncertainError
        from repro.repair import PROMOTED

        cluster = AuroraCluster.build(seed=seed, backend=backend)
        for _ in range(2):
            cluster.add_replica()
        cluster.arm_failover()
        cluster.run_for(100.0)
        db = Session(cluster.writer)
        baseline = {f"base{i}": f"b{i}" for i in range(3)}
        for key, value in baseline.items():
            db.write(key, value)
        cluster.run_for(50.0)

        writer = cluster.writer
        txn_writes = {f"atomic{i}": f"a{i}.{seed}" for i in range(3)}
        txn = writer.begin()
        for key in sorted(txn_writes):
            db.drive(writer.put(txn, key, txn_writes[key]))
        future = writer.commit(txn)
        # Let the batches travel for a seed-dependent sliver, then kill
        # the writer before (or exactly as) the quorum ack lands.
        cluster.run_for(grace_ms)
        acked_before_kill = future.done and future.exception() is None
        writer.crash()
        cluster.network.fail_node(writer.name)

        for _ in range(2000):
            if any(
                r.outcome == PROMOTED for r in cluster.failover.records
            ) and cluster.writer.state is InstanceState.OPEN:
                break
            cluster.run_for(5.0)
        assert cluster.writer.state is InstanceState.OPEN

        if not acked_before_kill:
            # Never a false acknowledgement: the future resolved with the
            # typed uncertain-outcome error.
            assert future.done
            assert isinstance(future.exception(), CommitUncertainError)

        db = Session(cluster.writer)
        got = {key: db.get(key) for key in sorted(txn_writes)}
        applied = [k for k, v in got.items() if v == txn_writes[k]]
        absent = [k for k, v in got.items() if v is None]
        assert len(applied) + len(absent) == len(txn_writes), (
            f"unexpected values after failover: {got} (seed={seed})"
        )
        assert not (applied and absent), (
            f"half-applied uncertain transaction after failover: "
            f"applied={applied} absent={absent} (seed={seed}, "
            f"grace={grace_ms})"
        )
        if acked_before_kill:
            assert not absent, (
                f"acknowledged transaction lost: {got} (seed={seed})"
            )
        for key, value in baseline.items():
            assert db.get(key) == value

    def test_deterministic_replay(self, backend):
        """The same script yields byte-identical outcomes."""
        script = (
            1234,
            [
                ("txn", [("put", "key01", 7)], True),
                ("kill", 5),
                ("txn", [("put", "key02", 8), ("delete", "key01", 0)],
                 False),
                ("run", 10),
                ("crash_recover",),
                ("txn", [("put", "key03", 9)], True),
            ],
        )
        states = []
        for _ in range(2):
            cluster, db, oracle, _unc, _del = run_script(
                *script, backend=backend
            )
            states.append(
                (
                    sorted(oracle.items()),
                    [(k, db.get(k)) for k in KEYS],
                    cluster.writer.vcl,
                    cluster.loop.now,
                )
            )
        assert states[0] == states[1]
