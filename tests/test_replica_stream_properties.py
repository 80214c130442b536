"""Property tests for the replication stream's ordering robustness.

The replica's invariants must hold under ANY delivery order of chunks and
VDL updates (the simulated network jitters latencies, so reordering is
real).  These tests drive the intake functions directly with adversarial
permutations.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AuroraCluster
from repro.db.replication import (
    CommitNotice,
    MTRChunk,
    ReplicationFrame,
    VDLUpdate,
)


def _stream_items(payload):
    """Unwrap a wire payload into its stream items (frames carry many)."""
    if isinstance(payload, ReplicationFrame):
        return list(payload.items)
    if isinstance(payload, (MTRChunk, VDLUpdate, CommitNotice)):
        return [payload]
    return []


def captured_stream(txn_count, seed):
    """Run a writer with a replica attached; capture the raw stream."""
    cluster = AuroraCluster.build(seed=seed)
    replica = cluster.add_replica("capture")
    stream = []
    cluster.network.add_tap(
        lambda m: stream.extend(_stream_items(m.payload))
        if m.dst == "capture"
        else None
    )
    db = cluster.session()
    expected = {}
    for i in range(txn_count):
        key = f"key{i:02d}"
        db.write(key, i)
        expected[key] = i
    cluster.run_for(30)
    return cluster, stream, expected


def fresh_replica(cluster, name="fresh"):
    """A second replica attached at the same point the stream started."""
    from repro.db.replica import ReplicaInstance

    replica = ReplicaInstance(
        name=name, metadata=cluster.metadata, rng=cluster.rng
    )
    cluster.network.attach(replica, az="az2")
    replica.start()
    return replica


class TestStreamOrderRobustness:
    @given(seed=st.integers(0, 1_000), shuffle_seed=st.integers(0, 1_000))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_permutation_converges_to_the_same_state(
        self, seed, shuffle_seed
    ):
        cluster, stream, expected = captured_stream(6, seed=seed)
        replica = fresh_replica(cluster, name=f"r{seed}-{shuffle_seed}")
        # Attach at stream start (the capture replica attached at lsn 1
        # equivalent): reconstruct the attach point from the first chunk.
        chunks = [p for p in stream if isinstance(p, MTRChunk)]
        first_lsn = min(c.records[0].lsn for c in chunks)
        replica.attach(
            next_expected_lsn=first_lsn,
            vdl=first_lsn - 1,
            pg_frontiers={0: first_lsn - 1},
            commit_history={},
        )
        shuffled = list(stream)
        random.Random(shuffle_seed).shuffle(shuffled)
        for payload in shuffled:
            if isinstance(payload, MTRChunk):
                replica._on_chunk(payload)
            elif isinstance(payload, VDLUpdate):
                replica._on_vdl_update(payload)
            else:
                replica._on_commit_notice(payload)
        # All chunks sequenced + durability known: fully applied.
        assert replica.replica_lag == 0
        assert replica._pending_chunks == []
        # The applied state matches the writer's, read through the btree.
        from repro.db.session import Session

        rs = Session(replica)
        for key, value in expected.items():
            assert rs.get(key) == value

    @given(seed=st.integers(0, 1_000))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_vdl_gate_never_applies_ahead_of_durability(self, seed):
        """Feed chunks WITHOUT their VDL updates: nothing may apply."""
        cluster, stream, _expected = captured_stream(4, seed=seed)
        replica = fresh_replica(cluster, name=f"gate{seed}")
        chunks = [p for p in stream if isinstance(p, MTRChunk)]
        first_lsn = min(c.records[0].lsn for c in chunks)
        replica.attach(
            next_expected_lsn=first_lsn,
            vdl=first_lsn - 1,
            pg_frontiers={0: first_lsn - 1},
            commit_history={},
        )
        for chunk in chunks:
            replica._on_chunk(chunk)
        # Chunks buffered, none applied (invariant 1: lag durability).
        assert replica.stats.chunks_applied == 0
        assert replica.applied_vdl == first_lsn - 1
        # Now release durability: everything applies in order.
        top = max(c.records[-1].lsn for c in chunks)
        replica._on_vdl_update(
            VDLUpdate(writer_id="writer-1", vdl=top)
        )
        assert replica.stats.chunks_applied == len(chunks)
        assert replica.applied_vdl == top
