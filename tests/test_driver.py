"""Integration tests for the storage driver: boxcar modes, acknowledgement
processing, hedged reads, and quorum RPC."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AuroraCluster
from repro.core.membership import MembershipState
from repro.db import driver as driver_module
from repro.db.driver import (
    QUORUM_DEADLINE_MS,
    SUBMIT_DELAY_MS,
    BoxcarMode,
    StorageDriver,
)
from repro.sim.events import EventLoop
from repro.storage.backend import AuroraBackend, TaurusBackend
from repro.storage.metadata import SegmentPlacement, StorageMetadataService
from repro.storage.segment import SegmentKind
from repro.storage.volume import VolumeGeometry

from .conftest import BACKEND_NAMES, SEEDS, found_by_search


class TestBoxcarModes:
    def test_aurora_mode_batches_without_waiting(self):
        cluster = AuroraCluster.build(seed=31, boxcar_mode=BoxcarMode.AURORA)
        db = cluster.session()
        txn = db.begin()
        for i in range(8):
            db.put(txn, f"k{i}", i)
        db.commit(txn)
        stats = cluster.writer.driver.stats
        # Every record waited at most the submit delay.
        assert stats.boxcar_delays
        assert max(stats.boxcar_delays) <= SUBMIT_DELAY_MS + 1e-9

    def test_timeout_mode_waits_under_low_load(self):
        cluster = AuroraCluster.build(
            seed=31, boxcar_mode=BoxcarMode.TIMEOUT, boxcar_timeout=4.0,
            boxcar_max_records=32,
        )
        db = cluster.session()
        db.write("lonely", 1)  # single record: must wait out the timer
        stats = cluster.writer.driver.stats
        assert max(stats.boxcar_delays) >= 4.0

    def test_timeout_mode_flushes_when_full(self):
        cluster = AuroraCluster.build(
            seed=31, boxcar_mode=BoxcarMode.TIMEOUT, boxcar_timeout=50.0,
            boxcar_max_records=4,
        )
        db = cluster.session()
        txn = db.begin()
        for i in range(8):  # two full boxcars, no timer needed
            db.put(txn, f"k{i}", i)
        db.commit(txn)
        stats = cluster.writer.driver.stats
        # The data records flush on the size trigger; only the lone commit
        # record is stuck behind the boxcar timer -- exactly the
        # low-load jitter the paper criticises about timeout boxcars.
        fast = [d for d in stats.boxcar_delays if d < 50.0]
        assert len(fast) >= 8
        assert max(stats.boxcar_delays) >= 50.0

    def test_immediate_mode_never_delays(self):
        cluster = AuroraCluster.build(
            seed=31, boxcar_mode=BoxcarMode.IMMEDIATE
        )
        db = cluster.session()
        txn = db.begin()
        for i in range(5):
            db.put(txn, f"k{i}", i)
        db.commit(txn)
        stats = cluster.writer.driver.stats
        assert all(d == 0.0 for d in stats.boxcar_delays)

    def test_aurora_batches_more_than_immediate(self):
        """Same workload, fewer network operations under AURORA batching."""
        def batches_for(mode):
            cluster = AuroraCluster.build(seed=77, boxcar_mode=mode)
            db = cluster.session()
            txn = db.begin()
            for i in range(20):
                db.put(txn, f"k{i}", i)
            db.commit(txn)
            return cluster.writer.driver.stats.batches_sent

        assert batches_for(BoxcarMode.AURORA) < batches_for(
            BoxcarMode.IMMEDIATE
        )


#: The window the floor is computed with, held here as a literal on
#: purpose: changing ``SUBMIT_DELAY_MS`` is a decision made on the ledger
#: (docs/PERF.md "One flush policy"), and then this number moves with it.
WINDOW_MS = 0.05


def trickle_world(backend):
    """About 1 500 one-put transactions arriving at 0.5 per simulated ms
    (the ledger's ``commit_trickle`` in the small, ~0.5 s of host time):
    ``(cluster, begin-to-ack latencies, the wait of every record sent,
    boxcars sent)``."""
    from repro.workloads import WorkloadGenerator, WorkloadRunner, profile

    cluster = AuroraCluster.build(seed=2101, backend=backend)
    runner = WorkloadRunner(
        cluster, WorkloadGenerator(profile("trickle"), seed=2101)
    )
    stats = runner.run_open_loop(rate_per_ms=0.5, duration_ms=3000.0)
    assert 1400 < stats.committed and stats.aborted < 5
    sent = cluster.writer.driver.stats
    fan_out = len(cluster.metadata.routes_of_pg(0).write_members)
    return (
        cluster,
        stats.commit_latencies,
        tuple(sent.boxcar_delays),
        sent.batches_sent // fan_out,
    )


def commit_floor_ms(cluster, draws=20_000):
    """Window + the median, over ``draws`` samples from the cluster's own
    latency models (test-local RNG), of the moment the acks in hand first
    satisfy PG 0's write quorum: per write member, link out +
    ``disk_service`` + link back, intra- or cross-AZ as it is placed."""
    network = cluster.network
    writer_az = network.az_of(cluster.writer.name)
    quorum = cluster.metadata.quorum_config(0)
    legs = [
        (
            member,
            network.intra_az
            if network.az_of(member) == writer_az
            else network.cross_az,
            cluster.nodes[member].config.disk,
        )
        for member in cluster.metadata.routes_of_pg(0).write_members
    ]
    rng = random.Random(21)
    quorum_at = []
    for _ in range(draws):
        acked = set()
        for round_trip, member in sorted(
            (link.sample(rng) + disk.sample(rng) + link.sample(rng), member)
            for member, link, disk in legs
        ):
            acked.add(member)
            if quorum.write_satisfied(acked):
                quorum_at.append(round_trip)
                break
    return WINDOW_MS + statistics.median(quorum_at)


def burst_delays(cluster):
    """Three boxcars' worth of one-put commits submitted at one instant:
    ``(cap, the wait of every record they sent)``."""
    driver = cluster.writer.driver
    cap = driver.config.boxcar_max_records
    before = len(driver.stats.boxcar_delays)
    db = cluster.session()
    futures = []
    for i in range(3 * cap):
        txn = db.begin()
        db.put(txn, f"burst{i:03d}", i)
        futures.append(db.commit_async(txn))
    for future in futures:
        db.drive(future)
    return cap, driver.stats.boxcar_delays[before:]


class TestTheWindowIsAllACommitWaitsForBesideTheProtocol:
    """Sections 2.2-2.3 in the small: a commit waits for the write quorum
    ("the 4th of 6") and for nothing else -- "without boxcar latency or
    jitter" -- except the one sub-millisecond submit window."""

    @pytest.fixture(scope="class", params=BACKEND_NAMES)
    def trickle(self, request):
        return trickle_world(request.param)

    def test_median_commit_latency_sits_on_the_quorum_floor(self, trickle):
        """Runs on both backends because the floor is computed from the
        backend's own write members and quorum expression: the 4th of 6
        segments on Aurora, the 2nd of 3 log stores on Taurus."""
        cluster, latencies, _delays, _boxcars = trickle
        floor = commit_floor_ms(cluster)
        assert statistics.median(latencies) == pytest.approx(floor, rel=0.02)

    def test_no_record_waits_longer_than_the_window(self, trickle):
        """A boxcar's first record arms the window and waits exactly that
        long; one that joins an armed boxcar waits less; nothing waits
        more, and at this load no boxcar fills."""
        _cluster, _latencies, delays, boxcars = trickle
        assert max(delays) == pytest.approx(SUBMIT_DELAY_MS, abs=1e-9)
        on_the_window = sum(
            1 for d in delays if d == pytest.approx(SUBMIT_DELAY_MS, abs=1e-9)
        )
        assert boxcars <= on_the_window and 0.95 * len(delays) < on_the_window
        assert min(delays) > 0.0

    def test_a_full_boxcar_leaves_at_once(self, trickle):
        cap, delays = burst_delays(trickle[0])
        full = len(delays) // cap * cap
        assert full >= 2 * cap
        assert sorted(delays)[:full] == [0.0] * full
        assert max(delays) == pytest.approx(SUBMIT_DELAY_MS, abs=1e-9)

    def test_a_tripled_window_is_caught_by_the_floor(self, monkeypatch):
        monkeypatch.setattr(driver_module, "SUBMIT_DELAY_MS", 3 * WINDOW_MS)
        cluster, latencies, _delays, _boxcars = trickle_world("aurora")
        floor = commit_floor_ms(cluster, draws=4_000)
        assert statistics.median(latencies) > 1.04 * floor

    def test_a_flush_that_rearms_a_full_boxcar_is_caught(self, monkeypatch):
        def rearming(driver, pg_index, buffer):
            full = len(buffer) >= driver.config.boxcar_max_records
            if full and buffer.flush_event is not None:
                buffer.flush_event.cancel()
                buffer.flush_event = None
            if buffer.flush_event is None:
                buffer.flush_event = driver.loop.schedule(
                    SUBMIT_DELAY_MS, driver._flush, pg_index
                )

        monkeypatch.setattr(StorageDriver, "_arm_flush", rearming)
        _cap, delays = burst_delays(AuroraCluster.build(seed=31))
        assert 0.0 not in delays


class TestAckProcessing:
    def test_pgcl_vcl_advance_from_acks(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        driver = cluster.writer.driver
        assert driver.pg_trackers[0].pgcl >= 1
        assert driver.vcl >= 1
        assert driver.vdl >= 1
        assert driver.stats.acks_received >= 4

    def test_commit_not_acked_without_quorum(self):
        """Kill three segments: 4/6 is unreachable, commits hang forever."""
        cluster = AuroraCluster.build(seed=41)
        for name in ("pg0-d", "pg0-e", "pg0-f"):
            cluster.failures.crash_node(name)
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        future = db.commit_async(txn)
        cluster.run_for(500)
        assert not future.done  # correctly refuses to ack below quorum

    def test_commit_resumes_when_quorum_restored(self):
        cluster = AuroraCluster.build(seed=42)
        for name in ("pg0-d", "pg0-e", "pg0-f"):
            cluster.failures.crash_node(name)
        db = cluster.session()
        txn = db.begin()
        db.put(txn, "a", 1)
        future = db.commit_async(txn)
        cluster.run_for(100)
        assert not future.done
        cluster.failures.restore_node("pg0-d")
        cluster.run_for(300)  # gossip refills pg0-d, acks flow
        assert future.done


class TestHedgedReads:
    def _cold_cache_cluster(self, **driver_overrides):
        cluster = AuroraCluster.build(
            seed=88, cache_capacity=8, **driver_overrides
        )
        db = cluster.session()
        for i in range(200):
            db.write(f"key{i:03d}", i)
        cluster.run_for(50)
        return cluster, db

    def test_reads_are_single_io_not_quorum(self):
        cluster, db = self._cold_cache_cluster()
        stats = cluster.writer.driver.stats
        issued_before = stats.reads_issued
        completed_before = stats.reads_completed
        for i in range(0, 200, 5):
            assert db.get(f"key{i:03d}") == i
        issued = stats.reads_issued - issued_before
        completed = stats.reads_completed - completed_before
        assert completed > 0
        # Far fewer I/Os than a 3x read quorum would need.
        assert issued < completed * 1.5

    def test_hedge_caps_latency_with_a_slow_segment(self):
        cluster, db = self._cold_cache_cluster(
            hedge_multiplier=3.0, hedge_sweep_interval=0.5
        )
        # Make the currently-fastest segments slow mid-run.
        cluster.failures.slow_node("pg0-a", 100.0)
        cluster.failures.slow_node("pg0-b", 100.0)
        for i in range(0, 200, 3):
            assert db.get(f"key{i:03d}") == i
        assert cluster.writer.driver.stats.hedges_issued > 0

    def test_read_from_dead_segment_recovers_via_hedge(self):
        cluster, db = self._cold_cache_cluster(hedge_sweep_interval=0.5)
        # Warm the latency tracker so some segment is "fastest", then kill
        # whichever it is: the hedge must rescue outstanding reads.
        victim = cluster.writer.driver.latency_tracker.ranked(
            [f"pg0-{c}" for c in "abcdef"]
        )[0]
        cluster.failures.crash_node(victim)
        for i in range(0, 200, 7):
            assert db.get(f"key{i:03d}") == i

    def test_a_lost_hedge_escalates_to_a_third_copy(self):
        """Primary *and* its hedge target are gone (requests to a crashed
        node are dropped, never answered): the overdue hedge is hedged in
        turn, and the read completes from the next copy of the plan."""
        cluster, db = self._cold_cache_cluster(
            hedge_sweep_interval=0.5, explore_probability=0.0
        )
        driver = cluster.writer.driver
        fastest = driver.latency_tracker.ranked(
            [f"pg0-{c}" for c in "abcdef"]
        )[:2]
        for victim in fastest:
            cluster.failures.crash_node(victim)
        hedges_before = driver.stats.hedges_issued
        assert db.get("key000") == 0
        assert driver.stats.hedges_issued - hedges_before >= 2
        cluster.run_for(5)
        assert driver._outstanding_reads == []
        assert not driver._hedge_sweep_scheduled
        for i in range(7, 200, 7):
            assert db.get(f"key{i:03d}") == i

    def test_a_read_nobody_answers_fails_diagnosed_at_the_deadline(self):
        """Every copy is unreachable: the replica's read walks the whole
        plan, then fails ``QUORUM_DEADLINE_MS`` after its last request with an
        error naming what it tried -- and the read view is released, so the
        replica's PGMRPL (and storage GC behind it) is not pinned."""
        from repro.db.session import Session
        from repro.errors import SegmentUnavailableError

        cluster, db = self._cold_cache_cluster(hedge_sweep_interval=0.5)
        replica = cluster.add_replica()
        db.write("key000", "fresh")
        cluster.run_for(50)
        for name in sorted(cluster.nodes):
            cluster.failures.crash_node(name)
        started = cluster.loop.now
        with pytest.raises(SegmentUnavailableError) as failure:
            Session(replica).get("key000")
        message = str(failure.value)
        assert "block " in message and "read point " in message
        for name in cluster.nodes:
            assert name in message
        deadline = QUORUM_DEADLINE_MS
        assert deadline < cluster.loop.now - started < 2 * deadline
        cluster.run_for(5)
        assert replica.driver._outstanding_reads == []
        assert not replica.driver._hedge_sweep_scheduled
        assert replica.min_read._active == {}
        assert replica.views.active_count == 0

    def test_no_read_is_left_hanging_at_the_end_of_a_chaos_run(
        self, built_clusters
    ):
        """End-of-run census of the audit run that found the bug: at the
        parent, seed 5 ended with five reads on ``replica-1`` outstanding
        for 7-12 simulated seconds (primary and its one hedge both lost)
        and two read points pinned in ``min_read`` for the rest of the run.
        """
        from repro.audit.runner import AuditRunConfig, run_audit

        report = run_audit(AuditRunConfig(seed=5, steps=3000))
        assert report.ok, report.render()
        (cluster,) = built_clusters
        now = cluster.loop.now
        for instance in (cluster.writer, *cluster.replicas.values()):
            driver = instance.driver
            slack = 2 * QUORUM_DEADLINE_MS
            overdue = [
                (r.block, r.read_point, r.segment, now - r.issued_at)
                for r in driver._outstanding_reads
                if not r.future.done and now - r.issued_at > slack
            ]
            assert overdue == [], (instance.name, overdue)

    def test_exploration_refreshes_latency_stats(self):
        cluster, db = self._cold_cache_cluster(explore_probability=0.5)
        for i in range(0, 200, 2):
            db.get(f"key{i:03d}")
        assert cluster.writer.driver.stats.explores_issued > 0


class TestQuorumRPC:
    def test_scan_collects_beyond_minimal_quorum(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        replies = db.drive(cluster.writer.driver.scan_pg(0))
        # All six answered (grace period collects everyone reachable).
        assert len(replies) == 6

    def test_scan_succeeds_with_three_nodes_down(self, cluster):
        db = cluster.session()
        db.write("a", 1)
        for name in ("pg0-a", "pg0-b", "pg0-c"):
            cluster.failures.crash_node(name)
        replies = db.drive(cluster.writer.driver.scan_pg(0))
        assert len(replies) == 3  # exactly the read quorum

    def test_scan_fails_below_read_quorum(self, cluster):
        from repro.errors import SegmentUnavailableError

        db = cluster.session()
        db.write("a", 1)
        for name in ("pg0-a", "pg0-b", "pg0-c", "pg0-d"):
            cluster.failures.crash_node(name)
        with pytest.raises(SegmentUnavailableError):
            db.drive(cluster.writer.driver.scan_pg(0))


class TestWriteFanOut:
    def test_fan_out_follows_the_membership_state_not_the_flush(self):
        """The sorted write-target tuple is derived once per membership
        state (by the metadata service).  A replacement installs new state
        objects, and the very next flush ships to whoever is a member then
        -- whether or not anybody told this driver (a superseded writer is
        never told)."""
        cluster = AuroraCluster.build(seed=31)
        db = cluster.session()
        db.write("before", 1)
        driver = cluster.writer.driver
        metadata = cluster.metadata

        def write_members():
            return metadata.routes_of_pg(0).write_members

        steady = write_members()
        assert steady == tuple(sorted(metadata.membership(0).members))
        assert write_members() is steady  # same state: same tuple
        candidate = db.drive(cluster.replace_segment(0, "pg0-f"))
        during = write_members()
        assert set(during) == metadata.membership(0).members
        assert during is not steady
        sent = []
        send = driver._send
        driver._send = lambda member, batch: (
            sent.append(member), send(member, batch)
        )
        db.write("after", 2)
        assert sorted(set(sent)) == list(during)
        assert candidate in during and "pg0-f" not in during


# ----------------------------------------------------------------------
# Read routing from ack bookkeeping: the one-pass ``_read_candidates`` and
# the metadata service's derived lists, against the set algebra they
# replaced, over random interleavings of acks and membership changes.
# ----------------------------------------------------------------------
LAYOUTS = {
    "aurora": lambda: AuroraBackend(),
    "full_tail": lambda: AuroraBackend(full_tail=True),
    "taurus": lambda: TaurusBackend(),
}


def reference_candidates(world, read_point, exclude):
    """What the parent commit computed, per read, from first principles."""
    metadata, tracker = world.metadata, world.driver.pg_trackers.get(0)
    members = metadata.membership(0).members
    fulls = {
        m for m in members & set(world.placed)
        if world.placed[m] is SegmentKind.FULL
    }
    durable = set()
    if tracker is not None:
        durable = {
            m for m, scl in tracker.member_scls.items() if scl >= read_point
        }
    fallback = metadata.backend.read_fallback_members(metadata, 0)
    candidates = durable & fulls
    if len(candidates - exclude) < 2:
        candidates |= durable & fallback
    if not candidates and world.driver.optimistic_reads:
        candidates = set(fulls)
        if not candidates - exclude:
            candidates |= fallback
    return sorted(candidates - exclude)


def reference_lists(world):
    """(members, write fan-out, peers of every placed segment)."""
    metadata = world.metadata
    members = sorted(metadata.membership(0).members)
    targets = metadata.backend.write_targets(metadata, 0)
    placed = [m for m in members if m in world.placed]
    return (
        tuple(members),
        tuple(members if targets is None else sorted(targets)),
        {s: tuple(m for m in placed if m != s) for s in world.placed},
    )


class RoutingWorld:
    """One PG's metadata and a driver over it; nothing is ever sent."""

    def __init__(
        self, layout, optimistic,
        metadata_class=StorageMetadataService, driver_class=StorageDriver,
    ):
        backend = LAYOUTS[layout]()
        slots = backend.segment_layout()
        self.metadata = metadata_class(
            VolumeGeometry(
                blocks_per_pg=64, pg_count=1, copies_per_pg=len(slots)
            ),
            backend=backend,
        )
        #: segment id -> kind, for everything placed so far.
        self.placed = {}
        self.kinds = {}
        names = [f"s{i}" for i in range(len(slots))]
        for name, spec in zip(names, slots):
            self.kinds[name] = spec.kind
            self.place(name)
        self.metadata.set_membership(
            0, MembershipState.initial(names, slot_count=len(slots))
        )
        self.driver = driver_class(
            "db", EventLoop(), send=None, rpc=None, metadata=self.metadata,
            rng=random.Random(0), optimistic_reads=optimistic,
        )
        self.driver.configure_pg(0)
        self.candidates = 0

    def place(self, name):
        self.placed[name] = self.kinds[name]
        self.metadata.place_segment(
            SegmentPlacement(name, 0, name, "az1", self.kinds[name])
        )

    def install(self, state):
        self.metadata.set_membership(0, state)
        self.driver.configure_pg(0)

    def apply(self, op, rng):
        state = self.metadata.membership(0)
        if op == "ack":
            # Mostly current members; now and then someone long gone.
            names = sorted(self.kinds)
            self.driver.pg_trackers[0].record_ack(
                rng.choice(names), rng.randint(1, 40)
            )
        elif op in ("begin", "begin_unplaced"):
            stable = [s[0] for s in state.slots if len(s) == 1]
            if len(stable) <= len(state.slots) - 2:
                return  # two replacements already in flight
            incumbent = rng.choice(stable)
            self.candidates += 1
            candidate = f"c{self.candidates}"
            self.kinds[candidate] = self.kinds[incumbent]
            if op == "begin":
                self.place(candidate)
            self.install(state.begin_replacement(incumbent, candidate))
        elif op == "place":
            for name in sorted(state.members - set(self.placed)):
                self.place(name)
        else:  # commit / rollback
            pending = [i for i, s in enumerate(state.slots) if len(s) == 2]
            if not pending:
                return
            slot = rng.choice(pending)
            if op == "commit" and state.slots[slot][1] not in self.placed:
                return  # nobody finalizes onto a node that does not exist
            self.install(
                state.commit_replacement(slot) if op == "commit"
                else state.rollback_replacement(slot)
            )

    def check(self, rng):
        members, write_members, peers = reference_lists(self)
        assert self.driver.members_of(0) == members
        assert self.metadata.routes_of_pg(0).write_members == write_members
        for segment, expected in peers.items():
            assert self.metadata.peers_of(segment) == expected
        everyone = sorted(self.kinds)
        for read_point in (rng.randint(1, 40), rng.randint(1, 40)):
            exclude = frozenset(
                rng.sample(everyone, rng.randint(0, min(3, len(everyone))))
            )
            assert self.driver._read_candidates(
                0, read_point, exclude
            ) == reference_candidates(self, read_point, exclude)


ROUTING_OPS = (
    "ack", "ack", "ack", "ack", "begin", "begin_unplaced", "place",
    "commit", "rollback",
)


def play_routing(rng, layout, optimistic, **classes):
    world = RoutingWorld(layout, optimistic, **classes)
    world.check(rng)
    for _ in range(rng.randint(5, 40)):
        world.apply(rng.choice(ROUTING_OPS), rng)
        world.check(rng)


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    layout=st.sampled_from(sorted(LAYOUTS)),
    optimistic=st.booleans(),
)
def test_read_routing_matches_the_per_read_derivation(
    seed, layout, optimistic
):
    play_routing(random.Random(seed), layout, optimistic)


class KeepsRoutesAcrossMembership(StorageMetadataService):
    """Planted bug: ``set_membership`` forgets to refresh the lists."""

    def set_membership(self, pg_index, state):
        kept = dict(self._routes)
        super().set_membership(pg_index, state)
        self._routes.update(kept)


class KeepsRoutesAcrossPlacement(StorageMetadataService):
    """Planted bug: ``place_segment`` forgets to refresh the lists."""

    def place_segment(self, placement):
        kept = dict(self._routes)
        super().place_segment(placement)
        self._routes.update(kept)


class IgnoresExclude(StorageDriver):
    """Planted bug: a segment that just refused the read is asked again."""

    def _read_candidates(self, pg_index, read_point, exclude):
        return super()._read_candidates(pg_index, read_point, frozenset())


class SkipsTheFallback(StorageDriver):
    """Planted bug: fewer than two caught-up full copies, and the log
    stores that could serve the read point are not asked."""

    def _read_candidates(self, pg_index, read_point, exclude):
        tracker = self.pg_trackers[pg_index]
        fallback = self.metadata.routes_of_pg(pg_index).read_fallback
        ask = tracker.durable_members_at
        tracker.durable_members_at = lambda lsn, among: (
            [] if among is fallback else ask(lsn, among)
        )
        try:
            return super()._read_candidates(pg_index, read_point, exclude)
        finally:
            del tracker.durable_members_at


@pytest.mark.parametrize(
    "layout, planted",
    [
        ("aurora", {"metadata_class": KeepsRoutesAcrossMembership}),
        ("aurora", {"metadata_class": KeepsRoutesAcrossPlacement}),
        ("aurora", {"driver_class": IgnoresExclude}),
        ("taurus", {"driver_class": SkipsTheFallback}),
    ],
    ids=lambda value: next(iter(value.values())).__name__
    if isinstance(value, dict) else value,
)
def test_a_planted_routing_bug_is_caught(layout, planted):
    """The differential finds each mutant unaided."""
    assert found_by_search(
        lambda seed: play_routing(
            random.Random(seed), layout, False, **planted
        ),
        300,
    )
