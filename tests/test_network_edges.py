"""Edge-case tests for the network and journal fault paths."""

import random

import pytest

from repro.errors import SegmentUnavailableError, SimulationError
from repro.multiwriter import MultiWriterCluster
from repro.sim.events import EventLoop
from repro.sim.network import Actor, Message, Network


class Echo(Actor):
    def on_message(self, message):
        if message.request_id is not None:
            self.network.reply(message, f"echo:{message.payload}")


class TestNetworkEdges:
    def test_reply_to_one_way_message_rejected(self):
        loop = EventLoop()
        network = Network(loop, random.Random(1))

        class BadReplier(Actor):
            def on_message(self, message):
                self.network.reply(message, "oops")

        network.attach(Echo("a"))
        network.attach(BadReplier("b"))
        network.send("a", "b", "one-way")
        with pytest.raises(SimulationError):
            loop.run()

    def test_delivery_to_actorless_node_fails_loudly(self):
        loop = EventLoop()
        network = Network(loop, random.Random(2))
        network.attach(Echo("a"))
        network.add_node("hollow")  # registered, no actor
        network.send("a", "hollow", "x")
        with pytest.raises(SimulationError, match="no actor"):
            loop.run()

    def test_late_rpc_reply_after_resolution_is_ignored(self):
        """A hedged-read-style race: two replies for one logical request
        must not double-resolve anything."""
        loop = EventLoop()
        network = Network(loop, random.Random(3))

        class DoubleReplier(Actor):
            def on_message(self, message):
                self.network.reply(message, "first")
                self.network.reply(message, "second")

        network.attach(Echo("client"))
        network.attach(DoubleReplier("server"))
        future = network.rpc("client", "server", "q")
        loop.run()
        assert future.result() == "first"

    def test_unattached_actor_loop_access_rejected(self):
        with pytest.raises(SimulationError):
            _ = Echo("floating").loop

    def test_unknown_payload_is_dropped_by_storage_node(self, cluster):
        """Nodes ignore payload types they do not understand."""
        node = cluster.nodes["pg0-a"]
        received_before = node.counters["write_batches"]
        cluster.network.send(cluster.writer.name, "pg0-a", {"weird": True})
        cluster.run_for(5)
        assert node.counters["write_batches"] == received_before


class TestJournalFaultEdges:
    def test_journal_recover_fails_below_read_quorum(self):
        mw = MultiWriterCluster(partition_count=2, seed=86)
        session = mw.session()
        for i in range(4):
            mw.failures.crash_node(mw.journal.cluster.segment_name(0, i))
        mw.journal.crash()
        future = mw.journal.recover()
        # The writer's recovery fences first, on a write quorum.
        with pytest.raises(SegmentUnavailableError):
            session.drive(future, max_ms=5_000)

    def test_journal_entries_survive_sequencer_amnesia(self):
        mw = MultiWriterCluster(partition_count=2, seed=87)
        session = mw.session()
        keys = {}
        i = 0
        while len(keys) < 2:
            keys.setdefault(mw.partition_of(f"k{i}"), f"k{i}")
            i += 1
        k_a, k_b = keys.values()
        txn = session.begin()
        session.put(txn, k_a, "pre-amnesia")
        session.put(txn, k_b, "pre-amnesia")
        gsn = session.commit(txn)["gsn"]
        # Total sequencer amnesia + two journal segments dead.
        mw.failures.crash_node(mw.journal.cluster.segment_name(0, 0))
        mw.failures.crash_node(mw.journal.cluster.segment_name(0, 3))
        mw.journal.crash()
        recovered = session.drive(mw.journal.recover())
        assert recovered == gsn
        # Replay still works from the surviving read quorum.
        for applier in mw.appliers:
            session.drive(applier.ensure_applied(gsn))
        assert session.get(k_a) == "pre-amnesia"
