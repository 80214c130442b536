"""Unit tests for the simulated network."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.events import EventLoop
from repro.sim.latency import FixedLatency
from repro.sim.network import Actor, Message, Network


class Recorder(Actor):
    """Actor that records everything it receives."""

    def __init__(self, name: str, reply_with=None) -> None:
        super().__init__(name)
        self.received: list[Message] = []
        self.reply_with = reply_with
        self.crashes = 0
        self.restarts = 0

    def on_message(self, message: Message) -> None:
        self.received.append(message)
        if message.request_id is not None and self.reply_with is not None:
            self.network.reply(message, self.reply_with)

    def on_crash(self) -> None:
        self.crashes += 1

    def on_restart(self) -> None:
        self.restarts += 1


@pytest.fixture
def net():
    loop = EventLoop()
    network = Network(
        loop,
        random.Random(5),
        intra_az=FixedLatency(0.25),
        cross_az=FixedLatency(1.0),
    )
    return loop, network


class TestDelivery:
    def test_one_way_send_delivers(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a, az="az1")
        network.attach(b, az="az1")
        network.send("a", "b", "hello")
        loop.run()
        assert [m.payload for m in b.received] == ["hello"]
        assert b.received[0].src == "a"

    def test_intra_az_faster_than_cross_az(self, net):
        loop, network = net
        a = Recorder("a")
        same = Recorder("same")
        other = Recorder("other")
        network.attach(a, az="az1")
        network.attach(same, az="az1")
        network.attach(other, az="az2")
        network.send("a", "same", 1)
        network.send("a", "other", 2)
        loop.run()
        assert same.received[0].deliver_time == pytest.approx(0.25)
        assert other.received[0].deliver_time == pytest.approx(1.0)

    def test_link_override_takes_precedence(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a, az="az1")
        network.attach(b, az="az2")
        network.set_link_latency("a", "b", FixedLatency(9.0))
        network.send("a", "b", "x")
        loop.run()
        assert b.received[0].deliver_time == pytest.approx(9.0)

    def test_unknown_node_rejected(self, net):
        _loop, network = net
        network.attach(Recorder("a"))
        with pytest.raises(ConfigurationError):
            network.send("a", "ghost", "x")

    def test_duplicate_node_rejected(self, net):
        _loop, network = net
        network.attach(Recorder("a"))
        with pytest.raises(ConfigurationError):
            network.add_node("a")


class TestRPC:
    def test_rpc_round_trip(self, net):
        loop, network = net
        client = Recorder("client")
        server = Recorder("server", reply_with="pong")
        network.attach(client, az="az1")
        network.attach(server, az="az1")
        future = network.rpc("client", "server", "ping")
        loop.run()
        assert future.result() == "pong"
        assert server.received[0].payload == "ping"

    def test_rpc_to_down_node_never_resolves(self, net):
        loop, network = net
        client = Recorder("client")
        server = Recorder("server", reply_with="pong")
        network.attach(client)
        network.attach(server)
        network.fail_node("server")
        future = network.rpc("client", "server", "ping")
        loop.run()
        assert not future.done

    def test_concurrent_rpcs_route_to_right_futures(self, net):
        loop, network = net
        client = Recorder("client")

        class Echo(Actor):
            def on_message(self, message):
                self.network.reply(message, f"echo:{message.payload}")

        server = Echo("server")
        network.attach(client)
        network.attach(server)
        futures = [
            network.rpc("client", "server", i) for i in range(5)
        ]
        loop.run()
        assert [f.result() for f in futures] == [f"echo:{i}" for i in range(5)]


class TestFailures:
    def test_messages_to_down_node_dropped(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a)
        network.attach(b)
        network.fail_node("b")
        network.send("a", "b", "lost")
        loop.run()
        assert b.received == []
        assert network.stats.messages_dropped == 1

    def test_messages_from_down_node_dropped(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a)
        network.attach(b)
        network.fail_node("a")
        network.send("a", "b", "lost")
        loop.run()
        assert b.received == []

    def test_message_in_flight_when_node_dies_is_dropped(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a, az="az1")
        network.attach(b, az="az2")  # 1.0 ms away
        network.send("a", "b", "doomed")
        loop.schedule(0.5, network.fail_node, "b")
        loop.run()
        assert b.received == []

    def test_crash_and_restart_hooks_fire(self, net):
        _loop, network = net
        b = Recorder("b")
        network.attach(b)
        network.fail_node("b")
        network.fail_node("b")  # idempotent
        network.restore_node("b")
        assert b.crashes == 1
        assert b.restarts == 1

    def test_restored_node_receives_again(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a)
        network.attach(b)
        network.fail_node("b")
        network.restore_node("b")
        network.send("a", "b", "back")
        loop.run()
        assert [m.payload for m in b.received] == ["back"]

    def test_partition_blocks_both_directions(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a)
        network.attach(b)
        network.partition({"a"}, {"b"})
        network.send("a", "b", 1)
        network.send("b", "a", 2)
        loop.run()
        assert a.received == [] and b.received == []
        network.heal_all_partitions()
        network.send("a", "b", 3)
        loop.run()
        assert [m.payload for m in b.received] == [3]

    def test_latency_scale_slows_node(self, net):
        loop, network = net
        a = Recorder("a")
        b = Recorder("b")
        network.attach(a, az="az1")
        network.attach(b, az="az1")
        network.set_latency_scale("b", 10.0)
        network.send("a", "b", "slow")
        loop.run()
        assert b.received[0].deliver_time == pytest.approx(2.5)


class TestStats:
    def test_counts_sent_delivered_by_type(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a)
        network.attach(b)
        network.send("a", "b", "text")
        network.send("a", "b", 42)
        loop.run()
        assert network.stats.messages_sent == 2
        assert network.stats.messages_delivered == 2
        assert network.stats.by_type["str"] == 1
        assert network.stats.by_type["int"] == 1

    def test_tap_sees_deliveries(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a)
        network.attach(b)
        tapped = []
        network.add_tap(lambda m: tapped.append(m.payload))
        network.send("a", "b", "observed")
        loop.run()
        assert tapped == ["observed"]


class TestQuarantine:
    def test_quarantine_blocks_both_directions(self, net):
        loop, network = net
        a, b = Recorder("a"), Recorder("b")
        network.attach(a)
        network.attach(b)
        network.quarantine("a")
        network.send("a", "b", "out")
        network.send("b", "a", "in")
        loop.run()
        assert a.received == [] and b.received == []
        network.lift_quarantine("a")
        network.send("b", "a", "again")
        loop.run()
        assert [m.payload for m in a.received] == ["again"]

    def test_quarantine_allowlist_passes(self, net):
        loop, network = net
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        for actor in (a, b, c):
            network.attach(actor)
        network.quarantine("a", allow={"b"})
        network.send("b", "a", "allowed")
        network.send("c", "a", "blocked")
        network.send("a", "c", "blocked too")
        loop.run()
        assert [m.payload for m in a.received] == ["allowed"]
        assert c.received == []

    def test_quarantine_covers_nodes_added_later(self, net):
        # The reason this primitive exists: a pairwise partition against a
        # snapshot of current peers cannot isolate a node from peers the
        # cluster creates afterwards (e.g. a repair's fresh candidate).
        loop, network = net
        a = Recorder("a")
        network.attach(a)
        network.quarantine("a")
        late = Recorder("late")
        network.attach(late)
        network.send("late", "a", "x")
        network.send("a", "late", "y")
        loop.run()
        assert a.received == [] and late.received == []

    def test_self_delivery_not_quarantined(self, net):
        loop, network = net
        a = Recorder("a")
        network.attach(a)
        network.quarantine("a")
        network.send("a", "a", "self")
        loop.run()
        assert [m.payload for m in a.received] == ["self"]


def test_dropped_rpcs_do_not_accumulate(net):
    """An RPC whose request or reply the fabric itself drops can never
    resolve, so the network stops tracking it; one that was delivered and
    is merely unanswered is still in flight."""
    loop, network = net
    caller = Recorder("caller")
    echo = Recorder("echo", reply_with="pong")
    mute = Recorder("mute")
    for actor in (caller, echo, mute):
        network.attach(actor, az="az1")
    # Request dropped at delivery: destination down, partitioned, quarantined.
    network.fail_node("echo")
    down = network.rpc("caller", "echo", "ping")
    loop.run()
    network.restore_node("echo")
    network.partition({"caller"}, {"echo"})
    partitioned = network.rpc("caller", "echo", "ping")
    loop.run()
    network.heal_all_partitions()
    network.quarantine("echo")
    quarantined = network.rpc("caller", "echo", "ping")
    loop.run()
    network.lift_quarantine("echo")
    # Reply dropped: the caller is gone by the time the answer arrives.
    reply_lost = network.rpc("caller", "echo", "ping")
    loop.run(until=loop.now + 0.3)  # request delivered, reply in flight
    assert len(echo.received) == 1
    network.fail_node("caller")
    loop.run()
    # Source down at transmit time.
    source_down = network.rpc("caller", "echo", "ping")
    loop.run()
    network.restore_node("caller")
    dropped = (down, partitioned, quarantined, reply_lost, source_down)
    assert not any(future.done for future in dropped)
    assert network.stats.messages_dropped == 5
    assert network._pending_rpcs == {}
    # Delivered and never answered: still waiting, still tracked.
    waiting = network.rpc("caller", "mute", "anyone?")
    answered = network.rpc("caller", "echo", "ping")
    loop.run()
    assert answered.result() == "pong"
    assert list(network._pending_rpcs.values()) == [waiting]
    network.reply(mute.received[0], "here")
    loop.run()
    assert waiting.result() == "here"
    assert network._pending_rpcs == {}
