"""The network's route table against per-message evaluation.

``Network`` resolves an ordered ``(src, dst)`` pair once -- latency model,
scale product, WAN link, partition/quarantine bit -- and drops the whole
table whenever a mutator changes what a route caches.  The reference below
derives all of that from the control-plane state for every single message,
the way the fabric did before the table existed.  Driven by the same
operations with the same rng seed, the two must deliver and drop the same
messages at the same simulated times; and a network whose mutator forgets to
drop the table must not.
"""

import random

import pytest
from hypothesis import given, settings

from repro.sim.events import EventLoop
from repro.sim.latency import FixedLatency, UniformLatency
from repro.sim.network import Actor, Message, Network

from .conftest import SEEDS

NAMES = ("n0", "n1", "n2", "n3", "n4")
AZS = {"n0": "az1", "n1": "az1", "n2": "az2", "n3": None, "n4": "az2"}
#: Attached before the first operation; the rest join through ``add_node``.
INITIAL = 3

MUTATORS = (
    "partition",
    "heal_partition",
    "heal_all_partitions",
    "quarantine",
    "lift_quarantine",
    "set_link_latency",
    "set_wan_link",
    "set_latency_scale",
)


class PerMessageNetwork(Network):
    """Reference: no route is ever consulted; every message evaluates the
    partitions, quarantines, overrides, AZs, scales and WAN links afresh."""

    def _latency_between(self, src: str, dst: str) -> float:
        override = self._link_overrides.get(self._pair(src, dst))
        if override is not None:
            base = override.sample(self.rng)
        elif src == dst:
            base = self.local.sample(self.rng)
        else:
            src_az = self._nodes[src].az
            dst_az = self._nodes[dst].az
            if src_az is not None and src_az == dst_az:
                base = self.intra_az.sample(self.rng)
            else:
                base = self.cross_az.sample(self.rng)
        return base * (
            self._nodes[src].latency_scale * self._nodes[dst].latency_scale
        )

    def _transmit(self, src, dst, payload, request_id, is_reply):
        self._node(src)
        self._node(dst)
        self.stats.messages_sent += 1
        if not self._nodes[src].up:
            self._drop(request_id)
            return
        wan = self._wan_links.get(self._pair(src, dst))
        if wan is not None:
            latency = wan.plan(src, payload, self.loop.now)
            if latency is None:
                self._drop(request_id)
                return
        else:
            latency = self._latency_between(src, dst)
        now = self.loop.now
        message = Message(
            src, dst, payload, now, now + latency, request_id, is_reply
        )
        self.loop.schedule_at(now + latency, self._deliver, message)

    def _deliver(self, message):
        node = self._nodes[message.dst]
        if (
            not node.up
            or self.is_partitioned(message.src, message.dst)
            or self.is_quarantined(message.src, message.dst)
        ):
            self._drop(message.request_id)
            return
        self.stats.messages_delivered += 1
        for tap in self._taps:
            tap(message)
        if message.is_reply:
            future = self._pending_rpcs.pop(message.request_id, None)
            if future is not None and not future.done:
                future.set_result(message.payload)
            return
        node.actor.on_message(message)


def forgetful(mutator: str):
    """A ``Network`` whose ``mutator`` does not drop the route table."""

    class Forgetful(Network):
        _forgetting = False

        def _drop_routes(self):
            if not self._forgetting:
                super()._drop_routes()

    def mutate(self, *args, **kwargs):
        self._forgetting = True
        try:
            return getattr(Network, mutator)(self, *args, **kwargs)
        finally:
            self._forgetting = False

    setattr(Forgetful, mutator, mutate)
    return Forgetful


class StubWan:
    """A WAN policy with no rng of its own: loses every ``lose_every``-th
    message and takes ``latency`` ms for the rest."""

    def __init__(self, lose_every: int, latency: float) -> None:
        self.lose_every = lose_every
        self.latency = latency
        self.planned = 0

    def plan(self, src, payload, now):
        self.planned += 1
        if self.planned % self.lose_every == 0:
            return None
        return self.latency


class Inbox(Actor):
    """Remembers RPC requests so a later ``reply`` operation can answer."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.unanswered: list[Message] = []

    def on_message(self, message: Message) -> None:
        if message.request_id is not None:
            self.unanswered.append(message)


def play(network_class, ops):
    """Run ``ops`` on a fresh network; return everything observable."""
    loop = EventLoop()
    network = network_class(loop, random.Random(11))
    log: list[tuple] = []
    network.add_tap(
        lambda m: log.append(
            ("delivered", m.src, m.dst, m.payload, m.send_time,
             m.deliver_time, m.is_reply)
        )
    )
    actors: dict[str, Inbox] = {}

    def add_next_node() -> None:
        if len(actors) < len(NAMES):
            name = NAMES[len(actors)]
            actors[name] = Inbox(name)
            network.attach(actors[name], az=AZS[name])

    for _ in range(INITIAL):
        add_next_node()
    payload = 0
    for op, *args in ops:
        if op == "add_node":
            add_next_node()
        elif op in ("send", "rpc"):
            src, dst = args
            if src in actors and dst in actors:
                payload += 1
                if op == "send":
                    network.send(src, dst, payload)
                else:
                    network.rpc(src, dst, payload).add_done_callback(
                        lambda f, p=payload: log.append(
                            ("resolved", p, f.result(), loop.now)
                        )
                    )
        elif op == "reply":
            actor = actors.get(args[0])
            if actor is not None and actor.unanswered:
                request = actor.unanswered.pop(0)
                network.reply(request, -request.payload)
        elif op in ("fail_node", "restore_node", "lift_quarantine"):
            if op == "lift_quarantine" or args[0] in actors:
                getattr(network, op)(args[0])
        elif op == "set_latency_scale":
            if args[0] in actors:
                network.set_latency_scale(*args)
        elif op == "run":
            loop.run(until=loop.now + args[0])
        else:  # partitions, quarantines, overrides, WAN links: by name
            getattr(network, op)(*args)
        log.append(("stats", op, tuple(network.stats.snapshot().items())))
    loop.run()
    log.append(("end", loop.now, tuple(network.stats.snapshot().items()),
                sorted(network._pending_rpcs)))
    return log


def control_op(rng, busy):
    """One control-plane operation, usually about a node in ``busy``."""

    def name():
        return rng.choice(busy if rng.random() < 0.7 else NAMES)

    def group():
        return {name() for _ in range(rng.randint(1, 3))}

    # (WAN links keep a message count of their own, so they get a test of
    # their own below.)
    kind = rng.choice(
        [m for m in MUTATORS if m != "set_wan_link"]
        + ["partition", "quarantine", "fail_node", "restore_node", "add_node"]
    )
    if kind in ("partition", "heal_partition"):
        return (kind, group(), group())
    if kind == "quarantine":
        allow = {name() for _ in range(rng.randint(0, 2))}
        return (kind, name(), allow) if rng.random() < 0.5 else (kind, name())
    if kind == "set_link_latency":
        model = rng.choice([FixedLatency(3.0), UniformLatency(0.2, 0.9)])
        return (kind, name(), name(), model)
    if kind == "set_latency_scale":
        return (kind, name(), rng.choice([1.0, 4.0, 9.0]))
    if kind in ("heal_all_partitions", "add_node"):
        return (kind,)
    return (kind, name())  # lift_quarantine, fail_node, restore_node


def scenario(rng):
    """Rounds of: traffic over a few pairs, a control-plane change or two,
    traffic over the same pairs -- a stale route shows only if a pair is
    used on both sides of a change with no other change in between."""
    ops = []
    for _ in range(rng.randint(4, 14)):
        pairs = [
            (rng.choice(NAMES), rng.choice(NAMES))
            for _ in range(rng.randint(1, 4))
        ]
        busy = sorted({name for pair in pairs for name in pair})

        def burst():
            for src, dst in pairs:
                ops.append((rng.choice(("send", "send", "rpc")), src, dst))
                if rng.random() < 0.3:
                    ops.append(("reply", dst))
                if rng.random() < 0.3:
                    ops.append(("run", rng.choice([0.1, 0.4, 1.5, 6.0])))

        burst()
        for _ in range(rng.randint(1, 2)):
            ops.append(control_op(rng, busy))
        burst()
        if rng.random() < 0.5:
            ops.append(("run", rng.choice([1.5, 6.0, 30.0])))
    return ops


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_route_table_matches_per_message_evaluation(seed):
    ops = scenario(random.Random(seed))
    assert play(Network, ops) == play(PerMessageNetwork, ops)


def test_wan_links_resolve_through_the_route_table():
    def ops():  # a WAN link counts its messages: a fresh one per side
        return [
            ("send", "n0", "n2"),
            ("set_wan_link", "n0", "n2", StubWan(lose_every=3, latency=40.0)),
            ("rpc", "n0", "n2"), ("send", "n2", "n0"), ("send", "n0", "n2"),
            ("send", "n0", "n1"), ("run", 50.0), ("reply", "n2"),
            ("partition", {"n0"}, {"n2"}), ("send", "n0", "n2"),
        ]

    log = play(Network, ops())
    assert log == play(PerMessageNetwork, ops())
    assert any(e[0] == "delivered" and e[5] - e[4] == 40.0 for e in log)


#: Per mutator: operations that fill the routes it invalidates, call it,
#: and send again -- so a table that survived the call answers wrongly.
MUTANT_SCENARIOS = {
    "partition": [
        ("send", "n0", "n1"), ("run", 5.0),
        ("partition", {"n0"}, {"n1"}), ("send", "n0", "n1"),
    ],
    "heal_partition": [
        ("partition", {"n0"}, {"n1"}), ("send", "n0", "n1"), ("run", 5.0),
        ("heal_partition", {"n0"}, {"n1"}), ("send", "n0", "n1"),
    ],
    "heal_all_partitions": [
        ("partition", {"n0"}, {"n1", "n2"}), ("send", "n2", "n0"),
        ("run", 5.0), ("heal_all_partitions",), ("send", "n2", "n0"),
    ],
    "quarantine": [
        ("send", "n1", "n2"), ("run", 5.0),
        ("quarantine", "n2", {"n0"}), ("send", "n1", "n2"),
    ],
    "lift_quarantine": [
        ("quarantine", "n2"), ("send", "n1", "n2"), ("run", 5.0),
        ("lift_quarantine", "n2"), ("send", "n1", "n2"),
    ],
    "set_link_latency": [
        ("send", "n0", "n1"), ("run", 5.0),
        ("set_link_latency", "n0", "n1", FixedLatency(7.0)),
        ("send", "n0", "n1"),
    ],
    "set_wan_link": [
        ("send", "n0", "n2"), ("run", 5.0),
        ("set_wan_link", "n0", "n2", StubWan(lose_every=99, latency=40.0)),
        ("send", "n0", "n2"),
    ],
    "set_latency_scale": [
        ("send", "n0", "n1"), ("run", 5.0),
        ("set_latency_scale", "n1", 8.0), ("send", "n0", "n1"),
    ],
}


@pytest.mark.parametrize("mutator", MUTATORS)
def test_a_mutator_that_keeps_the_table_is_caught(mutator):
    ops = MUTANT_SCENARIOS[mutator]
    reference = play(PerMessageNetwork, ops)
    assert play(Network, ops) == reference
    assert play(forgetful(mutator), ops) != reference


def test_every_route_mutator_has_a_mutant():
    assert set(MUTANT_SCENARIOS) == set(MUTATORS)


def test_up_and_actor_are_read_through_the_route():
    """Crash, restore and ``set_actor`` do not touch the table: a resolved
    route reaches the node's live state."""
    loop = EventLoop()
    network = Network(loop, random.Random(1))
    a, b = Inbox("a"), Inbox("b")
    network.attach(a)
    network.attach(b)
    network.rpc("a", "b", "first")
    loop.run()
    routes = dict(network._routes)
    assert routes
    network.fail_node("b")
    network.rpc("a", "b", "lost")
    loop.run()
    network.restore_node("b")
    replacement = Inbox("b")
    network.set_actor("b", replacement)
    network.rpc("a", "b", "second")
    loop.run()
    assert network._routes.keys() == routes.keys()  # nothing re-resolved
    assert all(network._routes[pair] is route for pair, route in routes.items())
    assert [m.payload for m in b.unanswered] == ["first"]
    assert [m.payload for m in replacement.unanswered] == ["second"]
    assert network.stats.messages_dropped == 1
