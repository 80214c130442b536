"""Host-time spans and simulated-time taps, installed from the benchmark.

End-to-end metrics are measured with none of this loaded.  The traced pass
installs wrappers *at class level* on each layer's entry points (so every
bound method created afterwards -- including the ones the event loop
stores as callbacks -- goes through them), runs one shortened round, and
removes them again.  Generator entry points (``instance.put``,
``replica.get`` ...) cannot be timed by wrapping the call, which only
builds the generator; the benchmark's client loops drive them through
:meth:`Tracer.generator_spans`, a trampoline that opens one span per
resume slice.

Spans live on a stack.  A span's self time is its duration minus the
duration of its children; whatever ``EventLoop.step`` does not hand to a
child is ``sim.events`` self time; whatever runs outside every span (the
client loops, the driver loop, the audit runner) is the load generator's
own cost, layer ``workloads``.  So inside a window every nanosecond
belongs to exactly one layer and the self times sum to the window.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

#: Layer of the root span: code that runs outside every wrapped entry point.
ROOT_LAYER = "workloads"
#: Pseudo-layer of the speed gauge's kernel runs (bench/gauge.py): inside
#: the traced window, in no layer's self time.
GAUGE_LAYER = "bench.gauge"

#: (layer, module, class or None for module globals, attribute names).
#: A trailing ``*`` matches every attribute with that prefix.  Names that
#: no longer exist are skipped and listed under ``missing`` in the trace
#: file, so a rename in the program shows up instead of breaking the run.
#: The three private names are callbacks the event loop or an RPC future
#: invokes directly; without them the driver's flush and the network's
#: delivery dispatch would be booked as event-loop self time.
ENTRY_POINTS = (
    ("sim.events", "repro.sim.events", "EventLoop", ("step",)),
    ("sim.network", "repro.sim.network", "Network",
     ("send", "rpc", "reply", "_deliver")),
    ("storage.node", "repro.storage.node", "StorageNode", ("on_message",)),
    ("storage.segment", "repro.storage.segment", "Segment",
     ("receive", "coalesce", "read_version", "garbage_collect")),
    ("db.driver", "repro.db.driver", "StorageDriver",
     ("submit", "on_write_ack", "read_block", "flush_all",
      "_flush", "_on_read_reply")),
    # The driver imports the wire functions by name, so its module globals
    # are where the calls resolve.
    ("db.wire", "repro.db.driver", None,
     ("batch_logical_bytes", "batch_wire_bytes", "elide_superseded")),
    ("core.commit", "repro.core.commit", "CommitQueue",
     ("enqueue", "on_vcl_advance")),
    ("core.consistency", "repro.core.consistency", "PGConsistencyTracker",
     ("record_ack",)),
    ("core.consistency", "repro.core.consistency",
     "VolumeConsistencyTracker", ("register", "on_pgcl")),
    ("core.consistency", "repro.core.consistency", "PGFrontierHistory",
     ("advance_vdl",)),
    ("core.read_routing", "repro.core.read_routing", "ReadRouter",
     ("plan", "should_hedge")),
    ("db.buffer_cache", "repro.db.buffer_cache", "BufferCache",
     ("lookup", "peek", "install", "apply_change", "shrink")),
    ("db.replication", "repro.db.replication", "ReplicationPublisher",
     ("publish_*", "flush_frame")),
    ("db.instance", "repro.db.instance", "WriterInstance",
     ("on_message", "begin", "commit")),
    ("db.replica", "repro.db.replica", "ReplicaInstance", ("on_message",)),
    ("audit.auditor", "repro.audit.auditor", "Auditor", ("on_*",)),
    ("workloads", "repro.workloads.generator", "WorkloadGenerator",
     ("next_transaction",)),
)

#: Every layer that reports a ``<layer>.self_us_per_op``.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


def entry_points():
    """(layer, owner, attribute name) for everything :data:`ENTRY_POINTS`
    names; ``owner`` is the class or module the attribute lives on."""
    for layer, module_name, class_name, patterns in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for pattern in patterns:
            if pattern.endswith("*"):
                names = sorted(
                    n for n, v in vars(owner).items()
                    if n.startswith(pattern[:-1]) and callable(v)
                )
            else:
                names = [pattern]
            for name in names:
                yield layer, owner, name


class Tracer:
    """Span stack, per-layer self time, and a capped raw sample."""

    def __init__(self, sample_cap: int = 4000) -> None:
        self.self_ns: Counter = Counter()
        #: ``layer.name`` -> calls / inclusive ns.
        self.calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        #: (id, parent id, name, start ns, end ns, txn id) of the first
        #: ``sample_cap`` spans closed, times relative to the window start.
        self.samples: list[tuple] = []
        self.sample_cap = sample_cap
        self.missing: list[str] = []
        self.window_ns = 0
        self._active = False
        self._stack: list[list] = []
        self._next_id = 0
        self._window_start = 0
        self._patched: list[tuple] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, layer: str, key: str, txn) -> None:
        """``key`` is ``layer.name``, built once by the caller."""
        stack = self._stack
        parent = stack[-1][4] if stack else -1
        self._next_id += 1
        # [layer, key, start, child ns, id, parent, txn]
        stack.append(
            [layer, key, perf_counter_ns(), 0, self._next_id, parent, txn]
        )

    def _close(self) -> None:
        end = perf_counter_ns()
        layer, key, start, child_ns, span_id, parent, txn = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[key] += 1
        self.inclusive_ns[key] += duration
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.samples) < self.sample_cap:
            origin = self._window_start
            self.samples.append(
                (span_id, parent, key, start - origin, end - origin, txn)
            )

    def start_window(self) -> None:
        """Begin attributing time; the root span is the load generator."""
        self._active = True
        self._window_start = perf_counter_ns()
        self._open(ROOT_LAYER, f"{ROOT_LAYER}.window", None)

    def end_window(self) -> None:
        self._close()
        self._active = False
        self.window_ns += perf_counter_ns() - self._window_start

    def generator_spans(self, generator, layer: str, name: str, txn=None):
        """Drive ``generator`` one resume slice per span (a trampoline for
        ``yield from``): what it yields is passed up, what is sent or
        thrown in is passed down, its return value is returned."""
        key = f"{layer}.{name}"
        value = None
        error = None
        while True:
            active = self._active
            if active:
                self._open(layer, key, txn)
            try:
                if error is not None:
                    yielded = generator.throw(error)
                else:
                    yielded = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if active:
                    self._close()
            try:
                value = yield yielded
                error = None
            except Exception as exc:  # noqa: BLE001 - re-thrown into the generator
                value = None
                error = exc

    # ------------------------------------------------------------------
    # Class-level wrappers
    # ------------------------------------------------------------------
    def wrap(self, function, layer: str, name: str):
        """``function`` as a span of ``layer`` while a window is open."""
        key = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if not self._active:
                return function(*args, **kwargs)
            self._open(layer, key, None)
            try:
                return function(*args, **kwargs)
            finally:
                self._close()

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, owner, name in entry_points():
            original = vars(owner).get(name)
            if not callable(original):
                entry = f"{owner.__name__}.{name}"
                if entry not in self.missing:
                    self.missing.append(entry)
                continue
            setattr(owner, name, self.wrap(original, layer, name))
            self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "window_us": self.window_ns / 1e3,
            "self_us_by_layer": {
                layer: ns / 1e3 for layer, ns in sorted(self.self_ns.items())
            },
            "spans": {
                key: {
                    "calls": self.calls[key],
                    "inclusive_us": self.inclusive_ns[key] / 1e3,
                }
                for key in sorted(self.calls)
            },
            "missing": self.missing,
            "sample_fields": ["id", "parent", "name", "start_ns", "end_ns",
                              "txn"],
            "sample": self.samples,
        }


class SimTaps:
    """Simulated-time samples taken at the network (``Network.add_tap``).

    ``write_oneway_ms``: send -> delivery of every ``WriteBatch``.
    ``ack_turnaround_ms``: a batch delivered at a storage node -> the send
    time of the first ``WriteAck`` from that node that covers it (the SCL
    is read when the ack leaves, so an ack covers every batch delivered
    before it was sent).
    """

    def __init__(self) -> None:
        from repro.storage.messages import WriteAck, WriteBatch

        self._batch, self._ack = WriteBatch, WriteAck
        self.write_oneway_ms: list[float] = []
        self.ack_turnaround_ms: list[float] = []
        #: (node, instance) -> delivery times of batches not yet acked.
        self._unacked: dict[tuple[str, str], list[float]] = {}

    def __call__(self, message) -> None:
        payload = message.payload
        if isinstance(payload, self._batch):
            self.write_oneway_ms.append(
                message.deliver_time - message.send_time
            )
            self._unacked.setdefault(
                (message.dst, message.src), []
            ).append(message.deliver_time)
        elif isinstance(payload, self._ack):
            waiting = self._unacked.get((message.src, message.dst))
            if waiting:
                sent = message.send_time
                self.ack_turnaround_ms.extend(
                    sent - t for t in waiting if t <= sent
                )
                waiting[:] = [t for t in waiting if t > sent]
