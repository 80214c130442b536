"""One recorded history of what a client was told, and the one checker
that judges every read in it (DESIGN.md D15).

A client only records, per key: each value submitted, each ack at the
moment it learned it, each outcome it never learned (the value may be
durable: LARK's *uncertain*, PAPERS.md) and each read -- who read, of
which kind, at which frontier, and what it saw.  :func:`check` replays
the record once and holds each read to the :data:`RULES` rows of its
kind.  A row applies one of three rules -- the value read was
``SUBMITTED`` (None passes); a read after the reader's ``OWN_ACK``
returns it; a reconciliation read returns the ``LAST_ACK`` -- and what
the client families judge differently is row data, not code.
"""

from __future__ import annotations

import math
from typing import NamedTuple

SUBMITTED, OWN_ACK, LAST_ACK = "submitted", "own ack", "last ack"


class Event(NamedTuple):
    """``who``: the session it is about (None: the client as a whole);
    ``scn``: an ack's commit SCN, or the frontier a read was served at."""

    op: str  # submit, ack, fail or read
    key: str
    value: object
    who: object = None
    at: float = 0.0
    scn: int | None = None
    kind: str = ""  # a read's: which rows judge it


class Row(NamedTuple):
    """An invariant applying ``rule`` to the reads of ``kinds``.  A read
    is held to its key's last ack (``scope`` "key"), or to its session's
    last when that was on this key ("reader"); ``exempt`` skips keys a
    delete was submitted for ("deleted") or the reader never learned an
    outcome on ("uncertain"); with ``only_none`` only a None read misses
    the ack, with ``covered_only`` only a loss inside the read's frontier
    counts.  A violation's subject is the reading session, else the key."""

    name: str
    kinds: tuple
    rule: str
    detail: str
    scope: str = "key"
    exempt: str | None = None
    only_none: bool = False
    covered_only: bool = False


_UNWRITTEN = (
    "{kind} read returned {value!r}, which was never written "
    "({candidates} known candidate values)"
)
_LOST = "expected {acked!r}, promoted region has {value!r}"
RULES = (
    Row("client-read-consistency", ("writer", "replica"), SUBMITTED,
        _UNWRITTEN, exempt="deleted"),
    Row("client-read-consistency", ("writer",), OWN_ACK,
        "{kind} read returned None but commit of {acked!r} was "
        "acknowledged", exempt="deleted", only_none=True),
    Row("client-read-consistency", ("region",), SUBMITTED, _UNWRITTEN),
    Row("proxy-read-consistency", ("shared",), SUBMITTED,
        "observed {value!r}, never submitted for this key"),
    Row("proxy-read-your-writes", ("private",), OWN_ACK,
        "read {key!r} -> {value!r} after ack of {acked!r} "
        "(floor scn {frontier})", "reader", "uncertain"),
    Row("proxy-acked-write-loss", ("settle",), LAST_ACK,
        "acked write {key!r}={acked!r} reads back {value!r} after settle",
        "reader", "uncertain"),
    Row("geo-sync-commit-loss", ("promoted-sync",), LAST_ACK,
        "sync-acked commit scn={scn} (acked at {acked_at:.1f}ms) missing "
        "after promotion: " + _LOST, exempt="uncertain"),
    Row("geo-rpo-exceeds-lag", ("promoted-async",), LAST_ACK,
        "async loss of scn={scn} inside the applied replication frontier "
        "{frontier}: " + _LOST, exempt="uncertain", covered_only=True),
)


class History:
    """The record, append-only, each event stamped with ``clock.now``."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.events: list[Event] = []

    def _add(self, op, key, value, who, **extra) -> None:
        self.events.append(Event(op, key, value, who, self.clock.now, **extra))

    def submit(self, key, value, who=None) -> None:
        """``value`` was submitted for ``key`` (None: a delete)."""
        self._add("submit", key, value, who)

    def ack(self, key, value, who=None, scn=0) -> None:
        self._add("ack", key, value, who, scn=scn)

    def fail(self, key, value=None, who=None) -> None:
        """An outcome never learned: ``value`` may be durable, and ``who``
        is in doubt about ``key`` from now on."""
        self._add("fail", key, value, who)

    def read(self, key, value, kind, who=None, frontier=None) -> None:
        self._add("read", key, value, who, scn=frontier, kind=kind)

    def unsettled(self, kind, before=math.inf) -> list[Event]:
        """The acks a reconciliation read of ``kind`` reads back, in read
        order: by its row's scope, each key's or session's last ack,
        learned before ``before`` and not exempt."""
        row = next(row for row in RULES if kind in row.kinds)
        state = check(self)
        acks = state.own if row.scope == "reader" else state.acks
        return [
            acks[k] for k in sorted(acks)
            if acks[k].at < before and not state.exempt(row, acks[k])
        ]


class Judgement:
    """What :func:`check` found, and what the record holds a read to."""

    def __init__(self) -> None:
        #: (invariant, subject, detail, read kind), in history order.
        self.violations: list[tuple] = []
        #: The ack instants reconciliation reads judged; of those, the
        #: ones inside the read's frontier, and the ones not read back.
        self.reconciled, self.covered, self.lost = [], [], []
        #: Per key: values submitted (None aside), last ack; keys a None
        #: was submitted for; each session's last ack; (who, key) doubts.
        self.values, self.acks = {}, {}
        self.deleted, self.own, self.doubt = set(), {}, set()

    def count(self, kind: str) -> int:
        """Violations among the reads of ``kind``."""
        return sum(1 for violation in self.violations if violation[3] == kind)

    def apply(self, event: Event) -> None:
        op, key, value, who = event[:4]
        if op == "ack":
            self.acks[key] = event
            if who is not None:
                self.own[who] = event
        elif op == "fail":
            self.doubt.add((who, key))
        if op in ("submit", "fail") and value is not None:
            self.values.setdefault(key, set()).add(value)
        elif op == "submit":
            self.deleted.add(key)

    def exempt(self, row: Row, event: Event) -> bool:
        if row.exempt == "deleted":
            return event.key in self.deleted
        in_doubt = (event.who, event.key) in self.doubt
        return row.exempt == "uncertain" and in_doubt

    def miss(self, row: Row, read: Event) -> dict | None:
        """The facts of ``read`` breaking ``row`` (None: it holds)."""
        if row.rule == SUBMITTED:
            seen = self.values.get(read.key, ())
            if read.value is None or read.value in seen:
                return None
            return dict(candidates=len(seen))
        if row.scope == "reader":
            ack = self.own.get(read.who)
        else:
            ack = self.acks.get(read.key)
        if ack is None or ack.key != read.key:
            return None
        if row.only_none:
            missed = read.value is None
        else:
            missed = read.value != ack.value
        if row.rule == LAST_ACK:
            covered = read.scn is not None and ack.scn <= read.scn
            self.reconciled.append(ack.at)
            if covered:
                self.covered.append(ack.at)
            if missed:
                self.lost.append(ack.at)
            missed = missed and (covered or not row.covered_only)
        if not missed:
            return None
        return dict(acked=ack.value, acked_at=ack.at, scn=ack.scn)


def check(history: History, flag=None) -> Judgement:
    """Judge every read of ``history`` against :data:`RULES`; each
    violation also goes to ``flag(invariant, subject, detail)``."""
    out = Judgement()
    for event in history.events:
        out.apply(event)
        if event.op != "read":
            continue
        for row in RULES:
            if event.kind not in row.kinds or out.exempt(row, event):
                continue
            facts = out.miss(row, event)
            if facts is None:
                continue
            fields = {**event._asdict(), "frontier": event.scn, **facts}
            who = event.who
            subject = event.key if who is None else f"session-{who}"
            violation = (row.name, subject, row.detail.format(**fields),
                         event.kind)
            out.violations.append(violation)
            if flag is not None:
                flag(*violation[:3])
    return out
