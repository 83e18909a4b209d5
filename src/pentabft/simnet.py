"""Deterministic discrete-event simulator.

A calendar queue drives the run (R. Brown, "Calendar queues", CACM 31(10),
1988): a heap of the distinct pending times plus one FIFO queue of events per
time. Every event takes the next sequence number, so appending in push order
keeps each queue in sequence order, and events pop in (virtual time, sequence
number) order: identical (scenario, seed) inputs replay byte-identically. A
broadcast costs one append per recipient, not one heap push, and `send`
appends to the queue itself. Virtual time is integer microseconds. Message
delays come from one of three network models; timers fire exactly. A model
fixes its delay ranges at construction, refusing an empty one, and draws
from a range by the loop CPython's `randint` runs: `getrandbits(k)` for the
width's bit length k until the value is below the width. So the stream is
`randint`'s, but no longer depends on how `randint` maps bits.

Deliveries at one instant are ingested per event and each touched node is
then flushed once, in node-id order (decisions, round advancement, outbound
actions), which is behaviorally identical because nothing sent at time t can
arrive at time t. An instant that touched one node flushes it without
collecting or sorting the touched set.

The event log is text, each line written once as its event happens; one
payload description serves back-to-back copies of a message object, as a
broadcast's copies pop under the synchronous model. Lines collect in a tail
that is joined into one newline-separated block at the end of an instant
once it holds EVENT_BLOCK_LINES lines, and when `run` returns, so the log
is held as a few large strings, not one string per line. The host's
`outbound_check` sees each message a node emits once, a broadcast as one.

An epoch ends here too: `start_epoch` swaps in a new node set and drops the
old set's undelivered messages and armed timers, so nothing from a retired
epoch reaches its successor; a restart that fires mid-instant also drops the
rest of that instant's deliveries and timers.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional

from .messages import (
    Action,
    AgreementRelay,
    ArmTimer,
    BlockMsg,
    Broadcast,
    CoreUpdateMsg,
    LBlameMsg,
    NodeId,
    RecoveryDone,
    Send,
    SyncRequest,
    SyncResponse,
)


class ConfigError(ValueError):
    pass


class BudgetExceeded(ConfigError):
    pass


# -- network models ------------------------------------------------------------


@dataclass(frozen=True)
class Synchronous:
    """Every message delivered in exactly delta."""

    delta: int

    def delay(self, rng: random.Random, now: int) -> int:
        return self.delta

    def delivery_bound(self, send_time: int) -> int:
        return send_time + self.delta


def _draw_range(lo: int, hi: int) -> tuple[int, int, int]:
    """(low end, width, width's bit length) of a uniform draw from [lo, hi].
    An empty range is refused: drawing from it would never end."""
    width = hi - lo + 1
    if width < 1:
        raise ConfigError(f"empty delay range [{lo}, {hi}]")
    return lo, width, width.bit_length()


@dataclass(frozen=True)
class PartialSynchrony:
    """Arbitrary (seeded) delays before GST; delta afterwards.

    Messages sent before GST are delivered by GST + delta at the latest;
    messages sent at or after GST take exactly delta.
    """

    gst: int
    delta: int
    pre_gst_spread: int = 20  # pre-GST delays drawn from [delta, spread*delta]
    _pre_gst: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spread = _draw_range(self.delta, self.pre_gst_spread * self.delta)
        object.__setattr__(self, "_pre_gst", spread)

    def delay(self, rng: random.Random, now: int) -> int:
        if now >= self.gst:
            return self.delta
        # randint's draw, which CPython makes by this loop, without its frames
        lo, width, bits = self._pre_gst
        raw = rng.getrandbits(bits)
        while raw >= width:
            raw = rng.getrandbits(bits)
        return min(now + lo + raw, self.gst + self.delta) - now

    def delivery_bound(self, send_time: int) -> int:
        return max(send_time, self.gst) + self.delta


@dataclass(frozen=True)
class Asynchronous:
    """Seeded arbitrary delays with a hard eventual-delivery cap.

    The cap realizes "arbitrary but eventual" testably; protocol code never
    reads it. The benign profile keeps delays in a tight band, the
    adversarial profile mixes fast deliveries with spikes up to the cap.
    """

    base: int = 1000
    cap: int = 10000
    benign: bool = True
    # the draw ranges of the benign band, or of the adversarial fast
    # deliveries and spikes
    _fast: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    _spike: Optional[tuple[int, int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.benign:
            fast, spike = _draw_range(max(1, self.base // 2), self.base), None
        else:
            fast = _draw_range(max(1, self.base // 10), self.base)
            spike = _draw_range(self.base, self.cap)
        object.__setattr__(self, "_fast", fast)
        object.__setattr__(self, "_spike", spike)

    def delay(self, rng: random.Random, now: int) -> int:
        # randint's draw, which CPython makes by this loop, without its frames
        if self.benign or rng.random() >= 0.25:
            lo, width, bits = self._fast
        else:
            lo, width, bits = self._spike
        raw = rng.getrandbits(bits)
        while raw >= width:
            raw = rng.getrandbits(bits)
        return lo + raw

    def delivery_bound(self, send_time: int) -> int:
        return send_time + self.cap


# -- events ---------------------------------------------------------------------

DELIVER = 0
TIMER = 1
CALL = 2

# event-log lines joined into one block of text
EVENT_BLOCK_LINES = 4096


def describe_payload(payload: object) -> str:
    """The event-log description of a delivered message. It never raises: a
    field a Byzantine sender left malformed reads `?`, e.g. `sync-req ?`."""
    for cls, kind, detail in _DESCRIPTIONS:
        if isinstance(payload, cls):
            try:
                return f"{kind} {detail(payload)}"
            except (AttributeError, TypeError, ValueError):
                return f"{kind} ?"
    return type(payload).__name__


_DESCRIPTIONS = (
    (BlockMsg, "block", lambda p: f"{p.block.author}/{p.block.round}/{p.block.digest.hex()[:8]}"),
    (SyncRequest, "sync-req", lambda p: len(p.refs)),
    (SyncResponse, "sync-resp", lambda p: len(p.blocks)),
    (LBlameMsg, "lblame", lambda p: f"g{p.guard} v{p.accused} r{p.round}"),
    (CoreUpdateMsg, "core-update", lambda p: f"g{p.guard} {len(p.claims)}"),
    (AgreementRelay, "relay", lambda p: f"p{p.proposer} chain={len(p.chain)}"),
)


class Node:
    """Host-side interface the simulator drives."""

    node_id: NodeId

    def deliver(self, payload: object, sender: NodeId, now: int) -> list[Action]:
        raise NotImplementedError

    def flush(self, now: int) -> list[Action]:
        return []

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        raise NotImplementedError


class Simulator:
    """Virtual clock, message scheduling, timer service, and node hosting."""

    def __init__(
        self,
        network: Synchronous | PartialSynchrony | Asynchronous,
        seed: int,
        record_events: bool = False,
        horizon: int = 10_000_000,
    ):
        self.network = network
        # a synchronous model's one delay, read without a call, lands every copy
        # at the model's bound; None for a model that draws, or a delay below 1
        fixed = type(network) is Synchronous and network.delta >= 1
        self._fixed_delay = network.delta if fixed else None
        self.rng = random.Random(f"net/{seed}")
        self.now = 0
        self.horizon = horizon
        self.record_events = record_events
        # the event log: blocks of EVENT_BLOCK_LINES or more lines joined by
        # "\n", then the tail of lines not yet joined; event_count counts both
        self.event_blocks: list[str] = []
        self.event_tail: list[str] = []
        self._joined_lines = 0
        self.delivery_count = 0
        # (send, frm, to, recv) per delivery later than the network model's
        # bound; checked with event recording
        self.late_deliveries: list[tuple[int, NodeId, NodeId, int]] = []
        # calendar queue: heap of distinct pending times, and per time a FIFO
        # of (seq, kind, node, a, b) entries; a DELIVER carries (sender,
        # message), a TIMER (timer id, None), a CALL ("", function)
        self._times: list[int] = []
        self._queues: dict[int, deque] = {}
        self._seq = 0
        self.nodes: dict[NodeId, Node] = {}
        # (node, timer id) -> seq of its one live arm; a key leaves when its
        # timer fires, and an entry whose seq is not here was re-armed since
        self._timer_seq: dict[tuple[NodeId, str], int] = {}
        self.on_recovery_done: Optional[Callable] = None
        self.outbound_check: Optional[Callable] = None

    def start_epoch(self, nodes: list[Node], now: int) -> None:
        """Replace the node set: drop the old set's in-flight messages and
        armed timers (scheduled calls stay), then flush each new node once."""
        self.nodes = {node.node_id: node for node in nodes}
        self._timer_seq.clear()
        # in place: run() may be consuming one of these queues right now, and
        # an emptied queue stays until run() reaches its time and skips it
        for queue in self._queues.values():
            calls = [entry for entry in queue if entry[1] == CALL]
            queue.clear()
            queue.extend(calls)
        for node_id in sorted(self.nodes):
            self.apply_actions(node_id, self.nodes[node_id].flush(now), now)

    # -- scheduling -------------------------------------------------------------

    def _push(self, time: int, kind: int, node: NodeId, a, b) -> None:
        self._seq += 1
        queue = self._queues.get(time)
        if queue is None:
            queue = self._queues[time] = deque()
            heappush(self._times, time)
        queue.append((self._seq, kind, node, a, b))

    def send(self, frm: NodeId, to: NodeId, payload: object, now: int) -> None:
        delay = self._fixed_delay
        if delay is None:
            delay = self.network.delay(self.rng, now)
            at = now + (delay if delay > 0 else 1)
            if self.record_events and at > self.network.delivery_bound(now):
                self.late_deliveries.append((now, frm, to, at))
        else:
            at = now + delay
        # _push's body, inline on the hottest path
        self._seq = seq = self._seq + 1
        queue = self._queues.get(at)
        if queue is None:
            queue = self._queues[at] = deque()
            heappush(self._times, at)
        queue.append((seq, DELIVER, to, frm, payload))
        self.delivery_count += 1

    def broadcast(self, frm: NodeId, payload: object, now: int) -> None:
        for node_id in self.nodes:
            if node_id != frm:
                self.send(frm, node_id, payload, now)

    def set_timer(self, node: NodeId, timer_id: str, duration: int, now: int) -> None:
        self._push(now + duration, TIMER, node, timer_id, None)
        self._timer_seq[(node, timer_id)] = self._seq

    def inject(self, node: NodeId, detail: str, now: int) -> None:
        """Log a fault activation as a first-class event."""
        self._seq += 1
        if self.record_events:
            self.event_tail.append(f"{now}\t{self._seq}\tinject\t{node}\t{detail}")

    @property
    def event_count(self) -> int:
        """Lines in the event log; a line may itself hold a newline, since a
        Byzantine sender's malformed field is described as it stands."""
        return self._joined_lines + len(self.event_tail)

    def _join_tail(self) -> None:
        """Move the tail's lines into one block."""
        tail = self.event_tail
        if tail:
            self.event_blocks.append("\n".join(tail))
            self._joined_lines += len(tail)
            tail.clear()

    def schedule_call(self, time: int, fn: Callable) -> None:
        """Run `fn(now)` as an event; used for epoch restarts."""
        self._push(time, CALL, "", "", fn)

    # -- action interpretation ----------------------------------------------------

    def apply_actions(self, node_id: NodeId, actions: list[Action], now: int) -> None:
        check = self.outbound_check
        for action in actions:
            if isinstance(action, Broadcast):
                if check is not None:
                    check(node_id, action.payload)
                self.broadcast(node_id, action.payload, now)
            elif isinstance(action, Send):
                if action.to in self.nodes:
                    if check is not None:
                        check(node_id, action.payload)
                    self.send(node_id, action.to, action.payload, now)
            elif isinstance(action, ArmTimer):
                self.set_timer(node_id, action.timer_id, action.duration, now)
            elif isinstance(action, RecoveryDone):
                if self.on_recovery_done is not None:
                    self.on_recovery_done(node_id, action.directive, now)
            else:
                raise TypeError(f"unknown action {action!r}")

    # -- main loop ------------------------------------------------------------------

    def run(self) -> None:
        """Process events until the horizon or quiescence; on return every
        event-log line is in a block."""
        times = self._times
        queues = self._queues
        timer_seq = self._timer_seq
        lines = self.event_tail
        record = self.record_events
        apply_actions = self.apply_actions
        described, description = None, describe_payload(None)
        while times and times[0] <= self.horizon:
            time = heappop(times)
            queue = queues[time]
            if not queue:  # emptied by start_epoch
                del queues[time]
                continue
            self.now = time
            # ingest every event at this instant, then flush the nodes it
            # touched once each; an event pushed for this instant meanwhile
            # joins the queue. Most instants touch one node: it is `first`,
            # and a set collects the nodes only once a second one is touched
            first = touched = None
            popleft = queue.popleft
            while queue:
                seq, kind, node_id, a, b = popleft()
                if kind == CALL:
                    b(time)
                    continue
                node = self.nodes.get(node_id)
                if node is None:
                    continue
                if kind == DELIVER:
                    if record:
                        if b is not described:
                            described, description = b, describe_payload(b)
                        lines.append(f"{time}\t{seq}\tdeliver\t{node_id}\t{a} {description}")
                    actions = node.deliver(b, a, time)
                else:
                    key = (node_id, a)
                    if timer_seq.get(key) != seq:
                        continue  # superseded by a re-arm
                    del timer_seq[key]
                    if record:
                        lines.append(f"{time}\t{seq}\ttimer\t{node_id}\t{a}")
                    actions = node.on_timer(a, time)
                if actions:
                    apply_actions(node_id, actions, time)
                if node_id != first:
                    if first is None:
                        first = node_id
                    elif touched is None:
                        touched = {first, node_id}
                    else:
                        touched.add(node_id)
            del queues[time]
            if touched is not None:
                flushed = sorted(touched)
            elif first is not None:
                flushed = (first,)
            else:
                flushed = ()
            for node_id in flushed:
                node = self.nodes.get(node_id)
                if node is not None:
                    actions = node.flush(time)
                    if actions:
                        apply_actions(node_id, actions, time)
            if len(lines) >= EVENT_BLOCK_LINES:
                self._join_tail()
        self._join_tail()
