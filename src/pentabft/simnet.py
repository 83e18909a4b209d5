"""Deterministic discrete-event simulator.

A single heap drives the run: entries are (virtual time, sequence number,
event) and equal-time entries resolve by sequence number, so identical
(scenario, seed) inputs replay byte-identically. Virtual time is integer
microseconds. Message delays come from one of three network models; timers
fire exactly.

Deliveries at one instant are ingested per event and each touched node is
then flushed once (decisions, round advancement, outbound actions), which is
behaviorally identical because nothing sent at time t can arrive at time t.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .messages import (
    Action,
    ArmTimer,
    Broadcast,
    CancelTimer,
    NodeId,
    RecoveryDone,
    Send,
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


@dataclass(frozen=True)
class PartialSynchrony:
    """Arbitrary (seeded) delays before GST; delta afterwards.

    Messages sent before GST are delivered by GST + delta at the latest;
    messages sent at or after GST take exactly delta.
    """

    gst: int
    delta: int
    pre_gst_spread: int = 20  # pre-GST delays drawn from [delta, spread*delta]

    def delay(self, rng: random.Random, now: int) -> int:
        if now >= self.gst:
            return self.delta
        raw = rng.randint(self.delta, self.pre_gst_spread * self.delta)
        return min(now + raw, self.gst + self.delta) - now

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

    def delay(self, rng: random.Random, now: int) -> int:
        if self.benign:
            return rng.randint(max(1, self.base // 2), self.base)
        if rng.random() < 0.25:
            return rng.randint(self.base, self.cap)
        return rng.randint(max(1, self.base // 10), self.base)

    def delivery_bound(self, send_time: int) -> int:
        return send_time + self.cap


# -- events ---------------------------------------------------------------------

DELIVER = 0
TIMER = 1
CALL = 2


@dataclass(frozen=True)
class SimEvent:
    """Event-log entry: message delivery, timer expiry, or fault activation."""

    time: int
    seq: int
    kind: str
    node: NodeId
    detail: str

    def to_line(self) -> str:
        return f"{self.time}\t{self.seq}\t{self.kind}\t{self.node}\t{self.detail}"


def describe_payload(payload: object) -> str:
    from .messages import BlockMsg, SyncRequest, SyncResponse, LBlameMsg, CoreUpdateMsg, AgreementRelay

    if isinstance(payload, BlockMsg):
        b = payload.block
        return f"block {b.author}/{b.round}/{b.digest.hex()[:8]}"
    if isinstance(payload, SyncRequest):
        return f"sync-req {len(payload.refs)}"
    if isinstance(payload, SyncResponse):
        return f"sync-resp {len(payload.blocks)}"
    if isinstance(payload, LBlameMsg):
        return f"lblame g{payload.guard} v{payload.accused} r{payload.round}"
    if isinstance(payload, CoreUpdateMsg):
        return f"core-update g{payload.guard} {len(payload.claims)}"
    if isinstance(payload, AgreementRelay):
        return f"relay p{payload.proposer} chain={len(payload.chain)}"
    return type(payload).__name__


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
        self.rng = random.Random(f"net/{seed}")
        self.now = 0
        self.horizon = horizon
        self.record_events = record_events
        self.events: list[SimEvent] = []
        self.delivery_count = 0
        # (send, frm, to, recv) per delivery; captured with event recording
        self.delivery_log: list[tuple[int, NodeId, NodeId, int]] = []
        self._heap: list = []
        self._seq = 0
        self.nodes: dict[NodeId, Node] = {}
        self._timer_gen: dict[tuple[NodeId, str], int] = {}
        self.on_recovery_done: Optional[Callable] = None
        self.outbound_check: Optional[Callable] = None

    def add_node(self, node: Node) -> None:
        self.nodes[node.node_id] = node

    # -- scheduling -------------------------------------------------------------

    def _push(self, time: int, kind: int, node: NodeId, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, node, payload))

    def send(self, frm: NodeId, to: NodeId, payload: object, now: int) -> None:
        if self.outbound_check is not None:
            self.outbound_check(frm, payload)
        delay = self.network.delay(self.rng, now)
        at = now + (delay if delay > 0 else 1)
        self._push(at, DELIVER, to, (frm, payload))
        self.delivery_count += 1
        if self.record_events:
            self.delivery_log.append((now, frm, to, at))

    def broadcast(self, frm: NodeId, payload: object, now: int) -> None:
        for node_id in self.nodes:
            if node_id != frm:
                self.send(frm, node_id, payload, now)

    def set_timer(self, node: NodeId, timer_id: str, duration: int, now: int) -> None:
        gen = self._timer_gen.get((node, timer_id), 0) + 1
        self._timer_gen[(node, timer_id)] = gen
        self._push(now + duration, TIMER, node, (timer_id, gen))

    def cancel_timer(self, node: NodeId, timer_id: str) -> None:
        self._timer_gen[(node, timer_id)] = self._timer_gen.get((node, timer_id), 0) + 1

    def inject(self, node: NodeId, detail: str, now: int) -> None:
        """Log a fault activation as a first-class event."""
        self._seq += 1
        if self.record_events:
            self.events.append(SimEvent(now, self._seq, "inject", node, detail))

    def schedule_call(self, time: int, fn: Callable) -> None:
        """Run `fn(now)` as an event; used for epoch restarts."""
        self._push(time, CALL, "", fn)

    # -- action interpretation ----------------------------------------------------

    def apply_actions(self, node_id: NodeId, actions: list[Action], now: int) -> None:
        for action in actions:
            if isinstance(action, Broadcast):
                self.broadcast(node_id, action.payload, now)
            elif isinstance(action, Send):
                if action.to in self.nodes:
                    self.send(node_id, action.to, action.payload, now)
            elif isinstance(action, ArmTimer):
                self.set_timer(node_id, action.timer_id, action.duration, now)
            elif isinstance(action, CancelTimer):
                self.cancel_timer(node_id, action.timer_id)
            elif isinstance(action, RecoveryDone):
                if self.on_recovery_done is not None:
                    self.on_recovery_done(node_id, action.directive, now)
            else:
                raise TypeError(f"unknown action {action!r}")

    # -- main loop ------------------------------------------------------------------

    def run(self) -> None:
        """Process events until the horizon or quiescence."""
        heap = self._heap
        while heap and heap[0][0] <= self.horizon:
            time = heap[0][0]
            self.now = time
            touched: list[NodeId] = []
            touched_set = set()
            # ingest every event at this instant, then flush touched nodes once
            while heap and heap[0][0] == time:
                _, seq, kind, node_id, payload = heapq.heappop(heap)
                if kind == CALL:
                    payload(time)
                    continue
                node = self.nodes.get(node_id)
                if node is None:
                    continue
                if kind == DELIVER:
                    frm, msg = payload
                    if self.record_events:
                        self.events.append(
                            SimEvent(time, seq, "deliver", node_id, f"{frm} {describe_payload(msg)}")
                        )
                    actions = node.deliver(msg, frm, time)
                elif kind == TIMER:
                    timer_id, gen = payload
                    if self._timer_gen.get((node_id, timer_id)) != gen:
                        continue  # superseded or cancelled
                    if self.record_events:
                        self.events.append(SimEvent(time, seq, "timer", node_id, timer_id))
                    actions = node.on_timer(timer_id, time)
                else:
                    continue
                self.apply_actions(node_id, actions, time)
                if node_id not in touched_set:
                    touched_set.add(node_id)
                    touched.append(node_id)
            for node_id in sorted(touched):
                node = self.nodes.get(node_id)
                if node is not None:
                    self.apply_actions(node_id, node.flush(time), time)

    def kick(self) -> None:
        """Give every node an initial flush at time zero."""
        for node_id in sorted(self.nodes):
            self.apply_actions(node_id, self.nodes[node_id].flush(0), 0)
