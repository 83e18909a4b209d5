"""Local replica of the core DAG, shared by core validators and guards.

Every node that follows the core DAG keeps one: its block store, the pending
pool of blocks waiting on missing ancestors, and the decision engine over the
store. A block whose parents are all stored is inserted and releases the
pending blocks that waited on it; a block with missing parents is parked, and
the peer that sent it is asked for the missing parents no parked block
awaited before, along with this replica's frontier: its highest stored round
per committee member. So each awaited ref is requested once per replica, not
once per parked block. One retry timer re-requests a ref still awaited
SYNC_RETRY delta after its last request from each peer that sent a block
awaiting it; the retry must outlast the 2 delta round trip. A peer's sync
request is served with the requested blocks and those of their ancestors
above the requester's frontier. A stored DAG is closed downward, so the
requester holds most of what lies below; a block it still lacks there, such
as an equivocator's other fork, parks the shipped block that needs it, and
that block's own request names it, so it ships. A response holds at most
SYNC_CAP_PER_MEMBER times the committee size blocks, the lowest by (round,
author, digest); the requester's retry timer asks again for what it still
awaits, with a frontier that the shipped blocks raised.

Each decision pass may raise the DAG's floor. Intake then passes over blocks
below it, the pending pool drops them, and sync serving stops there.

Every message enters a replica through `deliver`. It drops a kind the replica
has no handler for unchecked, and drops and counts in `malformed` a message
that fails its kind's shape (`messages.SHAPES`). A block, alone or in a sync
response, goes to the subclass's `ingest_block`, which reads its checks in
place: it passes over a block held below the floor, or as this very object
stored or parked (identity, not digest, so a forged-tag copy is taken in; an
empty pool costs no lookup), validates only on a validity-memo miss, and runs
`_settle`, the pending pool's half, only for an insert outcome other than the
shared `INSERTED` or while the pool awaits a ref. A sync request is served
here; any other kind goes to the handler the subclass names in `handlers`.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .committer import Committer, CommonCoin
from .dagcore import Block, Committee, Dag, InsertOutcome, InsertStatus, PendingPool
from .messages import (
    SHAPES, Action, ArmTimer, BlockMsg, CoreUpdateMsg, NodeId, Send, SyncRequest, SyncResponse,
)

# the retry timer's period in delta: strictly above the 2 delta round trip, as
# a timer armed with a request pops before a response that lands exactly then
SYNC_RETRY = 3
SYNC_TIMER = "sync-retry"
# a sync response ships at most this many blocks per committee member; a
# requester that lacks more fetches the rest with its retry timer
SYNC_CAP_PER_MEMBER = 4


class Replica:
    # message kind -> name of the method that takes (msg, now); looked up on
    # the instance at each call, so a method wrapped on the class is seen
    handlers: dict[type, str] = {}

    def __init__(
        self,
        committee: Committee,
        leaders_per_round: int,
        delta: int,
        coin: Optional[CommonCoin] = None,
    ):
        self.committee = committee
        self.leaders_per_round = leaders_per_round
        self.delta = delta
        self.dag = Dag(committee)
        self.committer = Committer(self.dag, committee, leaders_per_round, coin)
        self.pending = PendingPool()
        self.invalid_blocks = 0  # blocks that failed validation on intake
        self.malformed: Counter[str] = Counter()  # kind name -> messages dropped as malformed
        self._retry_armed = False  # the sync retry timer is pending

    def deliver(self, msg, sender: NodeId, now: int) -> list[Action]:
        """The one intake of a message. Only update messages that pass are kept,
        per sender, in the committee's memo: each is checked once per committee."""
        kind = type(msg)
        if kind is BlockMsg:
            block = msg.block
            if type(block) is Block:
                return self.ingest_block(block, sender, now)
        elif kind is SyncResponse:
            blocks = msg.blocks
            if type(blocks) is tuple and all(type(b) is Block for b in blocks):
                actions: list[Action] = []
                for block in blocks:
                    actions.extend(self.ingest_block(block, sender, now))
                return actions
        else:
            name = self.handlers.get(kind)
            if name is None and kind is not SyncRequest:
                return []
            updates, shape = self.committee.memo.updates, SHAPES[kind]
            if updates.get(sender) is msg or shape(msg, self.committee.size, self.leaders_per_round):
                if kind is CoreUpdateMsg:
                    updates[sender] = msg
                if name is None:
                    return self.on_sync_request(msg, sender)
                return getattr(self, name)(msg, now)
        self.malformed[kind.__name__] += 1
        return []

    def _settle(
        self, block: Block, outcome: InsertOutcome, sender: Optional[NodeId], now: int
    ) -> list[Action]:
        """Park a validated block `Dag.insert` found parents missing for and ask
        `sender` for those no parked block awaited before (the retry timer asks
        again for any left missing), or release what an inserted one completes."""
        if outcome.status is InsertStatus.MISSING_ANCESTORS:
            if not self.pending.has(block.digest):
                fresh = self.pending.add(block, outcome.missing, sender, now)
                if fresh and sender is not None:
                    return self._arm_retry([Send(sender, SyncRequest(fresh, self._frontier()))])
        elif outcome.status is InsertStatus.INSERTED and self.pending.awaited:
            ready = self.pending.satisfy(block.digest)
            while ready:
                released: list[Block] = []
                for blk in ready:
                    if self.dag.insert(blk).status is InsertStatus.INSERTED:
                        released.extend(self.pending.satisfy(blk.digest))
                ready = released
        return []

    def _arm_retry(self, actions: list[Action]) -> list[Action]:
        if not self._retry_armed:
            self._retry_armed = True
            actions.append(ArmTimer(SYNC_TIMER, SYNC_RETRY * self.delta))
        return actions

    def _retry_sync(self, now: int) -> list[Action]:
        """The retry timer: ask again for every ref last requested SYNC_RETRY
        delta ago or more, from each sender of a block that awaits it, and
        re-arm while any ref is awaited."""
        self._retry_armed = False
        if not self.pending.awaited:
            return []
        due = self.pending.overdue(now, SYNC_RETRY * self.delta)
        frontier = self._frontier()
        return self._arm_retry(
            [Send(peer, SyncRequest(tuple(refs), frontier)) for peer, refs in sorted(due.items())]
        )

    def _decide(self, now: int, trigger_round: int = -1, keep: Optional[int] = None) -> None:
        """Decision pass at virtual time `now`. If it raised the DAG's floor,
        the pending pool drops the blocks below the floor and inserts those
        at it."""
        floor = self.dag.floor
        self.committer.extend(trigger_round, keep, now)
        if self.dag.floor != floor and len(self.pending):
            for block in self.pending.prune(self.dag.floor):
                self._settle(block, self.dag.insert(block), None, now)

    def _frontier(self) -> tuple[int, ...]:
        """Highest stored round per committee member, -1 for none stored."""
        highest = self.dag.highest
        return tuple(highest.get(m, -1) for m in self.committee.members)

    def on_sync_request(self, req: SyncRequest, sender: NodeId) -> list[Action]:
        """Serve the requested blocks we hold plus their ancestors above the
        requester's frontier.

        Requested blocks are always reached; another block is reached only
        if its round is above the frontier entry of its author and not below
        this DAG's floor, and the walk descends only from reached blocks. Of
        the reached blocks, the lowest by (round, author, digest) ship, at
        most SYNC_CAP_PER_MEMBER times the committee size.
        """
        members = self.committee.members
        frontier = dict(zip(members, req.frontier))
        dag = self.dag
        floor = dag.floor
        requested = {r.digest: dag.get(r) for r in req.refs if r in dag}
        seen = set(requested)
        blocks = list(requested.values())
        stack = list(blocks)
        while stack:
            for p in stack.pop().parents:
                if p.digest not in seen and p.round > frontier[p.author] and p.round >= floor:
                    seen.add(p.digest)
                    blk = dag.get(p)
                    blocks.append(blk)
                    stack.append(blk)
        blocks.sort(key=lambda b: (b.round, b.author, b.digest))
        del blocks[SYNC_CAP_PER_MEMBER * len(members):]
        return [Send(sender, SyncResponse(tuple(blocks)))] if blocks else []

