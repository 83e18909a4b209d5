"""Local replica of the core DAG, shared by core validators and guards.

Every node that follows the core DAG keeps one: its block store, the pending
pool of blocks waiting on missing ancestors, and the decision engine over the
store. A block whose parents are all stored is inserted and releases the
pending blocks that waited on it; a block with missing parents is parked and
its parents are requested once from the peer that sent it. Peers' sync
requests are served with the causal closure of the requested blocks.

Validation stays with the subclasses: a guard records evidence between
validating a block and admitting it.
"""

from __future__ import annotations

from typing import Optional

from .committer import Committer, CommonCoin
from .dagcore import Block, Committee, Dag, InsertStatus, PendingPool
from .messages import Action, NodeId, Send, SyncRequest, SyncResponse


class Replica:
    def __init__(
        self,
        committee: Committee,
        leaders_per_round: int,
        coin: Optional[CommonCoin] = None,
    ):
        self.committee = committee
        self.leaders_per_round = leaders_per_round
        self.dag = Dag(committee)
        self.committer = Committer(self.dag, committee, leaders_per_round, coin)
        self.pending = PendingPool()
        self.invalid_evidence: list[tuple[Block, str]] = []

    def _admit(self, block: Block, sender: Optional[NodeId]) -> list[Action]:
        """Insert a validated block, or park it and ask `sender` for its parents."""
        outcome = self.dag.insert(block)
        if outcome.status is InsertStatus.MISSING_ANCESTORS:
            if not self.pending.has(block.digest):
                self.pending.add(block, outcome.missing)
                if sender is not None:
                    return [Send(sender, SyncRequest(outcome.missing))]
        elif outcome.status is InsertStatus.INSERTED and not self.pending.is_idle():
            ready = self.pending.satisfy(block.digest)
            while ready:
                released: list[Block] = []
                for blk in ready:
                    if self.dag.insert(blk).status is InsertStatus.INSERTED:
                        released.extend(self.pending.satisfy(blk.digest))
                ready = released
        return []

    def on_sync_request(self, req: SyncRequest, sender: NodeId) -> list[Action]:
        """Serve a peer's missing ancestors with their full causal closure."""
        blocks: list[Block] = []
        seen: set[bytes] = set()
        stack = [r for r in req.refs if r in self.dag]
        while stack:
            ref = stack.pop()
            if ref.digest in seen:
                continue
            seen.add(ref.digest)
            blk = self.dag.get(ref)
            blocks.append(blk)
            stack.extend(p for p in blk.parents if p.digest not in seen)
        blocks.sort(key=lambda b: (b.round, b.author, b.digest))
        return [Send(sender, SyncResponse(tuple(blocks)))] if blocks else []
