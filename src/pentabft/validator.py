"""Core validator state machine: ingest blocks, advance rounds, propose, commit.

A validator is event-driven and single-threaded. Blocks arrive through the
replica path it shares with guards (`ingest_block` per block, then one
`flush`); `on_timer` handles the leader timer. Each call returns outbound
actions. Round advancement is gated on a strong quorum of the previous round
plus either all of that round's leader blocks or an expired leader timer
(partial synchrony only; the asynchronous variant drops leader timeouts
entirely).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .committer import CommitOutput, CommonCoin, leaders_of_round
from .dagcore import (
    Block,
    BlockRef,
    CoinShare,
    Committee,
    Mode,
    ValidationError,
    ValidatorId,
    make_block,
    validate_block,
)
from .messages import Action, ArmTimer, BlockMsg, Broadcast, NodeId
from .replica import Replica

LEADER_TIMER = "leader-wait"


@dataclass
class CommitEvent:
    """First time a slot verdict formed at this node, for latency accounting."""

    slot_round: int
    slot_rank: int
    verdict: str
    rule: str  # "direct" | "indirect"
    trigger_round: int
    vtime: int


class CoreValidator(Replica):
    """One committee member's full protocol state."""

    def __init__(
        self,
        me: ValidatorId,
        committee: Committee,
        leaders_per_round: int = 2,
        delta: int = 1000,
        coin: Optional[CommonCoin] = None,
        leader_timeout_factor: int = 2,
    ):
        super().__init__(committee, leaders_per_round, coin)
        self.me = me
        self.delta = delta
        self.leader_timeout = leader_timeout_factor * delta
        self.pending_transactions: list[bytes] = []
        self.current_round = 0  # highest round this validator proposed in
        self.round_entry_vtime: dict[int, int] = {0: 0}
        self.leader_deadline: Optional[int] = None
        self.proposed_rounds: set[int] = {0}
        self.commit_events: list[CommitEvent] = []
        self.crashed = False
        self.is_silent = False
        self.max_round: Optional[int] = None  # harness-imposed proposal ceiling
        # poll_commits cursor
        self._polled_leaders = 0
        self._polled_delivery = 0

    # -- block intake ----------------------------------------------------------

    def ingest_block(self, block: Block, sender: Optional[NodeId], now: int) -> list[Action]:
        try:
            validate_block(block, self.committee)
        except ValidationError as err:
            self.invalid_evidence.append((block, str(err)))
            return []
        return self._admit(block, sender)

    # bound in this class's own namespace: the benchmark tracer
    # (perfbench/tracing.py) wraps entry points per class
    on_sync_request = Replica.on_sync_request

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        if timer_id == LEADER_TIMER:
            return self.flush(now, trigger_round=-1)
        return []

    # -- decisions and round advancement -----------------------------------------

    def flush(self, now: int, trigger_round: int = -1) -> list[Action]:
        """Decision pass plus the round-advance loop."""
        self.committer.extend(trigger_round)
        self._record_commit_events(now)
        actions: list[Action] = []
        while True:
            step = self._advance_once(now)
            if not step:
                break
            actions.extend(step)
            # our own block may complete a quorum for our own decision pass
            self.committer.extend(self.current_round)
            self._record_commit_events(now)
        return actions

    def _record_commit_events(self, now: int) -> None:
        events = self.committer.decision_events
        while len(self.commit_events) < len(events):
            slot, verdict, rule, trig = events[len(self.commit_events)]
            self.commit_events.append(
                CommitEvent(slot.round, slot.rank, verdict.value, rule, trig, now)
            )

    def _advance_once(self, now: int) -> list[Action]:
        """One advance attempt; honest nodes broadcast exactly one new block."""
        block = self.try_advance_round(now)
        if block is None:
            return []
        actions: list[Action] = [Broadcast(BlockMsg(block))]
        if self.committee.mode is Mode.PARTIAL_SYNC:
            actions.append(ArmTimer(LEADER_TIMER, self.leader_timeout))
        return actions

    def try_advance_round(self, now: int) -> Optional[Block]:
        """Produce the next round's block when the previous round is quorate
        and its leaders are either all present or timed out.

        Parents take one block from every author stored at the previous round
        (lowest digest when an author equivocated); the transaction queue is
        drained fully into the new block.
        """
        if not self._can_advance(now):
            return None
        next_round = self.current_round + 1
        parents = self._build_parents()
        txs = tuple(self.pending_transactions)
        self.pending_transactions.clear()
        block = make_block(self.me, next_round, parents, txs, self._next_coin_share(next_round))
        self._enter_round(next_round, now)
        self.dag.insert(block)
        return block

    def _can_advance(self, now: int) -> bool:
        prev = self.current_round
        if self.max_round is not None and prev + 1 > self.max_round:
            return False
        if self.dag.author_count(prev) < self.committee.strong_quorum:
            return False
        if self.committee.mode is Mode.PARTIAL_SYNC:
            if not self._leaders_present(prev) and not self._leader_timer_expired(now):
                return False
        return True

    def _build_parents(self) -> list[BlockRef]:
        prev = self.current_round
        return [
            self.dag.first_block_by(author, prev).ref()
            for author in sorted(self.dag.authors_at_round(prev))
        ]

    def _next_coin_share(self, next_round: int) -> Optional[CoinShare]:
        if self.committee.mode is Mode.ASYNC:
            return CoinShare(self.me, next_round)
        return None

    def _enter_round(self, next_round: int, now: int) -> None:
        assert next_round not in self.proposed_rounds, "honest nodes propose once per round"
        self.proposed_rounds.add(next_round)
        self.current_round = next_round
        self.round_entry_vtime[next_round] = now
        self.leader_deadline = now + self.leader_timeout

    def _leaders_present(self, r: int) -> bool:
        authors = self.dag.authors_at_round(r)
        return all(
            leader in authors
            for leader in leaders_of_round(r, self.committee, self.leaders_per_round)
        )

    def _leader_timer_expired(self, now: int) -> bool:
        return self.leader_deadline is not None and now >= self.leader_deadline

    # -- commit output -------------------------------------------------------------

    def poll_commits(self) -> CommitOutput:
        """Commit log delta since the previous poll; never replays."""
        leaders = self.committer.committed_leaders
        delivery = self.committer.delivery_sequence
        out = CommitOutput(
            list(leaders[self._polled_leaders :]),
            list(delivery[self._polled_delivery :]),
        )
        self._polled_leaders = len(leaders)
        self._polled_delivery = len(delivery)
        return out

    def enqueue_transactions(self, txs: list[bytes]) -> None:
        self.pending_transactions.extend(txs)
