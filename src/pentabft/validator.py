"""Core validator state machine: ingest blocks, advance rounds, propose, commit.

A validator is event-driven and single-threaded. Messages arrive through the
replica path it shares with guards (`deliver` per message, then one `flush`);
`on_timer` handles the leader timer. Each call returns outbound actions. The
highest round delivered since the last flush is that flush's trigger round.
Round advancement is gated on a strong quorum of the previous round plus
either all of that round's leader blocks or an expired leader timer (partial
synchrony only; the asynchronous variant drops leader timeouts entirely).
"""

from __future__ import annotations

from typing import Optional

from .committer import CommonCoin, leaders_of_round
from .dagcore import (
    INSERTED,
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
from .replica import SYNC_TIMER, Replica

LEADER_TIMER = "leader-wait"
LEADER_TIMEOUT_FACTOR = 2  # deltas a validator waits for its round's leaders


class CoreValidator(Replica):
    """One committee member's full protocol state."""

    def __init__(
        self,
        me: ValidatorId,
        committee: Committee,
        leaders_per_round: int = 2,
        delta: int = 1000,
        coin: Optional[CommonCoin] = None,
    ):
        super().__init__(committee, leaders_per_round, delta, coin)
        self.me = me
        self.leader_timeout = LEADER_TIMEOUT_FACTOR * delta
        self.pending_transactions: list[bytes] = []
        self.current_round = 0  # highest round this validator proposed in
        self.round_entry_vtime: dict[int, int] = {0: 0}
        self.leader_deadline: Optional[int] = None
        self.crashed = False
        self._trigger = -1  # highest round delivered since the last flush
        self.max_round: Optional[int] = None  # harness-imposed proposal ceiling
        # quorum stamp at the end of the last flush, None with the idle gate off;
        # exact only asynchronously (no leader deadlines) with the base advance test
        base = type(self)._can_advance is CoreValidator._can_advance
        self._idle_stamp = -1 if committee.mode is Mode.ASYNC and base else None

    # -- block intake ----------------------------------------------------------

    def ingest_block(self, block: Block, sender: Optional[NodeId], now: int) -> list[Action]:
        r, digest = block.round, block.digest  # checks read in place: see `replica`
        if r > self._trigger:  # skipped and invalid blocks count too
            self._trigger = r
        dag, parked = self.dag, self.pending.parked
        if r < dag.floor or dag.by_digest.get(digest) is block or (
            parked and parked.get(digest) is block
        ):
            return []
        valid = self.committee.memo.valid.get(r)
        if valid is None or valid.get(digest) != block.auth_tag:
            try:
                validate_block(block, self.committee)
            except ValidationError:
                self.invalid_blocks += 1
                return []
        outcome = dag.insert(block)
        if outcome is INSERTED and not self.pending.awaited:
            return []
        return self._settle(block, outcome, sender, now)

    # bound in this class's own namespace: the benchmark tracer
    # (perfbench/tracing.py) wraps entry points per class
    on_sync_request = Replica.on_sync_request

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        if timer_id == LEADER_TIMER:
            return self.flush(now, trigger_round=-1)
        if timer_id == SYNC_TIMER:
            return self._retry_sync(now)
        return []

    # -- decisions and round advancement -----------------------------------------

    def flush(self, now: int, trigger_round: Optional[int] = None) -> list[Action]:
        """Decision pass plus the round-advance loop; our own block may
        complete a quorum for our own next decision pass. Without a given
        trigger round, the pass takes the highest round delivered since the
        last such flush; an idle asynchronous flush stops there. The floor
        stays below the current round, whose blocks the next proposal reads
        and must still be admitted with their parents; a crashed validator
        proposes no more."""
        if trigger_round is None:
            trigger_round, self._trigger = self._trigger, -1
        if self.dag.quorum_stamp == self._idle_stamp:
            return []
        actions: list[Action] = []
        while True:
            self._decide(now, trigger_round, None if self.crashed else self.current_round - 1)
            step = self._advance_once(now)
            if not step:
                if self._idle_stamp is not None:
                    self._idle_stamp = self.dag.quorum_stamp
                return actions
            actions.extend(step)
            trigger_round = self.current_round

    def _advance_once(self, now: int) -> list[Action]:
        """Enter the next round once the previous one is quorate and its
        leaders are either all present or timed out, draining the whole
        transaction queue into this round's proposal."""
        if not self._can_advance(now):
            return []
        next_round = self.current_round + 1
        txs = tuple(self.pending_transactions)
        self.pending_transactions.clear()
        blocks, actions = self._propose(next_round, txs)
        self._enter_round(next_round, now)
        for block in blocks:
            self.dag.insert(block)
        return actions

    def _propose(self, next_round: int, txs: tuple[bytes, ...]) -> tuple[list[Block], list[Action]]:
        """This round's blocks and the actions that send them. An honest node
        broadcasts one block whose parents take one block from every author
        stored at the previous round (lowest digest when an author
        equivocated)."""
        block = make_block(self.me, next_round, self._build_parents(), txs,
                           self._next_coin_share(next_round))
        return [block], self._with_leader_timer([Broadcast(BlockMsg(block))])

    def _with_leader_timer(self, actions: list[Action]) -> list[Action]:
        if self.committee.mode is Mode.PARTIAL_SYNC:
            actions.append(ArmTimer(LEADER_TIMER, self.leader_timeout))
        return actions

    def _can_advance(self, now: int) -> bool:
        prev = self.current_round
        if self.max_round is not None and prev + 1 > self.max_round:
            return False
        if not self.dag.quorate(prev):
            return False
        if self.committee.mode is Mode.PARTIAL_SYNC:
            if not self._leaders_present(prev) and not self._leader_timer_expired(now):
                return False
        return True

    def _build_parents(self) -> list[BlockRef]:
        view = self.dag.round_view(self.current_round)
        return [view[author].ref for author in sorted(view)]

    def _next_coin_share(self, next_round: int) -> Optional[CoinShare]:
        if self.committee.mode is Mode.ASYNC:
            return CoinShare(self.me, next_round)
        return None

    def _enter_round(self, next_round: int, now: int) -> None:
        assert next_round not in self.round_entry_vtime, "honest nodes propose once per round"
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

    def enqueue_transactions(self, txs: list[bytes]) -> None:
        self.pending_transactions.extend(txs)
