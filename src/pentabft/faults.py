"""Byzantine behavior strategies for simulation runs.

Each faulty node is a subclass of the honest state machine overriding a
narrow hook: crash stops proposing at a round, equivocation doubles every
proposal toward two recipient camps, vote withholding prunes parent
references, and the view-split attack scripts a coordinated leader/vote
equivocation that drives one partition to a direct commit and the other to
an indirect skip of the same slot. Byzantine guards either stay silent or
feed a bogus proposal into the recovery agreement.

Strategies never fabricate another node's authentication tags; the
capability boundary of the simulated adversary is structural.
"""

from __future__ import annotations

from .committer import leader_of, LeaderSlot
from .dagcore import Block, BlockRef, ValidatorId, make_block
from .guard import BlameSet, Guard, LIVENESS, LivenessProof
from .messages import (
    Action,
    BlockMsg,
    Broadcast,
    NodeId,
    Send,
    guard_node,
    validator_node,
)
from .scenarios import ScenarioConfig
from .validator import CoreValidator


class SplitViewScript:
    """Scripted safety attack: 3f corrupt validators fork one leader slot.

    The attacked round has a corrupt slot-0 leader and so has the round two
    later (the anchor): the leader forks its proposal, the corrupt
    validators fork their votes so one camp sees a strong certificate, and
    the other camp's anchor links only the non-voting versions. Each camp
    is half of the honest validators and half of the guards, as node ids.
    `forks` holds the two versions of each block the attack forks, by
    (author, round), for the corrupt validators to read.
    """

    def __init__(self, config: ScenarioConfig):
        self.attack_round = config.splitview_round
        self.corrupt = config.splitview_corrupt()
        honest = [v for v in range(config.n) if v not in self.corrupt]
        half = (len(honest) + 1) // 2
        g_half = (config.guards + 1) // 2
        self.camp_a = tuple(
            [validator_node(v) for v in honest[:half]] + [guard_node(g) for g in range(g_half)]
        )
        self.camp_b = tuple(
            [validator_node(v) for v in honest[half:]]
            + [guard_node(g) for g in range(g_half, config.guards)]
        )
        self.forks: dict[tuple[ValidatorId, int], tuple[Block, Block]] = {}


class CrashValidator(CoreValidator):
    """Stops emitting anything from its crash round onward."""

    def __init__(self, *args, crash_round: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.crash_round = crash_round

    def _can_advance(self, now: int) -> bool:
        if self.current_round + 1 >= self.crash_round:
            self.crashed = True
            return False
        return super()._can_advance(now)


class EquivocatingValidator(CoreValidator):
    """Proposes two payload-divergent blocks per round, one per recipient camp."""

    def __init__(self, *args, camp_a: tuple[NodeId, ...], camp_b: tuple[NodeId, ...], **kwargs):
        super().__init__(*args, **kwargs)
        self.camp_a = camp_a
        self.camp_b = camp_b

    def _propose(self, next_round: int, txs: tuple[bytes, ...]) -> tuple[list[Block], list[Action]]:
        parents = self._build_parents()
        share = self._next_coin_share(next_round)
        one = make_block(self.me, next_round, parents, txs + (b"variant/a",), share)
        two = make_block(self.me, next_round, parents, txs + (b"variant/b",), share)
        actions: list[Action] = [Send(to, BlockMsg(one)) for to in self.camp_a]
        actions.extend(Send(to, BlockMsg(two)) for to in self.camp_b)
        return [one, two], self._with_leader_timer(actions)


class WithholdVotesValidator(CoreValidator):
    """Omits parent references to target validators whenever quorum allows."""

    def __init__(self, *args, targets: tuple[ValidatorId, ...], **kwargs):
        super().__init__(*args, **kwargs)
        self.targets = frozenset(targets)

    def _build_parents(self) -> list[BlockRef]:
        prev = self.current_round
        authors = sorted(self.dag.authors_at_round(prev))
        kept = [a for a in authors if a not in self.targets]
        if len(kept) < self.committee.strong_quorum:
            kept = authors
        return [self.dag.first_block_by(a, prev).ref for a in kept]


class SplitViewValidator(CoreValidator):
    """One corrupt participant of the scripted view-split attack. Its three
    scripted rounds arm no leader timer."""

    def __init__(self, *args, script: SplitViewScript, **kwargs):
        super().__init__(*args, **kwargs)
        self.script = script

    def _propose(self, next_round: int, txs: tuple[bytes, ...]) -> tuple[list[Block], list[Action]]:
        script = self.script
        r = script.attack_round
        if next_round == r and self._is_slot_leader(r):
            return self._fork(next_round, txs, b"fork", {}, {})
        if next_round == r + 1:
            leader = leader_of(LeaderSlot(r, 0), self.committee)
            forked = script.forks.get((leader, r))
            if forked is not None:
                return self._fork(next_round, txs, b"vote", {leader: forked[0]}, {leader: forked[1]})
        if next_round == r + 2 and self._is_slot_leader(next_round):
            # the anchor links the corrupt voters' non-voting versions
            picks = {
                a: script.forks[(a, r + 1)][1]
                for a in self.dag.authors_at_round(r + 1)
                if (a, r + 1) in script.forks
            }
            block = make_block(self.me, next_round, self._parents(picks), txs)
            return [block], [Broadcast(BlockMsg(block))]
        return super()._propose(next_round, txs)

    def _is_slot_leader(self, r: int) -> bool:
        return leader_of(LeaderSlot(r, 0), self.committee) == self.me

    def _parents(self, picks: dict[ValidatorId, Block]) -> list[BlockRef]:
        """The honest parent set, with `picks` standing in for its authors."""
        chosen = {**self.dag.round_view(self.current_round), **picks}
        return [chosen[a].ref for a in sorted(chosen)]

    def _fork(self, next_round, txs, marker: bytes, picks_a, picks_b) -> tuple[list[Block], list[Action]]:
        """Two versions of this node's block, variant A to camp A and B to
        camp B; every corrupt peer gets both."""
        one = make_block(self.me, next_round, self._parents(picks_a), txs + (marker + b"/a",))
        two = make_block(self.me, next_round, self._parents(picks_b), txs + (marker + b"/b",))
        script = self.script
        script.forks[(self.me, next_round)] = (one, two)
        actions: list[Action] = [Send(to, BlockMsg(one)) for to in script.camp_a]
        actions.extend(Send(to, BlockMsg(two)) for to in script.camp_b)
        for peer in script.corrupt:
            if peer != self.me:
                actions.append(Send(validator_node(peer), BlockMsg(one)))
                actions.append(Send(validator_node(peer), BlockMsg(two)))
        return [one, two], actions


class SilentGuard(Guard):
    """Drops every outbound action; receives normally."""

    is_silent = True


class BogusProposalGuard(Guard):
    """Feeds an invalid recovery proposal into the agreement session."""

    def _on_grace_timer(self, r: int, now: int) -> list[Action]:
        blamed = self.lblamed.get(r, set())
        if len(blamed) < self.committee.f + 1 or self.recovery_input is not None:
            return []
        bogus = BlameSet(
            LIVENESS,
            frozenset(list(self.committee.members)[: self.committee.f + 1]),
            LivenessProof(r, {}),
        )
        self.recovery_input = bogus
        return [Broadcast(self._signed_relay(bogus.to_text(), None))]
