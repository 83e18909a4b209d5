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

from dataclasses import dataclass, field
from typing import Optional

from .committer import leader_of, LeaderSlot
from .dagcore import Block, BlockRef, Committee, Mode, ValidatorId, make_block
from .guard import (
    BlameSet,
    Guard,
    LIVENESS,
    LivenessProof,
    recover_tag,
    relay_tag,
)
from .messages import (
    Action,
    AgreementRelay,
    ArmTimer,
    BlockMsg,
    Broadcast,
    NodeId,
    RecoverProposal,
    Send,
)
from .simnet import BudgetExceeded
from .validator import LEADER_TIMER, CoreValidator


@dataclass(frozen=True)
class SplitViewSpec:
    """Scripted safety attack: 3f corrupt validators fork one leader slot.

    `attack_round` must have a corrupt slot-0 leader and a corrupt slot-0
    leader two rounds later (the anchor): the leader forks its proposal, the
    corrupt validators fork their votes so one camp sees a strong certificate
    and the other camp's anchor links only the non-voting versions.
    """

    attack_round: int
    corrupt: tuple[ValidatorId, ...]
    camp_a_validators: tuple[ValidatorId, ...]
    camp_b_validators: tuple[ValidatorId, ...]
    camp_a_guards: tuple[int, ...]
    camp_b_guards: tuple[int, ...]


class SplitViewScript:
    """Shared registry of the attack's forked blocks, per variant."""

    def __init__(self, spec: SplitViewSpec):
        self.spec = spec
        self.blocks: dict[tuple[str, ValidatorId, int], Block] = {}

    def register(self, variant: str, block: Block) -> None:
        self.blocks[(variant, block.author, block.round)] = block

    def get(self, variant: str, author: ValidatorId, round_: int) -> Optional[Block]:
        return self.blocks.get((variant, author, round_))


@dataclass
class FaultPlan:
    """Per-validator strategies plus optional guard misbehavior."""

    crash: dict[ValidatorId, int] = field(default_factory=dict)
    equivocate: tuple[ValidatorId, ...] = ()
    withhold: dict[ValidatorId, tuple[ValidatorId, ...]] = field(default_factory=dict)
    splitview: Optional[SplitViewSpec] = None
    byz_guards: dict[int, str] = field(default_factory=dict)  # gid -> policy

    def faulty_validators(self) -> set[ValidatorId]:
        out = set(self.crash) | set(self.equivocate) | set(self.withhold)
        if self.splitview is not None:
            out |= set(self.splitview.corrupt)
        return out

    def check_budget(self, committee: Committee, beyond_f_allowed: bool) -> None:
        faulty = self.faulty_validators()
        unknown = faulty - set(committee.members)
        if unknown:
            raise BudgetExceeded(f"faulty ids {sorted(unknown)} not in committee")
        if not beyond_f_allowed and len(faulty) > committee.f:
            raise BudgetExceeded(
                f"{len(faulty)} corrupt validators exceed the budget f={committee.f}"
            )


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

    def _advance_once(self, now: int) -> list[Action]:
        if not self._can_advance(now):
            return []
        next_round = self.current_round + 1
        parents = self._build_parents()
        txs = tuple(self.pending_transactions)
        self.pending_transactions.clear()
        share = self._next_coin_share(next_round)
        one = make_block(self.me, next_round, parents, txs + (b"variant/a",), share)
        two = make_block(self.me, next_round, parents, txs + (b"variant/b",), share)
        self._enter_round(next_round, now)
        self.dag.insert(one)
        self.dag.insert(two)
        actions: list[Action] = [Send(to, BlockMsg(one)) for to in self.camp_a]
        actions.extend(Send(to, BlockMsg(two)) for to in self.camp_b)
        if self.committee.mode is Mode.PARTIAL_SYNC:
            actions.append(ArmTimer(LEADER_TIMER, self.leader_timeout))
        return actions


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
        return [self.dag.first_block_by(a, prev).ref() for a in kept]


class SplitViewValidator(CoreValidator):
    """One corrupt participant of the scripted view-split attack."""

    def __init__(
        self,
        *args,
        script: SplitViewScript,
        camp_a_nodes: tuple[NodeId, ...],
        camp_b_nodes: tuple[NodeId, ...],
        corrupt_nodes: tuple[NodeId, ...],
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.script = script
        self.camp_a_nodes = camp_a_nodes
        self.camp_b_nodes = camp_b_nodes
        self.corrupt_nodes = corrupt_nodes

    def _advance_once(self, now: int) -> list[Action]:
        spec = self.script.spec
        next_round = self.current_round + 1
        if next_round == spec.attack_round and self._is_slot_leader(next_round):
            return self._fork_proposal(next_round, now, b"fork")
        if next_round == spec.attack_round + 1:
            return self._fork_votes(next_round, now)
        if next_round == spec.attack_round + 2 and self._is_slot_leader(next_round):
            return self._anchor_proposal(next_round, now)
        return super()._advance_once(now)

    def _is_slot_leader(self, r: int) -> bool:
        return leader_of(LeaderSlot(r, 0), self.committee) == self.me

    def _split_send(self, one: Block, two: Block) -> list[Action]:
        actions: list[Action] = [
            Send(to, BlockMsg(one)) for to in self.camp_a_nodes
        ]
        actions.extend(Send(to, BlockMsg(two)) for to in self.camp_b_nodes)
        for peer in self.corrupt_nodes:
            if peer != f"v{self.me}":
                actions.append(Send(peer, BlockMsg(one)))
                actions.append(Send(peer, BlockMsg(two)))
        return actions

    def _fork_proposal(self, next_round: int, now: int, marker: bytes) -> list[Action]:
        if not self._can_advance(now):
            return []
        parents = self._build_parents()
        txs = tuple(self.pending_transactions)
        self.pending_transactions.clear()
        one = make_block(self.me, next_round, parents, txs + (marker + b"/a",))
        two = make_block(self.me, next_round, parents, txs + (marker + b"/b",))
        self.script.register("A", one)
        self.script.register("B", two)
        self._enter_round(next_round, now)
        self.dag.insert(one)
        self.dag.insert(two)
        return self._split_send(one, two)

    def _fork_votes(self, next_round: int, now: int) -> list[Action]:
        if not self._can_advance(now):
            return []
        spec = self.script.spec
        leader = leader_of(LeaderSlot(spec.attack_round, 0), self.committee)
        variant_a = self.script.get("A", leader, spec.attack_round)
        variant_b = self.script.get("B", leader, spec.attack_round)
        if variant_a is None or variant_b is None:
            return super()._advance_once(now)
        prev = self.current_round
        base = {
            a: self.dag.first_block_by(a, prev).ref()
            for a in sorted(self.dag.authors_at_round(prev))
        }
        parents_a = dict(base)
        parents_a[leader] = variant_a.ref()
        parents_b = dict(base)
        parents_b[leader] = variant_b.ref()
        txs = tuple(self.pending_transactions)
        self.pending_transactions.clear()
        one = make_block(self.me, next_round, [parents_a[a] for a in sorted(parents_a)], txs + (b"vote/a",))
        two = make_block(self.me, next_round, [parents_b[a] for a in sorted(parents_b)], txs + (b"vote/b",))
        self.script.register("A", one)
        self.script.register("B", two)
        self._enter_round(next_round, now)
        self.dag.insert(one)
        self.dag.insert(two)
        return self._split_send(one, two)

    def _anchor_proposal(self, next_round: int, now: int) -> list[Action]:
        if not self._can_advance(now):
            return []
        spec = self.script.spec
        prev = self.current_round
        parents: dict[ValidatorId, BlockRef] = {}
        for a in sorted(self.dag.authors_at_round(prev)):
            scripted = self.script.get("B", a, prev)
            if scripted is not None and a in spec.corrupt:
                parents[a] = scripted.ref()
            else:
                parents[a] = self.dag.first_block_by(a, prev).ref()
        txs = tuple(self.pending_transactions)
        self.pending_transactions.clear()
        block = make_block(self.me, next_round, [parents[a] for a in sorted(parents)], txs)
        self._enter_round(next_round, now)
        self.dag.insert(block)
        return [Broadcast(BlockMsg(block))]


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
        text = bogus.to_text()
        proposal = RecoverProposal(self.me, text, None, recover_tag(self.me, text, None))
        self.recovery_input = bogus
        relay = AgreementRelay(
            self.me, proposal, (self.me,), (relay_tag(self.me, self.me, proposal),)
        )
        return [Broadcast(relay)]
