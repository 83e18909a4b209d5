"""Leader-slot decision engine over a block DAG.

Rounds overlap in waves: every round r is the propose round of one wave and
the decision round of another. A leader slot (round, rank) is classified
commit / skip / undecided by tallying decision-round votes:

* direct rule: skip when 4f+1 distinct voters reach no block of the slot at
  all (which also buries silent leaders), else commit the first candidate
  holding a strong certificate of 4f+1 distinct votes;
* indirect rule: inherit through the earliest later non-skip slot (the
  anchor); a committed anchor commits the slot iff it links to a weak
  certificate (2f+1 votes), otherwise skips it.

The delivery order is obtained by linearizing each committed leader's
not-yet-delivered causal history depth-first, leader last.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .dagcore import (
    Block,
    BlockRef,
    CoinShare,
    Committee,
    Dag,
    Mode,
    ValidatorId,
)

WAVE_LENGTH = {Mode.PARTIAL_SYNC: 2, Mode.ASYNC: 3}


class MisalignedRound(ValueError):
    """Round does not sit on a propose-round boundary for the given offset."""


class CoinUnavailable(RuntimeError):
    """Asynchronous leader cannot be determined before shares are combinable."""


class InsufficientShares(ValueError):
    """Fewer than f+1 distinct decision-round coin shares supplied."""


class MissingDecisions(ValueError):
    """Indirect rule invoked without the complete list of later decisions."""


@dataclass(frozen=True)
class WaveCoords:
    """Wave arithmetic parameters: offset within the wave pattern and length."""

    wave_offset: int
    wave_length: int
    leader_offset: int = 0


def wave_coords(r: int, wc: WaveCoords) -> tuple[int, int, int]:
    """(wave number, propose round, decision round) of the wave proposing at r."""
    if r < wc.wave_offset or (r - wc.wave_offset) % wc.wave_length != 0:
        raise MisalignedRound(f"round {r} is not a propose round for offset {wc.wave_offset}")
    wave = (r - wc.wave_offset) // wc.wave_length
    propose = wave * wc.wave_length + wc.wave_offset
    decision = propose + wc.wave_length - 1
    return wave, propose, decision


def propose_round_of(r: int, wave_length: int) -> tuple[int, int, int]:
    """Coordinates of the wave whose propose round is r (offset = r mod length)."""
    return wave_coords(r, WaveCoords(r % wave_length, wave_length))


@dataclass(frozen=True, order=True)
class LeaderSlot:
    round: int
    rank: int

    def short(self) -> str:
        return f"r{self.round}/{self.rank}"


class Verdict(enum.Enum):
    COMMIT = "commit"
    SKIP = "skip"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class SlotDecision:
    slot: LeaderSlot
    verdict: Verdict
    block: Optional[BlockRef] = None

    def trace_line(self) -> str:
        if self.verdict is Verdict.COMMIT:
            return f"{self.slot.short()} commit {self.block.digest.hex()}"
        return f"{self.slot.short()} {self.verdict.value}"


def decisions_to_trace(decisions: Iterable[SlotDecision]) -> str:
    """Decision trace: one 'slot verdict [blockref]' line per slot."""
    return "\n".join(d.trace_line() for d in decisions) + "\n"


@dataclass(frozen=True)
class CoinOutput:
    wave: int
    output: int


class CommonCoin:
    """Deterministic stand-in for a threshold coin.

    The output for a wave is a keyed pseudo-random function of the epoch seed
    and the wave number, so any qualifying subset of shares combines to the
    same value. Shares are per-author tokens checked for presence only;
    unpredictability holds against the simulated adversary, which never
    queries the coin ahead of the protocol.
    """

    def __init__(self, epoch_seed: bytes, committee: Committee):
        self._seed = epoch_seed
        self._committee = committee

    def output_for(self, wave: int) -> int:
        raw = hashlib.blake2b(
            wave.to_bytes(8, "big"), key=self._seed, digest_size=8
        ).digest()
        return int.from_bytes(raw, "big") % self._committee.size

    def combine(self, shares: Iterable[CoinShare], wave: int, decision_round: int) -> CoinOutput:
        """Combine decision-round shares; needs f+1 distinct authors."""
        authors = {
            s.author
            for s in shares
            if s.round == decision_round and self._committee.is_member(s.author)
        }
        if len(authors) < self._committee.f + 1:
            raise InsufficientShares(
                f"{len(authors)} distinct shares, need {self._committee.f + 1}"
            )
        return CoinOutput(wave, self.output_for(wave))


def leader_of(
    slot: LeaderSlot, committee: Committee, coin: Optional[CoinOutput] = None
) -> ValidatorId:
    """Identity of the slot's leader.

    Partial synchrony keys the rotation on the propose round; asynchrony on
    the coin output for the slot's wave.
    """
    if committee.mode is Mode.ASYNC:
        if coin is None:
            raise CoinUnavailable(f"no coin output for slot {slot.short()}")
        s = coin.output
    else:
        s = slot.round
    return committee.members[(s + slot.rank) % committee.size]


def leaders_of_round(
    r: int, committee: Committee, leaders_per_round: int, coin: Optional[CoinOutput] = None
) -> list[ValidatorId]:
    return [
        leader_of(LeaderSlot(r, rank), committee, coin)
        for rank in range(leaders_per_round)
    ]


def get_leader_blocks(
    dag: Dag, slot: LeaderSlot, committee: Committee, coin: Optional[CoinOutput] = None
) -> list[Block]:
    """All stored propose-round blocks by the slot's leader, lowest digest first.

    Several blocks mean the leader equivocated; none means it is silent so far.
    """
    leader = leader_of(slot, committee, coin)
    return dag.blocks_by(leader, slot.round)


def anchored_supports(
    dag: Dag, decision_round: int, leader_block: Block, anchor: BlockRef
) -> int:
    """Distinct authors with a decision-round block inside `anchor`'s causal
    history that votes for `leader_block`.

    The count is a pure function of the anchor (whose full history every
    holder stores), so every node consulting the same anchor reaches the same
    verdict; local knowledge of decision-round equivocations must not leak in
    here, so an author counts if any of its anchor-linked blocks votes.
    """
    leader_digest = leader_block.digest
    supporting_authors = set()
    for digest in dag.ancestors_at_round(anchor, decision_round):
        voter = dag.get_by_digest(digest)
        if voter.author in supporting_authors:
            continue
        voted = dag.voted_block(voter, leader_block.author, leader_block.round)
        if voted == leader_digest:
            supporting_authors.add(voter.author)
    return len(supporting_authors)


def validate_stake_split(total_stake: int, core_stake: int) -> bool:
    """True iff the core layer holds enough stake: ceil(5*(S-1)/6) or more."""
    if total_stake <= 0:
        raise ValueError("total stake must be positive")
    if core_stake < 0 or core_stake > total_stake:
        raise ValueError("core stake must lie in [0, total stake]")
    bound = (5 * (total_stake - 1) + 5) // 6
    return core_stake >= bound


class Committer:
    """Per-node decision state: evaluates slots and extends the commit sequence.

    Decisions are pure functions of the DAG snapshot; this class adds a cache
    of decided slots (a slot never leaves commit/skip once reached) and the
    monotone commit log with its emitted-set for incremental linearization.
    """

    def __init__(
        self,
        dag: Dag,
        committee: Committee,
        leaders_per_round: int = 2,
        coin: Optional[CommonCoin] = None,
    ):
        if not (1 <= leaders_per_round <= committee.size):
            raise ValueError("leaders per round must lie in [1, committee size]")
        self.dag = dag
        self.committee = committee
        self.leaders_per_round = leaders_per_round
        self.wave_length = WAVE_LENGTH[committee.mode]
        self.coin = coin
        if committee.mode is Mode.ASYNC and coin is None:
            raise ValueError("async mode requires a common coin")
        self._decided: dict[LeaderSlot, SlotDecision] = {}
        self._coin_outputs: dict[int, CoinOutput] = {}
        # re-evaluate a slot only when its propose/decision rounds grew or a
        # later slot's verdict changed (the anchor may have moved)
        self._slot_memo: dict[LeaderSlot, tuple[int, int, int]] = {}
        self._decided_version = 0
        # committed prefix state
        self.sequence: list[SlotDecision] = []  # decided prefix, ascending slots
        self.committed_leaders: list[BlockRef] = []
        self.delivery_sequence: list[BlockRef] = []
        self._emitted: set[bytes] = set()
        self._prefix_len = 0  # slots consumed into `sequence`
        self._prefix_rounds_done = 0  # every slot at rounds <= this is decided
        # (slot, verdict, rule, trigger round) history for latency accounting
        self.decision_events: list[tuple[LeaderSlot, Verdict, str, int]] = []

    # -- wave geometry -------------------------------------------------------

    def propose_coords(self, r: int) -> tuple[int, int, int]:
        return propose_round_of(r, self.wave_length)

    def decision_round(self, r: int) -> int:
        return r + self.wave_length - 1

    def _slot_coin(self, slot: LeaderSlot) -> Optional[CoinOutput]:
        """Coin output for the slot's wave, combined from decision-round shares."""
        if self.committee.mode is not Mode.ASYNC:
            return None
        wave, _, decision = self.propose_coords(slot.round)
        out = self._coin_outputs.get(wave)
        if out is None:
            if self.dag.author_count(decision) < self.committee.f + 1:
                raise CoinUnavailable(f"no quorum of shares for wave {wave}")
            shares = [
                b.coin_share
                for b in self.dag.blocks_at_round(decision)
                if b.coin_share is not None
            ]
            out = self.coin.combine(shares, wave, decision)
            self._coin_outputs[wave] = out
        return out

    # -- decision rules ------------------------------------------------------

    def leader_blocks(self, slot: LeaderSlot) -> list[Block]:
        return get_leader_blocks(self.dag, slot, self.committee, self._slot_coin(slot))

    def try_direct_decide(self, slot: LeaderSlot) -> SlotDecision:
        """Direct rule: skip on 4f+1 votes that reach no block of the slot,
        otherwise commit the first strongly certified candidate.

        The skip test runs before the commit test and condemns the slot as a
        whole (including slots whose leader never proposed); a strong blame
        quorum proves no candidate can ever gather a certificate anywhere.
        """
        try:
            coin = self._slot_coin(slot)
        except (CoinUnavailable, InsufficientShares):
            return SlotDecision(slot, Verdict.UNDECIDED)
        leader = leader_of(slot, self.committee, coin)
        decision_round = self.decision_round(slot.round)
        strong = self.committee.strong_quorum
        dag = self.dag
        slot_round = slot.round
        # one pass over the decision round: slot blames plus per-candidate votes
        blames = 0
        supports: dict[bytes, int] = {}
        for blocks in dag.round_view(decision_round).values():
            if len(blocks) > 1:
                continue
            voted = dag.voted_block(blocks[0], leader, slot_round)
            if voted is None:
                blames += 1
            else:
                supports[voted] = supports.get(voted, 0) + 1
        if blames >= strong:
            return SlotDecision(slot, Verdict.SKIP)
        for cand in dag.blocks_by(leader, slot_round):
            if supports.get(cand.digest, 0) >= strong:
                return SlotDecision(slot, Verdict.COMMIT, cand.ref())
        return SlotDecision(slot, Verdict.UNDECIDED)

    def try_indirect_decide(
        self, slot: LeaderSlot, later: Sequence[SlotDecision]
    ) -> SlotDecision:
        """Indirect rule via the anchor: the earliest slot after this wave's
        decision round that is not skipped.

        `later` must hold every slot with a higher round, ascending. An
        undecided anchor leaves the slot undecided; a committed anchor commits
        the first candidate with an anchor-linked weak certificate and skips
        the slot when no candidate has one.
        """
        decision_round = self.decision_round(slot.round)
        anchor_decision: Optional[SlotDecision] = None
        prev: Optional[LeaderSlot] = None
        for d in later:
            if d.slot <= slot or (prev is not None and d.slot <= prev):
                raise MissingDecisions("later decisions must be ascending above the slot")
            prev = d.slot
            if d.slot.round > decision_round and d.verdict is not Verdict.SKIP:
                anchor_decision = d
                break
        if anchor_decision is None or anchor_decision.verdict is Verdict.UNDECIDED:
            return SlotDecision(slot, Verdict.UNDECIDED)
        anchor_ref = anchor_decision.block
        try:
            candidates = self.leader_blocks(slot)
        except (CoinUnavailable, InsufficientShares):
            return SlotDecision(slot, Verdict.UNDECIDED)
        weak = self.committee.weak_quorum
        for cand in candidates:
            if anchored_supports(self.dag, decision_round, cand, anchor_ref) >= weak:
                return SlotDecision(slot, Verdict.COMMIT, cand.ref())
        return SlotDecision(slot, Verdict.SKIP)

    def try_decide(
        self, r_committed: int, r_highest: int, trigger_round: int = -1
    ) -> list[SlotDecision]:
        """Classify every slot in rounds (r_committed, r_highest], ascending.

        Rounds are walked highest-first so each indirect decision sees the
        full list of later verdicts. Slots already decided are reused from the
        cache; a cached verdict is never downgraded.
        """
        if r_committed > r_highest:
            return []
        decisions: list[SlotDecision] = []
        dag = self.dag
        wl = self.wave_length
        strong = self.committee.strong_quorum
        undecided = SlotDecision  # alias for the constructor below
        for r in range(r_highest, r_committed, -1):
            for rank in range(self.leaders_per_round - 1, -1, -1):
                slot = LeaderSlot(r, rank)
                cached = self._decided.get(slot)
                if cached is not None:
                    decisions.insert(0, cached)
                    continue
                decision_round = r + wl - 1
                quorate = dag.author_count(decision_round) >= strong
                if quorate:
                    # direct tallies change with every propose/decision block
                    state = (
                        1,
                        dag.block_count(r),
                        dag.block_count(decision_round),
                        self._decided_version,
                    )
                else:
                    # the direct rule cannot fire below a strong quorum of
                    # voters; only a newly decided later slot (a fresh anchor)
                    # can change the outcome
                    state = (0, self._decided_version)
                if self._slot_memo.get(slot) == state:
                    decisions.insert(0, undecided(slot, Verdict.UNDECIDED))
                    continue
                rule = "direct"
                if quorate:
                    d = self.try_direct_decide(slot)
                else:
                    d = undecided(slot, Verdict.UNDECIDED)
                if d.verdict is Verdict.UNDECIDED:
                    d = self.try_indirect_decide(slot, decisions)
                    rule = "indirect"
                decisions.insert(0, d)
                if d.verdict is not Verdict.UNDECIDED:
                    self._decided[slot] = d
                    self._decided_version += 1
                    self.decision_events.append((slot, d.verdict, rule, trigger_round))
                else:
                    self._slot_memo[slot] = state
        return decisions

    # -- commit sequence -----------------------------------------------------

    def extend(self, trigger_round: int = -1) -> None:
        """Run the decision pass up to the DAG's highest round and extend the
        monotone commit log (`sequence`, `committed_leaders`,
        `delivery_sequence`); all three only ever grow by appending.

        The decision pass restarts at the last fully decided round, so slots
        already consumed into the sequence (a prefix may end mid-round) are
        skipped by their global slot index.
        """
        decisions = self.try_decide(
            self._prefix_rounds_done, self.dag.max_round, trigger_round
        )
        base = self._prefix_rounds_done * self.leaders_per_round
        for i, d in enumerate(decisions):
            if d.verdict is Verdict.UNDECIDED:
                break
            if base + i < self._prefix_len:
                continue
            assert base + i == self._prefix_len, "commit prefix must be gap-free"
            self.sequence.append(d)
            self._prefix_len += 1
            if d.verdict is Verdict.COMMIT:
                self.committed_leaders.append(d.block)
                self.delivery_sequence.extend(linearize_one(self.dag, d.block, self._emitted))
        self._prefix_rounds_done = self._prefix_len // self.leaders_per_round

    def decided_slots(self) -> dict[LeaderSlot, SlotDecision]:
        return dict(self._decided)


def linearize_one(dag: Dag, leader: BlockRef, emitted: set[bytes]) -> list[BlockRef]:
    """Depth-first post-order of `leader`'s not-yet-emitted causal history.

    Parents are visited in their stored order and the leader closes its own
    batch, so repeated calls with a shared `emitted` set give the delivery
    order across successive leaders without duplicates.
    """
    if leader.digest in emitted:
        return []
    out: list[BlockRef] = []
    get = dag.get_by_digest
    # iterative post-order; second stack entry marks "children done"
    stack: list[tuple[Block, bool]] = [(get(leader.digest), False)]
    scheduled = {leader.digest}
    push = stack.append
    while stack:
        block, expanded = stack.pop()
        if expanded:
            emitted.add(block.digest)
            out.append(block.ref())
            continue
        push((block, True))
        for p in reversed(block.parents):
            d = p.digest
            if d not in emitted and d not in scheduled:
                scheduled.add(d)
                push((get(d), False))
    return out
