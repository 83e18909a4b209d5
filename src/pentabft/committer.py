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

A slot can get a verdict only once its decision round holds a strong quorum
of 4f+1 authors: below it no direct tally reaches 4f+1, and no block, so no
anchor, is stored above the round. A decision pass therefore opens only when
a quorate round has grown, and evaluates only the open slots whose quorate
decision round grew since the last pass or that lie below a slot decided
earlier in the pass. The delivery order is obtained by linearizing each
committed leader's not-yet-delivered causal history depth-first, leader last,
down to PRUNE_DEPTH rounds below the leader. That batch depends only on the
committed-leader prefix, so the committee's delivery log records it once and
every node that commits the same prefix reuses it; the first one builds the
digests it must not deliver again from the prefix's batches whose leader is
at most PRUNE_DEPTH rounds below the new one.

No later decision or linearization reads a round more than PRUNE_DEPTH
below the committed prefix, so a pass that extends the prefix raises the
DAG's floor to there (Bullshark, arXiv 2201.05677, collects the DAG a fixed
depth below the last committed leader the same way).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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
# rounds of history kept below the committed prefix, and linearized below a
# leader; every golden record holds at each depth tried from 4 to 30, and
# 8 leaves a margin
PRUNE_DEPTH = 8


class PrefixNode:
    """One committed-leader prefix in a committee's delivery log: the batch
    its last leader delivered, and the prefixes one leader longer."""

    __slots__ = ("parent", "batch", "next")

    def __init__(self, parent: Optional["PrefixNode"], batch: list[BlockRef]):
        self.parent = parent
        self.batch = batch
        self.next: dict[bytes, PrefixNode] = {}  # leader digest -> longer prefix

    def batches(self) -> Iterator[list[BlockRef]]:
        """The non-empty batches along this prefix's path, newest first; each
        ends with its leader, and leader rounds never rise going back."""
        node: Optional[PrefixNode] = self
        while node is not None:
            if node.batch:
                yield node.batch
            node = node.parent


class CoinUnavailable(RuntimeError):
    """Asynchronous leader cannot be determined before shares are combinable."""


class InsufficientShares(ValueError):
    """Fewer than f+1 distinct decision-round coin shares supplied."""


class MissingDecisions(ValueError):
    """Indirect rule invoked without the complete list of later decisions."""


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

    def combine(self, shares: Iterable[CoinShare], wave: int, decision_round: int) -> int:
        """Combine decision-round shares into the wave's output; needs f+1
        distinct authors."""
        authors = {
            s.author
            for s in shares
            if s.round == decision_round and self._committee.is_member(s.author)
        }
        if len(authors) < self._committee.f + 1:
            raise InsufficientShares(
                f"{len(authors)} distinct shares, need {self._committee.f + 1}"
            )
        return self.output_for(wave)


def leader_of(
    slot: LeaderSlot, committee: Committee, coin: Optional[int] = None
) -> ValidatorId:
    """Identity of the slot's leader.

    Partial synchrony keys the rotation on the propose round; asynchrony on
    the coin output for the slot's wave.
    """
    if committee.mode is Mode.ASYNC:
        if coin is None:
            raise CoinUnavailable(f"no coin output for slot {slot.short()}")
        s = coin
    else:
        s = slot.round
    return committee.members[(s + slot.rank) % committee.size]


def leaders_of_round(r: int, committee: Committee, leaders_per_round: int) -> list[ValidatorId]:
    """The leaders of round r's slots, by rank, under partial synchrony's
    round-keyed rotation (`leader_of` without a coin)."""
    members = committee.members
    n = len(members)
    return [members[(r + rank) % n] for rank in range(leaders_per_round)]


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

    Decisions are pure functions of the DAG snapshot; this class adds a store
    of decided slots (a slot never leaves commit/skip once reached), which
    holds the committee memo's one object per verdict, the
    DAG's count of stored blocks at the last decision pass, against which
    the DAG's quorum stamps tell which decision rounds grew since, and the
    monotone commit log with its place in the committee's delivery log.
    `decided` keys slots by their global index
    `(round - 1) * leaders_per_round + rank`; each `decision_events` entry
    holds the same verdict object. Under asynchrony each wave's coin output
    is combined once and kept.
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
        self.decided: dict[int, SlotDecision] = {}  # slot index -> verdict
        self._coin_outputs: dict[int, int] = {}  # wave -> coin output
        self._seen_blocks = 0  # dag.stored at the last pass that walked the slots
        self._verdicts = committee.memo.verdicts
        self._slots = committee.memo.slots
        # committed prefix state
        self.sequence: list[SlotDecision] = []  # decided prefix, ascending slots
        if committee.memo.delivery is None:
            committee.memo.delivery = PrefixNode(None, [])  # nothing committed
        self._prefix = committee.memo.delivery  # log node of the committed leaders
        # (verdict, rule, trigger round, vtime) history for latency accounting
        self.decision_events: list[tuple[SlotDecision, str, int, int]] = []

    # -- wave geometry -------------------------------------------------------

    def decision_round(self, r: int) -> int:
        return r + self.wave_length - 1

    def _slot_leader(self, slot: LeaderSlot) -> Optional[ValidatorId]:
        """The slot's leader. Under asynchrony it is None until the wave's
        coin combines from the decision round's shares; the output is then
        kept per wave."""
        if self.committee.mode is not Mode.ASYNC:
            return leader_of(slot, self.committee)
        wave = slot.round // self.wave_length
        out = self._coin_outputs.get(wave)
        if out is None:
            decision = self.decision_round(slot.round)
            shares = [
                b.coin_share
                for b in self.dag.blocks_at_round(decision)
                if b.coin_share is not None
            ]
            try:
                out = self.coin.combine(shares, wave, decision)
            except InsufficientShares:
                return None
            self._coin_outputs[wave] = out
        return leader_of(slot, self.committee, out)

    # -- decision rules ------------------------------------------------------

    def try_direct_decide(self, slot: LeaderSlot) -> SlotDecision:
        """Direct rule: skip on 4f+1 votes that reach no block of the slot,
        otherwise commit the first strongly certified candidate.

        The skip test runs before the commit test and condemns the slot as a
        whole (including slots whose leader never proposed); a strong blame
        quorum proves no candidate can ever gather a certificate anywhere.
        """
        leader = self._slot_leader(slot)
        if leader is None:
            return SlotDecision(slot, Verdict.UNDECIDED)
        decision_round = self.decision_round(slot.round)
        strong = self.committee.strong_quorum
        dag = self.dag
        # one read of the decision round: each unforked voter's vote, None
        # for a blame of the slot
        votes = dag.round_votes(decision_round, leader, slot.round)
        if votes.count(None) >= strong:
            return self._reached(slot, None)
        for cand in dag.blocks_by(leader, slot.round):
            if votes.count(cand.digest) >= strong:
                return self._reached(slot, cand)
        return SlotDecision(slot, Verdict.UNDECIDED)

    def try_indirect_decide(
        self, slot: LeaderSlot, later: Iterable[SlotDecision]
    ) -> SlotDecision:
        """Indirect rule via the anchor: the earliest slot after this wave's
        decision round that is not skipped.

        `later` must yield the verdicts of the slots with a higher round,
        ascending, without a gap up to the anchor. An undecided anchor leaves
        the slot undecided; a committed anchor commits the first candidate
        with an anchor-linked weak certificate and skips the slot when no
        candidate has one.
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
        leader = self._slot_leader(slot)
        if leader is None:
            return SlotDecision(slot, Verdict.UNDECIDED)
        weak = self.committee.weak_quorum
        for cand in self.dag.blocks_by(leader, slot.round):
            if anchored_supports(self.dag, decision_round, cand, anchor_ref) >= weak:
                return self._reached(slot, cand)
        return self._reached(slot, None)

    def _reached(self, slot: LeaderSlot, committed: Optional[Block]) -> SlotDecision:
        """The committee's one verdict object for committing `committed` in
        `slot`, or for skipping the slot if it is None: read from the memo,
        and built only by the committee's first node to reach it."""
        verdicts = self._verdicts.get(slot.round)
        if verdicts is None:
            verdicts = self._verdicts[slot.round] = {}
        key = (slot.rank, None if committed is None else committed.digest)
        d = verdicts.get(key)
        if d is None:
            d = verdicts[key] = (
                SlotDecision(slot, Verdict.SKIP) if committed is None
                else SlotDecision(slot, Verdict.COMMIT, committed.ref)
            )
        return d

    # -- decision pass and commit sequence -----------------------------------

    def _later(self, decision_round: int) -> Iterator[SlotDecision]:
        """Verdicts of the slots above `decision_round`, ascending, up to and
        including the first one that is not a skip (the anchor); an undecided
        anchor is yielded as a fresh undecided decision."""
        l = self.leaders_per_round
        decided = self.decided
        for idx in range(decision_round * l, self.dag.max_round * l):
            d = decided.get(idx)
            if d is None:
                yield SlotDecision(LeaderSlot(idx // l + 1, idx % l), Verdict.UNDECIDED)
                return
            yield d
            if d.verdict is not Verdict.SKIP:
                return

    def extend(self, trigger_round: int = -1, keep: Optional[int] = None, now: int = 0) -> None:
        """Decide what the DAG's growth since the last pass can decide, then
        extend the monotone commit log (`sequence`, `delivery_sequence`);
        both only ever grow by appending. A pass that extends the prefix
        raises the DAG's floor to PRUNE_DEPTH rounds below it, but not above
        `keep`, where the caller's own reads need it. Each verdict's
        `decision_events` entry carries `trigger_round` and `now`, the
        virtual time it formed at.

        The pass returns at once unless a quorate round grew since the last
        one. Undecided slots above the committed prefix are walked
        highest-first, so each indirect decision sees every later verdict.
        A slot is evaluated only if its decision round is quorate and grew
        since the last pass, or once a slot above it is decided in this
        pass. Each evaluation left out would leave the slot undecided: a
        block stored at the propose round after the decision round's blocks
        has no vote among them, and every verdict of an earlier pass was
        followed in that pass by an evaluation of each open slot below it.
        """
        dag = self.dag
        since = self._seen_blocks
        if dag.quorum_stamp <= since:
            return
        self._seen_blocks = dag.stored
        stamps = dag.quorum_stamps
        decided = self.decided
        sequence = self.sequence
        done = len(sequence)  # slots in the committed prefix
        l = self.leaders_per_round
        wl = self.wave_length
        for r in range(dag.max_round, done // l, -1):
            dr = r + wl - 1
            # a round has a stamp once quorate, and it moves when the round grows
            if stamps.get(dr, 0) <= since:
                continue
            base = (r - 1) * l
            slots = self._slots.setdefault(r, {})
            for rank in range(l - 1, -1, -1):
                idx = base + rank
                if idx in decided:
                    continue
                slot = slots.get(rank)
                if slot is None:
                    slot = slots[rank] = LeaderSlot(r, rank)
                rule = "direct"
                d = self.try_direct_decide(slot)
                if d.verdict is Verdict.UNDECIDED:
                    d = self.try_indirect_decide(slot, self._later(dr))
                    rule = "indirect"
                if d.verdict is Verdict.UNDECIDED:
                    continue
                decided[idx] = d
                since = 0  # a new anchor: every quorate slot below is evaluated
                self.decision_events.append((d, rule, trigger_round, now))
        n = done
        while n in decided:
            d = decided[n]
            assert (d.slot.round - 1) * l + d.slot.rank == n, (
                "commit prefix must be gap-free"
            )
            sequence.append(d)
            n += 1
            if d.verdict is Verdict.COMMIT:
                self._deliver(d.block)
        if n != done:
            floor = sequence[-1].slot.round - PRUNE_DEPTH
            dag.prune(floor if keep is None else min(floor, keep))

    def _deliver(self, leader: BlockRef) -> None:
        """Move to the prefix one leader longer: take the batch `leader`
        delivers after the committed prefix from the committee's delivery
        log, or linearize and record it there if no node has committed
        `leader` after this prefix yet.

        Linearizing `leader` reads no digest more than PRUNE_DEPTH rounds
        below it, and leader rounds never rise going back along a path, so
        its window of delivered digests is the batches along the prefix's
        path back to the first one whose leader is below that bound.
        """
        prefix = self._prefix
        node = prefix.next.get(leader.digest)
        if node is None:
            lowest = leader.round - PRUNE_DEPTH
            emitted: set[bytes] = set()
            for batch in prefix.batches():
                if batch[-1].round < lowest:
                    break
                emitted.update(ref.digest for ref in batch)
            node = PrefixNode(prefix, linearize_one(self.dag, leader, emitted))
            prefix.next[leader.digest] = node
        self._prefix = node

    @property
    def delivery_sequence(self) -> list[BlockRef]:
        """Blocks delivered so far, in order: the batches along this node's
        path in the delivery log, read afresh on every access."""
        batches = list(self._prefix.batches())
        return [ref for batch in reversed(batches) for ref in batch]

    def sequenced(self, slot: LeaderSlot) -> Optional[SlotDecision]:
        """The verdict of `slot` if it is in the gap-free committed prefix."""
        l = self.leaders_per_round
        idx = (slot.round - 1) * l + slot.rank
        if 0 <= slot.rank < l and 0 <= idx < len(self.sequence):
            return self.sequence[idx]
        return None

    def decided_slots(self) -> dict[LeaderSlot, SlotDecision]:
        return {d.slot: d for d in self.decided.values()}


def linearize_one(dag: Dag, leader: BlockRef, emitted: set[bytes]) -> list[BlockRef]:
    """Depth-first post-order of `leader`'s not-yet-emitted causal history
    down to PRUNE_DEPTH rounds below the leader.

    Parents are visited in their stored order and the leader closes its own
    batch, so repeated calls with a shared `emitted` set give the delivery
    order across successive leaders without duplicates. The depth bound
    makes the batch independent of how far a node has pruned.
    """
    if leader.digest in emitted:
        return []
    lowest = leader.round - PRUNE_DEPTH
    out: list[BlockRef] = []
    get = dag.get_by_digest
    # iterative post-order; second stack entry marks "children done". A block
    # joins `emitted` when scheduled: every scheduled block is emitted by the
    # end of this call, so one set guards against scheduling it twice.
    stack: list[tuple[Block, bool]] = [(get(leader.digest), False)]
    emitted.add(leader.digest)
    push = stack.append
    while stack:
        block, expanded = stack.pop()
        if expanded:
            out.append(block.ref)
            continue
        push((block, True))
        if block.round <= lowest:
            continue
        for d in reversed(block.parent_digests):
            if d not in emitted:
                emitted.add(d)
                push((get(d), False))
    return out
