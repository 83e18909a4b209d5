"""Reference implementations the tests check the production code against.

These are the plain, one-rule-at-a-time forms of what `Committer` and `Dag`
compute in fused or incremental form: the unanchored vote tally and the slot
blame count behind the direct rule, explicit-list linearization and commit
extension, parent-path reachability between two blocks, and the lowest
equivocating pair of one author at one round.
"""

from typing import Optional, Sequence

from pentabft.committer import (
    CommitOutput,
    LeaderSlot,
    SlotDecision,
    Verdict,
    leader_of,
    linearize_one,
)
from pentabft.dagcore import Block, BlockRef, Committee, Dag, UnknownBlockError, ValidatorId


def tally_votes(dag: Dag, decision_round: int, leader_block: Block) -> tuple[int, int]:
    """(supports, non_supports) for `leader_block` over decision-round blocks.

    Supports are votes for this specific block. Non-supports count voters
    whose traversal finds NO block of the leader's slot at all: a voter that
    reached a different block of an equivocating leader condemns neither
    candidate, otherwise one honest node could skip a slot that another
    honest node commits through the surviving candidate. At most one block
    per author counts, and authors that equivocated in the decision round are
    counted on neither side, otherwise the double vote would break the
    quorum-intersection arithmetic.
    """
    supports = 0
    non_supports = 0
    for blocks in dag.round_view(decision_round).values():
        if len(blocks) > 1:
            continue
        voted = dag.voted_block(blocks[0], leader_block.author, leader_block.round)
        if voted == leader_block.digest:
            supports += 1
        elif voted is None:
            non_supports += 1
    return supports, non_supports


def slot_blames(dag: Dag, decision_round: int, leader: ValidatorId, slot_round: int) -> int:
    """Distinct decision-round authors whose traversal finds no block of the
    slot's leader; counting is per slot, so it also condemns empty slots."""
    blames = 0
    for blocks in dag.round_view(decision_round).values():
        if len(blocks) > 1:
            continue
        if dag.voted_block(blocks[0], leader, slot_round) is None:
            blames += 1
    return blames


def direct_decide(dag: Dag, slot: LeaderSlot, committee: Committee, wave_length: int) -> SlotDecision:
    """The direct rule from the two tallies above: skip on a strong quorum of
    slot blames, else commit the first candidate with strong support."""
    leader = leader_of(slot, committee)
    decision_round = slot.round + wave_length - 1
    if slot_blames(dag, decision_round, leader, slot.round) >= committee.strong_quorum:
        return SlotDecision(slot, Verdict.SKIP)
    for cand in dag.blocks_by(leader, slot.round):
        if tally_votes(dag, decision_round, cand)[0] >= committee.strong_quorum:
            return SlotDecision(slot, Verdict.COMMIT, cand.ref())
    return SlotDecision(slot, Verdict.UNDECIDED)


def linearize_sub_dags(
    leaders: Sequence[BlockRef], dag: Dag, emitted: Optional[set[bytes]] = None
) -> list[BlockRef]:
    """Delivery sequence for `leaders` in order; each block appears once."""
    emitted = set() if emitted is None else emitted
    out: list[BlockRef] = []
    for leader in leaders:
        out.extend(linearize_one(dag, leader, emitted))
    return out


def extend_commit_sequence(dag: Dag, decisions: Sequence[SlotDecision]) -> CommitOutput:
    """Collect committed leaders up to the first undecided slot and linearize.

    Counterpart of `Committer.extend` for an explicit decision list in
    ascending slot order.
    """
    leaders: list[BlockRef] = []
    for d in decisions:
        if d.verdict is Verdict.UNDECIDED:
            break
        if d.verdict is Verdict.COMMIT:
            leaders.append(d.block)
    return CommitOutput(leaders, linearize_sub_dags(leaders, dag))


def link(dag: Dag, old: BlockRef, new: BlockRef) -> bool:
    """True iff a parent-edge path leads from `new` back to `old`."""
    for ref in (old, new):
        if not dag.contains_digest(ref.digest):
            raise UnknownBlockError(ref.short())
    if old.round > new.round:
        return False
    if old.digest == new.digest:
        return True
    stack = [dag.get_by_digest(new.digest)]
    seen: set[bytes] = set()
    while stack:
        blk = stack.pop()
        for p in blk.parents:
            if p.digest == old.digest:
                return True
            if p.round > old.round and p.digest not in seen:
                seen.add(p.digest)
                stack.append(dag.get_by_digest(p.digest))
    return False


def equivocation_of(dag: Dag, author: ValidatorId, r: int) -> Optional[tuple[Block, Block]]:
    """The two lowest-digest conflicting blocks by (author, r), if any."""
    blocks = dag.blocks_by(author, r)
    return (blocks[0], blocks[1]) if len(blocks) >= 2 else None

