"""Reference implementations the tests check the production code against.

These are the plain, one-rule-at-a-time forms of what `Committer` and `Dag`
compute in fused or incremental form: the unanchored vote tally and the slot
blame count behind the direct rule, the memo-free decision walk over every
slot, the post-order linearization of one leader's history with separate
scheduled and emitted sets, explicit-list linearization and commit
extension, the vote relation between two blocks, parent-path reachability
between two blocks, the lowest equivocating pair of one author at one
round, and a DAG insert's outcome with its parents tested one at a time.
The decision trace, DAG dump and scenario file formats live here
too, and so does a run that keeps every node's whole DAG history for the
tests that read it, and the event log of a simulator or a run record split
back into its lines.
"""

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from pentabft.committer import (
    Committer,
    CommonCoin,
    LeaderSlot,
    SlotDecision,
    Verdict,
    leader_of,
    linearize_one,
)
from pentabft.dagcore import (
    Block,
    BlockRef,
    Committee,
    Dag,
    InsertStatus,
    UnknownBlockError,
    ValidatorId,
    stored_history,
    unpruned,
)
from pentabft.runner import RunResult, run
from pentabft.scenarios import ScenarioConfig


def run_with_history(config, seed: int) -> tuple[RunResult, Callable[[object], Dag]]:
    """`run(config, seed)` plus `history(node)`: a DAG holding every block
    the node stored during the run. The node's own DAG has dropped the
    rounds below its floor."""
    with stored_history() as log:
        result = run(config, seed)

    def history(node) -> Dag:
        return unpruned(node.committee, log[node.dag])

    return result, history


def event_lines(log) -> list[str]:
    """The event-log lines of a `Simulator` or a `RunRecord`, in the order
    they were written: the blocks split at each newline, then a simulator's
    tail of lines not yet joined."""
    lines = [line for block in log.event_blocks for line in block.split("\n")]
    lines.extend(getattr(log, "event_tail", ()))
    return lines


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
    for author in dag.authors_at_round(decision_round):
        versions = dag.blocks_by(author, decision_round)
        if len(versions) > 1:
            continue
        voted = dag.voted_block(versions[0], leader_block.author, leader_block.round)
        if voted == leader_block.digest:
            supports += 1
        elif voted is None:
            non_supports += 1
    return supports, non_supports


def slot_blames(dag: Dag, decision_round: int, leader: ValidatorId, slot_round: int) -> int:
    """Distinct decision-round authors whose traversal finds no block of the
    slot's leader; counting is per slot, so it also condemns empty slots."""
    blames = 0
    for author in dag.authors_at_round(decision_round):
        versions = dag.blocks_by(author, decision_round)
        if len(versions) > 1:
            continue
        if dag.voted_block(versions[0], leader, slot_round) is None:
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
            return SlotDecision(slot, Verdict.COMMIT, cand.ref)
    return SlotDecision(slot, Verdict.UNDECIDED)


def decide_all(
    dag: Dag, committee: Committee, leaders_per_round: int, coin: Optional[CommonCoin] = None
) -> list[SlotDecision]:
    """Every slot of rounds 1..dag.max_round, ascending, classified from
    scratch: rounds are walked highest-first and each slot tries the direct
    rule, then the indirect rule against the full list of later verdicts."""
    rules = Committer(dag, committee, leaders_per_round, coin)
    decisions: list[SlotDecision] = []
    for r in range(dag.max_round, 0, -1):
        for rank in range(leaders_per_round - 1, -1, -1):
            slot = LeaderSlot(r, rank)
            d = rules.try_direct_decide(slot)
            if d.verdict is Verdict.UNDECIDED:
                d = rules.try_indirect_decide(slot, decisions)
            decisions.insert(0, d)
    return decisions


def trace_line(d: SlotDecision) -> str:
    if d.verdict is Verdict.COMMIT:
        return f"{d.slot.short()} commit {d.block.digest.hex()}"
    return f"{d.slot.short()} {d.verdict.value}"


def decisions_to_trace(decisions: Iterable[SlotDecision]) -> str:
    """Decision trace: one 'slot verdict [blockref]' line per slot."""
    return "\n".join(trace_line(d) for d in decisions) + "\n"


def config_text(cfg: ScenarioConfig) -> str:
    """A scenario file: the `key=value` text `ScenarioConfig.from_text` reads."""
    lines = [f"name={cfg.name}"]
    for key in (
        "n", "f", "protocol_mode", "network", "delta", "gst", "async_base",
        "async_cap", "leaders_per_round", "rounds", "tx_per_block", "tx_size",
        "guards", "splitview_round", "beyond_f", "record_events",
        "record_delivery", "extra_vtime",
    ):
        lines.append(f"{key}={getattr(cfg, key)}")
    lines.append("crash=" + ";".join(f"{v}@{r}" for v, r in cfg.crash))
    lines.append("equivocate=" + ";".join(str(v) for v in cfg.equivocate))
    lines.append(
        "withhold="
        + ";".join(f"{v}>{','.join(str(t) for t in ts)}" for v, ts in cfg.withhold)
    )
    lines.append("byz_guards=" + ";".join(f"{g}:{p}" for g, p in cfg.byz_guards))
    return "\n".join(lines) + "\n"


def dump_dag(dag: Dag) -> str:
    """DAG dump: one 'digest author round parent-digests...' line per block."""
    lines = []
    for r in range(dag.floor, dag.max_round + 1):
        for blk in dag.blocks_at_round(r):
            parents = " ".join(p.digest.hex() for p in blk.parents)
            lines.append(f"{blk.digest.hex()} {blk.author} {blk.round} {parents}".rstrip())
    return "\n".join(lines) + "\n"


def insert_outcome(dag: Dag, block: Block) -> tuple[InsertStatus, tuple[BlockRef, ...]]:
    """The (status, missing refs) `dag.insert(block)` reports, with the parent
    presence test as a short-circuiting `all` over the parent digests."""
    if dag.contains_digest(block.digest):
        return InsertStatus.DUPLICATE, ()
    if block.round < dag.floor:
        return InsertStatus.BELOW_FLOOR, ()
    if block.round > dag.floor and not all(map(dag.contains_digest, block.parent_digests)):
        return InsertStatus.MISSING_ANCESTORS, tuple(
            p for p in block.parents if not dag.contains_digest(p.digest)
        )
    return InsertStatus.INSERTED, ()


def linearize_sub_dags(
    leaders: Sequence[BlockRef], dag: Dag, emitted: Optional[set[bytes]] = None
) -> list[BlockRef]:
    """Delivery sequence for `leaders` in order; each block appears once."""
    emitted = set() if emitted is None else emitted
    out: list[BlockRef] = []
    for leader in leaders:
        out.extend(linearize_one(dag, leader, emitted))
    return out


def post_order(dag: Dag, leader: BlockRef, emitted: set[bytes]) -> list[BlockRef]:
    """`linearize_one` with a separate set of scheduled blocks: a block joins
    `emitted` only once its own parents are done."""
    if leader.digest in emitted:
        return []
    out: list[BlockRef] = []
    stack: list[tuple[Block, bool]] = [(dag.get(leader), False)]
    scheduled = {leader.digest}
    while stack:
        block, expanded = stack.pop()
        if expanded:
            emitted.add(block.digest)
            out.append(block.ref)
            continue
        stack.append((block, True))
        for p in reversed(block.parents):
            if p.digest not in emitted and p.digest not in scheduled:
                scheduled.add(p.digest)
                stack.append((dag.get(p), False))
    return out


def committed_leaders(committer: Committer) -> list[BlockRef]:
    """The leaders `committer` committed, in slot order: the commits of its
    decided prefix."""
    return [d.block for d in committer.sequence if d.verdict is Verdict.COMMIT]


@dataclass
class CommitOutput:
    """Committed leaders in slot order plus the linearized delivery sequence."""

    committed_leaders: list[BlockRef] = field(default_factory=list)
    delivery_sequence: list[BlockRef] = field(default_factory=list)


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


def is_vote(dag: Dag, support: BlockRef, leader: BlockRef) -> bool:
    """True iff `support` votes for `leader`: the DFS from `support` finds
    `leader` first among all blocks with the leader's (author, round)."""
    for ref in (support, leader):
        if not dag.contains_digest(ref.digest):
            raise UnknownBlockError(ref.short())
    voted = dag.voted_block(dag.get_by_digest(support.digest), leader.author, leader.round)
    return voted == leader.digest


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

