"""Message payloads and node-output actions shared by validators and guards.

Nodes are deterministic state machines: inputs arrive as messages or timer
fires, outputs are returned as action lists that the simulator interprets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .dagcore import Block, BlockRef, ValidatorId
from .committer import LeaderSlot, SlotDecision, Verdict

NodeId = str  # "v<i>" for core validators, "g<i>" for guards


def validator_node(v: ValidatorId) -> NodeId:
    return f"v{v}"


def guard_node(g: int) -> NodeId:
    return f"g{g}"


# -- message payloads --------------------------------------------------------


@dataclass(frozen=True)
class BlockMsg:
    block: Block


@dataclass(frozen=True)
class SyncRequest:
    """Refs the requester lacks, plus its frontier: its highest stored round
    for each committee member, in `Committee.members` order, -1 for none."""

    refs: tuple[BlockRef, ...]
    frontier: tuple[int, ...]


@dataclass(frozen=True)
class SyncResponse:
    blocks: tuple[Block, ...]


@dataclass(frozen=True)
class LBlameMsg:
    """A guard's signed liveness blame against a core validator for a round."""

    guard: int
    accused: ValidatorId
    round: int
    tag: str


@dataclass(frozen=True)
class CoreUpdateMsg:
    """A guard's attested view of newly decided leader slots: its
    committer's own decisions, shared, not copied."""

    guard: int
    claims: tuple[SlotDecision, ...]
    tag: str


@dataclass(frozen=True)
class RecoverProposal:
    """Signed recovery proposal: blameset bytes plus optional canonical branch."""

    guard: int
    blameset_text: str
    branch: Optional[BlockRef]
    tag: str


@dataclass(frozen=True)
class AgreementRelay:
    """Echo-forwarded proposal with its signature chain (first signer = proposer).

    `chain_tags[i]` authenticates `chain[i]`'s endorsement of the proposal.
    """

    proposer: int
    proposal: RecoverProposal
    chain: tuple[int, ...]
    chain_tags: tuple[str, ...]


@dataclass(frozen=True)
class RestartDirective:
    """Outcome of recovery: excluded members and, for safety faults, the branch."""

    kind: str  # "liveness" | "safety"
    excluded: tuple[ValidatorId, ...]
    branch: Optional[BlockRef]
    blameset_text: str


# -- shapes ------------------------------------------------------------------
# SHAPES maps a peer message kind to its predicate over the message, the
# receiver's committee size and its leaders per round. `Replica.deliver`
# applies it once, before dispatch, and checks the block kinds inline.


def update_tag(guard: int, claims: tuple[SlotDecision, ...]) -> str:
    body = ";".join(
        f"{c.slot.round}/{c.slot.rank}:{c.verdict.value}:{c.block.digest.hex() if c.block else '-'}"
        for c in claims
    )
    h = hashlib.blake2b(body.encode(), digest_size=8).hexdigest()
    return f"update:{guard}:{h}"


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def _well_formed_ref(ref) -> bool:
    return (  # typed inline, without a call per field: a sync request names many refs
        type(ref) is BlockRef and type(ref.author) is int and type(ref.round) is int
        and type(ref.digest) is bytes
    )


def _well_formed_claim(claim, ranks: int) -> bool:
    """A decided leader slot of round >= 1 and rank below `ranks`: a commit
    names a block ref, a skip names none."""
    if type(claim) is not SlotDecision or type(claim.slot) is not LeaderSlot:
        return False
    r, k = claim.slot.round, claim.slot.rank
    if not (_ints(r, k) and r >= 1 and 0 <= k < ranks):
        return False
    if claim.verdict is Verdict.COMMIT:
        return _well_formed_ref(claim.block)
    return claim.verdict is Verdict.SKIP and claim.block is None


def _well_formed_sync_request(req: SyncRequest, size: int, ranks: int) -> bool:
    return (
        type(req.refs) is tuple and type(req.frontier) is tuple
        and len(req.frontier) == size and _ints(*req.frontier)
        and all(_well_formed_ref(r) for r in req.refs)
    )


def _well_formed_lblame(msg: LBlameMsg, size: int, ranks: int) -> bool:
    return _ints(msg.guard, msg.accused, msg.round) and type(msg.tag) is str


def _well_formed_update(msg: CoreUpdateMsg, size: int, ranks: int) -> bool:
    """Decided leader slots under the named guard's tag, which reads the message alone."""
    return (
        type(msg.guard) is int and type(msg.claims) is tuple
        and all(_well_formed_claim(c, ranks) for c in msg.claims)
        and msg.tag == update_tag(msg.guard, msg.claims)
    )


def _well_formed_relay(relay: AgreementRelay, size: int, ranks: int) -> bool:
    """A proposal signed by a chain of distinct guards, its proposer first."""
    p, chain, tags = relay.proposal, relay.chain, relay.chain_tags
    return (
        type(chain) is tuple and type(tags) is tuple and _ints(relay.proposer, *chain)
        and all(type(t) is str for t in tags)
        and type(p) is RecoverProposal and _ints(p.guard)
        and type(p.blameset_text) is str and type(p.tag) is str
        and (p.branch is None or _well_formed_ref(p.branch))
        and chain[:1] == (relay.proposer,) == (p.guard,)
        and len(set(chain)) == len(chain) == len(tags)
    )


SHAPES = {
    SyncRequest: _well_formed_sync_request,
    LBlameMsg: _well_formed_lblame,
    CoreUpdateMsg: _well_formed_update,
    AgreementRelay: _well_formed_relay,
}


# -- actions -----------------------------------------------------------------


@dataclass(frozen=True)
class Broadcast:
    payload: object


@dataclass(frozen=True)
class Send:
    to: NodeId
    payload: object


@dataclass(frozen=True)
class ArmTimer:
    timer_id: str
    duration: int


@dataclass(frozen=True)
class RecoveryDone:
    """Surfaced by a guard when its recovery session returns the agreed set."""

    directive: RestartDirective


Action = object
