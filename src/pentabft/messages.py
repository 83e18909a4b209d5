"""Message payloads and node-output actions shared by validators and guards.

Nodes are deterministic state machines: inputs arrive as messages or timer
fires, outputs are returned as action lists that the simulator interprets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dagcore import Block, BlockRef, ValidatorId
from .committer import SlotDecision

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
