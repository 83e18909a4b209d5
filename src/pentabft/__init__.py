"""5f+1 DAG consensus with a guard/audit layer and a deterministic simulator."""

from .dagcore import (
    Block,
    BlockRef,
    CoinShare,
    Committee,
    Dag,
    Mode,
    make_block,
    validate_block,
)
from .committer import (
    Committer,
    CommonCoin,
    LeaderSlot,
    SlotDecision,
    Verdict,
    validate_stake_split,
)
from .validator import CoreValidator
from .guard import BlameSet, Guard, apply_reconfiguration, is_valid_blameset

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockRef",
    "BlameSet",
    "CoinShare",
    "Committee",
    "Committer",
    "CommonCoin",
    "CoreValidator",
    "Dag",
    "Guard",
    "LeaderSlot",
    "Mode",
    "SlotDecision",
    "Verdict",
    "apply_reconfiguration",
    "is_valid_blameset",
    "make_block",
    "validate_block",
    "validate_stake_split",
]
