"""The one block path into a validator or guard replica, for unit tests."""

from typing import Sequence

from pentabft.dagcore import Block
from pentabft.validator import CoreValidator


def deliver(node, blocks: Sequence[Block], sender: str, now: int) -> list:
    """Feed `blocks` the way the simulator's adapters do: `ingest_block` for
    each, then one `flush`; a validator's flush is triggered at the highest
    delivered round."""
    actions = []
    for block in blocks:
        actions.extend(node.ingest_block(block, sender, now))
    if isinstance(node, CoreValidator):
        actions.extend(node.flush(now, trigger_round=max(b.round for b in blocks)))
    else:
        actions.extend(node.flush(now))
    return actions
