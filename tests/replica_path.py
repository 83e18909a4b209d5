"""The one block path into a validator or guard replica, for unit tests."""

from typing import Sequence

from pentabft.dagcore import Block
from pentabft.messages import BlockMsg


def deliver(node, blocks: Sequence[Block], sender: str, now: int) -> list:
    """Feed `blocks` the way the simulator does: one `deliver` per block,
    then one `flush`."""
    actions = []
    for block in blocks:
        actions.extend(node.deliver(BlockMsg(block), sender, now))
    actions.extend(node.flush(now))
    return actions


def count_validations(monkeypatch, module) -> list[Block]:
    """Record every block `module` passes to `validate_block` from now on;
    callers bind the function by name at import time."""
    checked: list[Block] = []
    real = module.validate_block

    def counting(block, committee):
        checked.append(block)
        return real(block, committee)

    monkeypatch.setattr(module, "validate_block", counting)
    return checked
