"""The one block path into a validator or guard replica, for unit tests."""

from typing import Sequence

from pentabft.dagcore import (
    Block,
    BlockRef,
    Committee,
    Dag,
    auth_tag_for,
    genesis_blocks,
    make_block,
    stored_history,
)
from pentabft.messages import ArmTimer, BlockMsg, Broadcast, Send, SyncRequest
from pentabft.replica import SYNC_CAP_PER_MEMBER, SYNC_RETRY, SYNC_TIMER
from pentabft.validator import CoreValidator

DELTA = 1000


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


def count_inserts(monkeypatch) -> list[Block]:
    """Record every block passed to `Dag.insert` from now on."""
    inserted: list[Block] = []
    real = Dag.insert

    def counting(dag, block):
        inserted.append(block)
        return real(dag, block)

    monkeypatch.setattr(Dag, "insert", counting)
    return inserted


def echoes(actions) -> list[Block]:
    """The blocks `actions` broadcast."""
    return [
        a.payload.block
        for a in actions
        if isinstance(a, Broadcast) and isinstance(a.payload, BlockMsg)
    ]


def requests(actions) -> list[tuple[str, tuple]]:
    """(peer, refs) of each sync request in `actions`."""
    return [
        (a.to, a.payload.refs)
        for a in actions
        if isinstance(a, Send) and isinstance(a.payload, SyncRequest)
    ]


def holding_round_one_but(make_node, *absent):
    """A node built by `make_node` from a committee of six that holds every
    round-1 block but those of `absent`, and the six round-1 blocks."""
    committee = Committee.of_size(6)
    node = make_node(committee)
    node.max_round = 0  # passive: the test drives every block
    genesis = [b.ref for b in genesis_blocks(committee)]
    round1 = [make_block(a, 1, genesis, (b"t",)) for a in committee.members]
    deliver(node, [b for b in round1 if b.author not in absent], "v1", DELTA)
    return node, round1


class SyncRequestTable:
    """A replica asks for each missing ref once, however many parked blocks
    await it, and its retry timer asks again, SYNC_RETRY delta later, from
    each peer that sent a block awaiting it. A test class sets `make_node`
    to build the replica under test from a committee of six."""

    make_node = None

    def test_a_ref_two_blocks_await_is_requested_once(self):
        node, round1 = holding_round_one_but(self.make_node, 5)
        refs = [b.ref for b in round1]
        first = make_block(2, 2, refs)
        second = make_block(3, 2, refs)
        assert requests(deliver(node, [first], "v2", 2 * DELTA)) == [("v2", (refs[5],))]
        assert requests(deliver(node, [second], "v3", (SYNC_RETRY + 2) * DELTA - 1)) == []
        assert len(node.pending) == 2

    def test_a_newly_missing_ref_is_still_requested_from_its_sender(self):
        node, round1 = holding_round_one_but(self.make_node, 4, 5)
        refs = [b.ref for b in round1]
        assert requests(deliver(node, [make_block(2, 2, refs[:5])], "v2", 2 * DELTA)) == [
            ("v2", (refs[4],))
        ]
        assert requests(deliver(node, [make_block(3, 2, refs)], "v3", 2 * DELTA)) == [
            ("v3", (refs[5],))
        ]

    def test_an_arrived_ref_leaves_the_pool(self):
        node, round1 = holding_round_one_but(self.make_node, 4, 5)
        refs = [b.ref for b in round1]
        parked = [make_block(2, 2, refs[:5]), make_block(3, 2, refs)]
        deliver(node, parked[:1], "v2", 2 * DELTA)
        deliver(node, parked[1:], "v3", 2 * DELTA)
        pool = node.pending
        deliver(node, [round1[4]], "v4", 3 * DELTA)
        assert set(pool.awaited) == set(pool._asked) == {refs[5].digest}
        assert set(pool._senders) == {parked[1].digest}
        deliver(node, [round1[5]], "v5", 3 * DELTA)
        assert pool.awaited == pool._asked == pool._senders == {} and len(pool) == 0
        assert all(b.ref in node.dag for b in parked)

    def test_the_retry_asks_a_later_sender_when_the_first_never_answers(self):
        """v2 is asked first and never answers; the block v3 sent within the
        window asked nothing, so only the retry timer reaches v3."""
        node, round1 = holding_round_one_but(self.make_node, 5)
        refs = [b.ref for b in round1]
        server = CoreValidator(5, node.committee, delta=DELTA)
        for b in round1:
            server.dag.insert(b)
        parked = [make_block(2, 2, refs), make_block(3, 2, refs)]
        armed = deliver(node, parked[:1], "v2", 2 * DELTA)
        assert ArmTimer(SYNC_TIMER, SYNC_RETRY * DELTA) in armed
        assert requests(deliver(node, parked[1:], "v3", 3 * DELTA)) == []
        retry = node.on_timer(SYNC_TIMER, (SYNC_RETRY + 2) * DELTA)
        assert requests(retry) == [("v2", (refs[5],)), ("v3", (refs[5],))]
        assert ArmTimer(SYNC_TIMER, SYNC_RETRY * DELTA) in retry  # a ref is still awaited
        (to_v3,) = [a.payload for a in retry if isinstance(a, Send) and a.to == "v3"]
        (resp,) = server.on_sync_request(to_v3, "v0")
        deliver(node, resp.payload.blocks, "v3", (SYNC_RETRY + 4) * DELTA)
        assert all(b.ref in node.dag for b in parked)
        assert len(node.pending) == 0 and not node.pending.awaited
        assert node.on_timer(SYNC_TIMER, (2 * SYNC_RETRY + 2) * DELTA) == []  # nothing left to ask

    def test_a_requester_that_lacks_more_than_a_response_holds_gets_every_block(self):
        """A sync response ships at most SYNC_CAP_PER_MEMBER blocks per
        member, the lowest first; the retry timer fetches the rest, each
        time from the frontier the shipped blocks raised."""
        committee = Committee.of_size(6)
        node = self.make_node(committee)
        node.max_round = 0
        server = CoreValidator(5, committee, delta=DELTA)
        history: list[Block] = []
        parents = [b.ref for b in genesis_blocks(committee)]
        for r in range(1, 8):
            blocks = [make_block(a, r, parents, (b"t",)) for a in committee.members]
            for b in blocks:
                server.dag.insert(b)
            history.extend(blocks)
            parents = [b.ref for b in blocks]
        top = make_block(0, 8, parents)
        cap = SYNC_CAP_PER_MEMBER * committee.size
        assert len(history) > cap
        now = 2 * DELTA
        actions = deliver(node, [top], "v5", now)
        shipped = []
        for _ in range(10):
            asked = [
                a.payload
                for a in actions
                if isinstance(a, Send) and isinstance(a.payload, SyncRequest)
            ]
            if not asked:
                if not node.pending.awaited:
                    break
                now += SYNC_RETRY * DELTA
                actions = node.on_timer(SYNC_TIMER, now)
                continue
            now += DELTA
            actions = []
            for req in asked:
                for resp in server.on_sync_request(req, "v0"):
                    shipped.append(len(resp.payload.blocks))
                    actions.extend(deliver(node, resp.payload.blocks, "v5", now))
        assert shipped[0] == cap and max(shipped) == cap and len(shipped) >= 2
        assert all(b.ref in node.dag for b in (*history, top))
        assert len(node.pending) == 0 and not node.pending.awaited


class HeldParkedBlock:
    """Intake passes over a block the replica holds parked, as it does one
    it holds stored: the same object delivered again, say as another node's
    echo, is neither validated nor inserted, asks for nothing and is not
    echoed again. A test class sets `make_node` as for SyncRequestTable,
    `module` to the module whose `validate_block` the node calls, and
    `echoes_first` to whether the node echoes a timely first version."""

    make_node = None
    module = None
    echoes_first = False

    def parked(self):
        """A node holding one round-2 block parked on the missing round-1
        block of author 5, that block, and the round-1 blocks."""
        node, round1 = holding_round_one_but(self.make_node, 5)
        refs = [b.ref for b in round1]
        block = make_block(2, 2, refs, (b"parked",))
        first = deliver(node, [block], "v2", 2 * DELTA)
        assert requests(first) == [("v2", (refs[5],))]
        assert echoes(first) == ([block] if self.echoes_first else [])
        assert block.ref not in node.dag and node.pending.has(block.digest)
        assert len(node.pending) == 1
        return node, block, round1

    def test_a_parked_block_delivered_again_is_passed_over(self, monkeypatch):
        node, block, _ = self.parked()
        checked = count_validations(monkeypatch, self.module)
        inserted = count_inserts(monkeypatch)
        again = deliver(node, [block], "v3", 2 * DELTA + 1)
        assert checked == [] and inserted == []
        assert requests(again) == [] and echoes(again) == []
        assert len(node.pending) == 1 and node.invalid_blocks == 0

    def test_a_forged_copy_of_a_parked_block_is_still_rejected(self, monkeypatch):
        node, block, _ = self.parked()
        forged = Block(2, 2, block.parents, block.transactions, None, auth_tag_for(4))
        assert forged.digest == block.digest
        checked = count_validations(monkeypatch, self.module)
        actions = deliver(node, [forged], "v4", 2 * DELTA + 1)
        assert len(checked) == 1 and checked[0] is forged
        assert node.invalid_blocks == 1
        assert requests(actions) == [] and echoes(actions) == []
        assert len(node.pending) == 1

    def test_the_parked_block_is_stored_once_when_its_parent_arrives(self):
        node, block, round1 = self.parked()
        deliver(node, [block], "v3", 2 * DELTA + 1)
        with stored_history() as log:
            deliver(node, [round1[5]], "v5", 3 * DELTA)
            deliver(node, [block], "v4", 3 * DELTA + 1)
        assert log[node.dag] == [round1[5], block]
        (held,) = node.dag.blocks_by(2, 2)
        assert held is block
        assert len(node.pending) == 0 and not node.pending.awaited


class IntakeCallShape:
    """What one delivered block costs in calls. A block whose validity the
    committee's memo holds costs no `validate_block` call and one
    `Dag.insert`, and an inserted block still releases the blocks parked on
    it (a held block costs neither call: `test_held_block_skips_intake`). A
    test class sets `make_node` and `module` as for HeldParkedBlock."""

    make_node = None
    module = None

    def found_valid(self):
        """A node holding every round-1 block but author 5's, the round-1
        blocks, and a second node of the committee, which took all of them
        and so found author 5's valid."""
        node, round1 = holding_round_one_but(self.make_node, 5)
        other = self.make_node(node.committee)
        other.max_round = 0
        deliver(other, round1, "v1", DELTA)
        return node, round1

    def test_a_block_the_committee_found_valid_costs_one_insert(self, monkeypatch):
        node, round1 = self.found_valid()
        checked = count_validations(monkeypatch, self.module)
        inserted = count_inserts(monkeypatch)
        node.deliver(BlockMsg(round1[5]), "v5", 2 * DELTA)
        assert checked == [] and inserted == [round1[5]]
        assert node.dag.by_digest[round1[5].digest] is round1[5]

    def test_an_inserted_block_releases_the_blocks_parked_on_it(self, monkeypatch):
        node, round1 = self.found_valid()
        child = make_block(2, 2, [b.ref for b in round1], (b"child",))
        deliver(node, [child], "v2", 2 * DELTA)
        assert node.pending.has(child.digest)
        inserted = count_inserts(monkeypatch)
        node.deliver(BlockMsg(round1[5]), "v5", 3 * DELTA)
        assert inserted == [round1[5], child]
        assert node.dag.by_digest[child.digest] is child
        assert len(node.pending) == 0 and not node.pending.awaited


class MalformedSyncRequest:
    """`deliver` drops a sync request of the wrong shape unserved and counts
    it, and serves the same request well formed. A test class sets
    `make_node` as for SyncRequestTable."""

    make_node = None

    def test_malformed_frontier_gets_no_answer(self):
        node, round1 = holding_round_one_but(self.make_node)
        ref = round1[1].ref
        frontiers = ((), (-1,) * 3, (None,) * 6, ("x",) * 6, None)
        refs = (
            ("junk",), (ref, "junk"), (BlockRef(1, 1, []),), None,
            # a stored block's digest under an author or a round that is no int
            (BlockRef("1", 1, ref.digest),), (BlockRef(1, 1.0, ref.digest),),
        )
        malformed = [SyncRequest((ref,), f) for f in frontiers]
        malformed += [SyncRequest(r, (-1,) * 6) for r in refs]
        for req in malformed:
            assert node.deliver(req, "v5", 2 * DELTA) == []
        assert node.malformed == {"SyncRequest": len(malformed)}
        # the same request with one entry per member is served
        (resp,) = node.deliver(SyncRequest((ref,), (-1,) * 6), "v5", 2 * DELTA)
        assert ref in {b.ref for b in resp.payload.blocks}
