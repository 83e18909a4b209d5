"""Validator state machine: intake, round advancement, the commit log."""

import pytest

from pentabft.committer import PRUNE_DEPTH, CommonCoin, Verdict
from pentabft.dagcore import (
    BlockRef,
    CoinShare,
    Committee,
    Dag,
    Mode,
    genesis_blocks,
    make_block,
    stored_history,
    unpruned,
)
from pentabft.faults import CrashValidator, EquivocatingValidator, WithholdVotesValidator
from pentabft.messages import ArmTimer, BlockMsg, Broadcast, Send, SyncRequest, SyncResponse
from pentabft import validator
from pentabft.validator import LEADER_TIMER, CoreValidator

from oracles import committed_leaders
from replica_path import (
    HeldParkedBlock,
    IntakeCallShape,
    MalformedSyncRequest,
    SyncRequestTable,
    count_inserts,
    count_validations,
    deliver,
)

DELTA = 1000


def make_committee():
    return Committee.of_size(6)


def fresh_validator(me=0, committee=None, **kwargs):
    committee = committee or make_committee()
    return CoreValidator(me, committee, delta=DELTA, **kwargs)


def other_round(committee, r, parents_dag, authors):
    """Blocks by `authors` for round r referencing all round r-1 blocks in parents_dag."""
    parents = [
        parents_dag.first_block_by(a, r - 1).ref
        for a in sorted(parents_dag.authors_at_round(r - 1))
    ]
    return [make_block(a, r, parents, (b"t",)) for a in authors]


def drive_round(v, r, authors=(1, 2, 3, 4, 5), now=0):
    """Feed round-r blocks from peers into validator v."""
    actions = []
    for b in other_round(v.committee, r, v.dag, authors):
        actions.extend(deliver(v, [b], f"v{b.author}", now))
    return actions


class TestAdvance:
    def test_proposes_round_one_at_startup(self):
        v = fresh_validator()
        actions = v.flush(0)
        blocks = [a.payload.block for a in actions if isinstance(a, Broadcast)]
        assert len(blocks) == 1 and blocks[0].round == 1
        assert blocks[0].author == 0
        assert v.current_round == 1
        assert any(isinstance(a, ArmTimer) for a in actions)

    def test_waits_for_strong_quorum(self):
        v = fresh_validator()
        v.flush(0)
        drive_round(v, 1, authors=(1, 2, 3), now=DELTA)
        assert v.current_round == 1  # 4 authors < 5
        drive_round(v, 1, authors=(4,), now=DELTA)
        assert v.current_round == 2

    def test_waits_for_leaders_until_timeout(self):
        v = fresh_validator()
        v.flush(0)
        # leaders of round 1 are validators 1 and 2; withhold 2's block
        drive_round(v, 1, authors=(1, 3, 4, 5), now=DELTA)
        assert v.current_round == 1  # quorum reached, leader 2 missing
        v.on_timer(LEADER_TIMER, DELTA * 3)
        assert v.current_round == 2  # timeout expired, proposes without it

    def test_proposes_immediately_with_all_leaders(self):
        v = fresh_validator()
        v.flush(0)
        drive_round(v, 1, now=DELTA)
        assert v.current_round == 2
        block = v.dag.first_block_by(0, 2)
        # advanced on the fifth distinct author (leaders 1 and 2 present by
        # then); parents cover every author available at that moment
        assert len(block.parents) == 5
        assert {p.author for p in block.parents} == {0, 1, 2, 3, 4}

    def test_async_mode_attaches_coin_share(self):
        from pentabft.committer import CommonCoin

        committee = Committee.of_size(6, Mode.ASYNC)
        coin = CommonCoin(b"seed", committee)
        v = CoreValidator(0, committee, delta=DELTA, coin=coin)
        v.flush(0)
        block = v.dag.first_block_by(0, 1)
        assert block.coin_share is not None
        assert (block.coin_share.author, block.coin_share.round) == (0, 1)

    def test_one_proposal_per_round(self):
        v = fresh_validator()
        v.flush(0)
        v.flush(10)
        v.flush(20)
        assert len(v.dag.blocks_by(0, 1)) == 1

    def test_max_round_cap(self):
        v = fresh_validator()
        v.max_round = 1
        v.flush(0)
        drive_round(v, 1, now=DELTA)
        assert v.current_round == 1


class TestOnBlock:
    def test_commit_fires_on_decision_round_quorum(self):
        v = fresh_validator()
        v.flush(0)
        drive_round(v, 1, now=DELTA)
        drive_round(v, 2, now=2 * DELTA)
        decided = v.committer.decided_slots()
        from pentabft.committer import LeaderSlot

        assert decided[LeaderSlot(1, 0)].verdict is Verdict.COMMIT
        assert v.committer.decision_events[0][2] == 2  # trigger round

    def test_unknown_parent_requests_sync(self):
        v = fresh_validator()
        v.flush(0)
        committee = v.committee
        shadow = Dag(committee)
        blocks1 = other_round(committee, 1, shadow, (0, 1, 2, 3, 4, 5))
        for b in blocks1:
            shadow.insert(b)
        blocks2 = other_round(committee, 2, shadow, (1,))
        actions = deliver(v, [blocks2[0]], "v1", DELTA)
        reqs = [a for a in actions if isinstance(a, Send) and isinstance(a.payload, SyncRequest)]
        assert len(reqs) == 1
        assert reqs[0].to == "v1"
        missing = set(reqs[0].payload.refs)
        assert missing  # round-1 blocks v never saw
        assert v.dag.first_block_by(1, 2) is None  # parked, not inserted

    def test_sync_response_releases_parked_blocks(self):
        v = fresh_validator()
        v.flush(0)
        committee = v.committee
        shadow = Dag(committee)
        blocks1 = other_round(committee, 1, shadow, (0, 1, 2, 3, 4, 5))
        for b in blocks1:
            shadow.insert(b)
        blocks2 = other_round(committee, 2, shadow, (1,))
        deliver(v, [blocks2[0]], "v1", DELTA)
        deliver(v, blocks1, "v1", 2 * DELTA)
        assert v.dag.first_block_by(1, 2) is not None

    def test_invalid_signature_dropped_with_evidence(self):
        from pentabft.dagcore import Block, auth_tag_for

        v = fresh_validator()
        v.flush(0)
        parents = tuple(g.ref for g in genesis_blocks(v.committee))
        forged = Block(2, 1, parents[:5], (), None, auth_tag_for(4))
        actions = deliver(v, [forged], "v2", DELTA)
        assert actions == []
        assert v.dag.first_block_by(2, 1) is None
        assert v.invalid_blocks == 1

    def test_held_block_skips_intake(self, monkeypatch):
        v = fresh_validator()
        v.flush(0)
        (block,) = other_round(v.committee, 1, v.dag, (1,))
        checked = count_validations(monkeypatch, validator)
        deliver(v, [block], "v1", DELTA)
        inserted = count_inserts(monkeypatch)
        # the guards' echo brings the same object back
        assert v.ingest_block(block, "g0", DELTA) == []
        assert len(checked) == 1 and checked[0] is block and inserted == []

    def test_a_skipped_block_still_raises_the_trigger_round(self):
        """A held block and one below the floor are passed over, yet each
        still counts toward the next flush's trigger round."""
        v = fresh_validator()
        v.flush(0)
        (block,) = other_round(v.committee, 1, v.dag, (1,))
        deliver(v, [block], "v1", DELTA)
        assert v._trigger == -1
        assert v.ingest_block(block, "g0", DELTA) == []
        assert v._trigger == 1
        v.flush(DELTA)
        v.dag.prune(2)  # as a decision pass would
        assert v.ingest_block(block, "g0", DELTA) == []
        assert v._trigger == 1

    def test_forged_copy_of_a_held_block_is_still_rejected(self, monkeypatch):
        from pentabft.dagcore import Block, auth_tag_for

        v = fresh_validator()
        v.flush(0)
        (block,) = other_round(v.committee, 1, v.dag, (1,))
        deliver(v, [block], "v1", DELTA)
        forged = Block(1, 1, block.parents, block.transactions, None, auth_tag_for(4))
        assert forged.digest == block.digest
        checked = count_validations(monkeypatch, validator)
        assert v.ingest_block(forged, "v4", DELTA) == []
        assert len(checked) == 1 and checked[0] is forged
        assert v.invalid_blocks == 1
        assert v.dag.get(block.ref) is block

    def test_serves_blocks_above_the_frontier(self):
        v = fresh_validator()
        v.flush(0)
        drive_round(v, 1, now=DELTA)
        drive_round(v, 2, now=2 * DELTA)
        ref = v.dag.first_block_by(0, 3).ref

        def served(frontier, refs=(ref,)):
            (resp,) = v.on_sync_request(SyncRequest(refs, frontier), "v5")
            return resp.payload.blocks

        parents = v.dag.get(ref).parents
        # an empty frontier gets the whole causal closure
        assert {b.round for b in served((-1,) * 6)} == {0, 1, 2, 3}
        # a peer holding round 1 everywhere gets the request and its parents
        above = served((1,) * 6)
        assert {b.ref for b in above} == {ref, *parents}
        # frontier entries are per author, in committee order
        skipped = parents[-1].author
        frontier = tuple(2 if a == skipped else 1 for a in range(6))
        assert {b.ref for b in served(frontier)} == {ref, *parents[:-1]}
        # a requested ref ships even at or below the frontier
        low = v.dag.first_block_by(4, 1).ref
        assert [b.digest for b in served((3,) * 6, (low, ref))] == [low.digest, ref.digest]

    def test_pruned_fork_is_requested_by_name(self):
        """The requester holds one fork of equivocator v1 at round 1; the block
        it needs rests on the other fork, which its frontier prunes from the
        first response. The parked block asks for that fork, which then ships."""
        committee = make_committee()
        server = fresh_validator(5, committee)
        requester = fresh_validator(0, committee)
        requester.max_round = 0  # passive: the test drives every block
        genesis = [b.ref for b in genesis_blocks(committee)]
        round1 = [make_block(a, 1, genesis, (b"t",)) for a in range(6)]
        fork = make_block(1, 1, genesis, (b"fork",))
        for b in round1 + [fork]:
            server.dag.insert(b)
        deliver(requester, round1, "v1", DELTA)

        held = [b.ref for b in round1]
        on_fork = [b.ref for b in round1 if b.author != 1] + [fork.ref]
        round2 = [make_block(a, 2, on_fork if a == 2 else held) for a in (0, 2, 3, 4, 5)]
        top = make_block(3, 3, [b.ref for b in round2])
        for b in round2 + [top]:
            server.dag.insert(b)

        def sync_requests(actions):
            return [a.payload for a in actions if isinstance(a, Send)
                    and isinstance(a.payload, SyncRequest)]

        (first,) = sync_requests(deliver(requester, [top], "v5", 2 * DELTA))
        assert first.frontier == (1,) * 6
        (resp,) = server.on_sync_request(first, "v0")
        assert [b.round for b in resp.payload.blocks] == [2] * 5
        (second,) = sync_requests(deliver(requester, resp.payload.blocks, "v5", 3 * DELTA))
        assert second.refs == (fork.ref,)
        (resp,) = server.on_sync_request(second, "v0")
        assert resp.payload.blocks == (fork,)
        assert sync_requests(deliver(requester, resp.payload.blocks, "v5", 4 * DELTA)) == []
        assert len(requester.pending) == 0
        assert all(b.ref in requester.dag for b in round1 + [fork] + round2 + [top])


class TestSyncRequestTable(SyncRequestTable):
    make_node = staticmethod(lambda committee: fresh_validator(0, committee))


class TestHeldParkedBlock(HeldParkedBlock):
    make_node = staticmethod(lambda committee: fresh_validator(0, committee))
    module = validator


class TestIntakeCallShape(IntakeCallShape):
    make_node = staticmethod(lambda committee: fresh_validator(0, committee))
    module = validator


class TestMalformedSyncRequest(MalformedSyncRequest):
    make_node = staticmethod(lambda committee: fresh_validator(0, committee))


def sync_requests(actions):
    return [a.payload for a in actions if isinstance(a, Send) and isinstance(a.payload, SyncRequest)]


class TestFloor:
    """A validator keeps its DAG PRUNE_DEPTH rounds below its committed
    prefix; what lies below is ignored and never served."""

    def driven(self, first, last, v=None):
        v = v or fresh_validator()
        v.flush(0)
        for r in range(first, last + 1):
            drive_round(v, r, now=r * DELTA)
        return v

    def test_floor_follows_the_committed_prefix(self):
        v = self.driven(1, 20)
        prefix = v.committer.sequence[-1].slot.round
        assert v.dag.floor == prefix - PRUNE_DEPTH > 1
        assert min(r for r in range(v.dag.max_round + 1) if v.dag.authors_at_round(r)) == v.dag.floor
        assert v.current_round - 1 >= v.dag.floor

    def test_block_below_the_floor_is_ignored_never_delivered_nor_served(self, monkeypatch):
        with stored_history() as log:
            v = self.driven(1, 20)
        history = unpruned(v.committee, log[v.dag])
        r = v.dag.floor - 1  # more than PRUNE_DEPTH below the committed prefix
        assert v.committer.sequence[-1].slot.round - r > PRUNE_DEPTH
        parents = [b.ref for b in history.blocks_at_round(r - 1)]
        late = make_block(1, r, parents, (b"late",))
        checked = count_validations(monkeypatch, validator)
        assert sync_requests(deliver(v, [late], "v1", 21 * DELTA)) == []
        assert checked == [] and len(v.pending) == 0
        assert not v.dag.contains_digest(late.digest)
        self.driven(21, 30, v)
        assert late.ref not in v.committer.delivery_sequence
        # neither the late block nor a stored one that was pruned is served
        pruned = history.first_block_by(1, r).ref
        for ref in (late.ref, pruned):
            assert v.on_sync_request(SyncRequest((ref,), (-1,) * 6), "v5") == []

    def test_parked_block_leaves_the_pool_once_the_floor_passes_it(self):
        v = self.driven(1, 2)
        missing = BlockRef(1, 2, bytes(16))  # a parent that never arrives
        parents = [v.dag.first_block_by(a, 2).ref for a in (0, 2, 3, 4, 5)] + [missing]
        parked = make_block(1, 3, sorted(parents), (b"parked",))
        (request,) = sync_requests(deliver(v, [parked], "v1", 3 * DELTA))
        assert request.refs == (missing,) and len(v.pending) == 1
        self.driven(3, 20, v)
        assert v.dag.floor > parked.round
        assert len(v.pending) == 0 and not v.pending.awaited
        assert sync_requests(deliver(v, [parked], "v1", 21 * DELTA)) == []
        assert len(v.pending) == 0


class TestTriggerRound:
    """A flush without a trigger round of its own triggers its decision pass
    at the highest round delivered since the last such flush."""

    def passes(self, monkeypatch, v):
        """The trigger round of each decision pass `v` runs from now on."""
        seen = []
        real = v.committer.extend

        def extend(trigger_round=-1, keep=None, now=0):
            seen.append(trigger_round)
            return real(trigger_round, keep, now)

        monkeypatch.setattr(v.committer, "extend", extend)
        return seen

    def idle_validator(self):
        """A validator in round 1 that advances no further, so each flush
        runs one decision pass."""
        v = fresh_validator()
        v.max_round = 1
        v.flush(0)
        return v

    def test_counts_skipped_invalid_and_shipped_blocks(self, monkeypatch):
        from pentabft.dagcore import Block, auth_tag_for

        v = self.idle_validator()
        shadow = Dag(v.committee)
        round1 = other_round(v.committee, 1, shadow, (0, 1, 2, 3, 4, 5))
        for b in round1:
            shadow.insert(b)
        round2 = other_round(v.committee, 2, shadow, (1, 2))
        held = round1[1]
        v.deliver(BlockMsg(held), "v1", DELTA)
        v.flush(DELTA)
        seen = self.passes(monkeypatch, v)
        v.deliver(BlockMsg(held), "g0", DELTA)  # held: skips intake
        v.flush(DELTA)
        forged = Block(2, 5, held.parents, (), None, auth_tag_for(4))
        v.deliver(BlockMsg(held), "g0", 2 * DELTA)
        v.deliver(BlockMsg(forged), "v4", 2 * DELTA)
        v.flush(2 * DELTA)
        v.deliver(SyncResponse((round1[2], *round2)), "v1", 3 * DELTA)
        v.flush(3 * DELTA)
        v.flush(4 * DELTA)
        assert seen == [1, 5, 2, -1]
        assert v.invalid_blocks == 1 and len(v.pending) == 2

    def test_leader_timer_pass_leaves_the_trigger_round(self, monkeypatch):
        v = self.idle_validator()
        (block,) = other_round(v.committee, 1, v.dag, (1,))
        v.deliver(BlockMsg(block), "v1", DELTA)
        seen = self.passes(monkeypatch, v)
        v.on_timer(LEADER_TIMER, 3 * DELTA)
        v.flush(3 * DELTA)
        assert seen == [-1, 1]


class TestIdleFlush:
    """An asynchronous flush whose quorum stamp has not moved since the
    validator's last flush can neither decide nor advance, so it returns
    before the decision pass."""

    def test_idle_flush_returns_before_the_decision_pass(self, monkeypatch):
        committee = Committee.of_size(6, Mode.ASYNC)
        v = CoreValidator(0, committee, delta=DELTA, coin=CommonCoin(b"seed", committee))
        v.flush(0)
        genesis = [b.ref for b in genesis_blocks(committee)]
        round1 = [make_block(a, 1, genesis, (b"t",), CoinShare(a, 1)) for a in (1, 2, 3, 4)]
        seen = []
        real = v.committer.extend
        monkeypatch.setattr(
            v.committer, "extend", lambda trigger, *rest: seen.append(trigger) or real(trigger, *rest)
        )
        assert v.flush(DELTA) == []
        # round 1 short of a quorum: its stamp does not move
        v.deliver(BlockMsg(round1[0]), "v1", DELTA)
        assert v.flush(DELTA) == [] and seen == []
        assert v._trigger == -1  # the idle flush consumed its trigger round
        for block in round1[1:]:
            v.deliver(BlockMsg(block), f"v{block.author}", 2 * DELTA)
        actions = v.flush(2 * DELTA)
        assert seen == [1, 2] and v.current_round == 2
        assert [a.payload.block.round for a in actions if isinstance(a, Broadcast)] == [2]


def commit_log(v):
    return committed_leaders(v.committer), list(v.committer.delivery_sequence)


def assert_appended(before, after):
    """Each list of the commit log only grows by appending."""
    for old, new in zip(before, after):
        assert new[: len(old)] == old


class TestPollCommits:
    """A reader polls the committer's commit log by position: what it has
    read never changes, new entries only appear at the end."""

    def test_delta_semantics(self):
        v = fresh_validator()
        v.flush(0)
        drive_round(v, 1, now=DELTA)
        assert commit_log(v) == ([], [])
        drive_round(v, 2, now=2 * DELTA)
        first = commit_log(v)
        assert first[0]
        v.flush(2 * DELTA)  # no new blocks, nothing new to read
        assert commit_log(v) == first

    def test_delivery_extends_in_slot_order(self):
        v = fresh_validator()
        v.flush(0)
        log = commit_log(v)
        for r in (1, 2, 3):
            drive_round(v, r, now=r * DELTA)
            assert_appended(log, commit_log(v))
            log = commit_log(v)
        rounds = [ref.round for ref in log[0]]
        assert rounds and rounds == sorted(rounds)


class TestByzantineStrategies:
    def test_crash_stops_proposing(self):
        committee = make_committee()
        v = CrashValidator(0, committee, delta=DELTA, crash_round=2)
        v.flush(0)
        assert v.current_round == 1
        drive_round(v, 1, now=DELTA)
        assert v.current_round == 1
        assert v.crashed

    def test_equivocator_splits_recipients(self):
        committee = make_committee()
        v = EquivocatingValidator(
            0,
            committee,
            delta=DELTA,
            camp_a=("v1", "v2"),
            camp_b=("v3", "v4", "v5"),
        )
        actions = v.flush(0)
        sends = [a for a in actions if isinstance(a, Send)]
        blocks = {a.payload.block.digest for a in sends}
        assert len(blocks) == 2
        assert {a.to for a in sends} == {"v1", "v2", "v3", "v4", "v5"}
        assert len(v.dag.blocks_by(0, 1)) == 2

    def test_withholder_omits_targets_when_quorum_allows(self):
        committee = make_committee()
        v = WithholdVotesValidator(0, committee, delta=DELTA, targets=(3,))
        v.flush(0)
        block = v.dag.first_block_by(0, 1)
        assert 3 not in {p.author for p in block.parents}
        assert len(block.parents) >= committee.strong_quorum
