"""Validator state machine: intake, round advancement, commit polling."""

import pytest

from pentabft.committer import Verdict
from pentabft.dagcore import Committee, Dag, Mode, genesis_blocks, make_block
from pentabft.faults import CrashValidator, EquivocatingValidator, WithholdVotesValidator
from pentabft.messages import ArmTimer, Broadcast, Send, SyncRequest
from pentabft.validator import LEADER_TIMER, CoreValidator

from replica_path import deliver

DELTA = 1000


def make_committee():
    return Committee.of_size(6)


def fresh_validator(me=0, committee=None, **kwargs):
    committee = committee or make_committee()
    return CoreValidator(me, committee, delta=DELTA, **kwargs)


def other_round(committee, r, parents_dag, authors):
    """Blocks by `authors` for round r referencing all round r-1 blocks in parents_dag."""
    parents = [
        parents_dag.first_block_by(a, r - 1).ref()
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
        assert v.commit_events[0].trigger_round == 2

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
        parents = tuple(g.ref() for g in genesis_blocks(v.committee))
        forged = Block(2, 1, parents[:5], (), None, auth_tag_for(4))
        actions = deliver(v, [forged], "v2", DELTA)
        assert actions == []
        assert v.dag.first_block_by(2, 1) is None
        assert len(v.invalid_evidence) == 1

    def test_serves_causal_closure(self):
        v = fresh_validator()
        v.flush(0)
        drive_round(v, 1, now=DELTA)
        ref = v.dag.first_block_by(0, 2).ref()
        (resp,) = v.on_sync_request(SyncRequest((ref,)), "v5")
        blocks = resp.payload.blocks
        assert ref.digest in {b.digest for b in blocks}
        rounds = {b.round for b in blocks}
        assert rounds == {0, 1, 2}


class TestPollCommits:
    def test_delta_semantics(self):
        v = fresh_validator()
        v.flush(0)
        drive_round(v, 1, now=DELTA)
        assert v.poll_commits().is_empty()
        drive_round(v, 2, now=2 * DELTA)
        first = v.poll_commits()
        assert first.committed_leaders
        assert v.poll_commits().is_empty()

    def test_delivery_extends_in_slot_order(self):
        v = fresh_validator()
        v.flush(0)
        for r in (1, 2, 3):
            drive_round(v, r, now=r * DELTA)
        out = v.poll_commits()
        rounds = [ref.round for ref in out.committed_leaders]
        assert rounds == sorted(rounds)


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
