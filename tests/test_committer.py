"""Wave arithmetic, tallies, the decision rules, linearization, and the coin."""

import pytest

from pentabft.committer import (
    CoinOutput,
    CommonCoin,
    Committer,
    InsufficientShares,
    LeaderSlot,
    MisalignedRound,
    MissingDecisions,
    SlotDecision,
    Verdict,
    WaveCoords,
    decisions_to_trace,
    get_leader_blocks,
    leader_of,
    propose_round_of,
    validate_stake_split,
    wave_coords,
)
from pentabft.dagcore import CoinShare, Committee, Dag, Mode, genesis_blocks, make_block

from oracles import (
    direct_decide,
    extend_commit_sequence,
    linearize_sub_dags,
    slot_blames,
    tally_votes,
)
from test_dagcore import build_vote_fixture, full_round


class TestWaveArithmetic:
    def test_two_round_waves(self):
        assert wave_coords(6, WaveCoords(0, 2)) == (3, 6, 7)
        assert wave_coords(7, WaveCoords(1, 2)) == (3, 7, 8)

    def test_three_round_waves(self):
        wave, propose, decision = wave_coords(6, WaveCoords(0, 3))
        assert (wave, propose, decision) == (2, 6, 8)

    def test_misaligned_round_rejected(self):
        with pytest.raises(MisalignedRound):
            wave_coords(5, WaveCoords(0, 2))

    def test_every_round_proposes_some_wave(self):
        for r in range(1, 30):
            for wl in (2, 3):
                wave, propose, decision = propose_round_of(r, wl)
                assert propose == r
                assert decision == r + wl - 1


class TestLeaderSchedule:
    def test_round_robin(self):
        c = Committee.of_size(6)
        assert leader_of(LeaderSlot(4, 0), c) == 4
        assert leader_of(LeaderSlot(4, 1), c) == 5
        assert leader_of(LeaderSlot(6, 0), c) == 0

    def test_async_uses_coin_output(self):
        c = Committee.of_size(6, Mode.ASYNC)
        assert leader_of(LeaderSlot(10, 1), c, CoinOutput(0, 3)) == 4

    def test_async_without_coin_fails(self):
        from pentabft.committer import CoinUnavailable

        c = Committee.of_size(6, Mode.ASYNC)
        with pytest.raises(CoinUnavailable):
            leader_of(LeaderSlot(10, 0), c)


class TestLeaderBlocks:
    def test_single_proposal(self):
        committee, dag, proposals, _, _ = build_vote_fixture()
        slot = LeaderSlot(1, 1)  # leader (1+1) % 6 = validator 2
        got = get_leader_blocks(dag, slot, committee)
        assert [b.digest for b in got] == [proposals[2].digest]

    def test_equivocating_leader_returns_both_lowest_first(self):
        committee, dag, proposals, prime, _ = build_vote_fixture()
        slot = LeaderSlot(1, 0)  # leader (1+0) % 6 = validator 1, the equivocator
        got = get_leader_blocks(dag, slot, committee)
        assert len(got) == 2
        assert got[0].digest < got[1].digest
        assert {b.digest for b in got} == {proposals[1].digest, prime.digest}

    def test_silent_leader_empty(self):
        committee = Committee.of_size(6)
        dag = Dag(committee)
        assert get_leader_blocks(dag, LeaderSlot(1, 0), committee) == []


class TestTally:
    def test_vote_fixture_counts(self):
        committee, dag, proposals, prime, _ = build_vote_fixture()
        assert tally_votes(dag, 2, proposals[0]) == (5, 1)
        assert tally_votes(dag, 2, proposals[5]) == (1, 5)
        # voters reaching the other variant condemn neither candidate
        assert tally_votes(dag, 2, proposals[1]) == (5, 0)
        assert tally_votes(dag, 2, prime) == (1, 0)

    def test_no_decision_blocks(self):
        committee = Committee.of_size(6)
        dag = Dag(committee)
        (p, *_) = full_round(dag, committee, 1)
        assert tally_votes(dag, 2, p) == (0, 0)

    def test_decision_round_equivocator_counts_for_neither(self):
        committee, dag, proposals, prime, votes = build_vote_fixture()
        # voter 0 equivocates in the decision round with a non-voting variant
        twin = make_block(0, 2, [proposals[x].ref() for x in range(1, 6)], (b"twin",))
        dag.insert(twin)
        supports, blames = tally_votes(dag, 2, proposals[0])
        assert (supports, blames) == (4, 1)

    def test_slot_blames_counts_missing_slots(self):
        committee, dag, proposals, prime, votes = build_vote_fixture()
        assert slot_blames(dag, 2, 0, 1) == 1  # only voter 5 omits proposal 0
        assert slot_blames(dag, 2, 5, 1) == 5
        assert slot_blames(dag, 2, 1, 1) == 0  # every voter reaches some variant

    def test_direct_rule_matches_tally_oracles(self):
        committee, dag, proposals, prime, votes = build_vote_fixture()
        committer = Committer(dag, committee, leaders_per_round=6)
        twin = make_block(0, 2, [proposals[x].ref() for x in range(1, 6)], (b"twin",))
        for _ in range(2):  # the second pass has a decision-round equivocator
            for rank in range(6):
                slot = LeaderSlot(1, rank)
                assert committer.try_direct_decide(slot) == direct_decide(dag, slot, committee, 2)
            dag.insert(twin)


class TestStakeSplit:
    def test_documented_examples(self):
        assert validate_stake_split(600, 500)
        assert not validate_stake_split(600, 490)
        assert validate_stake_split(7, 5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_stake_split(0, 0)
        with pytest.raises(ValueError):
            validate_stake_split(10, 11)


class TestCoin:
    def make(self, n=6):
        committee = Committee.of_size(n, Mode.ASYNC)
        return committee, CommonCoin(b"epoch-seed", committee)

    def test_threshold_is_f_plus_one(self):
        committee, coin = self.make()
        shares = [CoinShare(0, 9), CoinShare(1, 9)]
        out = coin.combine(shares, 4, 9)
        assert 0 <= out.output < 6
        with pytest.raises(InsufficientShares):
            coin.combine([CoinShare(0, 9)], 4, 9)

    def test_wrong_round_shares_do_not_count(self):
        committee, coin = self.make()
        with pytest.raises(InsufficientShares):
            coin.combine([CoinShare(0, 8), CoinShare(1, 7)], 4, 9)

    def test_any_qualifying_subset_agrees(self):
        committee, coin = self.make()
        a = coin.combine([CoinShare(0, 9), CoinShare(1, 9)], 4, 9)
        b = coin.combine([CoinShare(3, 9), CoinShare(4, 9), CoinShare(5, 9)], 4, 9)
        assert a == b

    def test_outputs_uniform_within_three_sigma(self):
        committee, coin = self.make()
        n, waves = 6, 5000
        counts = [0] * n
        for w in range(waves):
            counts[coin.output_for(w)] += 1
        expected = waves / n
        sigma = (waves * (1 / n) * (1 - 1 / n)) ** 0.5
        for c in counts:
            assert abs(c - expected) <= 3 * sigma


def chain_dag():
    """v0 proposes a 3-round chain over full rounds for linearization tests."""
    committee = Committee.of_size(6)
    dag = Dag(committee)
    for r in (1, 2, 3):
        full_round(dag, committee, r)
    return committee, dag


class TestLinearize:
    def test_post_order_single_leader(self):
        committee, dag = chain_dag()
        leader = dag.first_block_by(0, 3)
        emitted = {b.digest for b in dag.blocks_at_round(0)}
        emitted |= {b.digest for b in dag.blocks_at_round(1)}
        out = linearize_sub_dags([leader.ref()], dag, emitted)
        # all round-2 parents first (in parent order), the leader last
        assert out[-1] == leader.ref()
        assert [r.round for r in out] == [2] * 6 + [3]
        assert [r.author for r in out[:-1]] == list(range(6))

    def test_shared_history_emitted_once(self):
        committee, dag = chain_dag()
        first = dag.first_block_by(0, 2)
        second = dag.first_block_by(1, 2)
        emitted = {b.digest for b in dag.blocks_at_round(0)}
        out = linearize_sub_dags([first.ref(), second.ref()], dag, emitted)
        assert len(out) == len({r.digest for r in out})
        # the second batch adds only the second leader itself
        assert out[-1] == second.ref()
        assert [r.digest for r in out].count(first.digest) == 1

    def test_linear_chain_oldest_first(self):
        committee = Committee.of_size(6)
        dag = Dag(committee)
        b1 = full_round(dag, committee, 1)[0]
        b2 = full_round(dag, committee, 2)[0]
        b3 = full_round(dag, committee, 3)[0]
        emitted = {b.digest for b in dag.blocks_at_round(0)}
        emitted |= {b.digest for b in dag.blocks_at_round(1) if b.author != 0}
        emitted |= {b.digest for b in dag.blocks_at_round(2) if b.author != 0}
        out = linearize_sub_dags([b3.ref()], dag, emitted)
        assert out == [b1.ref(), b2.ref(), b3.ref()]


class TestExtendCommitSequence:
    def decisions(self, dag):
        a = dag.first_block_by(0, 1).ref()
        b = dag.first_block_by(1, 1).ref()
        return a, b

    def test_stops_at_first_undecided(self):
        committee, dag = chain_dag()
        a, b = self.decisions(dag)
        seq = [
            SlotDecision(LeaderSlot(1, 0), Verdict.SKIP),
            SlotDecision(LeaderSlot(1, 1), Verdict.UNDECIDED),
            SlotDecision(LeaderSlot(2, 0), Verdict.COMMIT, a),
        ]
        out = extend_commit_sequence(dag, seq)
        assert out.committed_leaders == []
        assert out.delivery_sequence == []

    def test_skips_are_passed_over(self):
        committee, dag = chain_dag()
        a, b = self.decisions(dag)
        seq = [
            SlotDecision(LeaderSlot(1, 0), Verdict.COMMIT, a),
            SlotDecision(LeaderSlot(1, 1), Verdict.SKIP),
            SlotDecision(LeaderSlot(2, 0), Verdict.COMMIT, b),
        ]
        out = extend_commit_sequence(dag, seq)
        assert out.committed_leaders == [a, b]
        assert out.delivery_sequence[-1] == b


class TestTryDecideOnEmptyDag:
    def test_all_undecided_without_votes(self):
        committee = Committee.of_size(6)
        dag = Dag(committee)
        committer = Committer(dag, committee, leaders_per_round=2)
        full_round(dag, committee, 1)
        decisions = committer.try_decide(0, 1)
        assert [d.verdict for d in decisions] == [Verdict.UNDECIDED] * 2

    def test_indirect_requires_sorted_later_decisions(self):
        committee = Committee.of_size(6)
        dag = Dag(committee)
        committer = Committer(dag, committee, leaders_per_round=1)
        full_round(dag, committee, 1)
        bogus = [SlotDecision(LeaderSlot(1, 0), Verdict.SKIP)]
        with pytest.raises(MissingDecisions):
            committer.try_indirect_decide(LeaderSlot(2, 0), bogus)


def test_trace_format():
    committee, dag = chain_dag()
    a = dag.first_block_by(0, 1).ref()
    seq = [
        SlotDecision(LeaderSlot(1, 0), Verdict.COMMIT, a),
        SlotDecision(LeaderSlot(1, 1), Verdict.SKIP),
        SlotDecision(LeaderSlot(2, 0), Verdict.UNDECIDED),
    ]
    text = decisions_to_trace(seq)
    lines = text.strip().splitlines()
    assert lines[0] == f"r1/0 commit {a.digest.hex()}"
    assert lines[1] == "r1/1 skip"
    assert lines[2] == "r2/0 undecided"
