"""Wave arithmetic, tallies, the decision rules, linearization, and the coin."""

import pytest

from pentabft.committer import (
    CommonCoin,
    Committer,
    InsufficientShares,
    LeaderSlot,
    MissingDecisions,
    SlotDecision,
    Verdict,
    leader_of,
    leaders_of_round,
    validate_stake_split,
)
from pentabft.dagcore import CoinShare, Committee, Dag, Mode, genesis_blocks, make_block

from oracles import (
    decisions_to_trace,
    direct_decide,
    extend_commit_sequence,
    linearize_sub_dags,
    slot_blames,
    tally_votes,
)
from test_dagcore import build_vote_fixture, full_round


def make_committer(mode, rounds=0):
    """A committer over `rounds` full rounds; async blocks carry coin shares."""
    committee = Committee.of_size(6, mode)
    dag = Dag(committee)
    for r in range(1, rounds + 1):
        parents = [dag.first_block_by(a, r - 1).ref for a in sorted(dag.authors_at_round(r - 1))]
        for m in committee.members:
            dag.insert(make_block(m, r, parents, coin_share=CoinShare(m, r)))
    coin = CommonCoin(b"epoch-seed", committee) if mode is Mode.ASYNC else None
    return Committer(dag, committee, coin=coin)


class TestWaveArithmetic:
    def test_two_round_waves(self):
        c = make_committer(Mode.PARTIAL_SYNC)
        assert (c.decision_round(6), c.decision_round(7)) == (7, 8)

    def test_three_round_waves(self):
        c = make_committer(Mode.ASYNC, rounds=11)
        assert c.decision_round(6) == 8
        # rounds 6, 7 and 8 each propose a slot of wave 2; its coin is
        # combined from the shares of the slot's own decision round
        for r in (6, 7, 8):
            slot = LeaderSlot(r, 0)
            assert c._slot_leader(slot) == leader_of(slot, c.committee, c.coin.output_for(2))
        assert c._coin_outputs == {2: c.coin.output_for(2)}
        c._slot_leader(LeaderSlot(9, 0))
        assert c._coin_outputs.keys() == {2, 3}

    def test_every_round_proposes_some_wave(self):
        for mode, wl in ((Mode.PARTIAL_SYNC, 2), (Mode.ASYNC, 3)):
            c = make_committer(mode)
            for r in range(1, 30):
                assert c.decision_round(r) == r + wl - 1


class TestLeaderSchedule:
    def test_round_robin(self):
        c = Committee.of_size(6)
        assert leader_of(LeaderSlot(4, 0), c) == 4
        assert leader_of(LeaderSlot(4, 1), c) == 5
        assert leader_of(LeaderSlot(6, 0), c) == 0

    def test_leaders_of_round_match_each_slot(self):
        c = Committee.of_size(6)
        for r in range(1, 14):
            assert leaders_of_round(r, c, 3) == [leader_of(LeaderSlot(r, k), c) for k in range(3)]

    def test_async_uses_coin_output(self):
        c = Committee.of_size(6, Mode.ASYNC)
        assert leader_of(LeaderSlot(10, 1), c, 3) == 4

    def test_async_without_coin_fails(self):
        from pentabft.committer import CoinUnavailable

        c = Committee.of_size(6, Mode.ASYNC)
        with pytest.raises(CoinUnavailable):
            leader_of(LeaderSlot(10, 0), c)


def leader_blocks(dag, slot, committee):
    """The stored propose-round blocks of the slot's leader, as both rules
    read them."""
    return dag.blocks_by(Committer(dag, committee)._slot_leader(slot), slot.round)


class TestLeaderBlocks:
    def test_single_proposal(self):
        committee, dag, proposals, _, _ = build_vote_fixture()
        slot = LeaderSlot(1, 1)  # leader (1+1) % 6 = validator 2
        got = leader_blocks(dag, slot, committee)
        assert [b.digest for b in got] == [proposals[2].digest]

    def test_equivocating_leader_returns_both_lowest_first(self):
        committee, dag, proposals, prime, _ = build_vote_fixture()
        slot = LeaderSlot(1, 0)  # leader (1+0) % 6 = validator 1, the equivocator
        got = leader_blocks(dag, slot, committee)
        assert len(got) == 2
        assert got[0].digest < got[1].digest
        assert {b.digest for b in got} == {proposals[1].digest, prime.digest}

    def test_silent_leader_empty(self):
        committee = Committee.of_size(6)
        dag = Dag(committee)
        assert leader_blocks(dag, LeaderSlot(1, 0), committee) == []


class TestCoinGate:
    """Under asynchrony a slot stays undecided, by either rule, until its
    decision round holds coin shares from f+1 authors."""

    def test_rules_wait_for_f_plus_one_shares(self):
        c = make_committer(Mode.ASYNC, rounds=4)
        dag, committee = c.dag, c.committee
        slot = LeaderSlot(3, 0)  # wave 1, decided at round 5
        parents = [dag.first_block_by(a, 4).ref for a in committee.members]
        dag.insert(make_block(0, 5, parents, coin_share=CoinShare(0, 5)))
        assert committee.f + 1 == 2
        # a committed anchor above the decision round
        anchor = SlotDecision(LeaderSlot(6, 0), Verdict.COMMIT, parents[0])
        assert c.try_direct_decide(slot) == SlotDecision(slot, Verdict.UNDECIDED)
        assert c.try_indirect_decide(slot, [anchor]) == SlotDecision(slot, Verdict.UNDECIDED)
        assert c._coin_outputs == {}
        dag.insert(make_block(1, 5, parents, coin_share=CoinShare(1, 5)))
        assert c._slot_leader(slot) == leader_of(slot, committee, c.coin.output_for(1))
        assert c._coin_outputs == {1: c.coin.output_for(1)}


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
        twin = make_block(0, 2, [proposals[x].ref for x in range(1, 6)], (b"twin",))
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
        twin = make_block(0, 2, [proposals[x].ref for x in range(1, 6)], (b"twin",))
        for _ in range(2):  # the second pass has a decision-round equivocator
            for rank in range(6):
                slot = LeaderSlot(1, rank)
                assert committer.try_direct_decide(slot) == direct_decide(dag, slot, committee, 2)
            dag.insert(twin)


class TestVerdictObjects:
    def test_one_object_per_verdict_per_committee(self):
        """Committers of one committee that reach one verdict get the
        committee's one object; a different committed digest gets another."""
        committee = Committee.of_size(6)
        slot = LeaderSlot(1, 0)  # led by member 1

        def committer(txs):
            dag = Dag(committee)
            full_round(dag, committee, 1, txs)
            full_round(dag, committee, 2)
            return Committer(dag, committee)

        first, again = (committer(b"x").try_direct_decide(slot) for _ in range(2))
        other = committer(b"y").try_direct_decide(slot)
        assert first.verdict is other.verdict is Verdict.COMMIT
        assert again is first
        assert other is not first and other.block != first.block

    def test_one_slot_object_per_committee(self, monkeypatch):
        """Committers of one committee evaluate each slot as the committee's
        one `LeaderSlot` object."""
        committee = Committee.of_size(6)
        evaluated = []
        real = Committer.try_direct_decide

        def recording(committer, slot):
            evaluated.append(slot)
            return real(committer, slot)

        monkeypatch.setattr(Committer, "try_direct_decide", recording)
        for _ in range(2):
            dag = Dag(committee)
            for r in (1, 2, 3):
                full_round(dag, committee, r)
            Committer(dag, committee).extend()
        first, second = evaluated[: len(evaluated) // 2], evaluated[len(evaluated) // 2 :]
        assert first and first == second
        assert all(a is b for a, b in zip(first, second))


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
        assert 0 <= out < 6
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
        out = linearize_sub_dags([leader.ref], dag, emitted)
        # all round-2 parents first (in parent order), the leader last
        assert out[-1] == leader.ref
        assert [r.round for r in out] == [2] * 6 + [3]
        assert [r.author for r in out[:-1]] == list(range(6))

    def test_shared_history_emitted_once(self):
        committee, dag = chain_dag()
        first = dag.first_block_by(0, 2)
        second = dag.first_block_by(1, 2)
        emitted = {b.digest for b in dag.blocks_at_round(0)}
        out = linearize_sub_dags([first.ref, second.ref], dag, emitted)
        assert len(out) == len({r.digest for r in out})
        # the second batch adds only the second leader itself
        assert out[-1] == second.ref
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
        out = linearize_sub_dags([b3.ref], dag, emitted)
        assert out == [b1.ref, b2.ref, b3.ref]


class TestExtendCommitSequence:
    def decisions(self, dag):
        a = dag.first_block_by(0, 1).ref
        b = dag.first_block_by(1, 1).ref
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
        committer.extend()
        decided = committer.decided_slots()
        # an undecided slot has no entry
        assert [decided.get(LeaderSlot(1, rank)) for rank in (0, 1)] == [None] * 2
        assert committer.sequence == []

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
    a = dag.first_block_by(0, 1).ref
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
