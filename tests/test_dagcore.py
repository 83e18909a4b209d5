"""Block validity, DAG storage, and the deterministic vote traversal."""

import pytest

from pentabft.dagcore import (
    BadSignature,
    Block,
    BlockRef,
    CoinShare,
    Committee,
    Dag,
    DuplicateParentAuthor,
    InsertStatus,
    InsufficientParents,
    MissingCoinShare,
    Mode,
    PendingPool,
    UnknownBlockError,
    WrongParentRound,
    auth_tag_for,
    decode_block,
    genesis_blocks,
    make_block,
    validate_block,
)

from oracles import equivocation_of, link


def full_round(dag, committee, r, txs=b""):
    """One block per member at round r referencing every round r-1 block."""
    parents = [dag.first_block_by(a, r - 1).ref() for a in sorted(dag.authors_at_round(r - 1))]
    blocks = []
    for m in committee.members:
        b = make_block(m, r, parents, (txs,) if txs else ())
        assert dag.insert(b).status is InsertStatus.INSERTED
        blocks.append(b)
    return blocks


@pytest.fixture
def committee():
    return Committee.of_size(6)


@pytest.fixture
def dag(committee):
    return Dag(committee)


class TestCommittee:
    def test_quorums_derived_from_f(self):
        c = Committee.of_size(11)
        assert (c.f, c.strong_quorum, c.weak_quorum) == (2, 9, 5)

    def test_size_must_cover_budget(self):
        with pytest.raises(ValueError):
            Committee(tuple(range(5)), 1)

    def test_reduced_committee_recomputes_budget(self):
        c = Committee((0, 1, 2, 3), 0, epoch=1)
        assert c.strong_quorum == 1


class TestValidateBlock:
    def test_five_distinct_parents_ok(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref() for a in range(5)]
        validate_block(make_block(0, 2, parents), committee)

    def test_genesis_has_no_parents(self, committee):
        for g in genesis_blocks(committee):
            validate_block(g, committee)

    def test_four_parents_insufficient(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref() for a in range(4)]
        with pytest.raises(InsufficientParents):
            validate_block(make_block(0, 2, parents), committee)

    def test_bad_tag_rejected(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref() for a in range(5)]
        forged = Block(0, 2, tuple(parents), (), None, auth_tag_for(3))
        with pytest.raises(BadSignature):
            validate_block(forged, committee)

    def test_non_member_author_rejected(self, committee):
        with pytest.raises(BadSignature):
            validate_block(make_block(9, 0, ()), committee)

    def test_wrong_parent_round(self, committee, dag):
        full_round(dag, committee, 1)
        full_round(dag, committee, 2)
        parents = [dag.first_block_by(a, 1).ref() for a in range(4)]
        parents.append(dag.first_block_by(5, 2).ref())
        with pytest.raises(WrongParentRound):
            validate_block(make_block(0, 3, parents), committee)

    def test_duplicate_parent_author(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref() for a in range(5)]
        parents.append(parents[0])
        with pytest.raises(DuplicateParentAuthor):
            validate_block(make_block(0, 2, parents), committee)

    def test_async_blocks_need_bound_coin_share(self):
        committee = Committee.of_size(6, Mode.ASYNC)
        dag = Dag(committee)
        parents = [dag.first_block_by(a, 0).ref() for a in range(5)]
        with pytest.raises(MissingCoinShare):
            validate_block(make_block(0, 1, parents), committee)
        with pytest.raises(MissingCoinShare):
            validate_block(make_block(0, 1, parents, coin_share=CoinShare(1, 1)), committee)
        validate_block(make_block(0, 1, parents, coin_share=CoinShare(0, 1)), committee)


class TestInsert:
    def test_insert_then_duplicate(self, committee, dag):
        (block, *_) = full_round(dag, committee, 1)
        assert dag.insert(block).status is InsertStatus.DUPLICATE
        assert len(dag.blocks_by(block.author, 1)) == 1

    def test_missing_ancestors_reported(self, committee, dag):
        full_round(dag, committee, 1)
        orphan_parent = make_block(0, 1, [g.ref() for g in genesis_blocks(committee)], (b"x",))
        child = make_block(1, 2, [orphan_parent.ref()] + [
            dag.first_block_by(a, 1).ref() for a in range(1, 5)
        ])
        outcome = dag.insert(child)
        assert outcome.status is InsertStatus.MISSING_ANCESTORS
        assert outcome.missing == (orphan_parent.ref(),)
        assert child.ref() not in dag

    def test_equivocation_indexed_on_second_insert(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref() for a in range(5)]
        one = make_block(2, 2, parents, (b"a",))
        two = make_block(2, 2, parents, (b"b",))
        dag.insert(one)
        assert equivocation_of(dag, 2, 2) is None
        dag.insert(two)
        pair = equivocation_of(dag, 2, 2)
        assert pair is not None
        assert {pair[0].digest, pair[1].digest} == {one.digest, two.digest}

    def test_three_equivocations_report_lowest_two(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref() for a in range(5)]
        blocks = [make_block(2, 2, parents, (bytes([i]),)) for i in range(3)]
        for b in blocks:
            dag.insert(b)
        lowest = sorted(b.digest for b in blocks)[:2]
        pair = equivocation_of(dag, 2, 2)
        assert [pair[0].digest, pair[1].digest] == lowest

    def test_honest_rounds_have_no_equivocation(self, committee, dag):
        for r in (1, 2, 3):
            full_round(dag, committee, r)
            for a in committee.members:
                assert equivocation_of(dag, a, r) is None


class TestLink:
    def test_self_link(self, committee, dag):
        g = dag.first_block_by(0, 0)
        assert link(dag, g.ref(), g.ref())

    def test_direct_parent(self, committee, dag):
        (b, *_) = full_round(dag, committee, 1)
        g = dag.first_block_by(0, 0)
        assert link(dag, g.ref(), b.ref())

    def test_edges_point_downward_only(self, committee, dag):
        (b, *_) = full_round(dag, committee, 1)
        g = dag.first_block_by(0, 0)
        assert not link(dag, b.ref(), g.ref())

    def test_unknown_block_raises(self, committee, dag):
        phantom = BlockRef(0, 9, b"\x00" * 16)
        with pytest.raises(UnknownBlockError):
            link(dag, phantom, dag.first_block_by(0, 0).ref())

    def test_transitive(self, committee, dag):
        full_round(dag, committee, 1)
        full_round(dag, committee, 2)
        (b3, *_) = full_round(dag, committee, 3)
        g = dag.first_block_by(4, 0)
        assert link(dag, g.ref(), b3.ref())


def build_vote_fixture():
    """Propose round with an equivocating pair, then the vote round.

    Voters 0-4 reference proposals 0-4 (one equivocation variant), voter 5
    references the other variant plus proposals 2-5.
    """
    committee = Committee.of_size(6)
    dag = Dag(committee)
    genesis = {g.author: g.ref() for g in genesis_blocks(committee)}
    proposals = {}
    for a in committee.members:
        p = make_block(a, 1, [genesis[x] for x in sorted(genesis)], (b"p",))
        dag.insert(p)
        proposals[a] = p
    prime = make_block(1, 1, [genesis[x] for x in sorted(genesis)], (b"p-prime",))
    dag.insert(prime)
    votes = {}
    for a in range(5):
        v = make_block(a, 2, [proposals[x].ref() for x in range(5)], (b"v",))
        dag.insert(v)
        votes[a] = v
    v5_parents = [prime.ref()] + [proposals[x].ref() for x in range(2, 6)]
    votes[5] = make_block(5, 2, v5_parents, (b"v",))
    dag.insert(votes[5])
    return committee, dag, proposals, prime, votes


class TestIsVote:
    def test_votes_follow_references(self):
        _, dag, proposals, prime, votes = build_vote_fixture()
        assert dag.is_vote(votes[0].ref(), proposals[0].ref())
        assert not dag.is_vote(votes[5].ref(), proposals[0].ref())
        assert dag.is_vote(votes[5].ref(), prime.ref())
        assert not dag.is_vote(votes[5].ref(), proposals[1].ref())

    def test_direct_reference_agrees_with_link(self):
        _, dag, proposals, prime, votes = build_vote_fixture()
        for vote in votes.values():
            for target in list(proposals.values()) + [prime]:
                assert dag.is_vote(vote.ref(), target.ref()) == link(
                    dag, target.ref(), vote.ref()
                )

    def test_traversal_order_resolves_equivocating_pair(self):
        _, dag, proposals, prime, votes = build_vote_fixture()
        # both paths present: the first parent's subtree wins
        others = [votes[x].ref() for x in (1, 2, 3)]
        via_prime = make_block(0, 3, [votes[5].ref(), votes[0].ref()] + others)
        dag.insert(via_prime)
        assert dag.is_vote(via_prime.ref(), prime.ref())
        assert not dag.is_vote(via_prime.ref(), proposals[1].ref())
        via_plain = make_block(1, 3, [votes[0].ref(), votes[5].ref()] + others)
        dag.insert(via_plain)
        assert dag.is_vote(via_plain.ref(), proposals[1].ref())
        assert not dag.is_vote(via_plain.ref(), prime.ref())

    def test_repeated_queries_are_stable(self):
        _, dag, proposals, _, votes = build_vote_fixture()
        first = [dag.is_vote(votes[i].ref(), proposals[0].ref()) for i in range(6)]
        second = [dag.is_vote(votes[i].ref(), proposals[0].ref()) for i in range(6)]
        assert first == second


class TestSerialization:
    def test_roundtrip(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref() for a in range(5)]
        block = make_block(3, 2, parents, (b"tx-1", b""), CoinShare(3, 2))
        again = decode_block(block.encode())
        assert again == block
        assert again.parents == block.parents
        assert again.transactions == block.transactions
        assert again.coin_share == block.coin_share
        assert again.auth_tag == block.auth_tag

    def test_digest_covers_content(self):
        a = make_block(0, 0, (), (b"x",))
        b = make_block(0, 0, (), (b"y",))
        assert a.digest != b.digest

    def test_dump_lists_every_block_once(self, committee, dag):
        full_round(dag, committee, 1)
        dump = dag.dump()
        lines = dump.strip().splitlines()
        assert len(lines) == 12
        g = dag.first_block_by(0, 0)
        assert any(line.startswith(g.digest.hex()) for line in lines)
        b = dag.first_block_by(0, 1)
        line = next(l for l in lines if l.startswith(b.digest.hex()))
        fields = line.split()
        assert fields[1:3] == ["0", "1"]
        assert len(fields) == 3 + 6  # six parent digests


class TestPendingPool:
    def test_cascading_release(self, committee):
        dag = Dag(committee)
        pool = PendingPool()
        r1 = [
            make_block(a, 1, [g.ref() for g in genesis_blocks(committee)])
            for a in committee.members
        ]
        r2 = make_block(0, 2, [b.ref() for b in r1[:5]])
        pool.add(r2, [b.ref() for b in r1[:5]])
        for b in r1[:4]:
            dag.insert(b)
            assert pool.satisfy(b.digest) == []
        dag.insert(r1[4])
        ready = pool.satisfy(r1[4].digest)
        assert ready == [r2]
        assert len(pool) == 0
