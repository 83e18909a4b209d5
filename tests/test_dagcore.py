"""Block validity, DAG storage, and the deterministic vote traversal."""

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    encode_block_body,
    genesis_blocks,
    make_block,
    unpruned,
    validate_block,
)

from pentabft.scenarios import async_fault_free, equivocate_f

from oracles import dump_dag, equivocation_of, insert_outcome, is_vote, link, run_with_history


def full_round(dag, committee, r, txs=b""):
    """One block per member at round r referencing every round r-1 block."""
    parents = [dag.first_block_by(a, r - 1).ref for a in sorted(dag.authors_at_round(r - 1))]
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
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        validate_block(make_block(0, 2, parents), committee)

    def test_genesis_has_no_parents(self, committee):
        for g in genesis_blocks(committee):
            validate_block(g, committee)

    def test_four_parents_insufficient(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(4)]
        with pytest.raises(InsufficientParents):
            validate_block(make_block(0, 2, parents), committee)

    def test_bad_tag_rejected(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        forged = Block(0, 2, tuple(parents), (), None, auth_tag_for(3))
        with pytest.raises(BadSignature):
            validate_block(forged, committee)

    def test_forged_copy_does_not_poison_the_honest_block(self, committee, dag):
        # the digest leaves out the tag: a forged copy shares the honest digest
        full_round(dag, committee, 1)
        parents = tuple(dag.first_block_by(a, 1).ref for a in range(5))
        honest = make_block(0, 2, parents)
        forged = Block(0, 2, parents, (), None, auth_tag_for(3))
        assert forged.digest == honest.digest
        with pytest.raises(BadSignature):
            validate_block(forged, committee)
        validate_block(honest, committee)
        with pytest.raises(BadSignature):
            validate_block(Block(0, 2, parents, (), None, auth_tag_for(4)), committee)

    def test_non_member_author_rejected(self, committee):
        with pytest.raises(BadSignature):
            validate_block(make_block(9, 0, ()), committee)

    def test_wrong_parent_round(self, committee, dag):
        full_round(dag, committee, 1)
        full_round(dag, committee, 2)
        parents = [dag.first_block_by(a, 1).ref for a in range(4)]
        parents.append(dag.first_block_by(5, 2).ref)
        with pytest.raises(WrongParentRound):
            validate_block(make_block(0, 3, parents), committee)

    def test_duplicate_parent_author(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        parents.append(parents[0])
        with pytest.raises(DuplicateParentAuthor):
            validate_block(make_block(0, 2, parents), committee)

    def test_async_blocks_need_bound_coin_share(self):
        committee = Committee.of_size(6, Mode.ASYNC)
        dag = Dag(committee)
        parents = [dag.first_block_by(a, 0).ref for a in range(5)]
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
        orphan_parent = make_block(0, 1, [g.ref for g in genesis_blocks(committee)], (b"x",))
        child = make_block(1, 2, [orphan_parent.ref] + [
            dag.first_block_by(a, 1).ref for a in range(1, 5)
        ])
        outcome = dag.insert(child)
        assert outcome.status is InsertStatus.MISSING_ANCESTORS
        assert outcome.missing == (orphan_parent.ref,)
        assert child.ref not in dag

    def test_equivocation_indexed_on_second_insert(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
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
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        blocks = [make_block(2, 2, parents, (bytes([i]),)) for i in range(3)]
        for b in blocks:
            dag.insert(b)
        lowest = sorted(b.digest for b in blocks)[:2]
        pair = equivocation_of(dag, 2, 2)
        assert [pair[0].digest, pair[1].digest] == lowest

    def test_author_index_follows_stored_blocks(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        low, high = sorted(
            (make_block(2, 2, parents, (b"a",)), make_block(2, 2, parents, (b"b",))),
            key=lambda b: b.digest,
        )
        other = make_block(4, 2, parents)

        def index(r):
            return set(dag.authors_at_round(r)), len(dag.authors_at_round(r))

        def from_blocks(r):
            authors = {b.author for b in dag.blocks_at_round(r)}
            return authors, len(authors)

        assert index(2) == from_blocks(2) == (set(), 0)
        # the higher-digest version is stored first, the lower one last
        for b in (high, other, low):
            dag.insert(b)
        assert dag.block_count(2) == len(dag.blocks_at_round(2)) == 3
        assert index(2) == from_blocks(2) == ({2, 4}, 2)
        assert dag.first_block_by(2, 2) is low
        assert dag.round_view(2) == {2: low, 4: other}
        assert list(dag.round_view(2)) == [2, 4]  # first-insert order kept
        assert dag.blocks_by(2, 2) == [low, high]
        assert dag.blocks_by(4, 2) == [other]
        assert dag.blocks_at_round(2) == [low, high, other]
        assert list(dag.equivocators(2)) == [2]
        assert not dag.equivocators(1)
        for b in (high, other):
            assert dag.insert(b).status is InsertStatus.DUPLICATE
        assert index(2) == from_blocks(2) == ({2, 4}, 2)
        assert dag.block_count(2) == 3
        assert index(1) == from_blocks(1) == (set(committee.members), 6)
        assert dag.block_count(1) == 6

    def test_honest_rounds_have_no_equivocation(self, committee, dag):
        for r in (1, 2, 3):
            full_round(dag, committee, r)
            for a in committee.members:
                assert equivocation_of(dag, a, r) is None


class TestStructuralFloor:
    """`Dag.insert` re-checks the parent quorum of a block that skipped
    `validate_block`."""

    def test_a_repeated_parent_author_fails_the_assert(self, committee, dag):
        parents = [g.ref for g in genesis_blocks(committee)][:5]
        block = make_block(0, 1, parents + parents[:1])
        with pytest.raises(AssertionError):
            dag.insert(block)

    def test_fewer_than_a_strong_quorum_of_parents_fails_the_assert(self, committee, dag):
        parents = [g.ref for g in genesis_blocks(committee)][:4]
        with pytest.raises(AssertionError):
            dag.insert(make_block(0, 1, parents))


class TestParentPresence:
    """`Dag.insert` tests a block's parents with the block's one-call
    `parent_lookup` and lists the missing ones in parent order, as the
    one-parent-at-a-time oracle does."""

    @staticmethod
    def round_one(committee):
        return [make_block(a, 1, [g.ref for g in genesis_blocks(committee)]) for a in range(6)]

    def dag_holding_round_one_but(self, committee, absent):
        dag = Dag(committee)
        round1 = self.round_one(committee)
        for i, b in enumerate(round1):
            if i not in absent:
                assert dag.insert(b).status is InsertStatus.INSERTED
        return dag, [b.ref for b in round1]

    @pytest.mark.parametrize("position", [0, 2, 5], ids=["first", "middle", "last"])
    def test_one_missing_parent_is_reported(self, committee, position):
        dag, refs = self.dag_holding_round_one_but(committee, {position})
        block = make_block(0, 2, refs)
        outcome = dag.insert(block)
        assert outcome.status is InsertStatus.MISSING_ANCESTORS
        assert outcome.missing == (refs[position],)
        assert block.ref not in dag

    def test_a_block_at_the_floor_needs_no_parents(self, committee):
        dag, refs = self.dag_holding_round_one_but(committee, set())
        for r in (2, 3):
            full_round(dag, committee, r)
        dag.prune(2)
        late = make_block(1, 2, refs[1:], (b"late",))  # its parents are pruned
        assert late.parent_lookup is not None
        assert dag.insert(late).status is InsertStatus.INSERTED

    def test_a_parent_stored_as_another_object_counts(self, committee):
        """Parents are found by digest: a parent held as a copy of the block
        the child names is present, and a copy of a stored block is a
        duplicate."""
        dag = Dag(committee)
        round1 = self.round_one(committee)
        for b in round1:
            assert dag.insert(replace(b)).status is InsertStatus.INSERTED
        assert all(dag.get(b.ref) is not b for b in round1)
        child = make_block(0, 2, [b.ref for b in round1])
        assert dag.insert(child).status is InsertStatus.INSERTED
        assert dag.insert(replace(child)).status is InsertStatus.DUPLICATE

    def test_a_genesis_block_has_no_lookup(self, committee):
        assert {g.parent_lookup for g in genesis_blocks(committee)} == {None}

    @staticmethod
    def spy_on_lookup(block):
        """Count calls of `block.parent_lookup`, which still does its job."""
        calls = []
        lookup = block.parent_lookup

        def spy(mapping):
            calls.append(block.ref)
            return lookup(mapping)

        object.__setattr__(block, "parent_lookup", spy)
        return calls

    def test_a_parent_set_that_just_passed_is_not_looked_up_again(self, committee):
        """Each block builds its own parent-digest tuple, so the memo must
        compare by value: a sibling citing the same parents skips the lookup,
        and a block citing other parents does not."""
        dag, refs = self.dag_holding_round_one_but(committee, set())
        first = make_block(0, 2, refs)
        assert dag.insert(first).status is InsertStatus.INSERTED
        sibling = make_block(1, 2, refs)
        assert sibling.parent_digests == first.parent_digests
        assert sibling.parent_digests is not first.parent_digests
        calls = self.spy_on_lookup(sibling)
        assert dag.insert(sibling).status is InsertStatus.INSERTED
        assert calls == []
        other = make_block(2, 2, refs[:5])
        calls = self.spy_on_lookup(other)
        assert dag.insert(other).status is InsertStatus.INSERTED
        assert calls == [other.ref]

    def test_one_unstored_fork_among_the_passed_parents_is_missing(self, committee):
        """A parent set of the same length that differs from the memo in one
        digest, an unstored fork version, is looked up and reported."""
        dag, refs = self.dag_holding_round_one_but(committee, set())
        assert dag.insert(make_block(0, 2, refs)).status is InsertStatus.INSERTED
        fork = make_block(3, 1, [g.ref for g in genesis_blocks(committee)], (b"fork",))
        forked_refs = refs[:3] + [fork.ref] + refs[4:]
        outcome = dag.insert(make_block(1, 2, forked_refs))
        assert outcome.status is InsertStatus.MISSING_ANCESTORS
        assert outcome.missing == (fork.ref,)

    def test_a_prune_forgets_the_parent_set_that_passed(self, committee):
        """A block may cite a parent two rounds down (the DAG does not check
        parent rounds). Once a prune drops that parent, a block citing the
        same parents must report it missing."""
        dag, round1 = self.dag_holding_round_one_but(committee, set())
        round2 = full_round(dag, committee, 2)
        parents = [b.ref for b in round2[:5]] + [round1[5]]
        assert dag.insert(make_block(0, 3, parents)).status is InsertStatus.INSERTED
        dag.prune(2)
        outcome = dag.insert(make_block(1, 3, parents))
        assert outcome.status is InsertStatus.MISSING_ANCESTORS
        assert outcome.missing == (round1[5],)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_insert_agrees_with_the_oracle(self, data):
        """Up to three blocks of the parent round absent, parents or not, in
        any parent order, with the block below, at or above the floor:
        `insert` gives the oracle's status and missing refs, and a second
        insert of the same block too. Absent positions are drawn in parent
        order, so a lone missing first, middle or last parent comes up."""
        committee = Committee.of_size(6)
        holder = Dag(committee)
        rounds = [list(genesis_blocks(committee))]
        rounds.extend(full_round(holder, committee, r) for r in (1, 2, 3))
        r = data.draw(st.integers(2, 4), label="round")
        count = data.draw(st.integers(5, 6), label="parent count")
        order = data.draw(st.permutations(rounds[r - 1]), label="parent order")
        parents = order[:count]
        chosen = data.draw(st.sets(st.integers(0, 5), max_size=3), label="absent")
        absent = {order[i] for i in chosen}
        floor = data.draw(st.integers(0, r + 1), label="floor")
        dag = Dag(committee)
        for below in rounds[1 : r - 1]:
            for b in below:
                dag.insert(b)
        for b in rounds[r - 1]:
            if b not in absent:
                dag.insert(b)
        dag.prune(floor)
        block = make_block(0, r, [p.ref for p in parents], (b"probe",))
        for _ in range(2):
            want = insert_outcome(dag, block)
            outcome = dag.insert(block)
            assert (outcome.status, outcome.missing) == want


class TestQuorumStamp:
    """A round gets a stamp, the DAG size, once it holds blocks by 4f+1
    authors; every later block stored at it moves the stamp."""

    def test_genesis_round_is_quorate(self, committee, dag):
        assert dag.quorate(0)
        assert dag.quorum_stamp == dag.quorum_stamps[0] == len(dag) == committee.size

    def test_stamp_appears_at_the_strong_quorum(self, committee, dag):
        parents = [dag.first_block_by(a, 0).ref for a in range(5)]
        for author in range(4):  # 4f authors
            dag.insert(make_block(author, 1, parents))
        assert len(dag.authors_at_round(1)) == 4 * committee.f
        assert not dag.quorate(1) and 1 not in dag.quorum_stamps
        assert dag.quorum_stamp == committee.size  # still genesis's
        dag.insert(make_block(4, 1, parents))
        assert dag.quorate(1)
        assert dag.quorum_stamp == dag.quorum_stamps[1] == len(dag)
        dag.insert(make_block(5, 1, parents))
        assert dag.quorum_stamp == dag.quorum_stamps[1] == len(dag)

    def test_forked_version_at_a_quorate_round_moves_the_stamp(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        for author in range(5):
            dag.insert(make_block(author, 2, parents, (b"a",)))
        stamp = dag.quorum_stamps[2]
        dag.insert(make_block(2, 2, parents, (b"b",)))
        assert list(dag.equivocators(2)) == [2]
        assert len(dag.authors_at_round(2)) == 5
        assert dag.quorum_stamp == dag.quorum_stamps[2] == len(dag) == stamp + 1
        # a fork below the quorum stamps nothing
        above = [dag.first_block_by(a, 2).ref for a in range(5)]
        for txs in (b"a", b"b"):
            dag.insert(make_block(0, 3, above, (txs,)))
        assert list(dag.equivocators(3)) == [0]
        assert not dag.quorate(3)
        assert dag.quorum_stamp == stamp + 1


class TestCommitteeMemo:
    def test_ancestors_of_an_unknown_ref_raise_after_a_sibling_cached_them(self, committee):
        holder = Dag(committee)
        round1 = full_round(holder, committee, 1)
        top = full_round(holder, committee, 2)[0].ref
        assert holder.ancestors_at_round(top, 1) == {b.digest for b in round1}
        sibling = Dag(committee)
        full_round(sibling, committee, 1)
        with pytest.raises(UnknownBlockError):
            sibling.ancestors_at_round(top, 1)

    def test_siblings_share_one_memo(self, committee):
        holder, sibling = Dag(committee), Dag(committee)
        for dag in (holder, sibling):
            full_round(dag, committee, 1)
            full_round(dag, committee, 2)
        support = full_round(holder, committee, 3)[0]
        voted = holder.voted_block(support, 1, 1)
        assert voted is not None
        assert committee.memo.votes[1][(support.digest, 1)] == voted
        assert sibling.insert(support).status is InsertStatus.INSERTED
        assert sibling.voted_block(support, 1, 1) == voted
        assert Committee.of_size(6).memo is not committee.memo

    def test_every_dag_of_a_committee_stores_the_same_genesis_objects(self, committee):
        genesis = genesis_blocks(committee)
        assert type(genesis) is tuple and genesis_blocks(committee) is genesis
        for dag in (Dag(committee), Dag(committee)):
            assert [dag.first_block_by(m, 0) for m in committee.members] == list(genesis)
            assert all(dag.first_block_by(g.author, 0) is g for g in genesis)
        other = genesis_blocks(Committee.of_size(6, epoch=1))
        assert {g.digest for g in other}.isdisjoint(g.digest for g in genesis)


class TestPrune:
    """The floor is the lowest round held: rounds below it are dropped, a
    block below it is refused and a block at it is stored without parents."""

    def test_rounds_below_the_floor_are_dropped(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [b.ref for b in genesis_blocks(committee)]
        dag.insert(make_block(2, 1, parents, (b"fork",)))
        for r in (2, 3, 4):
            full_round(dag, committee, r)
        stored, stamp, highest = dag.stored, dag.quorum_stamp, dict(dag.highest)
        dag.prune(2)
        assert dag.floor == 2 and len(dag) == 3 * committee.size
        assert len(dag.authors_at_round(1)) == 0 and dag._forks == {}
        assert sorted(dag.quorum_stamps) == [2, 3, 4]
        assert (dag.stored, dag.quorum_stamp, dag.highest) == (stored, stamp, highest)
        dag.prune(1)  # the floor never falls
        assert dag.floor == 2

    def test_intake_around_the_floor(self, committee, dag):
        for r in (1, 2, 3):
            full_round(dag, committee, r)
        round1 = [dag.first_block_by(a, 1).ref for a in range(5)]
        round2 = [dag.first_block_by(a, 2).ref for a in range(5)]
        dag.prune(2)
        below = make_block(0, 2 - 1, [b.ref for b in genesis_blocks(committee)][:5], (b"x",))
        assert dag.insert(below).status is InsertStatus.BELOW_FLOOR
        at = make_block(1, 2, round1, (b"late",))  # its parents are gone
        assert dag.insert(at).status is InsertStatus.INSERTED
        assert list(dag.equivocators(2)) == [1]
        missing = BlockRef(5, 3, bytes(16))
        above = make_block(0, 4, round2[:4] + [missing])
        outcome = dag.insert(above)
        assert outcome.status is InsertStatus.MISSING_ANCESTORS
        assert outcome.missing == (missing,)

    def test_stamps_move_after_a_prune(self, committee, dag):
        for r in (1, 2):
            full_round(dag, committee, r)
        dag.prune(2)
        stamp = dag.quorum_stamp
        full_round(dag, committee, 3)
        assert dag.quorum_stamp == dag.quorum_stamps[3] == stamp + committee.size

    def test_memo_is_trimmed_below_the_lowest_floor(self, committee):
        holder, sibling = Dag(committee), Dag(committee)
        for dag in (holder, sibling):
            for r in (1, 2, 3):
                for b in full_round(dag, committee, r):
                    validate_block(b, committee)
        memo = committee.memo
        support = holder.first_block_by(0, 3)
        voted = holder.voted_block(support, 1, 1)
        key = (support.digest, 1)
        assert memo.votes[1][key] == voted
        round1 = {holder.first_block_by(a, 1).digest for a in range(6)}
        assert round1 <= memo.valid[1].keys()
        holder.prune(3)
        assert memo.floor == 0 and key in memo.votes[1]  # the sibling still reads round 1
        sibling.prune(2)
        assert memo.floor == 2 and 1 not in memo.votes
        assert 0 not in memo.valid and 1 not in memo.valid
        assert {sibling.first_block_by(a, 2).digest for a in range(6)} <= memo.valid[2].keys()

    def test_memo_entry_made_below_the_lowest_floor_goes_at_the_next_rise(self, committee):
        holder, sibling = Dag(committee), Dag(committee)
        for dag in (holder, sibling):
            for r in (1, 2, 3):
                full_round(dag, committee, r)
        memo = committee.memo
        holder.prune(2)
        sibling.prune(2)
        assert memo.floor == 2 and 1 not in memo.votes
        # a sibling's own reads reach no lower, but a direct caller may ask
        support = sibling.first_block_by(0, 3)
        voted = sibling.voted_block(support, 1, 1)
        assert memo.votes[1][(support.digest, 1)] == voted
        holder.prune(3)
        assert memo.floor == 2 and 1 in memo.votes  # the lowest floor did not rise
        sibling.prune(3)
        assert memo.floor == 3 and 1 not in memo.votes


class TestLink:
    def test_self_link(self, committee, dag):
        g = dag.first_block_by(0, 0)
        assert link(dag, g.ref, g.ref)

    def test_direct_parent(self, committee, dag):
        (b, *_) = full_round(dag, committee, 1)
        g = dag.first_block_by(0, 0)
        assert link(dag, g.ref, b.ref)

    def test_edges_point_downward_only(self, committee, dag):
        (b, *_) = full_round(dag, committee, 1)
        g = dag.first_block_by(0, 0)
        assert not link(dag, b.ref, g.ref)

    def test_unknown_block_raises(self, committee, dag):
        phantom = BlockRef(0, 9, b"\x00" * 16)
        with pytest.raises(UnknownBlockError):
            link(dag, phantom, dag.first_block_by(0, 0).ref)

    def test_transitive(self, committee, dag):
        full_round(dag, committee, 1)
        full_round(dag, committee, 2)
        (b3, *_) = full_round(dag, committee, 3)
        g = dag.first_block_by(4, 0)
        assert link(dag, g.ref, b3.ref)


def build_vote_fixture():
    """Propose round with an equivocating pair, then the vote round.

    Voters 0-4 reference proposals 0-4 (one equivocation variant), voter 5
    references the other variant plus proposals 2-5.
    """
    committee = Committee.of_size(6)
    dag = Dag(committee)
    genesis = {g.author: g.ref for g in genesis_blocks(committee)}
    proposals = {}
    for a in committee.members:
        p = make_block(a, 1, [genesis[x] for x in sorted(genesis)], (b"p",))
        dag.insert(p)
        proposals[a] = p
    prime = make_block(1, 1, [genesis[x] for x in sorted(genesis)], (b"p-prime",))
    dag.insert(prime)
    votes = {}
    for a in range(5):
        v = make_block(a, 2, [proposals[x].ref for x in range(5)], (b"v",))
        dag.insert(v)
        votes[a] = v
    v5_parents = [prime.ref] + [proposals[x].ref for x in range(2, 6)]
    votes[5] = make_block(5, 2, v5_parents, (b"v",))
    dag.insert(votes[5])
    return committee, dag, proposals, prime, votes


class TestIsVote:
    def test_votes_follow_references(self):
        _, dag, proposals, prime, votes = build_vote_fixture()
        assert is_vote(dag, votes[0].ref, proposals[0].ref)
        assert not is_vote(dag, votes[5].ref, proposals[0].ref)
        assert is_vote(dag, votes[5].ref, prime.ref)
        assert not is_vote(dag, votes[5].ref, proposals[1].ref)

    def test_direct_reference_agrees_with_link(self):
        _, dag, proposals, prime, votes = build_vote_fixture()
        for vote in votes.values():
            for target in list(proposals.values()) + [prime]:
                assert is_vote(dag, vote.ref, target.ref) == link(
                    dag, target.ref, vote.ref
                )

    def test_traversal_order_resolves_equivocating_pair(self):
        _, dag, proposals, prime, votes = build_vote_fixture()
        # both paths present: the first parent's subtree wins
        others = [votes[x].ref for x in (1, 2, 3)]
        via_prime = make_block(0, 3, [votes[5].ref, votes[0].ref] + others)
        dag.insert(via_prime)
        assert is_vote(dag, via_prime.ref, prime.ref)
        assert not is_vote(dag, via_prime.ref, proposals[1].ref)
        via_plain = make_block(1, 3, [votes[0].ref, votes[5].ref] + others)
        dag.insert(via_plain)
        assert is_vote(dag, via_plain.ref, proposals[1].ref)
        assert not is_vote(dag, via_plain.ref, prime.ref)

    def test_repeated_queries_are_stable(self):
        _, dag, proposals, _, votes = build_vote_fixture()
        first = [is_vote(dag, votes[i].ref, proposals[0].ref) for i in range(6)]
        second = [is_vote(dag, votes[i].ref, proposals[0].ref) for i in range(6)]
        assert first == second


def per_voter_votes(dag, voter_round, author, r):
    """`round_votes` spelled out: `voted_block` per unforked voter."""
    forked = dag.equivocators(voter_round)
    return [
        dag.voted_block(block, author, r)
        for a, block in dag.round_view(voter_round).items()
        if a not in forked
    ]


class TestRoundVotes:
    """`Dag.round_votes` gives what `voted_block` gives per voter, in the
    stored history of a run."""

    def test_adjacent_rounds_leave_forked_authors_out(self):
        result, history = run_with_history(equivocate_f(rounds=10), 7)
        dag = history(result.epochs[0].validators[0])
        members = dag.committee.members
        forked_rounds = 0
        for voter_round in range(1, dag.max_round + 1):
            forked_rounds += bool(dag.equivocators(voter_round))
            r = voter_round - 1
            for author in members:
                votes = dag.round_votes(voter_round, author, r)
                assert votes == per_voter_votes(dag, voter_round, author, r)
        assert forked_rounds > 0

    def test_two_rounds_deep_with_a_cold_and_a_warm_memo(self, monkeypatch):
        result, history = run_with_history(async_fault_free(1, rounds=12), 1)
        run_dag = history(result.epochs[0].validators[0])
        blocks = [b for r in range(run_dag.max_round + 1) for b in run_dag.blocks_at_round(r)]

        def fresh():
            # a committee of its own gives the DAG a cold vote memo
            c = run_dag.committee
            return unpruned(Committee(c.members, c.f, c.mode, c.epoch), blocks)

        dag, reference = fresh(), fresh()
        calls = []
        voted_block = dag.voted_block
        monkeypatch.setattr(
            dag, "voted_block", lambda *args: calls.append(args) or voted_block(*args)
        )
        queries = [
            (voter_round, author, voter_round - 2)
            for voter_round in range(2, dag.max_round + 1)
            for author in dag.committee.members
        ]
        expected = [per_voter_votes(reference, *q) for q in queries]
        assert any(v is not None for votes in expected for v in votes)
        assert [dag.round_votes(*q) for q in queries] == expected  # cold
        assert calls
        calls.clear()
        assert [dag.round_votes(*q) for q in queries] == expected  # warm
        assert calls == []


class TestSerialization:
    def test_block_body_bytes_are_pinned(self):
        parents = (BlockRef(1, 6, bytes(range(16))), BlockRef(4, 6, bytes(range(16, 32))))
        body = encode_block_body(3, 7, parents, (b"tx-a", b"tx-bb"), CoinShare(3, 7))
        assert body.hex() == (
            "00000003" "0000000000000007" "00000002"
            "00000001" "0000000000000006" "000102030405060708090a0b0c0d0e0f"
            "00000004" "0000000000000006" "101112131415161718191a1b1c1d1e1f"
            "00000002" "00000004" "74782d61" "00000005" "74782d6262"
            "01" "00000003" "0000000000000007"
        )

    def test_digests_of_other_lengths_encode_as_they_stand(self):
        """A parent's digest is appended as it is, whatever its length, on
        the first encoding that names the ref and on every later one."""
        parents = (BlockRef(2, 5, b"abc"), BlockRef(7, 5, bytes(range(20))), BlockRef(9, 5, b""))
        expected = (
            "00000001" "0000000000000006" "00000003"
            "00000002" "0000000000000005" "616263"
            "00000007" "0000000000000005" "000102030405060708090a0b0c0d0e0f10111213"
            "00000009" "0000000000000005"
            "00000000" "00"
        )
        for _ in range(2):
            assert encode_block_body(1, 6, parents, (), None).hex() == expected

    def test_a_malformed_ref_constructs_and_fails_when_encoded(self, committee, dag):
        full_round(dag, committee, 1)
        good = [dag.first_block_by(a, 1).ref for a in range(4)]
        digest = dag.first_block_by(4, 1).digest
        bad = BlockRef("1", 1, digest)
        assert bad.piece is None
        with pytest.raises(struct.error):
            make_block(0, 2, good + [bad])
        assert bad.piece is None
        # the refs encoded before the bad one keep their pieces
        assert all(ref.piece is not None for ref in good)

    def test_roundtrip(self, committee, dag):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        block = make_block(3, 2, parents, (b"tx-1", b""), CoinShare(3, 2))
        again = decode_block(block.encode())
        assert again == block
        assert again.parents == block.parents
        assert again.transactions == block.transactions
        assert again.coin_share == block.coin_share
        assert again.auth_tag == block.auth_tag

    @pytest.mark.parametrize("share", [None, CoinShare(3, 2)])
    def test_every_proper_prefix_raises_value_error(self, committee, dag, share):
        full_round(dag, committee, 1)
        parents = [dag.first_block_by(a, 1).ref for a in range(5)]
        data = make_block(3, 2, parents, (b"tx-1", b""), share).encode()
        for end in range(len(data)):
            with pytest.raises(ValueError):
                decode_block(data[:end])

    def test_digest_covers_content(self):
        a = make_block(0, 0, (), (b"x",))
        b = make_block(0, 0, (), (b"y",))
        assert a.digest != b.digest

    def test_dump_lists_every_block_once(self, committee, dag):
        full_round(dag, committee, 1)
        dump = dump_dag(dag)
        lines = dump.strip().splitlines()
        assert len(lines) == 12
        g = dag.first_block_by(0, 0)
        assert any(line.startswith(g.digest.hex()) for line in lines)
        b = dag.first_block_by(0, 1)
        line = next(l for l in lines if l.startswith(b.digest.hex()))
        fields = line.split()
        assert fields[1:3] == ["0", "1"]
        assert len(fields) == 3 + 6  # six parent digests


class TestBlockRef:
    def test_a_block_holds_one_ref_built_with_it(self):
        block = make_block(2, 0, (), (b"x",))
        assert block.ref is block.ref
        assert block.ref == BlockRef(2, 0, block.digest)
        assert block.ref.piece is None  # filled by the first body that names it

    def test_the_cached_piece_leaves_equality_hashing_and_order_alone(self):
        digest = bytes(range(16))
        named, fresh = BlockRef(1, 2, digest), BlockRef(1, 2, digest)
        encode_block_body(0, 3, (named,), (), None)
        assert named.piece == bytes.fromhex("00000001" "0000000000000002") + digest
        assert fresh.piece is None
        assert named == fresh and hash(named) == hash(fresh)
        assert not named < fresh and not fresh < named
        assert {named: 1}[fresh] == 1
        above = BlockRef(1, 2, bytes(range(1, 17)))
        assert named < above and fresh < above
        assert repr(named) == repr(fresh)


class TestPendingPool:
    def test_cascading_release(self, committee):
        dag = Dag(committee)
        pool = PendingPool()
        r1 = [
            make_block(a, 1, [g.ref for g in genesis_blocks(committee)])
            for a in committee.members
        ]
        r2 = make_block(0, 2, [b.ref for b in r1[:5]])
        pool.add(r2, [b.ref for b in r1[:5]], "v1", 0)
        for b in r1[:4]:
            dag.insert(b)
            assert pool.satisfy(b.digest) == []
        dag.insert(r1[4])
        ready = pool.satisfy(r1[4].digest)
        assert ready == [r2]
        assert len(pool) == 0

    def test_floor_drops_blocks_below_and_hands_back_those_at_it(self, committee):
        pool = PendingPool()
        missing = [BlockRef(a, r, bytes([a, r]) * 8) for a in range(5) for r in (1, 2, 3)]
        parked = {
            r: make_block(5, r + 1, [m for m in missing if m.round == r]) for r in (1, 2, 3)
        }
        for r, block in parked.items():
            pool.add(block, [m for m in missing if m.round == r], "v1", 0)
        assert pool.prune(3) == [parked[2]]  # round 2 is below, round 3 at the floor
        assert len(pool) == 1 and pool.has(parked[3].digest)
        # the request entries leave with the blocks that await them
        assert set(pool._asked) == {m.digest for m in missing if m.round == 3}
        assert set(pool._senders) == {parked[3].digest}
        assert pool.prune(3) == [] and pool.prune(2) == []
        assert pool.prune(5) == [] and len(pool) == 0 and not pool.awaited
        assert pool._asked == pool._senders == {}
