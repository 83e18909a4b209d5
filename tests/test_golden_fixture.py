"""Golden fixture: six validators, two leader slots per round.

The reference pattern is hand-built so that, naming round-2 leader slots
L0a/L0b, round-3 slots L1a/L1b, and round-4 slots L2a/L2b:

* L2b is committed directly by five round-5 votes and L2a is skipped
  directly by five round-5 blocks that reach no block of its leader;
* L1a commits directly, L1b stays undecided (its anchor is undecided);
* neither round-2 slot resolves directly; anchored at L2b, L0b commits
  through a weak certificate containing the votes of validators 0, 1, 2,
  while L0a has only two anchor-linked supporters and is skipped;
* the leader sequence extends [.., L0b, L1a] and stops at L1b, and L1a's
  batch linearizes exactly the four not-yet-delivered round-2 blocks.
"""

import pytest

from pentabft.committer import (
    Committer,
    LeaderSlot,
    Verdict,
    anchored_supports,
    decisions_to_trace,
    leader_of,
)
from pentabft.dagcore import Committee, Dag, genesis_blocks, make_block

from oracles import direct_decide, link, linearize_sub_dags, tally_votes

# which single round-(r-1) author each round-r block omits from its parents
OMIT_AT_ROUND_3 = {0: 2, 1: 2, 2: 4, 3: 2, 4: 3, 5: 3}
OMIT_AT_ROUND_4 = {0: 4, 1: 4, 2: 5, 3: 5, 4: 3, 5: 4}
OMIT_AT_ROUND_5 = {0: 4, 1: 4, 2: 4, 3: 4, 4: 5, 5: 4}


def build_fixture():
    committee = Committee.of_size(6)
    dag = Dag(committee)
    blocks = {(g.author, 0): g for g in genesis_blocks(committee)}
    for r, omissions in ((1, None), (2, None), (3, OMIT_AT_ROUND_3),
                         (4, OMIT_AT_ROUND_4), (5, OMIT_AT_ROUND_5)):
        for a in committee.members:
            parents = [
                blocks[(p, r - 1)].ref()
                for p in committee.members
                if omissions is None or omissions[a] != p
            ]
            block = make_block(a, r, parents, (f"{a}/{r}".encode(),))
            assert dag.insert(block).status.value == "inserted"
            blocks[(a, r)] = block
    return committee, dag, blocks


@pytest.fixture(scope="module")
def fixture():
    return build_fixture()


def test_leader_slot_layout(fixture):
    committee, _, _ = fixture
    assert leader_of(LeaderSlot(2, 0), committee) == 2  # L0a
    assert leader_of(LeaderSlot(2, 1), committee) == 3  # L0b
    assert leader_of(LeaderSlot(3, 0), committee) == 3  # L1a
    assert leader_of(LeaderSlot(4, 1), committee) == 5  # L2b


def test_round_two_tallies(fixture):
    committee, dag, blocks = fixture
    l0a, l0b = blocks[(2, 2)], blocks[(3, 2)]
    assert tally_votes(dag, 3, l0b) == (4, 2)
    assert tally_votes(dag, 3, l0a) == (3, 3)


def test_decisions_match_reference(fixture):
    committee, dag, blocks = fixture
    committer = Committer(dag, committee, leaders_per_round=2)
    decisions = committer.try_decide(0, 5)
    by_slot = {d.slot: d for d in decisions}

    assert by_slot[LeaderSlot(2, 0)].verdict is Verdict.SKIP  # L0a
    l0b = by_slot[LeaderSlot(2, 1)]
    assert l0b.verdict is Verdict.COMMIT
    assert l0b.block == blocks[(3, 2)].ref()
    l1a = by_slot[LeaderSlot(3, 0)]
    assert l1a.verdict is Verdict.COMMIT
    assert l1a.block == blocks[(3, 3)].ref()
    assert by_slot[LeaderSlot(3, 1)].verdict is Verdict.UNDECIDED  # L1b
    assert by_slot[LeaderSlot(4, 0)].verdict is Verdict.SKIP  # L2a
    l2b = by_slot[LeaderSlot(4, 1)]
    assert l2b.verdict is Verdict.COMMIT
    assert l2b.block == blocks[(5, 4)].ref()
    for slot in (LeaderSlot(5, 0), LeaderSlot(5, 1)):
        assert by_slot[slot].verdict is Verdict.UNDECIDED


def test_direct_rules_fire_where_expected(fixture):
    committee, dag, blocks = fixture
    committer = Committer(dag, committee, leaders_per_round=2)
    assert committer.try_direct_decide(LeaderSlot(4, 1)).verdict is Verdict.COMMIT
    assert committer.try_direct_decide(LeaderSlot(4, 0)).verdict is Verdict.SKIP
    assert committer.try_direct_decide(LeaderSlot(2, 1)).verdict is Verdict.UNDECIDED
    assert committer.try_direct_decide(LeaderSlot(2, 0)).verdict is Verdict.UNDECIDED


def test_direct_rule_matches_tally_oracles(fixture):
    committee, dag, blocks = fixture
    committer = Committer(dag, committee, leaders_per_round=2)
    for r in range(1, 5):
        for rank in (0, 1):
            slot = LeaderSlot(r, rank)
            assert committer.try_direct_decide(slot) == direct_decide(dag, slot, committee, 2)


def test_anchor_passes_over_skipped_slot(fixture):
    committee, dag, blocks = fixture
    committer = Committer(dag, committee, leaders_per_round=2)
    decisions = committer.try_decide(0, 5)
    later = [d for d in decisions if d.slot.round > 2]
    # the anchored weak certificate commits L0b and rejects L0a
    l0b = committer.try_indirect_decide(LeaderSlot(2, 1), later)
    assert l0b.verdict is Verdict.COMMIT and l0b.block == blocks[(3, 2)].ref()
    l0a = committer.try_indirect_decide(LeaderSlot(2, 0), later)
    assert l0a.verdict is Verdict.SKIP


def test_anchored_weak_certificate_members(fixture):
    committee, dag, blocks = fixture
    anchor = blocks[(5, 4)].ref()  # L2b
    assert anchored_supports(dag, 3, blocks[(3, 2)], anchor) >= committee.weak_quorum
    assert anchored_supports(dag, 3, blocks[(2, 2)], anchor) < committee.weak_quorum
    # the cited certificate blocks are all linked from the anchor
    linked = dag.ancestors_at_round(anchor, 3)
    for voter in (0, 1, 2):
        assert blocks[(voter, 3)].digest in linked
        assert dag.is_vote(blocks[(voter, 3)].ref(), blocks[(3, 2)].ref())


def test_commit_sequence_and_linearization(fixture):
    committee, dag, blocks = fixture
    committer = Committer(dag, committee, leaders_per_round=2)
    committer.extend()
    # the sequence ends right before the undecided L1b
    assert [ (d.slot.round, d.slot.rank, d.verdict.value) for d in committer.sequence ][-3:] == [
        (2, 0, "skip"),
        (2, 1, "commit"),
        (3, 0, "commit"),
    ]
    assert committer.committed_leaders[-2:] == [blocks[(3, 2)].ref(), blocks[(3, 3)].ref()]

    emitted = {b.digest for (a, r), b in blocks.items() if r < 2}
    tail = linearize_sub_dags(
        [blocks[(3, 2)].ref(), blocks[(3, 3)].ref()], dag, emitted
    )
    expected = [
        blocks[(3, 2)].ref(),  # L0b alone: its history is already delivered
        blocks[(0, 2)].ref(),
        blocks[(1, 2)].ref(),
        blocks[(4, 2)].ref(),
        blocks[(5, 2)].ref(),
        blocks[(3, 3)].ref(),  # L1a closes its own batch
    ]
    assert tail == expected


def test_trace_is_reproducible(fixture):
    committee, dag, blocks = fixture
    one = Committer(dag, committee, leaders_per_round=2)
    two = Committer(dag, committee, leaders_per_round=2)
    assert decisions_to_trace(one.try_decide(0, 5)) == decisions_to_trace(two.try_decide(0, 5))


def test_vote_equals_link_for_adjacent_rounds(fixture):
    _, dag, blocks = fixture
    for r in (1, 2, 3, 4):
        for (a, ra), older in blocks.items():
            if ra != r:
                continue
            for (b, rb), newer in blocks.items():
                if rb != r + 1:
                    continue
                assert dag.is_vote(newer.ref(), older.ref()) == link(
                    dag, older.ref(), newer.ref()
                )
