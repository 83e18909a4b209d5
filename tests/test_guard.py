"""Guard layer: liveness accounting, blamesets, equivocation resolution,
recovery agreement, and reconfiguration."""

from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentabft import guard as guard_module
from pentabft import messages as messages_module
from pentabft.committer import LeaderSlot, SlotDecision, Verdict, leader_of
from pentabft import scenarios
from pentabft.dagcore import (
    Block,
    BlockRef,
    CoinShare,
    Committee,
    Dag,
    genesis_blocks,
    make_block,
    stored_history,
    unpruned,
)
from pentabft.guard import (
    CLAIM_WINDOW,
    BlameSet,
    Guard,
    LIVENESS,
    LivenessProof,
    SAFETY,
    SafetyProof,
    apply_reconfiguration,
    is_valid_blameset,
    lblame_tag,
    recover_tag,
    relay_tag,
    update_tag,
)
from pentabft.messages import (
    SHAPES,
    AgreementRelay,
    Broadcast,
    BlockMsg,
    CoreUpdateMsg,
    LBlameMsg,
    RecoverProposal,
    RecoveryDone,
    SyncRequest,
    SyncResponse,
    guard_node,
)
from pentabft.runner import Runner
from pentabft.validator import CoreValidator

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
GUARDS = 5


def make_guard(me=0, committee=None):
    committee = committee or Committee.of_size(6)
    return Guard(me, committee, guard_count=GUARDS, delta=DELTA, leaders_per_round=2)


def full_round_blocks(dag, committee, r, payload=b"t"):
    parents = [
        dag.first_block_by(a, r - 1).ref for a in sorted(dag.authors_at_round(r - 1))
    ]
    return [make_block(a, r, parents, (payload,)) for a in committee.members]


def feed_round(guard, r, authors=None, now=0):
    committee = guard.committee
    blocks = full_round_blocks(guard.dag, committee, r)
    actions = []
    for b in blocks:
        if authors is None or b.author in authors:
            actions.extend(deliver(guard, [b], f"v{b.author}", now))
    return blocks, actions


def echoed(actions):
    """The blocks a guard's actions echo to every node."""
    return [
        a.payload.block
        for a in actions
        if isinstance(a, Broadcast) and isinstance(a.payload, BlockMsg)
    ]


def attest(accused, r, guards):
    return [LBlameMsg(g, accused, r, lblame_tag(g, accused, r)) for g in guards]


class TestLivenessAccounting:
    def test_valid_timely_block_clears_asleep_and_echoes(self):
        g = make_guard()
        blocks, actions = feed_round(g, 1, authors=(1,), now=100)
        assert 1 not in g.asleep(1)
        assert 0 in g.asleep(1)
        echoes = [a for a in actions if isinstance(a, Broadcast) and isinstance(a.payload, BlockMsg)]
        assert len(echoes) == 1

    def test_equivocating_block_not_considered(self):
        g = make_guard()
        feed_round(g, 1, now=100)
        parents = [g.dag.first_block_by(a, 1).ref for a in range(5)]
        one = make_block(2, 2, parents, (b"a",))
        two = make_block(2, 2, parents, (b"b",))
        deliver(g, [one], "v2", 200)
        assert 2 not in g.asleep(2) and 2 in g.seen[2]
        actions = deliver(g, [two], "v2", 300)
        assert echoed(actions) == []  # second version kept in the fork table only
        assert {b.digest for b in g.dag.blocks_by(2, 2)} == {one.digest, two.digest}
        assert 2 in g.dag.equivocators(2)

    def test_only_a_timely_first_version_is_echoed(self):
        g = make_guard()
        blocks, _ = feed_round(g, 1, authors=(0, 1, 2, 3, 4), now=100)
        stored = [b.ref for b in blocks[:5]]
        # timely first version, parked on author 5's undelivered block
        parked = make_block(2, 2, stored[:4] + [blocks[5].ref], (b"parked",))
        sibling = make_block(2, 2, stored, (b"sibling",))
        assert echoed(deliver(g, [parked], "v2", 150)) == [parked]
        assert parked.ref not in g.dag
        assert 2 in g.seen[2] and 2 not in g.asleep(2)
        assert echoed(deliver(g, [sibling], "v2", 160)) == []
        assert echoed(deliver(g, [blocks[5]], "v5", 170)) == [blocks[5]]
        assert parked.ref in g.dag and 2 in g.dag.equivocators(2)
        assert echoed(deliver(g, [parked], "g1", 180)) == []
        # late first version: the accounting clock passed round 2 meanwhile
        g.now_round = 3
        late = [make_block(4, 2, stored, (tag,)) for tag in (b"late-a", b"late-b")]
        for block in late:
            assert echoed(deliver(g, [block], "v4", 200)) == []
        assert 4 not in g.seen[2] and 4 in g.asleep(2)
        assert {b.digest for b in g.dag.blocks_by(4, 2)} == {b.digest for b in late}

    def test_held_block_skips_intake(self, monkeypatch):
        g = make_guard()
        block = full_round_blocks(g.dag, g.committee, 1)[1]
        checked = count_validations(monkeypatch, guard_module)
        assert echoed(deliver(g, [block], "v1", 100)) == [block]
        stored, seen = len(g.dag), {r: set(authors) for r, authors in g.seen.items()}
        inserted = count_inserts(monkeypatch)
        # another guard's echo brings the same object back
        assert g.ingest_block(block, "g1", 100) == []
        assert len(checked) == 1 and checked[0] is block and inserted == []
        assert (len(g.dag), g.seen) == (stored, seen)
        (held,) = g.dag.blocks_by(1, 1)
        assert held is block

    def test_forged_copy_of_a_held_block_is_still_rejected(self, monkeypatch):
        from pentabft.dagcore import Block, auth_tag_for

        g = make_guard()
        block = full_round_blocks(g.dag, g.committee, 1)[1]
        deliver(g, [block], "v1", 100)
        forged = Block(1, 1, block.parents, block.transactions, None, auth_tag_for(4))
        assert forged.digest == block.digest
        checked = count_validations(monkeypatch, guard_module)
        assert g.ingest_block(forged, "v4", 100) == []
        assert len(checked) == 1 and checked[0] is forged
        assert g.invalid_blocks == 1
        (held,) = g.dag.blocks_by(1, 1)
        assert held is block and 1 not in g.dag.equivocators(1)

    def test_late_block_ignored_for_liveness(self):
        g = make_guard()
        g.now_round = 3
        blocks = full_round_blocks(g.dag, g.committee, 1)
        deliver(g, [blocks[0]], "v0", 500)
        assert 0 in g.asleep(1)  # stored but not counted live
        assert g.dag.first_block_by(0, 1) is not None

    def test_round_entry_arms_three_timers(self):
        g = make_guard()
        actions = g.on_round(3, 700)
        durations = {a.timer_id: a.duration for a in actions}
        assert durations == {
            "g-leader:3": 2 * DELTA,
            "g-live:3": 4 * DELTA,
            "g-grace:3": 6 * DELTA,
        }

    def test_live_timer_blames_asleep_members(self):
        g = make_guard()
        feed_round(g, 1, authors=(0, 1, 2, 3), now=100)
        actions = g.on_timer("g-live:1", 4 * DELTA)
        accused = {
            a.payload.accused
            for a in actions
            if isinstance(a, Broadcast) and isinstance(a.payload, LBlameMsg)
        }
        assert accused == {4, 5}

    def test_voters_of_either_fork_are_not_blamed(self):
        g = make_guard()
        feed_round(g, 1, now=100)
        parents = [g.dag.first_block_by(a, 1).ref for a in range(6)]
        # leader of round 1 rank 0 (validator 1) equivocates
        fork_a = make_block(1, 2, parents, (b"fa",))
        fork_b = make_block(1, 2, parents, (b"fb",))
        deliver(g, [fork_a], "v1", 150)
        deliver(g, [fork_b], "v1", 151)
        for a in (0, 2, 3, 4, 5):
            deliver(g, [make_block(a, 2, parents, (b"r2",))], f"v{a}", 150)
        base = {x: g.dag.first_block_by(x, 2).ref for x in range(6)}
        for a in range(6):
            chosen = dict(base)
            chosen[1] = fork_a.ref if a in (0, 2) else fork_b.ref
            vote = make_block(a, 3, [chosen[x] for x in sorted(chosen)], (b"v",))
            deliver(g, [vote], f"v{a}", 200)
        actions = g.on_timer("g-live:3", 5000)
        blamed = {
            x.payload.accused
            for x in actions
            if isinstance(x, Broadcast) and isinstance(x.payload, LBlameMsg)
        }
        assert blamed == set()

    def test_leader_timer_blames_silent_leader(self):
        g = make_guard()
        g.current_round = 2
        # leaders of round 1 are validators 1 and 2; only 2 proposed
        feed_round(g, 1, authors=(0, 2, 3, 4), now=100)
        actions = g.on_timer("g-leader:2", 2 * DELTA)
        accused = {
            a.payload.accused
            for a in actions
            if isinstance(a, Broadcast) and isinstance(a.payload, LBlameMsg)
        }
        assert accused == {1}
        assert g.now_round == 2


class TestOnLBlame:
    def test_majority_promotes(self):
        g = make_guard()
        msgs = attest(2, 5, range(GUARDS))
        for m in msgs[:2]:
            g.on_lblame(m, 100)
        assert 2 not in g.lblamed.get(5, set())
        g.on_lblame(msgs[2], 150)
        assert 2 in g.lblamed[5]
        assert g.lblamed_at[5] == 150

    def test_duplicate_guard_counted_once(self):
        g = make_guard()
        m = attest(2, 5, [1])[0]
        g.on_lblame(m, 100)
        g.on_lblame(m, 110)
        assert len(g.blames[(2, 5)]) == 1

    def test_bad_tag_rejected(self):
        g = make_guard()
        g.on_lblame(LBlameMsg(1, 2, 5, "lblame:9:9:9"), 100)
        assert (2, 5) not in g.blames

    def test_responded_blocks_promotion(self):
        g = make_guard()
        feed_round(g, 1, authors=(2,), now=50)
        for m in attest(2, 1, range(GUARDS)):
            g.on_lblame(m, 100)
        assert 2 not in g.lblamed.get(1, set())

    def test_round_zero_blames_promote_no_one(self):
        """Every member's genesis block is known from the start, so a
        majority of round-0 attestations blames no one, and a re-sent
        genesis copy is not echoed."""
        g = make_guard()
        for m in attest(3, 0, range(3)):
            assert g.on_lblame(m, 0) == []
        assert len(g.blames[(3, 0)]) == 3
        assert 0 not in g.lblamed
        copy = replace(genesis_blocks(g.committee)[3])
        assert echoed(g.ingest_block(copy, "v3", 0)) == []


def build_conflict_guard(p_voters=range(1, 6)):
    """Guard state around one slot committed as B while B-prime gathers the
    documented overlap: voters 0-4 support B, voters 1-5 (`p_voters`)
    support B-prime, with 1-4 provably on both sides."""
    committee = Committee.of_size(6)
    g = make_guard(0, committee)
    feed_round(g, 1, now=10)
    parents = [g.dag.first_block_by(a, 1).ref for a in range(6)]
    for a in (0, 1, 3, 4, 5):
        deliver(g, [make_block(a, 2, parents, (b"r2",))], f"v{a}", 19)
    block_b = make_block(2, 2, parents, (b"fork-b",))
    block_p = make_block(2, 2, parents, (b"fork-p",))
    deliver(g, [block_b], "v2", 20)
    deliver(g, [block_p], "v2", 21)
    base = {a: g.dag.first_block_by(a, 2).ref for a in g.dag.authors_at_round(2)}

    def vote(author, target, tag):
        chosen = dict(base)
        chosen[2] = target.ref
        parents3 = [chosen[a] for a in sorted(chosen)]
        block = make_block(author, 3, parents3, (tag,))
        deliver(g, [block], f"v{author}", 30)
        return block

    votes_b = {a: vote(a, block_b, b"vb") for a in range(5)}
    votes_p = {a: vote(a, block_p, b"vp") for a in p_voters}
    return g, committee, block_b, block_p, votes_b, votes_p


class TestCheckEquivocation:
    def own_commit(self, g, block_b):
        slot = LeaderSlot(2, 0)
        assert g.committer.sequenced(slot) == SlotDecision(slot, Verdict.COMMIT, block_b.ref)
        return slot

    def test_overlap_of_double_voters(self):
        g, committee, block_b, block_p, *_ = build_conflict_guard()
        slot = self.own_commit(g, block_b)
        bs = g.check_equivocation(SlotDecision(slot, Verdict.COMMIT, block_p.ref))
        assert bs.kind == SAFETY and bs.members == {1, 2, 3, 4}
        assert is_valid_blameset(bs, committee, GUARDS)

    def test_no_conflict_returns_none(self):
        g, committee, block_b, *_ = build_conflict_guard()
        slot = self.own_commit(g, block_b)
        assert g.check_equivocation(SlotDecision(slot, Verdict.COMMIT, block_b.ref)) is None
        assert g.check_equivocation(SlotDecision(LeaderSlot(2, 1), Verdict.SKIP)) is None

    def test_commit_versus_skip_conflict(self):
        g, committee, block_b, block_p, *_ = build_conflict_guard()
        slot = self.own_commit(g, block_b)
        bs = g.check_equivocation(SlotDecision(slot, Verdict.SKIP))
        assert len(bs.members) >= committee.f + 1
        assert bs.proof.block_b is None
        assert is_valid_blameset(bs, committee, GUARDS)

    def test_remote_conflict_starts_recovery(self):
        g, committee, block_b, block_p, *_ = build_conflict_guard()
        g.recovery_input = g.session = None  # forget the pair scan's recovery
        slot = self.own_commit(g, block_b)
        claims = (SlotDecision(slot, Verdict.COMMIT, block_p.ref),)
        actions = g.on_remote_update(CoreUpdateMsg(1, claims, update_tag(1, claims)), 40)
        assert g.recovery_input.to_text() == g.check_equivocation(claims[0]).to_text()
        assert any(isinstance(a, Broadcast) and isinstance(a.payload, AgreementRelay) for a in actions)
        # checked against the guard's own verdict at once, so not held
        assert slot not in g.remote_claims

    def test_remote_claim_held_until_the_slot_is_sequenced(self):
        committee = Committee.of_size(6)
        g = make_guard(0, committee)
        round1, _ = feed_round(g, 1, now=10)
        slot = LeaderSlot(1, 0)
        assert g.committer.sequenced(slot) is None
        leader = round1[leader_of(slot, committee)]
        claims = (SlotDecision(slot, Verdict.COMMIT, leader.ref),)
        assert g.on_remote_update(CoreUpdateMsg(1, claims, update_tag(1, claims)), 15) == []
        assert g.remote_claims == {slot: {leader.digest: claims[0]}}
        feed_round(g, 2, now=20)
        assert g.committer.sequenced(slot) == claims[0]
        assert g.remote_claims == {} and g.recovery_input is None
        # a rank outside the round's leader slots names no sequenced slot
        assert g.committer.sequenced(LeaderSlot(1, 2)) is None

    def test_every_held_claim_is_checked_when_the_slot_is_sequenced(self):
        """A held claim that cannot be resolved, a commit of a block the
        replica lacks, does not hide a later held skip claim on the slot.
        Eight members with f = 1 leave room for six unforked voters that
        commit the slot and two forked ones, each with a version voting for
        the leader and one not, whom the skip claim blames."""
        committee = Committee(tuple(range(8)), 1)
        g = make_guard(0, committee)
        feed_round(g, 1, now=10)
        round2, _ = feed_round(g, 2, now=20)
        slot = LeaderSlot(2, 0)
        leader = round2[leader_of(slot, committee)]
        unseen = make_block(leader.author, 2, leader.parents, (b"unseen",))
        claims = (
            SlotDecision(slot, Verdict.COMMIT, unseen.ref),
            SlotDecision(slot, Verdict.SKIP),
        )
        guard_intake(g, CoreUpdateMsg(1, claims, update_tag(1, claims)), 25)
        assert list(g.remote_claims[slot].values()) == list(claims)
        voting = [b.ref for b in round2]
        not_voting = [b.ref for b in round2 if b.author != leader.author]
        forked = [a for a in committee.members if a != leader.author][-2:]
        blocks = []
        for a in committee.members:
            blocks.append(make_block(a, 3, voting, (b"r3",)))
            if a in forked:
                blocks.append(make_block(a, 3, not_voting, (b"r3",)))
        deliver(g, blocks, "v1", 30)
        assert g.committer.sequenced(slot) == SlotDecision(slot, Verdict.COMMIT, leader.ref)
        assert g.remote_claims == {}
        # recovery started from the skip claim, not from the pair scan,
        # whose blamesets name no slot
        assert g.recovery_input is not None
        proof = g.recovery_input.proof
        assert (proof.slot, proof.block_a, proof.block_b) == (slot, leader, None)
        assert g.recovery_input.members == set(forked)

    def test_pair_scan_detects_enough_equivocators(self):
        g, committee, *_ = build_conflict_guard()
        assert g.safety_detection_vtime is not None
        assert g.recovery_input is not None
        assert g.recovery_input.kind == SAFETY
        assert len(g.recovery_input.members) >= committee.f + 1


def spy_resolve(g):
    """Record the (author, round) key of each `resolve_equivocation` call."""
    calls = []
    original = g.resolve_equivocation

    def spy(block_a, block_b, slot):
        calls.append((block_a.author, block_a.round))
        return original(block_a, block_b, slot)

    g.resolve_equivocation = spy
    return calls


def forked_round_three(g, fork_a, round2, authors, tag=b"r3"):
    """Two round-3 versions by each of `authors`, both voting for `fork_a`,
    so none of them straddles a fork of `fork_a`'s author."""
    parents = [b.ref for b in round2] + [fork_a.ref]
    for a in authors:
        versions = [make_block(a, 3, parents, (tag, bytes([i]))) for i in range(2)]
        deliver(g, versions, f"v{a}", 25)
    assert set(authors) <= set(g.dag.equivocators(3))


class TestSafetyScan:
    """The fixtures give round 3 f+1 = 2 forked authors, as a blameset for
    a round-2 fork needs, but their versions all vote for one side of it."""

    def round_two(self, g):
        feed_round(g, 1, now=10)
        parents = [g.dag.first_block_by(a, 1).ref for a in range(6)]
        round2 = [make_block(a, 2, parents, (b"r2",)) for a in (0, 1, 3, 4, 5)]
        deliver(g, round2, "v0", 19)
        return parents, round2

    def test_key_rescanned_only_when_its_inputs_grow(self):
        g = make_guard(0)
        parents, round2 = self.round_two(g)
        fork_a = make_block(2, 2, parents, (b"fork-a",))
        fork_b = make_block(2, 2, parents, (b"fork-b",))
        deliver(g, [fork_a], "v2", 20)
        forked_round_three(g, fork_a, round2, (0, 1))
        calls = spy_resolve(g)
        deliver(g, [fork_b], "v2", 26)
        assert calls == [(2, 2)]
        # neither a new version nor a new round-3 block: the key is skipped
        deliver(g, [fork_b], "v3", 27)
        g.flush(28)
        assert calls == [(2, 2)]
        # a round-3 block may double-vote, so the key is scanned again
        vote = make_block(3, 3, [b.ref for b in round2] + [fork_a.ref], (b"r3",))
        deliver(g, [vote], "v3", 30)
        assert calls == [(2, 2), (2, 2)]
        assert g.recovery_input is None

    def test_key_with_a_parked_version_is_not_memoized(self):
        g = make_guard(0)
        parents, round2 = self.round_two(g)
        genesis = [b.ref for b in g.dag.blocks_at_round(0)]
        hidden = make_block(5, 1, genesis, (b"hidden",))  # not yet delivered
        fork_a = make_block(2, 2, parents, (b"fork-a",))
        fork_b = make_block(2, 2, parents[:5] + [hidden.ref], (b"fork-b",))
        deliver(g, [fork_a], "v2", 20)
        forked_round_three(g, fork_a, round2, (0, 1))
        calls = spy_resolve(g)
        deliver(g, [fork_b], "v2", 26)  # parked: its parent `hidden` is missing
        assert fork_b.ref not in g.dag
        assert calls == []
        # the key is a fork of the replica, and so scanned, once the parked
        # version is stored
        deliver(g, [hidden], "v5", 27)
        assert fork_b.ref in g.dag
        assert (2, 2) in calls

    def test_a_fork_without_f_plus_1_forked_authors_next_round_is_not_resolved(self):
        g = make_guard(0)
        parents, round2 = self.round_two(g)
        fork_a = make_block(2, 2, parents, (b"fork-a",))
        fork_b = make_block(2, 2, parents, (b"fork-b",))
        calls = spy_resolve(g)
        deliver(g, [fork_a, fork_b], "v2", 20)
        forked_round_three(g, fork_a, round2, (0,))
        assert calls == [] and g._scanned_inputs == {}
        forked_round_three(g, fork_a, round2, (1,), tag=b"late")
        assert calls == [(2, 2)]


class TestUpdateCheckedOnce:
    """A committee checks each update message object once, and a guard
    passes over a remote claim that is its own verdict object."""

    def test_a_second_guard_does_not_recheck_the_same_message(self, monkeypatch):
        committee = Committee.of_size(6)
        guards = [make_guard(i, committee) for i in range(3)]
        claims = (SlotDecision(LeaderSlot(1, 0), Verdict.SKIP),)
        msg = CoreUpdateMsg(3, claims, update_tag(3, claims))
        tags = spy(monkeypatch, messages_module, "update_tag")
        shapes = spy(monkeypatch, messages_module, "_well_formed_claim")
        for g in guards[:2]:
            assert guard_intake(g, msg, 15) == []
            assert g.remote_claims == {claims[0].slot: {b"skip": claims[0]}}
        # the second guard runs neither the claim predicate nor the tag
        assert tags == [(3, claims)] and shapes == [(claims[0], 2)]
        assert committee.memo.updates == {"g1": msg}
        # an equal but distinct object is checked again, and a wrong tag drops it
        forged = replace(msg, tag="update:3:0")
        assert forged.claims is msg.claims and forged is not msg
        assert guard_intake(guards[2], forged, 15) == []
        assert len(tags) == 2 and guards[2].remote_claims == {}
        assert guards[2].malformed == {"CoreUpdateMsg": 1}
        assert committee.memo.updates == {"g1": msg}
        copy = replace(msg)
        assert copy == msg and copy is not msg
        guard_intake(guards[2], copy, 15)
        assert len(tags) == 3 and committee.memo.updates == {"g1": copy}
        assert guards[2].remote_claims == guards[0].remote_claims
        # the table is keyed by sender: an index no guard has adds no entry
        far = CoreUpdateMsg(10**6, claims, update_tag(10**6, claims))
        guard_intake(guards[2], far, 15)
        assert committee.memo.updates == {"g1": far}

    def test_a_claim_that_is_the_guards_own_verdict_is_not_checked(self):
        g, block_b, block_p = idle_conflict_guard()
        mine = g.committer.sequenced(LeaderSlot(2, 0))
        checked = []
        real = g.check_equivocation

        def spy(claim):
            checked.append(claim)
            return real(claim)

        g.check_equivocation = spy
        claims = (mine,)
        assert guard_intake(g, CoreUpdateMsg(1, claims, update_tag(1, claims))) == []
        assert checked == [] and g.recovery_input is None
        conflict = (SlotDecision(mine.slot, Verdict.COMMIT, block_p.ref),)
        actions = guard_intake(g, CoreUpdateMsg(1, conflict, update_tag(1, conflict)))
        assert checked == [conflict[0]] and g.recovery_input is not None
        assert any(isinstance(a, Broadcast) and isinstance(a.payload, AgreementRelay) for a in actions)

    def test_a_held_claim_that_is_the_guards_own_verdict_is_not_compared(self, monkeypatch):
        committee = Committee.of_size(6)
        g0, g1 = make_guard(0, committee), make_guard(1, committee)
        for r in (1, 2):
            feed_round(g1, r, now=10 * r)
        slot = LeaderSlot(1, 0)
        theirs = g1.committer.sequenced(slot)
        assert theirs is not None
        feed_round(g0, 1, now=10)
        claims = (theirs,)
        guard_intake(g0, CoreUpdateMsg(1, claims, update_tag(1, claims)), 15)
        assert list(g0.remote_claims) == [slot]
        compared = []
        real = Guard.check_equivocation

        def spy(self, claim):
            compared.append(claim)
            return real(self, claim)

        monkeypatch.setattr(Guard, "check_equivocation", spy)
        feed_round(g0, 2, now=20)
        assert g0.committer.sequenced(slot) is theirs  # one object per verdict
        assert compared == [] and g0.remote_claims == {} and g0.recovery_input is None

    def test_the_table_holds_one_message_per_guard(self):
        cfg = scenarios.crash_f_plus_1()
        runner = Runner(cfg, seed=1)
        runner.run()
        tables = [epoch.committee.memo.updates for epoch in runner.epochs]
        assert len(tables) == 2 and all(tables)
        for table in tables:
            assert len(table) <= cfg.guards
            assert all(sender == guard_node(msg.guard) for sender, msg in table.items())


def idle_conflict_guard():
    """The conflict guard with the pair scan's recovery forgotten, so remote
    claims and relays reach the checks behind the recovery gate."""
    g, committee, block_b, block_p, *_ = build_conflict_guard()
    g.recovery_input = g.session = None
    return g, block_b, block_p


def guard_intake(g, msg, now=40):
    return g.deliver(msg, "g1", now)


class TestSyncRequestTable(SyncRequestTable):
    make_node = staticmethod(lambda committee: make_guard(0, committee))


class TestHeldParkedBlock(HeldParkedBlock):
    make_node = staticmethod(lambda committee: make_guard(0, committee))
    module = guard_module
    echoes_first = True


class TestIntakeCallShape(IntakeCallShape):
    make_node = staticmethod(lambda committee: make_guard(0, committee))
    module = guard_module


class TestMalformedSyncRequest(MalformedSyncRequest):
    make_node = staticmethod(lambda committee: make_guard(0, committee))


class TestHostileGuardInput:
    """Each of these messages used to raise inside the guard and abort the
    run; now a malformed field drops the message."""

    def test_commit_claim_without_a_block_on_a_sequenced_slot(self):
        g, block_b, _ = idle_conflict_guard()
        claims = (SlotDecision(LeaderSlot(2, 0), Verdict.COMMIT, None),)
        assert guard_intake(g, CoreUpdateMsg(1, claims, update_tag(1, claims))) == []
        assert g.remote_claims == {} and g.recovery_input is None

    def test_commit_claim_without_a_block_on_a_later_slot(self):
        committee = Committee.of_size(6)
        g = make_guard(0, committee)
        feed_round(g, 1, now=10)
        claims = (SlotDecision(LeaderSlot(1, 0), Verdict.COMMIT, None),)
        assert guard_intake(g, CoreUpdateMsg(1, claims, update_tag(1, claims)), 15) == []
        feed_round(g, 2, now=20)  # the guard now commits the slot itself
        assert g.committer.sequenced(LeaderSlot(1, 0)) is not None
        assert g.recovery_input is None

    def test_claim_that_is_no_decision(self):
        g, *_ = idle_conflict_guard()
        assert guard_intake(g, CoreUpdateMsg(1, (None,), "update:1:0")) == []
        assert g.remote_claims == {}

    def test_blame_from_a_guard_that_is_no_int(self):
        g, *_ = idle_conflict_guard()
        msg = LBlameMsg("x", 2, 5, lblame_tag("x", 2, 5))
        assert guard_intake(g, msg) == []
        assert g.blames == {}

    def test_claims_far_above_the_dag_are_not_held(self):
        g, *_ = idle_conflict_guard()
        assert g.dag.max_round == 3
        far = tuple(SlotDecision(LeaderSlot(10**6 + i, 0), Verdict.SKIP) for i in range(1000))
        assert guard_intake(g, CoreUpdateMsg(1, far, update_tag(1, far))) == []
        assert g.remote_claims == {}
        # a claim within the window above the DAG is still held
        near = (SlotDecision(LeaderSlot(g.dag.max_round + CLAIM_WINDOW, 0), Verdict.SKIP),)
        assert guard_intake(g, CoreUpdateMsg(1, near, update_tag(1, near))) == []
        assert list(g.remote_claims) == [near[0].slot]

    def test_relay_chain_of_strings(self):
        g, *_ = idle_conflict_guard()
        text = "blameset kind=liveness members=4,5 round=1\n"
        proposal = RecoverProposal("a", text, None, recover_tag("a", text, None))
        relay = AgreementRelay("a", proposal, ("a",), (relay_tag("a", "a", proposal),))
        assert guard_intake(g, relay) == []
        assert g.session is None

    def test_safety_blameset_without_a_conflict_line(self):
        text = "blameset kind=safety members=0,1\n"
        with pytest.raises(ValueError):
            BlameSet.from_text(text)
        g = make_guard()
        proposal = RecoverProposal(1, text, None, recover_tag(1, text, None))
        relay = AgreementRelay(1, proposal, (1,), (relay_tag(1, 1, proposal),))
        assert guard_intake(g, relay) == []
        assert g.session is None and g.recovery_input is None

    def test_blameset_of_an_unknown_kind_is_refused(self):
        block = _B.encode().hex()
        text = f"blameset kind=foo members=0,1\nconflict slot=- a={block} b=-\n"
        with pytest.raises(ValueError, match="unknown blameset kind 'foo'"):
            BlameSet.from_text(text)
        g = make_guard()
        proposal = RecoverProposal(1, text, None, recover_tag(1, text, None))
        relay = AgreementRelay(1, proposal, (1,), (relay_tag(1, 1, proposal),))
        assert guard_intake(g, relay) == []
        assert g.session is None and g.recovery_input is None

    def test_blameset_text_not_in_canonical_form_is_refused(self):
        canonical = "blameset kind=liveness members=4,5 round=1\n"
        assert BlameSet.from_text(canonical).to_text() == canonical
        for text in (
            "blameset kind=liveness members=5,4 round=1\n",
            "blameset kind=liveness members=4,5 round=1",
            "blameset  kind=liveness members=4,5 round=1\n",
            "blameset kind=liveness members=4,5 round=1\n\n",
        ):
            with pytest.raises(ValueError, match="canonical"):
                BlameSet.from_text(text)


class TestIntakeDispatch:
    """`Replica.deliver` hands each kind to its handler and drops a kind the
    replica has none for."""

    def guard_kinds(self):
        text = "blameset kind=liveness members=4,5 round=1\n"
        proposal = RecoverProposal(1, text, None, recover_tag(1, text, None))
        claims = (SlotDecision(LeaderSlot(1, 0), Verdict.SKIP),)
        return [
            LBlameMsg(1, 2, 1, lblame_tag(1, 2, 1)),
            CoreUpdateMsg(1, claims, update_tag(1, claims)),
            AgreementRelay(1, proposal, (1,), (relay_tag(1, 1, proposal),)),
        ]

    def test_validator_drops_guard_kinds_and_unknown_kinds(self):
        v = CoreValidator(0, Committee.of_size(6), delta=DELTA)
        v.flush(0)
        stored = v.dag.stored
        for msg in self.guard_kinds() + [object(), "block"]:
            assert v.deliver(msg, "g1", 40) == []
        assert v.dag.stored == stored and len(v.pending) == 0

    def test_guard_drops_unknown_kinds(self):
        g = make_guard()
        for msg in (object(), "block", 7):
            assert g.deliver(msg, "g1", 40) == []
        assert g.blames == {} and g.remote_claims == {} and g.session is None

    def test_guard_kinds_reach_handlers_wrapped_on_the_class(self, monkeypatch):
        g = make_guard()
        calls = []
        for name in Guard.handlers.values():
            real = getattr(Guard, name)

            def wrapped(self, msg, now, real=real, name=name):
                calls.append(name)
                return real(self, msg, now)

            monkeypatch.setattr(Guard, name, wrapped)
        for msg in self.guard_kinds():
            g.deliver(msg, "g1", 40)
        assert calls == ["on_lblame", "on_remote_update", "on_recover_msg"]
        assert g.blames


class TestShapeTable:
    """`Replica.deliver` checks each message against its kind's entry in
    `messages.SHAPES` once, before dispatch, and counts what it drops."""

    def test_every_kind_a_replica_takes_has_an_entry(self):
        kinds = {*CoreValidator.handlers, *Guard.handlers, SyncRequest}
        assert kinds <= SHAPES.keys()

    def test_a_validator_runs_no_predicate_on_guard_kinds(self, monkeypatch):
        checked = []
        for kind, real in SHAPES.items():
            def spying(msg, size, ranks, real=real):
                checked.append(msg)
                return real(msg, size, ranks)

            monkeypatch.setitem(SHAPES, kind, spying)
        v = CoreValidator(0, Committee.of_size(6), delta=DELTA)
        for msg in TestIntakeDispatch().guard_kinds():
            assert v.deliver(msg, "g1", 40) == []
        assert checked == [] and v.malformed == {}
        request = SyncRequest((), (-1,) * 6)
        v.deliver(request, "v1", 40)
        assert checked == [request]

    def test_malformed_messages_are_counted_by_kind(self):
        v, g = CoreValidator(0, Committee.of_size(6), delta=DELTA), make_guard()
        block = genesis_blocks(v.committee)[0]
        for node in (v, g):
            for msg in (
                BlockMsg("block"), SyncResponse([block]), SyncResponse((block, None)),
                SyncRequest((), None), object(), LBlameMsg(1, 2, 1, None),
            ):
                assert node.deliver(msg, "v1", 40) == []
        counts = {"BlockMsg": 1, "SyncResponse": 2, "SyncRequest": 1}
        assert v.malformed == counts  # a validator drops blames unchecked
        assert g.malformed == {**counts, "LBlameMsg": 1}

    def test_a_relay_whose_chain_fails_its_shape_is_counted(self, monkeypatch):
        g, *_ = idle_conflict_guard()
        checked = spy(monkeypatch, g, "valid_recovery_proposal")
        text = "blameset kind=liveness members=4,5 round=1\n"
        proposal = RecoverProposal(1, text, None, recover_tag(1, text, None))

        def relay(proposer, chain):
            tags = tuple(relay_tag(s, proposer, proposal) for s in chain)
            return AgreementRelay(proposer, proposal, chain, tags)

        bad = [
            relay(1, ()),  # no signer
            relay(1, (2, 1)),  # the proposer is not first
            relay(2, (2,)),  # the proposal names another guard
            relay(1, (1, 1)),  # a signer twice
            replace(relay(1, (1, 2)), chain_tags=(relay_tag(1, 1, proposal),)),  # a tag short
        ]
        for msg in bad:
            assert guard_intake(g, msg) == []
        assert g.malformed == {"AgreementRelay": len(bad)}
        # a signer that is no guard of the committee is the handler's to drop
        assert guard_intake(g, relay(1, (1, GUARDS))) == []
        assert g.malformed == {"AgreementRelay": len(bad)} and checked == []
        guard_intake(g, relay(1, (1, 2)))
        assert checked == [(proposal,)]

    def test_a_blame_from_an_index_no_guard_has_is_ignored_not_malformed(self):
        g, *_ = idle_conflict_guard()
        for msg in attest(2, 3, [GUARDS, -1]):
            assert guard_intake(g, msg) == []
        assert g.blames == {} and g.malformed == {}


def spy(monkeypatch, module, name) -> list:
    """Record the arguments of every call to `module.name` from now on."""
    calls = []
    real = getattr(module, name)

    def spying(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spying)
    return calls


def junk():
    return st.one_of(
        st.none(), st.integers(-2, 8), st.booleans(), st.text(max_size=3),
        st.binary(max_size=3), st.tuples(st.integers(0, 3)),
    )


def field_paths(value, prefix=()):
    """The path to every field of a message, nested ones included. A field
    the constructor does not take, such as a ref's cached body piece, is
    derived, not sent, and `replace` cannot set it."""
    if is_dataclass(value):
        for f in fields(value):
            if not f.init:
                continue
            yield prefix + (f.name,)
            yield from field_paths(getattr(value, f.name), prefix + (f.name,))
    elif type(value) is tuple:
        for i, item in enumerate(value):
            yield prefix + (i,)
            yield from field_paths(item, prefix + (i,))


def with_field(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if type(value) is tuple:
        return value[:head] + (with_field(value[head], rest, new),) + value[head + 1 :]
    return replace(value, **{head: with_field(getattr(value, head), rest, new)})


def signed(msg):
    """`msg` with the tags its content calls for, wherever they compute."""
    try:
        if type(msg) is CoreUpdateMsg:
            return replace(msg, tag=update_tag(msg.guard, msg.claims))
        if type(msg) is LBlameMsg:
            return replace(msg, tag=lblame_tag(msg.guard, msg.accused, msg.round))
        p = msg.proposal
        p = replace(p, tag=recover_tag(p.guard, p.blameset_text, p.branch))
        tags = tuple(relay_tag(g, msg.proposer, p) for g in msg.chain)
        return replace(msg, proposal=p, chain_tags=tags)
    except (AttributeError, TypeError):
        return msg


@st.composite
def hostile_message(draw, refs):
    """A well-formed guard message with at most one field replaced by a value
    of the wrong shape, then signed again or not."""
    gid = st.integers(0, GUARDS - 1)
    verdicts = st.sampled_from([Verdict.COMMIT, Verdict.SKIP])
    claim = st.builds(
        lambda r, k, v, ref: SlotDecision(LeaderSlot(r, k), v, ref if v is Verdict.COMMIT else None),
        st.integers(1, 5), st.integers(0, 1), verdicts, st.sampled_from(refs),
    )
    text = "blameset kind=liveness members=4,5 round=1\n"
    msg = draw(st.one_of(
        st.builds(CoreUpdateMsg, gid, st.lists(claim, min_size=1, max_size=3).map(tuple), st.just("")),
        st.builds(LBlameMsg, gid, st.integers(0, 5), st.integers(0, 5), st.just("")),
        st.builds(
            lambda g, branch, more: AgreementRelay(
                g, RecoverProposal(g, text, branch, ""), (g,) + more, ()
            ),
            gid, st.none() | st.sampled_from(refs), st.sampled_from([(), (3,), (3, 4)]),
        ),
    ))
    msg = signed(msg)
    path = draw(st.none() | st.sampled_from(list(field_paths(msg))))
    if path is not None:
        msg = with_field(msg, path, draw(junk()))
    return signed(msg) if draw(st.booleans()) else msg


_, _, _B, _P, _VOTES_B, _VOTES_P = build_conflict_guard()
_REFS = [_B.ref, _P.ref]


def well_formed(claim, ranks):
    slot = claim.slot
    if not (type(slot) is LeaderSlot and type(slot.round) is int and type(slot.rank) is int):
        return False
    if slot.round < 1 or not 0 <= slot.rank < ranks:
        return False
    if claim.verdict is Verdict.SKIP:
        return claim.block is None
    return claim.verdict is Verdict.COMMIT and type(claim.block) is BlockRef and type(
        claim.block.digest
    ) is bytes


# encodings of the conflict's blocks and votes, then hex that does not decode
_HEX = [b.encode().hex() for b in (_B, _P, *_VOTES_B.values(), *_VOTES_P.values())] + [
    "zz", "abc", "", _B.encode()[:40].hex(),
]


@st.composite
def pieced_blameset_text(draw):
    """A blameset text built from pieces. A safety text, or one of an
    unknown kind, has no, one or two conflict lines and some pair lines; a
    liveness text has at most two attestations, too few to blame anyone, and
    perhaps a stray conflict line.
    Members may lie outside the committee; hex fields hold encoded blocks or
    bad hex."""
    hexes = st.sampled_from(_HEX)
    members = draw(st.lists(st.integers(0, 5), min_size=2, max_size=4))
    members = ",".join(map(str, members + draw(st.lists(st.sampled_from([-1, 6, 9]), max_size=1))))
    kind = draw(st.sampled_from(["liveness", "safety", "foo", "Safety"]))
    conflict = st.builds(
        "conflict slot={} a={} b={}".format,
        st.sampled_from(["2/0", "-"]), hexes, hexes | st.just("-"),
    )
    pair = st.builds("pair member={} x={} y={}".format, st.integers(-1, 6), hexes, hexes)
    attestation = st.builds(
        lambda m, gid, r: f"attest member={m} guard={gid} round={r} tag={lblame_tag(gid, m, r)}",
        st.integers(0, 6), st.integers(0, GUARDS - 1), st.integers(0, 3),
    )
    if kind == "liveness":
        header = f"blameset kind=liveness members={members} round={draw(st.integers(0, 3))}"
        body = draw(st.lists(attestation, max_size=2)) + draw(st.lists(conflict, max_size=1))
    else:
        header = f"blameset kind={kind} members={members}"
        body = draw(st.lists(conflict, max_size=2)) + draw(st.lists(pair, max_size=4))
    return "\n".join([header] + draw(st.permutations(body))) + "\n"


class TestGuardIntakeProperty:
    @given(msgs=st.lists(hostile_message(_REFS), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_hostile_payloads_never_raise_nor_land_malformed(self, msgs):
        g, *_ = idle_conflict_guard()
        for i, msg in enumerate(msgs):
            guard_intake(g, msg, now=40 + i)
        for slot, claims in g.remote_claims.items():
            for claim in claims.values():
                assert claim.slot == slot and well_formed(claim, g.leaders_per_round)

    @given(
        text=pieced_blameset_text(),
        proposer=st.integers(0, GUARDS - 1),
        branch=st.none() | st.sampled_from(_REFS),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_pieced_blamesets_never_raise_nor_start_recovery(self, text, proposer, branch):
        """Validly tagged and signed relays whose blameset cannot verify: a
        fresh guard stores no block to certify a safety branch, and no member
        has a majority of attestations."""
        g = make_guard()
        proposal = RecoverProposal(proposer, text, branch, recover_tag(proposer, text, branch))
        tags = (relay_tag(proposer, proposer, proposal),)
        relay = AgreementRelay(proposer, proposal, (proposer,), tags)
        assert guard_intake(g, relay) == []
        assert g.session is None and g.recovery_input is None


def validator_after_a_run():
    """Validator 0 at the end of a 20-round fault-free run, the run's end
    time, and every block the validator stored in the run."""
    with stored_history() as log:
        runner = Runner(scenarios.fault_free(1, rounds=20), seed=1)
        runner.run()
    v = runner.epochs[0].validators[0]
    return v, runner.sim.now, unpruned(v.committee, log[v.dag])


_V_VALIDATOR, _, _V_HISTORY = validator_after_a_run()
_V_FLOOR = _V_VALIDATOR.dag.floor
_V_ROUNDS = (0, 1, _V_FLOOR - 1, _V_FLOOR, _V_FLOOR + 1, _V_HISTORY.max_round, _V_HISTORY.max_round + 1, 10**6)
_V_BLOCKS = [b for r in range(_V_HISTORY.max_round + 1) for b in _V_HISTORY.blocks_at_round(r)]
_V_REFS = [b.ref for b in _V_BLOCKS] + [BlockRef(1, r, bytes([r % 256]) * 16) for r in _V_ROUNDS]


@st.composite
def hostile_block(draw):
    """A stored or pruned block of the run as it was, or a new one with any
    author, round, parents from the run or made up, and a forged tag or not."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_V_BLOCKS))
    r = draw(st.sampled_from(_V_ROUNDS))
    author = draw(st.integers(0, 7))
    parents = draw(st.lists(st.sampled_from(_V_REFS), max_size=7))
    share = draw(st.none() | st.just(CoinShare(author, r)))
    tag = draw(st.sampled_from([f"sig:{author}", "sig:0", ""]))
    return Block(author, r, tuple(parents), (b"hostile",), share, tag)


def message_paths(value, prefix=()):
    """The path to every field of a message down to, not into, its blocks."""
    for path in field_paths(value, prefix):
        inside = value
        for step in path[:-1]:
            inside = inside[step] if type(inside) is tuple else getattr(inside, step)
            if type(inside) is Block:
                break
        else:
            yield path


@st.composite
def hostile_sync_message(draw):
    """A block, a sync request or a sync response from a Byzantine peer, with
    at most one field replaced by a value of the wrong shape."""
    msg = draw(st.one_of(
        st.builds(BlockMsg, hostile_block()),
        st.builds(SyncResponse, st.lists(hostile_block(), max_size=4).map(tuple)),
        st.builds(
            SyncRequest,
            st.lists(st.sampled_from(_V_REFS), max_size=4).map(tuple),
            st.lists(st.sampled_from(_V_ROUNDS + (-1,)), min_size=6, max_size=6).map(tuple),
        ),
    ))
    path = draw(st.none() | st.sampled_from(list(message_paths(msg))))
    return msg if path is None else with_field(msg, path, draw(junk()))


class TestValidatorIntakeProperty:
    @given(msgs=st.lists(hostile_sync_message(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_hostile_payloads_never_raise_nor_land_below_the_floor(self, msgs):
        v, now, _ = validator_after_a_run()
        for i, msg in enumerate(msgs):
            v.deliver(msg, "v5", now + i)
            v.flush(now + i)
        floor = v.dag.floor
        assert floor >= _V_FLOOR
        assert all(r >= floor for r in range(v.dag.max_round + 1) if v.dag.authors_at_round(r))
        assert len(v.pending) == 0 or min(
            b.round for b in v.pending.parked.values()
        ) > floor


class TestIsValidBlameset:
    def liveness_set(self, members, r, guard_lists):
        atts = {m: tuple(attest(m, r, guard_lists[m])) for m in members}
        return BlameSet(LIVENESS, frozenset(members), LivenessProof(r, atts))

    def test_majority_liveness_set_verifies(self):
        committee = Committee.of_size(6)
        bs = self.liveness_set({4, 5}, 7, {4: [0, 1, 2], 5: [0, 1, 2, 3]})
        assert is_valid_blameset(bs, committee, GUARDS)

    def test_minority_attestations_rejected(self):
        committee = Committee.of_size(6)
        bs = self.liveness_set({4, 5}, 7, {4: [0, 1], 5: [0, 1, 2]})
        assert not is_valid_blameset(bs, committee, GUARDS)

    def test_undersized_set_rejected(self):
        committee = Committee.of_size(6)
        bs = self.liveness_set({4}, 7, {4: [0, 1, 2]})
        assert not is_valid_blameset(bs, committee, GUARDS)

    def test_wrong_round_attestation_rejected(self):
        committee = Committee.of_size(6)
        atts = {
            4: tuple(attest(4, 7, [0, 1, 2])),
            5: tuple(attest(5, 8, [0, 1, 2])),
        }
        bs = BlameSet(LIVENESS, frozenset({4, 5}), LivenessProof(7, atts))
        assert not is_valid_blameset(bs, committee, GUARDS)

    def test_safety_pair_round_must_follow_conflict(self):
        g, committee, block_b, block_p, votes_b, votes_p = build_conflict_guard()
        # pair votes taken from the wrong round fail verification
        bad = SafetyProof(None, block_b, block_p, {1: (votes_b[1], votes_b[2])})
        bs = BlameSet(SAFETY, frozenset({1}), bad)
        assert not is_valid_blameset(bs, committee, GUARDS)

    def test_text_roundtrip_preserves_validity(self):
        g, committee, block_b, block_p, votes_b, votes_p = build_conflict_guard()
        pairs = {a: (votes_b[a], votes_p[a]) for a in (1, 2)}
        proof = SafetyProof(LeaderSlot(2, 0), block_b, block_p, pairs)
        bs = BlameSet(SAFETY, frozenset({1, 2}), proof)
        assert is_valid_blameset(bs, committee, GUARDS)
        again = BlameSet.from_text(bs.to_text())
        assert again.members == bs.members
        assert is_valid_blameset(again, committee, GUARDS)
        assert again.to_text() == bs.to_text()

    def test_liveness_text_roundtrip(self):
        committee = Committee.of_size(6)
        bs = self.liveness_set({4, 5}, 7, {4: [0, 1, 2], 5: [0, 1, 2]})
        again = BlameSet.from_text(bs.to_text())
        assert is_valid_blameset(again, committee, GUARDS)


def liveness_blameset_for(g, members, r):
    for m in members:
        for msg in attest(m, r, range(GUARDS)):
            g.on_lblame(msg, 100)
    return g._build_liveness_blameset(r)


class TestRecoverySession:
    def run_session(self, guards, proposals, start=1000):
        """Drive proposals and relays by hand through a lock-step schedule."""
        actions = {}
        for g, bs in proposals.items():
            actions[g] = guards[g].recover(bs, start)
        # deliver every broadcast relay to every other guard at start + delta
        relays = [
            a.payload
            for acts in actions.values()
            for a in acts
            if isinstance(a, Broadcast)
        ]
        second_wave = []
        for relay in relays:
            for gid, guard in guards.items():
                if gid != relay.proposal.guard:
                    second_wave.extend(
                        a.payload
                        for a in guard.on_recover_msg(relay, start + DELTA)
                        if isinstance(a, Broadcast)
                    )
        for relay in second_wave:
            for gid, guard in guards.items():
                guard.on_recover_msg(relay, start + 2 * DELTA)
        outs = {}
        t_g = (GUARDS - 1) // 2
        for gid, guard in guards.items():
            done = guard.on_timer("ba-finalize", start + (t_g + 1) * DELTA)
            outs[gid] = [a for a in done if isinstance(a, RecoveryDone)]
        return outs

    def make_guards(self):
        committee = Committee.of_size(6)
        guards = {i: make_guard(i, committee) for i in range(GUARDS)}
        for g in guards.values():
            feed_round(g, 1, authors=(0, 1, 2, 3), now=10)
        return committee, guards

    def test_unanimous_proposals_agree(self):
        committee, guards = self.make_guards()
        proposals = {}
        for gid, g in guards.items():
            proposals[gid] = liveness_blameset_for(g, (4, 5), 1)
        outs = self.run_session(guards, proposals)
        agreed = {outs[g][0].directive.excluded for g in outs}
        assert agreed == {(4, 5)}

    def test_crashed_guard_does_not_block(self):
        committee, guards = self.make_guards()
        proposals = {
            gid: liveness_blameset_for(g, (4, 5), 1)
            for gid, g in guards.items()
            if gid != 0  # guard 0 silent
        }
        outs = self.run_session(guards, proposals)
        for gid in (1, 2, 3, 4):
            assert outs[gid][0].directive.excluded == (4, 5)

    def test_bogus_low_index_proposal_is_passed_over(self):
        committee, guards = self.make_guards()
        bogus_bs = BlameSet(LIVENESS, frozenset({0, 1}), LivenessProof(1, {}))
        text = bogus_bs.to_text()
        bogus = RecoverProposal(0, text, None, recover_tag(0, text, None))
        proposals = {
            gid: liveness_blameset_for(g, (4, 5), 1)
            for gid, g in guards.items()
            if gid != 0
        }
        actions = {g: guards[g].recover(proposals[g], 1000) for g in proposals}
        relay0 = AgreementRelay(0, bogus, (0,), (relay_tag(0, 0, bogus),))
        for gid in (1, 2, 3, 4):
            guards[gid].on_recover_msg(relay0, 1000 + DELTA)
        relays = [
            a.payload
            for acts in actions.values()
            for a in acts
            if isinstance(a, Broadcast)
        ]
        for relay in relays:
            for gid in (1, 2, 3, 4):
                if gid != relay.proposal.guard:
                    guards[gid].on_recover_msg(relay, 1000 + DELTA)
        t_g = (GUARDS - 1) // 2
        agreed = set()
        for gid in (1, 2, 3, 4):
            done = guards[gid].on_timer("ba-finalize", 1000 + (t_g + 1) * DELTA)
            out = [a for a in done if isinstance(a, RecoveryDone)]
            assert out[0].directive.excluded == (4, 5)
            agreed.add(out[0].directive.blameset_text)
        assert len(agreed) == 1

    def started(self):
        """Guard 1 with its own liveness session opened at t0 = 1000."""
        committee, guards = self.make_guards()
        g = guards[1]
        g.recover(liveness_blameset_for(g, (4, 5), 1), 1000)
        assert g.session.skew == 0
        return g

    @staticmethod
    def proposal(proposer, text, branch=None):
        return RecoverProposal(proposer, text, branch, recover_tag(proposer, text, branch))

    def relay(self, proposer, text, chain):
        """A relay of `text` proposed by `proposer`, signed by `chain`."""
        proposal = self.proposal(proposer, text)
        tags = tuple(relay_tag(g, proposer, proposal) for g in chain)
        return AgreementRelay(proposer, proposal, tuple(chain), tags)

    @staticmethod
    def forwarded(actions):
        return [a.payload.chain for a in actions if isinstance(a, Broadcast)]

    @staticmethod
    def stored(g, proposer):
        return [p.blameset_text for p in g.session.accepted.get(proposer, {}).values()]

    def test_a_value_is_forwarded_once_per_proposer(self):
        g = self.started()
        first = self.relay(0, "value", (0,))
        assert self.forwarded(g.on_recover_msg(first, 1000 + DELTA)) == [(0, 1)]
        # the same value again, alone or under a longer chain
        assert g.on_recover_msg(first, 1000 + DELTA) == []
        assert g.on_recover_msg(self.relay(0, "value", (0, 2)), 1000 + 2 * DELTA) == []
        assert self.stored(g, 0) == ["value"]
        # another proposer's relay of the same value is forwarded in its own right
        assert self.forwarded(g.on_recover_msg(self.relay(3, "value", (3,)), 1000 + DELTA)) == [(3, 1)]

    def test_a_third_value_from_one_proposer_is_neither_stored_nor_forwarded(self):
        g = self.started()
        for text in ("one", "two"):
            assert self.forwarded(g.on_recover_msg(self.relay(0, text, (0,)), 1000 + DELTA)) == [(0, 1)]
        assert g.on_recover_msg(self.relay(0, "three", (0,)), 1000 + DELTA) == []
        assert self.stored(g, 0) == ["one", "two"]

    def test_a_chain_of_t_g_plus_1_signers_is_stored_not_forwarded(self):
        g = self.started()
        chain = (0, 2, 3)
        assert len(chain) == g.t_g + 1
        assert g.on_recover_msg(self.relay(0, "value", chain), 1000 + 3 * DELTA) == []
        assert self.stored(g, 0) == ["value"]

    def test_a_relay_later_than_its_chain_allows_is_ignored(self):
        g = self.started()
        # a chain of k signers is taken up to t0 + k * delta
        assert g.on_recover_msg(self.relay(0, "value", (0,)), 1000 + DELTA + 1) == []
        assert self.stored(g, 0) == []
        late = self.relay(0, "value", (0, 2))
        assert self.forwarded(g.on_recover_msg(late, 1000 + 2 * DELTA)) == [(0, 2, 1)]
        assert self.stored(g, 0) == ["value"]
        # a safety session allows one delta more
        g, *_ = build_conflict_guard()
        t0 = g.session.t0
        assert g.session.skew == DELTA
        assert g.on_recover_msg(self.relay(1, "value", (1,)), t0 + 2 * DELTA + 1) == []
        assert self.forwarded(g.on_recover_msg(self.relay(1, "value", (1,)), t0 + 2 * DELTA)) == [(1, 0)]

    def test_a_liveness_proposal_carries_no_branch(self):
        committee, guards = self.make_guards()
        g = guards[0]
        text = liveness_blameset_for(g, (4, 5), 1).to_text()
        assert g.valid_recovery_proposal(self.proposal(1, text)) is not None
        branch = g.dag.first_block_by(0, 1).ref
        assert g.valid_recovery_proposal(self.proposal(1, text, branch)) is None

    def test_a_safety_branch_must_name_the_certified_side(self):
        # four voters back B-prime, one short of 4f+1
        g, committee, block_b, block_p, votes_b, votes_p = build_conflict_guard(range(1, 5))
        for x, y in ((block_b, block_p), (block_p, block_b)):
            votes_x, votes_y = (votes_b, votes_p) if x is block_b else (votes_p, votes_b)
            pairs = {a: (votes_x[a], votes_y[a]) for a in (1, 2, 3, 4)}
            bs = BlameSet(SAFETY, frozenset(pairs), SafetyProof(LeaderSlot(2, 0), x, y, pairs))
            assert is_valid_blameset(bs, committee, GUARDS)
            text = bs.to_text()

            def verdict(branch):
                return g.valid_recovery_proposal(self.proposal(1, text, branch))

            assert verdict(block_b.ref).to_text() == text
            assert verdict(block_p.ref) is None  # the uncertified side
            assert verdict(None) is None and verdict(votes_b[0].ref) is None  # neither side

    def test_recovery_input_is_write_once(self):
        committee, guards = self.make_guards()
        g = guards[0]
        bs = liveness_blameset_for(g, (4, 5), 1)
        g.recover(bs, 1000)
        first = g.recovery_input
        other = liveness_blameset_for(g, (4, 5), 1)
        assert g.recover(other, 1100) == []
        assert g.recovery_input is first


class TestReconfiguration:
    def test_liveness_exclusion_shrinks_committee(self):
        committee = Committee.of_size(6)
        new_committee = apply_reconfiguration((4, 5), committee)
        assert new_committee.members == (0, 1, 2, 3)
        assert new_committee.f == 0
        assert new_committee.epoch == 1
        assert new_committee.mode is committee.mode

    def test_safety_branch_is_strongly_certified_side(self):
        g, committee, block_b, block_p, votes_b, votes_p = build_conflict_guard()
        pairs = {a: (votes_b[a], votes_p[a]) for a in (1, 2, 3, 4)}
        proof = SafetyProof(LeaderSlot(2, 0), block_b, block_p, pairs)
        branch = g._canonical_branch(proof)
        assert branch == block_b.ref  # five distinct voters back block_b
