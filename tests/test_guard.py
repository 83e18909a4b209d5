"""Guard layer: liveness accounting, blamesets, equivocation resolution,
recovery agreement, and reconfiguration."""

import pytest

from pentabft.committer import LeaderSlot, Verdict
from pentabft.dagcore import Committee, Dag, genesis_blocks, make_block
from pentabft.guard import (
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
)
from pentabft.messages import (
    AgreementRelay,
    Broadcast,
    BlockMsg,
    CommitClaim,
    LBlameMsg,
    RecoverProposal,
    RecoveryDone,
)

from replica_path import deliver

DELTA = 1000
GUARDS = 5


def make_guard(me=0, committee=None):
    committee = committee or Committee.of_size(6)
    return Guard(me, committee, guard_count=GUARDS, delta=DELTA, leaders_per_round=2)


def full_round_blocks(dag, committee, r, payload=b"t"):
    parents = [
        dag.first_block_by(a, r - 1).ref() for a in sorted(dag.authors_at_round(r - 1))
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
        parents = [g.dag.first_block_by(a, 1).ref() for a in range(5)]
        one = make_block(2, 2, parents, (b"a",))
        two = make_block(2, 2, parents, (b"b",))
        deliver(g, [one], "v2", 200)
        assert 2 not in g.asleep(2)
        actions = deliver(g, [two], "v2", 300)
        echoes = [a for a in actions if isinstance(a, Broadcast) and isinstance(a.payload, BlockMsg)]
        assert echoes == []  # second version retained as evidence only
        assert g.evidence[(2, 2)].keys() == {one.digest, two.digest}

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
        parents = [g.dag.first_block_by(a, 1).ref() for a in range(6)]
        # leader of round 1 rank 0 (validator 1) equivocates
        fork_a = make_block(1, 2, parents, (b"fa",))
        fork_b = make_block(1, 2, parents, (b"fb",))
        deliver(g, [fork_a], "v1", 150)
        deliver(g, [fork_b], "v1", 151)
        for a in (0, 2, 3, 4, 5):
            deliver(g, [make_block(a, 2, parents, (b"r2",))], f"v{a}", 150)
        base = {x: g.dag.first_block_by(x, 2).ref() for x in range(6)}
        for a in range(6):
            chosen = dict(base)
            chosen[1] = fork_a.ref() if a in (0, 2) else fork_b.ref()
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


def build_conflict_guard():
    """Guard state around one slot committed as B while B-prime gathers the
    documented overlap: voters 0-4 support B, voters 1-5 support B-prime,
    with 1-4 provably on both sides."""
    committee = Committee.of_size(6)
    g = make_guard(0, committee)
    feed_round(g, 1, now=10)
    parents = [g.dag.first_block_by(a, 1).ref() for a in range(6)]
    for a in (0, 1, 3, 4, 5):
        deliver(g, [make_block(a, 2, parents, (b"r2",))], f"v{a}", 19)
    block_b = make_block(2, 2, parents, (b"fork-b",))
    block_p = make_block(2, 2, parents, (b"fork-p",))
    deliver(g, [block_b], "v2", 20)
    deliver(g, [block_p], "v2", 21)
    base = {a: g.dag.first_block_by(a, 2).ref() for a in g.dag.authors_at_round(2)}

    def vote(author, target, tag):
        chosen = dict(base)
        chosen[2] = target.ref()
        parents3 = [chosen[a] for a in sorted(chosen)]
        block = make_block(author, 3, parents3, (tag,))
        deliver(g, [block], f"v{author}", 30)
        return block

    votes_b = {a: vote(a, block_b, b"vb") for a in range(5)}
    votes_p = {a: vote(a, block_p, b"vp") for a in range(1, 6)}
    return g, committee, block_b, block_p, votes_b, votes_p


class TestCheckEquivocation:
    def test_overlap_of_double_voters(self):
        g, committee, block_b, block_p, *_ = build_conflict_guard()
        slot = LeaderSlot(2, 0)
        g.committed[slot] = CommitClaim(slot, Verdict.COMMIT, block_b.ref())
        claim = CommitClaim(slot, Verdict.COMMIT, block_p.ref())
        members, proof = g.check_equivocation([claim], 40)
        assert members == {1, 2, 3, 4}
        bs = BlameSet(SAFETY, frozenset(members), proof)
        assert is_valid_blameset(bs, committee, GUARDS)

    def test_no_conflict_returns_none(self):
        g, committee, block_b, *_ = build_conflict_guard()
        slot = LeaderSlot(2, 0)
        g.committed[slot] = CommitClaim(slot, Verdict.COMMIT, block_b.ref())
        claim = CommitClaim(slot, Verdict.COMMIT, block_b.ref())
        assert g.check_equivocation([claim], 40) is None

    def test_commit_versus_skip_conflict(self):
        g, committee, block_b, block_p, *_ = build_conflict_guard()
        slot = LeaderSlot(2, 0)
        g.committed[slot] = CommitClaim(slot, Verdict.COMMIT, block_b.ref())
        claim = CommitClaim(slot, Verdict.SKIP, None)
        members, proof = g.check_equivocation([claim], 40)
        assert len(members) >= committee.f + 1
        assert proof.block_b is None
        bs = BlameSet(SAFETY, frozenset(members), proof)
        assert is_valid_blameset(bs, committee, GUARDS)

    def test_pair_scan_detects_enough_equivocators(self):
        g, committee, *_ = build_conflict_guard()
        assert g.safety_detection_vtime is not None
        assert g.recovery_input is not None
        assert g.recovery_input.kind == SAFETY
        assert len(g.recovery_input.members) >= committee.f + 1


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
        bs = BlameSet(LIVENESS, frozenset({4, 5}), LivenessProof(7, {}))
        new_committee, directive = apply_reconfiguration(bs, committee, LIVENESS)
        assert new_committee.members == (0, 1, 2, 3)
        assert new_committee.f == 0
        assert new_committee.epoch == 1
        assert directive.kind == LIVENESS
        assert directive.excluded == (4, 5)

    def test_safety_branch_is_strongly_certified_side(self):
        g, committee, block_b, block_p, votes_b, votes_p = build_conflict_guard()
        pairs = {a: (votes_b[a], votes_p[a]) for a in (1, 2, 3, 4)}
        proof = SafetyProof(LeaderSlot(2, 0), block_b, block_p, pairs)
        branch = g._canonical_branch(proof)
        assert branch == block_b.ref()  # five distinct voters back block_b
