"""Protocol invariants as property tests: quorum arithmetic, independent
vote-count oracles against recorded runs, certificate propagation, and
boundary properties checked with hypothesis."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentabft.committer import (
    Committer,
    LeaderSlot,
    Verdict,
    linearize_one,
    validate_stake_split,
)
from pentabft.dagcore import Committee, Dag, decode_block, make_block
from pentabft.runner import Runner, run, run_record
from pentabft import scenarios

from oracles import committed_leaders, decide_all, post_order, run_with_history
from test_dagcore import full_round


# -- independent oracle: naive recursive vote resolution -------------------------


def naive_voted_block(dag, block, author, round_):
    """Reference depth-first traversal, recursion written the obvious way."""
    if round_ >= block.round:
        return None
    for parent in block.parents:
        if parent.author == author and parent.round == round_:
            return parent.digest
        if parent.round > round_:
            found = naive_voted_block(dag, dag.get(parent), author, round_)
            if found is not None:
                return found
    return None


def naive_tally(dag, committee, decision_round, candidate):
    supports = blames = 0
    for author in committee.members:
        versions = dag.blocks_by(author, decision_round)
        if len(versions) != 1:
            continue
        found = naive_voted_block(dag, versions[0], candidate.author, candidate.round)
        if found == candidate.digest:
            supports += 1
        elif found is None:
            blames += 1
    return supports, blames


class TestVoteOracle:
    def test_fault_free_verdicts_match_brute_force(self):
        cfg = scenarios.fault_free(1, rounds=12)
        result, history = run_with_history(cfg, seed=13)
        state = result.epochs[0]
        committee = state.committee
        node = state.validators[0]
        dag = history(node)
        decided = node.committer.decided_slots()
        for r in range(1, 11):
            for rank in range(cfg.leaders_per_round):
                leader = (r + rank) % committee.size
                candidates = dag.blocks_by(leader, r)
                assert len(candidates) == 1
                supports, blames = naive_tally(dag, committee, r + 1, candidates[0])
                verdict = decided[LeaderSlot(r, rank)]
                if supports >= committee.strong_quorum:
                    assert verdict.verdict is Verdict.COMMIT
                    assert verdict.block == candidates[0].ref
                if blames >= committee.strong_quorum:
                    assert verdict.verdict is Verdict.SKIP

    def test_dfs_matches_naive_on_equivocating_run(self):
        cfg = scenarios.equivocate_f(rounds=10)
        result, history = run_with_history(cfg, seed=7)
        state = result.epochs[0]
        dag = history(state.validators[0])
        for r in range(1, 9):
            for support in dag.blocks_at_round(r + 1):
                for author in state.committee.members:
                    fast = dag.voted_block(support, author, r)
                    slow = naive_voted_block(dag, support, author, r)
                    assert fast == slow


class TestCertificates:
    def test_strong_certificate_exclusive_per_slot(self):
        cfg = scenarios.equivocate_f(rounds=15)
        result, history = run_with_history(cfg, seed=21)
        state = result.epochs[0]
        committee = state.committee
        dag = history(state.validators[0])
        for r in range(1, 14):
            for author in committee.members:
                versions = dag.blocks_by(author, r)
                certified = [
                    b
                    for b in versions
                    if naive_tally(dag, committee, r + 1, b)[0] >= committee.strong_quorum
                ]
                assert len(certified) <= 1

    def test_strong_support_propagates_linked_weak_certificates(self):
        cfg = scenarios.fault_free(1, rounds=12)
        result, history = run_with_history(cfg, seed=5)
        state = result.epochs[0]
        committee = state.committee
        dag = history(state.validators[0])
        for r in range(1, 8):
            leader = dag.blocks_by(r % committee.size, r)[0]
            supporters = {
                dag.blocks_by(a, r + 1)[0].digest
                for a in committee.members
                if dag.blocks_by(a, r + 1)
                and naive_voted_block(dag, dag.blocks_by(a, r + 1)[0], leader.author, r)
                == leader.digest
            }
            if len(supporters) < committee.strong_quorum:
                continue
            for future_round in (r + 2, r + 3):
                for block in dag.blocks_at_round(future_round):
                    linked = dag.ancestors_at_round(block.ref, r + 1)
                    assert len(linked & supporters) >= committee.weak_quorum


class TestAsyncCommitProbability:
    def bound(self, n, core, leaders):
        return 1.0 - math.comb(n - core, leaders) / math.comb(n, leaders)

    def test_documented_value_for_small_core(self):
        assert self.bound(6, 3, 2) == 0.8

    def test_deterministic_success_above_three_f(self):
        for core in (3, 4, 5):
            assert self.bound(6, core, 4) == 1.0

    def test_monotone_in_core_size(self):
        values = [self.bound(6, c, 2) for c in range(0, 7)]
        assert values == sorted(values)


class TestVerdictStability:
    def test_cached_verdicts_match_fresh_recomputation(self):
        """A decided slot never regresses: replaying the decision rules over
        the final DAG reproduces every verdict reached incrementally."""
        for builder, seed in (
            (lambda: scenarios.crash_leader(rounds=15), 4),
            (lambda: scenarios.equivocate_f(rounds=15), 9),
        ):
            cfg = builder()
            result, history = run_with_history(cfg, seed)
            state = result.epochs[0]
            for vid, node in state.validators.items():
                if vid in state.faulty:
                    continue
                fresh_decisions = {
                    d.slot: d
                    for d in decide_all(history(node), state.committee, cfg.leaders_per_round)
                }
                for slot, decided in node.committer.decided_slots().items():
                    again = fresh_decisions[slot]
                    assert again.verdict is decided.verdict, (vid, slot)
                    assert again.block == decided.block


class TestIncrementalPass:
    """The decision pass evaluates only the slots whose quorate decision
    round grew or that lie below a new verdict; it must decide what the full
    walk over every slot decides."""

    def test_live_verdicts_match_full_walk_oracle(self):
        for cfg in (scenarios.async_adversarial(), scenarios.equivocate_f()):
            for seed in (1, 2):
                result, history = run_with_history(cfg, seed)
                state = result.epochs[0]
                for vid, node in state.validators.items():
                    live = node.committer
                    oracle = {
                        d.slot: d
                        for d in decide_all(
                            history(node), state.committee, cfg.leaders_per_round, live.coin
                        )
                    }
                    decided = live.decided_slots()
                    assert decided, (cfg.name, seed, vid)
                    for slot, d in decided.items():
                        assert oracle[slot].verdict is d.verdict, (cfg.name, seed, vid, slot)
                        assert oracle[slot].block == d.block

    def test_each_pass_decides_what_the_full_walk_decides(self):
        """Replay a run's DAG block by block with a pass after every insert:
        each pass must leave exactly the full walk's decided slots. The pass
        prunes its own DAG, so the full walk reads an unpruned copy."""
        for cfg in (scenarios.async_adversarial(rounds=12), scenarios.equivocate_f(rounds=12)):
            result, history = run_with_history(cfg, 1)
            state = result.epochs[0]
            source = state.validators[0]
            stored = history(source)
            dag, full = Dag(state.committee), Dag(state.committee)
            committer = Committer(dag, state.committee, cfg.leaders_per_round, source.committer.coin)
            for r in range(1, stored.max_round + 1):
                for block in stored.blocks_at_round(r):
                    dag.insert(block)
                    full.insert(block)
                    committer.extend()
                    expected = {
                        d.slot: d
                        for d in decide_all(full, state.committee, cfg.leaders_per_round, committer.coin)
                        if d.verdict is not Verdict.UNDECIDED
                    }
                    assert committer.decided_slots() == expected, (cfg.name, block.ref.short())
            assert committer.sequence, cfg.name

    def test_fresh_committer_extends_the_live_sequence(self):
        cases = (
            (scenarios.async_adversarial(), False),
            (scenarios.equivocate_f(), False),
            (scenarios.by_name("fault-free-f1"), True),
            (scenarios.by_name("async-fault-free"), True),
        )
        for cfg, equal in cases:
            result, history = run_with_history(cfg, 1)
            state = result.epochs[0]
            for vid, node in state.validators.items():
                live = node.committer
                fresh = Committer(history(node), state.committee, cfg.leaders_per_round, live.coin)
                fresh.extend()
                assert live.sequence, (cfg.name, vid)
                assert fresh.sequence[: len(live.sequence)] == live.sequence, (cfg.name, vid)
                if equal:
                    assert fresh.sequence == live.sequence, (cfg.name, vid)
                    assert fresh.delivery_sequence == live.delivery_sequence

    def test_pass_waits_for_a_quorate_decision_round(self, monkeypatch):
        """Blocks that leave their round below 4f+1 authors open no slot
        evaluation, also right after a pass that decided slots."""
        committee = Committee.of_size(6)
        dag = Dag(committee)
        committer = Committer(dag, committee)
        for r in (1, 2, 3):
            full_round(dag, committee, r)
        committer.extend()
        assert committer.sequence
        calls = spy_on_rules(monkeypatch)
        parents = [dag.first_block_by(a, 3).ref for a in committee.members]
        for author in range(4 * committee.f):
            dag.insert(make_block(author, 4, parents))
            committer.extend()
        assert calls == []
        # the strong quorum at round 4 opens round 3's slots
        dag.insert(make_block(4 * committee.f, 4, parents))
        committer.extend()
        assert calls == ["try_direct_decide"] * committer.leaders_per_round

    def test_each_decided_slot_is_evaluated_about_once(self, monkeypatch):
        calls = spy_on_rules(monkeypatch)
        per_slot = {}
        for rounds in (20, 40):
            calls.clear()
            state = run(scenarios.async_fault_free(1, rounds=rounds), 1).epochs[0]
            decided = sum(len(node.committer.decided_slots()) for node in state.validators.values())
            assert decided >= len(state.validators) * rounds
            per_slot[rounds] = len(calls) / decided
        # doubling the run keeps the evaluations per decision under one bound
        assert max(per_slot.values()) < 1.5, per_slot


def spy_on_rules(monkeypatch) -> list[str]:
    """Record the name of each decision rule a committer calls from now on."""
    calls: list[str] = []
    for name in ("try_direct_decide", "try_indirect_decide"):
        def spy(self, *args, _real=getattr(Committer, name), _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(Committer, name, spy)
    return calls


REPLAYED = {
    "async-adversarial": lambda: scenarios.async_adversarial(rounds=12),
    "equivocate-f": lambda: scenarios.equivocate_f(rounds=12),
    "splitview-3f": scenarios.splitview_3f,
}


@functools.cache
def replay_source(name):
    """Seed 1's epoch-0 state of a scenario and, for its first three honest
    validators, every block above genesis they stored, in ascending rounds."""
    cfg = REPLAYED[name]()
    result, history = run_with_history(cfg, 1)
    state = result.epochs[0]
    honest = sorted(set(state.validators) - state.faulty)[:3]
    blocks = {}
    for vid in honest:
        dag = history(state.validators[vid])
        blocks[vid] = [b for r in range(1, dag.max_round + 1) for b in dag.blocks_at_round(r)]
    return cfg, state, blocks


def parent_respecting_shuffle(blocks, rng):
    """`blocks` in a random order in which every parent comes first."""
    placed = {p.digest for b in blocks for p in b.parents if p.round == 0}
    left, order = list(blocks), []
    while left:
        ready = [b for b in left if placed.issuperset(b.parent_digests)]
        block = rng.choice(ready)
        left.remove(block)
        placed.add(block.digest)
        order.append(block)
    return order


def contradictions(committer, dag, cfg, committee):
    """Slots the committer decided one way and the full walk another way."""
    decided = committer.decided_slots()
    return [
        d.slot
        for d in decide_all(dag, committee, cfg.leaders_per_round, committer.coin)
        if d.verdict is not Verdict.UNDECIDED and d.slot in decided and decided[d.slot] != d
    ]


class TestOrderIndependence:
    """The commit sequence is a function of the DAG, not of the order in
    which its blocks were stored or of where the decision passes fell. The
    passes prune the replayed DAG, so the full walk reads an unpruned copy."""

    @pytest.mark.parametrize("name", sorted(REPLAYED))
    @given(pick=st.integers(0, 2), rng=st.randoms(use_true_random=False))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_replayed_orders_agree(self, name, pick, rng):
        cfg, state, blocks = replay_source(name)
        committee = state.committee
        vid = sorted(blocks)[pick]
        coin = state.validators[vid].committer.coin

        def replay(order, skip):
            dag, full = Dag(committee), Dag(committee)
            committer = Committer(dag, committee, cfg.leaders_per_round, coin)
            sequences = []
            for block in order:
                dag.insert(block)
                full.insert(block)
                if skip():
                    continue
                committer.extend()
                sequences.append(list(committer.sequence))
                assert not contradictions(committer, full, cfg, committee), (cfg.name, vid)
            committer.extend()
            return full, committer, sequences

        _, reference, _ = replay(blocks[vid], lambda: False)
        dag, committer, sequences = replay(
            parent_respecting_shuffle(blocks[vid], rng), lambda: rng.random() < 0.5
        )
        final = committer.sequence
        assert final, (cfg.name, vid)
        for seq in sequences:
            assert final[: len(seq)] == seq, (cfg.name, vid)
        decided = committer.decided_slots()
        for d in decide_all(dag, committee, cfg.leaders_per_round, coin):
            if d.verdict is not Verdict.UNDECIDED:
                assert decided.get(d.slot) == d, (cfg.name, vid, d.slot)
        assert final == reference.sequence, (cfg.name, vid)
        assert committer.delivery_sequence == reference.delivery_sequence


def fork_points(root):
    """Prefixes of a committee's delivery log extended by two or more leaders."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += len(node.next) > 1
        stack.extend(node.next.values())
    return count


class TestLinearization:
    def test_one_set_post_order_matches_two_set_reference(self):
        """Every node's delivery sequence, read from the committee's shared
        log, equals a replay with its own private emitted set; splitview-3f
        forks the committed prefix, so its nodes also take the rebuild path.
        Every node must commit more than its scenario's floor of leaders
        (splitview-3f's validators of epoch 1 commit 10 or 11)."""
        for cfg, floor, forks in (
            (scenarios.equivocate_f(), 10, 0),
            (scenarios.splitview_3f(), 9, 4),
        ):
            result, history = run_with_history(cfg, seed=1)
            for state in result.epochs:
                for name, node in (*state.validators.items(), *state.guards.items()):
                    leaders = committed_leaders(node.committer)
                    dag = history(node)
                    emitted: set[bytes] = set()
                    reference: set[bytes] = set()
                    sequence = []
                    for leader in leaders:
                        batch = linearize_one(dag, leader, emitted)
                        assert batch == post_order(dag, leader, reference)
                        assert emitted == reference
                        sequence.extend(batch)
                    assert sequence == node.committer.delivery_sequence, (cfg.name, state.epoch)
                    assert len(leaders) > floor, (cfg.name, state.epoch, name)
            assert sum(fork_points(s.committee.memo.delivery) for s in result.epochs) == forks


class TestHonestBehavior:
    def test_honest_nodes_never_equivocate(self):
        cfg = scenarios.crash_leader(rounds=15)
        result, history = run_with_history(cfg, seed=3)
        state = result.epochs[0]
        union = history(state.validators[0])
        for v, node in state.validators.items():
            if v in state.faulty:
                continue
            for r in range(1, node.current_round + 1):
                assert len(union.blocks_by(v, r)) <= 1

    def test_commit_log_is_append_only(self):
        cfg = scenarios.fault_free(1, rounds=10)
        runner = Runner(cfg, seed=1)
        committer = runner.epochs[0].validators[0].committer
        leaders, delivery = [], []
        # step the run one delta at a time and read the log between steps
        for horizon in range(0, cfg.horizon_vtime() + 1, cfg.delta):
            runner.sim.horizon = horizon
            runner.sim.run()
            assert committed_leaders(committer)[: len(leaders)] == leaders
            assert committer.delivery_sequence[: len(delivery)] == delivery
            leaders = committed_leaders(committer)
            delivery = list(committer.delivery_sequence)
        assert leaders
        # the sequence itself is the log: ascending slots, no repeats
        slots = [(d.slot.round, d.slot.rank) for d in committer.sequence]
        assert slots == sorted(slots)
        assert len(set(slots)) == len(slots)


class TestStakeSplitProperty:
    @given(total=st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_boundary_is_exact(self, total):
        bound = (5 * (total - 1) + 5) // 6
        assert validate_stake_split(total, bound)
        if bound >= 1:
            assert not validate_stake_split(total, bound - 1)

    @given(total=st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_bound_matches_real_arithmetic(self, total):
        bound = (5 * (total - 1) + 5) // 6
        assert bound >= 5 * (total - 1) / 6
        assert bound - 1 < 5 * (total - 1) / 6


class TestSerializationProperty:
    payloads = st.lists(st.binary(max_size=64), max_size=4)

    @given(author=st.integers(0, 30), round_=st.integers(0, 500), txs=payloads)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_roundtrip(self, author, round_, txs):
        block = make_block(author, round_, (), txs)
        again = decode_block(block.encode())
        assert again == block
        assert again.transactions == tuple(txs)
        assert again.digest == block.digest
