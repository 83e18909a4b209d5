"""End-to-end scenario runs: catalog smoke, faults, recovery, determinism."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable

import pytest

from pentabft import scenarios
from pentabft.committer import PRUNE_DEPTH, CommonCoin
from pentabft.dagcore import (
    CoinShare,
    Committee,
    Mode,
    PendingPool,
    genesis_blocks,
    make_block,
    stored_history,
    unpruned,
)
from pentabft.faults import CrashValidator, SilentGuard
from pentabft.guard import Guard
from pentabft.messages import BlockMsg, Broadcast, Send, SyncResponse
from pentabft.metrics import Metrics, from_record
from pentabft.runner import (
    GuardAdapter,
    Runner,
    ValidatorAdapter,
    check_delivery_bounds,
    check_prefix_consistency,
    run,
    run_record,
    verify_scenario,
)
from pentabft.simnet import Simulator, Synchronous
from pentabft.validator import LEADER_TIMER, CoreValidator

from oracles import event_lines, run_with_history


def short(cfg, **kw):
    from dataclasses import replace

    return replace(cfg, **kw)


class TestCatalogSmoke:
    @pytest.mark.parametrize("name", sorted(scenarios.CATALOG))
    def test_scenario_passes_its_own_assertions(self, name):
        cfg = scenarios.by_name(name)
        if cfg.rounds > 30:
            cfg = short(cfg, rounds=20)
        cfg.validate()
        result = run(cfg, seed=5)
        assert verify_scenario(cfg, result.record) == []

    def test_unknown_scenario_rejected(self):
        from pentabft.simnet import ConfigError

        with pytest.raises(ConfigError):
            scenarios.by_name("nope")


class TestFaultFree:
    def test_every_complete_slot_commits_directly(self):
        cfg = scenarios.fault_free(1, rounds=20)
        record = run_record(cfg, seed=9)
        ref = record.honest_validators(0)[0]
        commits = [e for e in ref.commit_events if e[2] == "commit"]
        assert len(commits) == (cfg.rounds - 1) * cfg.leaders_per_round
        assert all(rule == "direct" for _, _, _, rule, _, _ in commits)
        assert all(trig == r + 1 for r, _, _, _, trig, _ in commits)

    def test_round_cadence_is_one_delta(self):
        cfg = scenarios.fault_free(1, rounds=10)
        record = run_record(cfg, seed=2)
        ref = record.honest_validators(0)[0]
        entries = [t for _, t in sorted(ref.round_entries.items())]
        gaps = {b - a for a, b in zip(entries[1:], entries[2:])}
        assert gaps == {cfg.delta}

    def test_round_entry_spread_is_bounded(self):
        cfg = scenarios.fault_free(1, rounds=12)
        record = run_record(cfg, seed=3)
        honest = record.honest_validators(0)
        for r in range(1, 12):
            times = [v.round_entries[r] for v in honest if r in v.round_entries]
            assert max(times) - min(times) <= cfg.delta

    def test_delivery_bounds_hold(self):
        cfg = short(scenarios.fault_free(1, rounds=10), record_events=True)
        result = run(cfg, seed=4)
        assert result.sim.record_events, "the bound check rides on event recording"
        assert result.sim.delivery_count > 0
        assert result.sim.late_deliveries == []
        assert check_delivery_bounds(result) == []


class TestCrash:
    def test_crash_leader_slots_are_skipped_on_time(self):
        cfg = scenarios.crash_leader(rounds=25)
        record = run_record(cfg, seed=6)
        ref = record.honest_validators(0)[0]
        crashed, crash_round = cfg.crash[0]
        skipped = [
            (r, k)
            for r, k, verdict, _, _, _ in ref.commit_events
            if verdict == "skip"
        ]
        assert skipped, "crashed leader slots must be skipped"
        # the crashed validator's slots after its crash round are skipped
        for r, k in skipped:
            leader = (r + k) % cfg.n
            assert leader == crashed
            assert r >= crash_round

    def test_crash_f_plus_one_halts_dag(self):
        cfg = scenarios.crash_f_plus_1()
        record = run_record(cfg, seed=2)
        crash_round = max(r for _, r in cfg.crash)
        for v in record.epochs[0].validators:
            if not v.faulty:
                assert v.highest_round <= crash_round

    def test_recovery_restarts_reduced_committee(self):
        cfg = scenarios.crash_f_plus_1()
        record = run_record(cfg, seed=2)
        assert len(record.epochs) == 2
        epoch1 = record.epochs[1]
        assert epoch1.members == (0, 1, 2, 3)
        assert epoch1.f == 0
        assert all(v.committed for v in epoch1.validators)
        assert verify_scenario(cfg, record) == []


class TestAdversary:
    @pytest.mark.parametrize("name", sorted(scenarios.CATALOG))
    def test_first_epoch_corrupts_what_the_config_names(self, name):
        cfg = scenarios.by_name(name)
        result = run(cfg, seed=1)
        first = result.epochs[0]
        assert first.faulty == cfg.faulty_validators()
        assert first.faulty_guards == {g for g, _ in cfg.byz_guards}
        for node in result.record.epochs[0].validators:
            assert node.faulty == (int(node.node[1:]) in cfg.faulty_validators())
        # a restart excludes whom recovery blamed; the rest run honestly
        for state in result.epochs[1:]:
            assert state.faulty == frozenset() and state.faulty_guards == set()
            assert all(type(v) is CoreValidator for v in state.validators.values())
            assert all(type(g) is Guard for g in state.guards.values())

    def test_faulty_validators_of_each_adversary(self):
        assert scenarios.fault_free(1).faulty_validators() == frozenset()
        assert scenarios.crash_f_plus_1().faulty_validators() == {4, 5}
        assert scenarios.splitview_3f().faulty_validators() == {3, 4, 5}
        withhold = scenarios.adversary_matrix("withhold", scenarios.SYNC, False)
        assert withhold.faulty_validators() == {1}


class TestCommitteeMemo:
    def test_one_memo_per_epoch(self):
        """Every validator and guard of an epoch reads and fills its
        committee's memo; the restart after f+1 crashes starts a fresh one."""
        result = run(scenarios.crash_f_plus_1(), seed=2)
        assert len(result.epochs) == 2
        memos = []
        for state in result.epochs:
            memo = state.committee.memo
            for node in (*state.validators.values(), *state.guards.values()):
                assert node.committee.memo is memo
                assert node.dag._memo is memo
                root = node.committer._prefix
                while root.parent is not None:
                    root = root.parent
                assert root is memo.delivery
            assert memo.valid and memo.delivery.next
            memos.append(memo)
        assert memos[1] is not memos[0]
        valid = [{d for at_round in memo.valid.values() for d in at_round} for memo in memos]
        assert valid[0] and valid[1] and not valid[0] & valid[1]

    def test_one_verdict_object_per_slot_verdict(self):
        """Every validator and guard that reaches a slot's verdict keeps the
        committee's one object for it, in its decided slots, its sequence
        and its decision events."""
        state = run(scenarios.fault_free(1, guards=5), seed=1).epochs[0]
        nodes = [*state.validators.values(), *state.guards.values()]
        first = {}
        for node in nodes:
            committer = node.committer
            for d in committer.decided.values():
                assert first.setdefault(d, d) is d
            assert all(first[d] is d for d in committer.sequence)
            decided = committer.decided_slots()
            assert all(decided[d.slot] is d for d, _, _, _ in committer.decision_events)
        assert len(first) == len({d.slot for d in first}) > 20

    @pytest.mark.parametrize(
        "config, epochs",
        [(scenarios.fault_free(6, rounds=20), 1), (scenarios.crash_f_plus_1(), 2)],
        ids=["fault-free-f6", "crash-f-plus-1"],
    )
    def test_record_shares_each_verdicts_data_across_validators(self, config, epochs):
        """The record builds a verdict's `committed` tuple and `decided` key
        and value once: every honest validator of an epoch holds the same
        objects for a slot."""
        record = run_record(config, seed=1)
        assert len(record.epochs) == epochs
        for epoch in range(epochs):
            committed, decided = {}, {}
            for node in record.honest_validators(epoch):
                for entry in node.committed:
                    assert committed.setdefault(entry[:2], entry) is entry
                for key, val in node.decided.items():
                    first_key, first_val = decided.setdefault(key, (key, val))
                    assert first_key is key and first_val is val
            assert committed and decided


class TestBoundedState:
    @staticmethod
    def entries(table, depth=1):
        """The entries of a round-keyed memo table, over all its rounds,
        counted `depth` levels below the round: the vote table nests author
        -> support digest, so its entries lie two levels down."""
        rows = table.values()
        for _ in range(depth - 1):
            rows = [inner for row in rows for inner in row.values()]
        return sum(map(len, rows))

    def test_replica_state_is_the_same_at_n_and_2n_rounds(self):
        """Each replica holds the rounds from its floor up, and the memos
        keep only the rounds from the lowest floor up, however long the run."""
        sizes = {}
        for rounds in (30, 60):
            state = run(scenarios.async_fault_free(1, rounds=rounds), seed=1).epochs[0]
            memo = state.committee.memo
            nodes = state.validators.values()
            assert all(node.dag.floor > rounds - 2 * PRUNE_DEPTH for node in nodes)
            sizes[rounds] = (
                [len(node.dag) for node in nodes],
                [len(node.pending) for node in nodes],
                self.entries(memo.votes, depth=2),
                self.entries(memo.valid),
                self.entries(memo.verdicts),
            )
        assert sizes[30] == sizes[60]

    def test_record_data_of_a_guarded_run_is_the_same_at_n_and_2n_rounds(self):
        """The simulator's timer table and the committee's verdict table do
        not grow with the run. Guards keep EVIDENCE_DEPTH (32) rounds, so no
        floor rises before round 33 and both runs go past it."""
        sizes = {}
        for rounds in (40, 80):
            result = run(scenarios.fault_free(1, rounds=rounds, guards=5), seed=1)
            state = result.epochs[0]
            sizes[rounds] = (
                len(result.sim._timer_seq),
                self.entries(state.committee.memo.verdicts),
            )
            assert state.committee.memo.floor > 0
        assert sizes[40] == sizes[80]

    @staticmethod
    def request_tables(pool):
        """A pending pool's awaited refs, their request times and the senders
        of its parked blocks."""
        return pool.awaited, pool._asked, pool._senders

    def peak_request_tables(self, monkeypatch):
        """The largest size each request table of any pool reaches from now
        on, checked after every block it parks."""
        peak = [0, 0, 0]
        real = PendingPool.add

        def add(pool, *args):
            fresh = real(pool, *args)
            peak[:] = map(max, peak, map(len, self.request_tables(pool)))
            return fresh

        monkeypatch.setattr(PendingPool, "add", add)
        return peak

    @pytest.mark.parametrize("name", ["async-adversarial", "equivocate-f"])
    def test_request_tables_end_empty(self, name, monkeypatch):
        """The catalog scenarios that sync leave nothing awaited: each
        request entry leaves with the blocks that await it."""
        peak = self.peak_request_tables(monkeypatch)
        result = run(scenarios.CATALOG[name](), seed=1)
        assert min(peak) > 0
        for state in result.epochs:
            for node in [*state.validators.values(), *state.guards.values()]:
                assert self.request_tables(node.pending) == ({}, {}, {})

    def test_request_tables_are_the_same_size_at_n_and_2n_rounds(self, monkeypatch):
        peak = self.peak_request_tables(monkeypatch)
        peaks = {}
        for rounds in (16, 32):
            peak[:] = [0, 0, 0]
            run(scenarios.equivocate_f(rounds=rounds, guards=5), seed=1)
            peaks[rounds] = list(peak)
        assert min(peaks[16]) > 0 and peaks[16] == peaks[32]


class TestForkTable:
    @staticmethod
    def fork_tables(state, history):
        """Each node's fork table over every block it stored in the run."""
        nodes = {f"v{v}": node for v, node in state.validators.items()}
        nodes.update((f"g{g}", guard) for g, guard in state.guards.items())
        return {
            name: {r: set(forks) for r, forks in history(node)._forks.items()}
            for name, node in nodes.items()
        }

    def test_only_the_equivocator_at_its_fork_rounds(self):
        """The side table of every honest node names v1 alone, and only at
        rounds where v1 stored two versions itself."""
        result, history = run_with_history(scenarios.equivocate_f(guards=5), seed=1)
        state = result.epochs[0]
        assert state.faulty == {1} and state.guards
        own = history(state.validators[1])._forks
        assert own and all(set(forks) == {1} for forks in own.values())
        tables = self.fork_tables(state, history)
        del tables["v1"]
        assert len(tables) == 10
        for name, table in tables.items():
            assert table, name
            assert all(forks == {1} for forks in table.values()), name
            assert table.keys() <= own.keys(), name

    def test_empty_without_faults(self):
        result, history = run_with_history(scenarios.fault_free(1), seed=1)
        assert all(table == {} for table in self.fork_tables(result.epochs[0], history).values())


class TestSplitView:
    def test_divergence_and_identical_recovery(self):
        cfg = scenarios.splitview_3f()
        record = run_record(cfg, seed=3)
        slot_key = f"{cfg.splitview_round}/0"
        outcomes = {
            v.decided.get(slot_key)
            for v in record.epochs[0].validators
            if not v.faulty
        }
        assert len(outcomes) >= 2  # the attacked slot genuinely diverged
        recoveries = {
            (g.recovery_kind, g.recovery_members, g.branch)
            for g in record.epochs[0].guards
            if not g.faulty
        }
        assert len(recoveries) == 1
        kind, members, branch = next(iter(recoveries))
        assert kind == "safety"
        assert set(members) == {3, 4, 5}
        assert branch != ""
        assert verify_scenario(cfg, record) == []


class TestByzantineGuard:
    def test_bogus_proposal_skipped_in_agreement(self):
        cfg = scenarios.byz_guard_recover()
        record = run_record(cfg, seed=4)
        honest = [g for g in record.epochs[0].guards if not g.faulty]
        assert all(g.recovery_members == (4, 5) for g in honest)
        assert verify_scenario(cfg, record) == []


class TestDeterminism:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: short(scenarios.fault_free(1, rounds=10), record_events=True),
            lambda: short(scenarios.async_adversarial(rounds=10), record_events=True),
            lambda: scenarios.splitview_3f(),
        ],
    )
    def test_same_inputs_byte_identical_records(self, builder):
        a = run_record(builder(), seed=11).to_text()
        b = run_record(builder(), seed=11).to_text()
        assert a == b

    def test_different_seeds_differ_under_random_delays(self):
        cfg = short(scenarios.async_adversarial(rounds=10), record_events=True)
        a = run_record(cfg, seed=1).to_text()
        b = run_record(cfg, seed=2).to_text()
        assert a != b


class TestEventLog:
    # every payload kind the simulator describes, after the sender's node id
    PAYLOAD = re.compile(
        r"[vg]\d+ (block \d+/\d+/[0-9a-f]{8}|sync-req \d+|sync-resp \d+"
        r"|lblame g\d+ v\d+ r\d+|core-update g\d+ \d+|relay p\d+ chain=\d+)"
    )

    @pytest.mark.parametrize("name,kinds", [
        ("equivocate-f", {"block", "sync-req", "sync-resp"}),
        ("splitview-3f", {"block", "lblame", "core-update", "relay"}),
    ])
    def test_delivery_lines_name_their_payload(self, name, kinds):
        cfg = short(scenarios.CATALOG[name](), rounds=12, record_events=True)
        record = run_record(cfg, seed=1)
        details = [
            line.split("\t")[4] for line in event_lines(record) if line.split("\t")[2] == "deliver"
        ]
        assert details
        assert all(self.PAYLOAD.fullmatch(d) for d in details)
        assert {d.split(" ")[1] for d in details} == kinds


class TestSyncTraffic:
    def deliveries(self, rounds):
        """(blocks shipped in sync responses, BlockMsg deliveries, sync
        request deliveries)."""
        cfg = scenarios.equivocate_f(rounds=rounds, guards=5, record_events=True)
        details = [
            line.split("\t")[4].split(" ")
            for line in event_lines(run_record(cfg, seed=1))
            if line.split("\t")[2] == "deliver"
        ]
        shipped = sum(int(d[2]) for d in details if d[1] == "sync-resp")
        requests = sum(d[1] == "sync-req" for d in details)
        return shipped, sum(d[1] == "block" for d in details), requests

    def test_shipped_blocks_grow_linearly_below_block_messages(self):
        # sync by frontier ships only what the requester lacks; a closure back
        # to genesis would grow with the square of the round count
        shipped16, blocks16, _ = self.deliveries(16)
        shipped32, blocks32, _ = self.deliveries(32)
        assert shipped16 <= blocks16
        assert shipped32 <= blocks32
        assert shipped32 / shipped16 <= 2.3

    def test_each_missing_ref_is_requested_once_per_replica(self):
        # not once per parked block that awaits it, so few blocks ship twice
        shipped16, blocks16, requests16 = self.deliveries(16)
        shipped32, blocks32, requests32 = self.deliveries(32)
        assert 4 * shipped16 <= blocks16
        assert 4 * shipped32 <= blocks32
        assert requests32 / requests16 <= 2.3


class TestOutboundCheck:
    """Forged-identity containment: a block in an honest validator's name
    that the validator has not sent itself is a fabrication, whoever sends it."""

    def guarded_run(self):
        # validator 1 equivocates, so the check is on; guards relay every block
        runner = Runner(scenarios.equivocate_f(rounds=4, guards=5), seed=1)
        assert runner.run().record.violations == []
        return runner

    def test_forged_block_in_honest_name_is_a_violation(self):
        runner = self.guarded_run()
        genesis = runner.epochs[-1].validators[0].dag.blocks_at_round(0)
        forged = make_block(0, 1, [b.ref for b in genesis], (b"forged",))
        runner.sim.apply_actions("v1", [Send("v2", BlockMsg(forged))], runner.sim.now)
        assert runner.violations == [
            f"forged block {forged.digest.hex()[:8]} in honest name v0 from v1"
        ]

    def test_forged_broadcast_is_one_violation(self):
        runner = self.guarded_run()
        genesis = runner.epochs[-1].validators[0].dag.blocks_at_round(0)
        forged = make_block(0, 1, [b.ref for b in genesis], (b"forged",))
        runner.sim.apply_actions("v1", [Broadcast(BlockMsg(forged))], runner.sim.now)
        assert runner.violations == [
            f"forged block {forged.digest.hex()[:8]} in honest name v0 from v1"
        ]

    def test_guard_relay_of_a_stored_block_passes(self):
        runner = self.guarded_run()
        stored = runner.epochs[-1].validators[0].dag.first_block_by(0, 1)
        now = runner.sim.now
        runner.sim.apply_actions("g0", [Send("v2", BlockMsg(stored))], now)
        runner.sim.apply_actions("g0", [Send("v3", SyncResponse((stored,)))], now)
        assert runner.violations == []

    def test_relay_of_a_block_its_author_pruned_passes(self):
        with stored_history() as log:
            runner = Runner(scenarios.equivocate_f(rounds=30, guards=5), seed=1)
            assert runner.run().record.violations == []
        author = runner.epochs[-1].validators[0]
        old = unpruned(author.committee, log[author.dag]).first_block_by(0, 1)
        assert author.dag.floor > 1 and not author.dag.contains_digest(old.digest)
        runner.sim.apply_actions("g0", [Send("v2", BlockMsg(old))], runner.sim.now)
        assert runner.violations == []


class TestHostGate:
    """The adapters host replicas in the simulator and gate their output."""

    def host(self):
        cfg = scenarios.fault_free(1)
        return SimpleNamespace(config=cfg, sim=Simulator(Synchronous(cfg.delta), 1, record_events=True))

    def test_crash_in_a_leader_timer_step_is_logged_once(self):
        host = self.host()
        delta = host.config.delta
        committee = Committee.of_size(6)
        v = CrashValidator(0, committee, delta=delta, crash_round=3)
        adapter = ValidatorAdapter(host, v)
        adapter.flush(0)
        genesis = [b.ref for b in genesis_blocks(committee)]
        # round 1's leaders are 1 and 2; leader 2 stays away
        for a in (1, 3, 4, 5):
            adapter.deliver(BlockMsg(make_block(a, 1, genesis, (b"t",))), f"v{a}", delta)
        adapter.flush(delta)
        assert v.current_round == 1 and not v.crashed
        # the timeout enters round 2, the round before the crash round,
        # and the same step crashes the validator
        actions = adapter.on_timer(LEADER_TIMER, 3 * delta)
        assert v.current_round == 2 and v.crashed
        assert [a.payload.block.round for a in actions if isinstance(a, Broadcast)] == [2]
        assert adapter.flush(3 * delta) == []
        assert adapter.deliver(BlockMsg(make_block(1, 2, genesis, ())), "v1", 4 * delta) == []
        (line,) = [line for line in event_lines(host.sim) if line.endswith("\tcrash activated")]
        assert line.startswith(f"{3 * delta}\t") and "\tinject\tv0\t" in line

    def test_asynchronous_crash_is_logged_in_the_step_that_enters_the_round_before_it(self):
        """Under asynchrony a validator crashes in the flush that enters the
        round before its crash round; the idle flushes after it stay silent."""
        host = self.host()
        delta = host.config.delta
        committee = Committee.of_size(6, Mode.ASYNC)
        coin = CommonCoin(b"seed", committee)
        v = CrashValidator(0, committee, delta=delta, coin=coin, crash_round=3)
        adapter = ValidatorAdapter(host, v)
        adapter.flush(0)
        genesis = [b.ref for b in genesis_blocks(committee)]
        for a in (1, 2, 3):
            block = make_block(a, 1, genesis, (b"t",), CoinShare(a, 1))
            adapter.deliver(BlockMsg(block), f"v{a}", delta)
            assert adapter.flush(delta) == [] and not v.crashed
        block = make_block(4, 1, genesis, (b"t",), CoinShare(4, 1))
        adapter.deliver(BlockMsg(block), "v4", 2 * delta)
        actions = adapter.flush(2 * delta)
        assert v.current_round == 2 and v.crashed
        assert [a.payload.block.round for a in actions if isinstance(a, Broadcast)] == [2]
        assert adapter.flush(3 * delta) == []
        (line,) = [line for line in event_lines(host.sim) if line.endswith("\tcrash activated")]
        assert line.startswith(f"{2 * delta}\t") and "\tinject\tv0\t" in line

    def test_silent_guard_receives_but_emits_nothing(self):
        committee = Committee.of_size(6)
        g = SilentGuard(0, committee, guard_count=5, delta=1000)
        genesis = [b.ref for b in genesis_blocks(committee)]
        block = make_block(1, 1, genesis, (b"t",))
        assert g.deliver(BlockMsg(block), "v1", 10)  # the guard itself echoes
        assert GuardAdapter(g).deliver(BlockMsg(make_block(2, 1, genesis, ())), "v2", 10) == []
        assert g.dag.first_block_by(2, 1) is not None


class TestPartialSynchrony:
    def test_progress_resumes_after_gst(self):
        cfg = scenarios.adversary_matrix("crash", scenarios.PARTIAL, True, rounds=25)
        record = run_record(cfg, seed=8)
        assert check_prefix_consistency(record) == []
        ref = record.honest_validators(0)[0]
        assert ref.highest_round == cfg.rounds
        # post-GST rounds advance at the synchronous cadence
        post = [t for r, t in sorted(ref.round_entries.items()) if t > cfg.gst + 2 * cfg.delta]
        gaps = {b - a for a, b in zip(post, post[1:])}
        assert gaps and max(gaps) <= 2 * cfg.delta


# blake2b-128 digests of RunRecord.to_text() for every catalog scenario at
# seeds 1-3 with the event log recorded, as (head, full) per seed. The head is
# the text before the record-level `events N` line: epochs, nodes, guards and
# violations. The full digest adds the event lines. A change that moves any
# of these is a protocol or record change and re-pins them on purpose.
GOLDEN_DIGESTS = {
    "async-adversarial": (
        ("1d33013e670f6423eb9ebbac718e3f60", "2d6cb43eb29634b006b0535c4b036632"),
        ("948a0f9bd4f2fbd392a22a15f81867c3", "717bf1c9b614ae9fecf276f7ac23a0f1"),
        ("95808ab2402f6c394d0330d43672fed3", "5a6ddf1ee8862469a5148dac771a4516"),
    ),
    "async-fault-free": (
        ("6fd0623c6338e87eba3b17ad521338fa", "86c012e0e6538b4c9946f0d613cdd3a6"),
        ("10f7437a169a7fad89fbb2b81cfcf0b4", "22f774294847a752a6c58da69db1facb"),
        ("7ef82ceaab36f3ddc2f389a6c4dba590", "459d63d72a71addc75259a31b18f07e5"),
    ),
    "byz-guard-recover": (
        ("68d2f242bbde8b24c5d3f6aad962e310", "bce38457bbb00f396395bd34073659a5"),
        ("5ad56fca6dabb48a39a96b8485917f78", "e79c275db9b4bbc2e5d7260a885fd7ef"),
        ("104ef4a05be4f215af63950fb9aec4f1", "d449db44c414b11a8932a4978d51eb05"),
    ),
    "crash-f": (
        ("b0dc6ea7fa5741ef2fe5d36792c03a93", "2d2881f9e4a4e3295ca293ae6152242f"),
        ("57583e311ee379ccb1550db8598f8303", "0a645b31708d72773fce69d571ca8f7d"),
        ("8b995da546dee58d4d0d1cb70724f653", "879771ee4568714c75991e8840d7e5cf"),
    ),
    "crash-f-plus-1": (
        ("280be00be28e0321eb5019adf2c3c4a4", "73d172c4781e7433c34d9a8761ee7a0d"),
        ("248c4e64cc04205bb82999fc0c198c02", "38bd45f469c8ee640ea94b1adeeeb9ca"),
        ("75b54624a04b1f684e01567dd2aab6b5", "10007b8c66cc316ea20e67357efbcc77"),
    ),
    "crash-leader": (
        ("16f291f42159456a1fdc8063b5bd79d9", "1658633e14a58c548718de8591e9e01a"),
        ("3e314b9286ac9b44a431c35efe2b326f", "094a0dcc19b847ef3fe717e3aeee9da3"),
        ("475eefac43e4aebcd5c84323fc0656b8", "c7e547deb94342eae39af7ed9bc25939"),
    ),
    "equivocate-f": (
        ("aa3415930fdd3f54a84efdc36b303bc7", "5f82ab5cd5f874a484b7e0fed13df7a7"),
        ("2ebf64a63ceac3a638d2d8ebc52d3759", "017b5f20b9c19fedaee8534eb7a92a4c"),
        ("54c03d5414257c1dc04eefd086660773", "2bc588201ffee22935451ed6899bc21b"),
    ),
    "fault-free-f1": (
        ("69e6fc26c5fc459924cfbfd93da3a583", "6a997c039628b5cfc3fe73d427eaa5be"),
        ("cb255b6dcc94214ee5a857b91de6982d", "7410bf5afb4e41385655328788f77ce2"),
        ("8cd80f5a81bf51bb09e95719c189cd5d", "197e41b7384da6d1f4c0c6128a4add1c"),
    ),
    "fault-free-f2": (
        ("4ac6f05a6ded1ee03db90419ecb7e4cb", "e4322d94c15816d82518de0767559d91"),
        ("6a96ce406a0d57d8e90db4f913089955", "f2c741a79513f10aabec4cbbc075cf58"),
        ("778a83259c2046fb81a3c71cd67fd696", "de1434575fa12c0f3412ca08596c1980"),
    ),
    "fault-free-f6": (
        ("502bde9c800499ab8aa2c8a1a3d234aa", "0f46c4972f7625bada08774fc8a1a132"),
        ("3bf22f9a1cf8ab243088661b89f3e828", "b945daf59106e39400ae5a0a01d64e58"),
        ("763f597f827fcab16062921d32aa04d6", "0492db66a86bd26f57372cc1e4743f5a"),
    ),
    "splitview-3f": (
        ("a3d6ca88156dd350922f73a9b4335ebd", "e8935ec01ba41bdf6253088163c179b1"),
        ("d57ad73eea356e97523d7513cdfcdf6d", "8beb71eb09de9071a675ef50b0be8c0b"),
        ("d82d4867dc9fb784cffea4176101509c", "1622f815ae13a4b9a7de96c78babcb53"),
    ),
}


# blake2b-128 digests of the `.metrics` text (`metrics.from_record(...)
# .to_text()`) of the same runs, per seed.
METRICS_DIGESTS = {
    "async-adversarial": (
        "9b16c5c0895779978a61769bc11dfa91",
        "696659bea16fe9ddc48825ca82eff809",
        "558ac69e62c1a514f5b5416d6c9ababd",
    ),
    "async-fault-free": (
        "357612ca2615172e3de0a0e10246b444",
        "7106d70e505e051fb9a845846d340276",
        "1ca14885fbd323b64ef9fdbf955d6f0f",
    ),
    "byz-guard-recover": (
        "11415ba65e1bb796f72a9972681c17d1",
        "396d9453dac1cfab3c1f19bd56db9d77",
        "1fb43e6e82b2c78c7dd0a3a66aa36a79",
    ),
    "crash-f": (
        "84f9ff4139ee9c1b90b281e7ad79bd27",
        "5568b56ab258fb08d4336e359a6d9613",
        "4a8394816edd555ebca1909a7fb34ff9",
    ),
    "crash-f-plus-1": (
        "05477318eafdd5bfa36b8de900601042",
        "8852cd7a57c0a107ce970740a0468220",
        "0024b385bf3fef81cf714061dd9e9795",
    ),
    "crash-leader": (
        "1cd9c82647b601341f7df5292ebe8bbc",
        "12c197e55cf010bc40f1959504a34cea",
        "bcfd1a37e87fd00dd251225756b7783e",
    ),
    "equivocate-f": (
        "f7d46488507eee997ab0c8673cd36cd9",
        "cd81212876faa61b46715377cf02999f",
        "5862122286f70eddb9d5781458036f77",
    ),
    "fault-free-f1": (
        "3f42e85adf48d6ca217426484f66267f",
        "c1c0efef6370e97e0bc2899422398cb0",
        "6d6973f14a4dba1f2d166921a8a6bbf4",
    ),
    "fault-free-f2": (
        "8714d18c86d9823977d2290e6c90861d",
        "910141d1e9471279af7f3df9b768b9f1",
        "be3d658dce196d36c41eb774d4fd3ae2",
    ),
    "fault-free-f6": (
        "c0ef5ac0330dad70986676fb6e325cfb",
        "f180a56bcdee8aa31d1f026bee3da20d",
        "b93c3e39f97b64708472fdf4628fd08b",
    ),
    "splitview-3f": (
        "50aa0a5f0a0d1039d179e2be426e5f54",
        "b3e42b7161110fda5522558dad40dab6",
        "54478a1307862661714a06ec53d2d616",
    ),
}


def digest(pieces: Iterable[str]) -> str:
    """blake2b-128 of the concatenated `pieces`, hashed one piece at a time."""
    h = hashlib.blake2b(digest_size=16)
    for piece in pieces:
        h.update(piece.encode())
    return h.hexdigest()


def record_digests(record) -> tuple[str, str]:
    """(head, full) digests of `record`'s text, from one pass over its
    chunks: the head stops before the record-level `events N` piece."""
    h = hashlib.blake2b(digest_size=16)
    head = None
    for piece in record.chunks():
        if head is None and piece.startswith("events "):
            head = h.hexdigest()
        h.update(piece.encode())
    return head, h.hexdigest()


# prints "name digest" for seed 1 of every catalog scenario, as the golden
# test runs it
SEED_1_DIGESTS = """
import hashlib
from dataclasses import replace
from pentabft import scenarios
from pentabft.runner import run_record
for name in sorted(scenarios.CATALOG):
    record = run_record(replace(scenarios.CATALOG[name](), record_events=True), 1)
    h = hashlib.blake2b(digest_size=16)
    for piece in record.chunks():
        h.update(piece.encode())
    print(name, h.hexdigest())
"""


class TestGoldenRecords:
    def test_every_catalog_scenario_is_pinned(self):
        assert sorted(GOLDEN_DIGESTS) == sorted(METRICS_DIGESTS) == sorted(scenarios.CATALOG)

    @pytest.mark.parametrize(
        "name,seed", [(name, seed) for name in sorted(GOLDEN_DIGESTS) for seed in (1, 2, 3)]
    )
    def test_record_digest_unchanged(self, name, seed):
        cfg = short(scenarios.CATALOG[name](), record_events=True)
        record = run_record(cfg, seed)
        assert record_digests(record) == GOLDEN_DIGESTS[name][seed - 1]
        load_bytes = cfg.tx_per_block * cfg.tx_size
        metrics_text = from_record(record, cfg.protocol_mode, load_bytes).to_text()
        assert digest([metrics_text]) == METRICS_DIGESTS[name][seed - 1]
        assert Metrics.from_text(metrics_text).to_text() == metrics_text

    def test_records_do_not_depend_on_the_string_hash_seed(self):
        """A set or dict of strings iterated into a record would order it by
        the process's hash seed: processes with two fixed seeds must both
        give the pinned records."""
        src = str(Path(scenarios.__file__).resolve().parents[1])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", SEED_1_DIGESTS],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                stdout=subprocess.PIPE,
                text=True,
            )
            for hash_seed in ("0", "12345")
        ]
        want = {name: digests[0][1] for name, digests in GOLDEN_DIGESTS.items()}
        for proc in procs:
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert dict(line.split() for line in out.splitlines()) == want


# blake2b-128 digests of RunRecord.to_text() for the benchmark's four workload
# configurations (perfbench/workloads.py builds the same), at seeds 1 and 3.
# The benchmark compares runs only while these hold.
BENCHMARK_CONFIGS = {
    "sync-f6": lambda: scenarios.fault_free(6, rounds=50),
    "async-f6": lambda: scenarios.async_fault_free(6, rounds=50),
    "equivocate-guarded": lambda: scenarios.equivocate_f(rounds=64, guards=5),
    "crash-recover": lambda: scenarios.crash_f_plus_1(rounds=300),
}
BENCHMARK_DIGESTS = {
    "sync-f6": ("141fffc6f233d57c62a9e637bdb7975f", "3522c3f1ee61e35f893b3be82e96fbde"),
    "async-f6": ("d73ad94d55e6c89732425c9721738101", "c2d6b2aa282649a8a27e7fe92afdf380"),
    "equivocate-guarded": ("0cf7ea5acd04ed2a5a15dfa7f3daf7a6", "c21e15e783565a3eb8fbfdd7af7743b4"),
    "crash-recover": ("fb3bb388571b75c0803ab9494ae818a5", "1ce4641b1765d2f30c440568303b6394"),
}


class TestBenchmarkRecords:
    @pytest.mark.parametrize(
        "name,seed", [(name, seed) for name in sorted(BENCHMARK_DIGESTS) for seed in (1, 3)]
    )
    def test_record_digest_unchanged(self, name, seed):
        record = run_record(BENCHMARK_CONFIGS[name](), seed)
        assert digest(record.chunks()) == BENCHMARK_DIGESTS[name][(1, 3).index(seed)]
