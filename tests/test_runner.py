"""End-to-end scenario runs: catalog smoke, faults, recovery, determinism."""

import hashlib

import pytest

from pentabft import scenarios
from pentabft.runner import (
    check_delivery_bounds,
    check_prefix_consistency,
    run,
    run_record,
    verify_scenario,
)


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
        assert result.sim.delivery_log, "bound scan needs the recorded log"
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


# blake2b-128 of RunRecord.to_text() for every catalog scenario at seeds 1-3,
# with the delivery event log recorded. A change that moves any of these is a
# protocol or record change and re-pins them on purpose.
GOLDEN_DIGESTS = {
    "async-adversarial": (
        "19557d2df65504250ac828574efe0790",
        "4777643b4f0bec475412e0708faf4b48",
        "61ee15f1abbd28c8830a91e0197914b9",
    ),
    "async-fault-free": (
        "19e800a7abb17d2206d74e14a4150f6d",
        "686f618286911205f67451dff3700e94",
        "07f8306a95a4d09011d42c6ba43a3d15",
    ),
    "byz-guard-recover": (
        "600171706be5bd96003a00ef07ecf09a",
        "1b6f943f1d6a298d31e7f85e5edde739",
        "693e068ee69a55c2877a18ac63cd0bdb",
    ),
    "crash-f": (
        "f4368f3662a4b447343e4c9a51337a1a",
        "0e945beb6be10b3c749017ca199d6256",
        "98a07e55ea60217ab5310d1d529fe32e",
    ),
    "crash-f-plus-1": (
        "a5b57cc1a7e16c126bca91bcb960b4fc",
        "300bc0754f27aeb905afec027a89312a",
        "85876fd4b3443ff3ac34f748a4e83766",
    ),
    "crash-leader": (
        "9415efb7aa5872bbbc294decaa64e111",
        "499fecc055a419a86ce0d07e37214c9c",
        "d1da88fde19364c233006572cdbb0bb4",
    ),
    "equivocate-f": (
        "e90e0552bb4b853ff147f8d923d7b50c",
        "679007009dd5c2ebd6e7de906ea42273",
        "0af5dd2348b5e12c2f39fcef338f678d",
    ),
    "fault-free-f1": (
        "7a976a17f28e3977144750773602412a",
        "63177b288737b0c40eaa9eec4d121387",
        "44e6e194f3f6aded764d49374dbdb5ef",
    ),
    "fault-free-f2": (
        "13ac2187495b8a25d1596fabadc1aadc",
        "db640ac5b1aba8524d8184f22aaba02b",
        "9db57b45f9dbfd232f6e8749d2b13550",
    ),
    "fault-free-f6": (
        "7a06426c191764f5d1e0cd2ff5e4114c",
        "a217e44e5bd718ef5de8738a9ffc261b",
        "9e76a128d90ca42545959f90ca3be72e",
    ),
    "splitview-3f": (
        "627da90d2c123629345887fafe6fd31c",
        "817e3c778f043c0a2bcca1a1f910d409",
        "01279cd3a1a834a1a917a21844925f20",
    ),
}


class TestGoldenRecords:
    def test_every_catalog_scenario_is_pinned(self):
        assert sorted(GOLDEN_DIGESTS) == sorted(scenarios.CATALOG)

    @pytest.mark.parametrize(
        "name,seed", [(name, seed) for name in sorted(GOLDEN_DIGESTS) for seed in (1, 2, 3)]
    )
    def test_record_digest_unchanged(self, name, seed):
        cfg = short(scenarios.CATALOG[name](), record_events=True)
        text = run_record(cfg, seed).to_text()
        digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        assert digest == GOLDEN_DIGESTS[name][seed - 1]
