"""Acceptance suite: every headline protocol claim as an executable check.

Each criterion runs its mapped scenarios at fixed seeds, measures against a
pinned bound, and reports one pass/fail line. Seed sweeps fan out over a
process pool; each worker owns its run end-to-end and returns plain data.

Most criteria (C3-C8) are failure lists: a worker returns the failures of
its job, and `_check` pools the jobs and passes the criterion when none
fail, with the first failure as the detail. The guard criteria C6 and C7
start from `runner.verify_scenario` on each run and add what it does not
check, sharing one check of every guard's agreed recovery.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import random
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .committer import LeaderSlot, SlotDecision, Verdict, validate_stake_split
from .dagcore import stored_history, unpruned
from .guard import LIVENESS, SAFETY, BlameSet, is_valid_blameset
from .metrics import verdicts
from .runner import check_prefix_consistency, run, run_record, verify_scenario
from .scenarios import (
    ASYNC_ADVERSARIAL,
    PARTIAL,
    ScenarioConfig,
    adversary_matrix,
    async_fault_free,
    by_name,
    crash_f_plus_1,
    fault_free,
    splitview_3f,
)


@dataclass
class CriterionResult:
    ident: str
    name: str
    measured: str
    bound: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.ident} {self.name}: measured {self.measured}"
            f" vs bound {self.bound} ({self.elapsed:.1f}s)"
            + (f" -- {self.detail}" if self.detail else "")
        )


def _pool_map(fn: Callable, jobs: list) -> list:
    if len(jobs) <= 1:
        return [fn(job) for job in jobs]
    try:
        ctx = multiprocessing.get_context("fork")
        workers = min(len(jobs), max(1, multiprocessing.cpu_count()))
        with ctx.Pool(workers) as pool:
            return pool.map(fn, jobs, chunksize=1)
    except (OSError, ValueError):
        return [fn(job) for job in jobs]


def _check(
    ident: str, name: str, measured: str, bound: str, worker: Callable, jobs: list
) -> CriterionResult:
    """A failure-list criterion: `worker` maps each job to its failure
    strings, and the criterion passes with none, showing the first as its
    detail. `measured` is formatted with the `failures` and `jobs` counts."""
    t0 = time.time()
    failures = [f for fs in _pool_map(worker, jobs) for f in fs]
    return CriterionResult(
        ident,
        name,
        measured.format(failures=len(failures), jobs=len(jobs)),
        bound,
        not failures,
        failures[0] if failures else "",
        time.time() - t0,
    )


# -- criterion 1 + 2: commit path latency -----------------------------------------


def _latency_worker(job: tuple) -> dict:
    mode, f, rounds, seed = job
    if mode == "sync":
        cfg = fault_free(f, rounds=rounds, record_delivery=False)
        expected_gap = 1
    else:
        cfg = async_fault_free(f, rounds=rounds, record_delivery=False)
        expected_gap = 2
    record = run_record(cfg, seed)
    ref = record.honest_validators(0)[0]
    wl = expected_gap + 1
    complete = (rounds - expected_gap) * cfg.leaders_per_round
    direct = 0
    off_round = 0
    hist: Counter = Counter()
    for slot_round, _, verdict, rule, delay, _ in verdicts(ref):
        if slot_round > rounds - expected_gap:
            continue
        if verdict == "commit" and rule == "direct":
            direct += 1
            if delay != wl:
                off_round += 1
            if delay is not None:
                hist[delay] += 1
    return {
        "complete": complete,
        "direct": direct,
        "off_round": off_round,
        "hist": hist,
        "fails": len(check_prefix_consistency(record)) + len(record.violations),
    }


# latency runs are shared between the two latency criteria within a process
_latency_cache: dict[tuple, dict] = {}


def _latency_results(jobs: list[tuple]) -> list[dict]:
    missing = [j for j in jobs if j not in _latency_cache]
    if missing:
        for job, result in zip(missing, _pool_map(_latency_worker, missing)):
            _latency_cache[job] = result
    return [_latency_cache[j] for j in jobs]


def criterion_fault_free_commit_path(seeds: int = 20, rounds: int = 200) -> CriterionResult:
    t0 = time.time()
    complete = direct = off = fails = 0
    config_times: dict[int, float] = {}
    for f in (1, 2, 6):
        tc = time.time()
        results = _latency_results([("sync", f, rounds, s) for s in range(1, seeds + 1)])
        config_times[f] = time.time() - tc
        complete += sum(r["complete"] for r in results)
        direct += sum(r["direct"] for r in results)
        off += sum(r["off_round"] for r in results)
        fails += sum(r["fails"] for r in results)
    share = direct / complete if complete else 0.0
    runtime_ok = all(t < 60.0 for t in config_times.values())
    passed = share >= 0.99 and off == 0 and fails == 0 and runtime_ok
    times = ", ".join(f"f={f}: {t:.0f}s" for f, t in config_times.items())
    return CriterionResult(
        "C1",
        "fault-free direct commits at the decision round",
        f"{share:.4f} direct share, {off} off-round verdicts",
        ">= 0.99 direct at decision-round blocks, < 60s per config",
        passed,
        f"{direct}/{complete} slots over f in (1,2,6) x {seeds} seeds; {times}",
        time.time() - t0,
    )


def criterion_async_latency_delta(seeds: int = 20, rounds: int = 200) -> CriterionResult:
    t0 = time.time()
    sync_jobs = [("sync", f, rounds, s) for f in (1, 2, 6) for s in range(1, seeds + 1)]
    async_jobs = [("async", f, rounds, s) for f in (1, 2, 6) for s in range(1, seeds + 1)]
    sync_hist = sum((r["hist"] for r in _latency_results(sync_jobs)), Counter())
    async_results = _latency_results(async_jobs)
    async_hist = sum((r["hist"] for r in async_results), Counter())
    off = sum(r["off_round"] for r in async_results)
    fails = sum(r["fails"] for r in async_results)
    sync_mode = max(sync_hist, key=sync_hist.get, default=0)
    async_mode = max(async_hist, key=async_hist.get, default=0)
    ratio = Fraction(async_mode, sync_mode) if sync_mode else Fraction(0)
    passed = ratio == Fraction(3, 2) and async_mode == 3 and off == 0 and fails == 0
    return CriterionResult(
        "C2",
        "async/sync modal commit delay ratio",
        f"{async_mode}/{sync_mode} message delays, {off} off-round async verdicts",
        "exactly 3/2, async verdicts at propose+2",
        passed,
        "",
        time.time() - t0,
    )


# -- criterion 3: safety matrix ------------------------------------------------------


def _safety_worker(job: tuple) -> list[str]:
    adversary, network, gst_mid, seed = job
    cfg = adversary_matrix(adversary, network, gst_mid, rounds=30)
    record = run_record(cfg, seed)
    failures = check_prefix_consistency(record)
    failures.extend(record.violations)
    return [f"{cfg.name} seed={seed}: {f}" for f in failures]


def criterion_safety_matrix(seeds: int = 100) -> CriterionResult:
    jobs = [
        (adversary, network, gst_mid, seed)
        for adversary in ("crash", "equivocate", "withhold")
        for network, gst_mid in ((PARTIAL, False), (PARTIAL, True), (ASYNC_ADVERSARIAL, False))
        for seed in range(1, seeds + 1)
    ]
    return _check(
        "C3",
        "prefix consistency under <= f Byzantine",
        "{failures} violations over {jobs} runs",
        "zero violations",
        _safety_worker,
        jobs,
    )


# -- criterion 4: liveness window -------------------------------------------------------


def _liveness_worker(job: tuple) -> list[str]:
    seed, rounds, gst_rounds = job
    f = 1
    window = 2 * f + 2
    cfg = adversary_matrix("crash", PARTIAL, gst_rounds > 0, rounds=rounds)
    record = run_record(cfg, seed)
    failures: list[str] = []
    for ref in record.honest_validators(0):
        post_rounds = {r for r, t in ref.round_entries.items() if t >= cfg.gst + cfg.delta}
        if not post_rounds:
            failures.append(f"seed={seed} {ref.node}: no post-GST rounds")
            continue
        first_post = min(post_rounds)
        delays = {(r, k): delay for r, k, _, _, delay, _ in verdicts(ref)}
        horizon_round = ref.highest_round - window - 1
        for r in range(first_post + 1, horizon_round):
            for k in range(cfg.leaders_per_round):
                if (r, k) not in delays:
                    failures.append(f"seed={seed} {ref.node}: slot {r}/{k} never decided")
                elif delays[r, k] is None or delays[r, k] - 2 > window:
                    failures.append(
                        f"seed={seed} {ref.node}: slot {r}/{k} decided at delay "
                        f"{delays[r, k]}, past its decision round window"
                    )
        committed_rounds = sorted(
            {r for r, k, _ in ref.committed if first_post < r < horizon_round}
        )
        for a, b in zip(committed_rounds, committed_rounds[1:]):
            if b - a > window:
                failures.append(f"seed={seed} {ref.node}: commit gap {a}->{b}")
    return failures


def criterion_liveness_window(seeds: int = 10) -> CriterionResult:
    f = 1
    return _check(
        "C4",
        "post-GST decisions within the rotation window",
        "{failures} violations",
        f"every slot decided within {2 * f + 2} rounds of its decision round",
        _liveness_worker,
        [(s, 45, 15) for s in range(1, seeds + 1)],
    )


# -- criterion 5: quorum arithmetic -------------------------------------------------------


def _quorum_worker(job: tuple) -> list[str]:
    n, f = job
    strong, weak = 4 * f + 1, 2 * f + 1
    failures = []
    # single-vote assignments: support or blame, one decision block each
    for assignment in range(2**n):
        supports = bin(assignment).count("1")
        blames = n - supports
        if supports >= strong and blames >= strong:
            failures.append(f"assignment {assignment:06b} both quorums")
    # two-sided authors allowed: blame quorum plus weak support needs >= f+1 dupes;
    # per author 0 supports, 1 blames, 2 does both
    for digits in itertools.product(range(3), repeat=n):
        supports = sum(1 for d in digits if d in (0, 2))
        blames = sum(1 for d in digits if d in (1, 2))
        both = digits.count(2)
        if blames >= strong and supports >= weak and both < f + 1:
            failures.append(f"3^n assignment {digits} evades the overlap bound")
        # strong certificate exclusivity: two blocks of one author
        if supports >= strong and blames >= weak and both <= f:
            failures.append(f"exclusivity breach at {digits}")
    return failures


def criterion_quorum_math() -> CriterionResult:
    return _check(
        "C5",
        "quorum-intersection enumeration (n=6, f=1)",
        "{failures} counterexamples over 2^6 + 3^6 assignments",
        "none",
        _quorum_worker,
        [(6, 1)],
    )


# -- criteria 6 + 7: guard recovery -------------------------------------------------------


def _recovery_failures(seed: int, cfg: ScenarioConfig, state, kind: str, detected_by) -> list[str]:
    """Every guard agreed on a restart directive of `kind` within the
    agreement window (t_g+1)D after `detected_by`; the directive names at
    least f+1 members, all corrupt, and its blameset text re-verifies; and
    all guards agreed on the same directive."""
    committee = state.committee
    deadline = detected_by + ((cfg.guards - 1) // 2 + 1) * cfg.delta
    failures: list[str] = []
    agreed: set[tuple] = set()
    for gid, guard in state.guards.items():
        tag = f"seed={seed} g{gid}"
        directive = guard.recovery_result
        if directive is None:
            failures.append(f"{tag}: no agreed blameset")
            continue
        agreed.add((directive.kind, directive.excluded, directive.blameset_text))
        members = set(directive.excluded)
        if directive.kind != kind:
            failures.append(f"{tag}: agreed a {directive.kind} blameset, not {kind}")
        if len(members) < committee.f + 1 or not members <= cfg.faulty_validators():
            failures.append(f"{tag}: bad members {sorted(members)}")
        bs = BlameSet.from_text(directive.blameset_text)
        if not is_valid_blameset(bs, committee, cfg.guards):
            failures.append(f"{tag}: blameset fails re-verification")
        if guard.recovery_result_vtime > deadline:
            failures.append(f"{tag}: agreed at {guard.recovery_result_vtime} > {deadline}")
    if len(agreed) != 1:
        failures.append(f"seed={seed}: guards agreed on {len(agreed)} blamesets, not one")
    return failures


def _guard_liveness_worker(seed: int) -> list[str]:
    cfg = crash_f_plus_1()
    result = run(cfg, seed)
    failures = [f"seed={seed}: {f}" for f in verify_scenario(cfg, result.record)]
    state = result.epochs[0]
    crashed = cfg.faulty_validators()
    halted = max(v.highest_round for v in result.record.honest_validators(0))
    if halted > max(r for _, r in cfg.crash) + 1:
        return failures + [f"seed={seed}: DAG did not halt (round {halted})"]
    entries = [g.entry_vtime.get(halted) for g in state.guards.values()]
    if None in entries:
        return failures + [f"seed={seed}: a guard never entered round {halted}"]
    blamed_by = min(entries) + 6 * cfg.delta
    for gid, guard in state.guards.items():
        blamed = guard.lblamed.get(halted, set())
        if blamed != crashed:
            failures.append(f"seed={seed} g{gid}: lblamed {sorted(blamed)} != crashed")
        assembled = guard.lblamed_at.get(halted)
        if assembled is None or assembled > blamed_by:
            failures.append(f"seed={seed} g{gid}: blame assembly at {assembled}")
    return failures + _recovery_failures(seed, cfg, state, LIVENESS, blamed_by)


def criterion_guard_liveness(seeds: int = 3) -> CriterionResult:
    return _check(
        "C6",
        "guard liveness recovery (crash f+1)",
        "{failures} violations over {jobs} seeds",
        "identical >=f+1 blamesets in 6D + (t_g+1)D, then progress",
        _guard_liveness_worker,
        list(range(1, seeds + 1)),
    )


def _guard_safety_worker(seed: int) -> list[str]:
    cfg = splitview_3f()
    result = run(cfg, seed)
    failures = [f"seed={seed}: {f}" for f in verify_scenario(cfg, result.record)]
    state = result.epochs[0]
    slot_key = f"{cfg.splitview_round}/0"
    outcomes = [v.decided.get(slot_key, "") for v in result.record.honest_validators(0)]
    committed = sorted({o.split(":", 1)[1] for o in outcomes if o.startswith("commit:")})
    detections = []
    for gid, guard in state.guards.items():
        tag = f"seed={seed} g{gid}"
        if guard.safety_detection_vtime is None:
            failures.append(f"{tag}: no safety detection")
            continue
        detections.append(guard.safety_detection_vtime)
        if not committed:
            continue  # verify_scenario has reported the missing divergence
        # replay the commit-conflict path: feed each guard the claim made
        # by the camp it did NOT end up in
        claim = _opposing_claim(guard, cfg.splitview_round, committed)
        if claim is None:
            failures.append(f"{tag}: no opposing claim constructible")
            continue
        bs = guard.check_equivocation(claim)
        if bs is None:
            failures.append(f"{tag}: check_equivocation empty")
            continue
        if len(bs.members) < state.committee.f + 1:
            failures.append(f"{tag}: overlap too small")
        if not is_valid_blameset(bs, state.committee, cfg.guards):
            failures.append(f"{tag}: overlap proof invalid")
    # with no detection at all, every guard has failed above
    detected_by = min(detections, default=math.inf) + 2 * cfg.delta
    return failures + _recovery_failures(seed, cfg, state, SAFETY, detected_by)


def criterion_guard_safety(seeds: int = 3) -> CriterionResult:
    return _check(
        "C7",
        "guard safety recovery (view-split, 3f corrupt)",
        "{failures} violations over {jobs} seeds",
        "divergence detected; agreed blameset within 2D + (t_g+1)D",
        _guard_safety_worker,
        list(range(1, seeds + 1)),
    )


def _opposing_claim(guard, slot_round: int, committed_hexes: list[str]) -> Optional[SlotDecision]:
    """The divergent camp's claim for the attacked slot, as seen by `guard`,
    given the honest nodes' committed digests (at least one)."""
    slot = LeaderSlot(slot_round, 0)
    mine = guard.committer.sequenced(slot)
    other = committed_hexes[0]
    if mine is not None and mine.verdict is Verdict.COMMIT:
        mine_hex = mine.block.digest.hex()
        others = [h for h in committed_hexes if h != mine_hex]
        if not others:
            return SlotDecision(slot, Verdict.SKIP, None)
        other = others[0]
    digest = bytes.fromhex(other)
    for blk in guard.dag.blocks_at_round(slot_round):
        if blk.digest == digest:
            return SlotDecision(slot, Verdict.COMMIT, blk.ref)
    return None


# -- criterion 8: no false alarms --------------------------------------------------------------


def _false_alarm_worker(job: tuple) -> list[str]:
    name, seed = job
    result = run(replace(by_name(name), rounds=30, guards=5), seed)
    failures = []
    faulty = result.epochs[0].faulty
    for gid, guard in result.epochs[0].guards.items():
        tag = f"{name} seed={seed} g{gid}"
        if guard.recovery_input is not None:
            failures.append(f"{tag}: recover invoked")
        if guard.session is not None:
            failures.append(f"{tag}: agreement session opened")
        for r, blamed in guard.lblamed.items():
            honest_blamed = set(blamed) - faulty
            if honest_blamed:
                failures.append(f"{tag}: honest {sorted(honest_blamed)} lblamed at r{r}")
        honest_attested = {m.accused for m in guard.lblame_sent} - faulty
        if honest_attested:
            failures.append(f"{tag}: honest {sorted(honest_attested)} blamed")
    failures.extend(check_prefix_consistency(result.record))
    return failures


def criterion_no_false_alarms(seeds_per_scenario: int = 25) -> CriterionResult:
    return _check(
        "C8",
        "no recovery and no honest blame under <= f corruption",
        "{failures} alarms over {jobs} guarded runs",
        "zero",
        _false_alarm_worker,
        [
            (name, seed)
            for name in ("fault-free-f1", "crash-leader", "crash-f", "equivocate-f")
            for seed in range(1, seeds_per_scenario + 1)
        ],
    )


# -- criterion 9: async structure and commit probability ----------------------------------------


def _async_structure_worker(job: tuple) -> Counter:
    seed, rounds, leaders, with_crash, adversarial = job
    cfg = async_fault_free(1, rounds=rounds, record_delivery=False, leaders_per_round=leaders)
    if adversarial:
        cfg = replace(cfg, network=ASYNC_ADVERSARIAL, name="async-hostile-scheduler")
    if with_crash:
        cfg = replace(cfg, crash=((5, rounds // 2),), name="async-crash")
    with stored_history() as log:  # the validator's own DAG drops old rounds
        result = run(cfg, seed)
    state = result.epochs[0]
    committee = state.committee
    f = committee.f
    honest = [v for v in committee.members if v not in state.faulty]
    dag = unpruned(committee, log[state.validators[honest[0]].dag])
    ref_summary = next(
        v for v in result.record.epochs[0].validators if v.node == f"v{honest[0]}"
    )
    direct_rounds = {
        r for r, _, verdict, rule, _, _ in verdicts(ref_summary)
        if verdict == "commit" and rule == "direct"
    }
    out: Counter = Counter()
    n = committee.size
    max_complete = min(ref_summary.highest_round, dag.max_round) - 4
    for r in range(1, max_complete):
        # every valid round-(r+1) block references at least 3f+1 live-honest blocks
        next_blocks = dag.blocks_at_round(r + 1)
        if not next_blocks:
            continue
        out["sampled"] += 1
        for blk in next_blocks:
            honest_refs = sum(1 for p in blk.parents if p.author in honest)
            if honest_refs < 3 * f + 1:
                out["ref_violations"] += 1
        # the heavily referenced core of round r
        forked = dag.equivocators(r + 1)
        refs = Counter(
            p.author
            for blk in next_blocks
            if blk.author in honest and blk.author not in forked
            for p in blk.parents
            if p.author in honest
        )
        core = {a for a, c in refs.items() if c >= f + 1}
        if len(core) < 2 * f + 1:
            out["core_small"] += 1
        if not with_crash:
            out["waves"] += 1
            miss = math.comb(n - len(core), leaders) / math.comb(n, leaders)
            out["wave_bound_sum"] += 1.0 - miss
            if r in direct_rounds:
                out["wave_success"] += 1
            elif leaders > 3 * f:
                out["l4_failures"] += 1
    return out


def criterion_async_combinatorics() -> CriterionResult:
    t0 = time.time()
    jobs = [(s, 110, 2, False, False) for s in range(1, 41)]
    jobs += [(s, 110, 2, False, True) for s in range(201, 221)]
    jobs_l4 = [(s, 60, 4, False, False) for s in range(1, 11)]
    jobs_crash = [(s, 60, 2, True, False) for s in range(101, 111)]
    totals: Counter = Counter()
    for out in _pool_map(_async_structure_worker, jobs + jobs_l4 + jobs_crash):
        totals.update(out)
    freq = totals["wave_success"] / totals["waves"] if totals["waves"] else 0.0
    bound = totals["wave_bound_sum"] / totals["waves"] if totals["waves"] else 1.0
    passed = (
        totals["ref_violations"] == 0
        and totals["core_small"] == 0
        and totals["sampled"] >= 500
        and totals["waves"] >= 5000
        and freq >= bound
        and totals["l4_failures"] == 0
    )
    return CriterionResult(
        "C9",
        "async reference structure and commit probability",
        f"refs_ok over {totals['sampled']} rounds, success {freq:.4f} against {bound:.4f} expected",
        ">= 3f+1 honest refs, |core| >= 2f+1, success >= hypergeometric bound, l>3f exact",
        passed,
        f"l4 failures {totals['l4_failures']}, small cores {totals['core_small']}",
        time.time() - t0,
    )


# -- criterion 10: stake split ---------------------------------------------------------------------


def criterion_stake_split() -> CriterionResult:
    t0 = time.time()
    failures = 0
    rng = random.Random(2024)
    samples = list(range(2, 20001)) + [rng.randint(20001, 10**6) for _ in range(2000)]
    for total in samples:
        boundary = (5 * (total - 1) + 5) // 6
        if not validate_stake_split(total, boundary):
            failures += 1
        if boundary >= 1 and validate_stake_split(total, boundary - 1):
            failures += 1
    return CriterionResult(
        "C10",
        "core stake-share boundary",
        f"{failures} boundary violations over {len(samples)} totals",
        "exact at ceil(5(S-1)/6)",
        failures == 0,
        "",
        time.time() - t0,
    )


SUITES: dict[str, tuple[Callable[[], CriterionResult], ...]] = {
    "latency": (criterion_fault_free_commit_path, criterion_async_latency_delta),
    "safety": (criterion_safety_matrix,),
    "liveness": (criterion_liveness_window,),
    "quorum-math": (criterion_quorum_math,),
    "guard": (criterion_guard_liveness, criterion_guard_safety, criterion_no_false_alarms),
    "async": (criterion_async_combinatorics,),
    "stake": (criterion_stake_split,),
}


def run_suite(suite: str = "all") -> list[CriterionResult]:
    if suite == "all":
        fns = [fn for fns in SUITES.values() for fn in fns]
    else:
        if suite not in SUITES:
            raise ValueError(f"unknown acceptance suite {suite!r}")
        fns = list(SUITES[suite])
    return [fn() for fn in fns]


def report(results: Iterable[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"acceptance: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
