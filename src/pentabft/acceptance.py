"""Acceptance suite: every headline protocol claim as an executable check.

Each criterion runs its mapped scenarios at fixed seeds, measures against a
pinned bound, and reports one pass/fail line. Seed sweeps fan out over a
process pool; each worker owns its run end-to-end and returns plain data.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .committer import LeaderSlot, SlotDecision, Verdict, validate_stake_split
from .dagcore import stored_history, unpruned
from .guard import BlameSet, is_valid_blameset
from .metrics import verdicts
from .runner import check_prefix_consistency, run, run_record
from .scenarios import (
    ASYNC_ADVERSARIAL,
    PARTIAL,
    adversary_matrix,
    async_fault_free,
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
    hist: dict[int, int] = {}
    for slot_round, _, verdict, rule, delay, _ in verdicts(ref):
        if slot_round > rounds - expected_gap:
            continue
        if verdict == "commit" and rule == "direct":
            direct += 1
            if delay != wl:
                off_round += 1
            if delay is not None:
                hist[delay] = hist.get(delay, 0) + 1
    return {
        "complete": complete,
        "direct": direct,
        "off_round": off_round,
        "hist": hist,
        "fails": len(check_prefix_consistency(record)) + len(record.violations),
    }


def _merge_hist(target: dict, extra: dict) -> None:
    for k, v in extra.items():
        target[k] = target.get(k, 0) + v


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
    sync_hist: dict[int, int] = {}
    async_hist: dict[int, int] = {}
    off = 0
    fails = 0
    for r in _latency_results(sync_jobs):
        _merge_hist(sync_hist, r["hist"])
    for r in _latency_results(async_jobs):
        _merge_hist(async_hist, r["hist"])
        off += r["off_round"]
        fails += r["fails"]
    sync_mode = max(sync_hist, key=sync_hist.get) if sync_hist else 0
    async_mode = max(async_hist, key=async_hist.get) if async_hist else 0
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
    t0 = time.time()
    jobs = []
    for adversary in ("crash", "equivocate", "withhold"):
        for network, gst_mid in ((PARTIAL, False), (PARTIAL, True), (ASYNC_ADVERSARIAL, False)):
            for seed in range(1, seeds + 1):
                jobs.append((adversary, network, gst_mid, seed))
    failures: list[str] = []
    for fs in _pool_map(_safety_worker, jobs):
        failures.extend(fs)
    passed = not failures
    return CriterionResult(
        "C3",
        "prefix consistency under <= f Byzantine",
        f"{len(failures)} violations over {len(jobs)} runs",
        "zero violations",
        passed,
        failures[0] if failures else "",
        time.time() - t0,
    )


# -- criterion 4: liveness window -------------------------------------------------------


def _liveness_worker(job: tuple) -> list[str]:
    seed, rounds, gst_rounds = job
    f = 1
    window = 2 * f + 2
    cfg = adversary_matrix("crash", PARTIAL, gst_rounds > 0, rounds=rounds)
    record = run_record(cfg, seed)
    failures: list[str] = []
    gst = cfg.gst
    for ref in record.honest_validators(0):
        post_rounds = {r for r, t in ref.round_entries.items() if t >= gst + cfg.delta}
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
    t0 = time.time()
    jobs = [(s, 45, 15) for s in range(1, seeds + 1)]
    failures: list[str] = []
    for fs in _pool_map(_liveness_worker, jobs):
        failures.extend(fs)
    f = 1
    return CriterionResult(
        "C4",
        "post-GST decisions within the rotation window",
        f"{len(failures)} violations",
        f"every slot decided within {2 * f + 2} rounds of its decision round",
        not failures,
        failures[0] if failures else "",
        time.time() - t0,
    )


# -- criterion 5: quorum arithmetic -------------------------------------------------------


def criterion_quorum_math() -> CriterionResult:
    t0 = time.time()
    n, f = 6, 1
    strong, weak = 4 * f + 1, 2 * f + 1
    failures = []
    # single-vote assignments: support or blame, one decision block each
    for assignment in range(2**n):
        supports = bin(assignment).count("1")
        blames = n - supports
        if supports >= strong and blames >= strong:
            failures.append(f"assignment {assignment:06b} both quorums")
    # two-sided authors allowed: blame quorum plus weak support needs >= f+1 dupes
    for assignment in range(3**n):
        digits = []
        x = assignment
        for _ in range(n):
            digits.append(x % 3)
            x //= 3
        supports = sum(1 for d in digits if d in (0, 2))
        blames = sum(1 for d in digits if d in (1, 2))
        both = sum(1 for d in digits if d == 2)
        if blames >= strong and supports >= weak and both < f + 1:
            failures.append(f"3^n assignment {assignment} evades the overlap bound")
        # strong certificate exclusivity: two blocks of one author
        if supports >= strong and blames >= weak and both <= f:
            failures.append(f"exclusivity breach at {assignment}")
    passed = not failures
    return CriterionResult(
        "C5",
        "quorum-intersection enumeration (n=6, f=1)",
        f"{len(failures)} counterexamples over 2^6 + 3^6 assignments",
        "none",
        passed,
        failures[0] if failures else "",
        time.time() - t0,
    )


# -- criterion 6: guard liveness recovery ---------------------------------------------------


def criterion_guard_liveness(seeds: int = 3) -> CriterionResult:
    t0 = time.time()
    failures: list[str] = []
    for seed in range(1, seeds + 1):
        cfg = crash_f_plus_1()
        result = run(cfg, seed)
        record = result.record
        state = result.epochs[0]
        committee = state.committee
        crashed = {v for v, _ in cfg.crash}
        delta = cfg.delta
        t_g = (cfg.guards - 1) // 2
        halted = max(
            v.highest_round for v in record.epochs[0].validators if not v.faulty
        )
        if halted > max(r for _, r in cfg.crash) + 1:
            failures.append(f"seed={seed}: DAG did not halt (round {halted})")
            continue
        blamed_round = halted
        entries = [g.entry_vtime.get(blamed_round) for g in state.guards.values()]
        if any(e is None for e in entries):
            failures.append(f"seed={seed}: a guard never entered round {blamed_round}")
            continue
        first_entry = min(entries)
        agreed: set[tuple] = set()
        for gid, guard in state.guards.items():
            blamed = guard.lblamed.get(blamed_round, set())
            if blamed != crashed:
                failures.append(f"seed={seed} g{gid}: lblamed {sorted(blamed)} != crashed")
            assembled = guard.lblamed_at.get(blamed_round)
            if assembled is None or assembled > first_entry + 6 * delta:
                failures.append(f"seed={seed} g{gid}: blame assembly at {assembled}")
            if guard.recovery_result is None:
                failures.append(f"seed={seed} g{gid}: no agreed blameset")
                continue
            directive = guard.recovery_result
            agreed.add((directive.kind, directive.excluded, directive.blameset_text))
            members = set(directive.excluded)
            if len(members) < committee.f + 1 or not members <= crashed:
                failures.append(f"seed={seed} g{gid}: bad members {sorted(members)}")
            bs = BlameSet.from_text(directive.blameset_text)
            if not is_valid_blameset(bs, committee, cfg.guards):
                failures.append(f"seed={seed} g{gid}: blameset fails re-verification")
            deadline = first_entry + 6 * delta + (t_g + 1) * delta
            if guard.recovery_result_vtime > deadline:
                failures.append(
                    f"seed={seed} g{gid}: agreed at {guard.recovery_result_vtime} > {deadline}"
                )
        if len(agreed) > 1:
            failures.append(f"seed={seed}: guards disagree on the blameset")
        if len(record.epochs) < 2:
            failures.append(f"seed={seed}: no restart epoch")
        else:
            resumed = max(len(v.committed) for v in record.epochs[1].validators)
            if resumed == 0:
                failures.append(f"seed={seed}: reduced committee never committed")
    return CriterionResult(
        "C6",
        "guard liveness recovery (crash f+1)",
        f"{len(failures)} violations over {seeds} seeds",
        "identical >=f+1 blamesets in 6D + (t_g+1)D, then progress",
        not failures,
        failures[0] if failures else "",
        time.time() - t0,
    )


# -- criterion 7: guard safety recovery ------------------------------------------------------


def criterion_guard_safety(seeds: int = 3) -> CriterionResult:
    t0 = time.time()
    failures: list[str] = []
    for seed in range(1, seeds + 1):
        cfg = splitview_3f()
        result = run(cfg, seed)
        record = result.record
        state = result.epochs[0]
        committee = state.committee
        corrupt = cfg.faulty_validators()
        delta = cfg.delta
        t_g = (cfg.guards - 1) // 2
        slot_key = f"{cfg.splitview_round}/0"
        outcomes = {
            v.node: v.decided.get(slot_key, "undecided")
            for v in record.epochs[0].validators
            if not v.faulty
        }
        committed_digests = sorted(
            {o.split(":", 1)[1] for o in outcomes.values() if o.startswith("commit:")}
        )
        skipped = any(o == "skip" for o in outcomes.values())
        diverged = len(committed_digests) >= 2 or (committed_digests and skipped)
        if not diverged:
            failures.append(f"seed={seed}: no honest divergence ({outcomes})")
        committed_ref = committed_digests[0] if committed_digests else None
        detections = []
        agreed: set[tuple] = set()
        for gid, guard in state.guards.items():
            if guard.safety_detection_vtime is None:
                failures.append(f"seed={seed} g{gid}: no safety detection")
                continue
            detections.append(guard.safety_detection_vtime)
            # replay the commit-conflict path: feed each guard the claim made
            # by the camp it did NOT end up in
            if committed_ref is not None:
                claim = _opposing_claim(guard, cfg.splitview_round, committed_digests)
                if claim is None:
                    failures.append(f"seed={seed} g{gid}: no opposing claim constructible")
                else:
                    bs = guard.check_equivocation(claim)
                    if bs is None:
                        failures.append(f"seed={seed} g{gid}: check_equivocation empty")
                    else:
                        if len(bs.members) < committee.f + 1:
                            failures.append(f"seed={seed} g{gid}: overlap too small")
                        if not is_valid_blameset(bs, committee, cfg.guards):
                            failures.append(f"seed={seed} g{gid}: overlap proof invalid")
            if guard.recovery_result is None:
                failures.append(f"seed={seed} g{gid}: no agreed blameset")
                continue
            directive = guard.recovery_result
            agreed.add((directive.kind, directive.excluded, directive.blameset_text))
            members = set(directive.excluded)
            if directive.kind != "safety" or len(members) < committee.f + 1:
                failures.append(f"seed={seed} g{gid}: bad agreed set")
            if not members <= corrupt:
                failures.append(f"seed={seed} g{gid}: honest member blamed")
            bs = BlameSet.from_text(directive.blameset_text)
            if not is_valid_blameset(bs, committee, cfg.guards):
                failures.append(f"seed={seed} g{gid}: blameset fails re-verification")
        if detections and state.guards:
            first = min(detections)
            deadline = first + 2 * delta + (t_g + 1) * delta
            for gid, guard in state.guards.items():
                if guard.recovery_result_vtime and guard.recovery_result_vtime > deadline:
                    failures.append(
                        f"seed={seed} g{gid}: recovery at {guard.recovery_result_vtime} > {deadline}"
                    )
        if len(agreed) > 1:
            failures.append(f"seed={seed}: guards disagree on the blameset")
    return CriterionResult(
        "C7",
        "guard safety recovery (view-split, 3f corrupt)",
        f"{len(failures)} violations over {seeds} seeds",
        "divergence detected; agreed blameset within 2D + (t_g+1)D",
        not failures,
        failures[0] if failures else "",
        time.time() - t0,
    )


def _opposing_claim(guard, slot_round: int, committed_hexes: list[str]) -> Optional[SlotDecision]:
    """The divergent camp's claim for the attacked slot, as seen by `guard`."""
    slot = LeaderSlot(slot_round, 0)
    mine = guard.committer.sequenced(slot)
    other = None
    if mine is not None and mine.verdict is Verdict.COMMIT:
        mine_hex = mine.block.digest.hex()
        others = [h for h in committed_hexes if h != mine_hex]
        if not others:
            return SlotDecision(slot, Verdict.SKIP, None)
        other = others[0]
    else:
        other = committed_hexes[0] if committed_hexes else None
    if other is None:
        return None
    digest = bytes.fromhex(other)
    for blk in guard.dag.blocks_at_round(slot_round):
        if blk.digest == digest:
            return SlotDecision(slot, Verdict.COMMIT, blk.ref())
    return None


# -- criterion 8: no false alarms --------------------------------------------------------------


def _false_alarm_worker(job: tuple) -> list[str]:
    kind, seed = job
    from .scenarios import crash_f, crash_leader, equivocate_f

    builders = {
        "fault-free": lambda: fault_free(1, rounds=30),
        "crash-leader": lambda: crash_leader(rounds=30),
        "crash-f": lambda: crash_f(rounds=30),
        "equivocate-f": lambda: equivocate_f(rounds=30),
    }
    cfg = builders[kind]()
    from dataclasses import replace

    cfg = replace(cfg, guards=5)
    cfg.validate()
    result = run(cfg, seed)
    failures = []
    faulty = result.epochs[0].faulty
    for gid, guard in result.epochs[0].guards.items():
        if guard.recovery_input is not None:
            failures.append(f"{kind} seed={seed} g{gid}: recover invoked")
        if guard.session is not None:
            failures.append(f"{kind} seed={seed} g{gid}: agreement session opened")
        for r, blamed in guard.lblamed.items():
            honest_blamed = set(blamed) - faulty
            if honest_blamed:
                failures.append(
                    f"{kind} seed={seed} g{gid}: honest {sorted(honest_blamed)} lblamed at r{r}"
                )
        honest_attested = {m.accused for m in guard.lblame_sent} - faulty
        if honest_attested:
            failures.append(
                f"{kind} seed={seed} g{gid}: honest {sorted(honest_attested)} blamed"
            )
    failures.extend(check_prefix_consistency(result.record))
    return failures


def criterion_no_false_alarms(seeds_per_scenario: int = 25) -> CriterionResult:
    t0 = time.time()
    jobs = [
        (kind, seed)
        for kind in ("fault-free", "crash-leader", "crash-f", "equivocate-f")
        for seed in range(1, seeds_per_scenario + 1)
    ]
    failures: list[str] = []
    for fs in _pool_map(_false_alarm_worker, jobs):
        failures.extend(fs)
    return CriterionResult(
        "C8",
        "no recovery and no honest blame under <= f corruption",
        f"{len(failures)} alarms over {len(jobs)} guarded runs",
        "zero",
        not failures,
        failures[0] if failures else "",
        time.time() - t0,
    )


# -- criterion 9: async structure and commit probability ----------------------------------------


def _async_structure_worker(job: tuple) -> dict:
    seed, rounds, leaders, with_crash, adversarial = job
    from dataclasses import replace

    cfg = async_fault_free(1, rounds=rounds, record_delivery=False)
    cfg = replace(cfg, leaders_per_round=leaders)
    if adversarial:
        cfg = replace(cfg, network=ASYNC_ADVERSARIAL, name="async-hostile-scheduler")
    if with_crash:
        cfg = replace(cfg, crash=((5, rounds // 2),), name="async-crash")
    cfg.validate()
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
    out = {
        "ref_violations": 0,
        "core_small": 0,
        "sampled": 0,
        "wave_success": 0,
        "wave_bound_sum": 0.0,
        "waves": 0,
        "l4_failures": 0,
    }
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
        refs: dict[int, int] = {}
        forked = dag.equivocators(r + 1)
        for blk in next_blocks:
            if blk.author not in honest or blk.author in forked:
                continue
            for p in blk.parents:
                if p.author in honest:
                    refs[p.author] = refs.get(p.author, 0) + 1
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
    totals = {
        "ref_violations": 0,
        "core_small": 0,
        "sampled": 0,
        "wave_success": 0,
        "wave_bound_sum": 0.0,
        "waves": 0,
        "l4_failures": 0,
    }
    for out in _pool_map(_async_structure_worker, jobs + jobs_l4 + jobs_crash):
        for k in totals:
            totals[k] += out[k]
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
        f"refs_ok over {totals['sampled']} rounds, success {freq:.4f} vs bound {bound:.4f}",
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
