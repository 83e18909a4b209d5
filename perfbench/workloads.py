"""The benchmark's workloads and the end-to-end figures read from a run record.

Each workload is one catalog scenario at a fixed size; the benchmark seed is
passed to the simulator as the run seed, and the program sees nothing else.
The virtual-time figures here are exact for a given (workload, seed); host
time and memory are measured by `sample.py`.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# rounds per run: one sample takes 0.6-2 s on a 2-core host; BENCHMARK.json
# and README.md say why each workload is in the benchmark
WORKLOADS = {"sync-f6": 50, "async-f6": 50, "equivocate-guarded": 64, "crash-recover": 300}


def import_pentabft():
    """Import pentabft from this checkout's src/, never from anywhere else."""
    init = SRC / "pentabft" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no pentabft sources at {init}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import pentabft

    if Path(pentabft.__file__).resolve() != init.resolve():
        raise ImportError(f"pentabft imported from {pentabft.__file__}, not {init}")
    return pentabft


def config(name: str, rounds: int | None = None):
    """The ScenarioConfig a workload runs; `rounds` overrides its size."""
    import_pentabft()
    from pentabft import scenarios

    rounds = rounds or WORKLOADS[name]
    if name == "sync-f6":
        return scenarios.fault_free(6, rounds=rounds)
    if name == "async-f6":
        return scenarios.async_fault_free(6, rounds=rounds)
    if name == "equivocate-guarded":
        return scenarios.equivocate_f(rounds=rounds, guards=5)
    if name == "crash-recover":
        return scenarios.crash_f_plus_1(rounds=rounds)
    raise KeyError(name)


def _percentile(values: list[int], p: float) -> int:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def virtual_metrics(record) -> dict[str, float]:
    """Commit latency, outage and verdict mix over every honest validator of
    every epoch. Message delays count the proposal's own delivery plus one per
    round of votes; virtual latency runs from entry into the propose round to
    commit detection; the outage is the longest gap between consecutive
    commits at one validator, across restarts."""
    delays: list[int] = []
    latencies: list[int] = []
    commit_times: dict[str, list[int]] = {}
    direct = committed = 0
    for epoch in record.epochs:
        for node in epoch.validators:
            if node.faulty:
                continue
            for slot_round, _, verdict, rule, trigger, vtime in node.commit_events:
                if verdict != "commit":
                    continue
                committed += 1
                direct += rule == "direct"
                commit_times.setdefault(node.node, []).append(vtime)
                if trigger >= 0:
                    delays.append(trigger - slot_round + 1)
                entry = node.round_entries.get(slot_round)
                if entry is not None:
                    latencies.append(vtime - entry)
    gaps = [
        later - earlier
        for times in commit_times.values()
        for earlier, later in zip(sorted(times), sorted(times)[1:])
    ]
    return {
        "commit_md.p50": _percentile(delays, 50),
        "commit_md.p99": _percentile(delays, 99),
        "commit_vt_us.p50": _percentile(latencies, 50),
        "commit_vt_us.p99": _percentile(latencies, 99),
        "outage_vt_us": max(gaps),
        "direct_share": direct / committed,
        "committed_slots": committed,
    }


def shape_failures(name: str, config, record) -> list[str]:
    """Checks that a run still has the shape its workload was chosen for."""
    failures = []
    if name in ("sync-f6", "async-f6"):
        # one broadcast per validator and round, and nothing else: no sync traffic
        broadcasts = config.n * (config.n - 1) * config.rounds
        if record.total_deliveries != broadcasts:
            failures.append(
                f"{record.total_deliveries} deliveries, expected {broadcasts} block broadcasts"
            )
    if name == "crash-recover" and len(record.epochs) != 2:
        failures.append(f"{len(record.epochs)} epochs, expected one restart")
    return failures


def traced_shape_failures(name: str, layers: dict[str, float]) -> list[str]:
    """Message-mix checks that need the traced run's counts."""
    sync = layers["simnet.msgs.sync_req"] + layers["simnet.msgs.sync_resp"]
    if name in ("sync-f6", "async-f6") and sync:
        return [f"{sync} sync messages on a fault-free workload"]
    if name == "equivocate-guarded" and not sync:
        return ["no sync traffic under equivocation"]
    return []
