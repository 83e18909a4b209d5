"""One benchmark sample: set up, run, check and report a workload at one seed.

`run.py` starts this script in a fresh process per sample, so set-up time
includes importing pentabft and peak RSS belongs to this run alone. It prints
one JSON object on its last line of output.

    python3 perfbench/sample.py --workload sync-f6 --seed 1 [--trace]
    python3 perfbench/sample.py --warmup     # import only: compiles bytecode
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import statistics
import time

import workloads

PROBE_REPS = 5


def record_digest(record) -> str:
    return hashlib.blake2b(record.to_text().encode(), digest_size=16).hexdigest()


def _probe_work() -> int:
    """Fixed interpreter work of the simulator's kind: heap, dict, tuples, sort."""
    heap, seen, out = [], {}, []
    for i in range(12_000):
        key = (i * 7919) % 4099
        heapq.heappush(heap, (key, i, ("x", key)))
        seen[key] = seen.get(key, 0) + 1
        if len(heap) > 512:
            out.append(heapq.heappop(heap)[2])
    out.sort()
    return len(out) + len(seen)


def probe_times() -> list[float]:
    """Durations of PROBE_REPS runs of the fixed probe work; they measure how
    fast this host runs Python right now."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - start)
    return times


def run_sample(name: str, seed: int, trace: bool = False, rounds: int | None = None) -> dict:
    """Set-up and run times, the probe time around the run, the record
    digest, every failed check, the virtual-time metrics and, when traced,
    the per-layer metrics."""
    start = time.perf_counter()
    workloads.import_pentabft()
    from pentabft import metrics, runner

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        config = workloads.config(name, rounds)
        sim_runner = runner.Runner(config, seed)
        setup_done = time.perf_counter()
        probes = probe_times()
        run_start = time.perf_counter()
        result = sim_runner.run()
        metrics.from_record(result.record, config.protocol_mode, config.tx_per_block * config.tx_size)
        failures = runner.verify_scenario(config, result.record)
        if config.record_events:
            failures += runner.check_delivery_bounds(result)
        run_done = time.perf_counter()
        probes += probe_times()
    finally:
        if tracer is not None:
            tracer.restore()
    failures += workloads.shape_failures(name, config, result.record)
    out = {
        "setup_s": setup_done - start,
        "run_s": run_done - run_start,
        "probe_s": statistics.median(probes),
        "digest": record_digest(result.record),
        "failures": failures,
        "virtual": workloads.virtual_metrics(result.record),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(result)
        out["failures"] += workloads.traced_shape_failures(name, out["layers"])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()
    if args.warmup:
        workloads.import_pentabft()
        import pentabft.cli  # noqa: F401  (pulls in every module)

        print(json.dumps({"warm": True}))
        return
    if args.workload is None:
        parser.error("--workload is required")
    out = run_sample(args.workload, args.seed, trace=args.trace)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
