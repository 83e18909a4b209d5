"""Run the benchmark over several seeds and report each metric's spread.

Runs `run.py` once per seed and workload, one after another, and prints,
for every workload and metric, the median and quartiles of the per-run
values and the quartile distance as a share of the median next to the
metric's bound.

    python3 perfbench/sweep.py --seeds 1..10
    python3 perfbench/sweep.py --workload async-f6 --seeds 1..5 --trace 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads

RUN = str(workloads.ROOT / "perfbench" / "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    workloads.import_pentabft()
    from pentabft.cli import parse_seeds

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    steady = True
    # seed-major order, so slow stretches of the host reach every workload
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            steady &= result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}", flush=True)
            runs[name].append(result["metrics"])
    for name in names:
        for key in runs[name][0]:
            values = [r[key]["value"] for r in runs[name]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[key]
            note = ""
            if bound is not None:
                note = f" bound {bound:.3f}" + ("" if spread <= bound / 3 else "  SPREAD ABOVE BOUND/3")
                steady &= spread <= bound / 3 or key == "setup_s"
            print(f"{name} {key}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{note}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
