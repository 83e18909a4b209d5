"""Benchmark entry point: run a workload sample by sample and print its metrics.

Samples run one after another, each in a fresh process (`sample.py`), all at
the given seed, until the next one would end past `--seconds`; at least three
run, so the seed's record digest is compared across separate processes. Host
times and memory are medians over the samples, with times scaled to a
reference host speed; virtual-time figures are exact for the seed. `--trace 1` alternates untraced and traced samples instead and
reports the per-layer metrics and the tracing overhead.

    python3 perfbench/run.py                      # every workload, end to end
    python3 perfbench/run.py --workload sync-f6 --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --workload crash-recover --trace 1

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics. Metric names, units and directions come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import workloads

ROOT = workloads.ROOT
SAMPLE = str(workloads.ROOT / "perfbench" / "sample.py")
MIN_SAMPLES = 3
# Host times are scaled to a host on which the probe in sample.py takes this
# long: other tenants slow this shared host by up to 40 % for minutes at a
# time, and the probe, run in the same process just before and after the
# run, slows with it.
PROBE_REF_S = 0.02
SAMPLE_TIMEOUT_S = 150


class SetupError(RuntimeError):
    pass


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        raise SetupError(f"cannot read BENCHMARK.json: {err}") from None
    units = {
        key: {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }
    return {"run_seconds": spec["run_seconds"], **units}


def run_child(*args: str) -> dict:
    """Run sample.py in a fresh process; its last output line is JSON."""
    cmd = [sys.executable, SAMPLE, *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {SAMPLE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0]}
    return json.loads(lines[-1])


def sample(name: str, seed: int, trace: bool) -> dict:
    args = ["--workload", name, "--seed", str(seed)] + (["--trace"] if trace else [])
    return run_child(*args)


def collect(seconds: float, draw, minimum: int) -> list:
    """Call `draw` at least `minimum` times, then while the next call is
    expected to end within `seconds` of the start."""
    deadline = time.monotonic() + seconds
    results, walls = [], []
    while len(results) < minimum or time.monotonic() + statistics.median(walls) <= deadline:
        began = time.monotonic()
        results.append(draw())
        walls.append(time.monotonic() - began)
    return results


def scaled(s: dict, seconds: float) -> float:
    """A sample's host time at the reference host speed."""
    return seconds * PROBE_REF_S / s["probe_s"]


def check(samples: list[dict]) -> int:
    """Mark every sample that failed a check or whose record digest differs
    from the first; returns how many failed."""
    reference = next((s["digest"] for s in samples if "digest" in s), None)
    failed = 0
    for s in samples:
        if "error" not in s and s["digest"] != reference:
            s["failures"].append(f"record digest {s['digest']} != {reference}")
        if "error" in s or s["failures"]:
            failed += 1
    return failed


def describe(name: str, i: int, s: dict, tag: str = "") -> str:
    head = f"{name} sample {i}{tag}:"
    if "error" in s:
        return f"{head} FAILED {s['error']}"
    failures = s["failures"]
    verdict = "ok" if not failures else "FAILED " + "; ".join(failures[:3])
    if len(failures) > 3:
        verdict += f" and {len(failures) - 3} more"
    return (
        f"{head} setup {s['setup_s']:.4f} s, run {s['run_s']:.4f} s, probe {s['probe_s']:.5f} s,"
        f" rss {s['peak_rss_mb']:.1f} MB, digest {s['digest']}, {verdict}"
    )


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    samples = collect(seconds, lambda: sample(name, seed, trace=False), MIN_SAMPLES)
    failed = check(samples)
    for i, s in enumerate(samples, 1):
        print(describe(name, i, s))
    done = [s for s in samples if "error" not in s]
    if not done:
        raise SetupError(f"{name}: no sample produced a result")
    print(
        f"{name}: {len(done)} samples; unscaled medians: setup"
        f" {statistics.median(s['setup_s'] for s in done):.4f} s, run"
        f" {statistics.median(s['run_s'] for s in done):.4f} s, probe"
        f" {statistics.median(s['probe_s'] for s in done):.5f} s;"
        f" failed_share = {failed}/{len(samples)}"
    )
    metrics = {
        key: statistics.median(scaled(s, s[key]) for s in done)
        for key in ("setup_s", "run_s")
    }
    metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in done)
    metrics.update(done[0]["virtual"])
    metrics["passed_share"] = (len(samples) - failed) / len(samples)
    return metrics, len(samples), failed


def per_layer(name: str, seed: int, seconds: float, units: dict) -> tuple[dict, int, int]:
    pairs = collect(
        seconds,
        lambda: (sample(name, seed, trace=False), sample(name, seed, trace=True)),
        1,
    )
    plain = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    failed = check(plain + traced)
    done = [t for t in traced if "error" not in t]
    for t in done[1:]:
        # counts are deterministic: every traced sample must repeat the first
        diff = [k for k, v in t["layers"].items() if units[k][0] != "s" and v != done[0]["layers"][k]]
        if diff and not t["failures"]:
            t["failures"].append(f"traced counts differ: {', '.join(diff)}")
            failed += 1
    for i, (u, t) in enumerate(pairs, 1):
        print(describe(name, i, u))
        print(describe(name, i, t, " traced"))
    plain_done = [u for u in plain if "error" not in u]
    if not done or not plain_done:
        raise SetupError(f"{name}: no traced and untraced pair produced a result")
    metrics = {}
    for key, value in done[0]["layers"].items():
        timed = units[key][0] == "s"
        metrics[key] = statistics.median(scaled(t, t["layers"][key]) for t in done) if timed else value
    metrics["trace.overhead_x"] = statistics.median(
        scaled(t, t["run_s"]) for t in done
    ) / statistics.median(scaled(u, u["run_s"]) for u in plain_done)
    attempted = 2 * len(pairs)
    print(f"{name}: {len(pairs)} traced/untraced pairs; failed_share = {failed}/{attempted}")
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        spec = load_spec()
        units = spec["per_layer" if args.trace else "end_to_end"]
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        warm = run_child("--warmup")
        if "error" in warm:
            raise SetupError(f"cannot import pentabft: {warm['error']}")
        results, attempted, failed = {}, 0, 0
        for name in names:
            if args.trace:
                metrics, n, bad = per_layer(name, args.seed, seconds, units)
            else:
                metrics, n, bad = end_to_end(name, args.seed, seconds)
            if set(metrics) != set(units):
                raise SetupError(f"{name}: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
            for key, value in metrics.items():
                unit, better = units[key]
                print(f"{name} {key} = {value} {unit} ({better} is better)")
                results[key if len(names) == 1 else f"{name}/{key}"] = {"value": value, "unit": unit}
            attempted += n
            failed += bad
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
