"""Command-line scenario runner, acceptance driver, and plot-data emitter.

Usage:
    pentabft list
    pentabft run fault-free-f1 --seeds 1..20 --out results/
    pentabft run path/to/scenario.cfg --seeds 7
    pentabft acceptance all
    pentabft plot-data results/*.metrics --out table.tsv
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import acceptance as acceptance_mod
from . import metrics as metrics_mod
from . import scenarios
from .runner import run, verify_scenario
from .simnet import ConfigError


def parse_seeds(spec: str) -> list[int]:
    """Seed list syntax: '7', '1..20', or '1,5,9'."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in spec:
        return [int(p) for p in spec.split(",") if p]
    return [int(spec)]


def load_scenario(selector: str) -> scenarios.ScenarioConfig:
    path = Path(selector)
    if path.exists():
        return scenarios.ScenarioConfig.from_text(path.read_text())
    return scenarios.by_name(selector)


def apply_overrides(cfg: scenarios.ScenarioConfig, args) -> scenarios.ScenarioConfig:
    if args.rounds is not None:
        cfg = replace(cfg, rounds=args.rounds)
    if args.delta is not None:
        cfg = replace(cfg, delta=args.delta)
    if args.leaders is not None:
        cfg = replace(cfg, leaders_per_round=args.leaders)
    if args.horizon is not None:
        cfg = replace(cfg, extra_vtime=args.horizon)
    if args.mode is not None:
        if args.mode == "async":
            cfg = replace(cfg, protocol_mode="async", network=scenarios.ASYNC_BENIGN, guards=0)
        else:
            cfg = replace(cfg, protocol_mode="partial-sync", network=scenarios.SYNC)
    cfg.validate()
    return cfg


def cmd_list(_args) -> int:
    for name in sorted(scenarios.CATALOG):
        cfg = scenarios.by_name(name)
        print(
            f"{name:20s} n={cfg.n} f={cfg.f} mode={cfg.protocol_mode}"
            f" network={cfg.network} guards={cfg.guards} rounds={cfg.rounds}"
        )
    return 0


def cmd_run(args) -> int:
    try:
        cfg = apply_overrides(load_scenario(args.scenario), args)
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    seeds = parse_seeds(args.seeds)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot write to {out_dir}: {err}", file=sys.stderr)
        return 2
    failures: list[str] = []
    per_seed: list[metrics_mod.Metrics] = []
    for seed in seeds:
        result = run(cfg, seed)
        record = result.record
        m = metrics_mod.from_record(
            record, cfg.protocol_mode, cfg.tx_per_block * cfg.tx_size
        )
        per_seed.append(m)
        (out_dir / f"{cfg.name}-seed{seed}.metrics").write_text(m.to_text())
        if args.records:
            with (out_dir / f"{cfg.name}-seed{seed}.record").open("w") as out:
                out.writelines(record.chunks())
        for failure in verify_scenario(cfg, record):
            failures.append(f"seed {seed}: {failure}")
    agg = metrics_mod.aggregate(per_seed)
    (out_dir / f"{cfg.name}-aggregate.metrics").write_text(agg.to_text())
    print(f"{cfg.name}: {len(seeds)} seeds, outputs in {out_dir}")
    for failure in failures:
        print(f"ASSERTION FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_acceptance(args) -> int:
    try:
        results = acceptance_mod.run_suite(args.suite)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = acceptance_mod.report(results)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0 if all(r.passed for r in results) else 1


def cmd_plot_data(args) -> int:
    entries: list[metrics_mod.Metrics] = []
    for pattern in args.files:
        path = Path(pattern)
        if not path.exists():
            print(f"error: no such metrics file {pattern}", file=sys.stderr)
            return 2
        try:
            entries.append(metrics_mod.Metrics.from_text(path.read_text()))
        except (ValueError, KeyError) as err:
            print(f"error: malformed metrics file {pattern}: {err}", file=sys.stderr)
            return 2
    table = metrics_mod.emit_plot_data(entries)
    if args.out:
        Path(args.out).write_text(table)
    else:
        print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentabft",
        description="5f+1 DAG consensus simulator: scenarios, acceptance, plots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the scenario catalog").set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run a scenario over a seed sweep")
    p_run.add_argument("scenario", help="catalog name or config file path")
    p_run.add_argument("--seeds", default="1", help="seed, list, or range (e.g. 1..20)")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--rounds", type=int, help="round-count override")
    p_run.add_argument("--delta", type=int, help="network delay bound override (us)")
    p_run.add_argument("--mode", choices=("sync", "async"), help="protocol mode override")
    p_run.add_argument("--leaders", type=int, help="leader slots per round")
    p_run.add_argument("--horizon", type=int, help="extra virtual time before cutoff (us)")
    p_run.add_argument("--records", action="store_true", help="also write full run records")
    p_run.set_defaults(fn=cmd_run)

    p_acc = sub.add_parser("acceptance", help="run the acceptance suite")
    p_acc.add_argument(
        "suite",
        nargs="?",
        default="all",
        help="suite id: " + ", ".join(sorted(acceptance_mod.SUITES)) + ", or all",
    )
    p_acc.add_argument("--out", help="also write the report to this file")
    p_acc.set_defaults(fn=cmd_acceptance)

    p_plot = sub.add_parser("plot-data", help="emit a delimited latency/load table")
    p_plot.add_argument("files", nargs="*", help="metrics files")
    p_plot.add_argument("--out", help="output file (defaults to stdout)")
    p_plot.set_defaults(fn=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
