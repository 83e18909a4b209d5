"""Per-run metrics derived from RunRecords, plus plot-ready table emission.

Latency is accounted in message-delay units: a slot committed while
processing blocks k rounds above its propose round took k+1 message delays
(the proposal's own delivery plus k rounds of votes). Virtual-time latency
measures commit detection against the node's entry into the propose round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .runner import NodeSummary, RunRecord


@dataclass
class Metrics:
    scenario: str = ""
    seed: int = 0
    mode: str = ""
    load_bytes: int = 0
    slots_direct_committed: int = 0
    slots_indirect: int = 0
    slots_skipped: int = 0
    commit_latency_rounds: dict[int, int] = field(default_factory=dict)
    commit_latency_vtime: dict[int, int] = field(default_factory=dict)
    guard_detection_vtime: Optional[int] = None
    blameset: str = ""
    recovery_vtime: Optional[int] = None

    def modal_delay(self) -> Optional[int]:
        if not self.commit_latency_rounds:
            return None
        return max(
            self.commit_latency_rounds,
            key=lambda k: (self.commit_latency_rounds[k], -k),
        )

    def mean_vtime_latency(self) -> float:
        total = sum(v * c for v, c in self.commit_latency_vtime.items())
        count = sum(self.commit_latency_vtime.values())
        return total / count if count else 0.0

    def to_text(self) -> str:
        lines = [
            f"scenario={self.scenario}",
            f"seed={self.seed}",
            f"mode={self.mode}",
            f"load_bytes={self.load_bytes}",
            f"slots_direct_committed={self.slots_direct_committed}",
            f"slots_indirect={self.slots_indirect}",
            f"slots_skipped={self.slots_skipped}",
            "latency_rounds="
            + ";".join(f"{k}:{v}" for k, v in sorted(self.commit_latency_rounds.items())),
            "latency_vtime="
            + ";".join(f"{k}:{v}" for k, v in sorted(self.commit_latency_vtime.items())),
            f"guard_detection_vtime={-1 if self.guard_detection_vtime is None else self.guard_detection_vtime}",
            f"blameset={self.blameset or '-'}",
            f"recovery_vtime={-1 if self.recovery_vtime is None else self.recovery_vtime}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Metrics":
        kv: dict[str, str] = {}
        for line in text.strip().splitlines():
            key, _, value = line.partition("=")
            kv[key] = value

        def histogram(s: str) -> dict[int, int]:
            out: dict[int, int] = {}
            for part in s.split(";"):
                if part:
                    k, v = part.split(":")
                    out[int(k)] = int(v)
            return out

        m = Metrics(
            scenario=kv.get("scenario", ""),
            seed=int(kv.get("seed", 0)),
            mode=kv.get("mode", ""),
            load_bytes=int(kv.get("load_bytes", 0)),
            slots_direct_committed=int(kv.get("slots_direct_committed", 0)),
            slots_indirect=int(kv.get("slots_indirect", 0)),
            slots_skipped=int(kv.get("slots_skipped", 0)),
            commit_latency_rounds=histogram(kv.get("latency_rounds", "")),
            commit_latency_vtime=histogram(kv.get("latency_vtime", "")),
        )
        det = int(kv.get("guard_detection_vtime", -1))
        m.guard_detection_vtime = None if det < 0 else det
        m.blameset = "" if kv.get("blameset", "-") == "-" else kv["blameset"]
        rec = int(kv.get("recovery_vtime", -1))
        m.recovery_vtime = None if rec < 0 else rec
        return m


def verdicts(
    node: NodeSummary,
) -> Iterator[tuple[int, int, str, str, Optional[int], Optional[int]]]:
    """(slot round, rank, verdict, rule, delay, latency) for each slot verdict
    of `node`, in the order they formed. The delay is in message delays, None
    for a verdict formed without a trigger round; the latency is in virtual
    time from the node's entry into the slot round, None without that entry."""
    entries = node.round_entries
    for slot_round, rank, verdict, rule, trigger, vtime in node.commit_events:
        entry = entries.get(slot_round)
        yield (
            slot_round,
            rank,
            verdict,
            rule,
            None if trigger < 0 else trigger - slot_round + 1,
            None if entry is None else vtime - entry,
        )


def from_record(record: RunRecord, config_mode: str, load_bytes: int) -> Metrics:
    """Extract metrics from the first honest validator's decision history."""
    m = Metrics(scenario=record.scenario, seed=record.seed, mode=config_mode, load_bytes=load_bytes)
    honest = record.honest_validators(0)
    if not honest:
        return m
    for _, _, verdict, rule, delay, latency in verdicts(honest[0]):
        if verdict == "skip":
            m.slots_skipped += 1
            continue
        if rule == "direct":
            m.slots_direct_committed += 1
        else:
            m.slots_indirect += 1
        if delay is None:
            continue
        m.commit_latency_rounds[delay] = m.commit_latency_rounds.get(delay, 0) + 1
        if latency is not None:
            m.commit_latency_vtime[latency] = m.commit_latency_vtime.get(latency, 0) + 1
    for ep in record.epochs[:1]:
        for g in ep.guards:
            if g.faulty:
                continue
            if g.detection_vtime is not None:
                if m.guard_detection_vtime is None or g.detection_vtime < m.guard_detection_vtime:
                    m.guard_detection_vtime = g.detection_vtime
            if g.recovery_vtime is not None:
                if m.recovery_vtime is None or g.recovery_vtime > m.recovery_vtime:
                    m.recovery_vtime = g.recovery_vtime
                if not m.blameset:
                    m.blameset = f"{g.recovery_kind}:" + ",".join(
                        str(x) for x in g.recovery_members
                    )
    return m


def aggregate(per_seed: Iterable[Metrics]) -> Metrics:
    agg = Metrics(scenario="aggregate", seed=-1)
    for m in per_seed:
        if not agg.mode:
            agg.mode = m.mode
            agg.scenario = f"aggregate-{m.scenario}"
            agg.load_bytes = m.load_bytes
        agg.slots_direct_committed += m.slots_direct_committed
        agg.slots_indirect += m.slots_indirect
        agg.slots_skipped += m.slots_skipped
        for k, v in m.commit_latency_rounds.items():
            agg.commit_latency_rounds[k] = agg.commit_latency_rounds.get(k, 0) + v
        for k, v in m.commit_latency_vtime.items():
            agg.commit_latency_vtime[k] = agg.commit_latency_vtime.get(k, 0) + v
        if m.recovery_vtime is not None:
            if agg.recovery_vtime is None or m.recovery_vtime > agg.recovery_vtime:
                agg.recovery_vtime = m.recovery_vtime
        if m.guard_detection_vtime is not None:
            if agg.guard_detection_vtime is None or m.guard_detection_vtime < agg.guard_detection_vtime:
                agg.guard_detection_vtime = m.guard_detection_vtime
        if m.blameset and not agg.blameset:
            agg.blameset = m.blameset
    return agg


PLOT_COLUMNS = (
    "scenario",
    "seed",
    "mode",
    "load_bytes",
    "modal_delay_messages",
    "mean_latency_vtime",
    "direct",
    "indirect",
    "skipped",
)


def emit_plot_data(metrics_list: Iterable[Metrics]) -> str:
    """Delimited table (tab-separated) of latency versus load proxy, per mode."""
    lines = ["\t".join(PLOT_COLUMNS)]
    for m in metrics_list:
        modal = m.modal_delay()
        lines.append(
            "\t".join(
                str(x)
                for x in (
                    m.scenario,
                    m.seed,
                    m.mode,
                    m.load_bytes,
                    -1 if modal is None else modal,
                    f"{m.mean_vtime_latency():.1f}",
                    m.slots_direct_committed,
                    m.slots_indirect,
                    m.slots_skipped,
                )
            )
        )
    return "\n".join(lines) + "\n"
