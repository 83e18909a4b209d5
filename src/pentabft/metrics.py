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
        return "".join(f"{key}={show(getattr(self, attr))}\n" for key, attr, (show, _) in _FORMAT)

    @staticmethod
    def from_text(text: str) -> "Metrics":
        """Parse `to_text`'s lines; a missing key keeps its field's default
        and an unknown key is ignored."""
        kv = dict(line.partition("=")[::2] for line in text.strip().splitlines())
        m = Metrics()
        for key, attr, (_, parse) in _FORMAT:
            if key in kv:
                setattr(m, attr, parse(kv[key]))
        return m

    def add_guard_outcome(
        self, detection: Optional[int], recovery: Optional[int], blameset: str
    ) -> None:
        """Merge one guard's, or one seed's, outcome: the earliest detection,
        the latest recovery and the first non-empty blameset win."""
        earliest, latest = self.guard_detection_vtime, self.recovery_vtime
        if detection is not None and (earliest is None or detection < earliest):
            self.guard_detection_vtime = detection
        if recovery is not None and (latest is None or recovery > latest):
            self.recovery_vtime = recovery
        self.blameset = self.blameset or blameset


# (to text, from text) per kind of `.metrics` value: an absent time is -1
# and an empty blameset is "-"
_PLAIN, _INT = (str, str), (str, int)
_HISTOGRAM = (
    lambda h: ";".join(f"{k}:{v}" for k, v in sorted(h.items())),
    lambda s: {int(k): int(v) for k, v in (part.split(":") for part in s.split(";") if part)},
)
_TIME = (lambda t: -1 if t is None else t, lambda s: None if int(s) < 0 else int(s))
_BLAMESET = (lambda b: b or "-", lambda s: "" if s == "-" else s)
# the `.metrics` lines in order: key, Metrics field and kind
_FORMAT = (
    ("scenario", "scenario", _PLAIN),
    ("seed", "seed", _INT),
    ("mode", "mode", _PLAIN),
    ("load_bytes", "load_bytes", _INT),
    ("slots_direct_committed", "slots_direct_committed", _INT),
    ("slots_indirect", "slots_indirect", _INT),
    ("slots_skipped", "slots_skipped", _INT),
    ("latency_rounds", "commit_latency_rounds", _HISTOGRAM),
    ("latency_vtime", "commit_latency_vtime", _HISTOGRAM),
    ("guard_detection_vtime", "guard_detection_vtime", _TIME),
    ("blameset", "blameset", _BLAMESET),
    ("recovery_vtime", "recovery_vtime", _TIME),
)


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
            recovered = g.recovery_vtime is not None
            m.add_guard_outcome(
                g.detection_vtime,
                g.recovery_vtime,
                f"{g.recovery_kind}:" + ",".join(map(str, g.recovery_members)) if recovered else "",
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
        agg.add_guard_outcome(m.guard_detection_vtime, m.recovery_vtime, m.blameset)
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
