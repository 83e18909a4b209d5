"""Scenario runner: wires validators, guards, and faults into the simulator.

`run(config, seed)` builds the committee and node set, drives the event loop
to quiescence or the horizon, applies guard-agreed reconfigurations (a new
epoch with the reduced committee restarts after recovery), and extracts a
deterministic, text-serializable RunRecord plus live artifacts for in-process
inspection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .committer import CommonCoin, SlotDecision, Verdict
from .dagcore import Committee, Mode, ValidatorId
from .faults import (
    BogusProposalGuard,
    CrashValidator,
    EquivocatingValidator,
    SilentGuard,
    SplitViewScript,
    SplitViewValidator,
    WithholdVotesValidator,
)
from .guard import Guard, apply_reconfiguration
from .messages import (
    BlockMsg,
    NodeId,
    RestartDirective,
    SyncResponse,
    guard_node,
    validator_node,
)
from .scenarios import (
    ASYNC_BENIGN,
    PARTIAL,
    SYNC,
    ScenarioConfig,
)
from .simnet import Asynchronous, Node, PartialSynchrony, Simulator, Synchronous
from .validator import CoreValidator


class ValidatorAdapter(Node):
    """Hosts a validator in the simulator: forwards each step, gates its
    output on a crash, and refills the transaction queue."""

    def __init__(self, runner: "Runner", validator: CoreValidator):
        self.runner = runner
        self.validator = validator
        self.node_id = validator_node(validator.me)
        self._tx_round = 0
        self._refill()

    def _refill(self) -> None:
        v = self.validator
        cfg = self.runner.config
        batch = [
            f"tx/{self.node_id}/{self._tx_round}/{i}".encode().ljust(cfg.tx_size, b".")
            for i in range(cfg.tx_per_block)
        ]
        v.enqueue_transactions(batch)

    def deliver(self, msg, sender, now):
        v = self.validator
        was_crashed = v.crashed
        actions = v.deliver(msg, sender, now)
        if was_crashed or v.crashed:
            return self._gate(actions, was_crashed, now)
        return actions

    def flush(self, now):
        v = self.validator
        was_crashed = v.crashed
        actions = v.flush(now)
        while self._tx_round < v.current_round:
            self._tx_round += 1
            self._refill()
        if was_crashed or v.crashed:
            return self._gate(actions, was_crashed, now)
        return actions

    def on_timer(self, timer_id, now):
        v = self.validator
        was_crashed = v.crashed
        actions = v.on_timer(timer_id, now)
        if was_crashed or v.crashed:
            return self._gate(actions, was_crashed, now)
        return actions

    def _gate(self, actions, was_crashed: bool, now: int):
        # a node crashing during this step still emits what it produced
        # before the crash point; it is silent from the next step on
        if was_crashed:
            return []
        self.runner.sim.inject(self.node_id, "crash activated", now)
        return actions


class GuardAdapter(Node):
    """Hosts a guard in the simulator: forwards each step and drops the
    output of a silent guard."""

    def __init__(self, guard: Guard):
        self.guard = guard
        self.node_id = guard_node(guard.me)

    def deliver(self, msg, sender, now):
        guard = self.guard
        actions = guard.deliver(msg, sender, now)
        return [] if guard.is_silent else actions

    def flush(self, now):
        guard = self.guard
        actions = guard.flush(now)
        return [] if guard.is_silent else actions

    def on_timer(self, timer_id, now):
        guard = self.guard
        actions = guard.on_timer(timer_id, now)
        return [] if guard.is_silent else actions


# -- run record ------------------------------------------------------------------


@dataclass
class NodeSummary:
    node: str
    faulty: bool
    committed: list[tuple[int, int, str]] = field(default_factory=list)
    decided: dict[str, str] = field(default_factory=dict)
    delivery: list[str] = field(default_factory=list)
    delivery_len: int = 0
    delivery_hash: str = ""
    commit_events: list[tuple[int, int, str, str, int, int]] = field(default_factory=list)
    round_entries: dict[int, int] = field(default_factory=dict)
    highest_round: int = 0

    def to_lines(self) -> list[str]:
        lines = [f"node {self.node} faulty={int(self.faulty)} highest={self.highest_round}"]
        lines.append(
            "committed " + " ".join(f"{r}/{k}:{d}" for r, k, d in self.committed)
        )
        lines.append(
            "decided " + " ".join(f"{s}={v}" for s, v in sorted(self.decided.items()))
        )
        lines.append(f"delivery len={self.delivery_len} hash={self.delivery_hash}")
        if self.delivery:
            lines.append("delivery-seq " + " ".join(self.delivery))
        lines.append(
            "events "
            + " ".join(f"{r}/{k}:{v}:{rule}:{t}@{w}" for r, k, v, rule, t, w in self.commit_events)
        )
        lines.append(
            "entries " + " ".join(f"{r}@{t}" for r, t in sorted(self.round_entries.items()))
        )
        return lines


@dataclass
class GuardRecord:
    guard: int
    faulty: bool
    entry_vtime: dict[int, int] = field(default_factory=dict)
    lblamed: dict[int, list[int]] = field(default_factory=dict)
    lblamed_at: dict[int, int] = field(default_factory=dict)
    blameset_text: str = ""
    recovery_members: tuple[int, ...] = ()
    recovery_kind: str = ""
    recovery_vtime: Optional[int] = None
    detection_vtime: Optional[int] = None
    branch: str = ""

    def to_lines(self) -> list[str]:
        lines = [f"guard {self.guard} faulty={int(self.faulty)}"]
        lines.append(
            "g-entries " + " ".join(f"{r}@{t}" for r, t in sorted(self.entry_vtime.items()))
        )
        lines.append(
            "lblamed "
            + " ".join(
                f"{r}:{','.join(str(v) for v in vs)}@{self.lblamed_at.get(r, -1)}"
                for r, vs in sorted(self.lblamed.items())
            )
        )
        lines.append(
            f"recovery kind={self.recovery_kind} members={','.join(str(m) for m in self.recovery_members)}"
            f" at={self.recovery_vtime if self.recovery_vtime is not None else -1}"
            f" detect={self.detection_vtime if self.detection_vtime is not None else -1}"
            f" branch={self.branch or '-'}"
        )
        return lines


@dataclass
class EpochRecord:
    epoch: int
    members: tuple[int, ...]
    f: int
    start_vtime: int
    end_vtime: int
    validators: list[NodeSummary] = field(default_factory=list)
    guards: list[GuardRecord] = field(default_factory=list)


@dataclass
class RunRecord:
    scenario: str
    seed: int
    epochs: list[EpochRecord] = field(default_factory=list)
    # the simulator's event log: `event_count` lines, held as blocks of
    # lines joined by "\n" (see simnet)
    event_blocks: list[str] = field(default_factory=list)
    event_count: int = 0
    violations: list[str] = field(default_factory=list)
    total_deliveries: int = 0
    end_vtime: int = 0

    def honest_validators(self, epoch: int = 0) -> list[NodeSummary]:
        return [v for v in self.epochs[epoch].validators if not v.faulty]

    def chunks(self) -> Iterator[str]:
        """The pieces of the record text, in order: the run header, each
        epoch line, each node's and guard's lines, the violations, the
        `events N` line, then each event block and its newline. A reader
        that hashes or writes them one at a time never holds the whole
        text."""
        yield (
            f"run scenario={self.scenario} seed={self.seed} end={self.end_vtime}\n"
            f"deliveries={self.total_deliveries}\n"
        )
        for ep in self.epochs:
            yield (
                f"epoch {ep.epoch} members={','.join(str(m) for m in ep.members)} f={ep.f}"
                f" start={ep.start_vtime} end={ep.end_vtime}\n"
            )
            for node in (*ep.validators, *ep.guards):
                yield _text(node.to_lines())
        if self.violations:
            yield _text([f"violation {v}" for v in self.violations])
        yield f"events {self.event_count}\n"
        for block in self.event_blocks:
            yield block
            yield "\n"

    def to_text(self) -> str:
        return "".join(self.chunks())


def _text(lines: list[str]) -> str:
    """`lines`, each ended by a newline, in one string."""
    lines.append("")
    return "\n".join(lines)


@dataclass
class EpochState:
    epoch: int
    committee: Committee
    start_vtime: int
    validators: dict[ValidatorId, CoreValidator]
    guards: dict[int, Guard]
    faulty: frozenset[ValidatorId]
    faulty_guards: set[int]
    end_vtime: int = -1


@dataclass
class RunResult:
    record: RunRecord
    epochs: list[EpochState]
    sim: Simulator


# -- the runner --------------------------------------------------------------------


def _network_for(config: ScenarioConfig):
    if config.network == SYNC:
        return Synchronous(config.delta)
    if config.network == PARTIAL:
        return PartialSynchrony(config.gst, config.delta)
    return Asynchronous(
        config.async_base, config.async_cap, benign=(config.network == ASYNC_BENIGN)
    )


class Runner:
    def __init__(self, config: ScenarioConfig, seed: int):
        config.validate()
        self.config = config
        self.seed = seed
        self.sim = Simulator(
            _network_for(config),
            seed,
            record_events=config.record_events,
            horizon=config.horizon_vtime(),
        )
        self.sim.on_recovery_done = self._on_recovery_done
        if config.faulty_validators():
            # forged-identity containment only matters with an adversary around
            self.sim.outbound_check = self._outbound_check
        self.epochs: list[EpochState] = []
        self.violations: list[str] = []
        self._sent_by_author: set[bytes] = set()  # see _outbound_check
        self._restart_scheduled = False
        self._recovery_directive: Optional[RestartDirective] = None
        self._start_epoch(Committee.of_size(config.n, self._mode(), epoch=0), 0)

    def _mode(self) -> Mode:
        return Mode.ASYNC if self.config.protocol_mode == "async" else Mode.PARTIAL_SYNC

    # -- epoch construction ---------------------------------------------------------

    def _start_epoch(self, committee: Committee, start_vtime: int) -> None:
        """Build an epoch's nodes. The config's adversary acts in the first
        epoch only: a restart excludes the nodes recovery blamed, and the
        reduced committee runs honestly."""
        config = self.config
        epoch = committee.epoch
        coin = None
        if committee.mode is Mode.ASYNC:
            key = hashlib.blake2b(
                f"coin/{self.seed}/{epoch}".encode(), digest_size=16
            ).digest()
            coin = CommonCoin(key, committee)

        node_ids = [validator_node(v) for v in committee.members] + [
            guard_node(g) for g in range(config.guards)
        ]
        script = SplitViewScript(config) if epoch == 0 and config.splitview_round else None

        validators: dict[ValidatorId, CoreValidator] = {}
        for v in committee.members:
            validators[v] = self._make_validator(v, committee, coin, script, node_ids)
            validators[v].max_round = config.rounds
        guards: dict[int, Guard] = {}
        for g in range(config.guards):
            guards[g] = self._make_guard(g, committee)
            guards[g].max_round = config.rounds

        state = EpochState(
            epoch,
            committee,
            start_vtime,
            validators,
            guards,
            config.faulty_validators() if epoch == 0 else frozenset(),
            {g for g, _ in config.byz_guards} if epoch == 0 else set(),
        )
        self.epochs.append(state)
        self.sim.start_epoch(
            [ValidatorAdapter(self, v) for v in validators.values()]
            + [GuardAdapter(g) for g in guards.values()],
            start_vtime,
        )

    def _make_validator(self, v, committee, coin, script, node_ids):
        config = self.config
        kwargs = dict(
            leaders_per_round=config.leaders_per_round,
            delta=config.delta,
            coin=coin,
        )
        if committee.epoch:
            return CoreValidator(v, committee, **kwargs)
        node = validator_node(v)
        crash = dict(config.crash)
        withhold = dict(config.withhold)
        if v in crash:
            self.sim.inject(node, f"crash at round {crash[v]}", 0)
            return CrashValidator(v, committee, crash_round=crash[v], **kwargs)
        if v in config.equivocate:
            others = tuple(n for n in node_ids if n != node)
            half = len(others) // 2
            self.sim.inject(node, "equivocate split-send", 0)
            return EquivocatingValidator(
                v, committee, camp_a=others[:half], camp_b=others[half:], **kwargs
            )
        if v in withhold:
            self.sim.inject(node, f"withhold votes {withhold[v]}", 0)
            return WithholdVotesValidator(v, committee, targets=withhold[v], **kwargs)
        if script is not None and v in script.corrupt:
            self.sim.inject(node, f"splitview corrupt r={script.attack_round}", 0)
            return SplitViewValidator(v, committee, script=script, **kwargs)
        return CoreValidator(v, committee, **kwargs)

    def _make_guard(self, g: int, committee: Committee) -> Guard:
        kwargs = dict(
            guard_count=self.config.guards,
            delta=self.config.delta,
            leaders_per_round=self.config.leaders_per_round,
        )
        policy = dict(self.config.byz_guards).get(g) if committee.epoch == 0 else None
        if policy == "silent":
            self.sim.inject(guard_node(g), "silent guard", 0)
            return SilentGuard(g, committee, **kwargs)
        if policy == "bogus-proposal":
            self.sim.inject(guard_node(g), "bogus-proposal guard", 0)
            return BogusProposalGuard(g, committee, **kwargs)
        return Guard(g, committee, **kwargs)

    # -- forged-identity containment -----------------------------------------------------

    def _outbound_check(self, frm: NodeId, msg) -> None:
        """Byzantine containment: nobody emits a block forged in an honest name.

        An honest validator sends each block it creates itself before any
        other node can hold it, so a block in its name that it has not sent
        is a fabrication; relays of the blocks it sent pass. The digests it
        sent are kept here, since its DAG drops old rounds.
        """
        blocks = ()
        if isinstance(msg, BlockMsg):
            blocks = (msg.block,)
        elif isinstance(msg, SyncResponse):
            blocks = msg.blocks
        state = self.epochs[-1]
        for block in blocks:
            if block.round == 0:
                continue
            author = block.author
            if author in state.faulty or author not in state.validators:
                continue
            if frm == validator_node(author):
                self._sent_by_author.add(block.digest)
            elif block.digest not in self._sent_by_author:
                self.violations.append(
                    f"forged block {block.digest.hex()[:8]} in honest name v{author} from {frm}"
                )

    # -- recovery and restart ------------------------------------------------------------

    def _on_recovery_done(self, node_id: NodeId, directive: RestartDirective, now: int) -> None:
        if self._recovery_directive is None:
            self._recovery_directive = directive
        if not self._restart_scheduled:
            self._restart_scheduled = True
            self.sim.schedule_call(now + self.config.delta, self._restart)

    def _restart(self, now: int) -> None:
        state = self.epochs[-1]
        state.end_vtime = now
        directive = self._recovery_directive
        new_committee = apply_reconfiguration(directive.excluded, state.committee)
        self.sim.inject(
            "",
            f"restart epoch={new_committee.epoch} excluded={','.join(str(m) for m in directive.excluded)}",
            now,
        )
        self._start_epoch(new_committee, now)

    # -- record extraction ----------------------------------------------------------------

    def run(self) -> RunResult:
        self.sim.run()
        state = self.epochs[-1]
        state.end_vtime = self.sim.now
        record = self._build_record()
        return RunResult(record, self.epochs, self.sim)

    def _build_record(self) -> RunRecord:
        record = RunRecord(
            scenario=self.config.name,
            seed=self.seed,
            total_deliveries=self.sim.delivery_count,
            end_vtime=self.sim.now,
            violations=list(self.violations),
        )
        # a committee keeps one object per verdict, alive in its committers
        # while the record is built: key each verdict's record data by its id
        shared: dict[int, tuple] = {}
        for state in self.epochs:
            ep = EpochRecord(
                state.epoch,
                state.committee.members,
                state.committee.f,
                state.start_vtime,
                state.end_vtime,
            )
            for v in state.committee.members:
                node = state.validators[v]
                summary = NodeSummary(
                    node=validator_node(v),
                    faulty=v in state.faulty,
                    highest_round=node.current_round,
                )
                for d in node.committer.decided.values():
                    data = shared.get(id(d))
                    if data is None:
                        data = shared[id(d)] = _verdict_data(d)
                    summary.decided[data[1]] = data[2]
                committed = (shared[id(d)][0] for d in node.committer.sequence)
                summary.committed = [c for c in committed if c is not None]
                delivery = node.committer.delivery_sequence
                summary.delivery_len = len(delivery)
                h = hashlib.blake2b(digest_size=8)
                for ref in delivery:
                    h.update(ref.digest)
                summary.delivery_hash = h.hexdigest()
                if self.config.record_delivery:
                    summary.delivery = [ref.digest.hex() for ref in delivery]
                summary.commit_events = [
                    (d.slot.round, d.slot.rank, d.verdict.value, rule, t, vtime)
                    for d, rule, t, vtime in node.committer.decision_events
                ]
                summary.round_entries = dict(node.round_entry_vtime)
                ep.validators.append(summary)
            for g in sorted(state.guards):
                guard = state.guards[g]
                grec = GuardRecord(
                    guard=g,
                    faulty=g in state.faulty_guards,
                    entry_vtime=dict(guard.entry_vtime),
                    lblamed={r: sorted(vs) for r, vs in guard.lblamed.items()},
                    lblamed_at=dict(guard.lblamed_at),
                    blameset_text=guard.recovery_input.to_text() if guard.recovery_input else "",
                    detection_vtime=guard.safety_detection_vtime,
                )
                if guard.recovery_result is not None:
                    grec.recovery_members = guard.recovery_result.excluded
                    grec.recovery_kind = guard.recovery_result.kind
                    grec.recovery_vtime = guard.recovery_result_vtime
                    grec.branch = (
                        guard.recovery_result.branch.digest.hex()
                        if guard.recovery_result.branch
                        else ""
                    )
                ep.guards.append(grec)
            record.epochs.append(ep)
        record.event_blocks = self.sim.event_blocks
        record.event_count = self.sim.event_count
        return record


def _verdict_data(d: SlotDecision) -> tuple:
    """A verdict's `committed` tuple (None for a skip), `decided` key and value."""
    key = f"{d.slot.round}/{d.slot.rank}"
    if d.verdict is not Verdict.COMMIT:
        return None, key, d.verdict.value
    digest = d.block.digest.hex()
    return (d.slot.round, d.slot.rank, digest), key, f"commit:{digest}"


def run(config: ScenarioConfig, seed: int) -> RunResult:
    return Runner(config, seed).run()


def run_record(config: ScenarioConfig, seed: int) -> RunRecord:
    """Picklable record only; used by worker pools."""
    return run(config, seed).record


# -- post-hoc verifiers ------------------------------------------------------------------


def check_prefix_consistency(record: RunRecord, epoch: int = 0) -> list[str]:
    """Committed-leader prefix agreement and delivery-prefix agreement over
    honest nodes, plus the commit-versus-skip exclusion on decided slots.

    Two sequences are pairwise prefix-consistent iff each is a prefix of the
    longest one, so every node is compared against that reference only.
    """
    failures: list[str] = []
    honest = record.honest_validators(epoch)
    if not honest:
        return failures
    ref_committed = max(honest, key=lambda v: len(v.committed))
    for v in honest:
        if v.committed != ref_committed.committed[: len(v.committed)]:
            failures.append(f"leader prefix mismatch {v.node} vs {ref_committed.node}")
    with_delivery = [v for v in honest if v.delivery]
    if with_delivery:
        ref_delivery = max(with_delivery, key=lambda v: len(v.delivery))
        for v in with_delivery:
            if v.delivery != ref_delivery.delivery[: len(v.delivery)]:
                failures.append(f"delivery prefix mismatch {v.node} vs {ref_delivery.node}")
    # slot verdict exclusion: no commit/skip split, no conflicting commits
    seen: dict[str, tuple[str, str]] = {}
    for v in honest:
        for slot, verdict in v.decided.items():
            prior = seen.get(slot)
            if prior is None:
                seen[slot] = (verdict, v.node)
                continue
            other, node = prior
            a_commit = verdict.startswith("commit")
            b_commit = other.startswith("commit")
            if (a_commit and other == "skip") or (b_commit and verdict == "skip"):
                failures.append(f"slot {slot} commit/skip conflict {v.node} vs {node}")
            elif a_commit and b_commit and verdict != other:
                failures.append(f"slot {slot} commit divergence {v.node} vs {node}")
    return failures


def check_delivery_bounds(result: RunResult) -> list[str]:
    """Every recorded delivery that broke the network model's bound."""
    bound = result.sim.network.delivery_bound
    return [
        f"delivery {frm}->{to} at {recv_time} exceeds bound {bound(send_time)}"
        for send_time, frm, to, recv_time in result.sim.late_deliveries
    ]


def verify_scenario(config: ScenarioConfig, record: RunRecord) -> list[str]:
    """In-run assertions for a scenario; a non-empty result fails the run."""
    failures = list(record.violations)
    if not config.splitview_round:
        # the view-split attack is the one scenario whose point is divergence
        failures.extend(check_prefix_consistency(record))
    honest = record.honest_validators(0)
    if not any(v.committed for v in honest):
        if not (config.beyond_f and config.crash):
            failures.append("no honest commits")
    guards = record.epochs[0].guards if record.epochs else []
    honest_guards = [g for g in guards if not g.faulty]
    if config.guards and not config.beyond_f:
        for g in honest_guards:
            if g.blameset_text:
                failures.append(f"g{g.guard} invoked recovery under <= f corruption")
    if config.beyond_f and (config.crash or config.splitview_round):
        agreed = {(g.recovery_kind, g.recovery_members) for g in honest_guards}
        if len(agreed) != 1 or not all(g.recovery_vtime is not None for g in honest_guards):
            failures.append("honest guards did not agree on a recovery outcome")
        else:
            kind, members = next(iter(agreed))
            if not set(members) <= config.faulty_validators():
                failures.append(f"recovery blamed honest members {members}")
        if len(record.epochs) < 2:
            failures.append("no restart epoch after recovery")
        elif config.crash and not any(
            v.committed for v in record.epochs[1].validators
        ):
            failures.append("reduced committee made no progress after restart")
    if config.splitview_round:
        slot_key = f"{config.splitview_round}/0"
        outcomes = {v.decided.get(slot_key, "undecided") for v in honest}
        commits = {o for o in outcomes if o.startswith("commit:")}
        if len(commits) < 2 and not (commits and "skip" in outcomes):
            failures.append("view-split attack produced no honest divergence")
    return failures
