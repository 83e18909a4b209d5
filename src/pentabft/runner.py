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
from typing import Optional

from .committer import CommonCoin, Verdict
from .dagcore import Committee, Mode, ValidatorId
from .faults import (
    BogusProposalGuard,
    CrashValidator,
    EquivocatingValidator,
    FaultPlan,
    SilentGuard,
    SplitViewScript,
    SplitViewSpec,
    SplitViewValidator,
    WithholdVotesValidator,
)
from .guard import Guard, apply_reconfiguration, BlameSet
from .messages import (
    AgreementRelay,
    BlockMsg,
    Broadcast,
    CoreUpdateMsg,
    LBlameMsg,
    NodeId,
    RestartDirective,
    Send,
    SyncRequest,
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


@dataclass(frozen=True)
class Epoched:
    """Envelope tagging every message with its epoch; stale epochs are dropped."""

    epoch: int
    payload: object


class ValidatorAdapter(Node):
    def __init__(self, runner: "Runner", validator: CoreValidator, epoch: int):
        self.runner = runner
        self.validator = validator
        self.epoch = epoch
        self.node_id = validator_node(validator.me)
        self._trigger = -1
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

    def deliver(self, payload, sender, now):
        if not isinstance(payload, Epoched) or payload.epoch != self.epoch:
            return []
        was_down = self._down()
        msg = payload.payload
        v = self.validator
        if isinstance(msg, BlockMsg):
            self._trigger = max(self._trigger, msg.block.round)
            return self._wrap(v.ingest_block(msg.block, sender, now), was_down)
        if isinstance(msg, SyncRequest):
            return self._wrap(v.on_sync_request(msg, sender), was_down)
        if isinstance(msg, SyncResponse):
            acts = []
            for blk in msg.blocks:
                self._trigger = max(self._trigger, blk.round)
                acts.extend(v.ingest_block(blk, sender, now))
            return self._wrap(acts, was_down)
        return []

    def flush(self, now):
        was_down = self._down()
        trigger, self._trigger = self._trigger, -1
        actions = self.validator.flush(now, trigger_round=trigger)
        if not was_down and self.validator.crashed:
            self.runner.sim.inject(self.node_id, "crash activated", now)
        while self._tx_round < self.validator.current_round:
            self._tx_round += 1
            self._refill()
        return self._wrap(actions, was_down)

    def on_timer(self, timer_id, now):
        was_down = self._down()
        return self._wrap(self.validator.on_timer(timer_id, now), was_down)

    def _down(self) -> bool:
        return self.validator.crashed or self.validator.is_silent

    def _wrap(self, actions, was_down: bool):
        # a node crashing during this step still emits what it produced
        # before the crash point; it is silent from the next step on
        if was_down:
            return []
        v = self.validator
        return [self.runner.wrap_action(a, self.epoch, v.me) for a in actions]


class GuardAdapter(Node):
    def __init__(self, runner: "Runner", guard: Guard, epoch: int):
        self.runner = runner
        self.guard = guard
        self.epoch = epoch
        self.node_id = guard_node(guard.me)

    def deliver(self, payload, sender, now):
        if not isinstance(payload, Epoched) or payload.epoch != self.epoch:
            return []
        msg = payload.payload
        g = self.guard
        if isinstance(msg, BlockMsg):
            return self._wrap(g.ingest_block(msg.block, sender, now))
        if isinstance(msg, SyncRequest):
            return self._wrap(g.on_sync_request(msg, sender))
        if isinstance(msg, SyncResponse):
            acts = []
            for blk in msg.blocks:
                acts.extend(g.ingest_block(blk, sender, now))
            return self._wrap(acts)
        if isinstance(msg, LBlameMsg):
            return self._wrap(g.on_lblame(msg, now))
        if isinstance(msg, CoreUpdateMsg):
            return self._wrap(g.on_remote_update(msg, now))
        if isinstance(msg, AgreementRelay):
            return self._wrap(g.on_recover_msg(msg, now))
        return []

    def flush(self, now):
        return self._wrap(self.guard.flush(now))

    def on_timer(self, timer_id, now):
        return self._wrap(self.guard.on_timer(timer_id, now))

    def _wrap(self, actions):
        if self.guard.is_silent:
            return []
        return [self.runner.wrap_action(a, self.epoch, None) for a in actions]


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
    invalid_blocks: int = 0

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
    config_text: str
    epochs: list[EpochRecord] = field(default_factory=list)
    event_lines: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    total_deliveries: int = 0
    end_vtime: int = 0

    def honest_validators(self, epoch: int = 0) -> list[NodeSummary]:
        return [v for v in self.epochs[epoch].validators if not v.faulty]

    def to_text(self) -> str:
        lines = [f"run scenario={self.scenario} seed={self.seed} end={self.end_vtime}"]
        lines.append(f"deliveries={self.total_deliveries}")
        for ep in self.epochs:
            lines.append(
                f"epoch {ep.epoch} members={','.join(str(m) for m in ep.members)} f={ep.f}"
                f" start={ep.start_vtime} end={ep.end_vtime}"
            )
            for v in ep.validators:
                lines.extend(v.to_lines())
            for g in ep.guards:
                lines.extend(g.to_lines())
        for v in self.violations:
            lines.append(f"violation {v}")
        lines.append(f"events {len(self.event_lines)}")
        lines.extend(self.event_lines)
        return "\n".join(lines) + "\n"


@dataclass
class EpochState:
    epoch: int
    committee: Committee
    start_vtime: int
    validators: dict[ValidatorId, CoreValidator]
    guards: dict[int, Guard]
    faulty: set[ValidatorId]
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


def build_fault_plan(config: ScenarioConfig) -> FaultPlan:
    splitview = None
    if config.splitview_round:
        r = config.splitview_round
        corrupt = (r % config.n, (r + 1) % config.n, (r + 2) % config.n)
        honest = tuple(v for v in range(config.n) if v not in corrupt)
        half = (len(honest) + 1) // 2
        g_half = (config.guards + 1) // 2
        splitview = SplitViewSpec(
            attack_round=r,
            corrupt=corrupt,
            camp_a_validators=honest[:half],
            camp_b_validators=honest[half:],
            camp_a_guards=tuple(range(g_half)),
            camp_b_guards=tuple(range(g_half, config.guards)),
        )
    return FaultPlan(
        crash=dict(config.crash),
        equivocate=config.equivocate,
        withhold={v: ts for v, ts in config.withhold},
        splitview=splitview,
        byz_guards=dict(config.byz_guards),
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
        if build_fault_plan(config).faulty_validators():
            # forged-identity containment only matters with an adversary around
            self.sim.outbound_check = self._outbound_check
        self.epochs: list[EpochState] = []
        self.violations: list[str] = []
        self._created: dict[ValidatorId, set[bytes]] = {}
        self._restart_scheduled = False
        self._recovery_directive: Optional[RestartDirective] = None
        self._start_epoch(Committee.of_size(config.n, self._mode(), epoch=0), 0)

    def _mode(self) -> Mode:
        return Mode.ASYNC if self.config.protocol_mode == "async" else Mode.PARTIAL_SYNC

    # -- epoch construction ---------------------------------------------------------

    def _start_epoch(self, committee: Committee, start_vtime: int) -> None:
        config = self.config
        epoch = committee.epoch
        plan = build_fault_plan(config) if epoch == 0 else FaultPlan()
        plan.check_budget(committee, config.beyond_f)
        coin = None
        if committee.mode is Mode.ASYNC:
            key = hashlib.blake2b(
                f"coin/{self.seed}/{epoch}".encode(), digest_size=16
            ).digest()
            coin = CommonCoin(key, committee)

        node_ids = [validator_node(v) for v in committee.members] + [
            guard_node(g) for g in range(config.guards)
        ]
        script = SplitViewScript(plan.splitview) if plan.splitview else None

        validators: dict[ValidatorId, CoreValidator] = {}
        for v in committee.members:
            validators[v] = self._make_validator(v, committee, coin, plan, script, node_ids)
            validators[v].max_round = config.rounds
        guards: dict[int, Guard] = {}
        for g in range(config.guards):
            guards[g] = self._make_guard(g, committee, plan)
            guards[g].max_round = config.rounds

        state = EpochState(
            epoch,
            committee,
            start_vtime,
            validators,
            guards,
            plan.faulty_validators(),
            set(plan.byz_guards),
        )
        self.epochs.append(state)
        self.sim.nodes.clear()
        for v, validator in validators.items():
            self.sim.add_node(ValidatorAdapter(self, validator, epoch))
            self._created.setdefault(v, set())
        for g, guard in guards.items():
            self.sim.add_node(GuardAdapter(self, guard, epoch))
        if start_vtime == 0:
            self.sim.kick()
        else:
            for node_id in sorted(self.sim.nodes):
                node = self.sim.nodes[node_id]
                self.sim.apply_actions(node_id, node.flush(start_vtime), start_vtime)

    def _make_validator(self, v, committee, coin, plan: FaultPlan, script, node_ids):
        kwargs = dict(
            leaders_per_round=self.config.leaders_per_round,
            delta=self.config.delta,
            coin=coin,
        )
        if v in plan.crash:
            self.sim.inject(validator_node(v), f"crash at round {plan.crash[v]}", 0)
            return CrashValidator(v, committee, crash_round=plan.crash[v], **kwargs)
        if v in plan.equivocate:
            others = tuple(n for n in node_ids if n != validator_node(v))
            half = len(others) // 2
            self.sim.inject(validator_node(v), "equivocate split-send", 0)
            return EquivocatingValidator(
                v, committee, camp_a=others[:half], camp_b=others[half:], **kwargs
            )
        if v in plan.withhold:
            self.sim.inject(validator_node(v), f"withhold votes {plan.withhold[v]}", 0)
            return WithholdVotesValidator(v, committee, targets=plan.withhold[v], **kwargs)
        if plan.splitview and v in plan.splitview.corrupt:
            spec = plan.splitview
            camp_a = tuple(
                [validator_node(x) for x in spec.camp_a_validators]
                + [guard_node(g) for g in spec.camp_a_guards]
            )
            camp_b = tuple(
                [validator_node(x) for x in spec.camp_b_validators]
                + [guard_node(g) for g in spec.camp_b_guards]
            )
            corrupt_nodes = tuple(validator_node(x) for x in spec.corrupt)
            self.sim.inject(validator_node(v), f"splitview corrupt r={spec.attack_round}", 0)
            return SplitViewValidator(
                v,
                committee,
                script=script,
                camp_a_nodes=camp_a,
                camp_b_nodes=camp_b,
                corrupt_nodes=corrupt_nodes,
                **kwargs,
            )
        return CoreValidator(v, committee, **kwargs)

    def _make_guard(self, g: int, committee: Committee, plan: FaultPlan) -> Guard:
        kwargs = dict(
            guard_count=self.config.guards,
            delta=self.config.delta,
            leaders_per_round=self.config.leaders_per_round,
        )
        policy = plan.byz_guards.get(g)
        if policy == "silent":
            self.sim.inject(guard_node(g), "silent guard", 0)
            return SilentGuard(g, committee, **kwargs)
        if policy == "bogus-proposal":
            self.sim.inject(guard_node(g), "bogus-proposal guard", 0)
            return BogusProposalGuard(g, committee, **kwargs)
        return Guard(g, committee, **kwargs)

    # -- action plumbing ---------------------------------------------------------------

    def wrap_action(self, action, epoch: int, author: Optional[ValidatorId]):
        if isinstance(action, Broadcast):
            self._register_created(action.payload, author)
            return Broadcast(Epoched(epoch, action.payload))
        if isinstance(action, Send):
            self._register_created(action.payload, author)
            return Send(action.to, Epoched(epoch, action.payload))
        return action

    def _register_created(self, payload, author: Optional[ValidatorId]) -> None:
        if author is not None and isinstance(payload, BlockMsg):
            if payload.block.author == author:
                self._created.setdefault(author, set()).add(payload.block.digest)

    def _outbound_check(self, frm: NodeId, payload) -> None:
        """Byzantine containment: nobody emits a block forged in an honest name."""
        if not isinstance(payload, Epoched):
            return
        msg = payload.payload
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
            if block.digest not in self._created.get(author, ()):
                # relays of honest blocks are fine; fabrications are not
                if not state.validators[author].dag.contains_digest(block.digest):
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
        bs = BlameSet.from_text(directive.blameset_text)
        new_committee, _ = apply_reconfiguration(bs, state.committee, directive.kind)
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
            config_text=self.config.to_text(),
            total_deliveries=self.sim.delivery_count,
            end_vtime=self.sim.now,
            violations=list(self.violations),
        )
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
                    invalid_blocks=len(node.invalid_evidence),
                )
                for d in node.committer.sequence:
                    if d.verdict is Verdict.COMMIT:
                        summary.committed.append(
                            (d.slot.round, d.slot.rank, d.block.digest.hex())
                        )
                for slot, d in sorted(node.committer.decided_slots().items()):
                    val = d.verdict.value
                    if d.verdict is Verdict.COMMIT:
                        val = f"commit:{d.block.digest.hex()}"
                    summary.decided[f"{slot.round}/{slot.rank}"] = val
                summary.delivery_len = len(node.committer.delivery_sequence)
                h = hashlib.blake2b(digest_size=8)
                for ref in node.committer.delivery_sequence:
                    h.update(ref.digest)
                summary.delivery_hash = h.hexdigest()
                if self.config.record_delivery:
                    summary.delivery = [
                        ref.digest.hex() for ref in node.committer.delivery_sequence
                    ]
                summary.commit_events = [
                    (e.slot_round, e.slot_rank, e.verdict, e.rule, e.trigger_round, e.vtime)
                    for e in node.commit_events
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
        record.event_lines = [e.to_line() for e in self.sim.events]
        return record


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
    """Post-hoc scan: every logged delivery respected the network model."""
    failures = []
    network = result.sim.network
    for send_time, frm, to, recv_time in result.sim.delivery_log:
        bound = network.delivery_bound(send_time)
        if recv_time > bound:
            failures.append(f"delivery {frm}->{to} at {recv_time} exceeds bound {bound}")
    return failures


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
            faulty_ids = {v for v, _ in config.crash}
            if config.splitview_round:
                r = config.splitview_round
                faulty_ids |= {r % config.n, (r + 1) % config.n, (r + 2) % config.n}
            if not set(members) <= faulty_ids:
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
