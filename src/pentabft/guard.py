"""Guard layer: monitor the core DAG, detect faults, agree on blamesets.

Guards replay the core decision rules over a read-only DAG replica, track
per-round liveness with three chained timers (leader wait 2D, liveness 4D,
grace 2D more), and accumulate machine-checkable evidence:

* liveness blamesets: >= f+1 validators, each backed by liveness blame
  attestations from a strict majority of guards for one round;
* safety blamesets: >= f+1 validators, each backed by a pair of distinct
  same-round blocks it signed whose votes straddle a conflicting block pair.

Once a guard holds a valid blameset it starts a recovery session: proposals
are broadcast, echo-forwarded with signature chains for t_g+1 phases
(t_g = floor((n_g-1)/2)), and every honest guard deterministically returns
the first proposal, in proposer order, that verifies independently.

Guards assume a synchronous network; the committee must run in
partial-synchrony mode.

A guard's DAG replica is pruned like a validator's, but keeps EVIDENCE_DEPTH
rounds below its current round for conflict evidence, and the rounds its
pending timers read. Its per-round liveness state is dropped below the DAG's
floor, and blocks and blames below the floor are ignored.

A guard checks each thing once. A block it holds stored or parked is passed
over on intake. The safety scan resolves a fork only once its next round has
f+1 forked authors, the fewest a blameset names. A remote update message is
checked once per committee, in `Replica.deliver`. Every remote claim, held
or not, goes through `check_equivocation` once this guard has sequenced its
slot, unless it is the very verdict object this guard sequenced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .committer import PRUNE_DEPTH, LeaderSlot, SlotDecision, Verdict, leaders_of_round
from .dagcore import (
    INSERTED,
    Block,
    BlockRef,
    Committee,
    Mode,
    ValidationError,
    ValidatorId,
    decode_block,
    validate_block,
)
from .messages import (
    Action,
    AgreementRelay,
    ArmTimer,
    Broadcast,
    BlockMsg,
    CoreUpdateMsg,
    LBlameMsg,
    NodeId,
    RecoverProposal,
    RecoveryDone,
    RestartDirective,
    update_tag,
)
from .replica import SYNC_TIMER, Replica

LIVENESS = "liveness"
SAFETY = "safety"

# rounds of conflict evidence a guard keeps below its current round
EVIDENCE_DEPTH = 4 * PRUNE_DEPTH
# a remote claim is held only up to this many rounds above the guard's DAG:
# an honest guard claims a slot once its own DAG decided it, and in every
# catalog run such a claim lay below the receiver's highest round
CLAIM_WINDOW = PRUNE_DEPTH


def lblame_tag(guard: int, accused: ValidatorId, round_: int) -> str:
    return f"lblame:{guard}:{accused}:{round_}"


def _proposal_body_hash(blameset_text: str, branch: Optional[BlockRef]) -> str:
    body = blameset_text + ("|" + branch.digest.hex() if branch else "|-")
    return hashlib.blake2b(body.encode(), digest_size=8).hexdigest()


def recover_tag(guard: int, blameset_text: str, branch: Optional[BlockRef]) -> str:
    return f"recover:{guard}:{_proposal_body_hash(blameset_text, branch)}"


def relay_tag(guard: int, proposer: int, proposal: RecoverProposal) -> str:
    h = _proposal_body_hash(proposal.blameset_text, proposal.branch)
    return f"relay:{guard}:{proposer}:{h}"


# -- blamesets ----------------------------------------------------------------


@dataclass(frozen=True)
class LivenessProof:
    round: int
    # member -> attestations, one per guard
    attestations: dict[ValidatorId, tuple[LBlameMsg, ...]]


@dataclass(frozen=True)
class SafetyProof:
    """Conflicting block pair plus per-member vote-block pairs.

    `block_b` is None for commit-versus-skip conflicts; each member's pair
    (x, y) consists of two distinct blocks it signed for one round, where x
    votes for `block_a` and y votes for `block_b` (or fails to vote for
    `block_a` when there is no second block). Votes are direct parent
    references, which is exactly the vote relation for two-round waves.
    """

    slot: Optional[LeaderSlot]
    block_a: Block
    block_b: Optional[Block]
    pairs: dict[ValidatorId, tuple[Block, Block]]


@dataclass(frozen=True)
class BlameSet:
    kind: str  # LIVENESS or SAFETY
    members: frozenset
    proof: object  # LivenessProof | SafetyProof

    def to_text(self) -> str:
        members = ",".join(map(str, sorted(self.members)))
        lines = [f"blameset kind={self.kind} members={members}"]
        if self.kind == LIVENESS:
            proof: LivenessProof = self.proof
            lines[0] += f" round={proof.round}"
            for m in sorted(proof.attestations):
                for att in sorted(proof.attestations[m], key=attrgetter("guard")):
                    lines.append(
                        f"attest member={m} guard={att.guard} round={att.round} tag={att.tag}"
                    )
        else:
            proof: SafetyProof = self.proof
            slot = f"{proof.slot.round}/{proof.slot.rank}" if proof.slot else "-"
            other = proof.block_b.encode().hex() if proof.block_b else "-"
            lines.append(f"conflict slot={slot} a={proof.block_a.encode().hex()} b={other}")
            for m in sorted(proof.pairs):
                x, y = proof.pairs[m]
                lines.append(
                    f"pair member={m} x={x.encode().hex()} y={y.encode().hex()}"
                )
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "BlameSet":
        """The blameset whose `to_text()` is `text`; ValueError for any other
        text, so what a guard verifies is exactly what the proposer signed."""
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        header = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
        kind = header["kind"]
        if kind not in (LIVENESS, SAFETY):
            raise ValueError(f"unknown blameset kind {kind!r}")
        members = frozenset(int(m) for m in header["members"].split(",") if m != "")
        if kind == LIVENESS:
            atts: dict[ValidatorId, list[LBlameMsg]] = {}
            for ln in lines[1:]:
                kv = dict(p.split("=", 1) for p in ln.split()[1:])
                msg = LBlameMsg(int(kv["guard"]), int(kv["member"]), int(kv["round"]), kv["tag"])
                atts.setdefault(msg.accused, []).append(msg)
            proof = LivenessProof(int(header["round"]), {m: tuple(v) for m, v in atts.items()})
        else:
            slot = None
            block_a = None
            block_b = None
            pairs: dict[ValidatorId, tuple[Block, Block]] = {}
            for ln in lines[1:]:
                parts = ln.split()
                kv = dict(p.split("=", 1) for p in parts[1:])
                if parts[0] == "conflict":
                    if kv["slot"] != "-":
                        r, k = kv["slot"].split("/")
                        slot = LeaderSlot(int(r), int(k))
                    block_a = decode_block(bytes.fromhex(kv["a"]))
                    block_b = decode_block(bytes.fromhex(kv["b"])) if kv["b"] != "-" else None
                else:
                    pairs[int(kv["member"])] = (
                        decode_block(bytes.fromhex(kv["x"])),
                        decode_block(bytes.fromhex(kv["y"])),
                    )
            if block_a is None:
                raise ValueError("a safety blameset needs a conflict line")
            proof = SafetyProof(slot, block_a, block_b, pairs)
        bs = BlameSet(kind, members, proof)
        if bs.to_text() != text:
            raise ValueError("blameset text is not in canonical form")
        return bs


def _votes_for(block: Block, leader: Block) -> bool:
    """Direct-parent vote relation used by safety proofs (two-round waves)."""
    ref = block.parent_by_author.get(leader.author)
    return ref is not None and ref.digest == leader.digest


def is_valid_blameset(bs: BlameSet, committee: Committee, guard_count: int) -> bool:
    """Re-verify a blameset from its own evidence; no trust in the producer."""
    if len(bs.members) < committee.f + 1:
        return False
    if not all(committee.is_member(m) for m in bs.members):
        return False
    if bs.kind == LIVENESS:
        proof = bs.proof
        if not isinstance(proof, LivenessProof):
            return False
        majority = guard_count // 2 + 1
        for m in bs.members:
            atts = proof.attestations.get(m, ())
            guards = set()
            for att in atts:
                if att.accused != m or att.round != proof.round:
                    return False
                if att.tag != lblame_tag(att.guard, att.accused, att.round):
                    return False
                if not (0 <= att.guard < guard_count):
                    return False
                guards.add(att.guard)
            if len(guards) < majority:
                return False
        return True
    if bs.kind == SAFETY:
        proof = bs.proof
        if not isinstance(proof, SafetyProof):
            return False
        a = proof.block_a
        b = proof.block_b
        try:
            validate_block(a, committee)
            if b is not None:
                validate_block(b, committee)
        except ValidationError:
            return False
        if b is not None:
            if (b.author, b.round) != (a.author, a.round) or b.digest == a.digest:
                return False
        if set(proof.pairs) != set(bs.members):
            return False
        for m, (x, y) in proof.pairs.items():
            try:
                validate_block(x, committee)
                validate_block(y, committee)
            except ValidationError:
                return False
            if x.author != m or y.author != m:
                return False
            if x.round != y.round or x.digest == y.digest:
                return False
            if x.round != a.round + 1:
                return False
            if not _votes_for(x, a):
                return False
            if b is not None:
                if not _votes_for(y, b):
                    return False
            elif _votes_for(y, a):
                return False
        return True
    return False


# -- the guard state machine ---------------------------------------------------


@dataclass
class RecoverySession:
    t0: int
    skew: int  # extra slack on chain acceptance; delta for safety sessions
    # proposer -> value hash -> proposal; two values prove the proposer equivocated
    accepted: dict = field(default_factory=dict)
    done: bool = False


class Guard(Replica):
    """One guard node: DAG replica, liveness timers, evidence, recovery."""

    D_LEADER_FACTOR = 2
    D_LIVE_FACTOR = 4
    D_GRACE_FACTOR = 2
    is_silent = False
    handlers = {
        LBlameMsg: "on_lblame",
        CoreUpdateMsg: "on_remote_update",
        AgreementRelay: "on_recover_msg",
    }

    def __init__(
        self,
        me: int,
        committee: Committee,
        guard_count: int,
        delta: int,
        leaders_per_round: int = 2,
    ):
        if committee.mode is not Mode.PARTIAL_SYNC:
            raise ValueError("guards assume synchrony; committee must be partial-sync mode")
        super().__init__(committee, leaders_per_round, delta)
        self.me = me
        self.guard_count = guard_count
        self.t_g = (guard_count - 1) // 2

        self.current_round = 0
        self.now_round = 0  # liveness accounting clock ("now" in round units)
        self.max_round: Optional[int] = None  # harness run cap; not protocol state
        self.entry_vtime: dict[int, int] = {0: 0}
        self.seen: dict[int, set] = {0: set(committee.members)}  # round -> timely authors
        self.blames: dict[tuple, dict[int, LBlameMsg]] = {}
        self.lblamed: dict[int, set] = {}
        self.lblamed_at: dict[int, int] = {}
        self._timed_out = 0  # every timer of the rounds up to this one has fired
        self._forgotten = 0  # per-round state below this round is dropped
        # forked (author, round) -> (stored versions, stored round-r+1 blocks)
        # at its last fruitless safety scan; both only grow, so an equal pair
        # means the scan would find nothing again
        self._scanned_inputs: dict[tuple, tuple[int, int]] = {}
        # remote claims on slots not yet in this guard's own commit sequence
        self.remote_claims: dict[LeaderSlot, dict[bytes, SlotDecision]] = {}
        self._claimed = 0  # committer.sequence prefix already claimed

        self.recovery_input: Optional[BlameSet] = None
        self.session: Optional[RecoverySession] = None
        self.recovery_result: Optional[RestartDirective] = None
        self.recovery_result_vtime: Optional[int] = None
        self.safety_detection_vtime: Optional[int] = None
        self.lblame_sent: list[LBlameMsg] = []

    # -- round tracking ------------------------------------------------------

    def _maybe_enter_rounds(self, now: int) -> list[Action]:
        actions: list[Action] = []
        while (
            self.recovery_input is None
            and (self.max_round is None or self.current_round < self.max_round)
            and self.dag.quorate(self.current_round)
        ):
            self.current_round += 1
            actions.extend(self.on_round(self.current_round, now))
        return actions

    def on_round(self, r: int, now: int) -> list[Action]:
        """Enter round r: reset the accounting clock and arm the three timers."""
        self.now_round = max(self.now_round, r - 1)
        self.entry_vtime[r] = now
        d = self.delta
        return [
            ArmTimer(f"g-leader:{r}", self.D_LEADER_FACTOR * d),
            ArmTimer(f"g-live:{r}", self.D_LIVE_FACTOR * d),
            ArmTimer(f"g-grace:{r}", (self.D_LIVE_FACTOR + self.D_GRACE_FACTOR) * d),
        ]

    def asleep(self, r: int) -> set:
        return set(self.committee.members) - self.seen.get(r, set())

    def on_timer(self, timer_id: str, now: int) -> list[Action]:
        if timer_id.startswith("g-leader:"):
            return self._on_leader_timer(int(timer_id.split(":")[1]), now)
        if timer_id.startswith("g-live:"):
            return self._on_live_timer(int(timer_id.split(":")[1]), now)
        if timer_id.startswith("g-grace:"):
            return self._on_grace_timer(int(timer_id.split(":")[1]), now)
        if timer_id == "ba-finalize":
            return self._finalize_session(now)
        if timer_id == SYNC_TIMER:
            return self._retry_sync(now)
        return []

    def _blame(self, accused: ValidatorId, r: int, now: int) -> list[Action]:
        msg = LBlameMsg(self.me, accused, r, lblame_tag(self.me, accused, r))
        self.lblame_sent.append(msg)
        actions = self.on_lblame(msg, now)  # count own attestation
        actions.append(Broadcast(msg))
        return actions

    def _on_leader_timer(self, r: int, now: int) -> list[Action]:
        if self.recovery_input is not None:
            return []
        self.now_round = max(self.now_round, r)
        actions: list[Action] = []
        asleep = self.asleep(r - 1)
        for leader in leaders_of_round(r - 1, self.committee, self.leaders_per_round):
            if leader in asleep:
                actions.extend(self._blame(leader, r - 1, now))
        return actions

    def _on_live_timer(self, r: int, now: int) -> list[Action]:
        if self.recovery_input is not None:
            return []
        actions: list[Action] = []
        for v in sorted(self.asleep(r)):
            actions.extend(self._blame(v, r, now))
        asleep_prev = self.asleep(r - 1)
        for leader in leaders_of_round(r - 1, self.committee, self.leaders_per_round):
            if leader in asleep_prev:
                continue
            if self.dag.first_block_by(leader, r - 1) is None:
                continue
            for j in self.committee.members:
                vote = self.dag.first_block_by(j, r)
                if vote is None:
                    continue  # already blamed as asleep
                # vote withholding means reaching NO block of a live leader;
                # a vote for either fork of an equivocator is not withheld
                if self.dag.voted_block(vote, leader, r - 1) is None:
                    actions.extend(self._blame(j, r, now))
        return actions

    def _on_grace_timer(self, r: int, now: int) -> list[Action]:
        blamed = self.lblamed.get(r, set())
        if len(blamed) >= self.committee.f + 1:
            bs = self._build_liveness_blameset(r)
            if bs is not None:
                return self.recover(bs, now)
        return []

    # -- block handling ------------------------------------------------------

    def ingest_block(self, block: Block, sender: Optional[NodeId], now: int) -> list[Action]:
        """Validate, admit, update liveness accounting, and echo (see `replica`).

        Only the first timely version of an (author, round) counts toward
        liveness and is echoed, even while it waits in the pending pool;
        later versions enter the DAG replica, whose fork table is the safety
        scan's evidence, so the replayed decision rules see what validators
        see. A held block was handled when first taken in.
        """
        r, digest = block.round, block.digest
        dag, parked = self.dag, self.pending.parked
        if r < dag.floor or dag.by_digest.get(digest) is block or (
            parked and parked.get(digest) is block
        ):
            return []
        valid = self.committee.memo.valid.get(r)
        if valid is None or valid.get(digest) != block.auth_tag:
            try:
                validate_block(block, self.committee)
            except ValidationError:
                self.invalid_blocks += 1
                return []
        outcome = dag.insert(block)
        pooled = outcome is not INSERTED or self.pending.awaited
        actions: list[Action] = self._settle(block, outcome, sender, now) if pooled else []
        # now_round never decreases, so a later version is timely only if the
        # first one was, and that one is in `seen`
        if self.now_round <= r and block.author not in self.seen.get(r, ()):
            self.seen.setdefault(r, set()).add(block.author)
            self.lblamed.get(r, set()).discard(block.author)
            actions.append(Broadcast(BlockMsg(block)))
        return actions

    def flush(self, now: int) -> list[Action]:
        """Enter newly quorate rounds, extend and gossip the commit view, and
        scan for a safety fault."""
        actions = self._maybe_enter_rounds(now)
        actions.extend(self._extend_own_view(now))
        if self.recovery_input is None:
            bs = self._detect_safety_fault(now)
            if bs is not None:
                actions.extend(self.recover(bs, now))
        return actions

    # bound in this class's own namespace: the benchmark tracer
    # (perfbench/tracing.py) wraps entry points per class
    on_sync_request = Replica.on_sync_request

    # -- commit-view gossip and safety detection ------------------------------

    def _extend_own_view(self, now: int) -> list[Action]:
        """Extend this guard's commit sequence, check the remote claims held
        on each newly sequenced slot against it, then attest and gossip the
        extension."""
        self._decide(now, keep=self._keep(now))
        self._forget_below(self.dag.floor)
        seq = self.committer.sequence
        if self._claimed >= len(seq):
            return []
        claims = tuple(seq[self._claimed :])
        self._claimed = len(seq)
        actions: list[Action] = []
        held = self.remote_claims
        for mine in claims:
            for claim in held.pop(mine.slot, {}).values():
                if claim is not mine:
                    bs = self.check_equivocation(claim)
                    if bs is not None:
                        actions.extend(self.recover(bs, now))
        actions.append(Broadcast(CoreUpdateMsg(self.me, claims, update_tag(self.me, claims))))
        return actions

    def _keep(self, now: int) -> int:
        """The highest floor this guard's own reads allow. A round's timers
        fire within (D_LIVE + D_GRACE) delta of entering it and read it and
        the round before, whose blocks must still be admitted with their
        parents; conflict evidence is kept EVIDENCE_DEPTH rounds deep."""
        horizon = now - (self.D_LIVE_FACTOR + self.D_GRACE_FACTOR) * self.delta
        r = self._timed_out
        while r < self.current_round and self.entry_vtime.get(r + 1, horizon) < horizon:
            r += 1
        self._timed_out = r
        return min(r - 1, self.current_round - EVIDENCE_DEPTH)

    def _forget_below(self, floor: int) -> None:
        """Drop the per-round liveness and scan state below the floor."""
        if floor <= self._forgotten:
            return
        for r in range(self._forgotten, floor):
            self.seen.pop(r, None)
        self._forgotten = floor
        if self.blames:
            self.blames = {k: v for k, v in self.blames.items() if k[1] >= floor}
        if self._scanned_inputs:
            self._scanned_inputs = {k: v for k, v in self._scanned_inputs.items() if k[1] >= floor}

    def on_remote_update(self, msg: CoreUpdateMsg, now: int) -> list[Action]:
        """Check a remote guard's claims against this guard's sequence, and
        hold those on slots it has not sequenced yet, up to CLAIM_WINDOW
        rounds above its DAG. A claim that is the very object this guard
        sequenced for its slot agrees with it."""
        actions: list[Action] = []
        horizon = self.dag.max_round + CLAIM_WINDOW
        sequenced = self.committer.sequenced
        for claim in msg.claims:
            mine = sequenced(claim.slot)
            if mine is None:
                if claim.slot.round > horizon:
                    continue
                key = claim.block.digest if claim.block else claim.verdict.value.encode()
                self.remote_claims.setdefault(claim.slot, {})[key] = claim
            elif mine is not claim:
                bs = self.check_equivocation(claim)
                if bs is not None:
                    actions.extend(self.recover(bs, now))
        return actions

    def check_equivocation(self, claim: SlotDecision) -> Optional[BlameSet]:
        """Resolve a claim that contradicts the local verdict for its slot
        into a safety blameset over the double-voting authors.

        Both verdicts are COMMIT or SKIP: a sequenced verdict is decided,
        and a remote claim passed the shape check. Quorum intersection
        guarantees >= f+1 double-voters whenever both sides carried
        certificates; None without a conflict or with a committed side
        missing from the replica.
        """
        mine = self.committer.sequenced(claim.slot)
        if mine is None:
            return None
        if mine.verdict is Verdict.COMMIT and claim.verdict is Verdict.COMMIT:
            a, b = mine.block, claim.block
            if a.digest == b.digest:
                return None
        elif mine.verdict is claim.verdict:
            return None  # both skip
        else:
            a, b = (mine if mine.verdict is Verdict.COMMIT else claim).block, None
        if a not in self.dag or (b is not None and b not in self.dag):
            return None
        block_b = self.dag.get(b) if b is not None else None
        return self._safety_blameset(self.dag.get(a), block_b, claim.slot)

    def resolve_equivocation(
        self, block_a: Block, block_b: Optional[Block], slot: Optional[LeaderSlot]
    ) -> Optional[tuple[set, SafetyProof]]:
        """Authors provably on both sides of the conflict, with their vote pairs."""
        decision_round = block_a.round + 1
        members: set[ValidatorId] = set()
        pairs: dict[ValidatorId, tuple[Block, Block]] = {}
        forked = self.dag.equivocators(decision_round)
        for author in self.committee.members:
            if author not in forked:
                continue
            versions = self.dag.blocks_by(author, decision_round)
            x = next((v for v in versions if _votes_for(v, block_a)), None)
            if x is None:
                continue
            if block_b is not None:
                y = next((v for v in versions if _votes_for(v, block_b)), None)
            else:
                y = next((v for v in versions if not _votes_for(v, block_a)), None)
            if y is None or y.digest == x.digest:
                continue
            members.add(author)
            pairs[author] = (x, y)
        if len(members) < self.committee.f + 1:
            return None
        return members, SafetyProof(slot, block_a, block_b, pairs)

    def _safety_blameset(
        self, block_a: Block, block_b: Optional[Block], slot: Optional[LeaderSlot]
    ) -> Optional[BlameSet]:
        """The one path to a safety blameset: resolve the conflict, then
        re-verify the result from its own evidence."""
        result = self.resolve_equivocation(block_a, block_b, slot)
        if result is None:
            return None
        bs = BlameSet(SAFETY, frozenset(result[0]), result[1])
        return bs if is_valid_blameset(bs, self.committee, self.guard_count) else None

    def _detect_safety_fault(self, now: int) -> Optional[BlameSet]:
        """Equivocation-pair scan over the replica's forks, ascending by
        (author, round): a fork's two lowest-digest versions whose decision
        round shows >= f+1 double-voters yield a safety blameset directly.
        A double-voter forked at the decision round, so only the forks whose
        next round has at least f+1 forked authors are visited."""
        dag = self.dag
        scanned = self._scanned_inputs
        for key in dag.blamable_fork_keys():
            author, r = key
            versions = dag.blocks_by(author, r)
            inputs = (len(versions), dag.block_count(r + 1))
            if scanned.get(key) == inputs:
                continue
            bs = self._safety_blameset(versions[0], versions[1], None)
            if bs is not None:
                if self.safety_detection_vtime is None:
                    self.safety_detection_vtime = now
                return bs
            scanned[key] = inputs
        return None

    # -- liveness attestations -------------------------------------------------

    def on_lblame(self, msg: LBlameMsg, now: int) -> list[Action]:
        """Record one guard's attestation; majority promotes the accused
        unless this guard saw its timely block. Attestations below the floor
        are ignored."""
        if msg.round < self.dag.floor or not 0 <= msg.guard < self.guard_count:
            return []
        if msg.tag != lblame_tag(msg.guard, msg.accused, msg.round):
            return []
        key = (msg.accused, msg.round)
        per_guard = self.blames.setdefault(key, {})
        if msg.guard in per_guard:
            return []
        per_guard[msg.guard] = msg
        majority = self.guard_count // 2 + 1
        if len(per_guard) >= majority and msg.accused not in self.seen.get(msg.round, ()):
            blamed = self.lblamed.setdefault(msg.round, set())
            if msg.accused not in blamed:
                blamed.add(msg.accused)
                self.lblamed_at[msg.round] = now
        return []

    def _build_liveness_blameset(self, r: int) -> Optional[BlameSet]:
        members = frozenset(self.lblamed.get(r, set()))
        attestations = {}
        for m in members:
            atts = tuple(
                sorted(self.blames.get((m, r), {}).values(), key=lambda a: a.guard)
            )
            attestations[m] = atts
        bs = BlameSet(LIVENESS, members, LivenessProof(r, attestations))
        if not is_valid_blameset(bs, self.committee, self.guard_count):
            return None
        return bs

    # -- recovery ---------------------------------------------------------------

    def _canonical_branch(self, proof: SafetyProof) -> Optional[BlockRef]:
        """The conflicting block carrying a strong certificate, unique under
        <= 3f corruption."""
        for side in (proof.block_a, proof.block_b):
            if side is not None and self._certified(side):
                return side.ref
        return None

    def _certified(self, block: Block) -> bool:
        """Whether `block` is stored with a strong certificate in this
        replica: 4f+1 authors each with some stored version voting for it.
        Unlike the direct rule's tally, a forked author counts."""
        if block.ref not in self.dag:
            return False
        count = 0
        for author in self.committee.members:
            for v in self.dag.blocks_by(author, block.round + 1):
                if _votes_for(v, block):
                    count += 1
                    break
        return count >= self.committee.strong_quorum

    def _signed_relay(self, text: str, branch: Optional[BlockRef]) -> AgreementRelay:
        """This guard's signed proposal of `text` and `branch`, as the first
        relay of its signature chain."""
        proposal = RecoverProposal(self.me, text, branch, recover_tag(self.me, text, branch))
        return AgreementRelay(
            self.me, proposal, (self.me,), (relay_tag(self.me, self.me, proposal),)
        )

    def recover(self, bs: BlameSet, now: int) -> list[Action]:
        """Start (or join) the agreement session with `bs` as this guard's
        write-once proposal; returns the broadcast of the signed proposal."""
        if self.recovery_input is not None:
            return []
        self.recovery_input = bs
        branch = None
        if bs.kind == SAFETY:
            branch = self._canonical_branch(bs.proof)
        skew = self.delta if bs.kind == SAFETY else 0
        self.session = RecoverySession(now, skew)
        actions: list[Action] = [
            ArmTimer("ba-finalize", (self.t_g + 1) * self.delta + skew)
        ]
        relay = self._signed_relay(bs.to_text(), branch)
        self._accept_relay(relay, now)
        actions.append(Broadcast(relay))
        return actions

    def valid_recovery_proposal(self, proposal: RecoverProposal) -> Optional[BlameSet]:
        """The proposal's blameset, parsed once, if the proposal verifies
        independently; None otherwise."""
        if proposal.tag != recover_tag(proposal.guard, proposal.blameset_text, proposal.branch):
            return None
        try:
            bs = BlameSet.from_text(proposal.blameset_text)
        except Exception:
            return None
        if not is_valid_blameset(bs, self.committee, self.guard_count):
            return None
        if bs.kind == SAFETY:
            proof: SafetyProof = bs.proof
            side = proof.block_a if proposal.branch == proof.block_a.ref else proof.block_b
            # the branch must name the strongly certified side in our replica
            if side is None or side.ref != proposal.branch or not self._certified(side):
                return None
        elif proposal.branch is not None:
            return None
        return bs

    def on_recover_msg(self, relay: AgreementRelay, now: int) -> list[Action]:
        """Adopt a first valid proposal if idle, then echo-forward per the
        signature-chain schedule."""
        if not all(  # each signer is a guard and signed the proposal
            0 <= g < self.guard_count and tag == relay_tag(g, relay.proposer, relay.proposal)
            for g, tag in zip(relay.chain, relay.chain_tags)
        ):
            return []
        actions: list[Action] = []
        if self.recovery_input is None:
            bs = self.valid_recovery_proposal(relay.proposal)
            if bs is None:
                return []
            actions.extend(self.recover(bs, now))
        session = self.session
        if session is None or session.done:
            return actions
        k = len(relay.chain)
        if now > session.t0 + k * self.delta + session.skew:
            return actions  # too late for this chain length
        actions.extend(self._accept_relay(relay, now))
        return actions

    def _accept_relay(self, relay: AgreementRelay, now: int) -> list[Action]:
        session = self.session
        key = _proposal_body_hash(relay.proposal.blameset_text, relay.proposal.branch)
        per_proposer = session.accepted.setdefault(relay.proposer, {})
        # echo-forward each (proposer, value) once, appending our
        # endorsement; two values already prove proposer equivocation
        if key in per_proposer or len(per_proposer) >= 2:
            return []
        per_proposer[key] = relay.proposal
        if self.me in relay.chain:
            return []  # our own proposal was already broadcast by recover()
        if len(relay.chain) >= self.t_g + 1:
            return []  # longer chains can convince nobody new
        forward = AgreementRelay(
            relay.proposer,
            relay.proposal,
            relay.chain + (self.me,),
            relay.chain_tags + (relay_tag(self.me, relay.proposer, relay.proposal),),
        )
        return [Broadcast(forward)]

    def _finalize_session(self, now: int) -> list[Action]:
        session = self.session
        if session is None or session.done:
            return []
        session.done = True
        for proposer in range(self.guard_count):
            values = session.accepted.get(proposer, {})
            if len(values) != 1:
                continue  # no value or provable proposer equivocation
            agreed = next(iter(values.values()))
            bs = self.valid_recovery_proposal(agreed)
            if bs is not None:
                break
        else:
            return []  # cannot happen when some honest guard proposed
        directive = RestartDirective(
            bs.kind,
            tuple(sorted(bs.members)),
            agreed.branch,
            agreed.blameset_text,
        )
        self.recovery_result = directive
        self.recovery_result_vtime = now
        return [RecoveryDone(directive)]


def apply_reconfiguration(excluded: tuple[ValidatorId, ...], committee: Committee) -> Committee:
    """Shrink the committee by the agreed members and derive the new budget.

    Removing k members from n leaves f_new = (n-k-1)//5; the protocol
    restarts over the reduced committee (liveness) or from the canonical
    branch (safety; selection happens during the agreement session).
    """
    remaining = tuple(m for m in committee.members if m not in excluded)
    return Committee(
        remaining,
        (len(remaining) - 1) // 5,
        mode=committee.mode,
        epoch=committee.epoch + 1,
    )
