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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .committer import LeaderSlot, Verdict, leaders_of_round
from .dagcore import (
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
    CommitClaim,
    CoreUpdateMsg,
    LBlameMsg,
    NodeId,
    RecoverProposal,
    RecoveryDone,
    RestartDirective,
)
from .replica import Replica

LIVENESS = "liveness"
SAFETY = "safety"


def lblame_tag(guard: int, accused: ValidatorId, round_: int) -> str:
    return f"lblame:{guard}:{accused}:{round_}"


def update_tag(guard: int, claims: tuple[CommitClaim, ...]) -> str:
    body = ";".join(
        f"{c.slot.round}/{c.slot.rank}:{c.verdict.value}:{c.block.digest.hex() if c.block else '-'}"
        for c in claims
    )
    h = hashlib.blake2b(body.encode(), digest_size=8).hexdigest()
    return f"update:{guard}:{h}"


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
        members = ",".join(str(m) for m in sorted(self.members))
        lines = [f"blameset kind={self.kind} members={members}"]
        if self.kind == LIVENESS:
            proof: LivenessProof = self.proof
            lines[0] += f" round={proof.round}"
            for m in sorted(proof.attestations):
                for att in sorted(proof.attestations[m], key=lambda a: a.guard):
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
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        header = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
        kind = header["kind"]
        members = frozenset(int(m) for m in header["members"].split(",") if m != "")
        if kind == LIVENESS:
            atts: dict[ValidatorId, list[LBlameMsg]] = {}
            for ln in lines[1:]:
                kv = dict(p.split("=", 1) for p in ln.split()[1:])
                msg = LBlameMsg(int(kv["guard"]), int(kv["member"]), int(kv["round"]), kv["tag"])
                atts.setdefault(msg.accused, []).append(msg)
            proof = LivenessProof(int(header["round"]), {m: tuple(v) for m, v in atts.items()})
            return BlameSet(LIVENESS, members, proof)
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
        return BlameSet(SAFETY, members, SafetyProof(slot, block_a, block_b, pairs))


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
    kind: str
    t0: int
    skew: int  # extra slack on chain acceptance; delta for safety sessions
    my_proposal: RecoverProposal
    # proposer -> value hash -> (proposal, shortest chain length seen)
    accepted: dict = field(default_factory=dict)
    relayed: set = field(default_factory=set)
    done: bool = False


class Guard(Replica):
    """One guard node: DAG replica, liveness timers, evidence, recovery."""

    D_LEADER_FACTOR = 2
    D_LIVE_FACTOR = 4
    D_GRACE_FACTOR = 2
    is_silent = False

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
        super().__init__(committee, leaders_per_round)
        self.me = me
        self.guard_count = guard_count
        self.t_g = (guard_count - 1) // 2
        self.delta = delta

        self.current_round = 0
        self.now_round = 0  # liveness accounting clock ("now" in round units)
        self.max_round: Optional[int] = None  # harness run cap; not protocol state
        self.entry_vtime: dict[int, int] = {0: 0}
        self.seen: dict[int, set] = {0: set(committee.members)}
        self.responded: set = set()
        self.blames: dict[tuple, dict[int, LBlameMsg]] = {}
        self.lblamed: dict[int, set] = {}
        self.lblamed_at: dict[int, int] = {}
        # evidence: every structurally valid block per (author, round), by digest
        self.evidence: dict[tuple, dict[bytes, Block]] = {}
        self._equivocation_keys: set[tuple] = set()
        self.committed: dict[LeaderSlot, CommitClaim] = {}
        self.remote_claims: dict[LeaderSlot, dict[bytes, CommitClaim]] = {}
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
            and self.dag.author_count(self.current_round) >= self.committee.strong_quorum
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
        for leader in leaders_of_round(r - 1, self.committee, self.leaders_per_round):
            if leader in self.asleep(r - 1):
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
        """Validate, record evidence, update liveness accounting, and echo.

        Equivocating blocks are stored as evidence (and in the DAG replica, so
        the replayed decision rules see what validators see) but never count
        toward liveness and are not echoed.
        """
        try:
            validate_block(block, self.committee)
        except ValidationError as err:
            self.invalid_evidence.append((block, str(err)))
            return []
        key = (block.author, block.round)
        versions = self.evidence.setdefault(key, {})
        first_version = not versions
        versions[block.digest] = block
        if len(versions) > 1:
            self._equivocation_keys.add(key)

        actions = self._admit(block, sender)
        if first_version and self.now_round <= block.round:
            self.seen.setdefault(block.round, set()).add(block.author)
            self.responded.add(key)
            self.lblamed.get(block.round, set()).discard(block.author)
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
        self.committer.extend()
        seq = self.committer.sequence
        if self._claimed >= len(seq):
            return []
        claims = tuple(
            CommitClaim(d.slot, d.verdict, d.block) for d in seq[self._claimed :]
        )
        self._claimed = len(seq)
        for c in claims:
            self.committed[c.slot] = c
        return self.on_core_update(claims, now)

    def on_core_update(self, claims: tuple[CommitClaim, ...], now: int) -> list[Action]:
        """Handle this guard's own commit-sequence extension: check it against
        known remote claims, then attest and gossip it."""
        for claim in claims:
            conflict = self._conflicting_claim(claim)
            if conflict is not None and self.recovery_input is None:
                result = self.check_equivocation([conflict], now)
                if result is not None:
                    bs = BlameSet(SAFETY, frozenset(result[0]), result[1])
                    if is_valid_blameset(bs, self.committee, self.guard_count):
                        return [
                            *self.recover(bs, now),
                            Broadcast(CoreUpdateMsg(self.me, claims, update_tag(self.me, claims))),
                        ]
        return [Broadcast(CoreUpdateMsg(self.me, claims, update_tag(self.me, claims)))]

    def _conflicting_claim(self, mine: CommitClaim) -> Optional[CommitClaim]:
        remotes = self.remote_claims.get(mine.slot)
        if not remotes:
            return None
        for claim in remotes.values():
            if self._claims_conflict(mine, claim):
                return claim
        return None

    @staticmethod
    def _claims_conflict(a: CommitClaim, b: CommitClaim) -> bool:
        if a.slot != b.slot:
            return False
        va, vb = a.verdict, b.verdict
        if va is Verdict.COMMIT and vb is Verdict.COMMIT:
            return a.block.digest != b.block.digest
        return {va, vb} == {Verdict.COMMIT, Verdict.SKIP}

    def on_remote_update(self, msg: CoreUpdateMsg, now: int) -> list[Action]:
        if msg.tag != update_tag(msg.guard, msg.claims):
            return []
        actions: list[Action] = []
        for claim in msg.claims:
            key = claim.block.digest if claim.block else claim.verdict.value.encode()
            self.remote_claims.setdefault(claim.slot, {})[key] = claim
            mine = self.committed.get(claim.slot)
            if mine is not None and self._claims_conflict(mine, claim):
                if self.recovery_input is None:
                    result = self.check_equivocation([claim], now)
                    if result is not None:
                        bs = BlameSet(SAFETY, frozenset(result[0]), result[1])
                        if is_valid_blameset(bs, self.committee, self.guard_count):
                            actions.extend(self.recover(bs, now))
        return actions

    def check_equivocation(
        self, claims: list[CommitClaim], now: int
    ) -> Optional[tuple[set, SafetyProof]]:
        """Resolve a commit conflict into the overlap of double-voting authors.

        For each claim that contradicts the local verdict for the same slot,
        collect validators with two decision-round blocks straddling the
        conflict; quorum intersection guarantees >= f+1 of them whenever both
        sides carried certificates.
        """
        for claim in claims:
            mine = self.committed.get(claim.slot)
            if mine is None or not self._claims_conflict(mine, claim):
                continue
            if mine.verdict is Verdict.COMMIT and claim.verdict is Verdict.COMMIT:
                a = self.dag.get(mine.block)
                b = self.dag.get(claim.block) if claim.block in self.dag else None
                if b is None:
                    continue
                result = self.resolve_equivocation(a, b, claim.slot)
            else:
                committed = mine if mine.verdict is Verdict.COMMIT else claim
                if committed.block not in self.dag:
                    continue
                a = self.dag.get(committed.block)
                result = self.resolve_equivocation(a, None, claim.slot)
            if result is not None:
                return result
        return None

    def resolve_equivocation(
        self, block_a: Block, block_b: Optional[Block], slot: Optional[LeaderSlot]
    ) -> Optional[tuple[set, SafetyProof]]:
        """Authors provably on both sides of the conflict, with their vote pairs."""
        decision_round = block_a.round + 1
        members: set[ValidatorId] = set()
        pairs: dict[ValidatorId, tuple[Block, Block]] = {}
        for author in self.committee.members:
            versions = self.dag.blocks_by(author, decision_round)
            if len(versions) < 2:
                continue
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

    def _detect_safety_fault(self, now: int) -> Optional[BlameSet]:
        """Equivocation-pair scan: any conflicting pair whose decision round
        shows >= f+1 double-voters yields a safety blameset directly."""
        for (author, r) in sorted(self._equivocation_keys):
            versions = self.evidence[(author, r)]
            digests = sorted(versions)
            block_a = versions[digests[0]]
            block_b = versions[digests[1]]
            if block_a.ref() not in self.dag or block_b.ref() not in self.dag:
                continue
            result = self.resolve_equivocation(block_a, block_b, None)
            if result is not None:
                members, proof = result
                bs = BlameSet(SAFETY, frozenset(members), proof)
                if is_valid_blameset(bs, self.committee, self.guard_count):
                    if self.safety_detection_vtime is None:
                        self.safety_detection_vtime = now
                    return bs
        return None

    # -- liveness attestations -------------------------------------------------

    def on_lblame(self, msg: LBlameMsg, now: int) -> list[Action]:
        """Record one guard's attestation; majority promotes the accused."""
        if msg.tag != lblame_tag(msg.guard, msg.accused, msg.round):
            return []
        if not (0 <= msg.guard < self.guard_count):
            return []
        key = (msg.accused, msg.round)
        per_guard = self.blames.setdefault(key, {})
        if msg.guard in per_guard:
            return []
        per_guard[msg.guard] = msg
        majority = self.guard_count // 2 + 1
        if len(per_guard) >= majority and key not in self.responded:
            blamed = self.lblamed.setdefault(msg.round, set())
            if msg.accused not in blamed:
                blamed.add(msg.accused)
                self.lblamed_at[msg.round] = now
        return []

    def _build_liveness_blameset(self, r: int) -> Optional[BlameSet]:
        members = frozenset(self.lblamed.get(r, set()))
        if len(members) < self.committee.f + 1:
            return None
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
        """The conflicting block carrying a strong certificate (unique under
        <= 3f corruption); counted over any stored vote version per author."""
        candidates = [proof.block_a] + ([proof.block_b] if proof.block_b else [])
        for cand in candidates:
            if cand.ref() not in self.dag:
                continue
            if self._strong_vote_count(cand) >= self.committee.strong_quorum:
                return cand.ref()
        return None

    def _strong_vote_count(self, leader: Block) -> int:
        count = 0
        for author in self.committee.members:
            for v in self.dag.blocks_by(author, leader.round + 1):
                if _votes_for(v, leader):
                    count += 1
                    break
        return count

    def recover(self, bs: BlameSet, now: int) -> list[Action]:
        """Start (or join) the agreement session with `bs` as this guard's
        write-once proposal; returns the broadcast of the signed proposal."""
        if self.recovery_input is not None:
            return []
        self.recovery_input = bs
        branch = None
        if bs.kind == SAFETY:
            branch = self._canonical_branch(bs.proof)
        text = bs.to_text()
        proposal = RecoverProposal(self.me, text, branch, recover_tag(self.me, text, branch))
        skew = self.delta if bs.kind == SAFETY else 0
        self.session = RecoverySession(bs.kind, now, skew, proposal)
        actions: list[Action] = [
            ArmTimer("ba-finalize", (self.t_g + 1) * self.delta + skew)
        ]
        relay = AgreementRelay(
            self.me, proposal, (self.me,), (relay_tag(self.me, self.me, proposal),)
        )
        self._accept_relay(relay, now)
        actions.append(Broadcast(relay))
        return actions

    def valid_recovery_proposal(self, proposal: RecoverProposal) -> bool:
        if proposal.tag != recover_tag(proposal.guard, proposal.blameset_text, proposal.branch):
            return False
        try:
            bs = BlameSet.from_text(proposal.blameset_text)
        except Exception:
            return False
        if not is_valid_blameset(bs, self.committee, self.guard_count):
            return False
        if bs.kind == SAFETY:
            if proposal.branch is None:
                return False
            proof: SafetyProof = bs.proof
            refs = {proof.block_a.ref()}
            if proof.block_b is not None:
                refs.add(proof.block_b.ref())
            if proposal.branch not in refs:
                return False
            # the branch must be the strongly certified side in our replica
            branch_block = proof.block_a if proposal.branch == proof.block_a.ref() else proof.block_b
            if branch_block.ref() not in self.dag:
                return False
            if self._strong_vote_count(branch_block) < self.committee.strong_quorum:
                return False
        else:
            if proposal.branch is not None:
                return False
        return True

    def on_recover_msg(self, relay: AgreementRelay, now: int) -> list[Action]:
        """Adopt a first valid proposal if idle, then echo-forward per the
        signature-chain schedule."""
        if not self._verify_chain(relay):
            return []
        actions: list[Action] = []
        if self.recovery_input is None:
            if self.valid_recovery_proposal(relay.proposal):
                bs = BlameSet.from_text(relay.proposal.blameset_text)
                actions.extend(self.recover(bs, now))
            else:
                return []
        session = self.session
        if session is None or session.done:
            return actions
        k = len(relay.chain)
        if now > session.t0 + k * self.delta + session.skew:
            return actions  # too late for this chain length
        actions.extend(self._accept_relay(relay, now))
        return actions

    def _verify_chain(self, relay: AgreementRelay) -> bool:
        chain = relay.chain
        if not chain or chain[0] != relay.proposer:
            return False
        if len(set(chain)) != len(chain):
            return False
        if not all(0 <= g < self.guard_count for g in chain):
            return False
        if relay.proposal.guard != relay.proposer:
            return False
        if len(relay.chain_tags) != len(chain):
            return False
        return all(
            tag == relay_tag(g, relay.proposer, relay.proposal)
            for g, tag in zip(chain, relay.chain_tags)
        )

    def _accept_relay(self, relay: AgreementRelay, now: int) -> list[Action]:
        session = self.session
        key = _proposal_body_hash(relay.proposal.blameset_text, relay.proposal.branch)
        per_proposer = session.accepted.setdefault(relay.proposer, {})
        if key not in per_proposer:
            if len(per_proposer) >= 2:
                return []  # two values already prove proposer equivocation
            per_proposer[key] = relay.proposal
        # echo-forward each (proposer, value) once, appending our endorsement
        if (relay.proposer, key) in session.relayed:
            return []
        session.relayed.add((relay.proposer, key))
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
        agreed: Optional[RecoverProposal] = None
        for proposer in range(self.guard_count):
            values = session.accepted.get(proposer, {})
            if len(values) != 1:
                continue  # no value or provable proposer equivocation
            proposal = next(iter(values.values()))
            if self.valid_recovery_proposal(proposal):
                agreed = proposal
                break
        if agreed is None:
            return []  # cannot happen when some honest guard proposed
        bs = BlameSet.from_text(agreed.blameset_text)
        directive = RestartDirective(
            bs.kind,
            tuple(sorted(bs.members)),
            agreed.branch,
            agreed.blameset_text,
        )
        self.recovery_result = directive
        self.recovery_result_vtime = now
        return [RecoveryDone(directive)]


def apply_reconfiguration(
    bs: BlameSet, committee: Committee, kind: str
) -> tuple[Committee, RestartDirective]:
    """Shrink the committee by the agreed members and derive the new budget.

    Removing k members from n leaves f_new = (n-k-1)//5; the protocol
    restarts over the reduced committee (liveness) or from the canonical
    branch (safety; selection happens during the agreement session).
    """
    remaining = tuple(m for m in committee.members if m not in bs.members)
    new_committee = Committee(
        remaining,
        (len(remaining) - 1) // 5,
        mode=committee.mode,
        epoch=committee.epoch + 1,
    )
    directive = RestartDirective(kind, tuple(sorted(bs.members)), None, bs.to_text())
    return new_committee, directive
