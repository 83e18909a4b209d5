"""Block DAG primitives: blocks, committees, validity checks, local storage.

Every validator and guard keeps one `Dag` instance as its local view. Blocks
reference each other by content digest; a block is stored only once its
causal history down to the DAG's floor is present, so reachability queries
above the floor never hit dangling edges. The floor rises as the owner's
committed prefix advances (`Dag.prune`), which keeps a long run's state
bounded. Answers that are pure functions of blocks live in the committee's
`CommitteeMemo`, shared by every node of the epoch and trimmed below the
lowest floor among them.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, KeysView, Optional

# A validator is identified by its stable index for the epoch.
ValidatorId = int

DIGEST_SIZE = 16
_DIGEST = attrgetter("digest")


class Mode(enum.Enum):
    """Network mode the committee operates in (fixes the wave length)."""

    PARTIAL_SYNC = "partial-sync"
    ASYNC = "async"


class ValidationError(Exception):
    """A block violated one of the structural validity rules."""


class BadSignature(ValidationError):
    pass


class WrongParentRound(ValidationError):
    pass


class InsufficientParents(ValidationError):
    pass


class DuplicateParentAuthor(ValidationError):
    pass


class MissingCoinShare(ValidationError):
    pass


class UnknownBlockError(KeyError):
    """A queried block reference is not present in the DAG."""


def auth_tag_for(author: ValidatorId) -> str:
    """Authentication label for `author`.

    The simulator enforces the capability boundary structurally: no node ever
    emits a block whose tag names somebody else. Real signatures can be
    dropped in behind this function without touching callers.
    """
    return f"sig:{author}"


@dataclass(frozen=True)
class CoinShare:
    """Per-(author, round) token contributed toward the shared coin."""

    author: ValidatorId
    round: int


@dataclass(frozen=True, order=True, slots=True)
class BlockRef:
    """Compact reference to a block: (author, round, content digest).

    `piece` is the ref's part of a block body that names it as a parent:
    its author and round packed, then its digest. The first body encoding
    that reads it fills it in, so a malformed ref still constructs and
    fails only when encoded. Equality, hashing and ordering leave it out.
    """

    author: ValidatorId
    round: int
    digest: bytes
    piece: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def short(self) -> str:
        return f"{self.author}/{self.round}/{self.digest.hex()[:8]}"


class CommitteeMemo:
    """Memos of pure functions of content-addressed blocks, one per committee.

    A block's digest covers its parents' digests, and every holder of a block
    stores its history down to its floor, so a block's validity, its vote for
    an (author, round), and the batch a leader delivers after a given
    committed-leader prefix are the same at every node that can ask. Each
    is computed once per committee, i.e. once per epoch, not once per
    validator and guard. Slot verdicts are held once per committee too: a
    decision rule that reaches a verdict reads it here first, so only the
    committee's first node to reach it builds the object, and every node's
    committer keeps that one object. So are the slots the committers evaluate
    and the genesis blocks every DAG of the committee starts from. A guard's
    commit-view update is checked once per committee too: `updates` keeps,
    per sender node id, the last message object that passed the shape and tag
    check; unlike a message's guard field, a sender id is hashable unchecked
    and names a real node.

    No node reads below its DAG's floor, so the validity, vote, verdict and
    slot tables map a round to that round's entries, and the rounds below the
    lowest floor among the DAGs built for the committee are dropped.
    """

    __slots__ = (
        "valid", "votes", "verdicts", "slots", "updates", "delivery", "genesis", "floor",
        "_floors",
    )

    def __init__(self):
        # block round -> digest -> auth tag of a block found valid; the digest
        # leaves out the tag, so a verdict holds only for the tag it was
        # reached with
        self.valid: dict[int, dict[bytes, str]] = {}
        # voted round -> (support digest, author) -> digest
        self.votes: dict[int, dict[tuple, Optional[bytes]]] = {}
        # slot round -> (rank, committed digest or None for a skip) -> the
        # committee's one SlotDecision object for that verdict
        self.verdicts: dict[int, dict[tuple, object]] = {}
        # slot round -> rank -> the committee's one LeaderSlot object for it
        self.slots: dict[int, dict[int, object]] = {}
        # sender node id -> the last update message object that passed its check
        self.updates: dict[str, object] = {}
        self.delivery = None  # root of the committer's delivery log, built by the first committer
        self.genesis: Optional[tuple] = None  # the committee's genesis blocks, built by the first DAG
        self.floor = 0  # the lowest floor among the committee's DAGs
        self._floors: dict[int, int] = {}  # floor -> DAGs of the committee at it

    def floor_moved(self, before: Optional[int], after: int) -> None:
        """A DAG of the committee moved its floor from `before` (None for a
        new DAG) to `after`; drop every round below the new lowest floor, if
        it rose."""
        floors = self._floors
        if before is not None:
            floors[before] -= 1
            if not floors[before]:
                del floors[before]
        floors[after] = floors.get(after, 0) + 1
        lowest, floor = self.floor, min(floors)
        self.floor = floor
        if floor > lowest:
            for table in (self.valid, self.votes, self.verdicts, self.slots):
                for r in [r for r in table if r < floor]:
                    del table[r]


@dataclass(frozen=True)
class Committee:
    """Ordered validator set with fault budget f; size must be >= 5f+1.

    Quorums are always derived from f, never stored: a strong quorum is
    4f+1 distinct authors, a weak quorum 2f+1.
    """

    members: tuple[ValidatorId, ...]
    f: int
    mode: Mode = Mode.PARTIAL_SYNC
    epoch: int = 0

    def __post_init__(self):
        if self.f < 0:
            raise ValueError("fault budget must be non-negative")
        if len(self.members) < 5 * self.f + 1:
            raise ValueError(
                f"committee of {len(self.members)} cannot tolerate f={self.f}"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate committee members")
        object.__setattr__(self, "member_set", frozenset(self.members))
        object.__setattr__(self, "memo", CommitteeMemo())

    @classmethod
    def of_size(cls, n: int, mode: Mode = Mode.PARTIAL_SYNC, epoch: int = 0) -> "Committee":
        """Committee 0..n-1 with the largest tolerable f, i.e. f = (n-1)//5."""
        return cls(tuple(range(n)), (n - 1) // 5, mode=mode, epoch=epoch)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def strong_quorum(self) -> int:
        return 4 * self.f + 1

    @property
    def weak_quorum(self) -> int:
        return 2 * self.f + 1

    def is_member(self, v: ValidatorId) -> bool:
        return v in self.member_set


# the body's fixed-width fields, big-endian: author, round and parent count;
# a parent's author and round, before its digest; a count or a length; and
# a present coin share's flag, author and round
_HEAD = struct.Struct(">IQI")
_PARENT = struct.Struct(">IQ")
_LENGTH = struct.Struct(">I")
_SHARE = struct.Struct(">BIQ")
_PIECE = attrgetter("piece")


def _fill_piece(ref: BlockRef) -> bytes:
    piece = ref.piece
    if piece is None:
        # a digest of another length is kept as it stands: a `16s` field
        # would pad or cut it
        piece = _PARENT.pack(ref.author, ref.round) + ref.digest
        object.__setattr__(ref, "piece", piece)
    return piece


def encode_block_body(
    author: ValidatorId,
    round_: int,
    parents: tuple[BlockRef, ...],
    transactions: tuple[bytes, ...],
    coin_share: Optional[CoinShare],
) -> bytes:
    """Canonical byte encoding of the digest-covered fields, in field order."""
    out = bytearray(_HEAD.pack(author, round_, len(parents)))
    try:
        out += b"".join(map(_PIECE, parents))
    except TypeError:  # a parent not named by any body before
        out += b"".join(map(_fill_piece, parents))
    length = _LENGTH.pack
    out += length(len(transactions))
    for tx in transactions:
        out += length(len(tx))
        out += tx
    if coin_share is None:
        out += b"\x00"
    else:
        out += _SHARE.pack(1, coin_share.author, coin_share.round)
    return bytes(out)


def compute_digest(
    author: ValidatorId,
    round_: int,
    parents: tuple[BlockRef, ...],
    transactions: tuple[bytes, ...],
    coin_share: Optional[CoinShare],
) -> bytes:
    body = encode_block_body(author, round_, parents, transactions, coin_share)
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


@dataclass(frozen=True, eq=False)
class Block:
    """A DAG vertex. Immutable; digest, ref, parent-author index,
    distinct-parent count and parent digests computed at creation.

    `parent_lookup`, None for a block without parents, fetches every parent
    digest from a mapping in one C-level call and raises KeyError if any is
    absent; it is how a DAG tests that a block's parents are stored. Like
    the other derived fields it is built once and shared by every node that
    holds the block.
    """

    author: ValidatorId
    round: int
    parents: tuple[BlockRef, ...]
    transactions: tuple[bytes, ...] = ()
    coin_share: Optional[CoinShare] = None
    auth_tag: str = ""
    digest: bytes = field(init=False)

    def __post_init__(self):
        digest = compute_digest(
            self.author, self.round, self.parents, self.transactions, self.coin_share
        )
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "ref", BlockRef(self.author, self.round, digest))
        parents = self.parents
        # author -> parent ref; valid blocks carry distinct parent authors, so
        # this is exactly the first-match order a depth-one DFS would see
        by_author = {p.author: p for p in parents}
        object.__setattr__(self, "parent_by_author", by_author)
        # the parent count, or 0 if two parents share an author: the one
        # figure the DAG's structural check reads
        distinct = len(parents) if len(by_author) == len(parents) else 0
        object.__setattr__(self, "distinct_parents", distinct)
        digests = tuple(map(_DIGEST, parents))
        object.__setattr__(self, "parent_digests", digests)
        object.__setattr__(self, "parent_lookup", itemgetter(*digests) if digests else None)

    def __eq__(self, other):
        return isinstance(other, Block) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def encode(self) -> bytes:
        """Full canonical wire encoding (body followed by the auth tag)."""
        tag = self.auth_tag.encode()
        body = encode_block_body(
            self.author, self.round, self.parents, self.transactions, self.coin_share
        )
        return body + _LENGTH.pack(len(tag)) + tag


def decode_block(data: bytes) -> Block:
    """Inverse of `Block.encode`, through the same field layouts; a
    truncated encoding raises ValueError."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        chunk = data[pos : pos + n]
        if len(chunk) != n:
            raise ValueError("truncated block encoding")
        pos += n
        return chunk

    def read(layout: struct.Struct) -> tuple:
        return layout.unpack(take(layout.size))

    author, round_, n_parents = read(_HEAD)
    parents = []
    for _ in range(n_parents):
        pa, pr = read(_PARENT)
        pd = take(DIGEST_SIZE)
        parents.append(BlockRef(pa, pr, pd))
    (n_tx,) = read(_LENGTH)
    txs = []
    for _ in range(n_tx):
        (ln,) = read(_LENGTH)
        txs.append(take(ln))
    share = None
    if data[pos : pos + 1] == b"\x01":
        _, sa, sr = read(_SHARE)
        share = CoinShare(sa, sr)
    else:
        take(1)  # the absent share's flag
    (tag_len,) = read(_LENGTH)
    tag = take(tag_len).decode()
    return Block(author, round_, tuple(parents), tuple(txs), share, tag)


def make_block(
    author: ValidatorId,
    round_: int,
    parents: Iterable[BlockRef],
    transactions: Iterable[bytes] = (),
    coin_share: Optional[CoinShare] = None,
) -> Block:
    """Build a block carrying the author's own authentication tag."""
    return Block(
        author,
        round_,
        tuple(parents),
        tuple(transactions),
        coin_share,
        auth_tag_for(author),
    )


def genesis_blocks(committee: Committee) -> tuple[Block, ...]:
    """One parent-less round-0 block per member, known to every node.

    The payload pins the epoch so block digests never collide across
    restarts of the protocol with a reduced committee. The blocks are built
    once per committee, and every DAG of the committee stores those objects.
    """
    memo = committee.memo
    if memo.genesis is None:
        memo.genesis = tuple(
            make_block(m, 0, (), (f"genesis/{committee.epoch}/{m}".encode(),),
                       CoinShare(m, 0) if committee.mode is Mode.ASYNC else None)
            for m in committee.members
        )
    return memo.genesis


def validate_block(block: Block, committee: Committee) -> None:
    """Raise a ValidationError subclass if `block` is structurally invalid.

    Checks, in order: authentication, parent rounds, parent-author
    distinctness, parent count (>= 4f+1 for rounds >= 1), and coin share
    presence in async mode. Genesis blocks (round 0) carry no parents.
    """
    # a forged copy seen first must not condemn the original
    cache = committee.memo.valid.get(block.round)
    if cache is not None and cache.get(block.digest) == block.auth_tag:
        return
    _validate_uncached(block, committee)
    if cache is None:
        cache = committee.memo.valid[block.round] = {}
    cache[block.digest] = block.auth_tag


def _validate_uncached(block: Block, committee: Committee) -> None:
    if not committee.is_member(block.author):
        raise BadSignature(f"author {block.author} is not a committee member")
    if block.auth_tag != auth_tag_for(block.author):
        raise BadSignature(f"tag {block.auth_tag!r} does not verify for author {block.author}")
    if block.round == 0:
        if block.parents:
            raise WrongParentRound("genesis blocks carry no parents")
    else:
        for p in block.parents:
            if p.round != block.round - 1:
                raise WrongParentRound(
                    f"parent {p.short()} is not from round {block.round - 1}"
                )
        authors = [p.author for p in block.parents]
        if len(set(authors)) != len(authors):
            raise DuplicateParentAuthor("two parents share an author")
        if len(authors) < committee.strong_quorum:
            raise InsufficientParents(
                f"{len(authors)} parents, need at least {committee.strong_quorum}"
            )
    if committee.mode is Mode.ASYNC:
        share = block.coin_share
        if share is None or share.author != block.author or share.round != block.round:
            raise MissingCoinShare(
                "async blocks must carry a coin share bound to (author, round)"
            )


class InsertStatus(enum.Enum):
    INSERTED = "inserted"
    DUPLICATE = "duplicate"
    MISSING_ANCESTORS = "missing-ancestors"
    BELOW_FLOOR = "below-floor"


@dataclass(frozen=True)
class InsertOutcome:
    status: InsertStatus
    missing: tuple[BlockRef, ...] = ()


# the one outcome of every insert that stores a block, which intake tests for
INSERTED = InsertOutcome(InsertStatus.INSERTED)
_DUPLICATE = InsertOutcome(InsertStatus.DUPLICATE)
_BELOW_FLOOR = InsertOutcome(InsertStatus.BELOW_FLOOR)
_EMPTY: dict = {}


class Dag:
    """Local block store indexed by digest, round, and (author, round).

    Each (round, author) maps to one block, the lowest-digest version; an
    author that forked at a round also gets an entry in a side table that
    holds all its versions there, sorted by digest. Honest authors never
    fork, so the side table stays as small as the equivocations seen.

    Inserts are idempotent; a block is admitted only when all its parents are
    already present, which keeps the causal-completeness invariant by
    induction. The presence test is one call of the block's `parent_lookup`
    on the digest index; only a block that fails it pays for the list of
    missing refs. A block whose parent digests equal those of the last block
    that passed skips the call: nothing but `prune` removes a stored block,
    and `prune` forgets that tuple. On the synchronous fast path every block
    of a round cites the same parents, so a replica tests each round's
    parent set once. Blocks are assumed validated by the caller.

    The floor is the lowest round held: `prune` drops every round below it.
    A block below the floor is refused, and a block at the floor is stored
    without its parents, which lie below it (Narwhal's garbage collection,
    arXiv 2105.11827), so the invariant holds down to the floor and no
    block waits on a parent that can no longer be admitted.
    """

    def __init__(self, committee: Committee):
        self.committee = committee
        self._strong_quorum = committee.strong_quorum
        self._by_digest: dict[bytes, Block] = {}
        self.by_digest = MappingProxyType(self._by_digest)  # read-only, for intake
        # round -> author -> the author's lowest-digest block, first-insert order
        self._by_round: dict[int, dict[ValidatorId, Block]] = {}
        # round -> author -> all versions sorted by digest, for forked authors only
        self._forks: dict[int, dict[ValidatorId, list[Block]]] = {}
        # blocks ever stored; unlike len(self) it never falls, so it stamps
        self.stored = 0
        # round -> `stored` right after the round's latest insert, for the
        # rounds holding a strong quorum of authors; `quorum_stamp` is the
        # latest of them, so it moves exactly when a quorate round grows
        self.quorum_stamps: dict[int, int] = {}
        self.quorum_stamp = 0
        self.max_round: int = 0
        self.floor = 0
        # author -> highest round of a block stored by it, pruned or not
        self.highest: dict[ValidatorId, int] = {}
        # parent digests of the last block whose parent lookup passed; they
        # stay stored until the next prune, which resets this
        self._present_parents: tuple[bytes, ...] = ()
        self._memo = committee.memo
        self._memo.floor_moved(None, 0)
        for g in genesis_blocks(committee):
            self._store(g)

    def __contains__(self, ref: BlockRef) -> bool:
        return ref.digest in self._by_digest

    def __len__(self) -> int:
        return len(self._by_digest)

    def get(self, ref: BlockRef) -> Block:
        try:
            return self._by_digest[ref.digest]
        except KeyError:
            raise UnknownBlockError(ref.short()) from None

    def get_by_digest(self, digest: bytes) -> Block:
        try:
            return self._by_digest[digest]
        except KeyError:
            raise UnknownBlockError(digest.hex()) from None

    def contains_digest(self, digest: bytes) -> bool:
        return digest in self._by_digest

    def insert(self, block: Block) -> InsertOutcome:
        """Store `block` if its parents are present or lie below the floor;
        report missing refs otherwise, in parent order."""
        by_digest = self._by_digest
        if block.digest in by_digest:
            return _DUPLICATE
        if block.round < self.floor:
            return _BELOW_FLOOR
        if block.round >= 1:
            # structural floor re-checked on every insert: a strong quorum of
            # pairwise-distinct parent authors
            assert block.distinct_parents >= self._strong_quorum, (
                "block below the parent-quorum floor"
            )
        if block.round > self.floor and block.parent_digests != self._present_parents:
            try:
                block.parent_lookup(by_digest)
            except KeyError:
                # a list comprehension is cheaper than a generator here, which
                # keeps this path as fast as before the one-call test
                missing = tuple([p for p in block.parents if p.digest not in by_digest])
                return InsertOutcome(InsertStatus.MISSING_ANCESTORS, missing)
            self._present_parents = block.parent_digests
        self._store(block)
        return INSERTED

    def _store(self, block: Block) -> None:
        self._by_digest[block.digest] = block
        self.stored += 1
        r, author = block.round, block.author
        if r > self.highest.get(author, -1):
            self.highest[author] = r
        per_round = self._by_round.get(r)
        if per_round is None:
            per_round = self._by_round[r] = {}
        first = per_round.setdefault(author, block)
        if first is not block:
            versions = self._forks.setdefault(r, {}).setdefault(author, [first])
            versions.append(block)
            versions.sort(key=lambda b: b.digest)
            per_round[author] = versions[0]
        if len(per_round) >= self._strong_quorum:
            self.quorum_stamps[r] = self.quorum_stamp = self.stored
        if r > self.max_round:
            self.max_round = r

    def prune(self, below: int) -> None:
        """Raise the floor to `below`, dropping every round under it."""
        before = self.floor
        if below <= before:
            return
        by_digest = self._by_digest
        for r in range(before, below):
            for block in self._by_round.pop(r, _EMPTY).values():
                del by_digest[block.digest]
            for versions in self._forks.pop(r, _EMPTY).values():
                for block in versions:
                    by_digest.pop(block.digest, None)
            self.quorum_stamps.pop(r, None)
        self._present_parents = ()
        self.floor = below
        self._memo.floor_moved(before, below)

    # -- queries -----------------------------------------------------------

    def authors_at_round(self, r: int) -> KeysView[ValidatorId]:
        """Authors with a stored round-r block, in first-insert order."""
        return self._by_round.get(r, {}).keys()

    def quorate(self, r: int) -> bool:
        """Whether round r holds blocks by a strong quorum of authors."""
        return r in self.quorum_stamps

    def block_count(self, r: int) -> int:
        extra = sum(len(v) - 1 for v in self._forks.get(r, {}).values())
        return len(self._by_round.get(r, ())) + extra

    def equivocators(self, r: int) -> KeysView[ValidatorId]:
        """Authors with two or more stored round-r blocks."""
        return self._forks.get(r, {}).keys()

    def blamable_fork_keys(self) -> list[tuple[ValidatorId, int]]:
        """(author, round) of every stored fork whose next round has at least
        f+1 forked authors, ascending: only such a round can show f+1
        double-voters. The rounds are picked before the sort."""
        forks = self._forks
        needed = self.committee.f + 1
        return sorted(
            (a, r)
            for r, authors in forks.items()
            if len(forks.get(r + 1, _EMPTY)) >= needed
            for a in authors
        )

    def blocks_by(self, author: ValidatorId, r: int) -> list[Block]:
        """All stored blocks by `author` at round `r`, lowest digest first."""
        versions = self._forks.get(r, {}).get(author)
        if versions is not None:
            return list(versions)
        block = self._by_round.get(r, {}).get(author)
        return [] if block is None else [block]

    def first_block_by(self, author: ValidatorId, r: int) -> Optional[Block]:
        """The lowest-digest stored block by `author` at round `r`."""
        return self._by_round.get(r, {}).get(author)

    def blocks_at_round(self, r: int) -> list[Block]:
        """All round-r blocks ordered by (author, digest) for stable iteration."""
        per_round = self._by_round.get(r, {})
        forks = self._forks.get(r, {})
        out: list[Block] = []
        for author in sorted(per_round):
            out.extend(forks.get(author) or (per_round[author],))
        return out

    def round_view(self, r: int) -> dict[ValidatorId, Block]:
        """Author -> lowest-digest round-r block, in first-insert order."""
        return self._by_round.get(r, {})

    def voted_block(self, support: Block, author: ValidatorId, r: int) -> Optional[bytes]:
        """Digest of the first (author, r) block reached by depth-first search
        from `support`, visiting parents in their listed order; None if none.

        This is the deterministic tie-break that makes a block's vote
        unambiguous even when the target author equivocated. Adjacent rounds
        reduce to a direct parent lookup (valid parents have distinct
        authors); only deeper traversals go through the memo table.
        """
        if r >= support.round:
            return None
        if support.round == r + 1:
            hit = support.parent_by_author.get(author)
            return hit.digest if hit is not None else None
        votes = self._memo.votes.get(r)
        if votes is None:
            votes = self._memo.votes[r] = {}
        key = (support.digest, author)
        cached = votes.get(key, False)
        if cached is not False:
            return cached
        found = votes[key] = self._voted_block_uncached(support, author, r)
        return found

    def round_votes(self, voter_round: int, author: ValidatorId, r: int) -> list[Optional[bytes]]:
        """What `voted_block` gives for each unforked round-`voter_round`
        author's block, in first-insert order: the direct rule's one read of
        a decision round. An author forked at `voter_round` is left out.

        The adjacent round reads each voter's parent by author; a deeper
        round reads the memo table and calls `voted_block` on a miss only.
        """
        view = self._by_round.get(voter_round, _EMPTY)
        forked = self._forks.get(voter_round, _EMPTY)
        voters = view.values() if not forked else [b for a, b in view.items() if a not in forked]
        if voter_round == r + 1:
            return [
                None if (p := b.parent_by_author.get(author)) is None else p.digest
                for b in voters
            ]
        memo = self._memo.votes.get(r, _EMPTY)
        votes = []
        for b in voters:
            vote = memo.get((b.digest, author), False)
            votes.append(self.voted_block(b, author, r) if vote is False else vote)
        return votes

    def _voted_block_uncached(self, support: Block, author: ValidatorId, r: int) -> Optional[bytes]:
        for p in support.parents:
            if p.author == author and p.round == r:
                return p.digest
            if p.round > r:
                res = self.voted_block(self._by_digest[p.digest], author, r)
                if res is not None:
                    return res
        return None

    def ancestors_at_round(self, ref: BlockRef, r: int) -> set[bytes]:
        """Digests of all round-r blocks in `ref`'s causal history."""
        if ref.digest not in self._by_digest:
            raise UnknownBlockError(ref.short())
        found: set[bytes] = set()
        if ref.round == r:
            found.add(ref.digest)
        elif ref.round > r:
            stack = [self._by_digest[ref.digest]]
            seen: set[bytes] = set()
            while stack:
                blk = stack.pop()
                for p in blk.parents:
                    if p.round == r:
                        found.add(p.digest)
                    elif p.round > r and p.digest not in seen:
                        seen.add(p.digest)
                        stack.append(self._by_digest[p.digest])
        return found


@contextmanager
def stored_history() -> Iterator[dict[Dag, list[Block]]]:
    """Log, per DAG, every block it stores while the context is open, in order.

    Pruning drops a DAG's old rounds; a reader of a whole run's history, such
    as the async-structure criterion, runs inside this context and rebuilds
    the DAG it reads with `unpruned`.
    """
    log: dict[Dag, list[Block]] = {}
    store = Dag._store

    def logged(dag: Dag, block: Block) -> None:
        store(dag, block)
        log.setdefault(dag, []).append(block)

    Dag._store = logged
    try:
        yield log
    finally:
        Dag._store = store


def unpruned(committee: Committee, blocks: Iterable[Block]) -> Dag:
    """A DAG that holds `blocks`, a DAG's stores in order, and never prunes."""
    dag = Dag(committee)
    for block in blocks:
        if not dag.contains_digest(block.digest):
            dag._store(block)
    return dag


class PendingPool:
    """Blocks waiting on missing ancestors, keyed by the refs they await.

    The awaited refs are also the replica's sync request table: a ref is
    requested when the first parked block awaits it, and the pool keeps when
    it was last requested and which peer sent each parked block, so a retry
    knows whom to ask again. All of it leaves with the blocks that need it.
    `parked` maps each parked block's digest to the block, for intake's
    test of what a replica holds.
    """

    def __init__(self):
        self.parked: dict[bytes, Block] = {}  # digest -> parked block
        self._needs: dict[bytes, set[bytes]] = {}
        # awaited digest -> digests of the parked blocks awaiting it; empty
        # exactly when the pool is idle
        self.awaited: dict[bytes, set[bytes]] = {}
        # awaited digest -> (time it was last requested, its ref); same keys
        # as awaited
        self._asked: dict[bytes, tuple[int, BlockRef]] = {}
        self._senders: dict[bytes, str] = {}  # parked digest -> the peer that sent it
        self._floor = 0

    def __len__(self) -> int:
        return len(self.parked)

    def has(self, digest: bytes) -> bool:
        return digest in self.parked

    def add(
        self, block: Block, missing: Iterable[BlockRef], sender: Optional[str], now: int
    ) -> tuple[BlockRef, ...]:
        """Park `block`, sent by `sender`, until `missing` arrive. Returns the
        refs no parked block awaited before, stamped as requested at `now`."""
        digest = block.digest
        if digest in self.parked:
            return ()
        self.parked[digest] = block
        if sender is not None:
            self._senders[digest] = sender
        need = self._needs[digest] = set()
        awaited = self.awaited
        fresh = []
        for m in missing:
            need.add(m.digest)
            waiters = awaited.get(m.digest)
            if waiters is None:
                awaited[m.digest] = {digest}
                self._asked[m.digest] = (now, m)
                fresh.append(m)
            else:
                waiters.add(digest)
        return tuple(fresh)

    def overdue(self, now: int, age: int) -> dict[str, list[BlockRef]]:
        """Restamp at `now` every awaited ref last requested `age` or more
        ago, and return them, in digest order, by sender of a parked block
        that awaits them."""
        due: dict[str, list[BlockRef]] = {}
        asked, senders = self._asked, self._senders
        for digest in sorted(asked):
            at, ref = asked[digest]
            if now - at < age:
                continue
            asked[digest] = (now, ref)
            for peer in sorted({senders[w] for w in self.awaited[digest] if w in senders}):
                due.setdefault(peer, []).append(ref)
        return due

    def satisfy(self, digest: bytes) -> list[Block]:
        """Mark `digest` as available; return blocks with no remaining waits."""
        waiters = self.awaited.pop(digest, None)
        if waiters is None:
            return []
        del self._asked[digest]
        ready = []
        for dep in sorted(waiters):
            need = self._needs.get(dep)
            if need is None:
                continue
            need.discard(digest)
            if not need:
                del self._needs[dep]
                self._senders.pop(dep, None)
                ready.append(self.parked.pop(dep))
        return ready

    def prune(self, floor: int) -> list[Block]:
        """Follow the DAG's floor up to `floor`: drop the blocks below it,
        which can never be inserted, and hand back, lowest digest first, the
        blocks at it, whose missing parents now lie below the floor."""
        if floor <= self._floor:
            return []
        self._floor = floor
        at_floor = []
        for digest, block in list(self.parked.items()):
            if block.round > floor:
                continue
            del self.parked[digest]
            self._senders.pop(digest, None)
            for need in self._needs.pop(digest):
                waiters = self.awaited[need]
                waiters.discard(digest)
                if not waiters:
                    del self.awaited[need]
                    del self._asked[need]
            if block.round == floor:
                at_floor.append(block)
        return sorted(at_floor, key=lambda b: b.digest)
