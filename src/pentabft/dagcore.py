"""Block DAG primitives: blocks, committees, validity checks, local storage.

Every validator and guard keeps one `Dag` instance as its local view. Blocks
reference each other by content digest; a block is stored only once its whole
causal history is present, so reachability queries never hit dangling edges.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

# A validator is identified by its stable index for the epoch.
ValidatorId = int

DIGEST_SIZE = 16


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


@dataclass(frozen=True, order=True)
class BlockRef:
    """Compact reference to a block: (author, round, content digest)."""

    author: ValidatorId
    round: int
    digest: bytes

    def short(self) -> str:
        return f"{self.author}/{self.round}/{self.digest.hex()[:8]}"


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
        # validity results are immutable per (digest, committee); cached here
        # so each block is structurally checked once per process, not per node
        object.__setattr__(self, "_valid_cache", {})

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
        return v in self._member_set()

    def _member_set(self) -> frozenset:
        ms = getattr(self, "_members_frozen", None)
        if ms is None:
            ms = frozenset(self.members)
            object.__setattr__(self, "_members_frozen", ms)
        return ms


def _encode_varbytes(out: bytearray, data: bytes) -> None:
    out += len(data).to_bytes(4, "big")
    out += data


def encode_block_body(
    author: ValidatorId,
    round_: int,
    parents: tuple[BlockRef, ...],
    transactions: tuple[bytes, ...],
    coin_share: Optional[CoinShare],
) -> bytes:
    """Canonical byte encoding of the digest-covered fields, in field order."""
    out = bytearray()
    out += author.to_bytes(4, "big")
    out += round_.to_bytes(8, "big")
    out += len(parents).to_bytes(4, "big")
    for p in parents:
        out += p.author.to_bytes(4, "big")
        out += p.round.to_bytes(8, "big")
        out += p.digest
    out += len(transactions).to_bytes(4, "big")
    for tx in transactions:
        _encode_varbytes(out, tx)
    if coin_share is None:
        out += b"\x00"
    else:
        out += b"\x01"
        out += coin_share.author.to_bytes(4, "big")
        out += coin_share.round.to_bytes(8, "big")
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
    """A DAG vertex. Immutable; digest and author index computed at creation."""

    author: ValidatorId
    round: int
    parents: tuple[BlockRef, ...]
    transactions: tuple[bytes, ...] = ()
    coin_share: Optional[CoinShare] = None
    auth_tag: str = ""
    digest: bytes = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "digest",
            compute_digest(
                self.author, self.round, self.parents, self.transactions, self.coin_share
            ),
        )
        # author -> parent ref; valid blocks carry distinct parent authors, so
        # this is exactly the first-match order a depth-one DFS would see
        object.__setattr__(
            self, "parent_by_author", {p.author: p for p in self.parents}
        )

    def __eq__(self, other):
        return isinstance(other, Block) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def ref(self) -> BlockRef:
        r = getattr(self, "_ref", None)
        if r is None:
            r = BlockRef(self.author, self.round, self.digest)
            object.__setattr__(self, "_ref", r)
        return r

    def encode(self) -> bytes:
        """Full canonical wire encoding (body followed by the auth tag)."""
        out = bytearray(
            encode_block_body(
                self.author, self.round, self.parents, self.transactions, self.coin_share
            )
        )
        _encode_varbytes(out, self.auth_tag.encode())
        return bytes(out)


def decode_block(data: bytes) -> Block:
    """Inverse of `Block.encode`."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        chunk = data[pos : pos + n]
        if len(chunk) != n:
            raise ValueError("truncated block encoding")
        pos += n
        return chunk

    author = int.from_bytes(take(4), "big")
    round_ = int.from_bytes(take(8), "big")
    n_parents = int.from_bytes(take(4), "big")
    parents = []
    for _ in range(n_parents):
        pa = int.from_bytes(take(4), "big")
        pr = int.from_bytes(take(8), "big")
        pd = take(DIGEST_SIZE)
        parents.append(BlockRef(pa, pr, pd))
    n_tx = int.from_bytes(take(4), "big")
    txs = []
    for _ in range(n_tx):
        ln = int.from_bytes(take(4), "big")
        txs.append(take(ln))
    flag = take(1)
    share = None
    if flag == b"\x01":
        sa = int.from_bytes(take(4), "big")
        sr = int.from_bytes(take(8), "big")
        share = CoinShare(sa, sr)
    tag_len = int.from_bytes(take(4), "big")
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


def genesis_blocks(committee: Committee) -> list[Block]:
    """One parent-less round-0 block per member, known to every node.

    The payload pins the epoch so block digests never collide across
    restarts of the protocol with a reduced committee.
    """
    return [
        make_block(m, 0, (), (f"genesis/{committee.epoch}/{m}".encode(),),
                   CoinShare(m, 0) if committee.mode is Mode.ASYNC else None)
        for m in committee.members
    ]


def validate_block(block: Block, committee: Committee) -> None:
    """Raise a ValidationError subclass if `block` is structurally invalid.

    Checks, in order: authentication, parent rounds, parent-author
    distinctness, parent count (>= 4f+1 for rounds >= 1), and coin share
    presence in async mode. Genesis blocks (round 0) carry no parents.
    """
    cache = committee._valid_cache
    cached = cache.get(block.digest)
    if cached is not None:
        if cached is True:
            return
        raise cached

    try:
        _validate_uncached(block, committee)
    except ValidationError as err:
        cache[block.digest] = err
        raise
    cache[block.digest] = True


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


@dataclass
class InsertOutcome:
    status: InsertStatus
    missing: tuple[BlockRef, ...] = ()


class Dag:
    """Local block store indexed by digest, round, and (author, round).

    Inserts are idempotent; a block is admitted only when all its parents are
    already present, which keeps the causal-completeness invariant by
    induction. Blocks are assumed validated by the caller.
    """

    def __init__(self, committee: Committee, with_genesis: bool = True):
        self.committee = committee
        self._by_digest: dict[bytes, Block] = {}
        # round -> author -> blocks sorted by digest (>= 2 entries: equivocation)
        self._by_round: dict[int, dict[ValidatorId, list[Block]]] = {}
        self._authors_by_round: dict[int, set[ValidatorId]] = {}
        self._count_by_round: dict[int, int] = {}
        self.max_round: int = 0
        self._vote_cache: dict[tuple, Optional[bytes]] = {}
        self._ancestor_cache: dict[tuple, frozenset] = {}
        if with_genesis:
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
        """Store `block` if its parents are present; report missing refs otherwise."""
        if block.digest in self._by_digest:
            return InsertOutcome(InsertStatus.DUPLICATE)
        if block.round >= 1:
            # structural floor re-checked on every insert: a strong quorum of
            # pairwise-distinct parent authors (the author map collapses dupes)
            assert (
                len(block.parent_by_author) == len(block.parents)
                and len(block.parents) >= self.committee.strong_quorum
            ), "block below the parent-quorum floor"
        by_digest = self._by_digest
        if not all(p.digest in by_digest for p in block.parents):
            missing = tuple(p for p in block.parents if p.digest not in by_digest)
            return InsertOutcome(InsertStatus.MISSING_ANCESTORS, missing)
        self._store(block)
        return InsertOutcome(InsertStatus.INSERTED)

    def _store(self, block: Block) -> None:
        self._by_digest[block.digest] = block
        per_round = self._by_round.setdefault(block.round, {})
        lst = per_round.setdefault(block.author, [])
        lst.append(block)
        if len(lst) > 1:
            lst.sort(key=lambda b: b.digest)
        self._authors_by_round.setdefault(block.round, set()).add(block.author)
        self._count_by_round[block.round] = self._count_by_round.get(block.round, 0) + 1
        if block.round > self.max_round:
            self.max_round = block.round

    # -- queries -----------------------------------------------------------

    def authors_at_round(self, r: int) -> set[ValidatorId]:
        return self._authors_by_round.get(r, set())

    def author_count(self, r: int) -> int:
        return len(self._authors_by_round.get(r, ()))

    def block_count(self, r: int) -> int:
        return self._count_by_round.get(r, 0)

    def blocks_by(self, author: ValidatorId, r: int) -> list[Block]:
        """All stored blocks by `author` at round `r`, lowest digest first."""
        return list(self._by_round.get(r, {}).get(author, ()))

    def first_block_by(self, author: ValidatorId, r: int) -> Optional[Block]:
        lst = self._by_round.get(r, {}).get(author)
        return lst[0] if lst else None

    def blocks_at_round(self, r: int) -> list[Block]:
        """All round-r blocks ordered by (author, digest) for stable iteration."""
        per_round = self._by_round.get(r, {})
        out: list[Block] = []
        for author in sorted(per_round):
            out.extend(per_round[author])
        return out

    def round_view(self, r: int) -> dict[ValidatorId, list[Block]]:
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
        key = (support.digest, author, r)
        cached = self._vote_cache.get(key, False)
        if cached is not False:
            return cached
        found = self._voted_block_uncached(support, author, r)
        self._vote_cache[key] = found
        return found

    def _voted_block_uncached(self, support: Block, author: ValidatorId, r: int) -> Optional[bytes]:
        for p in support.parents:
            if p.author == author and p.round == r:
                return p.digest
            if p.round > r:
                res = self.voted_block(self._by_digest[p.digest], author, r)
                if res is not None:
                    return res
        return None

    def is_vote(self, support: BlockRef, leader: BlockRef) -> bool:
        """True iff `support` votes for `leader`: the DFS from `support` finds
        `leader` first among all blocks with the leader's (author, round)."""
        if support.digest not in self._by_digest:
            raise UnknownBlockError(support.short())
        if leader.digest not in self._by_digest:
            raise UnknownBlockError(leader.short())
        blk = self._by_digest[support.digest]
        return self.voted_block(blk, leader.author, leader.round) == leader.digest

    def ancestors_at_round(self, ref: BlockRef, r: int) -> frozenset:
        """Digests of all round-r blocks in `ref`'s causal history."""
        key = (ref.digest, r)
        cached = self._ancestor_cache.get(key)
        if cached is not None:
            return cached
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
        result = frozenset(found)
        self._ancestor_cache[key] = result
        return result

    def dump(self) -> str:
        """One block per line: digest, author, round, parent digests."""
        lines = []
        for r in sorted(self._by_round):
            for blk in self.blocks_at_round(r):
                parents = " ".join(p.digest.hex() for p in blk.parents)
                lines.append(f"{blk.digest.hex()} {blk.author} {blk.round} {parents}".rstrip())
        return "\n".join(lines) + "\n"


class PendingPool:
    """Blocks waiting on missing ancestors, keyed by the refs they await."""

    def __init__(self):
        self._waiting: dict[bytes, Block] = {}
        self._needs: dict[bytes, set[bytes]] = {}
        self._dependents: dict[bytes, set[bytes]] = {}

    def __len__(self) -> int:
        return len(self._waiting)

    def is_idle(self) -> bool:
        return not self._dependents

    def has(self, digest: bytes) -> bool:
        return digest in self._waiting

    def add(self, block: Block, missing: Iterable[BlockRef]) -> None:
        if block.digest in self._waiting:
            return
        self._waiting[block.digest] = block
        need = {m.digest for m in missing}
        self._needs[block.digest] = need
        for d in need:
            self._dependents.setdefault(d, set()).add(block.digest)

    def satisfy(self, digest: bytes) -> list[Block]:
        """Mark `digest` as available; return blocks with no remaining waits."""
        ready = []
        for dep in sorted(self._dependents.pop(digest, ())):
            need = self._needs.get(dep)
            if need is None:
                continue
            need.discard(digest)
            if not need:
                del self._needs[dep]
                ready.append(self._waiting.pop(dep))
        return ready
