"""Coalitions, partitions of the player set, and size-capped partition families.

Players are dense zero-based integers. A coalition is a nonempty sorted tuple
of players; a partition is a disjoint cover of ``{0..n-1}`` whose blocks are
listed in canonical order (sorted by smallest member). Enumeration walks
restricted growth strings with an on-the-fly block-size cap, which yields a
deterministic lexicographic order and linear memory per partition.

All types here are immutable after construction and safe to share across
threads; the canonical text form ``"0,1|2|3"`` is used as a key everywhere
downstream (payoff tables, spec files, reports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BudgetExceededError, InvalidParameterError

#: Ceiling on exhaustive enumerations: on partition families always, on
#: profiles or support combinations unless the caller overrides it. Checked
#: before work starts, never after.
DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class Coalition:
    """A nonempty group of players, stored sorted ascending."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise InvalidParameterError("coalition must be nonempty")
        if any(m < 0 for m in self.members):
            raise InvalidParameterError("player ids must be nonnegative")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise InvalidParameterError(
                f"coalition members must be strictly ascending, got {self.members}"
            )

    @staticmethod
    def of(members: Iterable[int]) -> "Coalition":
        return Coalition(tuple(sorted(set(members))))

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, player: int) -> bool:
        return player in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.members)


@dataclass(frozen=True)
class Partition:
    """A set of disjoint coalitions covering ``{0..n-1}``.

    Blocks are kept in canonical order (ascending by smallest member), so two
    equal partitions always compare and hash equal and render to the same
    canonical string.
    """

    blocks: tuple[Coalition, ...]
    n: int

    def __post_init__(self):
        seen: list[int] = []
        for block in self.blocks:
            seen.extend(block.members)
        if len(seen) != self.n or len(set(seen)) != len(seen):
            raise InvalidParameterError(
                f"blocks must disjointly cover 0..{self.n - 1}, got {self.blocks}"
            )
        if seen and (min(seen) != 0 or max(seen) != self.n - 1):
            raise InvalidParameterError(
                f"blocks must disjointly cover 0..{self.n - 1}, got {self.blocks}"
            )
        firsts = [block.members[0] for block in self.blocks]
        if firsts != sorted(firsts):
            raise InvalidParameterError(
                "blocks must be ordered by smallest member; "
                "use Partition.from_blocks to canonicalize"
            )

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build a partition from unordered blocks, canonicalizing order."""
        coalitions = sorted(
            (Coalition.of(b) for b in blocks), key=lambda c: c.members[0]
        )
        return Partition(tuple(coalitions), n)

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition(tuple(Coalition((i,)) for i in range(n)), n)

    @cached_property
    def key(self) -> str:
        """Canonical text form, e.g. ``"0,1|2|3"``."""
        return "|".join(str(block) for block in self.blocks)

    @property
    def max_block_size(self) -> int:
        return max(block.size for block in self.blocks)

    def block_of(self, player: int) -> Coalition:
        """The unique block containing ``player``."""
        if not 0 <= player < self.n:
            raise InvalidParameterError(f"player {player} not in 0..{self.n - 1}")
        for block in self.blocks:
            if player in block:
                return block
        raise InvalidParameterError(f"player {player} missing from {self}")

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class PartitionFamily:
    """All partitions of ``n`` players with block sizes at most ``K``,
    in enumeration order."""

    n: int
    K: int
    partitions: tuple[Partition, ...]

    @cached_property
    def _index(self) -> dict[Partition, int]:
        return {p: i for i, p in enumerate(self.partitions)}

    def index_of(self, partition: Partition) -> int:
        try:
            return self._index[partition]
        except KeyError:
            raise InvalidParameterError(
                f"partition {partition} is not in the family P(n={self.n}, K={self.K})"
            ) from None

    def __contains__(self, partition: Partition) -> bool:
        return partition in self._index

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def __getitem__(self, i: int) -> Partition:
        return self.partitions[i]


def _check_n_k(n: int, K: int, *, min_n: int = 2) -> None:
    if n < min_n:
        raise InvalidParameterError(f"need at least {min_n} players, got n={n}")
    if K < 1:
        raise InvalidParameterError(f"max block size must be >= 1, got K={K}")
    if K > n:
        raise InvalidParameterError(f"max block size K={K} exceeds player count n={n}")


def _counts(n: int, K: int) -> Iterator[int]:
    """``a(0), a(1), ..., a(n)``: the number of partitions of ``m`` players
    with block sizes at most ``K``, from the recurrence
    ``a(m) = sum_{j=1..min(K,m)} C(m-1, j-1) * a(m-j)`` with ``a(0) = 1``:
    the block containing the first element has size j, and its other j-1
    members are chosen from the remaining m-1 elements. The ``j = 1`` term is
    ``a(m-1)``, so the sequence never decreases."""
    a = [1]
    yield 1
    for m in range(1, n + 1):
        a.append(
            sum(math.comb(m - 1, j - 1) * a[m - j] for j in range(1, min(K, m) + 1))
        )
        yield a[m]


def count_partitions(n: int, K: int) -> int:
    """Number of partitions of ``n`` players with block sizes at most ``K``.

    An independent counting oracle (see ``_counts``); it never enumerates.
    """
    _check_n_k(n, K, min_n=1)
    return list(_counts(n, K))[-1]


def enumerate_partitions(n: int, K: int) -> PartitionFamily:
    """Enumerate every partition of ``{0..n-1}`` with block sizes at most ``K``.

    Order is lexicographic by restricted growth string: element t joins
    existing blocks in order of creation before opening a new block. Blocks
    are created in order of their smallest member, so each emitted partition
    is already canonical. Two calls with equal arguments return identical
    families. Families of more than ``DEFAULT_BUDGET`` partitions raise
    ``BudgetExceededError`` before any is built. The count stops at the first
    ``m <= n`` whose family is over the budget, and ``required`` is that
    family's size: a lower bound, exact when ``m = n``.
    """
    _check_n_k(n, K)
    for m, count in enumerate(_counts(n, K)):
        if count > DEFAULT_BUDGET:
            size = f"{count}" if m == n else f"at least {count} (as P(n={m}, K={K}))"
            raise BudgetExceededError(
                f"P(n={n}, K={K}) has {size} partitions, over the budget of "
                f"{DEFAULT_BUDGET}",
                required=count,
                budget=DEFAULT_BUDGET,
            )
    if K == 1:
        # One partition. The walk below would scan every full block for each
        # player, O(n^2), and recurse n deep; K >= 2 keeps n below 14 here.
        return PartitionFamily(n=n, K=K, partitions=(Partition.singletons(n),))
    out: list[Partition] = []
    blocks: list[list[int]] = []
    # One Coalition per distinct block, shared by every partition holding
    # it: P(n, 2) has only n + C(n, 2) distinct blocks.
    coalitions: dict[tuple[int, ...], Coalition] = {}

    def coalition(members: tuple[int, ...]) -> Coalition:
        block = coalitions.get(members)
        if block is None:
            block = coalitions[members] = Coalition(members)
        return block

    def extend(t: int) -> None:
        if t == n:
            out.append(Partition(tuple(coalition(tuple(b)) for b in blocks), n))
            return
        for block in blocks:
            if len(block) < K:
                block.append(t)
                extend(t + 1)
                block.pop()
        blocks.append([t])
        extend(t + 1)
        blocks.pop()

    extend(0)
    return PartitionFamily(n=n, K=K, partitions=tuple(out))


def is_nested(fam_small: PartitionFamily, fam_large: PartitionFamily) -> bool:
    """True iff every partition of ``fam_small`` appears in ``fam_large``."""
    if fam_small.n != fam_large.n:
        raise InvalidParameterError(
            f"player counts differ: {fam_small.n} vs {fam_large.n}"
        )
    return all(p in fam_large for p in fam_small)


def parse_partition(text: str, n: int) -> Partition:
    """Parse a partition string like ``"0,1|2|3"`` for ``n`` players.

    Accepts blocks/members in any order and canonicalizes; rejects
    duplicates, gaps, and out-of-range players.
    """
    if not isinstance(text, str) or not text.strip():
        raise InvalidParameterError(f"empty partition string for n={n}")
    blocks: list[list[int]] = []
    for chunk in text.split("|"):
        members: list[int] = []
        for item in chunk.split(","):
            item = item.strip()
            digits = item[1:] if item.startswith("-") else item
            # ASCII only: str.isdigit also holds for "²" and "١".
            if not (digits.isascii() and digits.isdigit()):
                raise InvalidParameterError(
                    f"bad player id {item!r} in partition string {text!r}"
                )
            member = int(item)
            if not 0 <= member < n:
                raise InvalidParameterError(
                    f"player {member} out of range 0..{n - 1} in {text!r}"
                )
            members.append(member)
        if len(set(members)) != len(members):
            raise InvalidParameterError(f"duplicate player inside a block in {text!r}")
        blocks.append(members)
    flat = [m for b in blocks for m in b]
    if sorted(flat) != list(range(n)):
        raise InvalidParameterError(
            f"partition string {text!r} does not cover players 0..{n - 1} exactly"
        )
    return Partition.from_blocks(blocks, n)
