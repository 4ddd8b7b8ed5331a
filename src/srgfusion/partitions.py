"""Set partitions of small index sets.

Fusion candidates of the rank-9 tensor square are named by partitions of
{2,...,9} (the identity class {1} is implicit and never written).  The
canonical string form sorts digits inside each block and blocks by their
minimum, joined with '|':  e.g. "24|37|5|68|9".

Enumeration uses restricted-growth strings, which yields each partition
exactly once; results are then sorted by canonical string so every consumer
sees one deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

DEFAULT_GROUND = frozenset(range(2, 10))
MAX_GROUND = 12


class GroundTooLarge(ValueError):
    """Enumeration requested for a ground set beyond the supported size."""


class GroundMismatch(ValueError):
    """Two partitions of different ground sets were combined."""


class BadGrammar(ValueError):
    """Partition string does not match the digits-and-bars grammar."""


class DuplicateIndex(BadGrammar):
    """An index appears in more than one block of a partition string."""


class MissingIndex(BadGrammar):
    """A required ground-set index is absent from a partition string."""


@dataclass(frozen=True)
class SetPartition:
    """Partition of a finite ground set into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError("blocks must be internally sorted")
            for x in block:
                if x in seen:
                    raise DuplicateIndex(f"index {x} repeated")
                seen.add(x)
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be sorted by minimum")
        # the string form, built once; set here because caching it on first
        # use would add a second lazily set attribute beside ``masks``, and
        # that turns each partition's attribute dict into one about 175
        # bytes larger
        if all(0 <= x <= 9 for x in seen):
            object.__setattr__(
                self, "_text",
                "|".join("".join(map(str, block)) for block in self.blocks))

    @classmethod
    def _from_canonical(cls, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """Trusted constructor from nonempty blocks already canonical (each
        sorted, ordered by minimum, pairwise disjoint), with no checks.

        Sets ``blocks``, the string form and, when every index is at least
        2, ``masks`` together, in the order the checked path sets them.
        """
        p = object.__new__(cls)
        set_ = object.__setattr__
        set_(p, "blocks", blocks)
        if blocks and blocks[0][0] >= 0 and max(b[-1] for b in blocks) <= 9:
            set_(p, "_text", "|".join("".join(map(str, b)) for b in blocks))
        if blocks and blocks[0][0] >= 2:
            set_(p, "masks", tuple(sum(1 << (x - 2) for x in b) for b in blocks))
        return p

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return SetPartition(canon)

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(x for block in self.blocks for x in block)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per block, its indices as bits: index x is bit x - 2.

        Fusion candidates partition {2, ..., n}, index 1 being the identity
        class, so these are the masks ``CharTable.mask_sums`` takes.  The
        enumeration sets them with the blocks; any other partition computes
        them once, on first use.  Equality and hashing see only the blocks.
        """
        if self.blocks and self.blocks[0][0] < 2:
            raise ValueError(f"index {self.blocks[0][0]} has no bit, need >= 2")
        return tuple(sum(1 << (x - 2) for x in block) for block in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def rank(self) -> int:
        """Rank of the fusion this partition names: blocks plus the identity."""
        return len(self.blocks) + 1

    def is_discrete(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def is_single_block(self) -> bool:
        return len(self.blocks) == 1

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            raise ValueError(
                "string form is defined for single-digit grounds only") from None

    def __repr__(self):
        return f"SetPartition({self})"


def parse(text: str, ground: frozenset[int] = DEFAULT_GROUND) -> SetPartition:
    """Parse canonical-or-not partition text like "5|24|37|68|9"."""
    if not text or not all(c.isdigit() or c == "|" for c in text):
        raise BadGrammar(f"bad partition string {text!r}")
    chunks = text.split("|")
    if any(not chunk for chunk in chunks):
        raise BadGrammar(f"empty block in {text!r}")
    blocks = []
    seen: set[int] = set()
    for chunk in chunks:
        block = tuple(sorted(int(c) for c in chunk))
        for x in block:
            if x in seen:
                raise DuplicateIndex(f"index {x} repeated in {text!r}")
            seen.add(x)
        blocks.append(block)
    extra = seen - ground
    if extra:
        raise BadGrammar(f"indices {sorted(extra)} outside ground set")
    missing = ground - seen
    if missing:
        raise MissingIndex(f"indices {sorted(missing)} missing from {text!r}")
    return SetPartition.from_blocks(blocks)


def _rgs_partitions(elements: Sequence[int]):
    """Yield all partitions via restricted-growth strings."""
    if not elements:
        yield SetPartition(())
        return
    yield from _rgs_extend(elements, [0] * len(elements), 1, 0)


def _rgs_extend(elements: Sequence[int], rgs: list[int], i: int, maxval: int):
    """Yield the partitions of every restricted-growth string that keeps
    ``rgs[:i]``, whose largest value is ``maxval``."""
    if i == len(elements):
        # elements are increasing, so the blocks come out canonical
        blocks: list[list[int]] = [[] for _ in range(maxval + 1)]
        for x, b in zip(elements, rgs):
            blocks[b].append(x)
        yield SetPartition._from_canonical(tuple(map(tuple, blocks)))
        return
    for b in range(maxval + 2):
        rgs[i] = b
        yield from _rgs_extend(elements, rgs, i + 1, max(maxval, b))


def enumerate_partitions(ground: Iterable[int] = DEFAULT_GROUND) -> list[SetPartition]:
    """All set partitions of the ground set, sorted by canonical string."""
    elements = sorted(set(ground))
    if len(elements) > MAX_GROUND:
        raise GroundTooLarge(f"{len(elements)} > {MAX_GROUND}")
    parts = list(_rgs_partitions(elements))
    parts.sort(key=str)
    return parts


@lru_cache(maxsize=None)
def all_default_partitions() -> tuple[SetPartition, ...]:
    """The 4140 partitions of {2,...,9}, canonical order, computed once."""
    return tuple(enumerate_partitions(DEFAULT_GROUND))


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True when every block of p sits inside a block of q."""
    if p.ground != q.ground:
        raise GroundMismatch(f"{p} vs {q}")
    owner = {x: i for i, block in enumerate(q.blocks) for x in block}
    return all(len({owner[x] for x in block}) == 1 for block in p.blocks)


def coarsenings(base: SetPartition) -> list[SetPartition]:
    """All partitions whose blocks are unions of base blocks (Bell(b) many)."""
    b = base.num_blocks
    out = []
    for grouping in _rgs_partitions(tuple(range(b))):
        blocks = [
            tuple(sorted(x for i in group for x in base.blocks[i]))
            for group in grouping.blocks
        ]
        out.append(SetPartition.from_blocks(blocks))
    out.sort(key=str)
    return out


def hasse_edges(parts: Sequence[SetPartition]) -> list[tuple[SetPartition, SetPartition]]:
    """Cover edges (p, q) with p refining q, within the given result set.

    Transitive reduction of the refinement order restricted to ``parts``;
    this is what lattice drawings show.
    """
    below: dict[SetPartition, set[SetPartition]] = {
        q: {p for p in parts if p != q and refines(p, q)} for q in parts
    }
    edges = []
    for q in parts:
        for p in below[q]:
            if not any(p in below[mid] for mid in below[q] if mid != p):
                edges.append((p, q))
    edges.sort(key=lambda e: (str(e[0]), str(e[1])))
    return edges
