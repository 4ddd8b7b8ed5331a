"""Tensor-square and wreath-product character tables, plus index involutions.

The tensor square of a rank-3 scheme has basis elements A_i (x) A_j, written
A_ij, and characters chi_ij = chi_i (x) chi_j with the Kronecker entry rule

    chi_ij(A_ab) = chi_i(A_a) * chi_j(A_b).

Single-index bookkeeping identifies A_ij with position 3j + i + 1 in
1..9, so partitions of the eight non-identity elements are partitions of
{2,...,9}.  Rows are ordered with i slow and j fast (chi_00, chi_01, ...,
chi_22); columns follow the single index (A_00, A_10, A_20, A_01, ...).

Two involutions of {2,...,9} matter:

    flip    (2 4)(3 7)(6 8)        swap the tensor factors, A_ij -> A_ji
    switch  (2 3)(4 7)(5 9)(6 8)   swap A_1 and A_2 in both factors

Both are derived through single_index from their index maps: flip from
(i, j) -> (j, i), switch from (i, j) -> (sigma i, sigma j) with
sigma = (1 2).

The wreath product is the rank-5 fusion of the tensor square with classes
{A_00}, {A_10}, {A_20}, {A_01+A_11+A_21}, {A_02+A_12+A_22}, i.e. the
partition 2|3|456|789; the mirrored orientation uses 258|369|4|7 (its flip
image).

KroneckerSquare decides the fusions of the tensor square from the base's
intersection numbers alone, over any exact scalar: ints from a graph,
rationals from parameters, MultiPoly from symbols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from .partitions import SetPartition, parse
from .scheme import CharTable

TENSOR_ROW_ORDER = tuple((i, j) for i in range(3) for j in range(3))
TENSOR_COL_ORDER = tuple((i, j) for j in range(3) for i in range(3))


def single_index(i: int, j: int) -> int:
    """Position of A_ij in 1..9."""
    return 3 * j + i + 1


def tensor_square_table(t: CharTable) -> CharTable:
    """Kronecker square of a 3-row character table.

    Entries follow the product rule chi_ij(A_ab) = chi_i(A_a) chi_j(A_b);
    multiplicities multiply, so they sum to n^2.
    """
    if len(t.rows) != 3 or len(t.col_labels) != 3:
        raise ValueError("tensor square is defined for 3x3 tables")
    rows = tuple(tuple(t.rows[i][a] * t.rows[j][b] for a, b in TENSOR_COL_ORDER)
                 for i, j in TENSOR_ROW_ORDER)
    return CharTable(tuple(f"chi_{i}{j}" for i, j in TENSOR_ROW_ORDER),
                     tuple(f"A_{a}{b}" for a, b in TENSOR_COL_ORDER), rows,
                     tuple(t.mults[i] * t.mults[j] for i, j in TENSOR_ROW_ORDER))


@dataclass(frozen=True)
class IntersectionTensor:
    """Structure constants p[i][j][k] with M_i M_j = sum_k p[i][j][k] M_k."""

    p: tuple[tuple[tuple[int, ...], ...], ...]
    valencies: tuple[int, ...]


class KroneckerSquare:
    """Fusions of the tensor square of a symmetric rank-3 scheme, decided
    from its intersection numbers p[a][c][e] = p_ac^e over any exact scalar
    with +, * and ==.

    The Kronecker rule (A_a x A_b)(A_c x A_d) = A_a A_c x A_b A_d gives
    that product the coefficient p_ac^e p_bd^f on A_e x A_f.  With {1} as
    block 0, a partition of {2, ..., 9} fuses exactly when, for every pair
    of blocks I, J, the sum of these constants over single_index(a, b) in I
    and single_index(c, d) in J is the same on all tensor classes (e, f) of
    each block; the common values are the fused intersection numbers.

    ``classes`` lists the single indices of the nonempty tensor classes in
    the caller's order (an empty one has no cell to disagree on), and
    ``constants[s, t]`` the constants over them, plus a zero lane that an
    empty fused class reads.  Block sums are memoized by block pair.
    """

    def __init__(self, p, classes):
        self.classes = tuple(classes)
        # p_ac^e and p_bd^f over the classes (e, f), with s - 1 = 3f + e
        left = [[[p[a][c][(s - 1) % 3] for s in self.classes] for c in range(3)]
                for a in range(3)]
        right = [[[p[b][d][(s - 1) // 3] for s in self.classes] for d in range(3)]
                 for b in range(3)]
        self.constants = {
            (single_index(a, b), single_index(c, d)):
                (*map(mul, left[a][c], right[b][d]), 0)
            for a, b, c, d in itertools.product(range(3), repeat=4)}
        self._sums = {}

    def fuse(self, partition: SetPartition) -> IntersectionTensor | tuple:
        """The fused IntersectionTensor of a partition of {2, ..., 9}, or
        the first failing pair of blocks i <= j in row-major order (the
        sums are symmetric) as (i, j, c, at_a, at_b, value_a, value_b): c
        is the smallest bad class, at_a and at_b the positions in
        ``classes`` of its first tensor class and its first that differs,
        and value_a, value_b the block sums there."""
        blocks, masks = ((1,), *partition.blocks), (0, *partition.masks)
        d = len(blocks)
        block_of = {t: k for k, block in enumerate(blocks) for t in block}
        klass = [block_of[s] for s in self.classes]
        rep = {k: klass.index(k) for k in klass}  # each class's first position
        at_rep = itemgetter(*[rep[k] for k in klass], -1)  # -1: the zero lane
        row = itemgetter(*[rep.get(k, -1) for k in range(d)])
        sums, constants = self._sums, self.constants
        p = [[None] * d for _ in range(d)]
        for i, j in itertools.combinations_with_replacement(range(d), 2):
            key = masks[i] << 8 | masks[j]
            q = sums.get(key)
            if q is None:
                q = sums[key] = tuple(map(sum, zip(*[
                    constants[s, t] for s in blocks[i] for t in blocks[j]])))
            if at_rep(q) != q:
                bad = [r for r, x in enumerate(at_rep(q)) if x != q[r]]
                c = min(klass[r] for r in bad)
                at = next(r for r in bad if klass[r] == c)
                return i, j, c, rep[c], at, q[rep[c]], q[at]
            p[i][j] = p[j][i] = row(q)
        return IntersectionTensor(tuple(map(tuple, p)),
                                  tuple(p[i][i][0] for i in range(d)))


@dataclass(frozen=True)
class IndexPermutation:
    """Permutation of {2,...,9} acting on partition names."""

    name: str
    mapping: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        d = {x: x for x in range(2, 10)}
        d.update(dict(self.mapping))
        return d


def _perm_from_index_map(name: str, f) -> IndexPermutation:
    """The permutation A_ij -> A_f(i, j) of the single indices."""
    moved = ((single_index(i, j), single_index(*f(i, j)))
             for i in range(3) for j in range(3))
    return IndexPermutation(name, tuple(sorted((x, y) for x, y in moved if x != y)))


_SIGMA = (0, 2, 1)
FLIP = _perm_from_index_map("flip", lambda i, j: (j, i))
SWITCH = _perm_from_index_map("switch", lambda i, j: (_SIGMA[i], _SIGMA[j]))


def act(perm: IndexPermutation, p: SetPartition) -> SetPartition:
    """Blockwise image of a partition, re-canonicalized."""
    d = perm.as_dict()
    return SetPartition.from_blocks([d[x] for x in block] for block in p.blocks)


# per orientation: the partition, then the wreath table's row and column labels
_WREATH = {
    1: (parse("2|3|456|789"), ("chi_00", "chi_01", "chi_02", "chi_11", "chi_21"),
        ("A_00", "A_10", "A_20", "A_01+A_11+A_21", "A_02+A_12+A_22")),
    2: (parse("258|369|4|7"), ("chi_00", "chi_10", "chi_20", "chi_11", "chi_12"),
        ("A_00", "A_01", "A_02", "A_10+A_11+A_12", "A_20+A_21+A_22")),
}


def wreath_partition(orientation: int) -> SetPartition:
    if orientation not in _WREATH:
        raise ValueError("orientation must be 1 or 2")
    return _WREATH[orientation][0]


def wreath_table(t: CharTable, orientation: int = 1) -> CharTable:
    """The 5x5 wreath-product character table, built from the display form.

    Orientation 1 keeps the first tensor factor fine (classes {A_10},
    {A_20}) and sums over the second; orientation 2 is the flip image.
    Equal to fusing the tensor square along the matching partition, which
    the test suite checks.
    """
    if len(t.rows) != 3:
        raise ValueError("wreath table is defined for 3x3 tables")
    one = Fraction(1)
    k, l = t.rows[0][1], t.rows[0][2]
    r, s = t.rows[1][1], t.rows[2][1]
    mr, ms = t.mults[1], t.mults[2]
    n = 1 + k + l
    rows = (
        (one, k, l, k * n, l * n),
        (one, k, l, r * n, (-1 - r) * n),
        (one, k, l, s * n, (-1 - s) * n),
        (one, r, -1 - r, 0 * n, 0 * n),
        (one, s, -1 - s, 0 * n, 0 * n),
    )
    wreath_partition(orientation)  # raises unless the orientation is 1 or 2
    _, row_labels, col_labels = _WREATH[orientation]
    return CharTable(row_labels, col_labels, rows, (1, mr, ms, n * mr, n * ms))
