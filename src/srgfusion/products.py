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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    rows = []
    labels = []
    mults = []
    for (i, j) in TENSOR_ROW_ORDER:
        rows.append(
            tuple(t.rows[i][a] * t.rows[j][b] for (a, b) in TENSOR_COL_ORDER)
        )
        labels.append(f"chi_{i}{j}")
        mults.append(t.mults[i] * t.mults[j])
    col_labels = tuple(f"A_{a}{b}" for (a, b) in TENSOR_COL_ORDER)
    return CharTable(tuple(labels), col_labels, tuple(rows), tuple(mults))


@dataclass(frozen=True)
class IndexPermutation:
    """Permutation of {2,...,9} acting on partition names."""

    name: str
    mapping: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        d = {x: x for x in range(2, 10)}
        d.update(dict(self.mapping))
        return d

    def compose(self, other: "IndexPermutation") -> "IndexPermutation":
        """self after other."""
        d = self.as_dict()
        e = other.as_dict()
        comp = tuple(sorted((x, d[e[x]]) for x in range(2, 10) if d[e[x]] != x))
        return IndexPermutation(f"{self.name}*{other.name}", comp)

    def is_involution(self) -> bool:
        d = self.as_dict()
        return all(d[d[x]] == x for x in d)


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


WREATH_PARTITION_1 = parse("2|3|456|789")
WREATH_PARTITION_2 = parse("258|369|4|7")


def wreath_partition(orientation: int) -> SetPartition:
    if orientation == 1:
        return WREATH_PARTITION_1
    if orientation == 2:
        return WREATH_PARTITION_2
    raise ValueError("orientation must be 1 or 2")


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
    mults = (1, mr, ms, n * mr, n * ms)
    if orientation == 1:
        row_labels = ("chi_00", "chi_01", "chi_02", "chi_11", "chi_21")
        col_labels = ("A_00", "A_10", "A_20", "A_01+A_11+A_21", "A_02+A_12+A_22")
    elif orientation == 2:
        row_labels = ("chi_00", "chi_10", "chi_20", "chi_11", "chi_12")
        col_labels = ("A_00", "A_01", "A_02", "A_10+A_11+A_12", "A_20+A_21+A_22")
    else:
        raise ValueError("orientation must be 1 or 2")
    return CharTable(row_labels, col_labels, rows, mults)
