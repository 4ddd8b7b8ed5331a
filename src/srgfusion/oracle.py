"""Adjacency-matrix ground truth for fusion verdicts.

Everything the character-table criterion claims can be checked directly on
matrices: build a graph, fuse the tensor square of its 0/1 basis
{I, A, J-I-A} along a candidate partition, and test whether the fused
classes span an algebra by checking that each product of two classes is
constant on the support of every class.  Success yields the intersection
numbers; failure yields a concrete witness pair of cells.  Each graph is
one adjacency relation, broadcast over its vertex labels, and the same
test on its own basis decides strong regularity and reads off (k, mu, nu).

A scheme is stored as one class-label matrix: entry (x, y) is the index
of the class that contains cell (x, y), so each 0/1 class matrix is a level
set of the labels.  Fusing the tensor square needs no Kronecker products:
cell ((a, b), (c, d)) lies in tensor class single_index(L[a, c], L[b, d]),
and a 10-entry table maps that to its block.  Labels are int8, since a
fused scheme has at most nine classes.  A fused scheme holds its base and
partition, and builds its n^2 x n^2 labels only when they are read.

A graph's basis {I, A, J-I-A} is a scheme exactly when the graph is
strongly regular.  Each base caches its own verdict, reached by
multiplying its labels in full, by exact popcounts of packed rows with no
floating point, and tensor_fuse refuses a base that fails it.  A fused
square of a verified base needs no matrix: the base's KroneckerSquare
decides it from its intersection numbers (see verify_scheme).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fusion import IndexMismatch, bm_check
from .partitions import SetPartition, all_default_partitions
from .products import (IntersectionTensor, KroneckerSquare, single_index,
                       tensor_square_table)
from .scheme import SrgParams, char_table, eigen_from_params


class NotStronglyRegular(ValueError):
    """The graph is not strongly regular; carries a witness vertex pair."""


class BadSpec(ValueError):
    """Unknown or invalid graph construction request."""


@dataclass(frozen=True, eq=False)
class Graph01:
    """Simple graph as a dense 0/1 adjacency matrix.  No construction is
    trusted to be strongly regular: the basis {I, A, J - I - A} is checked
    to be a scheme (see _srg_scheme), which lets its intersection numbers
    decide its fused squares.  Graphs compare and hash by identity."""

    name: str
    adjacency: np.ndarray

    def __post_init__(self):
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise BadSpec("adjacency must be a nonempty square array")
        if not np.issubdtype(a.dtype, np.integer) or ((a != 0) & (a != 1)).any():
            raise BadSpec("adjacency entries must be integers 0/1")
        if (a != a.T).any():
            raise BadSpec("adjacency must be symmetric")
        if np.diagonal(a).any():
            raise BadSpec("diagonal must be zero")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _relation(name: str, adjacent: np.ndarray) -> Graph01:
    """The graph on vertices 0..n-1 joined where the boolean n x n
    ``adjacent`` holds off the diagonal."""
    a = adjacent.astype(np.int64)
    np.fill_diagonal(a, 0)
    return Graph01(name, a)


def union_cliques(copies: int, size: int) -> Graph01:
    """Disjoint union of ``copies`` complete graphs on ``size`` vertices."""
    if copies < 2 or size < 2:
        raise BadSpec("need at least two cliques of size at least two")
    clique = np.arange(copies * size) // size
    return _relation(f"union_cliques({copies},{size})", clique[:, None] == clique)


def complete_multipartite(parts: int, size: int) -> Graph01:
    g = union_cliques(parts, size)
    return _relation(f"complete_multipartite({parts},{size})", g.adjacency == 0)


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % f for f in range(2, math.isqrt(q) + 1))


def paley(q: int) -> Graph01:
    """Paley graph on a prime q = 1 (mod 4): join x ~ y iff x-y is a square."""
    if not _is_prime(q) or q % 4 != 1:
        raise BadSpec(f"paley needs a prime q = 1 mod 4, got {q}")
    x = np.arange(q)
    square = np.zeros(q, dtype=bool)
    square[x * x % q] = True
    return _relation(f"paley({q})", square[(x[:, None] - x) % q])


def _grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each cell i * m + j of an m x m grid."""
    return divmod(np.arange(m * m), m)


def rook(m: int) -> Graph01:
    """m x m rook's graph: cells of a grid, adjacent in the same row or column."""
    if m < 2:
        raise BadSpec("rook needs m >= 2")
    i, j = _grid(m)
    return _relation(f"rook({m})", (i[:, None] == i) | (j[:, None] == j))


def clebsch() -> Graph01:
    """Folded 5-cube: 4-bit strings adjacent at Hamming distance 1 or 4."""
    x = np.arange(16)
    d = np.bitwise_count(x[:, None] ^ x)
    return _relation("clebsch", (d == 1) | (d == 4))


def petersen() -> Graph01:
    """Kneser graph on 2-subsets of a 5-set, adjacent when disjoint."""
    pair = np.array([(1 << u) | (1 << v)
                     for u, v in itertools.combinations(range(5), 2)])
    return _relation("petersen", (pair[:, None] & pair) == 0)


def latin_square_graph(m: int) -> Graph01:
    """Cells of the cyclic-group Cayley table, adjacent when they share a
    row, column, or symbol; strongly regular with mu = nu for every m >= 4."""
    if m < 4:
        raise BadSpec("latin_square_graph needs m >= 4")
    i, j = _grid(m)
    symbol = (i + j) % m
    return _relation(f"latin_square_graph({m})", (i[:, None] == i)
                     | (j[:, None] == j) | (symbol[:, None] == symbol))


def complement(g: Graph01) -> Graph01:
    return _relation(f"complement({g.name})", g.adjacency == 0)


# spec patterns; the integer groups are the builder's arguments
_SPECS = (
    (r"petersen", petersen),
    (r"clebsch", clebsch),
    (r"paley(\d+)", paley),
    (r"rook(\d+)", rook),
    (r"latin(\d+)", latin_square_graph),
    (r"cliques(\d+)x(\d+)", union_cliques),
    (r"multipartite(\d+)x(\d+)", complete_multipartite),
)


def build_graph(spec: str) -> Graph01:
    """Build a named graph: petersen, clebsch, paley<q>, rook<m>,
    cliques<c>x<s>, multipartite<p>x<s>, latin<m>, or complement:<spec>."""
    spec = spec.strip().lower()
    if spec.startswith("complement:"):
        return complement(build_graph(spec.split(":", 1)[1]))
    for pattern, fn in _SPECS:
        match = re.fullmatch(pattern, spec)
        if match:
            return fn(*map(int, match.groups()))
    raise BadSpec(f"unknown graph spec {spec!r}")


@dataclass(frozen=True, eq=False)
class SchemeMatrices:
    """A symmetric scheme of ``rank`` classes as one class-label matrix:
    ``labels[x, y]`` is the class of cell (x, y) and class 0 is the
    diagonal.  Labels cannot overlap and always cover every cell, so the
    class matrices are 0/1 with supports partitioning all-ones.
    Schemes compare and hash by identity."""

    labels: np.ndarray
    rank: int
    name: str = ""

    def __post_init__(self):
        lab = self.labels
        if lab.ndim != 2 or lab.shape[0] != lab.shape[1] or not lab.size:
            raise BadSpec("labels must be a nonempty square array")
        if (not np.issubdtype(lab.dtype, np.integer)
                or lab.min() < 0 or lab.max() >= self.rank):
            raise BadSpec(f"labels must be integers in 0..{self.rank - 1}")
        if ((lab == 0) != np.eye(len(lab), dtype=bool)).any():
            raise BadSpec("class 0 must be exactly the diagonal")
        if (lab != lab.T).any():
            raise BadSpec("labels must be symmetric")

    @classmethod
    def _trusted(cls, **fields) -> "SchemeMatrices":
        """A scheme from fields valid by construction, built unchecked."""
        sm = object.__new__(cls)
        sm.__dict__.update(fields)
        return sm

    @property
    def order(self) -> int:
        return len(self.labels)

    @cached_property
    def verdict(self) -> IntersectionTensor | FailureWitness:
        """verify_scheme(self), computed once: whether the labels are a
        scheme, and so tensor_fuse's licence to use its numbers."""
        return verify_scheme(self)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The int64 0/1 class matrices, derived from the labels."""
        return tuple((self.labels == k).astype(np.int64) for k in range(self.rank))

    @cached_property
    def row0_cells(self) -> dict[int, int]:
        """single_index(e, f) -> first_e * n + first_f, in cell order: the
        first row-0 cell of each tensor class of this rank-3 scheme's square
        that meets row 0, where base class e first meets it at first_e."""
        head, n = self.labels[0].tolist(), self.order
        first = {e: head.index(e) for e in range(3) if e in head}
        cells = sorted((first[e] * n + first[f], single_index(e, f))
                       for e in first for f in first)
        return {s: cell for cell, s in cells}

    @cached_property
    def square(self) -> KroneckerSquare:
        """The KroneckerSquare of this verified rank-3 scheme's intersection
        numbers, over the tensor classes of row0_cells, built once."""
        return KroneckerSquare(self.verdict.p, self.row0_cells)

    def valencies(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.labels[0], minlength=self.rank).tolist())


class _FusedSquare(SchemeMatrices):
    """A fusion of the tensor square of the verified scheme ``base``, held
    as its ``partition``.  verify_scheme decides it by the base's square;
    the n^2 x n^2 labels are built only when read."""

    @property
    def order(self) -> int:
        return self.base.order ** 2

    @cached_property
    def labels(self) -> np.ndarray:
        block_of = np.zeros(10, dtype=np.int8)  # single_index(0, 0) = 1 stays 0
        for b, block in enumerate(self.partition.blocks, 1):
            block_of[list(block)] = b
        lab = self.base.labels
        tensor = single_index(lab[:, None, :, None], lab[None, :, None, :])
        return block_of.take(tensor.reshape(self.order, self.order))


def tensor_fuse(sm: SchemeMatrices, p: SetPartition) -> SchemeMatrices:
    """Candidate basis of the fused tensor square: identity class plus one
    class per partition block, the union of its Kronecker classes, held as
    the partition alone.  A rank-3 labelling that is not a scheme is
    refused, so that its numbers never decide the square of one."""
    if sm.rank != 3 or isinstance(sm.verdict, FailureWitness):
        raise IndexMismatch("tensor fusion needs a rank-3 scheme")
    if p.ground != frozenset(range(2, 10)):
        raise IndexMismatch(f"partition ground {sorted(p.ground)}")
    # valid labels: only cells ((a, b), (a, b)) pair two diagonal cells,
    # single_index(0, 0) = 1 sends them to class 0, every other index lies
    # in a block, and the symmetric sm.labels give a symmetric tensor
    return _FusedSquare._trusted(rank=p.num_blocks + 1, partition=p, base=sm,
                                 name=f"{sm.name} fused {p}")


@dataclass(frozen=True)
class FailureWitness:
    i: int
    j: int
    klass: int
    cell_a: tuple[int, int]
    cell_b: tuple[int, int]
    value_a: int
    value_b: int


def _pack_rows(m: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix, or of a stack of them, as bits: word w of row
    r sits at [w, r], or at [w, t, r] for the t-th matrix of a stack."""
    cols = m.shape[-1]
    words = -(-cols // 64)
    packed = np.zeros((*m.shape[:-1], 8 * words), dtype=np.uint8)
    packed[..., :-(-cols // 8)] = np.packbits(m, axis=-1)
    return np.ascontiguousarray(np.moveaxis(packed.view(np.uint64), -1, 0))


# cells of the product formed per row chunk; bounds the temporaries
_CHUNK_CELLS = 1 << 16


def _popcount_product(a_rows: np.ndarray, b_cols: np.ndarray) -> np.ndarray:
    """a @ b from the packed rows of a and the packed columns of b, in the
    narrowest unsigned type that holds 64 * words: an entry counts at most
    that many bits, so it cannot wrap."""
    words, n = a_rows.shape
    m = b_cols.shape[1]
    out = np.zeros((n, m), dtype=np.min_scalar_type(64 * words))
    step = max(1, _CHUNK_CELLS // m)
    for r in range(0, n, step):
        chunk = out[r:r + step]
        for w in range(words):
            chunk += np.bitwise_count(a_rows[w, r:r + step, None] & b_cols[w])
    return out


def verify_scheme(sm: SchemeMatrices) -> IntersectionTensor | FailureWitness:
    """Decide whether the matrices span an algebra, by support constancy.

    For each product M_i M_j and each class M_k, all entries of the product
    over the support of M_k must agree; the common values are then the
    intersection numbers.  Pairs (i, j), i <= j, are scanned in order, and
    the first that goes wrong gives the witness: its smallest class with a
    bad cell, cell_a that class's first cell and cell_b its first bad cell
    in row-major order, the order of a scan of the cells class by class.

    Plain labels are multiplied in full, every pair 1 <= i <= j <= d-1;
    M_0 = I needs no product, since p[0][j][k] is 1 when j = k and 0
    otherwise.  Each product is read at the first row-major cell of every
    class, which fills a value table indexed by class, and compared with
    that table at every cell's label.  The classes are symmetric, so their
    packed rows are also their packed columns.  Products are uint8 or
    uint16 (see _popcount_product); the intersection numbers and witness
    values are Python ints.  Empty classes have no cells to check and keep
    p = 0.

    A fused square (tensor_fuse's result) needs no matrix: the base's
    square, a products.KroneckerSquare, gives each product of fused classes
    on every tensor class.  A nonempty tensor class has the same valency at
    every vertex of a scheme, so it meets row 0; with the tensor classes in
    the order of their first row-0 cells, the witness is then that of the
    same labels as a plain SchemeMatrices.
    """
    if isinstance(sm, _FusedSquare):
        got = sm.base.square.fuse(sm.partition)
        if isinstance(got, IntersectionTensor):
            return got
        i, j, c, at_a, at_b, value_a, value_b = got
        cells = [*sm.base.row0_cells.values()]
        return FailureWitness(i, j, c, (0, cells[at_a]), (0, cells[at_b]),
                              value_a, value_b)
    d, n = sm.rank, sm.order
    cells = sm.labels.ravel()
    hits = cells == np.arange(d, dtype=cells.dtype)[:, None]
    present = np.flatnonzero(hits.any(axis=1))
    first = hits.argmax(axis=1)  # the first cell of each present class
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    for j in present.tolist():
        p[0][j][j] = p[j][0][j] = 1
    bits = _pack_rows(hits[1:].reshape(d - 1, n, n))
    for i, j in itertools.combinations_with_replacement(range(1, d), 2):
        product = _popcount_product(bits[:, i - 1], bits[:, j - 1]).ravel()
        # value_of keeps the product's dtype, so the compares stay narrow
        value_of = np.zeros(d, dtype=product.dtype)
        value_of[present] = product[first[present]]
        bad = product != value_of.take(cells)
        if bad.any():
            c = int(cells[bad].min())
            at = int(np.argmax(bad & (cells == c)))
            return FailureWitness(i, j, c, divmod(int(first[c]), n),
                                  divmod(at, n), int(value_of[c]),
                                  int(product[at]))
        p[i][j] = p[j][i] = value_of.tolist()
    return IntersectionTensor(tuple(tuple(map(tuple, plane)) for plane in p),
                              sm.valencies())


_PAIRS = ("diagonal", "adjacent", "non-adjacent")


def _srg_scheme(g: Graph01) -> tuple[SchemeMatrices, SrgParams]:
    """The rank-3 basis {I, A, J - I - A} as labels 0, 1, 2, a scheme iff g
    is strongly regular, and (n, k, mu, nu) read off its intersection numbers.

    One ``verify_scheme`` call, cached as the scheme's ``verdict``,
    multiplies A by itself and checks A^2 on the diagonal (the degrees),
    then on the adjacent and the non-adjacent pairs; a failure raises with
    the witness pair of cells it found.
    """
    labels = (2 - g.adjacency).astype(np.int8)
    np.fill_diagonal(labels, 0)
    # valid labels of a valid graph
    sm = SchemeMatrices._trusted(labels=labels, rank=3, name=g.name)
    result = sm.verdict
    if isinstance(result, FailureWitness):
        raise NotStronglyRegular(
            f"{g.name}: {_PAIRS[result.klass]} pairs {result.cell_a} and "
            f"{result.cell_b} have {result.value_a} vs {result.value_b} "
            "common neighbours")
    _, mu, nu = result.p[1][1]
    return sm, SrgParams(g.n, result.valencies[1], mu, nu)


def srg_params(g: Graph01) -> SrgParams:
    """(n, k, mu, nu) of g; raises NotStronglyRegular with a witness pair."""
    return _srg_scheme(g)[1]


def scheme_matrices(g: Graph01) -> SchemeMatrices:
    """The rank-3 basis {I, A, J - I - A}; validates strong regularity."""
    return _srg_scheme(g)[0]


@dataclass(frozen=True)
class CrossCheckReport:
    graph: str
    checked: int
    positives: int
    disagreements: tuple[tuple[str, bool, bool], ...]  # partition, criterion, oracle

    @property
    def clean(self) -> bool:
        return not self.disagreements


def cross_check(g: Graph01, partitions=None) -> CrossCheckReport:
    """Compare the character-table criterion against matrix verification.

    For each partition, the table-side verdict comes from column sums of
    the exact tensor-square character table; the matrix side from
    verify_scheme of the fused tensor square, which the KroneckerSquare of
    the graph's verified basis decides.  The base is multiplied once, so a
    partition costs the same at every n.
    """
    sm, params = _srg_scheme(g)
    table = tensor_square_table(char_table(eigen_from_params(params)))
    if partitions is None:
        partitions = all_default_partitions()
    disagreements = []
    positives = 0
    for p in partitions:
        criterion = bm_check(table, p).is_fusion
        oracle = isinstance(verify_scheme(tensor_fuse(sm, p)), IntersectionTensor)
        positives += criterion
        if criterion != oracle:
            disagreements.append((str(p), criterion, oracle))
    return CrossCheckReport(g.name, len(partitions), positives, tuple(disagreements))

