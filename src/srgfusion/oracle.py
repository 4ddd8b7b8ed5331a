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
fused scheme has at most nine classes.

Only the products that can fail are formed: those with the identity are
known, and the last class is J minus the others, so its products follow
from the rest.  Each product of two 0/1 class matrices is exact integer
work: entry (r, c) is the popcount of row r of the left factor AND column
c of the right, both packed into uint64 words.  The popcounts accumulate in
the narrowest unsigned type that holds 64 bits per word (uint8 up to three
words, uint16 for n^2 = 256), which no entry can exceed.  A product is
tested without sorting the cells: the first row-major cell of each class
gives a per-class value table, and the product must equal the table looked
up at every cell's label.  No floating point is used.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .fusion import IndexMismatch, bm_check, fused_table
from .partitions import SetPartition, all_default_partitions
from .products import single_index, tensor_square_table
from .scheme import SrgParams, char_table, eigen_from_params


class NotStronglyRegular(ValueError):
    """The graph is not strongly regular; carries a witness vertex pair."""


class BadSpec(ValueError):
    """Unknown or invalid graph construction request."""


@dataclass(frozen=True)
class Graph01:
    """Simple graph as a dense 0/1 adjacency matrix."""

    name: str
    adjacency: np.ndarray

    def __post_init__(self):
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise BadSpec("adjacency must be square")
        if ((a != 0) & (a != 1)).any():
            raise BadSpec("adjacency entries must be 0/1")
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


def rook(m: int) -> Graph01:
    """m x m rook's graph: cells of a grid, adjacent in the same row or column."""
    if m < 2:
        raise BadSpec("rook needs m >= 2")
    i, j = divmod(np.arange(m * m), m)
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
    i, j = divmod(np.arange(m * m), m)
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


@dataclass(frozen=True)
class SchemeMatrices:
    """A symmetric scheme of ``rank`` classes as one class-label matrix:
    ``labels[x, y]`` is the class of cell (x, y) and class 0 is the
    diagonal.  Labels cannot overlap and always cover every cell, so the
    class matrices are 0/1 with supports partitioning all-ones."""

    labels: np.ndarray
    rank: int
    name: str = ""

    def __post_init__(self):
        lab = self.labels
        if lab.ndim != 2 or lab.shape[0] != lab.shape[1]:
            raise BadSpec("labels must be a square array")
        if (not np.issubdtype(lab.dtype, np.integer)
                or lab.min() < 0 or lab.max() >= self.rank):
            raise BadSpec(f"labels must be integers in 0..{self.rank - 1}")
        if ((lab == 0) != np.eye(len(lab), dtype=bool)).any():
            raise BadSpec("class 0 must be exactly the diagonal")
        if (lab != lab.T).any():
            raise BadSpec("labels must be symmetric")

    @classmethod
    def _trusted(cls, labels: np.ndarray, rank: int, name: str) -> "SchemeMatrices":
        """A scheme from labels valid by construction, built unchecked."""
        sm = object.__new__(cls)
        sm.__dict__.update(labels=labels, rank=rank, name=name)
        return sm

    @property
    def order(self) -> int:
        return self.labels.shape[0]

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The int64 0/1 class matrices, derived from the labels."""
        return tuple((self.labels == k).astype(np.int64) for k in range(self.rank))

    def valencies(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.labels[0], minlength=self.rank).tolist())


def tensor_fuse(sm: SchemeMatrices, p: SetPartition) -> SchemeMatrices:
    """Candidate basis of the fused tensor square: identity class plus one
    class per partition block, the union of its Kronecker classes."""
    if sm.rank != 3:
        raise IndexMismatch("tensor fusion needs a rank-3 scheme")
    if p.ground != frozenset(range(2, 10)):
        raise IndexMismatch(f"partition ground {sorted(p.ground)}")
    block_of = np.zeros(10, dtype=np.int8)  # single_index(0, 0) = 1 stays 0
    for b, block in enumerate(p.blocks, 1):
        block_of[sorted(block)] = b
    lab, side = sm.labels, sm.order ** 2
    tensor = single_index(lab[:, None, :, None], lab[None, :, None, :])
    # valid labels: only cells ((a, b), (a, b)) pair two diagonal cells,
    # single_index(0, 0) = 1 sends them to class 0, every other index lies
    # in a block, and the symmetric sm.labels give a symmetric tensor
    return SchemeMatrices._trusted(block_of.take(tensor.reshape(side, side)),
                                   p.num_blocks + 1, f"{sm.name} fused {p}")


@dataclass(frozen=True)
class IntersectionTensor:
    """Structure constants p[i][j][k] with M_i M_j = sum_k p[i][j][k] M_k."""

    p: tuple[tuple[tuple[int, ...], ...], ...]
    valencies: tuple[int, ...]


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
    """Rows of a 0/1 matrix as bits: word w of row r sits at [w, r]."""
    rows, cols = m.shape
    words = -(-cols // 64)
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, :-(-cols // 8)] = np.packbits(m.astype(np.uint8), axis=1)
    return np.ascontiguousarray(packed.view(np.uint64).T)


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


def product01(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int64 product a @ b of two 0/1 matrices, by popcounts."""
    return _popcount_product(_pack_rows(a), _pack_rows(b.T)).astype(np.int64)


def verify_scheme(sm: SchemeMatrices) -> IntersectionTensor | FailureWitness:
    """Decide whether the matrices span an algebra, by support constancy.

    For each product M_i M_j and each class M_k, all entries of the product
    over the support of M_k must agree; the common values are then the
    intersection numbers.  Pairs (i, j), i <= j, and classes k are scanned
    in order, and the first inconsistency is returned as a witness.

    Each product is read at the first row-major cell of every class, which
    fills a value table indexed by class, and compared with that table at
    every cell's label.  On a mismatch the witness class is the smallest
    class with a bad cell, cell_a is its first cell and cell_b its first
    bad cell in row-major order: the order of a scan of the cells class by
    class.  Products are uint8 or uint16 (see _popcount_product); the
    intersection numbers and witness values are Python ints.

    Two kinds of product need no matrix work, and neither can hold the
    first inconsistency:
    - M_0 = I, so p[0][j][k] is 1 when j = k and 0 otherwise.
    - The classes sum to J, so M_i M_{d-1} = M_i J - sum_{t<d-1} M_i M_t.
      M_i J = v_i J because M_i has constant row sums: for i < d-1 they are
      the diagonal of M_i M_i (M_i is symmetric and 0/1), checked on the
      identity class earlier in the scan, and M_{d-1} has what the others
      leave of n.  Once every M_i M_t with t < d-1 passes, p[i][d-1][k] is
      v_i minus the sum of the p[i][t][k].
    Empty classes have no cells to check and keep p = 0.
    """
    lab = sm.labels
    d, n = sm.rank, sm.order
    valencies = sm.valencies()
    flat = lab.ravel()
    # the first row-major cell of each present class
    present, first = [], []
    for k in range(d):
        at = int(np.argmax(flat == k))
        if flat[at] == k:
            present.append(k)
            first.append(at)
    # the classes are symmetric, so packed rows are also packed columns
    packed = {k: _pack_rows(lab == k) for k in range(1, d - 1)}
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    for j in present:
        p[0][j][j] = p[j][0][j] = 1
    for i in range(1, d - 1):
        for j in range(i, d - 1):
            vals = _popcount_product(packed[i], packed[j]).ravel()
            firsts = vals[first]
            value_of = np.zeros(d, dtype=vals.dtype)
            value_of[present] = firsts
            bad = vals != value_of.take(flat)
            if bad.any():
                c = int(flat[bad].min())
                at = int(np.argmax(bad & (flat == c)))
                return FailureWitness(
                    i, j, c,
                    divmod(first[present.index(c)], n), divmod(at, n),
                    int(value_of[c]), int(vals[at]),
                )
            for k, value in zip(present, firsts.tolist()):
                p[i][j][k] = p[j][i][k] = value
    last = d - 1
    for i in range(1, d):
        for k in present:
            p[i][last][k] = p[last][i][k] = valencies[i] - sum(
                p[i][t][k] for t in range(last))
    return IntersectionTensor(
        tuple(tuple(tuple(row) for row in plane) for plane in p),
        valencies,
    )


_PAIRS = ("diagonal", "adjacent", "non-adjacent")


def _srg_scheme(g: Graph01) -> tuple[SchemeMatrices, SrgParams]:
    """The rank-3 basis {I, A, J - I - A} as labels 0, 1, 2, a scheme iff g
    is strongly regular, and (n, k, mu, nu) read off its intersection numbers.

    One ``verify_scheme`` call multiplies A by itself and checks A^2 on the
    diagonal (the degrees), then on the adjacent and the non-adjacent pairs;
    a failure raises with the witness pair of cells it found.
    """
    labels = (2 - g.adjacency).astype(np.int8)
    np.fill_diagonal(labels, 0)
    sm = SchemeMatrices(labels, 3, g.name)
    result = verify_scheme(sm)
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
    the exact tensor-square character table; the matrix side from support
    constancy of the class products of the fused tensor square.
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


def fused_valencies_match(g: Graph01, p: SetPartition) -> bool:
    """Oracle fused valencies equal the fused character table's valency row."""
    sm, params = _srg_scheme(g)
    result = verify_scheme(tensor_fuse(sm, p))
    if not isinstance(result, IntersectionTensor):
        return False
    table = tensor_square_table(char_table(eigen_from_params(params)))
    return result.valencies == fused_table(table, p).valency_row()
