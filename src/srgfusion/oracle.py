"""Adjacency-matrix ground truth for fusion verdicts.

Everything the character-table criterion claims can be checked directly on
matrices: build a strongly regular graph, form the 0/1 basis {I, A, J-I-A},
take Kronecker products for the tensor square, sum them along a candidate
partition, and test whether the resulting matrices span an algebra by
checking that each product of two classes is constant on the support of
every class.  Success yields the intersection numbers; failure yields a
concrete witness pair of cells.

Only the products that can fail are formed: those with the identity are
known, and the last class is J minus the others, so its products follow
from the rest.  Each product of two 0/1 matrices is exact integer work:
entry (r, c) is the popcount of row r of the left factor AND column c of
the right, both packed into uint64 words.  No floating point is used.

Matrices are dense int64 numpy arrays; entries stay far below 2**63 for
all graphs used here (n <= 36, so tensor entries are at most n^2 = 1296).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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


def _complete(n: int) -> np.ndarray:
    return np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)


def union_cliques(copies: int, size: int) -> Graph01:
    """Disjoint union of ``copies`` complete graphs on ``size`` vertices."""
    if copies < 2 or size < 2:
        raise BadSpec("need at least two cliques of size at least two")
    blocks = [_complete(size)] * copies
    n = copies * size
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(copies):
        a[i * size:(i + 1) * size, i * size:(i + 1) * size] = blocks[i]
    return Graph01(f"union_cliques({copies},{size})", a)


def complete_multipartite(parts: int, size: int) -> Graph01:
    g = union_cliques(parts, size)
    return Graph01(f"complete_multipartite({parts},{size})", complement(g).adjacency)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def paley(q: int) -> Graph01:
    """Paley graph on a prime q = 1 (mod 4): join x ~ y iff x-y is a square."""
    if not _is_prime(q) or q % 4 != 1:
        raise BadSpec(f"paley needs a prime q = 1 mod 4, got {q}")
    squares = {(x * x) % q for x in range(1, q)}
    a = np.zeros((q, q), dtype=np.int64)
    for x in range(q):
        for y in range(q):
            if x != y and (x - y) % q in squares:
                a[x, y] = 1
    return Graph01(f"paley({q})", a)


def rook(m: int) -> Graph01:
    """m x m rook's graph: cells of a grid, adjacent in the same row or column."""
    if m < 2:
        raise BadSpec("rook needs m >= 2")
    n = m * m
    a = np.zeros((n, n), dtype=np.int64)
    for (i, j), (x, y) in itertools.product(
        itertools.product(range(m), repeat=2), repeat=2
    ):
        if (i, j) != (x, y) and (i == x or j == y):
            a[i * m + j, x * m + y] = 1
    return Graph01(f"rook({m})", a)


def clebsch() -> Graph01:
    """Folded 5-cube: 4-bit strings adjacent at Hamming distance 1 or 4."""
    n = 16
    a = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            d = bin(x ^ y).count("1")
            if d in (1, 4):
                a[x, y] = 1
    return Graph01("clebsch", a)


def petersen() -> Graph01:
    """Kneser graph on 2-subsets of a 5-set, adjacent when disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    n = len(verts)
    a = np.zeros((n, n), dtype=np.int64)
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if not set(u) & set(v):
                a[i, j] = 1
    return Graph01("petersen", a)


def latin_square_graph(m: int) -> Graph01:
    """Cells of the cyclic-group Cayley table, adjacent when they share a
    row, column, or symbol; strongly regular with mu = nu for every m >= 4."""
    if m < 4:
        raise BadSpec("latin_square_graph needs m >= 4")
    n = m * m
    a = np.zeros((n, n), dtype=np.int64)
    for (i, j), (x, y) in itertools.product(
        itertools.product(range(m), repeat=2), repeat=2
    ):
        if (i, j) != (x, y) and (i == x or j == y or (i + j) % m == (x + y) % m):
            a[i * m + j, x * m + y] = 1
    return Graph01(f"latin_square_graph({m})", a)


def complement(g: Graph01) -> Graph01:
    n = g.n
    a = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64) - g.adjacency
    return Graph01(f"complement({g.name})", a)


_BUILDERS = {
    "petersen": petersen,
    "clebsch": clebsch,
}


def build_graph(spec: str) -> Graph01:
    """Build a named graph: petersen, clebsch, paley<q>, rook<m>,
    cliques<c>x<s>, multipartite<p>x<s>, latin<m>, or complement:<spec>."""
    spec = spec.strip().lower()
    if spec.startswith("complement:"):
        return complement(build_graph(spec.split(":", 1)[1]))
    if spec in _BUILDERS:
        return _BUILDERS[spec]()
    for prefix, fn in (("paley", paley), ("rook", rook), ("latin", latin_square_graph)):
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            return fn(int(spec[len(prefix):]))
    for prefix, fn in (("cliques", union_cliques), ("multipartite", complete_multipartite)):
        if spec.startswith(prefix) and "x" in spec[len(prefix):]:
            a, _, b = spec[len(prefix):].partition("x")
            if a.isdigit() and b.isdigit():
                return fn(int(a), int(b))
    raise BadSpec(f"unknown graph spec {spec!r}")


@dataclass(frozen=True)
class SchemeMatrices:
    """Ordered 0/1 matrices with disjoint supports summing to all-ones."""

    matrices: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        if any(((m != 0) & (m != 1)).any() for m in self.matrices):
            raise BadSpec("matrices must be 0/1")
        total = sum(m for m in self.matrices)
        n = self.matrices[0].shape[0]
        if not (total == np.ones((n, n), dtype=np.int64)).all():
            raise BadSpec("supports must partition the all-ones matrix")
        if not (self.matrices[0] == np.eye(n, dtype=np.int64)).all():
            raise BadSpec("first matrix must be the identity")
        for m in self.matrices:
            if (m != m.T).any():
                raise BadSpec("matrices must be symmetric")

    @property
    def order(self) -> int:
        return self.matrices[0].shape[0]

    def valencies(self) -> tuple[int, ...]:
        return tuple(int(m.sum(axis=1)[0]) for m in self.matrices)


def srg_params(g: Graph01) -> SrgParams:
    """Read (n, k, mu, nu) off the graph, or raise with a witness pair."""
    a = g.adjacency
    n = g.n
    deg = a.sum(axis=1)
    if (deg != deg[0]).any():
        u = int(np.argmax(deg != deg[0]))
        raise NotStronglyRegular(f"{g.name}: vertex {u} has degree {deg[u]} != {deg[0]}")
    k = int(deg[0])
    a2 = a @ a
    adj_mask = a > 0
    non_mask = (a == 0) & ~np.eye(n, dtype=bool)
    for mask, label in ((adj_mask, "adjacent"), (non_mask, "non-adjacent")):
        vals = a2[mask]
        if vals.size and (vals != vals[0]).any():
            cells = np.argwhere(mask)
            first = cells[0]
            bad = cells[int(np.argmax(vals != vals[0]))]
            raise NotStronglyRegular(
                f"{g.name}: {label} pairs {tuple(first)} and {tuple(bad)} have "
                f"{a2[tuple(first)]} vs {a2[tuple(bad)]} common neighbours"
            )
    mu = int(a2[adj_mask][0]) if adj_mask.any() else 0
    nu = int(a2[non_mask][0]) if non_mask.any() else 0
    return SrgParams(n, k, mu, nu)


def scheme_matrices(g: Graph01) -> SchemeMatrices:
    """The rank-3 basis {I, A, J - I - A}; validates strong regularity."""
    srg_params(g)
    n = g.n
    eye = np.eye(n, dtype=np.int64)
    return SchemeMatrices(
        (eye, g.adjacency.astype(np.int64), complement(g).adjacency), g.name
    )


def tensor_fuse(sm: SchemeMatrices, p: SetPartition) -> SchemeMatrices:
    """Candidate basis of the fused tensor square: identity class plus one
    summed Kronecker matrix per partition block."""
    if len(sm.matrices) != 3:
        raise IndexMismatch("tensor fusion needs a rank-3 scheme")
    if p.ground != frozenset(range(2, 10)):
        raise IndexMismatch(f"partition ground {sorted(p.ground)}")
    n = sm.order
    eye = np.eye(n * n, dtype=np.int64)
    mats = [eye]
    for block in p.blocks:
        total = np.zeros((n * n, n * n), dtype=np.int64)
        for i in range(3):
            for j in range(3):
                if single_index(i, j) in block:
                    total += np.kron(sm.matrices[i], sm.matrices[j])
        mats.append(total)
    return SchemeMatrices(tuple(mats), f"{sm.name} fused {p}")


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
    """a @ b from the packed rows of a and the packed columns of b."""
    words, n = a_rows.shape
    m = b_cols.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // m)
    for r in range(0, n, step):
        chunk = out[r:r + step]
        for w in range(words):
            chunk += np.bitwise_count(a_rows[w, r:r + step, None] & b_cols[w])
    return out


def product01(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int64 product a @ b of two 0/1 matrices, by popcounts."""
    return _popcount_product(_pack_rows(a), _pack_rows(b.T))


def verify_scheme(sm: SchemeMatrices) -> IntersectionTensor | FailureWitness:
    """Decide whether the matrices span an algebra, by support constancy.

    For each product M_i M_j and each class M_k, all entries of the product
    over the support of M_k must agree; the common values are then the
    intersection numbers.  Pairs (i, j), i <= j, and classes k are scanned
    in order, and the first inconsistency is returned as a witness.

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
    mats = sm.matrices
    d, n = len(mats), sm.order
    valencies = sm.valencies()
    # cells of each class in row-major order, concatenated class by class
    cells = [np.flatnonzero(m) for m in mats]
    order = np.concatenate(cells)
    present = [k for k in range(d) if cells[k].size]
    counts = [cells[k].size for k in present]
    starts = np.cumsum([0] + counts[:-1])
    packed = [_pack_rows(m) for m in mats]  # symmetric: rows are columns
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    for j in present:
        p[0][j][j] = p[j][0][j] = 1
    for i in range(1, d - 1):
        for j in range(i, d - 1):
            vals = _popcount_product(packed[i], packed[j]).ravel()[order]
            firsts = vals[starts]
            bad = vals != np.repeat(firsts, counts)
            if bad.any():
                at = int(np.argmax(bad))
                c = int(np.searchsorted(starts, at, side="right")) - 1
                return FailureWitness(
                    i, j, present[c],
                    divmod(int(order[starts[c]]), n),
                    divmod(int(order[at]), n),
                    int(firsts[c]), int(vals[at]),
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
    constancy of the class products of the fused Kronecker basis.
    """
    sm = scheme_matrices(g)
    params = srg_params(g)
    table = tensor_square_table(char_table(eigen_from_params(params)))
    if partitions is None:
        partitions = all_default_partitions()
    disagreements = []
    positives = 0
    for p in partitions:
        criterion = bm_check(table, p).is_fusion
        oracle = isinstance(verify_scheme(tensor_fuse(sm, p)), IntersectionTensor)
        if criterion:
            positives += 1
        if criterion != oracle:
            disagreements.append((str(p), criterion, oracle))
    return CrossCheckReport(g.name, len(partitions), positives, tuple(disagreements))


def fused_valencies_match(g: Graph01, p: SetPartition) -> bool:
    """Oracle fused valencies equal the fused character table's valency row."""
    sm = scheme_matrices(g)
    result = verify_scheme(tensor_fuse(sm, p))
    if not isinstance(result, IntersectionTensor):
        return False
    table = tensor_square_table(char_table(eigen_from_params(srg_params(g))))
    expected = [Fraction(v) for v in fused_table(table, p).valency_row()]
    return [Fraction(v) for v in result.valencies] == expected
