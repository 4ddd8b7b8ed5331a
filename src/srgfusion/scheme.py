"""Strongly regular graph parameters, eigenvalues, and character tables.

Parameter convention: an SRG has parameters (n, k, mu, nu) where mu counts
common neighbours of *adjacent* pairs and nu of *non-adjacent* pairs.  (The
more common convention calls these lambda and mu; here the adjacent count is
mu throughout, matching the identity A1^2 = k*A0 + mu*A1 + nu*A2.)

The adjacency algebra of an SRG is a symmetric rank-3 association scheme
with character table (first eigenmatrix)

        [ 1   k     l   ]   multiplicity 1
        [ 1   r   -1-r  ]   multiplicity f
        [ 1   s   -1-s  ]   multiplicity g

where l = n - k - 1 and r > s are the nontrivial eigenvalues of A1, and
``rank3_table`` is its one statement, which every table derives from.  All
derived quantities are exact.  Only ``eigen_from_values`` derives the
multiplicities f, g from (k, l, r, s), by column orthogonality; conference
graphs get quadratic-irrational eigenvalues and forced equal multiplicities.

Imprimitive cases: k = r (equivalently s = -1, disjoint union of cliques)
and its complement-partner r = 0 (equivalently l = -1-s, complete
multipartite).  Everything else with k > r > 0 and s < -1 is primitive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .exact import (
    QuadraticValue,
    _quadratic_roots_exact,
    basis_terms,
    scalar_sign,
    value_to_json,
)


class InfeasibleParams(ValueError):
    """Parameters fail a consistency or nonnegativity requirement."""


class NonIntegralMultiplicity(ValueError):
    """Eigenvalue multiplicities came out non-integral in graph mode."""


@dataclass(frozen=True)
class SrgParams:
    """SRG parameter tuple (n, k, mu, nu); mu = adjacent common neighbours."""

    n: int
    k: int
    mu: int
    nu: int

    def __post_init__(self):
        n, k, mu, nu = self.n, self.k, self.mu, self.nu
        if not (0 < k < n):
            raise InfeasibleParams(f"need 0 < k < n, got k={k}, n={n}")
        if not (0 <= mu <= k - 1):
            raise InfeasibleParams(f"need 0 <= mu <= k-1, got mu={mu}")
        if not (0 <= nu <= k):
            raise InfeasibleParams(f"need 0 <= nu <= k, got nu={nu}")
        if k * (k - mu - 1) != (n - k - 1) * nu:
            raise InfeasibleParams(
                f"edge count identity k(k-mu-1) = l*nu fails for {self}"
            )

    @property
    def l(self) -> int:
        return self.n - self.k - 1


@dataclass(frozen=True)
class EigenData:
    """Exact character-table data (k, l, r, s) with multiplicities (f, g)."""

    k: object
    l: object
    r: object
    s: object
    f: object
    g: object

    def __post_init__(self):
        k, l, r, s, f, g = self.k, self.l, self.r, self.s, self.f, self.g
        if scalar_sign(r - s) <= 0:
            raise InfeasibleParams("need r > s")
        if scalar_sign(k) <= 0 or scalar_sign(l) <= 0:
            raise InfeasibleParams("valencies must be positive")
        if k + f * r + g * s != 0:
            raise InfeasibleParams("column orthogonality k + f*r + g*s = 0 fails")
        if 1 + f + g != self.n:
            raise InfeasibleParams("multiplicities must sum to n - 1")
        # row orthogonality of the two nontrivial rows, cleared of denominators
        if l * (k + r * s) + k * (1 + r) * (1 + s) != 0:
            raise InfeasibleParams("row orthogonality fails for (k, l, r, s)")

    @property
    def n(self):
        return 1 + self.k + self.l


def eigen_from_params(p: SrgParams, integral: bool = True) -> EigenData:
    """Eigenvalues r > s, the roots of x^2 - (mu-nu)x - (k-nu), and the
    multiplicities ``eigen_from_values`` derives from them.

    A non-square discriminant (irrational r, s) needs the conference
    identity, and then f = g = (n-1)/2.  With integral=False non-integral
    f, g warn instead of raising (table-algebra mode).
    """
    r, s = _quadratic_roots_exact([p.nu - p.k, p.nu - p.mu, 1])
    e = eigen_from_values(p.k, p.l, r, s, integral=integral)
    if Fraction(e.f).denominator != 1:
        warnings.warn(f"non-integral multiplicities f={e.f}, g={e.g}", stacklevel=2)
    return e


def eigen_from_values(k, l, r, s, integral: bool = False) -> EigenData:
    """EigenData from an exact (k, l, r, s), with the multiplicities
    f = (-k - (n-1)s)/(r - s) and g = n-1-f of column orthogonality.

    Irrational r, s give rational f only under the conference identity
    2k = -(n-1)(r+s).  f and g become ints when both are integral, and
    integral=True demands that; table-algebra inputs never warn.
    """
    if scalar_sign(r - s) <= 0:
        raise InfeasibleParams("need r > s")
    n = 1 + k + l
    f = (Fraction(-k) - (n - 1) * s) / (r - s)
    if isinstance(f, QuadraticValue):
        raise InfeasibleParams(
            f"irrational r, s need the conference identity 2k = -(n-1)(r+s), "
            f"got ({k}, {l}, {r}, {s})")
    g = Fraction(n - 1) - f
    if f <= 0 or g <= 0:
        raise InfeasibleParams(f"multiplicities must be positive, got f={f}, g={g}")
    if f.denominator == 1 and g.denominator == 1:
        f, g = int(f), int(g)
    elif integral:
        raise NonIntegralMultiplicity(f"f={f}, g={g}")
    return EigenData(k, l, r, s, f, g)


def imprimitive_eigen(r: int, m: int) -> EigenData:
    """Scheme of m+1 disjoint copies of the complete graph on r+1 vertices:
    (k, l, r, s) = (r, m(1+r), r, -1), so f = m and g = r(1+m).  Unless
    r, m >= 1 a multiplicity is not positive and InfeasibleParams is raised."""
    return eigen_from_values(r, m * (1 + r), r, -1, integral=True)


def _equal_pair_bits(values) -> int:
    """Bit ``i*R + j`` for each pair i < j of the R values with x_i == x_j.

    Values are grouped by the hash and ``==`` of a dict, so equal values of
    different types (1 and Fraction(1)) pair up.
    """
    groups: dict = {}
    for i, x in enumerate(values):
        groups.setdefault(x, []).append(i)
    n, bits = len(values), 0
    for group in groups.values():
        for a, i in enumerate(group):
            for j in group[a + 1:]:
                bits |= 1 << (i * n + j)
    return bits


def _classes_from_bits(bits: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The classes of the equivalence on range(n) whose pairs ``bits`` sets,
    ordered by their first member."""
    classes, placed = [], set()
    for i in range(n):
        if i not in placed:
            cls = (i,) + tuple(j for j in range(i + 1, n)
                               if bits >> (i * n + j) & 1)
            placed.update(cls)
            classes.append(cls)
    return tuple(classes)


@dataclass(frozen=True)
class CharTable:
    """Exact character table: rows of common eigenvalues with multiplicities.

    The column-sum views ``mask_sums``, ``subset_images`` and
    ``pair_bits``, the memos behind ``row_classes``, the ``class_counts``
    memo and ``full_mask`` are built on first use and stay out of equality
    and hashing.  A mask is a set of non-identity columns, bit c - 1 for
    column c.  ``mask_sums`` gives the exact sums of every row on one
    mask, computed the first time that mask is asked for, so a reader pays
    only for the masks it uses.  ``pair_bits`` compare exact integer images
    of the sums instead (``subset_images``, built for all masks at once,
    gives the bound that makes them exact), so a table that is only
    scanned adds no exact values; a mask's pair bits are filled by
    ``fill_pair_bits``, the one helper ``row_classes`` and
    ``fusion.bm_check`` share.  A Bannai-Muzychuk check compares a
    partition's masks with ``full_mask``, ANDs their pair bits and reads
    the class count of the AND from ``class_counts``, a ``{AND: count}``
    memo beside the ``{AND: classes}`` memo of ``row_classes``; a missing
    count is filled from ``row_classes``, so the two memos cannot disagree.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    rows: tuple[tuple, ...]
    mults: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.row_labels) or len(self.rows) != len(self.mults):
            raise ValueError("row bookkeeping out of step")
        for row in self.rows:
            if len(row) != len(self.col_labels):
                raise ValueError("ragged table")

    @property
    def order(self):
        """Sum of multiplicities: n for a rank-3 table, n^2 for its square."""
        return sum(self.mults)

    def valency_row(self) -> tuple:
        return self.rows[0]

    @cached_property
    def full_mask(self) -> int:
        """The mask of all non-identity columns, one bit per column: the
        sum of the block masks of any partition of them."""
        return (1 << (len(self.col_labels) - 1)) - 1

    def mask_sums(self, mask: int) -> tuple:
        """The sum of each row over the columns of ``mask``, one entry per row.

        ``mask`` is a nonzero set of non-identity columns, bit c - 1 for
        column c.  Filled on first use and memoized: the sums on a mask are
        those on the mask without its lowest bit plus that bit's column, one
        addition per row, so a fresh mask fills itself and the masks left by
        dropping its lowest bits one at a time.
        """
        sums = self._mask_sums[mask]
        if sums is None:
            low = mask & -mask
            col = low.bit_length()
            if mask == low:
                sums = tuple(row[col] for row in self.rows)
            else:
                sums = tuple(s + row[col] for s, row in
                             zip(self.mask_sums(mask ^ low), self.rows))
            self._mask_sums[mask] = sums
        return sums

    @cached_property
    def _mask_sums(self) -> list:
        """``mask_sums`` per mask, None until used; entry 0 is unused."""
        return [None] * (1 << (len(self.col_labels) - 1))

    @cached_property
    def subset_images(self) -> tuple[tuple[int, ...], ...]:
        """Per row and mask, an exact integer image of the row's sum on the
        mask (``mask_sums``), so two rows' images on a mask are equal exactly
        when their sums are (entry 0 is unused); built with int additions
        only.

        Every entry off the identity column is written over the basis keys
        of ``exact.basis_terms``; scaled by L, the lcm of all coefficient
        denominators, the coefficients are integers.  With C the largest
        per-row sum of their absolute values, no subset sum of a row has a
        coefficient beyond C in absolute value, so the difference of two
        subset sums has every coefficient in [-2C, 2C].  Key number t maps
        to B**t with B = 2C + 1, and a nonzero combination with such
        coefficients maps to a nonzero int: its top term is at least B**T
        in absolute value and the terms below it sum to at most
        2C(B**T - 1)/(B - 1) = B**T - 1.
        """
        terms = [[basis_terms(x) for x in row[1:]] for row in self.rows]
        scale = lcm(*(c.denominator
                      for row in terms for entry in row for _, c in entry))
        keys: dict = {}  # basis key -> its number t
        scaled = [[[(keys.setdefault(key, len(keys)),
                     c.numerator * (scale // c.denominator)) for key, c in entry]
                   for entry in row] for row in terms]
        bound = max((sum(abs(c) for entry in row for _, c in entry)
                     for row in scaled), default=0)
        powers = [(2 * bound + 1)**t for t in range(len(keys))]
        out = []
        for row in scaled:
            sums = [0]
            for entry in row:
                x = sum(c * powers[t] for t, c in entry)
                sums += [s + x for s in sums]
            out.append(tuple(sums))
        return tuple(out)

    @cached_property
    def pair_bits(self) -> list[int]:
        """Per mask, the pairs of rows with equal sums on it; -1 until used.

        With R rows, bit ``i*R + j`` (i < j) of ``pair_bits[mask]`` is set
        when rows i and j have equal ``mask_sums(mask)``, read from their
        ``subset_images``; entry 0 compares the identity column
        ``row[0]``.  ``fill_pair_bits`` fills an entry the first time its
        mask is used, by ``row_classes`` or ``fusion.bm_check``, so a fresh
        table pays only for the masks it is asked about.
        """
        bits = [-1] * (1 << (len(self.col_labels) - 1))
        bits[0] = _equal_pair_bits([row[0] for row in self.rows])
        return bits

    def row_classes(self, masks) -> tuple[tuple[int, ...], ...]:
        """Rows grouped by equal sums on every mask and on ``row[0]``.

        Two rows share a class exactly when their identity entries and
        their sums on each of ``masks`` are equal, which is when their pair
        bit survives the AND over entry 0 and the masks' ``pair_bits``.
        Classes are ordered by their first row.  The grouping is memoized
        per table by that AND, which has at most Bell(R) values;
        ``fusion.bm_check`` keeps their count per AND in ``class_counts``
        and the classifier's row-count check pairs up their first rows.
        """
        bits = self.pair_bits
        key = bits[0]
        for m in masks:
            b = bits[m]
            if b < 0:
                b = self.fill_pair_bits(m)
            key &= b
        classes = self._classes_by_bits.get(key)
        if classes is None:
            classes = self._classes_by_bits[key] = _classes_from_bits(
                key, len(self.rows))
        return classes

    def fill_pair_bits(self, mask: int) -> int:
        """Compute ``pair_bits[mask]`` from ``subset_images``, store it and
        return it: the one fill for every reader of ``pair_bits``."""
        b = self.pair_bits[mask] = _equal_pair_bits(
            [images[mask] for images in self.subset_images])
        return b

    @cached_property
    def _classes_by_bits(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}

    @cached_property
    def class_counts(self) -> dict[int, int]:
        """Per AND of pair bits, the number of its row classes: the memo
        ``fusion.bm_check`` reads, filled there with the length of
        ``row_classes`` on the masks that gave the AND."""
        return {}

    def to_json(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "rows": [[value_to_json(v) for v in row] for row in self.rows],
            "multiplicities": [value_to_json(v) for v in self.mults],
        }


def rank3_table(one, k, l, r, s, mults) -> CharTable:
    """The first eigenmatrix above over any exact scalar, ``one`` its unit."""
    return CharTable(("chi_0", "chi_1", "chi_2"), ("A0", "A1", "A2"),
                     ((one, k, l), (one, r, -1 - r), (one, s, -1 - s)), mults)


def char_table(e: EigenData) -> CharTable:
    return rank3_table(Fraction(1), e.k, e.l, e.r, e.s, (1, e.f, e.g))


@dataclass(frozen=True)
class FeasibilityReport:
    primitive: bool
    violations: tuple[tuple[str, object], ...]
    imprimitive_kind: str  # "none" | "k=r,s=-1" | "r=0,l=-1-s"


def feasibility(e: EigenData) -> FeasibilityReport:
    """Exact check that (k, l, r, s) is a feasible rank-3 table.

    Three kinds of item are checked: row orthogonality ("1"), the ordering
    k, l >= 1 and k >= r >= 0 > -1 >= s ("2:..."), and nonnegativity of
    every structure constant, the entries of the two ``regular_matrices``
    ("b1[i][j]" and "b2[i][j]").  Violations are reported, not raised.
    """
    k, l, r, s = e.k, e.l, e.r, e.s
    v1 = l * (k + r * s) + k * (1 + r + s + r * s)
    checks = [
        ("1", v1, v1 == 0),
        ("2:k>=1", k, scalar_sign(k - 1) >= 0),
        ("2:l>=1", l, scalar_sign(l - 1) >= 0),
        ("2:k>=r", k - r, scalar_sign(k - r) >= 0),
        ("2:r>=0", r, scalar_sign(r) >= 0),
        ("2:s<=-1", s, scalar_sign(s + 1) <= 0),
    ]
    for name, matrix in zip(("b1", "b2"), regular_matrices(e)):
        checks += [(f"{name}[{i}][{j}]", x, scalar_sign(x) >= 0)
                   for i, row in enumerate(matrix) for j, x in enumerate(row)]
    violations = tuple((item, value) for item, value, ok in checks if not ok)

    if k == r or s == -1:
        kind = "k=r,s=-1"
    elif r == 0 or l == -1 - s:
        kind = "r=0,l=-1-s"
    else:
        kind = "none"
    primitive = not violations and kind == "none"
    return FeasibilityReport(primitive, violations, kind)


def regular_matrices(e: EigenData) -> tuple[tuple, tuple]:
    """Left regular matrices of the two nontrivial basis elements.

    Entries are the structure constants, and ``feasibility`` requires each
    to be nonnegative.  Reading off column 1 of the first matrix recovers
    (mu, nu) = (k+r+s+rs, k+rs).
    """
    k, l, r, s = e.k, e.l, e.r, e.s
    zero, one = Fraction(0), Fraction(1)
    b1 = (
        (zero, k + zero, zero),
        (one, k + r + s + r * s, -(1 + r + s + r * s)),
        (zero, k + r * s, -r * s),
    )
    b2 = (
        (zero, zero, l + zero),
        (zero, -(1 + r + s + r * s), l + 1 + r + s + r * s),
        (one, -r * s, l - 1 + r * s),
    )
    return b1, b2
