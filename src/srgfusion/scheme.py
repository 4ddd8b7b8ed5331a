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

where l = n - k - 1 and r > s are the nontrivial eigenvalues of A1.  All
derived quantities are exact; conference graphs get quadratic-irrational
eigenvalues and forced equal multiplicities.

Imprimitive cases: k = r (equivalently s = -1, disjoint union of cliques)
and its complement-partner r = 0 (equivalently l = -1-s, complete
multipartite).  Everything else with k > r > 0 and s < -1 is primitive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import (
    QuadraticValue,
    _quadratic_roots_exact,
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

    def tuple(self) -> tuple:
        return (self.k, self.l, self.r, self.s)


def eigen_from_params(p: SrgParams, integral: bool = True) -> EigenData:
    """Eigenvalues r, s (roots of x^2 - (mu-nu)x - (k-nu)) and multiplicities.

    A non-square discriminant forces the conference case (f = g) and
    quadratic-irrational eigenvalues.  In graph mode non-integral f, g raise;
    with integral=False they only warn (table-algebra mode).
    """
    n, k, mu, nu = p.n, p.k, p.mu, p.nu
    r, s = _quadratic_roots_exact([nu - k, nu - mu, 1])
    if isinstance(r, QuadraticValue):
        # conference case: k + f*r + g*s = 0 with irrational r, s needs f = g
        if 2 * k != (n - 1) * (nu - mu):
            raise InfeasibleParams(
                f"irrational eigenvalues need the conference identity, got {p}"
            )
        if (n - 1) % 2 and integral:
            raise NonIntegralMultiplicity(f"f = g = (n-1)/2 non-integral for {p}")
        f = g = Fraction(n - 1, 2)
        if f.denominator == 1:
            f = g = int(f)
    else:
        f = Fraction(-k - (n - 1) * s, r - s)
        g = Fraction(n - 1) - f
        if f <= 0 or g <= 0:
            raise InfeasibleParams(f"multiplicities f={f}, g={g} for {p}")
        if f.denominator == 1 and g.denominator == 1:
            f, g = int(f), int(g)
    non_integral = any(Fraction(x).denominator != 1 for x in (Fraction(f), Fraction(g)))
    if non_integral:
        if integral:
            raise NonIntegralMultiplicity(f"f={f}, g={g} for {p}")
        warnings.warn(f"non-integral multiplicities f={f}, g={g}", stacklevel=2)
    return EigenData(k, p.l, r, s, f, g)


def eigen_from_values(k, l, r, s, integral: bool = False) -> EigenData:
    """EigenData from an exact (k, l, r, s) tuple, multiplicities derived.

    Used for synthetic table-algebra inputs; integral=True additionally
    demands integer multiplicities.
    """
    if scalar_sign(r - s) <= 0:
        raise InfeasibleParams("need r > s")
    n = 1 + k + l
    f = (Fraction(-k) - (n - 1) * s) / (r - s)
    if isinstance(f, QuadraticValue):
        raise InfeasibleParams(f"multiplicities irrational for ({k},{l},{r},{s})")
    g = Fraction(n - 1) - f
    if scalar_sign(f) <= 0 or scalar_sign(g) <= 0:
        raise InfeasibleParams(f"multiplicities must be positive, got f={f}, g={g}")
    if integral:
        if Fraction(f).denominator != 1 or Fraction(g).denominator != 1:
            raise NonIntegralMultiplicity(f"f={f}, g={g}")
        f, g = int(f), int(g)
    else:
        if Fraction(f).denominator == 1:
            f, g = int(f), int(g)
    return EigenData(k, l, r, s, f, g)


def imprimitive_eigen(r: int, m: int) -> EigenData:
    """Scheme of m+1 disjoint copies of the complete graph on r+1 vertices."""
    if r < 1 or m < 1:
        raise InfeasibleParams("need r >= 1 and m >= 1")
    return EigenData(r, m * (1 + r), r, -1, m, r * (1 + m))


@dataclass(frozen=True)
class CharTable:
    """Exact character table: rows of common eigenvalues with multiplicities."""

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
    def subset_sums(self) -> tuple[tuple, ...]:
        """Per row, the sum over every nonempty set of non-identity columns.

        ``subset_sums[i][mask]`` sums row i over the column positions c with
        bit c-1 set in ``mask`` (entry 0 is unused); each entry is a smaller
        set's sum plus one entry.  Built on first use; ``fusion.summed_rows``
        and the classifier's block differences read every block sum here.
        Its companion ``sum_ids`` names each sum by a small int, for the
        checks that only ask which sums are equal.
        """
        out = []
        for row in self.rows:
            sums = [None]
            for bit, x in enumerate(row[1:]):
                sums += [sums[m] + x if m else x for m in range(1 << bit)]
            out.append(tuple(sums))
        return tuple(out)

    @cached_property
    def sum_ids(self) -> tuple[tuple[int, ...], ...]:
        """``subset_sums`` with every value interned to a small int.

        One interning dict serves all rows, so ``sum_ids[i][m] ==
        sum_ids[j][m]`` exactly when the two sums are equal, by the same
        hash and ``==`` a set of the sums would use.  Entry 0 holds the id
        of the identity column ``row[0]``.  Built on first use; the
        Bannai-Muzychuk check and the classifier's row classes compare
        these ids instead of hashing exact values.
        """
        ids: dict = {}
        return tuple(
            tuple(ids.setdefault(x, len(ids)) for x in (row[0],) + sums[1:])
            for row, sums in zip(self.rows, self.subset_sums)
        )

    def to_json(self) -> dict:
        return {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "rows": [[value_to_json(v) for v in row] for row in self.rows],
            "multiplicities": [value_to_json(v) for v in self.mults],
        }


def char_table(e: EigenData) -> CharTable:
    return CharTable(
        row_labels=("chi_0", "chi_1", "chi_2"),
        col_labels=("A0", "A1", "A2"),
        rows=(
            (Fraction(1), e.k, e.l),
            (Fraction(1), e.r, -1 - e.r),
            (Fraction(1), e.s, -1 - e.s),
        ),
        mults=(1, e.f, e.g),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    primitive: bool
    violations: tuple[tuple[str, object], ...]
    imprimitive_kind: str  # "none" | "k=r,s=-1" | "r=0,l=-1-s"


def feasibility(e: EigenData) -> FeasibilityReport:
    """Exact check of the nonnegativity constraints on (k, l, r, s).

    The five checked items
      (1) l*(k+rs) + k*(1+r+s+rs) = 0
      (2) k, l >= 1 and k >= r >= 0 > -1 >= s,
          with s*(k+kr+rl) + (k+kr+kl) = 0
      (3) l >= -1-s >= 0
      (4) k+rs >= 0 >= 1+r+s+rs
      (5) l+1+r+s+rs >= 0 and l-1+rs >= 0
    come from nonnegativity of the regular matrices of the two basis
    elements.  Violations are reported, not raised.
    """
    k, l, r, s = e.k, e.l, e.r, e.s
    violations: list[tuple[str, object]] = []

    def check(item: str, value, ok: bool):
        if not ok:
            violations.append((item, value))

    v1 = l * (k + r * s) + k * (1 + r + s + r * s)
    check("1", v1, v1 == 0)
    check("2:k>=1", k, scalar_sign(k - 1) >= 0)
    check("2:l>=1", l, scalar_sign(l - 1) >= 0)
    check("2:k>=r", k - r, scalar_sign(k - r) >= 0)
    check("2:r>=0", r, scalar_sign(r) >= 0)
    check("2:s<=-1", s, scalar_sign(s + 1) <= 0)
    v2 = s * (k + k * r + r * l) + (k + k * r + k * l)
    check("2:s-identity", v2, v2 == 0)
    check("3:l>=-1-s", l + 1 + s, scalar_sign(l + 1 + s) >= 0)
    check("4:k+rs>=0", k + r * s, scalar_sign(k + r * s) >= 0)
    v4 = 1 + r + s + r * s
    check("4:1+r+s+rs<=0", v4, scalar_sign(v4) <= 0)
    v5a = l + 1 + r + s + r * s
    check("5:l+(1+r+s+rs)>=0", v5a, scalar_sign(v5a) >= 0)
    v5b = l - 1 + r * s
    check("5:l-1+rs>=0", v5b, scalar_sign(v5b) >= 0)

    if k == r or s == -1:
        kind = "k=r,s=-1"
    elif r == 0 or l == -1 - s:
        kind = "r=0,l=-1-s"
    else:
        kind = "none"
    primitive = not violations and kind == "none"
    return FeasibilityReport(primitive, tuple(violations), kind)


def regular_matrices(e: EigenData) -> tuple[tuple, tuple]:
    """Left regular matrices of the two nontrivial basis elements.

    Entries are the structure constants; all are nonnegative exactly when
    feasibility holds.  Reading off row 2 of the first matrix recovers
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
