"""Symbolic classification of all 4140 tensor-square fusion partitions.

For each partition of {2,...,9} this module decides, with exact symbolic
arithmetic over the parameters (k, l, r, s), whether the fusion it names

  * holds for every rank-3 table algebra (GUARANTEED),
  * holds exactly on catalogued parameter families (FAMILY), or
  * cannot hold for any primitive table and is not an imprimitive-family
    fusion (INFEASIBLE, with a machine-checkable certificate).

Method.  Column-sum the fully symbolic 9x9 table along the partition and
compare rows pairwise.  Pairs whose difference contains a polynomial that
the nonvanishing sieve certifies (a scaled product of strictly-signed
factors) can never merge on the primitive region; the valency row can never
merge with any other row because its entries dominate termwise.  The
surviving "potential equality" graph limits which merge patterns could
produce the required number of distinct rows.  Every admissible merge
pattern yields a polynomial system; the system is decomposed by exact
branching (linear-pivot elimination with constant or sieve-certified
denominators, factor splits, univariate gcds, resultants) into leaves that
either

  * contradict the primitive region (a sieve-certified nonzero polynomial
    is forced to vanish, an equation is definite or rootless on the region,
    or a forced-positive quantity gets the wrong sign), or
  * land on a solution variety, which must be identified with a catalogued
    family, or on exact points, which must be catalogued sporadic tables.

Any other leaf is unresolved, and so is the partition it belongs to.

The two imprimitive families are handled separately by fusing the fully
symbolic union-of-cliques table (parameters r, m) and its partner, exactly
as the rank-3 case analysis reduces to.

The catalogue contains the published special-case families plus one
further pair found and matrix-verified during this work: the
pseudo-Latin-square parameters (k, l, s) = (r(2r-1), (r+1)(2r-1), -r) and
their partner under the eigenvalue switch also admit the rank-3 fusions
2468|3579 / 2459|3678.  rook(4) and the Latin-square graph of order 36
realize its first two members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt
from typing import Sequence

from .exact import (
    K,
    L,
    M,
    MissingSymbol,
    MixedField,
    MultiPoly,
    NonzeroCertificate,
    ONE,
    R,
    S,
    SieveSet,
    _SYM_INDEX,
    _count_roots_open,
    _poly_gcd_1var,
    _quadratic_roots_exact,
    _rational_roots,
    default_sieve_set,
    quad,
    scalar_sign,
)
from .fusion import block_masks, bm_check, scan_all
from .partitions import SetPartition, all_default_partitions, coarsenings
from .products import tensor_square_table, wreath_partition
from .scheme import CharTable

# row orthogonality of the two nontrivial base rows; available to every
# equation system as a side relation
ORTHOGONALITY = (L * (K + R * S) + K * (ONE + R + S + R * S)).normalized()

# strictly positive on the primitive region; used for sign contradictions
PRIMITIVE_POSITIVE = (
    ("k", K),
    ("l", L),
    ("r", R),
    ("k-r", K - R),
    ("-1-s", -(ONE + S)),
    ("l+1+s", L + 1 + S),
    ("k+rs", K + R * S),
    ("k-1", K - 1),
    ("l-1", L - 1),
    ("r-s", R - S),
    ("k-s", K - S),
)


# ---------------------------------------------------------------------------
# symbolic tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def symbolic_base_table() -> CharTable:
    """Generic rank-3 character table over the symbols k, l, r, s."""
    return CharTable(
        ("chi_0", "chi_1", "chi_2"),
        ("A0", "A1", "A2"),
        (
            (ONE, K, L),
            (ONE, R, -1 - R),
            (ONE, S, -1 - S),
        ),
        (1, 1, 1),
    )


@lru_cache(maxsize=None)
def symbolic_tensor_table() -> CharTable:
    """Fully symbolic 9x9 tensor-square table (Kronecker entry rule)."""
    return tensor_square_table(symbolic_base_table())


@lru_cache(maxsize=None)
def imprimitive_base_table(kind: int) -> CharTable:
    """Symbolic table of the imprimitive families, parameters (r, m).

    kind 1: union of m+1 complete graphs on r+1 vertices (k = r, s = -1).
    kind 2: the partner with the two graph roles exchanged (r = 0,
    l = -1-s), written in the same (r, m) parameters.
    """
    if kind == 1:
        rows = (
            (ONE, R, M * (1 + R)),
            (ONE, R, -1 - R),
            (ONE, MultiPoly.const(-1), MultiPoly()),
        )
    elif kind == 2:
        rows = (
            (ONE, M * (1 + R), R),
            (ONE, MultiPoly(), MultiPoly.const(-1)),
            (ONE, -1 - R, R),
        )
    else:
        raise ValueError("kind must be 1 or 2")
    return CharTable(("chi_0", "chi_1", "chi_2"), ("A0", "A1", "A2"), rows, (1, 1, 1))


@lru_cache(maxsize=None)
def _imprimitive_positive_strings(kind: int) -> frozenset[str]:
    table = tensor_square_table(imprimitive_base_table(kind))
    return frozenset(str(v.partition) for v in scan_all(table))


@lru_cache(maxsize=None)
def guaranteed_partition_strings() -> frozenset[str]:
    """The 13 nontrivial partitions fusing for every rank-3 table algebra."""
    return frozenset(str(v.partition) for v in scan_all(symbolic_tensor_table()))


# ---------------------------------------------------------------------------
# family catalogue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A parameter family admitting special-case fusions.

    ``substitution`` maps every one of k, l, r, s to a polynomial in the
    family's free symbols; it satisfies the row-orthogonality relation
    identically.  ``defining`` generates the family's ideal inside
    Q[k, l, r, s].  A family whose primitive members form a finite set
    lists them in ``point_instances`` and is matched by evaluation there
    instead of by polynomial identity.
    """

    id: str
    description: str
    substitution: tuple[tuple[str, MultiPoly], ...]
    defining: tuple[MultiPoly, ...]
    source_partitions: tuple[str, ...] = ()
    point_instances: tuple[tuple[tuple[str, Fraction], ...], ...] = ()
    sample_instances: tuple = ()  # exact (k, l, r, s) tuples for spot checks

    def substitution_map(self) -> dict[str, MultiPoly]:
        return dict(self.substitution)

    def points(self) -> list[dict[str, Fraction]]:
        return [dict(pt) for pt in self.point_instances]


def _sub(**kw) -> tuple[tuple[str, MultiPoly], ...]:
    base = {"k": K, "l": L, "r": R, "s": S, "m": M}
    base.update(kw)
    return tuple(sorted((name, poly) for name, poly in base.items()))


def _conf_sqrt13():
    r = quad(Fraction(-1, 2), Fraction(1, 2), 13)
    s = quad(Fraction(-1, 2), Fraction(-1, 2), 13)
    return (Fraction(6), Fraction(6), r, s)


@lru_cache(maxsize=None)
def family_catalog() -> tuple[FamilySpec, ...]:
    f = Fraction
    return (
        FamilySpec(
            "IMP1",
            "union of m+1 complete graphs: k = r, s = -1, l = m(1+r)",
            _sub(k=R, l=M * (1 + R), s=MultiPoly.const(-1)),
            (K - R, S + 1),
            sample_instances=((f(2), f(6), f(2), f(-1)), (f(3), f(4), f(3), f(-1)),
                              (f(2), f(9), f(2), f(-1))),
        ),
        FamilySpec(
            "IMP2",
            "complete multipartite: r = 0, l = -1-s, k = -m*s",
            _sub(k=-M * S, l=-1 - S, r=MultiPoly()),
            (R, L + 1 + S),
            sample_instances=((f(6), f(2), f(0), f(-3)), (f(4), f(3), f(0), f(-4)),
                              (f(9), f(2), f(0), f(-3))),
        ),
        FamilySpec(
            "CONF",
            "conference parameters: k = l = 2r(1+r), s = -1-r",
            _sub(k=2 * R + 2 * R * R, l=2 * R + 2 * R * R, s=-1 - R),
            (S + R + 1, K - 2 * R - 2 * R * R, L - 2 * R - 2 * R * R),
            source_partitions=(
                "27|34|59|6|8", "23|47|59|68",
                "23|4579|68", "2359|47|68", "23|4678|59", "2347|59|68", "2368|47|59",
                "234678|59", "234579|68", "2359|4678", "2368|4579",
            ),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(12), f(12), f(2), f(-3)),
                              _conf_sqrt13()),
        ),
        FamilySpec(
            "NEWS1",
            "rook-graph complements: k = s^2, l = -2s, r = 1",
            _sub(k=S * S, l=-2 * S, r=ONE),
            (R - 1, K - S * S, L + 2 * S),
            source_partitions=("249|37|5|68",),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(9), f(6), f(1), f(-3)),
                              (f(16), f(8), f(1), f(-4))),
        ),
        FamilySpec(
            "NEWS2",
            "rook graphs: k = 2(1+r), l = (1+r)^2, s = -2",
            _sub(k=2 + 2 * R, l=(1 + R) * (1 + R), s=MultiPoly.const(-2)),
            (S + 2, K - 2 - 2 * R, L - (1 + R) * (1 + R)),
            source_partitions=("24|357|68|9",),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(6), f(9), f(2), f(-2)),
                              (f(8), f(16), f(3), f(-2))),
        ),
        FamilySpec(
            "CR4",
            "order-9 plane k = 3-s-r, l = 5+s+r; orthogonality pins r-s = 3, "
            "and the only primitive integral member is (4, 4, 1, -2)",
            _sub(k=3 - S - R, l=5 + S + R),
            (K - 3 + S + R, L - 5 - S - R),
            source_partitions=("249|37|5|68",),
            point_instances=(
                (("k", f(4)), ("l", f(4)), ("r", f(1)), ("s", f(-2))),
            ),
            sample_instances=((f(4), f(4), f(1), f(-2)),),
        ),
        FamilySpec(
            "CLB1",
            "k = r(3+r), l = 3+r, s = -2 (complement of the folded 5-cube at "
            "r = 2; the structure constant l-1+rs = 2-r caps the family at "
            "r <= 2)",
            _sub(k=R * (3 + R), l=3 + R, s=MultiPoly.const(-2)),
            (S + 2, K - R * (3 + R), L - 3 - R),
            source_partitions=("249|35678",),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(10), f(5), f(2), f(-2)),
                              (f(27, 4), f(9, 2), f(3, 2), f(-2))),
        ),
        FamilySpec(
            "CLB1S",
            "switch partner of CLB1: k = 2-s, l = (s-2)(s+1), r = 1",
            _sub(k=2 - S, l=S * S - S - 2, r=ONE),
            (R - 1, K - 2 + S, L - S * S + S + 2),
            source_partitions=("24689|357",),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(5), f(10), f(1), f(-3)),
                              (f(6), f(18), f(1), f(-4))),
        ),
        FamilySpec(
            "CLB2A",
            "negative-Latin-square type: k = r(2r+1), l = (r-1)(2r+1), s = -r "
            "(r >= 2; r = 2 is the complement of the folded 5-cube)",
            _sub(k=R * (2 * R + 1), l=(R - 1) * (2 * R + 1), s=-R),
            (S + R, K - R * (2 * R + 1), L - (R - 1) * (2 * R + 1)),
            source_partitions=("2468|3579",),
            sample_instances=((f(10), f(5), f(2), f(-2)), (f(21), f(14), f(3), f(-3))),
        ),
        FamilySpec(
            "CLB2B",
            "switch partner of CLB2A: k = (s+2)(2s+1), l = (s+1)(2s+1), r = -2-s",
            _sub(k=(S + 2) * (2 * S + 1), l=(S + 1) * (2 * S + 1), r=-2 - S + MultiPoly()),
            (R + S + 2, K - (S + 2) * (2 * S + 1), L - (S + 1) * (2 * S + 1)),
            source_partitions=("2459|3678",),
            sample_instances=((f(5), f(10), f(1), f(-3)), (f(14), f(21), f(2), f(-4))),
        ),
        FamilySpec(
            "PLS2A",
            "Latin-square type: k = r(2r-1), l = (r+1)(2r-1), s = -r (r >= 2; "
            "r = 2 is the 4x4 rook graph, r = 3 a Latin-square graph of order 36); "
            "matrix-verified addition to the published catalogue",
            _sub(k=R * (2 * R - 1), l=(R + 1) * (2 * R - 1), s=-R),
            (S + R, K - R * (2 * R - 1), L - (R + 1) * (2 * R - 1)),
            source_partitions=("2468|3579",),
            sample_instances=((f(6), f(9), f(2), f(-2)), (f(15), f(20), f(3), f(-3))),
        ),
        FamilySpec(
            "PLS2B",
            "switch partner of PLS2A: k = s(2s+3), l = (s+1)(2s+3), r = -2-s",
            _sub(k=S * (2 * S + 3), l=(S + 1) * (2 * S + 3), r=-2 - S + MultiPoly()),
            (R + S + 2, K - S * (2 * S + 3), L - (S + 1) * (2 * S + 3)),
            source_partitions=("2459|3678",),
            sample_instances=((f(9), f(6), f(1), f(-3)), (f(20), f(15), f(2), f(-4))),
        ),
        FamilySpec(
            "SP9",
            "six further sporadic fusions holding exactly at the single "
            "primitive table of order 9, (k, l, r, s) = (4, 4, 1, -2); "
            "matrix-verified on the 3x3 rook graph",
            _sub(k=MultiPoly.const(4), l=MultiPoly.const(4),
                 r=ONE, s=MultiPoly.const(-2)),
            (K - 4, L - 4, R - 1, S + 2),
            source_partitions=("249|357|68", "25679|348", "267|34589",
                               "267|348|59", "267|34|59|8", "27|348|59|6"),
            point_instances=(
                (("k", f(4)), ("l", f(4)), ("r", f(1)), ("s", f(-2))),
            ),
            sample_instances=((f(4), f(4), f(1), f(-2)),),
        ),
        FamilySpec(
            "SP5",
            "two sporadic fusions holding exactly at the pentagon table, "
            "k = l = 2 with golden-ratio eigenvalues",
            _sub(k=MultiPoly.const(2), l=MultiPoly.const(2)),
            (K - 2, L - 2, S + R + 1, R * R + R - 1),
            source_partitions=("26|38|49|57", "29|35|48|67"),
            point_instances=(
                (("k", f(2)), ("l", f(2)),
                 ("r", quad(f(-1, 2), f(1, 2), 5)),
                 ("s", quad(f(-1, 2), f(-1, 2), 5))),
            ),
            sample_instances=(
                (f(2), f(2), quad(f(-1, 2), f(1, 2), 5), quad(f(-1, 2), f(-1, 2), 5)),
            ),
        ),
    )


def family_by_id(fid: str) -> FamilySpec:
    for fam in family_catalog():
        if fam.id == fid:
            return fam
    raise KeyError(fid)


@lru_cache(maxsize=None)
def _family_image_zero(fid: str, poly: MultiPoly) -> bool:
    fam = family_by_id(fid)
    if fam.point_instances:
        return all(poly.evaluate(pt) == 0 for pt in fam.points())
    return poly.substitute(fam.substitution_map()).is_zero()


def family_match(
    equations: Sequence[MultiPoly],
    distinctness: Sequence[Sequence[MultiPoly]],
    fam: FamilySpec,
) -> tuple[bool, dict]:
    """Does the family satisfy the equations while keeping rows distinct?

    Parametric families are matched by polynomial identity under their
    substitution (equivalent to vanishing at every member, the admissible
    parameter set being infinite).  Point families are matched by exact
    evaluation at each primitive member.  Distinctness requires, for every
    pair of merged row classes, at least one difference that does not
    vanish identically (resp. at each point).
    """
    for e in equations:
        if not _family_image_zero(fam.id, e):
            return False, {"failed": e}
    for diffs in distinctness:
        if all(_family_image_zero(fam.id, d) for d in diffs):
            return False, {"collapsed_pair": diffs}
    return True, {"family": fam.id}


# ---------------------------------------------------------------------------
# potential-equality graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairStatus:
    rows: tuple[int, int]
    equations: tuple[MultiPoly, ...]
    blocked: bool
    reason: str  # "" | "sieve" | "valency"
    certificate: object


@dataclass(frozen=True)
class EqualityGraph:
    partition: SetPartition
    classes: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[tuple[int, int], PairStatus], ...]

    @cached_property
    def _by_key(self) -> dict[tuple[int, int], PairStatus]:
        return dict(self.pairs)

    @cached_property
    def blocked_pairs(self) -> frozenset[tuple[int, int]]:
        """Class pairs (ci, cj), ci < cj, that can never merge."""
        return frozenset(key for key, status in self.pairs if status.blocked)

    def pair(self, a: int, b: int) -> PairStatus:
        return self._by_key[(min(a, b), max(a, b))]


@lru_cache(maxsize=None)
def _pair_block_status(
    a: int, b: int, mask: int
) -> tuple[MultiPoly, NonzeroCertificate | None]:
    """Normalized difference of rows a, b of the symbolic table on a block,
    with its sieve certificate (None when the difference is zero or not
    certified).

    ``mask`` is a block's key from ``fusion.block_masks``; caching keys on
    (rows, mask) because the same differences recur across thousands of
    partitions.
    """
    sums = symbolic_tensor_table().subset_sums
    diff = (sums[a][mask] - sums[b][mask]).normalized()
    if diff.is_zero():
        return diff, None
    return diff, default_sieve_set().certify(diff)


# valency-domination blockers: merging chi_00 with chi_ij would force the
# termwise equality chi_i(A_a) chi_j(A_b) = chi_0(A_a) chi_0(A_b) in every
# column, since the valency row dominates termwise; column A_10 or A_01
# then requires k = r or k = s, both sieve-nonzero.
_DOMINATION_POLY = {1: K - R, 2: K - S}


def _valency_block_poly(other_row: int) -> MultiPoly:
    i, j = divmod(other_row, 3)
    return _DOMINATION_POLY[i if i else j]


def _class_pair_status(a: int, b: int, masks: Sequence[int]) -> PairStatus:
    """Whether row classes with representatives a < b can ever merge.

    The pair is blocked when one class is the valency row or some block
    difference carries a sieve certificate; otherwise it carries the
    distinct nonzero block differences as its equations.
    """
    if a == 0:
        poly = _valency_block_poly(b)
        cert = default_sieve_set().certify(poly)
        return PairStatus((a, b), (), True, "valency", (poly, cert))
    eqs = []
    for bi, mask in enumerate(masks):
        norm, cert = _pair_block_status(a, b, mask)
        if norm.is_zero():
            continue
        if cert is not None:
            return PairStatus((a, b), (), True, "sieve", (bi, norm, cert))
        eqs.append(norm)
    return PairStatus((a, b), tuple(dict.fromkeys(eqs)), False, "", None)


def potential_equality_graph(p: SetPartition) -> EqualityGraph:
    """Which rows of the column-summed symbolic table could ever coincide.

    Rows are first grouped into classes of identically-equal polynomials,
    ordered by their first row; each pair of classes gets the status of its
    first rows.
    """
    table = symbolic_tensor_table()
    masks = block_masks(table, p)
    class_tuples = table.row_classes(masks)
    pairs = tuple(
        ((ci, cj), _class_pair_status(class_tuples[ci][0], class_tuples[cj][0], masks))
        for ci, cj in itertools.combinations(range(len(class_tuples)), 2)
    )
    return EqualityGraph(p, class_tuples, pairs)


# ---------------------------------------------------------------------------
# polynomial system decomposition
# ---------------------------------------------------------------------------

# polynomials worth splitting on beyond the sieve: family-defining factors
# and small recurring combinations
@lru_cache(maxsize=None)
def _factor_basis() -> tuple[MultiPoly, ...]:
    polys = []
    for fam in family_catalog():
        polys.extend(fam.defining)
    extra = [
        R - 1, S + 2, S + R, R + S + 1, R + S + 2, R + S + 3, R + S + 4,
        K - L, L - R, K - R * R, L + S,
        K + S, L - 1 - R, K + 1 + S,
    ]
    polys.extend(extra)
    out = []
    seen = set()
    for p in polys:
        n = p.normalized()
        if not n.is_constant() and n not in seen:
            seen.add(n)
            out.append(n)
    return tuple(out)


def _poly_sqrt(p: MultiPoly) -> MultiPoly | None:
    """Exact square root of a polynomial, or None."""
    if p.is_zero():
        return MultiPoly()
    exps, coeff = p.leading()
    if any(e % 2 for e in exps) or coeff < 0:
        return None
    num = _frac_sqrt(coeff)
    if num is None:
        return None
    root = MultiPoly({tuple(e // 2 for e in exps): num})
    rem = p - root * root
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 64:
            return None
        rexps, rcoeff = rem.leading()
        den = root.leading()
        t_exps = tuple(a - b for a, b in zip(rexps, den[0]))
        if any(e < 0 for e in t_exps):
            return None
        term = MultiPoly({t_exps: Fraction(rcoeff, 2 * den[1])})
        root = root + term
        rem = p - root * root
    return root


def _frac_sqrt(q: int | Fraction) -> Fraction | None:
    if q < 0:
        return None
    a, b = isqrt(q.numerator), isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


@lru_cache(maxsize=None)
def _split_poly(p: MultiPoly) -> tuple[MultiPoly, ...]:
    """Factor p over the default sieve and the factor basis.

    Returns the non-sieve factors; sieve factors are dropped because they
    cannot vanish on the primitive region.
    """
    rem = p.normalized()
    factors: list[MultiPoly] = []
    progress = True
    while progress and not rem.is_constant():
        progress = False
        for mem in default_sieve_set().members:
            q = rem.divide_exact(mem.poly)
            if q is not None:
                rem = q
                progress = True
                break
        else:
            for cand in _factor_basis():
                if cand == rem.normalized():
                    continue
                q = rem.divide_exact(cand)
                if q is not None:
                    factors.append(cand)
                    rem = q
                    progress = True
                    break
    if not rem.is_constant():
        syms = rem.symbols()
        if len(syms) == 1:
            var = next(iter(syms))
            scalars = [c.constant_value() for c in rem.coefficients(var)]
            for root in _rational_roots(scalars):
                lin = (MultiPoly.var(var) - root).normalized()
                while True:
                    q = rem.divide_exact(lin)
                    if q is None:
                        break
                    factors.append(lin)
                    rem = q
        if not rem.is_constant():
            # quadratic-in-one-variable split via a polynomial discriminant
            for var in sorted(rem.symbols()):
                if rem.degree(var) == 2:
                    c, b, a = rem.coefficients(var)
                    disc = b * b - 4 * a * c
                    root = _poly_sqrt(disc)
                    if root is not None and a.is_constant():
                        x = MultiPoly.var(var)
                        f1 = (2 * a * x + b - root).normalized()
                        f2 = (2 * a * x + b + root).normalized()
                        factors.extend([f1, f2])
                        rem = MultiPoly.const(1)
                        break
    if not rem.is_constant():
        factors.append(rem.normalized())
    return tuple(f for f in factors if not f.is_constant())


@dataclass(frozen=True)
class SubstitutionRecord:
    """One elimination step: var = -num/den on the branch where den != 0."""

    var: str
    num: MultiPoly
    den: MultiPoly
    den_certificate: NonzeroCertificate | None


@dataclass(frozen=True)
class BoundConflict:
    """Why a leaf misses the primitive region.

    ``definite``: an equation whose terms all share one sign on the region
    orthant; ``no-region-root``: a univariate equation with no root inside
    its region interval; ``constant`` / ``image-definite``: a forced-positive
    quantity whose image under the substitution chain is a constant, resp.
    an orthant-definite polynomial, of the wrong sign.
    """

    kind: str  # "definite" | "no-region-root" | "constant" | "image-definite"
    data: tuple


@dataclass(frozen=True)
class ProofLeaf:
    substitutions: tuple[SubstitutionRecord, ...]
    assumptions: tuple[MultiPoly, ...]  # branch factors assumed zero
    # contradiction-unit | contradiction-bounds | family | sporadic | unresolved
    outcome: str
    unit_poly: MultiPoly | None = None
    unit_certificate: NonzeroCertificate | None = None
    bound_conflict: BoundConflict | None = None
    families: tuple[str, ...] = ()
    residual: tuple[MultiPoly, ...] = ()
    points: tuple[tuple[tuple[str, object], ...], ...] = ()  # exact sporadic points


def _apply_substitutions(
    p: MultiPoly, subs: Sequence[SubstitutionRecord]
) -> MultiPoly:
    """Denominator-cleared image of p under the substitution chain."""
    return _apply_substitutions_signed(p, subs, None)[0]


def _leaf_point(
    subs: Sequence[SubstitutionRecord], seed: dict | None = None
) -> dict | None:
    """Exact parameter values pinned by a substitution chain.

    Later substitutions express their variable in terms of the still-free
    symbols, so evaluating the chain backwards resolves every pinned
    variable; ``seed`` supplies values for symbols left free (e.g. the
    exact root of a residual).  Returns None when something stays free or a
    denominator vanishes.
    """
    point: dict[str, object] = dict(seed or {})
    try:
        for rec in reversed(subs):
            num = rec.num.evaluate(point)
            den = rec.den.evaluate(point)
            if den == 0:
                return None
            point[rec.var] = -num / den
    except (MissingSymbol, MixedField):
        return None
    if not {"k", "l", "r", "s"} <= set(point):
        return None
    return point


def _point_feasible(point: dict) -> bool:
    """Strict primitive bounds at an exact parameter point."""
    for _, poly in PRIMITIVE_POSITIVE:
        if scalar_sign(poly.evaluate(point)) <= 0:
            return False
    return True


def _freeze_point(point: dict) -> tuple[tuple[str, object], ...]:
    return tuple(sorted((k, v) for k, v in point.items() if k in ("k", "l", "r", "s")))


def _apply_substitutions_signed(
    p: MultiPoly, subs: Sequence[SubstitutionRecord], sieve: SieveSet | None
) -> tuple[MultiPoly, int | None]:
    """Image of p with the sign relation between p and its image.

    Clearing the denominator of var = -num/den multiplies by den**d; when d
    is odd the sign of the image differs from the sign of p by the sign of
    den.  The second component is +1/-1 when that cumulative sign is known
    (constant or sieve-certified denominators), else None.  Zero-tests of
    the image are valid regardless.
    """
    out = p
    sign: int | None = 1
    for rec in subs:
        d = out.degree(rec.var)
        if d <= 0:
            continue
        num_powers, den_powers = [ONE, -rec.num], [ONE, rec.den]
        for _ in range(d - 1):
            num_powers.append(num_powers[-1] * num_powers[1])
            den_powers.append(den_powers[-1] * rec.den)
        acc = MultiPoly()
        for power, coeff in enumerate(out.coefficients(rec.var)):
            acc = acc + coeff * num_powers[power] * den_powers[d - power]
        out = acc
        if d % 2 and sign is not None:
            if rec.den.is_constant():
                c = rec.den.constant_value()
                sign *= 1 if c > 0 else -1
            elif rec.den_certificate is not None and sieve is not None:
                sign *= rec.den_certificate.region_sign(sieve)
            else:
                sign = None
    return out, sign


@lru_cache(maxsize=None)
def _substitute_one(p: MultiPoly, rec: SubstitutionRecord) -> MultiPoly:
    """Normalized image of p under one elimination step."""
    return _apply_substitutions(p, (rec,)).normalized()


def _substitute_into(
    polys: Sequence[MultiPoly], rec: SubstitutionRecord
) -> list[MultiPoly]:
    out = []
    for p in polys:
        q = _substitute_one(p, rec)
        if not q.is_zero():
            out.append(q)
    return list(dict.fromkeys(out))


_ELIM_ORDER = ("l", "k", "m", "s", "r")


def _orthant_sign(q: MultiPoly) -> int | None:
    """Sign of q on the whole parameter region, by coefficient inspection.

    All of k, l, r, m are positive on the region and s is negative; after
    reorienting s every variable ranges over positives, so a nonzero
    polynomial whose coefficients all share one sign cannot vanish there.
    """
    if q.is_zero():
        return None
    si = _SYM_INDEX["s"]
    signs = set()
    for exps, c in q.terms:
        signs.add((1 if c > 0 else -1) * (-1 if exps[si] % 2 else 1))
        if len(signs) > 1:
            return None
    return signs.pop()


# open region interval per symbol; None means unbounded
_REGION_INTERVAL: dict[str, tuple[Fraction | None, Fraction | None]] = {
    "k": (Fraction(1), None),
    "l": (Fraction(1), None),
    "r": (Fraction(0), None),
    "s": (None, Fraction(-1)),
    "m": (Fraction(0), None),
}

@lru_cache(maxsize=None)
def _rootless_on_region(e: MultiPoly) -> bool:
    """True when a univariate equation has no root on its region interval."""
    if len(e.symbols()) != 1:
        return False
    var = next(iter(e.symbols()))
    coeffs = [c.constant_value() for c in e.coefficients(var)]
    lo, hi = _REGION_INTERVAL[var]
    return bool(coeffs) and _count_roots_open(coeffs, lo, hi) == 0


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

# largest Sylvester matrix (deg_var f + deg_var g) a resultant step forms
_RESULTANT_MAX_SIZE = 8


def _resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to ``var``."""
    df, dg = f.degree(var), g.degree(var)
    if df < 1 or dg < 1:
        raise ValueError("resultant needs positive degrees")
    size = df + dg
    rows: list[list[MultiPoly]] = []
    fc = f.coefficients(var)[::-1]
    gc = g.coefficients(var)[::-1]
    for i in range(dg):
        rows.append([MultiPoly()] * i + fc + [MultiPoly()] * (size - df - 1 - i))
    for i in range(df):
        rows.append([MultiPoly()] * i + gc + [MultiPoly()] * (size - dg - 1 - i))
    return _determinant(rows)


def _determinant(rows: list[list[MultiPoly]]) -> MultiPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = MultiPoly()
    for i in range(n):
        pivot = rows[i][0]
        if pivot.is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = pivot * _determinant(minor)
        out = out + term if i % 2 == 0 else out - term
    return out


def _univariate_gcd_reduce(system: list[MultiPoly]) -> list[MultiPoly] | None:
    """Replace univariate subsystems by their gcd; None when nothing changes."""
    by_var: dict[str, list[int]] = {}
    for idx, e in enumerate(system):
        syms = e.symbols()
        if len(syms) == 1:
            by_var.setdefault(next(iter(syms)), []).append(idx)
    changed = False
    out = list(system)
    drop: set[int] = set()
    for var, idxs in by_var.items():
        if len(idxs) < 2:
            continue
        coeffs: list = []
        for idx in idxs:
            coeffs = _poly_gcd_1var(
                coeffs, [c.constant_value() for c in system[idx].coefficients(var)]
            )
        vi = _SYM_INDEX[var]
        g = MultiPoly({
            tuple(power if i == vi else 0 for i in range(len(_SYM_INDEX))): c
            for power, c in enumerate(coeffs)
        }).normalized()
        if any(system[idx] != g for idx in idxs):
            changed = True
            drop.update(idxs[1:])
            out[idxs[0]] = g
    if not changed:
        return None
    return [e for idx, e in enumerate(out) if idx not in drop]


@lru_cache(maxsize=None)
def _screen(e: MultiPoly) -> tuple[MultiPoly, ProofLeaf | None]:
    """Normalized equation and, when it alone contradicts the primitive
    region, the contradiction leaf (with an empty chain) that says so.

    The tests run cheapest first: a nonzero constant, a sieve-certified
    polynomial, an orthant-definite one, a univariate one rootless on its
    region interval.
    """
    e = e.normalized()
    if e.is_zero():
        return e, None
    if e.is_constant():
        return e, ProofLeaf(
            (), (), "contradiction-unit",
            unit_poly=e, unit_certificate=NonzeroCertificate(e.constant_value(), ()),
        )
    cert = default_sieve_set().certify(e)
    if cert is not None:
        return e, ProofLeaf(
            (), (), "contradiction-unit", unit_poly=e, unit_certificate=cert
        )
    if _orthant_sign(e) is not None:
        return e, ProofLeaf(
            (), (), "contradiction-bounds",
            bound_conflict=BoundConflict("definite", (e,)),
        )
    if _rootless_on_region(e):
        return e, ProofLeaf(
            (), (), "contradiction-bounds",
            bound_conflict=BoundConflict("no-region-root", (e, next(iter(e.symbols())))),
        )
    return e, None


@lru_cache(maxsize=None)
def _pivot_candidate(
    e: MultiPoly, var: str
) -> tuple[int, MultiPoly, MultiPoly, NonzeroCertificate | None] | None:
    """(rank, a_part, b_part, certificate) when e = a_part + b_part * var
    and b_part is constant (rank 0) or sieve-certified (rank 1); else None."""
    if e.degree(var) != 1:
        return None
    a_part, b_part = e.coefficients(var)
    b_norm = b_part.normalized()
    if b_norm.is_constant():
        return 0, a_part, b_part, None
    cert = default_sieve_set().certify(b_norm)
    if cert is None:
        return None
    return 1, a_part, b_part, cert


class _Decomposer:
    """Branch decomposition of an equation system over the primitive region."""

    def __init__(self):
        self.sieve = default_sieve_set()
        self.catalog = family_catalog()

    def decompose(self, eqs: Sequence[MultiPoly]) -> list[ProofLeaf]:
        system = [e.normalized() for e in eqs if not e.is_zero()]
        return self._run(list(dict.fromkeys(system)), (), (), 0)

    # -- helpers ------------------------------------------------------------

    def _run(
        self,
        system: list[MultiPoly],
        subs: tuple[SubstitutionRecord, ...],
        assumptions: tuple[MultiPoly, ...],
        depth: int,
    ) -> list[ProofLeaf]:
        # constants and sieve-certified members force a contradiction, and
        # so do definite and region-rootless ones
        cleaned: list[MultiPoly] = []
        for e in system:
            e, leaf = _screen(e)
            if leaf is not None:
                return [replace(leaf, substitutions=subs, assumptions=assumptions)]
            if not e.is_zero():
                cleaned.append(e)
        system = list(dict.fromkeys(cleaned))

        if not system:
            return [self._close_leaf(subs, assumptions, ())]
        if depth > 40:
            return [self._close_leaf(subs, assumptions, tuple(system))]

        # branch-free linear elimination comes first: a pivot whose leading
        # coefficient is constant or sieve-certified collapses the system
        # without splitting
        pivot = self._pick_pivot(system)
        if pivot is not None:
            idx, var, a_part, b_part, cert = pivot
            rest = system[:idx] + system[idx + 1:]
            rec = SubstitutionRecord(var, a_part, b_part, cert)
            return self._run(
                _substitute_into(rest, rec), subs + (rec,), assumptions, depth + 1
            )

        # factor splits: replace one equation by branches over its factors;
        # every member here failed certify, so each keeps a non-sieve factor
        for idx, e in enumerate(system):
            factors = _split_poly(e)
            if len(factors) > 1 or factors[0] != e:
                leaves = []
                rest = system[:idx] + system[idx + 1:]
                for fac in dict.fromkeys(factors):
                    leaves.extend(self._run(
                        list(dict.fromkeys(rest + [fac])),
                        subs, assumptions + (fac,), depth + 1,
                    ))
                return leaves

        # univariate subsystems collapse to their gcd
        reduced = _univariate_gcd_reduce(system)
        if reduced is not None:
            return self._run(reduced, subs, assumptions, depth + 1)

        # resultants eliminate a variable outright from nonlinear pairs
        new = self._resultant_consequence(system)
        if new is not None:
            return self._run(
                list(dict.fromkeys(system + [new])), subs, assumptions, depth + 1
            )
        return [self._close_leaf(subs, assumptions, tuple(system))]

    def _pick_pivot(self, system: list[MultiPoly]):
        """A linear pivot whose coefficient is constant or sieve-certified."""
        best = None
        for var in _ELIM_ORDER:
            for idx, e in enumerate(system):
                cand = _pivot_candidate(e, var)
                if cand is None:
                    continue
                score = (cand[0], len(e.terms))
                if best is None or score < best[0]:
                    best = (score, idx, var, cand)
            if best is not None and best[0][0] == 0:
                break
        if best is None:
            return None
        _, idx, var, (_, a_part, b_part, cert) = best
        return idx, var, a_part, b_part, cert

    def _resultant_consequence(self, system: list[MultiPoly]) -> MultiPoly | None:
        """A new, smaller-support consequence obtained as a resultant."""
        for (i, f), (j, g) in itertools.combinations(enumerate(system), 2):
            common = sorted(f.symbols() & g.symbols())
            for var in common:
                df, dg = f.degree(var), g.degree(var)
                if df < 1 or dg < 1 or df + dg > _RESULTANT_MAX_SIZE:
                    continue
                res = _resultant(f, g, var).normalized()
                if not res.is_zero() and res not in system:
                    target = (f.symbols() | g.symbols()) - {var}
                    if res.symbols() <= target:
                        return res
        return None

    def _close_leaf(
        self,
        subs: tuple[SubstitutionRecord, ...],
        assumptions: tuple[MultiPoly, ...],
        residual: tuple[MultiPoly, ...],
    ) -> ProofLeaf:
        # a leaf whose variety misses the primitive region entirely is dead,
        # whether or not it sits on some family's Zariski closure and
        # whatever residual equations remain (they only shrink the variety)
        conflict = self._bound_conflict(subs)
        if conflict is not None:
            return ProofLeaf(
                subs, assumptions, "contradiction-bounds",
                bound_conflict=conflict, residual=tuple(residual),
            )
        free: set[str] = set()
        for name in ("k", "l", "r", "s"):
            free |= _apply_substitutions(MultiPoly.var(name), subs).symbols()
        for e in residual:
            free |= e.symbols()

        if not free:
            # fully pinned (residual equations always carry a symbol): one
            # candidate point
            point = _leaf_point(subs)
            if point is not None and _point_feasible(point):
                return ProofLeaf(
                    subs, assumptions, "sporadic", points=(_freeze_point(point),)
                )
            return ProofLeaf(subs, assumptions, "unresolved")

        if residual and len(free) == 1:
            return self._univariate_leaf(subs, assumptions, residual, free.pop())

        if not residual:
            # positive-dimensional solution: must be a catalogued family
            fams = []
            for fam in self.catalog:
                if fam.point_instances:
                    continue
                if all(
                    _apply_substitutions(d, subs).is_zero()
                    for d in fam.defining
                ):
                    fams.append(fam.id)
            if fams:
                return ProofLeaf(subs, assumptions, "family", families=tuple(fams))
        return ProofLeaf(subs, assumptions, "unresolved", residual=tuple(residual))

    def _univariate_leaf(
        self,
        subs: tuple[SubstitutionRecord, ...],
        assumptions: tuple[MultiPoly, ...],
        residual: tuple[MultiPoly, ...],
        var: str,
    ) -> ProofLeaf:
        """Decide a leaf cut out by univariate residual equations exactly.

        The residual gcd, when of degree 1 or 2, has exact roots; each root
        inside the region interval whose point keeps every forced-positive
        quantity strictly positive is a sporadic point.  A leaf without such
        a point stays unresolved.
        """
        g: list = []
        for e in residual:
            g = _poly_gcd_1var(g, [c.constant_value() for c in e.coefficients(var)])
        lo, hi = _REGION_INTERVAL[var]
        points = []
        for root in _quadratic_roots_exact(g) or ():
            if (lo is None or root > lo) and (hi is None or root < hi):
                point = _leaf_point(subs, {var: root})
                if point is not None and _point_feasible(point):
                    points.append(_freeze_point(point))
        return ProofLeaf(
            subs, assumptions, "sporadic" if points else "unresolved",
            points=tuple(points), residual=tuple(residual),
        )

    def _bound_conflict(
        self, subs: tuple[SubstitutionRecord, ...]
    ) -> BoundConflict | None:
        """Find a sign contradiction among forced-positive quantities.

        Each catalogued quantity is strictly positive on the primitive
        region; its substitution image must then have the tracked sign.
        Images with unknown sign relations are skipped (sound, loses
        information only).
        """
        for name, poly in PRIMITIVE_POSITIVE:
            img, sgn = _apply_substitutions_signed(poly, subs, self.sieve)
            if sgn is None:
                continue
            if img.is_constant():
                if img.is_zero() or (1 if img.constant_value() > 0 else -1) != sgn:
                    return BoundConflict("constant", (name, img))
                continue
            orthant = _orthant_sign(img)
            if orthant is not None and orthant != sgn:
                return BoundConflict("image-definite", (name, img, orthant))
        return None


# ---------------------------------------------------------------------------
# per-partition classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupingAnalysis:
    """One admissible merge pattern of row classes and its resolution."""

    merge_classes: tuple[tuple[int, ...], ...]  # row indices per merged class
    equations: tuple[MultiPoly, ...]
    matched_families: tuple[str, ...]
    leaves: tuple[ProofLeaf, ...]
    infeasible: bool
    unresolved: bool
    sporadic_families: tuple[str, ...] = ()


@dataclass(frozen=True)
class RowCountCertificate:
    """Pairwise sieve-distinct row classes exceeding the required count.

    ``representatives`` lists one row per class; every pair is blocked, so
    any merge pattern leaves more distinct rows than classes allowed (or,
    when ``deficit`` is set, identical rows already number fewer than
    required and specialization can only merge further).
    """

    representatives: tuple[int, ...]
    required: int
    deficit: bool = False


@dataclass(frozen=True)
class ClassificationRecord:
    partition: SetPartition
    verdict: str  # GUARANTEED | FAMILY | INFEASIBLE | UNRESOLVED
    trivial: bool
    families: tuple[str, ...]
    groupings: tuple[GroupingAnalysis, ...]
    row_count_certificate: RowCountCertificate | None
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "partition": str(self.partition),
            "rank": self.partition.rank,
            "verdict": self.verdict,
            "trivial": self.trivial,
            "families": list(self.families),
            "notes": list(self.notes),
        }


def _sorted_families(ids) -> tuple[str, ...]:
    """The distinct family ids, in catalog order."""
    ids = set(ids)
    return tuple(f.id for f in family_catalog() if f.id in ids)


def _enumerate_groupings(
    graph: EqualityGraph, m: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Merge patterns: partitions of the row classes into exactly m parts.

    The class containing the valency row stays alone (all of its pairs are
    blocked); every other part must be a clique of unblocked pairs.
    """
    nclasses = len(graph.classes)
    valency_class = next(
        ci for ci, cls in enumerate(graph.classes) if 0 in cls
    )
    others = [ci for ci in range(nclasses) if ci != valency_class]
    blocked = graph.blocked_pairs

    def compatible(ci: int, group: list[int]) -> bool:
        return all((min(ci, cj), max(ci, cj)) not in blocked for cj in group)

    target = m - 1
    results: list[tuple[tuple[int, ...], ...]] = []

    def rec(idx: int, groups: list[list[int]]):
        remaining = len(others) - idx
        if len(groups) > target or len(groups) + remaining < target:
            return
        if idx == len(others):
            if len(groups) == target:
                results.append(tuple(tuple(g) for g in groups))
            return
        ci = others[idx]
        for g in groups:
            if compatible(ci, g):
                g.append(ci)
                rec(idx + 1, groups)
                g.pop()
        groups.append([ci])
        rec(idx + 1, groups)
        groups.pop()

    rec(0, [])
    out = []
    for grouping in results:
        merged = [tuple(graph.classes[valency_class])]
        merged += [
            tuple(sorted(x for ci in g for x in graph.classes[ci]))
            for g in grouping
        ]
        out.append(tuple(merged))
    return out


def _grouping_system(
    graph: EqualityGraph, grouping: tuple[tuple[int, ...], ...]
) -> tuple[tuple[MultiPoly, ...], list[tuple[MultiPoly, ...]]]:
    """Equations forcing each group equal, and distinctness diff sets.

    Returns (equations, distinctness) where distinctness holds, per pair of
    merged groups, the block differences that must not all vanish.
    """
    class_of_row = {}
    for ci, cls in enumerate(graph.classes):
        for row in cls:
            class_of_row[row] = ci
    # ORTHOGONALITY and every pair equation are already normalized and nonzero
    eqs: list[MultiPoly] = [ORTHOGONALITY]
    for group in grouping:
        cids = sorted({class_of_row[row] for row in group})
        for a, b in itertools.combinations(cids, 2):
            eqs.extend(graph.pair(a, b).equations)
    masks = block_masks(symbolic_tensor_table(), graph.partition)
    distinctness: list[tuple[MultiPoly, ...]] = []
    for gi, gj in itertools.combinations(range(len(grouping)), 2):
        ra = grouping[gi][0]
        rb = grouping[gj][0]
        diffs = tuple(
            d for d in (
                _pair_block_status(min(ra, rb), max(ra, rb), m)[0] for m in masks
            ) if not d.is_zero()
        )
        distinctness.append(diffs)
    return tuple(dict.fromkeys(eqs)), distinctness


@lru_cache(maxsize=None)
def _decomposer() -> _Decomposer:
    return _Decomposer()


@lru_cache(maxsize=None)
def _decompose_cached(eqs: tuple[MultiPoly, ...]) -> tuple[ProofLeaf, ...]:
    return tuple(_decomposer().decompose(list(eqs)))


def _analyze_grouping(
    graph: EqualityGraph, grouping: tuple[tuple[int, ...], ...]
) -> GroupingAnalysis:
    eqs, distinctness = _grouping_system(graph, grouping)
    matches = []
    for fam in family_catalog():
        ok, _ = family_match(eqs, distinctness, fam)
        if ok:
            matches.append(fam.id)
    leaves = _decompose_cached(eqs)
    contradictions = all(leaf.outcome.startswith("contradiction") for leaf in leaves)
    unresolved = any(leaf.outcome == "unresolved" for leaf in leaves)
    parametric_matches = {
        fid for fid in matches if not family_by_id(fid).point_instances
    }
    partition_text = str(graph.partition)
    sporadic: set[str] = set()
    for leaf in leaves:
        if leaf.outcome == "family":
            # solution components must land inside identity-matched
            # families; anything else marks a missing catalogue entry
            if not (set(leaf.families) & parametric_matches):
                unresolved = True
        elif leaf.outcome == "sporadic":
            for frozen in leaf.points:
                point = dict(frozen)
                # defining polynomials involve only k, l, r, s, all pinned
                covered = any(
                    all(d.evaluate(point) == 0 for d in family_by_id(fid).defining)
                    for fid in parametric_matches
                )
                if not covered:
                    for fam in family_catalog():
                        if not fam.point_instances:
                            continue
                        if partition_text in fam.source_partitions and any(
                            dict(pt) == point for pt in fam.point_instances
                        ):
                            sporadic.add(fam.id)
                            covered = True
                            break
                if not covered:
                    unresolved = True
    return GroupingAnalysis(
        grouping, eqs, tuple(matches), leaves,
        infeasible=contradictions, unresolved=unresolved,
        sporadic_families=tuple(sorted(sporadic)),
    )


def classify_partition(p: SetPartition) -> ClassificationRecord:
    """Full classification record for one partition.

    Combines the primitive-case analysis with membership in the two
    imprimitive family scans.  The discrete and single-block partitions are
    the two trivial fusions and are flagged as such.
    """
    trivial = p.is_discrete() or p.is_single_block()
    text = str(p)
    guaranteed = text in guaranteed_partition_strings()
    imp: list[str] = []
    if not trivial and not guaranteed:
        if text in _imprimitive_positive_strings(1):
            imp.append("IMP1")
        if text in _imprimitive_positive_strings(2):
            imp.append("IMP2")

    graph = potential_equality_graph(p)
    m = p.num_blocks + 1
    c = len(graph.classes)
    notes: list[str] = []

    if trivial:
        kind = "discrete (the scheme itself)" if p.is_discrete() else "rank-2"
        return ClassificationRecord(
            p, "GUARANTEED", True, (), (), None,
            (f"trivial fusion: {kind}",),
        )
    if guaranteed:
        if c != m:
            notes.append(f"symbolic class count {c} != {m}")
        return ClassificationRecord(p, "GUARANTEED", False, (), (), None, tuple(notes))

    # row-count verdicts, cheapest first: fewer classes than rows, then
    # m+1 pairwise-blocked classes (the dominant case, found before any
    # equation solving), then no grouping at all
    if c < m:
        cert = RowCountCertificate(
            tuple(cls[0] for cls in graph.classes), m, deficit=True
        )
    else:
        cert = _independent_set_certificate(graph, m)
    if cert is None:
        groupings = _enumerate_groupings(graph, m)
        if not groupings:
            cert = RowCountCertificate((), m, deficit=False)
    if cert is not None:
        return ClassificationRecord(
            p, "FAMILY" if imp else "INFEASIBLE", False, _sorted_families(imp),
            (), cert, tuple(notes),
        )

    analyses = tuple(_analyze_grouping(graph, g) for g in groupings)
    families = set(imp)
    unresolved = False
    for ga in analyses:
        for fid in ga.matched_families:
            fam = family_by_id(fid)
            if fam.point_instances:
                # finite families attach only where their source theorem
                # claims the fusion; the match is instance-verified
                if text in fam.source_partitions:
                    families.add(fid)
            else:
                families.add(fid)
        families.update(ga.sporadic_families)
        if ga.unresolved:
            unresolved = True
        if (not ga.infeasible and not ga.matched_families
                and not ga.sporadic_families and not ga.unresolved):
            unresolved = True

    if unresolved:
        verdict = "UNRESOLVED"
    elif families:
        verdict = "FAMILY"
    else:
        verdict = "INFEASIBLE"
    return ClassificationRecord(
        p, verdict, False, _sorted_families(families), analyses, None, tuple(notes)
    )


def _independent_set_certificate(
    graph: EqualityGraph, m: int
) -> RowCountCertificate | None:
    """A set of m+1 pairwise-blocked classes, when one exists."""
    blocked = graph.blocked_pairs
    for combo in itertools.combinations(range(len(graph.classes)), m + 1):
        if all((a, b) in blocked for a, b in itertools.combinations(combo, 2)):
            return RowCountCertificate(
                tuple(graph.classes[ci][0] for ci in combo), m
            )
    return None


@dataclass(frozen=True)
class ClassificationResult:
    records: tuple[ClassificationRecord, ...]

    def summary(self) -> dict:
        counts = {"total": len(self.records), "guaranteed": 0, "trivial": 0,
                  "family": 0, "infeasible": 0, "unresolved": 0}
        fam_counts: dict[str, int] = {f.id: 0 for f in family_catalog()}
        for rec in self.records:
            if rec.trivial:
                counts["trivial"] += 1
            elif rec.verdict == "GUARANTEED":
                counts["guaranteed"] += 1
            elif rec.verdict == "FAMILY":
                counts["family"] += 1
            elif rec.verdict == "INFEASIBLE":
                counts["infeasible"] += 1
            else:
                counts["unresolved"] += 1
            for fid in rec.families:
                fam_counts[fid] += 1
        counts["families"] = fam_counts
        return counts

    def family_partitions(self, fid: str) -> list[str]:
        return [str(r.partition) for r in self.records if fid in r.families]

    def record(self, text: str) -> ClassificationRecord:
        for rec in self.records:
            if str(rec.partition) == text:
                return rec
        raise KeyError(text)


@lru_cache(maxsize=1)
def classify_all() -> ClassificationResult:
    """Classify every partition of {2,...,9}; deterministic order."""
    records = tuple(classify_partition(p) for p in all_default_partitions())
    return ClassificationResult(records)


def cache_stats() -> dict[str, tuple[int, int, int]]:
    """(hits, misses, currsize) of every ``lru_cache`` in this module, by name."""
    stats = {}
    for name, value in globals().items():
        if getattr(value, "__module__", None) == __name__ and hasattr(value, "cache_info"):
            info = value.cache_info()
            stats[name] = (info.hits, info.misses, info.currsize)
    return stats


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def _leaf_consequence(
    poly: MultiPoly, leaf: ProofLeaf, equations: Sequence[MultiPoly]
) -> bool:
    """Is poly forced to vanish on the leaf by the grouping's equations?

    It must be the normalized image, under the leaf's substitution chain,
    of one of the equations or of the leaf's assumptions, or the normalized
    resultant of two such images that eliminates a variable poly lacks.
    The first match ends the search; resultants are tried smallest
    Sylvester matrix first, up to the size the prover forms.
    """
    images = []
    for e in itertools.chain(equations, leaf.assumptions):
        image = _apply_substitutions(e, leaf.substitutions).normalized()
        if image == poly:
            return True
        if not image.is_zero():
            images.append(image)
    syms = poly.symbols()
    pairs = []
    for f, g in itertools.combinations(dict.fromkeys(images), 2):
        for var in sorted((f.symbols() & g.symbols()) - syms):
            size = f.degree(var) + g.degree(var)
            if size <= _RESULTANT_MAX_SIZE and syms <= f.symbols() | g.symbols():
                pairs.append((size, f, g, var))
    return any(
        _resultant(f, g, var).normalized() == poly
        for _, f, g, var in sorted(pairs, key=lambda t: t[0])
    )


def _verify_bound_conflict(leaf: ProofLeaf, equations: Sequence[MultiPoly]) -> bool:
    """Re-derive the mathematical content of a bounds contradiction."""
    conflict = leaf.bound_conflict
    if conflict is None:
        return False
    kind, data = conflict.kind, conflict.data
    if kind == "definite":
        return (_orthant_sign(data[0]) is not None
                and _leaf_consequence(data[0], leaf, equations))
    if kind == "no-region-root":
        return (_rootless_on_region(data[0])
                and _leaf_consequence(data[0], leaf, equations))
    if kind in ("constant", "image-definite"):
        # the bound analysis of the stored substitutions must find this conflict
        return _decomposer()._bound_conflict(leaf.substitutions) == conflict
    return False


def verify_record(rec: ClassificationRecord) -> bool:
    """Re-check the mechanical content of a classification record.

    Unit contradictions remultiply their sieve certificates; bound
    conflicts recompute the sign data from the stored substitution chains,
    and a definite or region-rootless equation must be re-derived from the
    grouping's equations; row-count certificates re-check pairwise
    blockedness; every
    substitution's denominator must be constant or carry a sieve
    certificate that remultiplies to it.
    """
    sieve = default_sieve_set()
    if rec.row_count_certificate is not None:
        cert = rec.row_count_certificate
        table = symbolic_tensor_table()
        masks = block_masks(table, rec.partition)
        classes = table.row_classes(masks)
        if cert.deficit:
            return len(classes) < cert.required
        if not cert.representatives:
            # no clique cover of the unblocked graph into m-1 parts exists;
            # re-enumeration is the check
            return not _enumerate_groupings(
                potential_equality_graph(rec.partition), cert.required
            )
        first_of_row = {row: cls[0] for cls in classes for row in cls}
        firsts = sorted(first_of_row[row] for row in cert.representatives)
        if len(set(firsts)) != len(firsts) or len(firsts) <= cert.required:
            return False
        # only the pairs among the representatives' classes need checking
        return all(
            _class_pair_status(a, b, masks).blocked
            for a, b in itertools.combinations(firsts, 2)
        )
    for ga in rec.groupings:
        for leaf in ga.leaves:
            if leaf.outcome == "contradiction-unit":
                cert = leaf.unit_certificate
                if cert is None or cert.reconstruct(sieve) != leaf.unit_poly:
                    return False
            elif leaf.outcome == "contradiction-bounds":
                if not _verify_bound_conflict(leaf, ga.equations):
                    return False
            for sub in leaf.substitutions:
                if sub.den.is_constant():
                    continue
                cert = sub.den_certificate
                if cert is None or cert.reconstruct(sieve) != sub.den.normalized():
                    return False
    return True


# ---------------------------------------------------------------------------
# wreath-product fusion classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WreathClassification:
    """Fusions of one wreath-product orientation, by parameter condition."""

    orientation: int
    base: SetPartition
    guaranteed: tuple[str, ...]  # nontrivial, all parameters
    clique_case: tuple[str, ...]  # only for k = r, s = -1
    multipartite_case: tuple[str, ...]  # only for r = 0, l = -1-s
    never: tuple[str, ...]
    trivial: tuple[str, ...]  # the base itself and the single block


def classify_wreath(orientation: int) -> WreathClassification:
    """Classify the 15 coarsenings of a wreath partition symbolically."""
    base = wreath_partition(orientation)
    generic = symbolic_tensor_table()
    guaranteed, clique, multi, never, trivial = [], [], [], [], []
    for q in coarsenings(base):
        text = str(q)
        if q == base or q.is_single_block():
            trivial.append(text)
            continue
        if bm_check(generic, q).is_fusion:
            guaranteed.append(text)
            continue
        in1 = text in _imprimitive_positive_strings(1)
        in2 = text in _imprimitive_positive_strings(2)
        if in1:
            clique.append(text)
        if in2:
            multi.append(text)
        if not in1 and not in2:
            never.append(text)
    return WreathClassification(
        orientation, base, tuple(guaranteed), tuple(clique), tuple(multi),
        tuple(never), tuple(trivial),
    )
