"""What prover and checker both read: the symbolic tables, the families,
the region, the equality graph, records, substitution chains, the verdict.

Every family is decided on its own table, ``family_base_table``: the
generic table under the catalogue substitution, or at a point family's
point.  A merge pattern matches a family where that table's row classes
are the pattern's merged rows.  The two imprimitive families are handled
separately, exactly as the rank-3 case analysis reduces to: a partition
carries IMP1 or IMP2 where it fuses that family's table.  Both are written
in the union-of-cliques parameters (r, m), IMP2 as the switch image of
IMP1.

Records hold only the proof; one verdict rule, ``_verdict``, concludes the
verdict and families from it for ``classify_partition`` and again, as a
replay, in ``verify_record``.

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
from functools import lru_cache
from typing import Sequence

from .exact import (
    K, L, M, SYMBOLS, MissingSymbol, MixedField, MultiPoly, NonzeroCertificate,
    ONE, R, S, _count_roots_open, _poly_gcd_1var, _quadratic_roots_exact,
    default_sieve_set, quad, scalar_sign,
)
from .fusion import block_masks, scan_all
from .partitions import SetPartition
from .products import tensor_square_table
from .scheme import CharTable


# row orthogonality of the two nontrivial base rows; available to every
# equation system as a side relation
ORTHOGONALITY = (L * (K + R * S) + K * (ONE + R + S + R * S)).normalized()

# sieve members turned strictly positive on the primitive region, in sieve
# order; used for sign contradictions
PRIMITIVE_POSITIVE = tuple(
    (mem.name, mem.sign * mem.poly) for mem in default_sieve_set().members
    if mem.name in ("k", "l", "r", "1+s", "k-r", "l+1+s", "k+rs", "r-s", "k-s",
                    "k-1", "l-1"))


# open region interval per symbol; None means unbounded
_REGION_INTERVAL: dict[str, tuple[Fraction | None, Fraction | None]] = {
    "k": (Fraction(1), None),
    "l": (Fraction(1), None),
    "r": (Fraction(0), None),
    "s": (None, Fraction(-1)),
    "m": (Fraction(0), None),
}
# exponent positions of the symbols negative on the whole region
_NEGATIVE = tuple(SYMBOLS.index(var) for var, (_, hi) in _REGION_INTERVAL.items()
                  if hi is not None and hi <= 0)


def _orthant_sign(q: MultiPoly) -> int | None:
    """Sign of q on the whole parameter region, by coefficient inspection.

    Each region interval lies on one side of 0; after reorienting the
    negative symbols every variable ranges over positives, so a nonzero
    polynomial whose coefficients all share one sign cannot vanish there.
    """
    if q.is_zero():
        return None
    signs = set()
    for exps, c in q.terms:
        flips = sum(exps[i] for i in _NEGATIVE)
        signs.add((1 if c > 0 else -1) * (-1 if flips % 2 else 1))
        if len(signs) > 1:
            return None
    return signs.pop()


def _rootless_on_region(e: MultiPoly) -> bool:
    """True when a univariate equation has no root on its region interval."""
    if len(e.symbols()) != 1:
        return False
    var = next(iter(e.symbols()))
    coeffs = [c.constant_value() for c in e.coefficients(var)]
    lo, hi = _REGION_INTERVAL[var]
    return bool(coeffs) and _count_roots_open(coeffs, lo, hi) == 0


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


def family_base_table(fid: str) -> CharTable:
    """``symbolic_base_table()`` under the family's ``substitution``, or
    evaluated at its ``point`` for a point family."""
    fam = family_by_id(fid)
    point, sub = dict(fam.point), fam.substitution_map()
    base = symbolic_base_table()
    return replace(base, rows=tuple(
        tuple(x.evaluate(point) if point else x.substitute(sub) for x in row)
        for row in base.rows))


@lru_cache(maxsize=None)
def _family_tensor_table(fid: str) -> CharTable:
    # keyed by the id: a key of substitution polynomials is rehashed per call
    return tensor_square_table(family_base_table(fid))


@lru_cache(maxsize=None)
def _imprimitive_positive_strings(fid: str) -> frozenset[str]:
    return frozenset(str(v.partition) for v in scan_all(_family_tensor_table(fid)))


@lru_cache(maxsize=None)
def guaranteed_partition_strings() -> frozenset[str]:
    """The 13 nontrivial partitions fusing for every rank-3 table algebra."""
    return frozenset(str(v.partition) for v in scan_all(symbolic_tensor_table()))


@dataclass(frozen=True)
class FamilySpec:
    """A parameter family admitting special-case fusions.

    ``substitution`` maps every one of k, l, r, s to a polynomial in the
    family's free symbols; it satisfies the row-orthogonality relation
    identically.  ``defining`` generates the family's ideal inside
    Q[k, l, r, s].  A family with a single primitive member gives it as
    ``point``, (name, value) pairs, and its table ``family_base_table`` is
    the generic one evaluated there instead of substituted; it attaches
    only to the partitions its ``source_partitions`` names.
    """

    id: str
    description: str
    substitution: tuple[tuple[str, MultiPoly], ...]
    defining: tuple[MultiPoly, ...]
    source_partitions: tuple[str, ...] = ()
    point: tuple[tuple[str, object], ...] = ()
    sample_instances: tuple = ()  # exact (k, l, r, s) tuples for spot checks

    def substitution_map(self) -> dict[str, MultiPoly]:
        return dict(self.substitution)


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
            "complete multipartite: r = 0, l = -1-s; as the switch image of "
            "IMP1, in its symbols, k = m(1+r), l = r, s = -1-r",
            _sub(k=M * (1 + R), l=R, r=MultiPoly(), s=-1 - R),
            (R, L + 1 + S),
            sample_instances=((f(6), f(2), f(0), f(-3)), (f(4), f(3), f(0), f(-4)),
                              (f(9), f(2), f(0), f(-3))),
        ),
        FamilySpec(
            "CONF",
            "conference parameters: k = l = 2r(1+r), s = -1-r",
            _sub(k=2 * R + 2 * R * R, l=2 * R + 2 * R * R, s=-1 - R),
            (S + R + 1, K - 2 * R - 2 * R * R, L - 2 * R - 2 * R * R),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(12), f(12), f(2), f(-3)),
                              _conf_sqrt13()),
        ),
        FamilySpec(
            "NEWS1",
            "rook-graph complements: k = s^2, l = -2s, r = 1",
            _sub(k=S * S, l=-2 * S, r=ONE),
            (R - 1, K - S * S, L + 2 * S),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(9), f(6), f(1), f(-3)),
                              (f(16), f(8), f(1), f(-4))),
        ),
        FamilySpec(
            "NEWS2",
            "rook graphs: k = 2(1+r), l = (1+r)^2, s = -2",
            _sub(k=2 + 2 * R, l=(1 + R) * (1 + R), s=MultiPoly.const(-2)),
            (S + 2, K - 2 - 2 * R, L - (1 + R) * (1 + R)),
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
            point=(("k", f(4)), ("l", f(4)), ("r", f(1)), ("s", f(-2))),
            sample_instances=((f(4), f(4), f(1), f(-2)),),
        ),
        FamilySpec(
            "CLB1",
            "k = r(3+r), l = 3+r, s = -2 (complement of the folded 5-cube at "
            "r = 2; the structure constant l-1+rs = 2-r caps the family at "
            "r <= 2)",
            _sub(k=R * (3 + R), l=3 + R, s=MultiPoly.const(-2)),
            (S + 2, K - R * (3 + R), L - 3 - R),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(10), f(5), f(2), f(-2)),
                              (f(27, 4), f(9, 2), f(3, 2), f(-2))),
        ),
        FamilySpec(
            "CLB1S",
            "switch partner of CLB1: k = 2-s, l = (s-2)(s+1), r = 1 (the "
            "structure constant k+r+s+rs = 3+s caps the family at s >= -3)",
            _sub(k=2 - S, l=S * S - S - 2, r=ONE),
            (R - 1, K - 2 + S, L - S * S + S + 2),
            sample_instances=((f(4), f(4), f(1), f(-2)), (f(5), f(10), f(1), f(-3)),
                              (f(9, 2), f(27, 4), f(1), f(-5, 2))),
        ),
        FamilySpec(
            "CLB2A",
            "negative-Latin-square type: k = r(2r+1), l = (r-1)(2r+1), s = -r "
            "(r >= 2; r = 2 is the complement of the folded 5-cube)",
            _sub(k=R * (2 * R + 1), l=(R - 1) * (2 * R + 1), s=-R),
            (S + R, K - R * (2 * R + 1), L - (R - 1) * (2 * R + 1)),
            sample_instances=((f(10), f(5), f(2), f(-2)), (f(21), f(14), f(3), f(-3))),
        ),
        FamilySpec(
            "CLB2B",
            "switch partner of CLB2A: k = (s+2)(2s+1), l = (s+1)(2s+1), r = -2-s",
            _sub(k=(S + 2) * (2 * S + 1), l=(S + 1) * (2 * S + 1), r=-2 - S + MultiPoly()),
            (R + S + 2, K - (S + 2) * (2 * S + 1), L - (S + 1) * (2 * S + 1)),
            sample_instances=((f(5), f(10), f(1), f(-3)), (f(14), f(21), f(2), f(-4))),
        ),
        FamilySpec(
            "PLS2A",
            "Latin-square type: k = r(2r-1), l = (r+1)(2r-1), s = -r (r >= 2; "
            "r = 2 is the 4x4 rook graph, r = 3 a Latin-square graph of order 36); "
            "matrix-verified addition to the published catalogue",
            _sub(k=R * (2 * R - 1), l=(R + 1) * (2 * R - 1), s=-R),
            (S + R, K - R * (2 * R - 1), L - (R + 1) * (2 * R - 1)),
            sample_instances=((f(6), f(9), f(2), f(-2)), (f(15), f(20), f(3), f(-3))),
        ),
        FamilySpec(
            "PLS2B",
            "switch partner of PLS2A: k = s(2s+3), l = (s+1)(2s+3), r = -2-s",
            _sub(k=S * (2 * S + 3), l=(S + 1) * (2 * S + 3), r=-2 - S + MultiPoly()),
            (R + S + 2, K - S * (2 * S + 3), L - (S + 1) * (2 * S + 3)),
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
            point=(("k", f(4)), ("l", f(4)), ("r", f(1)), ("s", f(-2))),
            sample_instances=((f(4), f(4), f(1), f(-2)),),
        ),
        FamilySpec(
            "SP5",
            "two sporadic fusions holding exactly at the pentagon table, "
            "k = l = 2 with golden-ratio eigenvalues",
            _sub(k=MultiPoly.const(2), l=MultiPoly.const(2)),
            (K - 2, L - 2, S + R + 1, R * R + R - 1),
            source_partitions=("26|38|49|57", "29|35|48|67"),
            point=(("k", f(2)), ("l", f(2)), ("r", quad(f(-1, 2), f(1, 2), 5)),
                   ("s", quad(f(-1, 2), f(-1, 2), 5))),
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


def family_match(
    masks: tuple[int, ...], merged: tuple[tuple[int, ...], ...], fam: FamilySpec
) -> bool:
    """Does the family's own tensor table group its rows on these blocks
    exactly as ``merged``, the rows of a merge pattern's groups?

    That is the grouping's equations vanishing on the family, under its
    substitution (or at its point), while every two groups keep a block
    where they differ.
    """
    return _family_tensor_table(fam.id).row_classes(masks) == merged


@lru_cache(maxsize=None)
def _block_difference(a: int, b: int, mask: int) -> MultiPoly:
    """Normalized difference of rows a, b of the symbolic table on a block.

    ``mask`` is a block's key from ``fusion.block_masks``; caching keys on
    (rows, mask) because the same differences recur across thousands of
    partitions.
    """
    sums = symbolic_tensor_table().mask_sums(mask)
    return (sums[a] - sums[b]).normalized()


# Which row pairs can never merge is kept as bits: bits a*9 + b and b*9 + a
# of an int both stand for rows a, b of the 9-row symbolic table, so the
# nine bits from a*9 up are the rows that can never merge with row a.
_ROWS = 9
# Valency domination blocks row 0 against every other row: merging chi_00
# with chi_ij would force chi_i(A_a) chi_j(A_b) = chi_0(A_a) chi_0(A_b) in
# every column, since the valency row dominates termwise; column A_10 or
# A_01 then requires k = r or k = s, and k - r, k - s are sieve-certified.
_VALENCY_BLOCKED = sum(1 << b | 1 << b * _ROWS for b in range(1, _ROWS))


@lru_cache(maxsize=None)
def _blocked_pair_bits(mask: int) -> int:
    """Bits ``a*9 + b`` and ``b*9 + a`` for each pair of rows 1 <= a < b
    whose difference on the block ``mask`` carries a sieve certificate.
    The sieve memoizes certificates by polynomial."""
    sieve = default_sieve_set()
    bits = 0
    for a, b in itertools.combinations(range(1, _ROWS), 2):
        diff = _block_difference(a, b, mask)
        if not diff.is_zero() and sieve.certify(diff) is not None:
            bits |= 1 << (a * _ROWS + b) | 1 << (b * _ROWS + a)
    return bits


def _blocked_rows(masks: Sequence[int]) -> int:
    """The row pairs that can never merge on a partition with these masks:
    the valency pairs plus every pair a block difference blocks."""
    bits = _VALENCY_BLOCKED
    for mask in masks:
        bits |= _blocked_pair_bits(mask)
    return bits


@dataclass(frozen=True)
class EqualityGraph:
    """Which row classes of the column-summed symbolic table could merge.

    ``classes`` groups identically equal rows, ordered by first row, so
    class 0 is the valency row alone; ``blocked`` is ``_blocked_rows(masks)``
    and decides each pair of classes by the bit of their first rows.
    """

    masks: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    blocked: int

    def equations(self, ci: int, cj: int) -> tuple[MultiPoly, ...]:
        """The distinct nonzero block differences of the two classes."""
        a, b = sorted((self.classes[ci][0], self.classes[cj][0]))
        return _pair_equations(a, b, self.masks)


@lru_cache(maxsize=None)
def _pair_equations(a: int, b: int, masks: tuple[int, ...]) -> tuple[MultiPoly, ...]:
    """The distinct nonzero block differences of rows a < b, in block order;
    a row pair's equations recur across the merge patterns of a partition
    and across partitions sharing its masks."""
    diffs = (_block_difference(a, b, mask) for mask in masks)
    return tuple(dict.fromkeys(d for d in diffs if not d.is_zero()))


def potential_equality_graph(p: SetPartition) -> EqualityGraph:
    """Which rows of the column-summed symbolic table could ever coincide;
    the one place a partition's masks, classes and blocked pairs are made."""
    table = symbolic_tensor_table()
    masks = block_masks(table, p)
    return EqualityGraph(masks, table.row_classes(masks), _blocked_rows(masks))


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
    its region interval; ``no-feasible-root``: data (var, roots), the exact
    roots of the leaf's univariate residual, none of which pins a point
    inside the primitive region; ``constant`` / ``image-definite``: a
    forced-positive quantity whose image under the substitution chain is a
    constant, resp. an orthant-definite polynomial, of the wrong sign.
    """

    # "definite" | "no-region-root" | "no-feasible-root" | "constant"
    # | "image-definite"
    kind: str
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


@dataclass(frozen=True)
class GroupingAnalysis:
    """One admissible merge pattern of row classes and its resolution."""

    merge_classes: tuple[tuple[int, ...], ...]  # row indices per merged class
    equations: tuple[MultiPoly, ...]
    matched_families: tuple[str, ...]
    leaves: tuple[ProofLeaf, ...]


@dataclass(frozen=True)
class RowCountCertificate:
    """Pairwise sieve-distinct row classes exceeding the required count.

    ``representatives`` lists one row per class; every pair is blocked, so
    any merge pattern leaves more distinct rows than classes allowed.
    ``deficit`` is always False: the summed table has at least ``required``
    row classes, so no partition has too few.
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


def _apply_substitutions(
    p: MultiPoly, subs: Sequence[SubstitutionRecord]
) -> tuple[MultiPoly, int]:
    """Denominator-cleared image of p under the substitution chain, and the
    sign (+1 or -1) relating p to its image.

    Each step var = -num/den is one ``MultiPoly.eliminate``, which returns
    the degree d of var; for odd d the image's sign is p's times den's,
    constant or certified.
    """
    out, sign = p, 1
    for rec in subs:
        out, d = out.eliminate(rec.var, rec.num, rec.den)
        if d % 2:
            sign *= (scalar_sign(rec.den.constant_value()) if rec.den.is_constant()
                     else rec.den_certificate.region_sign())
    return out, sign


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


def _residual_roots(residual: Sequence[MultiPoly], var: str) -> list | None:
    """Exact real roots of the gcd of equations univariate in ``var``; None
    unless the gcd has degree 1 or 2."""
    g: list = []
    for e in residual:
        g = _poly_gcd_1var(g, [c.constant_value() for c in e.coefficients(var)])
    return _quadratic_roots_exact(g)


def _feasible_root_points(
    subs: Sequence[SubstitutionRecord], var: str, roots: Sequence
) -> tuple[tuple[tuple[tuple[str, object], ...], ...], bool]:
    """The feasible points the chain pins at the roots inside ``var``'s
    region interval, and whether it pins a point at every such root."""
    lo, hi = _REGION_INTERVAL[var]
    points, decided = [], True
    for root in roots:
        if (lo is None or root > lo) and (hi is None or root < hi):
            point = _leaf_point(subs, {var: root})
            if point is None:
                decided = False
            elif _point_feasible(point):
                points.append(_freeze_point(point))
    return tuple(points), decided


def _bound_conflict(subs: tuple[SubstitutionRecord, ...]) -> BoundConflict | None:
    """Find a sign contradiction among forced-positive quantities.

    Each catalogued quantity is strictly positive on the primitive region;
    its substitution image must then have the tracked sign.
    """
    for name, poly in PRIMITIVE_POSITIVE:
        img, sgn = _apply_substitutions(poly, subs)
        if img.is_constant():
            if scalar_sign(img.constant_value()) != sgn:
                return BoundConflict("constant", (name, img))
            continue
        orthant = _orthant_sign(img)
        if orthant is not None and orthant != sgn:
            return BoundConflict("image-definite", (name, img, orthant))
    return None


def _imprimitive_families(text: str) -> list[str]:
    """IMP1 / IMP2 where the partition fuses that family's symbolic table."""
    return [fid for fid in ("IMP1", "IMP2")
            if text in _imprimitive_positive_strings(fid)]


def _verdict(
    text: str, groupings: Sequence[GroupingAnalysis]
) -> tuple[str, tuple[str, ...]]:
    """The verdict and families a non-guaranteed partition's proof concludes.

    IMP1 / IMP2 come from the imprimitive scans and parametric matches
    attach; a point family attaches only where its
    ``source_partitions`` names the partition, by match or at a sporadic
    leaf on its ``point``.  A grouping is unresolved when a family leaf lies
    outside its parametric matches, a sporadic point is covered by neither,
    a leaf is unresolved, or nothing matches and not every leaf is a
    contradiction.
    """
    if not groupings:
        imp = tuple(_imprimitive_families(text))
        return "FAMILY" if imp else "INFEASIBLE", imp
    families = set(_imprimitive_families(text))
    named = [fam for fam in family_catalog()
             if fam.point and text in fam.source_partitions]
    unresolved = False
    for ga in groupings:
        parametric = {fid for fid in ga.matched_families
                      if not family_by_id(fid).point}
        families |= parametric
        families.update(fam.id for fam in named if fam.id in ga.matched_families)
        attached = False
        for leaf in ga.leaves:
            if leaf.outcome == "unresolved":
                unresolved = True
            elif leaf.outcome == "family":
                # solution components must land inside identity-matched
                # families; anything else marks a missing catalogue entry
                unresolved |= not parametric & set(leaf.families)
            elif leaf.outcome == "sporadic":
                for frozen in leaf.points:
                    # defining polynomials involve only k, l, r, s, all pinned
                    point = dict(frozen)
                    if any(all(d.evaluate(point) == 0
                               for d in family_by_id(fid).defining)
                           for fid in parametric):
                        continue
                    fid = next((fam.id for fam in named
                                if point == dict(fam.point)), None)
                    if fid is None:
                        unresolved = True
                    else:
                        families.add(fid)
                        attached = True
        if not (ga.matched_families or attached or all(
                leaf.outcome.startswith("contradiction") for leaf in ga.leaves)):
            unresolved = True
    verdict = "UNRESOLVED" if unresolved else "FAMILY" if families else "INFEASIBLE"
    # the distinct family ids, in catalog order
    return verdict, tuple(f.id for f in family_catalog() if f.id in families)
