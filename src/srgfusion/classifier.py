"""Symbolic classification of all 4140 tensor-square fusion partitions.

For each partition of {2,...,9} this module decides, with exact symbolic
arithmetic over the parameters (k, l, r, s), whether the fusion it names

  * holds for every rank-3 table algebra (GUARANTEED),
  * holds exactly on catalogued parameter families (FAMILY), or
  * cannot hold for any primitive table and is not an imprimitive-family
    fusion (INFEASIBLE, with a machine-checkable certificate).

Method.  Column-sum the fully symbolic 9x9 table along the partition and
group identical rows into classes; there are always at least m of them for
a partition into m-1 blocks.  Two rows can never merge on the primitive
region when their difference on some block is a polynomial that the
nonvanishing sieve certifies (a scaled product of strictly-signed factors);
the valency row can never merge with any other row because its entries
dominate termwise.  That decision is made once, as bits: per block, the row
pairs it blocks, memoized by the block's mask, and per partition the OR of
its blocks' bits.  Each partition builds one "potential equality" graph
of its row classes and those bits, which decides which classes may merge;
the block differences of a mergeable pair are its equations.  m+1
pairwise-blocked classes (a row-count certificate, the verdict of most
partitions) are read off the graph; only the other partitions enumerate
the merge patterns that could give the required number of distinct rows.
Every admissible merge pattern yields a polynomial system; the system is
decomposed by exact branching (linear-pivot elimination with constant or
sieve-certified denominators, factor splits, univariate gcds, resultants)
into leaves that either

  * contradict the primitive region (a sieve-certified nonzero polynomial
    is forced to vanish, an equation is definite or rootless on the region,
    or a forced-positive quantity gets the wrong sign), or
  * land on a solution variety, which must be identified with a catalogued
    family, or on exact points, which must be catalogued sporadic tables.

Any other leaf is unresolved, and so is the partition it belongs to.

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
from math import isqrt
from typing import Iterable, Sequence

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

# sieve members turned strictly positive on the primitive region, in sieve
# order; used for sign contradictions
PRIMITIVE_POSITIVE = tuple(
    (mem.name, mem.sign * mem.poly) for mem in default_sieve_set().members
    if mem.name in ("k", "l", "r", "1+s", "k-r", "l+1+s", "k+rs", "r-s", "k-s",
                    "k-1", "l-1"))


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


# ---------------------------------------------------------------------------
# family catalogue
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# blocked row pairs and the potential-equality graph
# ---------------------------------------------------------------------------

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


def _pairwise_blocked(rows: Sequence[int], blocked: int) -> bool:
    """Are the increasing ``rows`` pairwise blocked in ``blocked``?"""
    return all(blocked >> (a * _ROWS + b) & 1
               for a, b in itertools.combinations(rows, 2))


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

    def can_merge(self, ci: int, cj: int) -> bool:
        return not self.blocked >> (
            self.classes[ci][0] * _ROWS + self.classes[cj][0]) & 1

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


# ---------------------------------------------------------------------------
# polynomial system decomposition
# ---------------------------------------------------------------------------

# polynomials worth splitting on beyond the sieve: family-defining factors
# and small recurring combinations
@lru_cache(maxsize=None)
def _factor_basis() -> tuple[MultiPoly, ...]:
    polys = [d for fam in family_catalog() for d in fam.defining] + [
        R + S + 3, R + S + 4, K - L, L - R, K - R * R, L + S,
        K + S, L - 1 - R, K + 1 + S,
    ]
    normal = (p.normalized() for p in polys)
    basis = tuple(dict.fromkeys(n for n in normal if not n.is_constant()))
    # the residue test of ``_split_poly`` needs what the sieve's needs
    # (see the ``exact`` module docstring)
    for cand in basis:
        if not _basis_residue(cand):
            raise ValueError(f"factor-basis member {cand} breaks the residue "
                             f"test: it must be a primitive integer polynomial, "
                             f"nonzero at the residue point")
    return basis


@lru_cache(maxsize=None)
def _basis_residue(cand: MultiPoly) -> int | None:
    """cand at the sieve's residue point, or None when a coefficient is a
    Fraction; normalized() makes every basis member primitive."""
    return default_sieve_set()._residue(cand)


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
    # every sieve member's irreducible factors are members too, so dividing
    # out a basis factor never lets a member divide again
    sieve = default_sieve_set()
    rem, _ = sieve.strip(p.normalized())
    factors: list[MultiPoly] = []
    progress = True
    while progress and not rem.is_constant():
        progress = False
        norm = rem.normalized()
        # a division can succeed only where cand(P) divides rem(P), as in
        # the sieve's residue test; a Fraction coefficient skips the test
        residue = sieve._residue(rem)
        for cand in _factor_basis():
            if cand == norm or (residue is not None
                                and residue % _basis_residue(cand)):
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

    Clearing the denominator of var = -num/den multiplies by den**d; when d
    is odd the sign of the image differs from the sign of p by the sign of
    den, which is constant or read off its sieve certificate.
    """
    out = p
    sign = 1
    for rec in subs:
        d = out.degree(rec.var)
        if d <= 0:
            continue
        if d == 1:
            c0, c1 = out.coefficients(rec.var)
            out = c0 * rec.den - c1 * rec.num
        else:
            num_powers, den_powers = [ONE, -rec.num], [ONE, rec.den]
            for _ in range(d - 1):
                num_powers.append(num_powers[-1] * num_powers[1])
                den_powers.append(den_powers[-1] * rec.den)
            acc = MultiPoly()
            for power, coeff in enumerate(out.coefficients(rec.var)):
                acc = acc + coeff * num_powers[power] * den_powers[d - power]
            out = acc
        if d % 2:
            sign *= (scalar_sign(rec.den.constant_value()) if rec.den.is_constant()
                     else rec.den_certificate.region_sign())
    return out, sign


@lru_cache(maxsize=None)
def _substitute_one(p: MultiPoly, rec: SubstitutionRecord) -> MultiPoly:
    """Normalized image of p under one elimination step."""
    return _apply_substitutions(p, (rec,))[0].normalized()


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


@lru_cache(maxsize=None)
def _univariate_gcd_reduce(
    system: tuple[MultiPoly, ...]
) -> tuple[MultiPoly, ...] | None:
    """Replace univariate subsystems by their gcd; None when nothing changes.
    Memoized: the branches of different systems meet in few subsystems."""
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
    return tuple(e for idx, e in enumerate(out) if idx not in drop)


@lru_cache(maxsize=None)
def _screen(e: MultiPoly) -> tuple[MultiPoly, ProofLeaf | None]:
    """Normalized form of a nonzero equation and, when it alone contradicts
    the primitive region, the contradiction leaf (with an empty chain) that
    says so.

    The tests run cheapest first: a nonzero constant, a sieve-certified
    polynomial, an orthant-definite one, a univariate one rootless on its
    region interval.
    """
    e = e.normalized()
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
def _pivot_candidates(e: MultiPoly) -> tuple:
    """Per var of ``_ELIM_ORDER``: ((rank, size), a_part, b_part,
    certificate) when e = a_part + b_part * var and b_part is constant
    (rank 0) or sieve-certified (rank 1), size being e's term count; else
    None."""
    size = len(e.terms)
    out = []
    for var in _ELIM_ORDER:
        cand = None
        if e.degree(var) == 1:
            a_part, b_part = e.coefficients(var)
            b_norm = b_part.normalized()
            if b_norm.is_constant():
                cand = (0, size), a_part, b_part, None
            else:
                cert = default_sieve_set().certify(b_norm)
                if cert is not None:
                    cand = (1, size), a_part, b_part, cert
        out.append(cand)
    return tuple(out)


def _run(
    system: Iterable[MultiPoly],
    subs: tuple[SubstitutionRecord, ...],
    assumptions: tuple[MultiPoly, ...],
    depth: int,
) -> list[ProofLeaf]:
    """Leaves of one branch.  The one place a system is normalized and
    deduplicated: callers pass any iterable, zeros and repeats included.
    Equations are screened in order and the first contradiction ends the
    branch, so a lazy iterable is consumed only up to it."""
    # constants and sieve-certified members force a contradiction, and
    # so do definite and region-rootless ones
    cleaned: list[MultiPoly] = []
    for e in system:
        if e.is_zero():
            continue
        e, leaf = _screen(e)
        if leaf is not None:
            return [replace(leaf, substitutions=subs, assumptions=assumptions)]
        cleaned.append(e)
    system = list(dict.fromkeys(cleaned))

    if not system:
        return [_close_leaf(subs, assumptions, ())]
    if depth > 40:
        return [_close_leaf(subs, assumptions, tuple(system))]

    # branch-free linear elimination comes first: a pivot whose leading
    # coefficient is constant or sieve-certified collapses the system
    # without splitting
    pivot = _pick_pivot(system)
    if pivot is not None:
        idx, var, a_part, b_part, cert = pivot
        rec = SubstitutionRecord(var, a_part, b_part, cert)
        rest = system[:idx] + system[idx + 1:]
        return _run((_substitute_one(e, rec) for e in rest),
                    subs + (rec,), assumptions, depth + 1)

    # factor splits: replace one equation by branches over its factors;
    # every member here failed certify, so each keeps a non-sieve factor
    for idx, e in enumerate(system):
        factors = _split_poly(e)
        if len(factors) > 1 or factors[0] != e:
            leaves = []
            rest = system[:idx] + system[idx + 1:]
            for fac in dict.fromkeys(factors):
                leaves.extend(_run(rest + [fac], subs, assumptions + (fac,), depth + 1))
            return leaves

    # univariate subsystems collapse to their gcd
    reduced = _univariate_gcd_reduce(tuple(system))
    if reduced is not None:
        return _run(reduced, subs, assumptions, depth + 1)

    # resultants eliminate a variable outright from nonlinear pairs
    new = _resultant_consequence(system)
    if new is not None:
        return _run(system + [new], subs, assumptions, depth + 1)
    return [_close_leaf(subs, assumptions, tuple(system))]


def _pick_pivot(system: list[MultiPoly]):
    """A linear pivot whose coefficient is constant or sieve-certified:
    the first of least (rank, size), vars taken in ``_ELIM_ORDER`` up to
    the first that offers one of rank 0."""
    best = None
    candidates = [_pivot_candidates(e) for e in system]
    for vi, var in enumerate(_ELIM_ORDER):
        for idx, cands in enumerate(candidates):
            cand = cands[vi]
            if cand is not None and (best is None or cand[0] < best[0][0]):
                best = (cand, idx, var)
        if best is not None and best[0][0][0] == 0:
            break
    if best is None:
        return None
    (_, a_part, b_part, cert), idx, var = best
    return idx, var, a_part, b_part, cert


def _resultant_consequence(system: list[MultiPoly]) -> MultiPoly | None:
    """A new, smaller-support consequence obtained as a resultant."""
    for f, g in itertools.combinations(system, 2):
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
    subs: tuple[SubstitutionRecord, ...],
    assumptions: tuple[MultiPoly, ...],
    residual: tuple[MultiPoly, ...],
) -> ProofLeaf:
    # a leaf whose variety misses the primitive region entirely is dead,
    # whether or not it sits on some family's Zariski closure and
    # whatever residual equations remain (they only shrink the variety)
    conflict = _bound_conflict(subs)
    if conflict is not None:
        return ProofLeaf(
            subs, assumptions, "contradiction-bounds",
            bound_conflict=conflict, residual=tuple(residual),
        )
    # each step expresses its variable in symbols no earlier step eliminated
    free = {"k", "l", "r", "s"} - {rec.var for rec in subs}
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
        return _univariate_leaf(subs, assumptions, residual, free.pop())

    if not residual:
        # positive-dimensional solution: must be a catalogued family
        fams = []
        for fam in family_catalog():
            if fam.point:
                continue
            if all(
                _apply_substitutions(d, subs)[0].is_zero()
                for d in fam.defining
            ):
                fams.append(fam.id)
        if fams:
            return ProofLeaf(subs, assumptions, "family", families=tuple(fams))
    return ProofLeaf(subs, assumptions, "unresolved", residual=tuple(residual))


def _univariate_leaf(
    subs: tuple[SubstitutionRecord, ...],
    assumptions: tuple[MultiPoly, ...],
    residual: tuple[MultiPoly, ...],
    var: str,
) -> ProofLeaf:
    """Decide a leaf cut out by univariate residual equations exactly.

    The residual gcd, when of degree 1 or 2, has exact roots; each root
    inside the region interval whose point keeps every forced-positive
    quantity strictly positive is a sporadic point.  When the roots are
    known and the chain pins a point at each root inside the interval, a
    leaf without a sporadic point is a ``no-feasible-root`` contradiction;
    otherwise it stays unresolved.
    """
    roots = _residual_roots(residual, var)
    points, decided = _feasible_root_points(subs, var, roots or ())
    if points:
        return ProofLeaf(subs, assumptions, "sporadic", points=points,
                         residual=tuple(residual))
    if roots is not None and decided:
        return ProofLeaf(
            subs, assumptions, "contradiction-bounds",
            bound_conflict=BoundConflict("no-feasible-root", (var, tuple(roots))),
            residual=tuple(residual),
        )
    return ProofLeaf(subs, assumptions, "unresolved", residual=tuple(residual))


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


class _Decomposer:
    """Branch decomposition of an equation system over the primitive region;
    ``decompose`` is the entry point perfbench traces."""

    def decompose(self, eqs: Sequence[MultiPoly]) -> list[ProofLeaf]:
        return _run(list(eqs), (), (), 0)


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


def _enumerate_groupings(
    graph: EqualityGraph, m: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Merge patterns: partitions of the row classes into exactly m parts.

    Class 0, the valency row, stays alone as the first part (all of its
    pairs are blocked); every other part is a clique of mergeable classes.
    """
    results: list[tuple[tuple[int, ...], ...]] = []
    _place_classes(graph, m - 1, 1, [], results)
    return results


def _place_classes(graph: EqualityGraph, target: int, ci: int,
                   groups: list[tuple[int, tuple[int, ...]]], results: list) -> None:
    """Place classes ci.. into ``groups``, appending to ``results`` every
    completion into exactly ``target`` groups.  A group is (bitmask of its
    classes' first rows, class indices); class ci joins a group when its
    first row is blocked with none of the group's."""
    count = len(graph.classes)
    if len(groups) > target or len(groups) + count - ci < target:
        return
    if ci == count:  # the bounds above leave exactly target groups
        results.append(((0,),) + tuple(members for _, members in groups))
        return
    row = graph.classes[ci][0]
    blocked = graph.blocked >> row * _ROWS
    for gi, group in enumerate(groups):
        rows, members = group
        if not blocked & rows:
            groups[gi] = (rows | 1 << row, members + (ci,))
            _place_classes(graph, target, ci + 1, groups, results)
            groups[gi] = group
    groups.append((1 << row, (ci,)))
    _place_classes(graph, target, ci + 1, groups, results)
    groups.pop()


def _pairwise_blocked_rows(blocked: int, size: int, candidates: int,
                           chosen: tuple[int, ...] = ()) -> tuple[int, ...] | None:
    """The first ``size`` pairwise-blocked rows in increasing lexicographic
    order, the order ``itertools.combinations`` visits: ``chosen``
    extended from ``candidates``, a bitmask of rows above it that are
    blocked with every chosen one."""
    if len(chosen) == size:
        return chosen
    while candidates.bit_count() >= size - len(chosen):
        low = candidates & -candidates
        candidates ^= low
        row = low.bit_length() - 1
        found = _pairwise_blocked_rows(
            blocked, size, candidates & blocked >> row * _ROWS, chosen + (row,))
        if found is not None:
            return found
    return None


def _grouping_system(
    graph: EqualityGraph, grouping: tuple[tuple[int, ...], ...]
) -> tuple[MultiPoly, ...]:
    """Equations forcing each group of classes equal."""
    # ORTHOGONALITY and every pair equation are already normalized and nonzero
    eqs: list[MultiPoly] = [ORTHOGONALITY]
    for group in grouping:
        for a, b in itertools.combinations(group, 2):
            eqs.extend(graph.equations(a, b))
    return tuple(dict.fromkeys(eqs))


@lru_cache(maxsize=None)
def _decompose_cached(eqs: tuple[MultiPoly, ...]) -> tuple[ProofLeaf, ...]:
    return tuple(_Decomposer().decompose(eqs))


def _analyze_grouping(
    graph: EqualityGraph, grouping: tuple[tuple[int, ...], ...]
) -> GroupingAnalysis:
    eqs = _grouping_system(graph, grouping)
    merged = tuple(tuple(sorted(row for ci in group for row in graph.classes[ci]))
                   for group in grouping)
    matches = tuple(fam.id for fam in family_catalog()
                    if family_match(graph.masks, merged, fam))
    return GroupingAnalysis(merged, eqs, matches, _decompose_cached(eqs))


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


def classify_partition(p: SetPartition) -> ClassificationRecord:
    """Full classification record for one partition.

    The discrete and single-block partitions are the two trivial fusions and
    are flagged as such.  Every other non-guaranteed partition gets a proof,
    a row-count certificate or its groupings' analyses, and ``_verdict``
    concludes from it.
    """
    if p.is_discrete() or p.is_single_block():
        kind = "discrete (the scheme itself)" if p.is_discrete() else "rank-2"
        return ClassificationRecord(
            p, "GUARANTEED", True, (), (), None,
            (f"trivial fusion: {kind}",),
        )
    text = str(p)
    if text in guaranteed_partition_strings():
        return ClassificationRecord(p, "GUARANTEED", False, (), (), None, ())

    # The summed table is P*B with P invertible and B a 0/1 block matrix of
    # rank m, so it has at least m row classes.  m+1 pairwise-blocked
    # classes, the dominant case, are read off the graph's blocked row-pair
    # bits before any merge pattern is enumerated.
    graph = potential_equality_graph(p)
    m = p.num_blocks + 1
    firsts = sum(1 << cls[0] for cls in graph.classes)
    reps = _pairwise_blocked_rows(graph.blocked, m + 1, firsts)
    cert = None if reps is None else RowCountCertificate(reps, m)
    analyses: tuple[GroupingAnalysis, ...] = ()
    if cert is None:
        analyses = tuple(_analyze_grouping(graph, g)
                         for g in _enumerate_groupings(graph, m))
    verdict, families = _verdict(text, analyses)
    return ClassificationRecord(p, verdict, False, families, analyses, cert, ())


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
        image = _apply_substitutions(e, leaf.substitutions)[0].normalized()
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
    if kind == "no-feasible-root":
        # the roots are those of the residual's gcd, every residual equation
        # follows from the grouping's, and no root pins a feasible point
        var, roots = data
        return (bool(leaf.residual)
                and all(e.symbols() == {var} for e in leaf.residual)
                and _residual_roots(leaf.residual, var) == list(roots)
                and _feasible_root_points(leaf.substitutions, var, roots) == ((), True)
                and all(_leaf_consequence(e, leaf, equations)
                        for e in leaf.residual))
    if kind in ("constant", "image-definite"):
        # the bound analysis of the stored substitutions must find this conflict
        return _bound_conflict(leaf.substitutions) == conflict
    return False


def verify_record(rec: ClassificationRecord) -> bool:
    """Re-check the mechanical content of a classification record.

    Unit contradictions remultiply their sieve certificates; every
    substitution's denominator must be a nonzero constant or carry a sieve
    certificate that remultiplies to it, checked before a leaf's conflict is
    replayed; bound conflicts recompute the sign data from the stored
    substitution chains, and a definite or region-rootless equation must be
    re-derived from the grouping's equations; row-count certificates
    re-check pairwise blockedness.  A GUARANTEED record must name no family
    and pass the Bannai-Muzychuk criterion on the symbolic table, which the
    two trivial partitions pass too; any other record must carry the
    verdict and families ``_verdict`` concludes from its proof, a row-count
    certificate or at least one grouping.
    """
    p = rec.partition
    m = p.num_blocks + 1
    if rec.trivial != (p.is_discrete() or p.is_single_block()):
        return False
    if rec.verdict == "GUARANTEED":
        # the criterion as bm_check counts it: m distinct summed rows
        return not rec.families and len(potential_equality_graph(p).classes) == m
    if (rec.verdict, rec.families) != _verdict(str(p), rec.groupings):
        return False
    if rec.row_count_certificate is not None:
        cert = rec.row_count_certificate
        graph = potential_equality_graph(p)
        first_of_row = {row: cls[0] for cls in graph.classes for row in cls}
        firsts = sorted(first_of_row[row] for row in cert.representatives)
        if (cert.required != m or len(set(firsts)) != len(firsts)
                or len(firsts) <= m):
            return False
        # only the pairs among the representatives' classes need checking
        return _pairwise_blocked(firsts, graph.blocked)
    if not rec.groupings:
        return False
    for ga in rec.groupings:
        for leaf in ga.leaves:
            for sub in leaf.substitutions:
                if sub.den.is_constant():
                    if sub.den.is_zero():
                        return False
                    continue
                cert = sub.den_certificate
                if cert is None or cert.reconstruct() != sub.den.normalized():
                    return False
            if leaf.outcome == "contradiction-unit":
                cert = leaf.unit_certificate
                if cert is None or cert.reconstruct() != leaf.unit_poly:
                    return False
            elif leaf.outcome == "contradiction-bounds":
                if not _verify_bound_conflict(leaf, ga.equations):
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
        imp = _imprimitive_families(text)
        if "IMP1" in imp:
            clique.append(text)
        if "IMP2" in imp:
            multi.append(text)
        if not imp:
            never.append(text)
    return WreathClassification(
        orientation, base, tuple(guaranteed), tuple(clique), tuple(multi),
        tuple(never), tuple(trivial),
    )
