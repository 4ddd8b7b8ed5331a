"""Branch decomposition of a merge pattern's polynomial system.

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
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Sequence

from .catalogue import (
    BoundConflict, ProofLeaf, SubstitutionRecord, _RESULTANT_MAX_SIZE,
    _apply_substitutions, _bound_conflict, _feasible_root_points,
    _freeze_point, _leaf_point, _orthant_sign, _point_feasible,
    _residual_roots, _resultant, _rootless_on_region, family_catalog,
)
from .exact import (
    SYMBOLS, MultiPoly, NonzeroCertificate, R, S, _poly_gcd_1var,
    _rational_roots, _trial_divide, _trial_divisors, default_sieve_set,
)


# polynomials worth splitting on beyond the sieve, as divisors for
# ``_trial_divide``: family-defining factors and one recurring combination.
# Sieve members are left out: ``_split_poly`` strips them first, so they
# never divide what reaches the basis.
@lru_cache(maxsize=None)
def _factor_basis() -> tuple[tuple[MultiPoly, int], ...]:
    polys = [d for fam in family_catalog() for d in fam.defining] + [R + S + 4]
    members = {mem.poly.normalized() for mem in default_sieve_set().members}
    normal = (p.normalized() for p in polys)
    return _trial_divisors(dict.fromkeys(
        n for n in normal if not n.is_constant() and n not in members))


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
    rem, _ = default_sieve_set().strip(p.normalized())
    basis = _factor_basis()
    rem, found = _trial_divide(rem, basis)
    factors = [basis[i][0] for i, e in found for _ in range(e)]
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


@lru_cache(maxsize=None)
def _substitute_one(p: MultiPoly, rec: SubstitutionRecord) -> MultiPoly:
    """Normalized image of p under one elimination step."""
    return _apply_substitutions(p, (rec,))[0].normalized()


_ELIM_ORDER = ("l", "k", "m", "s", "r")


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
        vi = SYMBOLS.index(var)
        g = MultiPoly({
            tuple(power if i == vi else 0 for i in range(len(SYMBOLS))): c
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


class _Decomposer:
    """Branch decomposition of an equation system over the primitive region;
    ``decompose`` is the entry point perfbench traces."""

    def decompose(self, eqs: Sequence[MultiPoly]) -> list[ProofLeaf]:
        return _run(list(eqs), (), (), 0)
