"""Parameter sets, eigenvalues, feasibility, and the rank-3 table."""

import itertools
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from srgfusion.classifier import classify_wreath, family_catalog
from srgfusion.fusion import bm_check
from srgfusion.oracle import build_graph
from srgfusion.partitions import coarsenings
from srgfusion.products import tensor_square_table
from srgfusion.scheme import (
    EigenData,
    InfeasibleParams,
    NonIntegralMultiplicity,
    SrgParams,
    char_table,
    eigen_from_params,
    eigen_from_values,
    feasibility,
    imprimitive_eigen,
    regular_matrices,
)
from srgfusion.exact import QuadraticValue, _quadratic_roots_exact, quad, scalar_sign


def test_srg_params_consistency():
    SrgParams(10, 3, 0, 1)
    with pytest.raises(InfeasibleParams):
        SrgParams(10, 3, 0, 2)
    with pytest.raises(InfeasibleParams):
        SrgParams(10, 12, 0, 1)


def test_eigen_petersen():
    e = eigen_from_params(SrgParams(10, 3, 0, 1))
    assert (e.k, e.l, e.r, e.s, e.f, e.g) == (3, 6, 1, -2, 5, 4)


def test_eigen_petersen_matches_adjacency_spectrum():
    # independent matrix oracle: A satisfies (A - kI)(A - rI)(A - sI) = 0
    # exactly, and the multiplicities follow from the zero trace
    a = build_graph("petersen").adjacency
    eye = np.eye(10, dtype=np.int64)
    e = eigen_from_params(SrgParams(10, 3, 0, 1))
    prod = (a - int(e.k) * eye) @ (a - int(e.r) * eye) @ (a - int(e.s) * eye)
    assert not prod.any()
    # trace(A) = 0 = k + f*r + g*s and 1 + f + g = n pin (f, g)
    f = Fraction(-e.k - 9 * e.s, e.r - e.s)
    assert f == e.f and 9 - f == e.g


def test_eigen_imprimitive_triangles():
    e = eigen_from_params(SrgParams(6, 2, 1, 0))
    assert e.k == e.r == 2 and e.s == -1
    assert feasibility(e).imprimitive_kind == "k=r,s=-1"


def test_eigen_conference_pentagon():
    e = eigen_from_params(SrgParams(5, 2, 0, 1))
    assert e.r == quad(Fraction(-1, 2), Fraction(1, 2), 5)
    assert e.s == quad(Fraction(-1, 2), Fraction(-1, 2), 5)
    assert e.f == e.g == 2


def test_eigen_conference_needs_balance():
    # irrational discriminant without the conference identity is infeasible:
    # (21, 8, 4, 2) is parameter-consistent but 2k != (n-1)(nu - mu)
    with pytest.raises((InfeasibleParams, NonIntegralMultiplicity)):
        eigen_from_params(SrgParams(21, 8, 4, 2))


def test_feasibility_examples():
    good = eigen_from_values(3, 6, 1, -2)
    rep = feasibility(good)
    assert rep.primitive and not rep.violations

    with pytest.raises(InfeasibleParams):
        # constructor already enforces orthogonality
        eigen_from_values(3, 6, 0, -2)

    imp = imprimitive_eigen(2, 1)
    rep = feasibility(imp)
    assert rep.imprimitive_kind == "k=r,s=-1" and not rep.violations


def test_feasibility_violation_item1():
    # bypass the constructor checks to exercise the report itself
    e = object.__new__(EigenData)
    object.__setattr__(e, "k", Fraction(3))
    object.__setattr__(e, "l", Fraction(6))
    object.__setattr__(e, "r", Fraction(0))
    object.__setattr__(e, "s", Fraction(-2))
    object.__setattr__(e, "f", Fraction(5))
    object.__setattr__(e, "g", Fraction(4))
    rep = feasibility(e)
    assert any(item.startswith("1") for item, _ in rep.violations)


@pytest.mark.parametrize("klrs", [(16, 448, 1, -15), (1, 11, 0, -12)],
                         ids=["primitive-ordering", "r=0"])
def test_feasibility_flags_a_negative_mu(klrs):
    """mu = k+r+s+rs, the structure constant b1[1][1], is its only fault."""
    k, l, r, s = klrs
    rep = feasibility(eigen_from_values(k, l, r, s))
    assert rep.violations == (("b1[1][1]", k + r + s + r * s),)
    assert k + r + s + r * s < 0 and not rep.primitive


def test_feasibility_is_the_ordering_and_nonnegative_structure_constants():
    """On a seeded rational grid a report has no violations exactly when
    k, l >= 1, k >= r >= 0 >= 1+s and every regular-matrix entry is >= 0."""
    rng = random.Random(22)
    seen = Counter()
    for _ in range(600):
        k = Fraction(rng.randint(1, 480), rng.randint(1, 4))
        r = Fraction(rng.randint(-4, 56), 4)
        s = Fraction(rng.randint(-60, 4), 4)
        if k + r * s == 0:
            continue
        l = -k * (1 + r + s + r * s) / (k + r * s)
        try:
            e = eigen_from_values(k, l, r, s)
        except InfeasibleParams:
            continue
        ordered = k >= 1 and l >= 1 and k >= r >= 0 and s <= -1
        entries = [x for b in regular_matrices(e) for row in b for x in row]
        feasible = ordered and min(entries) >= 0
        assert (not feasibility(e).violations) == feasible, (k, l, r, s)
        seen[feasible, ordered, k + r + s + r * s >= 0] += 1
    # feasible sets, unordered sets, and ordered sets with mu < 0
    assert seen[True, True, True] and seen[False, False, True]
    assert seen[False, True, False]


def test_char_table_petersen():
    t = char_table(eigen_from_params(SrgParams(10, 3, 0, 1)))
    assert t.rows == ((1, 3, 6), (1, 1, -2), (1, -2, 1))
    assert t.mults == (1, 5, 4)
    assert t.order == 10


def test_char_table_imprimitive_display():
    m, r = 2, 2
    t = char_table(imprimitive_eigen(r, m))
    assert t.rows == ((1, r, m * (1 + r)), (1, r, -1 - r), (1, -1, 0))
    assert t.mults == (1, m, r * (1 + m))


def test_char_table_conference_display():
    e = eigen_from_params(SrgParams(13, 6, 2, 3))
    t = char_table(e)
    r = e.r
    assert t.rows[0] == (1, 2 * (r + r * r), 2 * (r + r * r))
    assert t.rows[1] == (1, r, -1 - r)
    assert t.mults == (1, 6, 6)


def test_column_orthogonality():
    for params in [(10, 3, 0, 1), (13, 6, 2, 3), (16, 5, 0, 2), (9, 4, 1, 2)]:
        e = eigen_from_params(SrgParams(*params))
        t = char_table(e)
        n = e.n
        for c1 in range(3):
            for c2 in range(3):
                total = sum(m * row[c1] * row[c2]
                            for m, row in zip(t.mults, t.rows))
                if c1 == c2:
                    assert total == n * t.rows[0][c1]
                else:
                    assert total == 0


def test_regular_matrices_petersen():
    e = eigen_from_params(SrgParams(10, 3, 0, 1))
    b1, b2 = regular_matrices(e)
    assert [[int(x) for x in row] for row in b1] == [[0, 3, 0], [1, 0, 2], [0, 1, 2]]
    # reading off (mu, nu) from the middle row
    assert b1[1][1] == 0 and b1[2][1] == 1


def test_regular_matrices_imprimitive():
    e = imprimitive_eigen(2, 1)
    b1, _ = regular_matrices(e)
    assert [[int(x) for x in row] for row in b1] == [[0, 2, 0], [1, 1, 0], [0, 0, 2]]


def test_regular_matrices_pentagon_boundary():
    e = eigen_from_params(SrgParams(5, 2, 0, 1))
    _, b2 = regular_matrices(e)
    assert b2[2][2] == 0  # l - 1 + rs vanishes for the pentagon


@pytest.mark.parametrize("params", [(10, 3, 0, 1), (16, 10, 6, 6), (9, 4, 1, 2),
                                    (13, 6, 2, 3), (16, 5, 0, 2), (15, 6, 1, 3)])
def test_named_battery_invariants(params):
    e = eigen_from_params(SrgParams(*params))
    assert e.k + e.f * e.r + e.g * e.s == 0
    assert 1 + e.f + e.g == e.n
    rep = feasibility(e)
    assert not rep.violations
    if rep.primitive:
        assert e.k > e.r > 0
        assert e.s < -1
        assert e.l > -1 - e.s
        assert e.k + e.r * e.s > 0
    # round trip through the regular matrix: recover (mu, nu)
    b1, _ = regular_matrices(e)
    mu, nu = b1[1][1], b1[2][1]
    n = e.n
    if all(Fraction(x).denominator == 1 for x in (mu, nu)):
        back = eigen_from_params(SrgParams(int(n), int(e.k), int(mu), int(nu)))
        assert back == e


def test_table_algebra_mode_warns():
    # (15, 7, 3, 3) is parameter-consistent with f = 21/4
    with pytest.warns(UserWarning):
        e = eigen_from_params(SrgParams(15, 7, 3, 3), integral=False)
    assert e.f == Fraction(21, 4)
    with pytest.raises(NonIntegralMultiplicity):
        eigen_from_params(SrgParams(15, 7, 3, 3), integral=True)


def eigen_from_params_isqrt(p: SrgParams, integral: bool = True) -> EigenData:
    """Reference: r, s from an integer square root of the discriminant."""
    n, k, mu, nu = p.n, p.k, p.mu, p.nu
    disc = (mu - nu) ** 2 + 4 * (k - nu)
    root = math.isqrt(disc)
    if root * root == disc:
        r = Fraction(mu - nu + root, 2)
        s = Fraction(mu - nu - root, 2)
        f = Fraction(-k - (n - 1) * s, r - s)
        g = Fraction(n - 1) - f
        if f <= 0 or g <= 0:
            raise InfeasibleParams(f"multiplicities f={f}, g={g} for {p}")
        if f.denominator == 1 and g.denominator == 1:
            f, g = int(f), int(g)
    else:
        if 2 * k != (n - 1) * (nu - mu):
            raise InfeasibleParams(
                f"irrational eigenvalues need the conference identity, got {p}"
            )
        if (n - 1) % 2 and integral:
            raise NonIntegralMultiplicity(f"f = g = (n-1)/2 non-integral for {p}")
        r = quad(Fraction(mu - nu, 2), Fraction(1, 2), disc)
        s = quad(Fraction(mu - nu, 2), Fraction(-1, 2), disc)
        f = g = Fraction(n - 1, 2)
        if f.denominator == 1:
            f = g = int(f)
    if Fraction(f).denominator != 1 or Fraction(g).denominator != 1:
        if integral:
            raise NonIntegralMultiplicity(f"f={f}, g={g} for {p}")
        warnings.warn(f"non-integral multiplicities f={f}, g={g}", stacklevel=2)
    return EigenData(k, p.l, r, s, f, g)


def _outcome(fn, *args):
    """repr of ``fn(*args)`` (types included) or the exception class, plus
    the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(fn(*args))
        except (InfeasibleParams, NonIntegralMultiplicity) as exc:
            out = type(exc)
    return out, [str(w.message) for w in caught]


def small_candidates():
    """Every (n, k, mu, nu) with n <= 64 passing the integral edge-count
    identity, the candidate set the benchmark's scan pool is drawn from."""
    for n in range(3, 65):
        for k in range(1, n - 1):
            l = n - k - 1
            for mu in range(k):
                if (k * (k - mu - 1)) % l:
                    continue
                nu = k * (k - mu - 1) // l
                if nu <= k:
                    yield SrgParams(n, k, mu, nu)


def test_eigen_from_params_pinned_on_every_small_candidate():
    checked = 0
    for p in small_candidates():
        for integral in (True, False):
            assert (_outcome(eigen_from_params, p, integral)
                    == _outcome(eigen_from_params_isqrt, p, integral)), p
        checked += 1
    assert checked == 4842


def eigen_from_values_reference(k, l, r, s, integral: bool = False) -> EigenData:
    """Reference: multiplicities derived on their own, as before
    ``eigen_from_params`` and ``imprimitive_eigen`` delegated here.

    One line is corrected: f and g become ints only together.  The old code
    tested f alone in table-algebra mode and truncated a fractional g (see
    ``test_eigen_from_values_keeps_a_fractional_g``).
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
        if Fraction(f).denominator == 1 and Fraction(g).denominator == 1:
            f, g = int(f), int(g)
    return EigenData(k, l, r, s, f, g)


def imprimitive_eigen_reference(r: int, m: int) -> EigenData:
    """Reference: the hand-written multiplicities f = m, g = r(1+m)."""
    if r < 1 or m < 1:
        raise InfeasibleParams("need r >= 1 and m >= 1")
    return EigenData(r, m * (1 + r), r, -1, m, r * (1 + m))


def rational_grid():
    """(k, l, r, s) over small rationals: every combination of a few values,
    and the row-orthogonal tuples with l solved from (k, r, s)."""
    values = [Fraction(x) for x in (-2, -1, 0, 1, 2, 3)]
    values += [Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(-1, 4)]
    yield from itertools.product(values[::2], repeat=4)
    for k, r, s in itertools.product(values, repeat=3):
        if k + r * s:
            yield k, -k * (1 + r) * (1 + s) / (k + r * s), r, s


def value_inputs():
    """The (k, l, r, s) of every small candidate, every catalogue sample and
    the rational grid."""
    for p in small_candidates():
        r, s = _quadratic_roots_exact([p.nu - p.k, p.nu - p.mu, 1])
        yield p.k, p.l, r, s
    for fam in family_catalog():
        yield from fam.sample_instances
    yield from rational_grid()


# what each failure of eigen_from_values says, by the check that failed
_FAILURES = (("r <= s", "need r > s"), ("irrational", "conference identity"),
             ("non-positive", "must be positive"), ("non-integral", "f="))


def test_eigen_from_values_pinned():
    seen = Counter()
    for inputs in value_inputs():
        for integral in (True, False):
            got = _outcome(eigen_from_values, *inputs, integral)
            assert got == _outcome(eigen_from_values_reference, *inputs, integral), (
                inputs, integral)
            assert not got[1], inputs  # only eigen_from_params warns
            try:
                e = eigen_from_values(*inputs, integral)
                seen[type(e.f).__name__] += 1
            except (InfeasibleParams, NonIntegralMultiplicity) as exc:
                seen[next((kind for kind, text in _FAILURES if text in str(exc)),
                          "EigenData")] += 1
    assert set(seen) == {"int", "Fraction", "EigenData", *dict(_FAILURES)}, seen


def test_imprimitive_eigen_pinned():
    for r in range(9):
        for m in range(9):
            assert (_outcome(imprimitive_eigen, r, m)
                    == _outcome(imprimitive_eigen_reference, r, m)), (r, m)
            if r and m:
                assert imprimitive_eigen(r, m) == eigen_from_params(
                    SrgParams((1 + r) * (1 + m), r, r - 1, 0))


def test_eigen_from_values_keeps_a_fractional_g():
    # f = 2 is integral but g = 40/3 is not, since n - 1 = k + l = 46/3; the
    # table algebra is valid and keeps both multiplicities as Fractions
    e = eigen_from_values(Fraction(1, 3), Fraction(15), Fraction(3, 2), Fraction(-1, 4))
    assert (e.f, e.g) == (Fraction(2), Fraction(40, 3))
    assert type(e.f) is Fraction
    with pytest.raises(NonIntegralMultiplicity):
        eigen_from_values(Fraction(1, 3), 15, Fraction(3, 2), Fraction(-1, 4),
                          integral=True)


def feasible_small_sets():
    """Feasible candidates as (kind, report, eigen), kind one of
    primitive / conference / imprimitive."""
    for p in small_candidates():
        try:
            e = eigen_from_params(p)
        except (InfeasibleParams, NonIntegralMultiplicity):
            continue
        rep = feasibility(e)
        if rep.violations:
            continue
        if rep.imprimitive_kind != "none":
            kind = "imprimitive"
        elif isinstance(e.r, QuadraticValue):
            kind = "conference"
        else:
            kind = "primitive"
        yield kind, rep, e


def test_theorem_2_wreath_fusions_on_every_feasible_small_set():
    # Theorem (2): a nontrivial fusion of a wreath orientation that is not
    # guaranteed occurs only in the imprimitive case it is listed under
    special = {"k=r,s=-1": "clique_case", "r=0,l=-1-s": "multipartite_case"}
    wreaths = [classify_wreath(o) for o in (1, 2)]
    kinds, checked = Counter(), 0
    for kind, rep, e in feasible_small_sets():
        kinds[kind] += 1
        table = tensor_square_table(char_table(e))
        for w in wreaths:
            got = {str(q) for q in coarsenings(w.base)
                   if q != w.base and not q.is_single_block()
                   and bm_check(table, q).is_fusion}
            guaranteed = set(w.guaranteed)
            if kind == "imprimitive":
                allowed = set(getattr(w, special[rep.imprimitive_kind]))
                assert guaranteed <= got and got - guaranteed <= allowed, e
            else:
                assert got == guaranteed, e
            checked += 1
    assert kinds == {"primitive": 79, "conference": 12, "imprimitive": 306}
    assert checked == 794
