"""The univariate toolkit against sympy as an independent oracle.

The toolkit lives in ``srgfusion.exact``: ``MultiPoly.coefficients`` reads a
polynomial as ascending coefficients in one symbol, and the kernels of its
"univariate polynomials" section work on ascending lists of int or Fraction
coefficients.  The classifier's multivariate kernels built on it, the exact
polynomial square root and the Sylvester resultant, are checked against
sympy too.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srgfusion.catalogue import _resultant
from srgfusion.decompose import _poly_sqrt
from srgfusion.exact import (
    SYMBOLS,
    K,
    L,
    MultiPoly,
    QuadraticValue,
    _count_roots_open,
    _poly_gcd_1var,
    _primitive_1var,
    _quadratic_roots_exact,
    _rational_roots,
    _remainder_1var,
)

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = small.filter(bool)


def polys(min_degree=0, max_degree=4):
    """Coefficient lists with a nonzero leading coefficient."""
    return st.builds(
        lambda low, lead: low + [lead],
        st.lists(small, min_size=min_degree, max_size=max_degree),
        nonzero,
    )


def rational(c) -> "sympy.Rational":
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_expr(coeffs) -> "sympy.Expr":
    return sum((rational(c) * X**i for i, c in enumerate(coeffs)), sympy.Integer(0))


def from_expr(expr) -> list[Fraction]:
    """Ascending Fraction coefficients of a polynomial in x; [] for zero."""
    poly = sympy.Poly(expr, X)
    if poly.is_zero:
        return []
    return [Fraction(str(c)) for c in reversed(poly.all_coeffs())]


def to_value(v) -> "sympy.Expr":
    if isinstance(v, QuadraticValue):
        return rational(v.a) + rational(v.b) * sympy.sqrt(v.d)
    return rational(v)


def same(a, b) -> bool:
    return sympy.simplify(sympy.expand(a - b)) == 0


@given(polys(0, 3), polys(0, 3), polys(0, 3))
@settings(max_examples=40, deadline=None)
def test_gcd_matches_monic_sympy_gcd(common, a, b):
    # a shared factor makes nontrivial gcds the common case
    f = sympy.expand(to_expr(common) * to_expr(a))
    g = sympy.expand(to_expr(common) * to_expr(b))
    fc = [Fraction(str(c)) for c in reversed(sympy.Poly(f, X).all_coeffs())]
    gc = [Fraction(str(c)) for c in reversed(sympy.Poly(g, X).all_coeffs())]
    got = _poly_gcd_1var(fc, gc)
    want = sympy.Poly(sympy.gcd(f, g), X, domain="QQ").monic().as_expr()
    assert same(to_expr(got), want)
    assert got[-1] == 1 and all(type(c) is Fraction for c in got)


@given(polys(0, 6), polys(0, 3))
@settings(max_examples=40, deadline=None)
def test_integer_remainder_is_a_positive_multiple(f, g):
    """gcd and Sturm chains divide integer lists; each remainder is the
    rational remainder times a positive constant, so no sign changes."""
    want = from_expr(sympy.rem(to_expr(f), to_expr(g), X))
    got = _remainder_1var(_primitive_1var(f), _primitive_1var(g))
    assert all(type(c) is int for c in got) and len(got) == len(want)
    if want:
        ratio = Fraction(got[-1]) / want[-1]
        assert ratio > 0 and [ratio * c for c in want] == got


def test_gcd_of_zero_polynomials():
    assert _poly_gcd_1var([], [Fraction(0)]) == []
    assert _poly_gcd_1var([], [Fraction(2), Fraction(4)]) == [Fraction(1, 2), Fraction(1)]


# roots drawn from a small pool that also holds the interval ends, so roots
# on an endpoint and repeated roots come up often
pool = st.sampled_from([Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)]
                       + [Fraction(-1, 2), Fraction(3, 2)])
end = st.one_of(st.none(), pool)


@given(st.lists(pool, max_size=4), polys(0, 2), end, end)
@settings(max_examples=60, deadline=None)
def test_count_roots_open_matches_sympy_real_roots(roots, cofactor, lo, hi):
    assume(lo is None or hi is None or lo < hi)
    expr = to_expr(cofactor)
    for root in roots:
        expr *= X - rational(root)
    poly = sympy.Poly(sympy.expand(expr), X)
    coeffs = [Fraction(str(c)) for c in reversed(poly.all_coeffs())]
    inside = {
        r for r in poly.real_roots()
        if (lo is None or r > rational(lo)) and (hi is None or r < rational(hi))
    }
    assert _count_roots_open(coeffs, lo, hi) == len(inside)


mixed = st.one_of(st.integers(-4, 4), small)


def mixed_polys(min_degree, max_degree):
    """Coefficient lists of ints, of Fractions or of both, nonzero lead."""
    return st.builds(
        lambda low, lead: low + [lead],
        st.lists(mixed, min_size=min_degree, max_size=max_degree),
        mixed.filter(bool),
    )


def no_float(value) -> bool:
    if isinstance(value, list):
        return all(map(no_float, value))
    if isinstance(value, QuadraticValue):
        return no_float(value.a) and no_float(value.b)
    return type(value) in (int, Fraction)


@given(mixed_polys(1, 2), mixed_polys(0, 3), end, end)
@example([3, 2], [-1, 0, 2], None, None)
@example([Fraction(3, 4), Fraction(2)], [Fraction(1, 2), Fraction(-3, 2), 1],
         Fraction(1, 2), None)
@example([1, Fraction(-5, 2), 1], [-2, 1, 3], Fraction(-1), Fraction(3, 2))
@settings(max_examples=60, deadline=None)
def test_kernels_return_no_float_and_reject_one(f, g, lo, hi):
    """Int, Fraction and mixed lists in, ints and Fractions out; a single
    float coefficient raises ``TypeError`` in every kernel."""
    assert no_float(_quadratic_roots_exact(f))
    assert no_float(_rational_roots(f))
    assert no_float(_poly_gcd_1var(f, g)) and no_float(_poly_gcd_1var(g, f))
    assert type(_count_roots_open(f, lo, hi)) is int
    assert type(_count_roots_open(g, lo, hi)) is int
    floated = f[:-1] + [float(f[-1])]
    for kernel, args in ((_primitive_1var, (floated,)),
                         (_quadratic_roots_exact, (floated,)),
                         (_rational_roots, (floated,)),
                         (_poly_gcd_1var, (g, floated)),
                         (_count_roots_open, (floated, lo, hi))):
        with pytest.raises(TypeError):
            kernel(*args)


@given(polys(1, 2))
@settings(max_examples=60, deadline=None)
def test_quadratic_roots_match_sympy_roots(coeffs):
    got = _quadratic_roots_exact(coeffs)
    want = {
        r: mult for r, mult in sympy.roots(sympy.Poly(to_expr(coeffs), X)).items()
        if r.is_real
    }
    assert sum(want.values()) == len(got)
    matched = Counter()
    for value in got:
        hit = [r for r in want if same(to_value(value), r)]
        assert len(hit) == 1, (coeffs, value)
        matched[hit[0]] += 1
    assert matched == Counter(want)


def test_quadratic_roots_exact_cases():
    f = Fraction
    assert _quadratic_roots_exact([f(-2), f(0), f(1)]) == [
        QuadraticValue(f(0), f(1), 2), QuadraticValue(f(0), f(-1), 2)]
    assert _quadratic_roots_exact([f(-4), f(0), f(1)]) == [f(2), f(-2)]
    assert _quadratic_roots_exact([f(1), f(-2), f(1)]) == [f(1), f(1)]
    assert _quadratic_roots_exact([f(1), f(0), f(1)]) == []
    assert _quadratic_roots_exact([f(1), f(1), f(1), f(1)]) is None


@given(st.lists(pool, max_size=4), polys(0, 2))
@settings(max_examples=60, deadline=None)
def test_rational_roots_match_sympy(roots, cofactor):
    expr = to_expr(cofactor)
    for root in roots:
        expr *= X - rational(root)
    poly = sympy.Poly(sympy.expand(expr), X)
    coeffs = [Fraction(str(c)) for c in reversed(poly.all_coeffs())]
    # the rational roots are those of the linear factors over Q
    want = {
        -fac.all_coeffs()[1] / fac.all_coeffs()[0]: mult
        for fac, mult in poly.factor_list()[1] if fac.degree() == 1
    }
    got = _rational_roots(coeffs)
    zeros = want.pop(sympy.Integer(0), 0)
    assert got[:zeros] == [0] * zeros
    assert len(set(got[zeros:])) == len(got) - zeros
    assert {rational(r) for r in got[zeros:]} == set(want)


def test_rational_roots_cases():
    f = Fraction
    assert _rational_roots([f(1), f(-5, 2), f(1)]) == [f(1, 2), f(2)]
    assert _rational_roots([0, 0, -2, 1]) == [0, 0, 2]
    assert _rational_roots([-4, 0, 1]) == [2, -2]
    assert _rational_roots([1, 0, 1]) == []
    assert _rational_roots([3]) == []
    # divisors up to the square root, in ascending order: a large prime
    # root is quick and the roots keep the order the test meets them
    big = 10**9 + 7
    assert _rational_roots([-big, 1]) == [big]
    assert _rational_roots([-3 * big, 3 - 2 * big, 2]) == [f(-3, 2), big]
    assert _rational_roots([36, 0, -13, 0, 1]) == [2, -2, 3, -3]


# -- multivariate kernels ------------------------------------------------------

GENS = sympy.symbols(SYMBOLS)
small_coeffs = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)


def multipolys(max_terms=4):
    """Polynomials in k, l, r, s with small int and Fraction coefficients."""
    mono = st.tuples(*(st.integers(0, 2) for _ in range(4)), st.just(0))
    return st.dictionaries(mono, small_coeffs, max_size=max_terms).map(MultiPoly)


def to_sympy(p: MultiPoly) -> "sympy.Expr":
    return sum(
        (rational(c) * sympy.Mul(*(g**e for g, e in zip(GENS, exps)))
         for exps, c in p.terms),
        sympy.Integer(0),
    )


def sympy_is_square(expr) -> bool:
    if expr == 0:
        return True
    content, factors = sympy.factor_list(expr, *GENS)
    return content > 0 and sympy.sqrt(content).is_rational and all(
        e % 2 == 0 for _, e in factors)


def test_poly_sqrt_cases():
    root = _poly_sqrt(4 * K * K + 4 * K + 1)
    assert root == 2 * K + 1
    assert all(type(c) is int for _, c in root.terms)
    root = _poly_sqrt(K * K + 3 * K * L + Fraction(9, 4) * L * L)
    assert root == K + Fraction(3, 2) * L
    assert _poly_sqrt(K * K + 1) is None
    assert _poly_sqrt(-(K * K)) is None
    assert _poly_sqrt(2 * K * K) is None
    assert _poly_sqrt(MultiPoly()) == MultiPoly()


@given(multipolys())
@settings(max_examples=60, deadline=None)
def test_poly_sqrt_of_square_is_plus_or_minus_root(q):
    root = _poly_sqrt(q * q)
    assert root == q or root == -q


@given(multipolys(), multipolys(max_terms=2))
@settings(max_examples=60, deadline=None)
def test_poly_sqrt_matches_sympy_squareness(q, perturbation):
    p = q * q + perturbation
    root = _poly_sqrt(p)
    if sympy_is_square(to_sympy(p)):
        assert root is not None and root * root == p
    else:
        assert root is None


@given(multipolys(), multipolys(), st.sampled_from("klrs"))
@settings(max_examples=40, deadline=None)
def test_resultant_matches_sympy(f, g, var):
    assume(f.degree(var) >= 1 and g.degree(var) >= 1)
    got = to_sympy(_resultant(f, g, var))
    want = sympy.resultant(to_sympy(f), to_sympy(g), GENS[SYMBOLS.index(var)])
    assert sympy.expand(got - want) == 0


def five_symbol_polys(max_terms=5):
    """Polynomials in all five symbols, m included."""
    mono = st.tuples(*(st.integers(0, 3) for _ in SYMBOLS))
    return st.dictionaries(mono, small_coeffs, max_size=max_terms).map(MultiPoly)


@given(five_symbol_polys(), st.sampled_from(SYMBOLS))
@settings(max_examples=80, deadline=None)
def test_coefficients_round_trip(p, var):
    coeffs = p.coefficients(var)
    x = MultiPoly.var(var)
    assert sum((c * x**i for i, c in enumerate(coeffs)), MultiPoly()) == p
    assert len(coeffs) == p.degree(var) + 1
    assert not coeffs or not coeffs[-1].is_zero()
    for c in coeffs:
        assert var not in c.symbols()
        assert all(type(v) is (int if Fraction(v).denominator == 1 else Fraction)
                   for _, v in c.terms)


@given(five_symbol_polys(), st.sampled_from(SYMBOLS))
@settings(max_examples=60, deadline=None)
def test_coefficients_match_sympy_all_coeffs(p, var):
    coeffs = p.coefficients(var)
    if p.is_zero():
        assert coeffs == []
        return
    gen = GENS[SYMBOLS.index(var)]
    want = sympy.Poly(to_sympy(p), gen).all_coeffs()[::-1]
    assert len(coeffs) == len(want)
    assert all(sympy.expand(to_sympy(c) - w) == 0 for c, w in zip(coeffs, want))


@given(five_symbol_polys(), five_symbol_polys(max_terms=3), five_symbol_polys(max_terms=2),
       st.sampled_from(["product", "perturbed product", "free"]))
@settings(max_examples=100, deadline=None)
def test_divide_exact_matches_sympy_remainder(a, d, extra, shape):
    """Products divide; a perturbed product or a free dividend mostly fails,
    at the up-front lowest and leading monomial tests or at a later quotient
    step whose monomial would borrow."""
    assume(not d.is_zero())
    p = {"product": a * d, "perturbed product": a * d + extra, "free": a}[shape]
    q = p.divide_exact(d)
    _, remainder = sympy.div(to_sympy(p), to_sympy(d), *GENS)
    if sympy.expand(remainder) == 0:
        assert q is not None and q * d == p
    else:
        assert q is None
