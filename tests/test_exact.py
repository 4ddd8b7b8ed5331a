"""Exact arithmetic layer: quadratic values, polynomials, the sieve."""

import ast
import itertools
import pickle
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srgfusion import exact
from srgfusion.catalogue import family_by_id
from srgfusion.exact import (
    K, L, M, MultiPoly, MixedField, MissingSymbol, ONE, R, S, ZeroInput,
    default_sieve_set, quad,
    QuadraticValue, _primitive_1var,
)
from srgfusion.scheme import SrgParams, eigen_from_params

GOLDEN_R = quad(Fraction(-1, 2), Fraction(1, 2), 5)
GOLDEN_S = quad(Fraction(-1, 2), Fraction(-1, 2), 5)


# -- quadratic field ---------------------------------------------------------

def test_quad_collapses_to_fraction():
    assert quad(3, 0, 7) == Fraction(3)
    assert isinstance(quad(3, 0, 7), Fraction)
    # perfect-square radicand folds into the rational part
    assert quad(1, 2, 9) == Fraction(7)


def test_quad_normalizes_squarefree():
    v = quad(0, 1, 12)  # sqrt(12) = 2 sqrt(3)
    assert isinstance(v, QuadraticValue)
    assert v.d == 3 and v.b == 2


def test_quad_conjugate_product():
    v = quad(Fraction(2), Fraction(3), 5)
    assert v * v.conjugate() == Fraction(4 - 9 * 5)


def test_quad_equality_componentwise():
    assert GOLDEN_R != GOLDEN_S
    assert GOLDEN_R + GOLDEN_S == Fraction(-1)
    assert GOLDEN_R * GOLDEN_S == Fraction(-1)


def test_quad_mixed_field_error():
    with pytest.raises(MixedField):
        _ = GOLDEN_R + quad(0, 1, 13)


def test_quad_ordering_exact():
    assert GOLDEN_R > 0 > GOLDEN_S
    assert GOLDEN_S < -1
    assert quad(0, 1, 2) < Fraction(3, 2) < quad(0, 1, 3)
    assert quad(7, -4, 3) > 0          # 7 - 4*sqrt(3) = 0.07...
    assert quad(-7, 4, 3) < 0


def test_quad_division():
    v = quad(1, 1, 2)
    assert v / v == Fraction(1)
    assert (Fraction(1) / v) * v == Fraction(1)


def test_floats_never_enter_quadratic_arithmetic():
    q = quad(1, 1, 2)
    with pytest.raises(TypeError):
        q - 0.5
    with pytest.raises(TypeError):
        0.5 - q
    with pytest.raises(TypeError):
        quad(0.5, 1, 2)
    with pytest.raises(TypeError):
        _primitive_1var([0.5])
    for parts in ((0.5, 1, 2), (1, 0.5, 2), (1, 1, 2.0)):
        with pytest.raises(TypeError):
            QuadraticValue(*parts)
    assert q - Fraction(1, 2) == quad(Fraction(1, 2), 1, 2)
    assert 1 - q == quad(0, -1, 2)


def test_quadratic_value_is_canonical_by_construction():
    # a square radicand, a non-squarefree one and b = 0 have canonical
    # forms that quad builds; the constructor refuses them
    assert quad(0, 1, 4) == 2 and quad(0, 1, 8) == quad(0, 2, 2)
    for parts in ((0, 1, 4), (0, 1, 8), (1, 0, 5), (0, 1, 1), (0, 1, -3)):
        with pytest.raises(ValueError):
            QuadraticValue(*parts)
    assert QuadraticValue(0, 2, 2) == quad(0, 1, 8)


def test_quadratic_values_survive_a_pickle_round_trip():
    paley13 = eigen_from_params(SrgParams(13, 6, 2, 3))
    values = [x for _, x in family_by_id("SP5").point] + [paley13.r, paley13.s]
    assert any(isinstance(x, QuadraticValue) for x in values)
    assert pickle.loads(pickle.dumps(values)) == values


# -- polynomials -------------------------------------------------------------

def test_poly_eval_examples():
    # k + r*s at the Petersen values
    p = K + R * S
    assert p.evaluate({"k": Fraction(3), "r": Fraction(1), "s": Fraction(-2)}) == 1
    # zero polynomial evaluates to zero under any assignment
    assert MultiPoly().evaluate({}) == 0
    # (1+r)(1+s) with conjugate golden-ratio surds
    p = ONE + R + S + R * S
    assert p.evaluate({"r": GOLDEN_R, "s": GOLDEN_S}) == Fraction(-1)


def test_poly_eval_missing_symbol():
    with pytest.raises(MissingSymbol):
        (K + L).evaluate({"k": Fraction(1)})


def test_poly_eval_mixed_field():
    with pytest.raises(MixedField):
        (R + S).evaluate({"r": quad(0, 1, 5), "s": quad(0, 1, 13)})


def test_poly_substitute_examples():
    conf = {"k": 2 * R + 2 * R * R, "l": 2 * R + 2 * R * R, "r": R,
            "s": -1 - R + MultiPoly()}
    assert (K - L).substitute(conf).is_zero()
    identity = {name: MultiPoly.var(name) for name in ("k", "l", "r", "s", "m")}
    assert K.substitute(identity) == K
    assert (K - R * (3 + R)).substitute({"k": R * (3 + R), "r": R}).is_zero()


def test_poly_substitute_missing():
    with pytest.raises(MissingSymbol):
        (K + S).substitute({"k": ONE})


def test_poly_division_exact():
    p = (K - R) * (ONE + S) * (ONE + S)
    q = p.divide_exact(ONE + S)
    assert q == (K - R) * (ONE + S)
    assert (K * K - R * R).divide_exact(K + R) == K - R
    assert (K * K + ONE).divide_exact(K + ONE) is None


@pytest.mark.parametrize("poly,text", [
    (MultiPoly.const(0), "0"),
    (K * 0, "0"),
    (MultiPoly.const(7), "7"),
    (MultiPoly.const(Fraction(-3, 4)), "-3/4"),
    (K, "k"),
    (-K, "-k"),
    (Fraction(2, 3) * K + ONE, "2/3*k + 1"),
    (Fraction(-3, 4) * K * S, "-3/4*k*s"),
    (-K * K + 2 * K - 1, "-k^2 + 2*k - 1"),
    (K - L + R * S - 1, "r*s + k - l - 1"),
    (K**3 * S**2 - Fraction(1, 2) * M, "k^3*s^2 - 1/2*m"),
    (-R * R * S + 3 * K * L * M - K - 5, "3*k*l*m - r^2*s - k - 5"),
    ((K - S) * (K - S), "k^2 - 2*k*s + s^2"),
])
def test_multipoly_str_and_repr(poly, text):
    assert str(poly) == text
    assert repr(poly) == f"MultiPoly({text})"


# -- packed monomials ---------------------------------------------------------

def tuple_key(exps: tuple) -> tuple:
    """Graded-lex key of the exponent-tuple core: total degree, then k > l > r > s > m."""
    return (sum(exps), exps)


exponent_vectors = st.tuples(*(st.integers(0, 20) for _ in range(5)))


def with_swapped_entries(v: tuple) -> set:
    """v and every vector made from it by swapping two entries: all share
    one total degree, so their order rests on the exponents field by field."""
    out = set()
    for i in range(5):
        for j in range(i, 5):
            w = list(v)
            w[i], w[j] = w[j], w[i]
            out.add(tuple(w))
    return out


@given(st.lists(exponent_vectors, min_size=1, max_size=4),
       st.lists(exponent_vectors, min_size=1, max_size=3, unique=True))
@settings(max_examples=100, deadline=None)
def test_packed_order_is_graded_lex(vectors, others):
    monos = set().union(*map(with_swapped_entries, vectors))
    p = MultiPoly({e: 1 for e in monos})
    assert [e for e, _ in p.terms] == sorted(monos, key=tuple_key, reverse=True)
    # positive coefficients cannot cancel, so every sum of monomials appears
    product = p * MultiPoly({e: 1 for e in others})
    sums = {tuple(a + b for a, b in zip(e1, e2)) for e1 in monos for e2 in others}
    assert [e for e, _ in product.terms] == sorted(sums, key=tuple_key, reverse=True)
    assert product.leading()[0] == max(sums, key=tuple_key)


def test_monomial_division_is_fieldwise():
    """Every pair of 0/1 exponent vectors: a monomial divides another
    exactly when no exponent would go negative."""
    vectors = list(itertools.product((0, 1), repeat=5))
    for a in vectors:
        for b in vectors:
            q = MultiPoly({b: 3}).divide_exact(MultiPoly({a: 1}))
            if all(x >= y for x, y in zip(b, a)):
                assert q == MultiPoly({tuple(x - y for x, y in zip(b, a)): 3})
            else:
                assert q is None, (a, b)


def test_exponent_width_limits():
    with pytest.raises(ValueError):
        MultiPoly({(256, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly({(200, 0, 0, 0, 56): 1})
    with pytest.raises(ValueError):
        MultiPoly({(0, -1, 0, 0, 0): 1})
    with pytest.raises(OverflowError):
        K**100 * K**200
    top = K**255
    assert top.degree() == 255 and top.terms == (((255, 0, 0, 0, 0), 1),)
    assert (K * L * R * S * M) ** 51 == MultiPoly({(51,) * 5: 1})


PACKED_PRIVATES = {"_SHIFTS", "_DEG_SHIFT", "_MAX_EXP", "_GUARDS", "_SYM_INDEX",
                   "_pack", "_unpack"}


def test_only_exact_knows_the_packed_layout():
    """No other package module imports a private of the packed monomial
    format or reads a polynomial's packed ``_terms``."""
    offenders = []
    for path in sorted(Path(exact.__file__).parent.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & PACKED_PRIVATES
            elif isinstance(node, ast.Attribute):
                names = {node.attr} & (PACKED_PRIVATES | {"_terms"})
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in sorted(names)]
    assert offenders == []


def test_divide_exact_rejects_on_lowest_monomials_first(monkeypatch):
    """A failed trial division whose lowest monomials do not divide stops
    after one monomial test, before any quotient term is formed."""
    calls = []
    divides = exact._divides
    monkeypatch.setattr(exact, "_divides", lambda a, b: calls.append(1) or divides(a, b))
    # the leads divide (k | k^2) but the lowest terms do not (l does not divide 1)
    assert (K * K + 1).divide_exact(K + L) is None
    assert len(calls) == 1


# -- canonical coefficients --------------------------------------------------

E_K = (1, 0, 0, 0, 0)
E_1 = (0, 0, 0, 0, 0)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        MultiPoly({E_K: 0.5})
    with pytest.raises(TypeError):
        MultiPoly.const(1.0)
    with pytest.raises(TypeError):
        MultiPoly({E_K: 1}) * 0.5


def test_integral_coefficients_are_int():
    p = MultiPoly({E_K: Fraction(6, 2)})
    assert p.terms == ((E_K, 3),)
    assert type(p.terms[0][1]) is int
    half = MultiPoly({E_K: Fraction(1, 2)})
    assert type(half.terms[0][1]) is Fraction
    assert type((half + half).terms[0][1]) is int
    assert type(MultiPoly.const(Fraction(4, 2)).constant_value()) is int
    assert MultiPoly.const(Fraction(0)).is_zero()


def test_poly_division_exact_non_integral_quotient():
    q = (2 * K + 1).divide_exact(MultiPoly.const(4))
    assert q.terms == ((E_K, Fraction(1, 2)), (E_1, Fraction(1, 4)))
    q = (6 * K + 4).divide_exact(MultiPoly.const(2))
    assert q == 3 * K + 2
    assert all(type(c) is int for _, c in q.terms)
    # a negative divisor: the remainder decides int or Fraction per term
    q = (3 * K + 2 * L).divide_exact(MultiPoly.const(-2))
    assert q.terms == ((E_K, Fraction(-3, 2)), ((0, 1, 0, 0, 0), -1))
    assert type(q.terms[1][1]) is int
    q = (Fraction(1, 2) * K * K + K).divide_exact(Fraction(1, 2) * K)
    assert q == K + 2 and all(type(c) is int for _, c in q.terms)


def test_normalized_scales_to_primitive_integers():
    p = MultiPoly({E_K: Fraction(-2, 3), E_1: Fraction(4, 9)})
    n = p.normalized()
    assert n.terms == ((E_K, 3), (E_1, -2))
    assert all(type(c) is int for _, c in n.terms)
    assert n.normalized() is n
    assert (-4 * K + 6).normalized() == 2 * K - 3


# -- the sieve ---------------------------------------------------------------

def test_sieve_certifies_members_and_products():
    cert = default_sieve_set().certify(K - R)
    assert cert is not None and cert.constant == 1
    assert cert.reconstruct() == K - R

    # 1 + r + s + rs factors as (1+r)(1+s)
    cert = default_sieve_set().certify(ONE + R + S + R * S)
    assert cert is not None
    assert cert.reconstruct() == ONE + R + S + R * S
    assert cert.region_sign() == -1


def test_sieve_unknown_for_vanishing_quantity():
    # k + r + s + rs vanishes for triangle-free graphs: Petersen gives 0
    p = K + R + S + R * S
    assert p.evaluate({"k": Fraction(3), "r": Fraction(1), "s": Fraction(-2)}) == 0
    assert default_sieve_set().certify(p) is None


def _non_sieve_basis():
    """Factor-basis polynomials that no sieve member divides, in basis order."""
    from srgfusion.decompose import _factor_basis
    members = [mem.poly for mem in default_sieve_set().members]
    return [f for f, _ in _factor_basis()
            if all(f.divide_exact(mem) is None for mem in members)]


_NON_SIEVE_BASIS = _non_sieve_basis()


def test_factor_basis_holds_no_sieve_member():
    from srgfusion.decompose import _factor_basis
    assert _NON_SIEVE_BASIS == [f for f, _ in _factor_basis()]


# the one composite member, (1+r)(1+s), strips as its factors 1+s and 1+r
_IRREDUCIBLE_MEMBERS = [mem for mem in default_sieve_set().members
                        if mem.name != "(1+r)(1+s)"]


@given(st.dictionaries(st.sampled_from([mem.name for mem in _IRREDUCIBLE_MEMBERS]),
                       st.integers(1, 3), max_size=4),
       st.one_of(st.just(ONE), st.sampled_from(_NON_SIEVE_BASIS)),
       st.sampled_from([1, -2, Fraction(3, 5)]))
@settings(max_examples=60, deadline=None)
def test_sieve_strip_returns_the_non_sieve_factor(exponents, factor, scale):
    """strip divides out exactly the sieve members multiplied in, with their
    exponents, and leaves the other factor up to a constant; certify holds
    exactly when that remainder is constant."""
    sieve = default_sieve_set()
    lookup = {mem.name: mem.poly for mem in sieve.members}
    p = scale * factor
    for name, exp in exponents.items():
        p = p * lookup[name] ** exp
    rem, factors = sieve.strip(p)
    assert dict(factors) == exponents and len(factors) == len(exponents)
    assert rem.normalized() == factor.normalized()
    product = rem
    for name, exp in factors:
        product = product * lookup[name] ** exp
    assert product == p
    assert (sieve.certify(p) is not None) == rem.is_constant()


@given(st.dictionaries(st.integers(0, len(_NON_SIEVE_BASIS) - 1),
                       st.integers(1, 2), min_size=1, max_size=3),
       st.dictionaries(st.sampled_from([mem.name for mem in _IRREDUCIBLE_MEMBERS]),
                       st.integers(1, 2), max_size=3),
       st.sampled_from([1, -2, Fraction(3, 5)]))
@settings(max_examples=60, deadline=None)
def test_split_poly_returns_the_basis_factors_in_basis_order(basis_exps,
                                                            sieve_exps, scale):
    """A scaled product of non-sieve basis members, some repeated, and sieve
    members splits into exactly those basis members, each as often as it
    was multiplied in, in basis order; the sieve factors and the scalar
    are dropped."""
    from srgfusion.decompose import _split_poly
    lookup = {mem.name: mem.poly for mem in default_sieve_set().members}
    p = MultiPoly.const(scale)
    for i, exp in basis_exps.items():
        p = p * _NON_SIEVE_BASIS[i] ** exp
    for name, exp in sieve_exps.items():
        p = p * lookup[name] ** exp
    want = tuple(_NON_SIEVE_BASIS[i] for i in sorted(basis_exps)
                 for _ in range(basis_exps[i]))
    assert _split_poly.__wrapped__(p) == want


def test_sieve_strip_splits_the_composite_member():
    sieve = default_sieve_set()
    rem, factors = sieve.strip(2 * (ONE + R) * (ONE + S) * (K - R * R))
    assert rem == 2 * (K - R * R)
    assert sorted(factors) == [("1+r", 1), ("1+s", 1)]


def test_sieve_zero_input():
    with pytest.raises(ZeroInput):
        default_sieve_set().certify(MultiPoly())


BATTERY = [
    # the literal spec battery (the third tuple is not a valid table tuple
    # but still exercises the nonvanishing values)
    {"k": Fraction(3), "l": Fraction(6), "r": Fraction(1), "s": Fraction(-2)},
    {"k": Fraction(10), "l": Fraction(5), "r": Fraction(2), "s": Fraction(-2)},
    {"k": Fraction(5), "l": Fraction(9), "r": Fraction(1), "s": Fraction(-3)},
    {"k": Fraction(4), "l": Fraction(4), "r": Fraction(1), "s": Fraction(-2)},
    {"k": Fraction(6), "l": Fraction(6),
     "r": quad(Fraction(-1, 2), Fraction(1, 2), 13),
     "s": quad(Fraction(-1, 2), Fraction(-1, 2), 13)},
    # genuine primitive tuples
    {"k": Fraction(5), "l": Fraction(10), "r": Fraction(1), "s": Fraction(-3)},
    {"k": Fraction(6), "l": Fraction(8), "r": Fraction(1), "s": Fraction(-3)},
    {"k": Fraction(2), "l": Fraction(2), "r": GOLDEN_R, "s": GOLDEN_S},
]


@pytest.mark.parametrize("point", BATTERY)
def test_sieve_members_nonzero_on_battery(point):
    for member in default_sieve_set().members:
        value = member.poly.evaluate({**point, "m": Fraction(1)})
        sign = value.sign() if hasattr(value, "sign") else (value > 0) - (value < 0)
        assert sign != 0, member.name


@pytest.mark.parametrize("point", BATTERY[5:])
def test_sieve_member_signs_on_primitive_tuples(point):
    for member in default_sieve_set().members:
        value = member.poly.evaluate({**point, "m": Fraction(1)})
        sign = value.sign() if hasattr(value, "sign") else (value > 0) - (value < 0)
        assert sign == member.sign, member.name


def test_certificates_remultiply_exactly():
    sieve = default_sieve_set()
    probes = [K * (K - R), (ONE + R) * (ONE + S) * R, (K - S) * (K - S) * L]
    for p in probes:
        cert = sieve.certify(p)
        assert cert is not None
        assert cert.reconstruct() == p


# -- ring axioms by hypothesis ----------------------------------------------

# integral and non-integral Fractions alongside plain ints
small_coeffs = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=2)
)


def poly_inputs():
    mono = st.tuples(*(st.integers(0, 2) for _ in range(5)))
    return st.dictionaries(mono, small_coeffs, max_size=4)


def small_polys():
    return poly_inputs().map(MultiPoly)


def coeff_types(p: MultiPoly) -> list[type]:
    return [type(c) for _, c in p.terms]


@given(poly_inputs(), poly_inputs(), poly_inputs(), small_coeffs)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(da, db, dc, x):
    a, b, c = MultiPoly(da), MultiPoly(db), MultiPoly(dc)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MultiPoly()
    # the same operands given all as Fraction: equal values, equal types
    fa, fb, fc = (MultiPoly({e: Fraction(v) for e, v in d.items()}) for d in (da, db, dc))
    fx = Fraction(x)
    pairs = [
        (a, fa), (a + b, fa + fb), (a - c, fa - fc), (a * b, fa * fb),
        (b ** 2, fb ** 2), (a * x, fa * fx), (x - c, fx - fc),
        (a.normalized(), fa.normalized()),
    ]
    if not b.is_zero():
        assert (a * b).divide_exact(b) == a
        pairs.append(((a * b).divide_exact(b), (fa * fb).divide_exact(fb)))
    for got, want in pairs:
        assert got == want
        assert coeff_types(got) == coeff_types(want)
        assert all(type(v) is (int if Fraction(v).denominator == 1 else Fraction)
                   for _, v in got.terms)


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_substitute_then_eval_matches_composed_eval(p):
    sub = {"k": R + 1, "l": S * S, "r": R, "s": S, "m": ONE}
    point = {"r": Fraction(2), "s": Fraction(-3)}
    composed = {"k": Fraction(3), "l": Fraction(9), "r": Fraction(2),
                "s": Fraction(-3), "m": Fraction(1)}
    assert p.substitute(sub).evaluate(point) == p.evaluate(composed)


def test_every_sieve_set_holds_the_one_sieve():
    """Certificates name the one sieve's members, so ``SieveSet`` takes no
    member list, every instance holds the same members, and the package
    does not export it."""
    import srgfusion
    assert exact.SieveSet().members is default_sieve_set().members
    with pytest.raises(TypeError):
        exact.SieveSet(default_sieve_set().members)
    assert not {"SieveSet", "SieveMember"} & set(srgfusion.__all__)


# -- integer fast paths against plain references -----------------------------

def ref_divide(p: MultiPoly, d: MultiPoly) -> MultiPoly | None:
    """Plain long division on exponent tuples with Fraction coefficients:
    the quotient when d divides p exactly, else None."""
    def lead(terms):
        return max(terms, key=tuple_key)

    rem = {e: Fraction(c) for e, c in p.terms}
    div = {e: Fraction(c) for e, c in d.terms}
    d_lead = lead(div)
    q = {}
    while rem:
        r_lead = lead(rem)
        shift = tuple(a - b for a, b in zip(r_lead, d_lead))
        if min(shift) < 0:
            return None
        c = rem[r_lead] / div[d_lead]
        q[shift] = c
        for e, dc in div.items():
            e = tuple(a + b for a, b in zip(e, shift))
            rem[e] = rem.get(e, 0) - c * dc
            if not rem[e]:
                del rem[e]
    return MultiPoly(q)


def ref_strip(p: MultiPoly):
    """Plain trial division by each sieve member in turn, repeated until
    no member divides (``SieveSet.strip`` without the residue test)."""
    rem, factors, progress = p, [], True
    while progress and not rem.is_constant():
        progress = False
        for mem in default_sieve_set().members:
            count = 0
            while (q := ref_divide(rem, mem.poly)) is not None:
                rem, count = q, count + 1
            if count:
                factors.append((mem.name, count))
                progress = True
    return rem, tuple(factors)


def ref_substitute(p: MultiPoly, mapping) -> MultiPoly:
    """Term-by-term composition."""
    total = MultiPoly()
    for exps, coeff in p.terms:
        term = MultiPoly.const(coeff)
        for name, e in zip(exact.SYMBOLS, exps):
            term = term * mapping[name] ** e
        total = total + term
    return total


def same_poly(got: MultiPoly, want: MultiPoly) -> bool:
    """Equal terms with equal coefficient types (int versus Fraction)."""
    return got == want and coeff_types(got) == coeff_types(want)


def nonzero_polys(min_terms):
    mono = st.tuples(*(st.integers(0, 2) for _ in range(5)))
    return st.dictionaries(mono, small_coeffs.filter(bool), min_size=min_terms,
                           max_size=4).map(MultiPoly)


@given(nonzero_polys(1), nonzero_polys(2),
       st.tuples(*(st.integers(0, 2) for _ in range(5))), small_coeffs.filter(bool))
@settings(max_examples=40, deadline=None)
def test_divide_exact_matches_plain_long_division(a, d, low, perturbation):
    product = a * d
    assert same_poly(product.divide_exact(d), a)
    assert same_poly(product.divide_exact(d), ref_divide(product, d))
    # a divisor with two or more terms divides no nonzero monomial, so
    # adding one below the product's leading term breaks exactness
    if tuple_key(low) < tuple_key(product.leading()[0]):
        perturbed = product + MultiPoly({low: perturbation})
        assert perturbed.divide_exact(d) is None
        assert ref_divide(perturbed, d) is None


_SIEVE_NAMES = [mem.name for mem in default_sieve_set().members]


@given(st.dictionaries(st.sampled_from(_SIEVE_NAMES), st.integers(1, 3), max_size=3),
       nonzero_polys(1), st.sampled_from([1, -3, Fraction(3, 5)]))
@settings(max_examples=40, deadline=None)
@example({"k-r": 2, "1+s": 1}, K + S, Fraction(1, 2))
def test_strip_matches_plain_trial_division(exponents, cofactor, scale):
    lookup = {mem.name: mem.poly for mem in default_sieve_set().members}
    p = scale * cofactor
    for name, exp in exponents.items():
        p = p * lookup[name] ** exp
    rem, factors = default_sieve_set().strip(p)
    want_rem, want_factors = ref_strip(p)
    assert same_poly(rem, want_rem) and factors == want_factors


@given(small_polys(), st.lists(small_polys(), min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_substitute_matches_term_by_term_composition(p, images):
    mapping = dict(zip(exact.SYMBOLS, images))
    assert same_poly(p.substitute(mapping), ref_substitute(p, mapping))


def test_residue_preconditions_hold():
    """Every member has integer coprime coefficients and is nonzero at the
    residue point, where ``_residue`` is its value; a polynomial with a
    Fraction coefficient has no residue."""
    point = dict(zip(exact.SYMBOLS, map(Fraction, exact._RESIDUE_POINT)))
    for mem in default_sieve_set().members:
        coeffs = [c for _, c in mem.poly.terms]
        assert all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1, mem.name
        value = mem.poly.evaluate(point)
        assert value != 0 and exact._residue(mem.poly) == value, mem.name
    p = K * K * S - 7 * R * M + 3
    assert exact._residue(p) == p.evaluate(point)
    assert exact._residue(p + Fraction(1, 2) * L) is None


@pytest.mark.parametrize("member", [
    ("unit", ONE, 1, ""),
    ("k-1009", K - 1009, 1, ""),
    ("2k", 2 * K, 1, ""),
    ("k/2", Fraction(1, 2) * K, 1, ""),
])
def test_sieve_refuses_a_member_the_residue_test_cannot_use(monkeypatch, member):
    monkeypatch.setattr(exact, "_SIEVE_MEMBERS", (exact.SieveMember(*member),))
    with pytest.raises(ValueError, match="residue test"):
        exact.SieveSet()


def ref_evaluate(p: MultiPoly, assignment):
    """Term-by-term evaluation."""
    total = Fraction(0)
    for exps, coeff in p.terms:
        term = coeff
        for name, e in zip(exact.SYMBOLS, exps):
            if e:
                term = term * assignment[name] ** e
        total = term + total
    return total


@given(small_polys(), st.sampled_from([
    {"k": Fraction(2), "l": Fraction(2), "r": GOLDEN_R, "s": GOLDEN_S, "m": Fraction(3)},
    {"k": Fraction(5), "l": Fraction(-10, 3), "r": Fraction(1), "s": Fraction(-3),
     "m": Fraction(1, 2)},
]))
@settings(max_examples=40, deadline=None)
def test_evaluate_matches_term_by_term_evaluation(p, point):
    got, want = p.evaluate(point), ref_evaluate(p, point)
    assert got == want and type(got) is type(want)


quad_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(quad_parts, quad_parts, quad_parts, quad_parts, st.sampled_from([2, 5, 12, 13]))
@settings(max_examples=60, deadline=None)
def test_quadratic_arithmetic_matches_quad(a1, b1, a2, b2, d):
    """Sums, differences and products within one field equal ``quad`` of
    the componentwise formulas, with the same type (a Fraction when the
    irrational part cancels)."""
    x, y = quad(a1, b1, d), quad(a2, b2, d)
    if not isinstance(x, QuadraticValue):
        return
    d0 = x.d
    ya, yb = (y.a, y.b) if isinstance(y, QuadraticValue) else (Fraction(y), Fraction(0))
    for got, want in (
        (x + y, quad(x.a + ya, x.b + yb, d0)),
        (x - y, quad(x.a - ya, x.b - yb, d0)),
        (y - x, quad(ya - x.a, yb - x.b, d0)),
        (x * y, quad(x.a * ya + x.b * yb * d0, x.a * yb + x.b * ya, d0)),
        (x + x.conjugate(), quad(2 * x.a, 0, d0)),
    ):
        assert got == want and type(got) is type(want)
        assert not isinstance(got, QuadraticValue) or got.b != 0
