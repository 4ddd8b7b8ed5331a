"""Parameter sets, eigenvalues, feasibility, and the rank-3 table."""

import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from srgfusion.classifier import classify_wreath
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
from srgfusion.exact import QuadraticValue, quad


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


def _outcome(fn, p: SrgParams, integral: bool):
    """repr of the result (types included) or the exception class, plus warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(fn(p, integral=integral))
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
