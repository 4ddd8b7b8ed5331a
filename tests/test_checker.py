"""The substitution-chain kernel and the checks ``verify_record`` makes once
per record: merge-pattern completeness and each distinct substitution."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srgfusion.catalogue import SubstitutionRecord, _apply_substitutions
from srgfusion.checker import verify_record
from srgfusion.exact import (
    K, ONE, R, S, SYMBOLS, MultiPoly, default_sieve_set, scalar_sign,
)
from test_classifier import _with_leaf

# a point of the primitive region, where every sieve member has its sign
_REGION_POINT = {"k": Fraction(4), "l": Fraction(4), "r": Fraction(1),
                 "s": Fraction(-2), "m": Fraction(1)}


def _reference_step(p: MultiPoly, rec: SubstitutionRecord) -> MultiPoly:
    """One chain step as the kernel computed it before the one-pass form:
    coefficients in var, then c0*den - c1*num for d = 1, or the sum over
    the powers of coefficient * (-num)**j * den**(d-j) for d > 1."""
    d = p.degree(rec.var)
    if d <= 0:
        return p
    if d == 1:
        c0, c1 = p.coefficients(rec.var)
        return c0 * rec.den - c1 * rec.num
    num_powers, den_powers = [ONE, -rec.num], [ONE, rec.den]
    for _ in range(d - 1):
        num_powers.append(num_powers[-1] * num_powers[1])
        den_powers.append(den_powers[-1] * rec.den)
    acc = MultiPoly()
    for power, coeff in enumerate(p.coefficients(rec.var)):
        acc = acc + coeff * num_powers[power] * den_powers[d - power]
    return acc


def _typed_terms(p: MultiPoly) -> list:
    return [(exps, type(c), c) for exps, c in p.terms]


_coeffs = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))
_values = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _steps(draw):
    """(p, d, rec): p of degree d <= 3 in rec.var, and the step
    var = -num/den with num and den free of var; den is a nonzero constant
    or a nonzero multiple of a sieve member, with its certificate."""
    var = draw(st.sampled_from(("k", "l", "r", "s")))
    vi = SYMBOLS.index(var)
    mono = st.tuples(*(st.just(0) if i == vi else st.integers(0, 2)
                       for i in range(len(SYMBOLS))))
    free = st.dictionaries(mono, _coeffs, max_size=3).map(MultiPoly)
    d = draw(st.integers(0, 3))
    coeffs = [draw(free) for _ in range(d + 1)]
    if d and coeffs[d].is_zero():
        coeffs[d] = ONE
    x = MultiPoly.var(var)
    p = sum((c * x ** j for j, c in enumerate(coeffs)), MultiPoly())
    scale = draw(st.sampled_from((-3, -1, 1, 2)))
    members = [mem for mem in default_sieve_set().members
               if var not in mem.poly.symbols()]
    mem = draw(st.one_of(st.none(), st.sampled_from(members)))
    den = MultiPoly.const(scale) if mem is None else scale * mem.poly
    cert = None if mem is None else default_sieve_set().certify(den)
    return p, d, SubstitutionRecord(var, draw(free), den, cert)


@given(_steps(), st.fixed_dictionaries({name: _values for name in SYMBOLS}))
@settings(max_examples=150, deadline=None)
def test_chain_step_evaluates_as_the_cleared_substitution(step, point):
    """At a rational point with den != 0 the image is p at var = -num/den
    times den**d; the sign is den's on the region when d is odd, else +1;
    and the image equals the pre-one-pass formula term for term."""
    p, d, rec = step
    den = rec.den.evaluate(point)
    assume(den != 0)
    image, sign = _apply_substitutions(p, (rec,))
    at = dict(point, **{rec.var: -rec.num.evaluate(point) / den})
    assert image.evaluate(point) == p.evaluate(at) * den ** d
    assert sign == (scalar_sign(rec.den.evaluate(_REGION_POINT)) if d % 2 else 1)
    assert _typed_terms(image) == _typed_terms(_reference_step(p, rec))


def test_chain_step_edge_cases():
    """The zero polynomial and a polynomial free of var map to themselves
    with sign +1; a constant den gives its own sign at odd degree; an image
    past total degree 255 raises, also where no product of num and den
    does."""
    minus_two = SubstitutionRecord("r", S, MultiPoly.const(-2), None)
    assert _apply_substitutions(MultiPoly(), (minus_two,)) == (MultiPoly(), 1)
    assert _apply_substitutions(K + 1, (minus_two,)) == (K + 1, 1)
    assert _apply_substitutions(R + 1, (minus_two,)) == (-S - 2, -1)
    assert _apply_substitutions(R * R + K, (minus_two,)) == (S * S + 4 * K, 1)
    top = K ** 254 * R
    square = SubstitutionRecord("r", S * S, ONE, None)
    with pytest.raises(OverflowError):
        _apply_substitutions(top, (square,))
    with pytest.raises(OverflowError):
        _reference_step(top, square)
    assert _apply_substitutions(K ** 252 * R, (square,)) == (-(K ** 252) * S * S, 1)


def test_verify_record_checks_a_forged_copy_of_a_shared_substitution(
    classification
):
    """A substitution object that sits in several leaves of a record is
    checked once; a copy in one leaf whose certificate remultiplies to
    another polynomial is another substitution, checked on its own, so the
    record does not verify whether the copy sits in the first such leaf or
    the last."""
    for rec in classification.records:
        places: dict = {}
        for gi, ga in enumerate(rec.groupings):
            for li, leaf in enumerate(ga.leaves):
                for si, sub in enumerate(leaf.substitutions):
                    if not sub.den.is_constant():
                        places.setdefault(id(sub), []).append((gi, li, si, sub))
        shared = next((v for v in places.values() if len(v) > 1), None)
        if shared is not None:
            break
    else:
        pytest.fail("no substitution object sits in two leaves")
    assert verify_record(rec)
    for gi, li, si, sub in (shared[0], shared[-1]):
        wrong = default_sieve_set().certify(K * sub.den.normalized())
        assert wrong.reconstruct() != sub.den.normalized()
        leaf = rec.groupings[gi].leaves[li]
        subs = list(leaf.substitutions)
        subs[si] = dataclasses.replace(sub, den_certificate=wrong)
        forged = _with_leaf(rec, gi, li,
                            dataclasses.replace(leaf, substitutions=tuple(subs)))
        assert verify_record(forged) is False, (str(rec.partition), gi, li)


def test_verify_record_requires_every_merge_pattern_in_order(classification):
    """A grouping record must list every merge pattern of its partition, in
    the prover's order: each of the 172 INFEASIBLE records with several
    groupings, cut to its first grouping, does not verify; nor does
    23457|689 with its second grouping alone, its groupings reversed or
    its first grouping listed twice.  Every census record still
    verifies."""
    several = [rec for rec in classification.records
               if rec.verdict == "INFEASIBLE" and len(rec.groupings) > 1]
    assert len(several) == 172
    for rec in several:
        cut = dataclasses.replace(rec, groupings=rec.groupings[:1])
        assert not verify_record(cut), str(rec.partition)
    two = classification.record("23457|689")
    first, second = two.groupings
    for groupings in ((second,), (second, first), (first, second, first)):
        assert not verify_record(dataclasses.replace(two, groupings=groupings))
    assert all(map(verify_record, classification.records))
