"""Exact arithmetic: rationals, quadratic irrationals, sparse polynomials.

Everything in this package computes exactly, with no floating point.
Rational scalars are stdlib ``Fraction``.  Conference graphs have irrational
eigenvalues living in a real quadratic field, represented componentwise as
``a + b*sqrt(d)`` with squarefree ``d``; a value collapses back to a plain
``Fraction`` whenever its irrational part vanishes, so equality and hashing
are uniform across the two scalar kinds.

Polynomial coefficients are canonical: an ``int`` whenever the value is
integral, a ``Fraction`` only where a division leaves a remainder.  A float
coefficient raises ``TypeError``.  Since ``3 == Fraction(3)`` and both hash
alike, the two forms compare and key caches interchangeably.

Symbolic work uses sparse multivariate polynomials over Q in a fixed,
closed symbol universe::

    k   valency of the graph
    l   valency of the complement, n - k - 1
    r   larger nontrivial eigenvalue
    s   smaller nontrivial eigenvalue
    m   clique-count parameter of the imprimitive family

A monomial is packed into one ``int``.  Each exponent has a 9-bit field, 8
value bits under a guard bit, with ``m`` in the lowest field and ``k`` in the
highest, and the total degree sits above all five fields::

    total degree | k | l | r | s | m        (fields of 9 bits, m lowest)

Integer order is then graded-lex order: comparing two packed monomials
compares total degree first, then the exponents of k, l, r, s, m in turn,
so terms sort with no key.  The product of two monomials is their sum.  A
monomial a divides b exactly when ``((b | GUARDS) - a) & GUARDS == GUARDS``:
with every guard bit of b set, a field of b smaller than a's borrows its own
guard bit and never reaches the next field.  Exponents and total degrees
are at most 255, so no field ever carries into its guard: the constructor
raises ``ValueError`` for an exponent vector beyond that, and a product
whose total degree would exceed 255 raises ``OverflowError``.
``MultiPoly.terms`` decodes each monomial back to an exponent 5-tuple.  No
other module reads the packed form: a chain step var = -num/den, which
edits exponents in place, is the method ``MultiPoly.eliminate``.

Polynomials in one symbol also have a scalar form: an ascending list of
``int`` or ``Fraction`` coefficients (the zero polynomial is ``[]``).
``MultiPoly.coefficients`` reads any polynomial this way, one
``MultiPoly`` per power.  The univariate kernels below (gcd, Sturm root
counts, exact rational and quadratic roots) first scale their input by a
positive rational to coprime integers, ``_primitive_1var``, and then work
on integer lists only: each remainder is scaled the same way, and a root
p/q on an interval end divides out exactly as q*x - p.  No scaling
changes a monic gcd, a root or any sign the root count reads.

The module also hosts the nonvanishing sieve: an ordered list of
polynomials, each strictly signed on the primitive parameter region
(k > r > 0, s < -1, l > -1 - s, for which also k + r*s > 0), together with
trial division that certifies a polynomial nonzero on that region by
writing it as a scaled product of sieve members.  There is one sieve,
built at import; a certificate names its members and is read against it.

Trial division first tests one integer residue.  Every divisor is a
nonconstant primitive polynomial with integer coefficients and is nonzero
at the integer point P = (k, l, r, s, m) = (1009, 2003, 307, -409, 13);
``_trial_divisors`` checks both.  If a divisor f divides a polynomial g
with integer coefficients, Gauss's lemma makes the quotient h integral
too, so g(P) = f(P) * h(P) with h(P) an integer, and f(P) divides g(P).
``_trial_divide`` evaluates its input at P once, tries a divisor only
when f(P) divides that residue, and after each quotient divides the
residue by f(P) exactly.  An input with a ``Fraction`` coefficient skips
the test, so the test only ever skips divisions that would fail.  The
sieve and the prover's factor basis both divide this way, each over its
own ordered divisor list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import index
from typing import Iterable, Mapping, Sequence

SYMBOLS = ("k", "l", "r", "s", "m")
_SYM_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_NVARS = len(SYMBOLS)


class MissingSymbol(KeyError):
    """A polynomial symbol has no assigned value or substitute."""


class MixedField(ArithmeticError):
    """Arithmetic attempted between values of two distinct quadratic fields."""


class ZeroInput(ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


def _coeff(c) -> int | Fraction:
    """Canonical exact scalar: int when integral, else Fraction; no floats."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"exact scalars are int or Fraction, not {type(c).__name__}")


def _fraction(c) -> Fraction:
    """``c`` as a Fraction, through ``_coeff`` unless it is one already."""
    return c if type(c) is Fraction else Fraction(_coeff(c))


# ---------------------------------------------------------------------------
# quadratic irrationals
# ---------------------------------------------------------------------------

def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (c, d0) with d = c**2 * d0 and d0 squarefree."""
    if d <= 0:
        raise ValueError(f"radicand must be positive, got {d}")
    c, d0, p = 1, 1, 2
    n = d
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        c *= p ** (e // 2)
        if e % 2:
            d0 *= p
        p += 1 if p == 2 else 2
    return c, d0 * n


def quad(a, b=0, d: int = 0):
    """Build ``a + b*sqrt(d)`` exactly, collapsing to Fraction when rational.

    ``d`` is normalized squarefree; a perfect-square radicand folds into the
    rational part.
    """
    a, b = _fraction(a), _fraction(b)
    if not b:
        return a
    c, d0 = _squarefree_split(d)
    if c != 1:
        b *= c
    if d0 == 1:
        return a + b
    return QuadraticValue._from_parts(a, b, d0)


class QuadraticValue:
    """Exact element a + b*sqrt(d) of a real quadratic field, canonical by
    construction: the constructor checks that b != 0 and d is a squarefree
    int above 1.  ``quad`` returns a Fraction where b == 0, so rationals and
    quadratic values mix freely; it builds every arithmetic result, with one
    split of d, through the trusted ``_from_parts``.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a: Fraction, b: Fraction, d: int):
        if not isinstance(d, int):
            raise TypeError(f"radicand must be int, not {type(d).__name__}")
        a, b = _fraction(a), _fraction(b)
        if not b or d < 2 or _squarefree_split(d)[0] != 1:
            raise ValueError(f"not canonical: b = {b}, d = {d}; use quad")
        return cls._from_parts(a, b, d)

    @classmethod
    def _from_parts(cls, a: Fraction, b: Fraction, d: int) -> "QuadraticValue":
        """Trusted constructor from canonical parts."""
        v = object.__new__(cls)
        object.__setattr__(v, "a", a)
        object.__setattr__(v, "b", b)
        object.__setattr__(v, "d", d)
        return v

    def __setattr__(self, *args):
        raise AttributeError("QuadraticValue is immutable")

    def __reduce__(self):
        return QuadraticValue, (self.a, self.b, self.d)

    def _coerce(self, other) -> tuple[int | Fraction, int | Fraction]:
        if isinstance(other, QuadraticValue):
            if other.d != self.d:
                raise MixedField(f"sqrt({self.d}) and sqrt({other.d}) do not mix")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return other, 0
        return NotImplemented, None

    def __add__(self, other):
        oa, ob = self._coerce(other)
        if oa is NotImplemented:
            return NotImplemented
        return quad(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __neg__(self):
        return quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        oa, ob = self._coerce(other)
        if oa is NotImplemented:
            return NotImplemented
        return quad(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        oa, ob = self._coerce(other)
        if oa is NotImplemented:
            return NotImplemented
        return quad(self.a * oa + self.b * ob * self.d, self.a * ob + self.b * oa,
                    self.d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticValue":
        return quad(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return quad(self.a / other, self.b / other, self.d)
        oa, ob = self._coerce(other)
        if oa is NotImplemented:
            return NotImplemented
        n = oa * oa - ob * ob * other.d
        if n == 0:
            raise ZeroDivisionError
        return self * quad(oa / n, -ob / n, other.d)

    def __rtruediv__(self, other):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return quad(self.a / n, -self.b / n, self.d) * other

    def __pow__(self, e: int):
        if e < 0:
            return 1 / (self ** (-e))
        out = Fraction(1)
        base = self
        while e:
            if e & 1:
                out = base * out
            base = base * base
            e >>= 1
        return out

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1 if lhs < rhs else 0
        return 1 if rhs > lhs else -1 if rhs < lhs else 0

    def _cmp(self, other) -> int:
        return scalar_sign(self - other)

    def __eq__(self, other):
        if isinstance(other, QuadraticValue):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 by construction
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"quad({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return f"({self.a}{'+' if self.b >= 0 else ''}{self.b}*sqrt({self.d}))"

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "d": self.d}


def scalar_sign(x) -> int:
    """Exact sign (-1, 0 or 1) of an int, Fraction or QuadraticValue."""
    if isinstance(x, QuadraticValue):
        return x.sign()
    return (x > 0) - (x < 0)


def value_to_json(v):
    """JSON form of an exact scalar: int, 'p/q' string, or quadratic dict."""
    if isinstance(v, QuadraticValue):
        return v.to_json()
    f = Fraction(v)
    return int(f) if f.denominator == 1 else str(f)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

_FIELD = 9  # bits per exponent: 8 value bits and a guard bit
_MAX_EXP = (1 << (_FIELD - 1)) - 1
_SHIFTS = tuple(_FIELD * (_NVARS - 1 - i) for i in range(_NVARS))  # k highest
_DEG_SHIFT = _FIELD * _NVARS
_GUARDS = sum(1 << (shift + _FIELD - 1) for shift in _SHIFTS)


def _pack(exps: tuple[int, ...]) -> int:
    """Packed monomial of an exponent 5-tuple."""
    out = sum(exps) << _DEG_SHIFT
    for e, shift in zip(exps, _SHIFTS):
        out += e << shift
    return out


def _unpack(mono: int) -> tuple[int, ...]:
    """Exponent 5-tuple of a packed monomial."""
    sk, sl, sr, ss, sm = _SHIFTS
    return ((mono >> sk) & _MAX_EXP, (mono >> sl) & _MAX_EXP, (mono >> sr) & _MAX_EXP,
            (mono >> ss) & _MAX_EXP, (mono >> sm) & _MAX_EXP)


def _divides(a: int, b: int) -> bool:
    """Whether monomial a divides monomial b: no field of b - a borrows."""
    return ((b | _GUARDS) - a) & _GUARDS == _GUARDS


class MultiPoly:
    """Sparse polynomial over Q in the fixed symbols k, l, r, s, m.

    Terms pair a packed monomial (one int, see the module docstring) with a
    nonzero coefficient in canonical form (int when integral, else Fraction;
    floats are rejected); the zero polynomial has no terms.  Instances are
    immutable and hashable, with terms kept sorted in graded-lex order
    (largest first).  ``terms`` and ``leading()`` decode each monomial to
    its exponent 5-tuple.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, ...], int | Fraction] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int | Fraction] = {}
        for exps, coeff in items:
            exps = tuple(map(index, exps))
            if len(exps) != _NVARS or min(exps) < 0 or sum(exps) > _MAX_EXP:
                raise ValueError(
                    f"bad exponent vector {exps}: five exponents >= 0, "
                    f"total degree <= {_MAX_EXP}")
            mono = _pack(exps)
            acc[mono] = acc.get(mono, 0) + _coeff(coeff)
        object.__setattr__(self, "_terms", MultiPoly._from_terms(acc)._terms)

    @classmethod
    def _from_terms(cls, acc: dict) -> "MultiPoly":
        """Trusted constructor from {packed monomial: coefficient}, any order.

        Zero coefficients are dropped and integral Fractions fold to int.
        """
        terms = [t for t in acc.items() if t[1]]
        terms.sort(reverse=True)  # monomials are distinct, so ints decide
        if Fraction in set(map(type, acc.values())):
            terms = [(e, _coeff(c)) for e, c in terms]
        return cls._from_sorted(tuple(terms))

    @classmethod
    def _from_sorted(cls, terms: tuple) -> "MultiPoly":
        """Trusted constructor from canonical terms already in order."""
        p = object.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        return p

    def __setattr__(self, *args):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.terms,)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _coeff(c)
        return MultiPoly._from_sorted(((0, c),) if c else ())

    @staticmethod
    def var(name: str) -> "MultiPoly":
        if name not in _SYM_INDEX:
            raise MissingSymbol(name)
        exps = [0] * _NVARS
        exps[_SYM_INDEX[name]] = 1
        return MultiPoly({tuple(exps): 1})

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> tuple:
        return tuple([(_unpack(e), c) for e, c in self._terms])

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == 0)

    def constant_value(self) -> int | Fraction:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._terms[0][1]

    def symbols(self) -> frozenset[str]:
        present = 0
        for e, _ in self._terms:
            present |= e
        return frozenset(
            [name for name, shift in zip(SYMBOLS, _SHIFTS) if (present >> shift) & _MAX_EXP]
        )

    def degree(self, name: str | None = None) -> int:
        if self.is_zero():
            return -1
        if name is None:
            return self._terms[0][0] >> _DEG_SHIFT
        shift = _SHIFTS[_SYM_INDEX[name]]
        return max((e >> shift) & _MAX_EXP for e, _ in self._terms)

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        if self.is_zero():
            raise ZeroInput("zero polynomial has no leading term")
        e, c = self._terms[0]
        return _unpack(e), c

    def coefficients(self, name: str) -> list["MultiPoly"]:
        """Coefficients of self as a polynomial in ``name``, lowest power first.

        Entry i is free of ``name`` and self == sum(c_i * name**i); the list
        ends at the degree in ``name``, so the zero polynomial gives [].
        """
        shift = _SHIFTS[_SYM_INDEX[name]]
        unit = (1 << shift) + (1 << _DEG_SHIFT)
        by_power: dict[int, list] = {}
        for e, c in self._terms:
            power = (e >> shift) & _MAX_EXP
            # removing the same monomial from each term keeps their order
            by_power.setdefault(power, []).append((e - power * unit, c))
        return [
            MultiPoly._from_sorted(tuple(by_power.get(power, ())))
            for power in range(max(by_power, default=-1) + 1)
        ]

    # -- arithmetic ---------------------------------------------------------

    def _as_poly(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        q = self._as_poly(other)
        if q is None:
            return NotImplemented
        acc = dict(self._terms)
        get = acc.get
        for e, c in q._terms:
            acc[e] = get(e, 0) + c
        return MultiPoly._from_terms(acc)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._from_sorted(tuple((e, -c) for e, c in self._terms))

    def __sub__(self, other):
        q = self._as_poly(other)
        if q is None:
            return NotImplemented
        acc = dict(self._terms)
        get = acc.get
        for e, c in q._terms:
            acc[e] = get(e, 0) - c
        return MultiPoly._from_terms(acc)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        q = self._as_poly(other)
        if q is None:
            return NotImplemented
        if not (self._terms and q._terms):
            return MultiPoly._from_sorted(())
        # the lead terms carry the largest total degrees, and no exponent
        # exceeds the total degree, so this one test rules out every carry
        if (self._terms[0][0] + q._terms[0][0]) >> _DEG_SHIFT > _MAX_EXP:
            raise OverflowError(f"product degree exceeds {_MAX_EXP}")
        acc: dict[int, int | Fraction] = {}
        get = acc.get
        for e1, c1 in self._terms:
            for e2, c2 in q._terms:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
        return MultiPoly._from_terms(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(1) if out is None else out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == MultiPoly.const(other)._terms
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._terms)
            object.__setattr__(self, "_hash", h)
            return h

    # -- division -----------------------------------------------------------

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Quotient self/divisor when divisor divides exactly, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError
        if self.is_zero():
            return MultiPoly()
        # a product's lowest and leading terms are the products of the
        # factors' lowest and leading terms, so both tests come first
        if not (_divides(divisor._terms[-1][0], self._terms[-1][0])
                and _divides(divisor._terms[0][0], self._terms[0][0])):
            return None
        (dl_e, dl_c), *tail = divisor._terms
        rem = dict(self._terms)
        q = []
        while rem:
            rl_e = max(rem)
            if not _divides(dl_e, rl_e):
                return None
            # the leading monomial strictly falls, so q stays in order
            e, c = rl_e - dl_e, rem.pop(rl_e)
            if type(c) is int and type(dl_c) is int:
                whole, r = divmod(c, dl_c)
                c = Fraction(c, dl_c) if r else whole
            else:
                c = _coeff(Fraction(c, dl_c))
            q.append((e, c))
            for e2, c2 in tail:
                e2 += e
                v = rem.get(e2, 0) - c * c2
                if v:
                    rem[e2] = v
                else:
                    del rem[e2]
        return MultiPoly._from_sorted(tuple(q))

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Exact value at a {symbol: Fraction|QuadraticValue} assignment."""
        missing = self.symbols() - set(assignment)
        if missing:
            raise MissingSymbol(sorted(missing)[0])
        ds = {
            v.d
            for v in assignment.values()
            if isinstance(v, QuadraticValue)
        }
        if len(ds) > 1:
            raise MixedField(f"assignment mixes radicands {sorted(ds)}")
        total = Fraction(0)
        for coeff, image in self._term_images(assignment, 1):
            total = coeff * image + total
        return total

    def substitute(self, mapping: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Composed polynomial; every symbol occurring here must be mapped."""
        missing = self.symbols() - set(mapping)
        if missing:
            raise MissingSymbol(sorted(missing)[0])
        acc: dict[int, int | Fraction] = {}
        get = acc.get
        for coeff, image in self._term_images(mapping, ONE):
            for mono, c in image._terms:
                acc[mono] = get(mono, 0) + coeff * c
        return MultiPoly._from_terms(acc)

    def eliminate(self, var: str, num: "MultiPoly", den: "MultiPoly"
                  ) -> tuple["MultiPoly", int]:
        """(den**d * self at var = -num/den, d), d the degree of var in self.

        One pass: each term c*x*var**j adds c*x*(-num)**j*den**(d-j) to one
        accumulator, canonicalized once; an image past total degree 255
        raises ``OverflowError``.
        """
        shift = _SHIFTS[_SYM_INDEX[var]]
        powers = [e >> shift & _MAX_EXP for e, _ in self._terms]
        if not (d := max(powers, default=0)):
            return self, 0
        neg, unit = -num, (1 << shift) + (1 << _DEG_SHIFT)
        products = [(neg ** j * den ** (d - j) if 0 < j < d else
                     neg ** d if j else den ** d)._terms for j in range(d + 1)]
        acc: dict[int, int | Fraction] = {}
        get = acc.get
        for (e, c), j in zip(self._terms, powers):
            e -= j * unit
            for e2, c2 in products[j]:
                acc[e + e2] = get(e + e2, 0) + c * c2
        if max(acc, default=0) >> _DEG_SHIFT > _MAX_EXP:
            raise OverflowError(f"image degree exceeds {_MAX_EXP}")
        return MultiPoly._from_terms(acc), d

    def _term_images(self, images: Mapping[str, object], one):
        """(coefficient, product of images[symbol]**exponent) for each term;
        ``one`` is the empty product."""
        for exps, coeff in self.terms:
            image = one
            for name, e in zip(SYMBOLS, exps):
                if e:
                    power = images[name] ** e
                    image = power if image is one else image * power
            yield coeff, image

    # -- normal form ---------------------------------------------------------

    def normalized(self) -> "MultiPoly":
        """Scalar-normalized form: integer coprime coefficients, positive lead."""
        if self.is_zero():
            return self
        coeffs = [c for _, c in self._terms]
        den = 1
        if Fraction in set(map(type, coeffs)):
            den = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        num = gcd(*coeffs)
        if coeffs[0] < 0:
            num = -num
        if den == 1 and num == 1:
            return self
        return MultiPoly._from_sorted(
            tuple(zip([e for e, _ in self._terms], [c // num for c in coeffs])))

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, coeff in self.terms:
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(SYMBOLS[i])
                elif e > 1:
                    factors.append(f"{SYMBOLS[i]}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


ONE = MultiPoly.const(1)
K = MultiPoly.var("k")
L = MultiPoly.var("l")
R = MultiPoly.var("r")
S = MultiPoly.var("s")
M = MultiPoly.var("m")


def basis_terms(x) -> tuple:
    """An exact value as (basis key, rational coefficient) pairs.

    A ``MultiPoly`` keys its terms by packed monomial, a ``QuadraticValue``
    a + b*sqrt(d) by 1 and ("sqrt", d), and an int or ``Fraction`` by 1; all
    three give 1 the key 0, the packed constant monomial.  Distinct keys
    stand for elements linearly independent over Q, so two values are
    equal exactly when their combinations are.
    """
    if isinstance(x, MultiPoly):
        return x._terms
    if isinstance(x, QuadraticValue):
        return ((0, x.a), (("sqrt", x.d), x.b))
    if isinstance(x, (int, Fraction)):
        return ((0, x),)
    raise TypeError(f"no exact basis for {type(x).__name__}")


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def _poly_gcd_1var(
    a: Sequence[int | Fraction], b: Sequence[int | Fraction]
) -> list[Fraction]:
    """Monic gcd of two coefficient lists; [] when both are zero."""
    a, b = _primitive_1var(a), _primitive_1var(b)
    while b:
        a, b = b, _remainder_1var(a, b)
    return [Fraction(c, a[-1]) for c in a] if a else []


def _primitive_1var(coeffs: Sequence[int | Fraction]) -> list[int]:
    """Trimmed coefficients times the positive rational that makes them
    coprime integers; [] for zero.  Every kernel reads its input this way,
    so a float coefficient raises ``TypeError``."""
    coeffs = [_coeff(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = gcd(*ints)
    return [c // content for c in ints]


def _remainder_1var(f: list[int], g: list[int]) -> list[int]:
    """Remainder of integer lists f by g times a positive rational, primitive.

    Each step scales f by |lead(g)| before cancelling its leading term, so
    the remainder keeps its sign and no Fraction is formed.
    """
    f, n = list(f), len(g) - 1
    scale, sign = abs(g[-1]), (1 if g[-1] > 0 else -1)
    while len(f) > n:
        top = f.pop() * sign
        shift = len(f) - n
        f = [c * scale for c in f]
        for i in range(n):
            f[shift + i] -= top * g[i]
        while f and not f[-1]:
            f.pop()
    return _primitive_1var(f)


def _eval_coeffs(coeffs: Sequence[int], x: Fraction) -> int | Fraction:
    out, x = 0, _coeff(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence of a primitive list up to a positive factor per entry,
    which keeps every sign and so every count of sign variations."""
    chain = [f]
    der = _primitive_1var([c * i for i, c in enumerate(f)][1:])
    if der:
        chain.append(der)
        while len(chain[-1]) > 1:
            rem = _remainder_1var(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


def _sign_variations(chain: list[list[int]], x: Fraction | None, inf: int) -> int:
    """Sign changes along the chain at x, or at inf * infinity for x None."""
    signs = []
    for f in chain:
        v = f[-1] * inf ** (len(f) - 1) if x is None else _eval_coeffs(f, x)
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count_roots_open(coeffs: Sequence[int | Fraction], lo, hi) -> int:
    """Number of distinct real roots in the open interval (lo, hi).

    A None end is unbounded.
    """
    f = _primitive_1var(coeffs)
    # deflate exact roots sitting on a finite endpoint so Sturm applies
    for end in (lo, hi):
        if end is not None:
            p, q = end.numerator, end.denominator
            while len(f) > 1 and _eval_coeffs(f, end) == 0:
                # f = (q*x - p) * g, with g integral and primitive by Gauss's
                # lemma, so g's coefficients divide out exactly, top first
                g, carry = [], 0
                for c in reversed(f[1:]):
                    carry = (c + p * carry) // q
                    g.append(carry)
                f = g[::-1]
    if len(f) <= 1:
        return 0
    chain = _sturm_chain(f)
    return _sign_variations(chain, lo, -1) - _sign_variations(chain, hi, 1)


def _quadratic_roots_exact(coeffs: Sequence[int | Fraction]):
    """Exact real roots, with multiplicity, of a degree 1 or 2 polynomial.

    Roots are Fractions or quadratic irrationals, a quadratic's larger root
    first when its leading coefficient is positive; None for other degrees.
    """
    coeffs = _primitive_1var(coeffs)
    if len(coeffs) == 2:
        return [Fraction(-coeffs[0], coeffs[1])]
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        # quad() folds a square discriminant back into Q
        return [quad(Fraction(-b, 2 * a), Fraction(sgn if disc else 0, 2 * a), disc)
                for sgn in (1, -1)]
    return None


def _rational_roots(coeffs: Sequence[int | Fraction]) -> list[Fraction]:
    """Rational roots of a nonzero polynomial given by its coefficient list.

    Zero comes first, once per factor x; the other roots follow once each,
    in the order the rational root test meets them.
    """
    coeffs = _primitive_1var(coeffs)
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    coeffs = coeffs[zeros:]

    def divisors(n: int):
        n = abs(n)
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in reversed(small) if d * d != n]

    # candidates p/q have p | const and q | lead
    roots = [Fraction(0)] * zeros
    for a in divisors(coeffs[0]):
        for b in divisors(coeffs[-1]):
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if _eval_coeffs(coeffs, cand) == 0 and cand not in roots:
                    roots.append(cand)
    return roots


# ---------------------------------------------------------------------------
# trial division and the nonvanishing sieve
# ---------------------------------------------------------------------------

# (k, l, r, s, m) for the residue test (module docstring); no divisor
# vanishes there (checked by ``_trial_divisors``)
_RESIDUE_POINT = (1009, 2003, 307, -409, 13)
_MONOMIAL_VALUES: dict[int, int] = {}


def _residue(p: MultiPoly) -> int | None:
    """p at ``_RESIDUE_POINT``, or None when a coefficient is a Fraction."""
    total = 0
    for mono, c in p._terms:
        if type(c) is not int:
            return None
        v = _MONOMIAL_VALUES.get(mono)
        if v is None:
            v = _MONOMIAL_VALUES[mono] = prod(
                x**e for x, e in zip(_RESIDUE_POINT, _unpack(mono)))
        total += c * v
    return total


def _trial_divisors(polys: Iterable[MultiPoly]) -> tuple[tuple[MultiPoly, int], ...]:
    """(divisor, residue) pairs in the order given, for ``_trial_divide``.

    Raises ValueError for a divisor the residue test cannot use: each must
    be a nonconstant primitive integer polynomial, nonzero at the point.
    """
    divisors = tuple((p, _residue(p)) for p in polys)
    for p, value in divisors:
        if p.is_constant() or not value or gcd(*(c for _, c in p._terms)) != 1:
            raise ValueError(f"{p} breaks the residue test: it must be a "
                             f"nonconstant primitive integer polynomial, "
                             f"nonzero at {_RESIDUE_POINT}")
    return divisors


def _trial_divide(p: MultiPoly, divisors: Sequence[tuple[MultiPoly, int]]
                  ) -> tuple[MultiPoly, tuple[tuple[int, int], ...]]:
    """(remainder, (index, exponent) pairs): p divided by each divisor in
    turn as often as it goes, so p = remainder * the product.  One pass
    suffices: a divisor that misses p misses every quotient of p too."""
    rem, residue = p, _residue(p)
    found: list[tuple[int, int]] = []
    for i, (d, value) in enumerate(divisors):
        count = 0
        # an exact division needs value | residue (module docstring)
        while (residue is None or residue % value == 0) and not rem.is_constant():
            q = rem.divide_exact(d)
            if q is None:
                break
            rem, count = q, count + 1
            residue = None if residue is None else residue // value
        if count:
            found.append((i, count))
    return rem, tuple(found)


@dataclass(frozen=True)
class SieveMember:
    name: str
    poly: MultiPoly
    sign: int  # strict sign on the primitive region
    note: str


@dataclass(frozen=True)
class NonzeroCertificate:
    """p = constant * product(member^exponent), all members sieve-nonzero."""

    constant: int | Fraction
    factors: tuple[tuple[str, int], ...]

    def reconstruct(self) -> MultiPoly | None:
        """The product, or None when a factor names no sieve member."""
        out = MultiPoly.const(self.constant)
        for name, exp in self.factors:
            mem = _DEFAULT_SIEVE.by_name.get(name)
            if mem is None:
                return None
            out = out * mem.poly ** exp
        return out

    def region_sign(self) -> int:
        sign = 1 if self.constant > 0 else -1
        for name, exp in self.factors:
            if exp % 2:
                sign *= _DEFAULT_SIEVE.by_name[name].sign
        return sign


class SieveSet:
    """The sieve's ordered polynomials, each provably nonzero on the
    primitive region; every instance holds the one member list."""

    def __init__(self):
        self.members = _SIEVE_MEMBERS
        self.by_name = {mem.name: mem for mem in self.members}
        self._cache: dict[MultiPoly, NonzeroCertificate | None] = {}
        self._divisors = _trial_divisors(mem.poly for mem in self.members)

    def certify(self, p: MultiPoly) -> NonzeroCertificate | None:
        """Trial-division certificate that p is nonzero on the primitive region.

        Returns None when p does not factor over the sieve (which says
        nothing about whether p can vanish).
        """
        if p.is_zero():
            raise ZeroInput("zero polynomial is never provably nonzero")
        cached = self._cache.get(p, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            return cached
        rem, factors = self.strip(p)
        cert = (NonzeroCertificate(rem.constant_value(), factors)
                if rem.is_constant() and not rem.is_zero() else None)
        self._cache[p] = cert
        return cert

    def strip(self, p: MultiPoly) -> tuple[MultiPoly, tuple[tuple[str, int], ...]]:
        """(remainder, (name, exponent) pairs divided out): p divided by sieve
        members until none divides, so p = remainder * their product."""
        rem, found = _trial_divide(p, self._divisors)
        return rem, tuple((self.members[i].name, e) for i, e in found)


_CACHE_MISS = object()


# the one sieve: certificates name its members, so they are a constant
_SIEVE_MEMBERS = tuple(SieveMember(*member) for member in (
    ("k", K, +1, "valency is positive"),
    ("l", L, +1, "complement valency is positive"),
    ("r", R, +1, "r = 0 only in the complete-multipartite imprimitive case"),
    ("1+s", ONE + S, -1, "s < -1 on the primitive region"),
    ("k-r", K - R, +1, "k = r only in the union-of-cliques imprimitive case"),
    ("l+1+s", L + 1 + S, +1, "l > -1-s on the primitive region"),
    ("k+rs", K + R * S, +1,
     "nonnegative structure constant; zero only for disconnected graphs"),
    ("(1+r)(1+s)", (ONE + R) * (ONE + S), -1,
     "product of a positive and a negative factor"),
    ("r-s", R - S, +1, "eigenvalues are ordered r > s"),
    ("k-s", K - S, +1, "k > 0 > s"),
    ("l+1+r", L + 1 + R, +1, "sum of positives"),
    ("1+r", ONE + R, +1, "r > 0"),
    ("1+k", ONE + K, +1, "k > 0"),
    ("1+l", ONE + L, +1, "l > 0"),
    # extensions beyond the base list, each strictly signed on the
    # primitive region
    ("s", S, -1, "s < -1 < 0"),
    ("k-1", K - 1, +1, "k - 1 >= -(1+r)(1+s) > 0"),
    ("l-1", L - 1, +1, "l - 1 >= -rs > 0"),
    ("l+r-1", L + R - 1, +1, "l > 1 and r > 0"),
    ("k+r-1", K + R - 1, +1, "k > 1 and r > 0"),
    ("k-s-2", K - S - 2, +1, "(k-1) + (-1-s) with both parts positive"),
    ("l-s-2", L - S - 2, +1, "(l-1) + (-1-s) with both parts positive"),
    ("1+k+l", ONE + K + L, +1, "the order n of the scheme"),
    ("k+l-1", K + L - 1, +1, "(k-1) + (l-1) + 1 > 1"),
))
_DEFAULT_SIEVE = SieveSet()


def default_sieve_set() -> SieveSet:
    """The one sieve, whose members every certificate names."""
    return _DEFAULT_SIEVE
