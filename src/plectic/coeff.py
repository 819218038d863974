"""Exact arithmetic in the field of multivariate rational functions over Q.

Every coefficient in this package is a ScalarExpr: a quotient of two sparse
multivariate polynomials with arbitrary-precision rational coefficients.
Equality is decided by cross-multiplication (p/q == r/s iff p*s - r*q is the
zero polynomial), so no canonical form is required for correctness; a
polynomial gcd is still divided out opportunistically to keep expressions
small and printing readable.  Floating point is never used.

The module also hosts the parser for the textual coefficient language:

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nat)?
    base   := integer | identifier | '(' expr ')'

Identifiers match [A-Za-z_][A-Za-z0-9_]* and must name chart coordinates;
integers match [0-9]+.  Spec coordinate names obey the same identifier rule.
A leading sign is accepted as a convenience on top of the documented grammar.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from fractions import Fraction
from typing import List, Mapping, Sequence, Tuple, Union

from .errors import DimensionMismatchError, PlecticError, PoleError

ScalarLike = Union["ScalarExpr", "Poly", Fraction, int]
# an exact value at a point: an int where it is integral, a Fraction elsewhere
Exact = Union[int, Fraction]

# Polynomials larger than this skip gcd reduction; cross-multiplication
# equality stays exact regardless.
_GCD_TERM_LIMIT = 80

# the coefficient of every constant-one polynomial; Fractions are immutable
_ONE = Fraction(1)

# the largest exponent the parser accepts: ``Poly.__pow__`` multiplies n times
_MAX_EXPONENT = 64

# the most terms the parser lets the numerator or denominator of a power have,
# as predicted by ``_power_terms`` before the power is computed
_MAX_POWER_TERMS = 10_000


class ExprSyntaxError(PlecticError):
    """Malformed coefficient expression; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ExprSyntaxError):
    pass


class DivisionByZeroExprError(PlecticError, ZeroDivisionError):
    """Division by an expression equal to the zero polynomial."""


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        (a.denominator * b.denominator) // math.gcd(a.denominator, b.denominator),
    )


# -- sparse monomials --------------------------------------------------------
# A monomial is a tuple of (variable index, power) pairs sorted by index, with
# zero powers left out; the constant monomial is ().


def term_order_key(e: tuple) -> tuple:
    """Sort key of a monomial under graded lex: total degree, then lex.

    Comparing the pairs (-index, power) lexicographically orders monomials as
    lex order orders their dense exponent vectors (the first variable is the
    most significant), so the key is the classic graded lex order.
    """
    return (sum(k for _, k in e), tuple((-i, k) for i, k in e))


def partial_degree(e: tuple, axes) -> int:
    """Degree of the monomial e in the variables whose positions are in axes."""
    return sum(k for i, k in e if i in axes)


def exact_point(point: Sequence) -> List[Exact]:
    """The point as evaluation takes it: an integral entry becomes an int, and
    any other float, Decimal or rational the Fraction it denotes, as
    Fraction(x) reads it."""
    out = []
    for x in point:
        if type(x) is not int:
            if not isinstance(x, Fraction):
                x = Fraction(x)
            if x.denominator == 1:
                x = x.numerator
        out.append(x)
    return out


def _power_terms(p: Poly, n: int) -> int:
    """An upper bound on the number of terms of p^n, for n >= 1.

    For p with m terms, v variables and total degree D, each term of p^n is
    the product of a multiset of n terms of p, and a monomial of degree at
    most n*D in the v variables: min(C(m+n-1, n), C(v+n*D, v)).
    """
    if not p.terms:
        return 0
    v = len({i for e in p.terms for i, _ in e})
    degree = max(sum(k for _, k in e) for e in p.terms)
    return min(math.comb(len(p.terms) + n - 1, n), math.comb(v + n * degree, v))


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    powers = dict(a)
    for i, k in b:
        powers[i] = powers.get(i, 0) + k
    return tuple(sorted(powers.items()))


def _mono_div(a: tuple, b: tuple):
    """The monomial a / b, or None if b does not divide a."""
    powers = dict(a)
    for i, k in b:
        left = powers.get(i, 0) - k
        if left < 0:
            return None
        if left:
            powers[i] = left
        else:
            del powers[i]
    return tuple(powers.items())


def _mono_gcd(a: tuple, b: tuple) -> tuple:
    powers = dict(b)
    return tuple((i, min(k, powers[i])) for i, k in a if i in powers)


def add_terms(out: dict, terms: Mapping[tuple, Fraction], negate: bool = False) -> None:
    """out += terms (or -= with negate) in place, for term dicts with no zero
    coefficient: a new monomial goes last, a cancelled one is deleted."""
    for e, c in terms.items():
        if negate:
            c = -c
        if e in out:
            s = out[e] + c
            if s:
                out[e] = s
            else:
                del out[e]
        else:
            out[e] = c


class Poly:
    """Sparse multivariate polynomial over Q.

    terms maps monomials to nonzero Fraction coefficients.  A monomial is a
    tuple of (variable index, power) pairs sorted by index with zero powers
    left out, so x0^2*x3 is ((0, 2), (3, 1)) and the constant monomial is ().
    Terms are ordered for display and leading terms by ``term_order_key``
    (graded lex).  The zero polynomial has no terms.  Instances are treated
    as immutable after construction.

    Invariant: no coefficient is zero.  The public constructor filters zeros
    out; the arithmetic below builds results that cannot hold one (sums that
    drop each cancelled term, negations, products, scalings by a nonzero
    scalar) through ``_trusted``, which skips the filter and the copy.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction]):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "Poly":
        """A Poly that takes ownership of terms, whose coefficients are nonzero Fractions."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls._trusted(tuple(variables), {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "Poly":
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return cls._trusted(tuple(variables), {(): value} if value else {})

    @classmethod
    def var(cls, variables: Sequence[str], axis: int) -> "Poly":
        """The variable at position axis."""
        return cls._trusted(tuple(variables), {((axis, 1),): _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not any(self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(()) == 1

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        [(exp, coeff)] = self.terms.items()
        if exp:
            raise ValueError("polynomial is not constant")
        return coeff

    def _check(self, other: "Poly") -> None:
        if self.variables is not other.variables and self.variables != other.variables:
            raise PlecticError(
                f"polynomials over different variables: {self.variables} vs {other.variables}"
            )

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.variables, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        add_terms(out, other.terms)
        return Poly._trusted(self.variables, out)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        add_terms(out, other.terms, negate=True)
        return Poly._trusted(self.variables, out)

    def __mul__(self, other) -> "Poly":
        """The product, with the terms in the order of the general loop below:
        self's terms outside, other's inside.

        A zero or constant operand is a shortcut: zero gives zero, the
        factor 1 gives the other operand itself (Polys are immutable), and
        another constant only scales it.  Any other product takes the loop,
        whose order a one-term operand leaves as the other operand's.
        """
        # the exact type test first: Fraction's ABC instance check is slow
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            if not other:
                return Poly._trusted(self.variables, {})
            return Poly._trusted(self.variables, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        # b: the operand with fewer terms
        a, b = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        if len(b.terms) <= 1:
            if not b.terms:
                return b
            [(mono, k)] = b.terms.items()
            if not mono and k == 1:
                return a
            if a.is_one():
                return b
            if not mono:
                return a * k
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _mono_mul(e1, e2)
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                else:
                    out[e] = c
        return Poly._trusted(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        """The repeated product self * self * ... (n factors, left to right)."""
        if n < 0:
            raise ValueError("negative exponent on a polynomial")
        result = Poly.const(self.variables, 1)
        for _ in range(n):
            result = result * self
        return result

    def diff(self, name: str) -> "Poly":
        """Partial derivative along the named variable."""
        return self._diff(self.variables.index(name))

    def _diff(self, idx: int) -> "Poly":
        """Partial derivative along variable idx: each monomial holding it is divided by it once."""
        var = ((idx, 1),)
        out: dict = {}
        for e, c in self.terms.items():
            for i, k in e:
                if i == idx:
                    out[_mono_div(e, var)] = c * k
                    break
        return Poly._trusted(self.variables, out)

    def evaluate(self, point: Sequence[Exact]) -> Exact:
        """Value at a point of ints and Fractions: an int where it is
        integral, a Fraction elsewhere.

        An integral coefficient is multiplied as an int, so at an integer
        point the sum is built from ints.  Other numbers are not converted
        here; pass them through exact_point.
        """
        if len(point) != len(self.variables):
            raise DimensionMismatchError(f"point of dimension {len(point)} for {len(self.variables)} variables")
        total = 0
        for e, c in self.terms.items():
            if c.denominator == 1:
                c = c.numerator
            for i, k in e:
                c = c * point[i] ** k
            total += c
        return total if type(total) is int or total.denominator != 1 else total.numerator

    def degree_in(self, idx: int) -> int:
        return max((k for e in self.terms for i, k in e if i == idx), default=0)

    def _lead(self) -> tuple:
        """Leading monomial under graded lex (largest total degree first)."""
        return max(self.terms, key=term_order_key)

    def content(self) -> Fraction:
        """The rational gcd of the coefficients, positive: the gcd of their
        numerators over the lcm of their denominators (1 for zero)."""
        coeffs = self.terms.values()
        return Fraction(
            math.gcd(*[c.numerator for c in coeffs]) or 1,
            math.lcm(*[c.denominator for c in coeffs]),
        )

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        return self.render(self.variables)

    def render(self, names: Sequence[str]) -> str:
        """The text of the polynomial with variable i printed as names[i]."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=term_order_key, reverse=True):
            c = self.terms[e]
            factors = [names[i] if k == 1 else f"{names[i]}^{k}" for i, k in e]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


# -- polynomial gcd (primitive pseudo-remainder sequence) ------------------


def _div_exact(a: Poly, b: Poly):
    """Exact multivariate division a / b, or None if b does not divide a.

    One remainder dict is reduced from its largest monomial down: its
    monomials are sorted once by ``term_order_key``, and each one a step adds
    is inserted in order.  Graded lex is a monomial order, so a step adds only
    monomials below the lead it cancels.  The quotient lists its terms largest first.
    """
    if b.is_zero():
        return None
    lb = b._lead()
    cb = b.terms[lb]
    rest = [(e, c) for e, c in b.terms.items() if e != lb]
    rem = dict(a.terms)
    order = sorted(rem, key=term_order_key)
    quot: dict = {}
    while order:
        la = order.pop()
        if la not in rem:  # cancelled by an earlier step
            continue
        e = _mono_div(la, lb)
        if e is None:
            return None
        q = quot[e] = rem.pop(la) / cb
        step = {_mono_mul(e, m): -q * c for m, c in rest}
        for m in step:
            if m not in rem:
                bisect.insort(order, m, key=term_order_key)
        add_terms(rem, step)
    return Poly._trusted(a.variables, quot)


def _vcoeffs(p: Poly, idx: int) -> dict:
    """View p as univariate in variable idx: degree -> Poly coefficient."""
    out: dict = {}
    for e, c in p.terms.items():
        k = dict(e).get(idx, 0)
        re = tuple(pair for pair in e if pair[0] != idx)
        coeff = out.setdefault(k, {})
        coeff[re] = coeff.get(re, Fraction(0)) + c
    return {k: Poly(p.variables, t) for k, t in out.items()}


def _prem(a: Poly, b: Poly, idx: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable idx.

    Each step lowers the degree in idx, so deg(a) - deg(b) + 1 steps bring
    it below deg(b); a remainder that is still not below it (only a Poly
    with a non-canonical monomial does that) raises PlecticError.
    """
    db = b.degree_in(idx)
    lb = _vcoeffs(b, idx)[db]
    r = a
    steps = a.degree_in(idx) - db + 1
    while not r.is_zero() and r.degree_in(idx) >= db:
        if not steps:
            raise PlecticError(f"the pseudo-remainder's degree in variable {idx} does not drop")
        steps -= 1
        dr = r.degree_in(idx)
        lr = _vcoeffs(r, idx)[dr]
        if dr > db:
            lr = lr * Poly._trusted(r.variables, {((idx, dr - db),): _ONE})
        r = lb * r - lr * b
    return r


def _vcontent(p: Poly, idx: int, budget: list) -> Poly:
    """The gcd of p's coefficients in variable idx, fewest terms first, then
    lowest degree: an order of values, where the budgeted gcd most often
    reaches a constant."""
    g = Poly.zero(p.variables)
    coeffs = _vcoeffs(p, idx)
    for k in sorted(coeffs, key=lambda k: (len(coeffs[k].terms), k)):
        g = _prs_gcd(g, coeffs[k], budget)
        if g.is_const():
            break
    return g if not g.is_zero() else Poly.const(p.variables, 1)


def _monomial_content(p: Poly) -> tuple:
    """The largest monomial dividing every term of the nonzero p."""
    terms = iter(p.terms)
    mono = next(terms)
    for e in terms:
        mono = _mono_gcd(mono, e)
        if not mono:  # the gcd of () with any monomial is ()
            break
    return mono


def _prs_gcd(a: Poly, b: Poly, budget: list) -> Poly:
    """Primitive pseudo-remainder-sequence gcd; bails to 1 when the shared
    step budget runs out (any common divisor is acceptable to callers).
    Every step depends only on values, so the budget runs out at the same
    step, and the result has the same value, in any term order of a and b."""
    if a.is_zero():
        return _normalize_sign(b)
    if b.is_zero():
        return _normalize_sign(a)
    budget[0] -= 1
    if (
        budget[0] < 0
        or len(a.terms) > _GCD_TERM_LIMIT
        or len(b.terms) > _GCD_TERM_LIMIT
    ):
        return Poly.const(a.variables, 1)
    idx = min((i for e in itertools.chain(a.terms, b.terms) for i, _ in e), default=None)
    if idx is None:  # both constants
        return Poly.const(a.variables, _frac_gcd(a.content(), b.content()))
    ca, cb = _vcontent(a, idx, budget), _vcontent(b, idx, budget)
    pa = _div_exact(a, ca)
    pb = _div_exact(b, cb)
    cg = _prs_gcd(ca, cb, budget)
    while not pb.is_zero():
        budget[0] -= 1
        if budget[0] < 0 or len(pa.terms) > _GCD_TERM_LIMIT or len(pb.terms) > _GCD_TERM_LIMIT:
            return Poly.const(a.variables, 1)
        r = _prem(pa, pb, idx)
        if r.is_zero():
            pa = pb
            break
        pa, pb = pb, _div_exact(r, _vcontent(r, idx, budget))
    prim = _div_exact(pa, _vcontent(pa, idx, budget))
    g = cg * prim
    scaled = _div_exact(g, Poly.const(g.variables, g.content()))
    return _normalize_sign(scaled)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """A divisor of gcd(a, b), exact and sign-normalized; 1 when coprime.

    Cheap ladder: rational and monomial contents, one-sided exact division;
    a budgeted pseudo-remainder sequence only for small operands.
    Callers only divide by the result, so returning a partial divisor is
    always sound.  ``base`` has a positive coefficient and multiplies only
    sign-normalized factors; under graded lex, a monomial order, the lead of
    a product is the product of the leads, so no product needs normalizing.
    Every rung depends only on values, not on the term order of a or b.
    """
    if a.is_zero():
        return _normalize_sign(b)
    if b.is_zero():
        return _normalize_sign(a)
    ca, ma, cb, mb = a.content(), _monomial_content(a), b.content(), _monomial_content(b)
    base = Poly(a.variables, {_mono_gcd(ma, mb): _frac_gcd(ca, cb)})
    if len(a.terms) == 1 or len(b.terms) == 1:
        return base
    pa = _div_exact(a, Poly._trusted(a.variables, {ma: ca}))
    pb = _div_exact(b, Poly._trusted(b.variables, {mb: cb}))
    small, big = (pa, pb) if len(pa.terms) <= len(pb.terms) else (pb, pa)
    if _div_exact(big, small) is not None:
        return base * _normalize_sign(small)
    if len(pa.terms) <= 24 and len(pb.terms) <= 24:
        return base * _prs_gcd(pa, pb, [60])
    return base


def _normalize_sign(p: Poly) -> Poly:
    if not p.is_zero() and p.terms[p._lead()] < 0:
        return -p
    return p


# -- rational functions ----------------------------------------------------


class ScalarExpr:
    """Element of Q(q_1, ..., q_d): a quotient of two Poly values.

    Supports +, -, *, /, ** with promotion of int and Fraction operands.
    Equality against another ScalarExpr (or scalar) is exact, decided by
    cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly._trusted(num.variables, {(): _ONE})
        if den.is_zero():
            raise DivisionByZeroExprError("zero denominator")
        num._check(den)
        self.num, self.den = _reduce(num, den)

    # -- constructors ----------------------------------------------------

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "ScalarExpr":
        return cls(Poly.const(variables, value))

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "ScalarExpr":
        return cls(Poly.zero(variables))

    @classmethod
    def one(cls, variables: Sequence[str]) -> "ScalarExpr":
        return cls.const(variables, 1)

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "ScalarExpr":
        return cls(Poly.var(variables, tuple(variables).index(name)))

    @property
    def variables(self) -> tuple:
        return self.num.variables

    def _coerce(self, other: ScalarLike):
        if isinstance(other, ScalarExpr):
            return other
        if isinstance(other, Poly):
            return ScalarExpr(other)
        if isinstance(other, (int, Fraction)):
            return ScalarExpr.const(self.variables, other)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        """Nonzero test, so sparse rows and pivots treat ScalarExpr like Fraction."""
        return not self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    # -- field operations ------------------------------------------------

    def __add__(self, other: ScalarLike) -> "ScalarExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.terms == other.den.terms:  # structurally equal denominators
            return ScalarExpr(self.num + other.num, self.den)
        return ScalarExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(-self.num, self.den)

    def __sub__(self, other: ScalarLike) -> "ScalarExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "ScalarExpr":
        return -(self - other)

    def __mul__(self, other: ScalarLike) -> "ScalarExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ScalarExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "ScalarExpr":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZeroExprError("division by the zero expression")
        return ScalarExpr(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: ScalarLike) -> "ScalarExpr":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "ScalarExpr":
        if n < 0:
            return ScalarExpr.one(self.variables) / self ** (-n)
        return ScalarExpr(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.variables != other.variables:
            return False
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        if self.is_const():
            return hash(self.const_value())
        # cross-multiplication equality admits no cheap canonical hash;
        # hash by variables only (valid, if coarse)
        return hash(self.variables)

    # -- calculus --------------------------------------------------------

    def diff(self, name: str) -> "ScalarExpr":
        """Partial derivative along the named variable."""
        try:
            axis = self.variables.index(name)
        except ValueError:
            raise PlecticError(f"unknown variable {name!r}") from None
        return self._diff(axis)

    def _diff(self, axis: int) -> "ScalarExpr":
        """Partial derivative along variable axis: (p/q)' = (q p' - p q') / q^2."""
        if self.den.is_one():
            return ScalarExpr(self.num._diff(axis), self.den)
        return ScalarExpr(
            self.den * self.num._diff(axis) - self.num * self.den._diff(axis),
            self.den * self.den,
        )

    def support(self) -> Tuple[int, ...]:
        """Positions of the variables that occur in num or den, in order.

        Every partial derivative along a variable outside the support is zero.
        """
        return tuple(sorted({i for p in (self.num, self.den) for e in p.terms for i, _ in e}))

    def evaluate(self, point: Sequence[Exact]) -> Exact:
        """Value at a point of ints and Fractions, as Poly.evaluate gives it:
        an int where it is integral, a Fraction elsewhere (raises PoleError
        where the denominator vanishes)."""
        if self.den.is_one():
            return self.num.evaluate(point)
        den = self.den.evaluate(point)
        if den == 0:
            raise PoleError(f"pole at {tuple(map(str, point))}: denominator {self.den} vanishes")
        v = Fraction(self.num.evaluate(point), den)
        return v if v.denominator != 1 else v.numerator

    def compose(self, values: Sequence["ScalarExpr"]) -> "ScalarExpr":
        """Substitute values[i] for variable i; values share one variable set.

        Each term of num and of den is multiplied out raw, its numerator
        summed into the part of its denominator; ``raw_sum`` reduces each
        part once.  Reduced forms depend only on values, so the result has
        the value, and wherever that reduces completely the text, of the
        same sum in ScalarExpr arithmetic.
        """
        if len(values) != len(self.variables):
            raise PlecticError("substitution arity mismatch")
        out_vars = values[0].variables if values else ()

        def eval_poly(p: Poly) -> "ScalarExpr":
            parts: dict = {}
            for e, c in p.terms.items():
                num, den = Poly.const(out_vars, c), None
                for i, k in e:
                    v = values[i]
                    num = num * v.num**k
                    if not v.den.is_one():
                        den = v.den**k if den is None else den * v.den**k
                add_terms(parts.setdefault(den, {}), num.terms)
            return raw_sum(out_vars, parts)

        num = eval_poly(self.num)
        if self.den.is_one():
            return num
        den = eval_poly(self.den)
        if den.is_zero():
            raise PoleError("substitution lands in the zero set of the denominator")
        return num / den

    def reindex(self, variables: Sequence[str], positions: Sequence[int]) -> "ScalarExpr":
        """The expression over variables, with variable i moved to positions[i].

        Every variable that occurs needs an int position; the others may
        have none.  The moved num and den are reduced anew.
        """

        def remap(p: Poly) -> Poly:
            terms = {tuple(sorted((positions[i], k) for i, k in e)): c for e, c in p.terms.items()}
            return Poly._trusted(tuple(variables), terms)

        return ScalarExpr(remap(self.num), remap(self.den))

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        return self.render(self.variables)

    def render(self, names: Sequence[str]) -> str:
        """The text of the expression with variable i printed as names[i]."""
        if self.den.is_one():
            return self.num.render(names)
        return f"({self.num.render(names)})/({self.den.render(names)})"

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"


def _reduce(num: Poly, den: Poly):
    """Divide out the gcd and normalize so den is primitive with positive lead.

    A polynomial over 1 is returned as given: the gcd ladder would only
    divide its rational content out and multiply it back.  As poly_gcd's,
    the values of the result do not depend on the term order of num or den.
    """
    if den.is_one():
        return num, den
    if num.is_zero():
        return num, Poly._trusted(num.variables, {(): _ONE})
    g = poly_gcd(num, den)
    if not g.is_one():
        qn, qd = _div_exact(num, g), _div_exact(den, g)
        if qn is not None and qd is not None:
            num, den = qn, qd
    scale = den.content()
    if den.terms[den._lead()] < 0:
        scale = -scale
    if scale != 1:
        num = num * (1 / scale)
        den = den * (1 / scale)
    return num, den


def raw_sum(variables: tuple, parts: Mapping) -> ScalarExpr:
    """The sum of raw parts {den or None for 1: numerator terms}, each
    reduced once and added in order of first appearance; an empty part is
    skipped.  The accumulator of compose, ``exterior.substitute`` and
    ``fieldtheory.eom_symbolic_system``."""
    total = None
    for den, acc in parts.items():
        if acc:
            part = ScalarExpr(Poly._trusted(variables, acc), den)
            total = part if total is None else total + part
    return ScalarExpr.zero(variables) if total is None else total


# -- parser ----------------------------------------------------------------

# the grammar's integers and identifiers, ASCII only
_WORD = re.compile(r"(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)")


def is_identifier(name: str) -> bool:
    """Whether name is an identifier of the coefficient grammar."""
    m = _WORD.fullmatch(name)
    return m is not None and m.lastgroup == "ident"


def _tokens(src: str):
    """Yield (kind, text, position) tokens of an expression, then an end token."""
    n = len(src)
    i = 0
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            yield (ch, ch, i)
            i += 1
        else:
            m = _WORD.match(src, i)
            if m is None:
                raise ExprSyntaxError(f"unexpected character {ch!r}", i)
            yield (m.lastgroup, m.group(), i)
            i = m.end()
    yield ("end", "", n)


class _Parser:
    def __init__(self, src: str, variables: Sequence[str]):
        self.toks = list(_tokens(src))
        self.i = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def nat(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # longer than Python's int-string limit
            raise ExprSyntaxError(f"integer of {len(tok[1])} digits is too long", tok[2]) from None

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> ScalarExpr:
        try:
            e = self.expr()
        except RecursionError:
            raise ExprSyntaxError("parentheses nested too deeply", self.peek()[2]) from None
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> ScalarExpr:
        sign = 1
        if self.peek()[0] in "+-":
            if self.next()[0] == "-":
                sign = -1
        e = self.term()
        if sign < 0:
            e = -e
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> ScalarExpr:
        e = self.factor()
        while self.peek()[0] in "*/":
            kind, _, pos = self.next()
            rhs = self.factor()
            if kind == "*":
                e = e * rhs
            else:
                if rhs.is_zero():
                    raise DivisionByZeroExprError(
                        f"division by a zero expression (at position {pos})"
                    )
                e = e / rhs
        return e

    def factor(self) -> ScalarExpr:
        e = self.base()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("num")
            n = self.nat(tok)
            if n > _MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent {n} is larger than {_MAX_EXPONENT}", tok[2])
            terms = max(_power_terms(e.num, n), _power_terms(e.den, n))
            if terms > _MAX_POWER_TERMS:
                raise ExprSyntaxError(
                    f"power ^{n} may have {terms} terms, more than {_MAX_POWER_TERMS}", tok[2]
                )
            e = e ** n
        return e

    def base(self) -> ScalarExpr:
        tok = kind, text, pos = self.next()
        if kind == "num":
            return ScalarExpr.const(self.variables, self.nat(tok))
        if kind == "ident":
            if text not in self.variables:
                raise UnknownVariableError(f"unknown variable {text!r}", pos)
            return ScalarExpr.var(self.variables, text)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def parse_expr(src: str, variables: Sequence[str]) -> ScalarExpr:
    """Parse a coefficient expression over the given coordinate names."""
    return _Parser(src, variables).parse()


def as_scalar(value: ScalarLike, variables: Sequence[str]) -> ScalarExpr:
    """Promote ints, Fractions, Polys, or expression strings to ScalarExpr."""
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, Poly):
        return ScalarExpr(value)
    if isinstance(value, str):
        return parse_expr(value, variables)
    return ScalarExpr.const(variables, value)
