import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plectic.coeff import (
    DivisionByZeroExprError,
    ExprSyntaxError,
    Poly,
    ScalarExpr,
    UnknownVariableError,
    _div_exact,
    _reduce,
    parse_expr,
    poly_gcd,
)
from plectic.errors import PoleError

VARS = ("x", "t")
VARS5 = ("x", "t", "u", "rho_x", "rho_t")


# -- parsing -----------------------------------------------------------------


def test_parse_zero_literal():
    assert parse_expr("0", VARS).is_zero()


def test_parse_coordinate_function():
    e = parse_expr("rho_x", VARS5)
    assert e == ScalarExpr.var(VARS5, "rho_x")
    assert e.evaluate([0, 0, 0, 1, 0]) == 1


def test_parse_quotient_equals_reduced_form():
    # oracle: cross-multiplication, expanded with direct Poly arithmetic
    x = Poly.var(VARS, "x")
    one = Poly.const(VARS, 1)
    lhs_num = x * x - one          # x^2 - 1
    rhs = (x + one) * (x - one)    # (x+1)(x-1)
    assert (lhs_num * one - rhs).is_zero()

    quotient = parse_expr("(x^2-1)/(x-1)", VARS)
    assert quotient == parse_expr("x+1", VARS)


def test_parse_respects_precedence_and_unary_minus():
    e = parse_expr("-x + 2*t^2", VARS)
    assert e == ScalarExpr.var(VARS, "t") ** 2 * 2 - ScalarExpr.var(VARS, "x")


def test_parse_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + * t", VARS)
    assert err.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError) as err:
        parse_expr("x + nope", VARS)
    assert err.value.position == 4


def test_parse_division_by_zero_polynomial():
    with pytest.raises(DivisionByZeroExprError):
        parse_expr("x / (t - t)", VARS)


def test_parse_illegal_character_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + $", VARS)
    assert err.value.position == 4


# -- field operations --------------------------------------------------------


def test_derivative_of_coordinate():
    assert ScalarExpr.var(VARS5, "rho_x").diff("rho_x") == 1


def test_derivative_matches_finite_difference():
    # oracle: central difference, exact for quadratics at any rational step
    e = parse_expr("x^2*t", VARS)
    x0, t0, h = Fraction(3), Fraction(2), Fraction(1, 7)
    fd = (e.evaluate([x0 + h, t0]) - e.evaluate([x0 - h, t0])) / (2 * h)
    assert fd == 12
    assert e.diff("x").evaluate([x0, t0]) == 12


def test_field_inverse():
    x = ScalarExpr.var(VARS, "x")
    assert (1 / x) * x == 1


def test_quotient_rule():
    e = parse_expr("(x+1)/(x-1)", VARS)
    # (q p' - p q')/q^2 with p = x+1, q = x-1 gives -2/(x-1)^2
    assert e.diff("x") == parse_expr("(0-2)/((x-1)^2)", VARS)


def test_eval_exact():
    assert parse_expr("(x+1)/(x-1)", VARS).evaluate([3, 0]) == 2


def test_eval_pole():
    with pytest.raises(PoleError):
        parse_expr("1/x", VARS).evaluate([0, 0])


def test_division_by_zero_expression():
    with pytest.raises(DivisionByZeroExprError):
        ScalarExpr.one(VARS) / ScalarExpr.zero(VARS)


# -- property suites ---------------------------------------------------------


def _poly_exprs(variables=VARS):
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    exps = st.tuples(*(st.integers(0, 2) for _ in variables))
    return st.dictionaries(exps, coeff, max_size=3).map(
        lambda terms: ScalarExpr(Poly(variables, {e: Fraction(c) for e, c in terms.items()}))
    )


def _scalars(variables=VARS):
    return st.tuples(_poly_exprs(variables), _poly_exprs(variables)).map(
        lambda pair: pair[0] / pair[1]
        if not pair[1].is_zero()
        else pair[0]
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scalars(), _scalars(), _scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if not a.is_zero():
        assert a * (1 / a) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scalars())
def test_mixed_partials_commute(a):
    assert a.diff("x").diff("t") == a.diff("t").diff("x")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_scalars(), _scalars())
def test_leibniz_rule(a, b):
    assert (a * b).diff("x") == a * b.diff("x") + b * a.diff("x")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_scalars())
def test_print_parse_roundtrip(a):
    assert parse_expr(str(a), VARS) == a


def test_gcd_reduction_keeps_values_exact():
    rng = random.Random(7)
    x, t = ScalarExpr.var(VARS, "x"), ScalarExpr.var(VARS, "t")
    for _ in range(50):
        n = rng.randint
        a = x**2 * n(-3, 3) + t * n(-3, 3) + n(1, 3)
        b = x + n(1, 4)
        assert (a * b) / b == a


# -- polynomial fast path against the code it short-cuts ---------------------
# The references below are the general routines without their shortcuts; the
# fast paths must reproduce them term for term, in the same dict order.


def _reduce_ladder(num, den):
    """_reduce without the integer-polynomial shortcut: always run the gcd ladder."""
    if num.is_zero():
        return num, Poly.const(num.variables, 1)
    g = poly_gcd(num, den)
    if not (g.is_const() and g.const_value() == 1):
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


def _mul_loop(a, b):
    """Poly product by the general term-by-term loop."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly(a.variables, out)


def _ordered(p):
    return list(p.terms.items())


_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_INTEGERS = st.integers(-6, 6).map(Fraction)


def _polys(variables, coeffs, max_size=4, min_size=0):
    exps = st.tuples(*(st.integers(0, 2) for _ in variables))
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_size).map(
        lambda terms: Poly(variables, terms)
    )


@st.composite
def _reduce_inputs(draw):
    """(num, den) over 3-5 variables with each kind of denominator."""
    variables = tuple(f"v{i}" for i in range(draw(st.integers(3, 5))))
    kind = draw(st.sampled_from(["one/int", "one/frac", "const", "poly"]))
    num = draw(_polys(variables, _INTEGERS if kind == "one/int" else _FRACTIONS))
    if kind.startswith("one"):
        den = Poly.const(variables, 1)
    elif kind == "const":
        den = Poly.const(variables, draw(_FRACTIONS.filter(lambda c: c not in (0, 1))))
    else:
        den = draw(_polys(variables, _FRACTIONS, min_size=1).filter(lambda p: not p.is_const()))
    return num, den


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_reduce_inputs())
def test_reduce_matches_gcd_ladder_term_order_included(pair):
    num, den = pair
    got_num, got_den = _reduce(num, den)
    want_num, want_den = _reduce_ladder(num, den)
    assert _ordered(got_num) == _ordered(want_num)
    assert _ordered(got_den) == _ordered(want_den)


def test_reduce_keeps_integer_polynomials_over_one_as_given():
    variables = ("a", "b", "c")
    num = Poly(variables, {(0, 0, 1): Fraction(2), (1, 0, 0): Fraction(-3)})
    one = Poly.const(variables, 1)
    assert _reduce(num, one) == (num, one)
    assert _reduce(num, one)[0] is num


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_constant_factor_product_matches_general_loop(data):
    variables = ("a", "b", "c", "d")
    p = data.draw(_polys(variables, _FRACTIONS, max_size=5))
    c = Poly.const(variables, data.draw(_FRACTIONS))
    for got, want in ((p * c, _mul_loop(p, c)), (c * p, _mul_loop(c, p))):
        assert _ordered(got) == _ordered(want)


def _quotient_rule(a, name):
    return ScalarExpr(a.den * a.num.diff(name) - a.num * a.den.diff(name), a.den * a.den)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(_scalars(), _poly_exprs()), st.sampled_from(VARS))
def test_diff_matches_quotient_rule(a, name):
    got, want = a.diff(name), _quotient_rule(a, name)
    assert got == want
    assert (_ordered(got.num), _ordered(got.den)) == (_ordered(want.num), _ordered(want.den))


def test_support_covers_numerator_and_denominator():
    assert parse_expr("t/(x+1)", ("x", "t", "u")).support() == (0, 1)
    assert parse_expr("u^2*x - 3", ("x", "t", "u")).support() == (0, 2)
    assert ScalarExpr.const(("x", "t"), 5).support() == ()


def test_evaluate_mixes_fractions_and_ints():
    e = parse_expr("x*t/3 + 1", VARS)
    assert e.evaluate([Fraction(1, 2), 4]) == Fraction(5, 3)
    assert parse_expr("1/(x - t)", VARS).evaluate([Fraction(3), 1]) == Fraction(1, 2)
