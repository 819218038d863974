import itertools
import math
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from plectic import coeff
from plectic.coeff import (
    _GCD_TERM_LIMIT,
    DivisionByZeroExprError,
    ExprSyntaxError,
    Poly,
    ScalarExpr,
    UnknownVariableError,
    _div_exact,
    _frac_gcd,
    _reduce,
    is_identifier,
    parse_expr,
    poly_gcd,
)
from plectic.errors import PlecticError, PoleError
from plectic.exterior import Chart, CoordinateMap
from plectic.fieldtheory import FiberedChart, Section

from conftest import random_poly_expr, random_scalar, rename, sympy_expr, term_orders, with_terms_in

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
    x = Poly.var(VARS, 0)
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


@pytest.mark.parametrize(
    "src,message,position",
    [
        ("x + " + "1" * 4301, "integer of 4301 digits is too long", 4),
        ("x^" + "2" * 5000, "integer of 5000 digits is too long", 2),
        ("(" * 5000 + "x" + ")" * 5000, "parentheses nested too deeply", None),
        ("x^65", "exponent 65 is larger than 64", 2),
        ("2^100000000", "exponent 100000000 is larger than 64", 2),
    ],
    ids=["long-literal", "long-exponent", "deep-parentheses", "x^65", "2^100000000"],
)
def test_parse_rejects_integers_past_the_digit_limit_and_deep_nesting(src, message, position):
    with pytest.raises(ExprSyntaxError, match=message) as err:
        parse_expr(src, VARS)
    if position is None:  # where the nesting hit the recursion limit
        assert src[err.value.position] == "("
    else:
        assert err.value.position == position


def test_parse_accepts_the_largest_exponent():
    assert parse_expr("x^64", VARS) == ScalarExpr(Poly(VARS, {((0, 64),): Fraction(1)}))


POWER_VARS = ("x", "t", "u", "v", "w", "y")


@pytest.mark.parametrize(
    "src,terms",
    [("(x+t+u+v+w)^24", 20475), ("(1/(x+t+u+v+w))^24", 20475)],
    ids=["numerator", "denominator"],
)
def test_parse_rejects_a_power_predicted_past_the_term_limit(src, terms):
    # the prediction comes before the power is built: (x+t+u+v+w)^24 has
    # 20,475 terms and would take seconds to multiply out
    with pytest.raises(ExprSyntaxError, match=f"may have {terms} terms, more than 10000") as err:
        parse_expr(src, POWER_VARS)
    assert err.value.position == src.rindex("^") + 1


@pytest.mark.parametrize(
    "src,terms", [("(x+t+u+v+w)^16", 4845), ("(x+y)^64", 65), ("((x+y)^8)^8", 65)]
)
def test_parse_accepts_powers_within_the_term_limit(src, terms):
    # ((x+y)^8)^8: 9 terms to the 8th is C(16, 8) = 12,870 multisets, but at
    # most C(2 + 64, 2) = 2,145 monomials of degree 64 or less in x and y
    assert len(parse_expr(src, POWER_VARS).num.terms) == terms


def test_power_terms_bound_the_terms_of_the_power():
    rng = random.Random(6)
    for _ in range(60):
        p = _random_poly(rng, 5)
        for n in (1, 2, 3):
            predicted = coeff._power_terms(p, n)
            assert len((p**n).terms) <= predicted
            assert predicted <= math.comb(len(p.terms) + n - 1, n)
    assert coeff._power_terms(Poly(VARS, {}), 5) == 0


@pytest.mark.parametrize("src,position", [("2²", 1), ("x + ٣", 4), ("xé", 1)])
def test_parse_rejects_non_ascii_digits_and_letters(src, position):
    with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
        parse_expr(src, VARS)
    assert err.value.position == position


def test_identifier_rule():
    assert all(is_identifier(n) for n in ("x", "_", "rho_x", "p_x_t2"))
    assert not any(is_identifier(n) for n in ("", "2x", "12", "x²", "é", "x-y"))


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


def _sparse(dense):
    """The monomial of a dense exponent tuple: its (index, power) pairs, zeros left out."""
    return tuple((i, k) for i, k in enumerate(dense) if k)


def _poly_exprs(variables=VARS):
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    exps = st.tuples(*(st.integers(0, 2) for _ in variables)).map(_sparse)
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


def _content_fold(p):
    """The rational gcd of p's coefficients, folded one coefficient at a time."""
    c = Fraction(0)
    for coeff in p.terms.values():
        c = _frac_gcd(c, abs(coeff))
    return c if c else Fraction(1)


@pytest.mark.parametrize("seed", range(3))
def test_content_matches_the_coefficient_fold(seed):
    # mixed signs, fractional and zero coefficients, scaled by a shared factor
    rng = random.Random(seed)
    for _ in range(300):
        scale = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        terms = {
            _sparse([rng.randint(0, 2) for _ in VARS5]):
                scale * Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 9]))
            for _ in range(rng.randint(0, 6))
        }
        p = Poly(VARS5, terms)
        content = p.content()
        assert type(content) is Fraction and content > 0
        assert content == _content_fold(p)


def test_gcd_reduction_keeps_values_exact():
    rng = random.Random(7)
    x, t = ScalarExpr.var(VARS, "x"), ScalarExpr.var(VARS, "t")
    for _ in range(50):
        n = rng.randint
        a = x**2 * n(-3, 3) + t * n(-3, 3) + n(1, 3)
        b = x + n(1, 4)
        assert (a * b) / b == a


def test_pseudo_remainder_whose_degree_does_not_drop_fails_in_time():
    # x*x*y held as one non-canonical monomial: its degree in x stays 1 under
    # every step, so an unbounded loop never ends.  Run in a daemon thread so
    # that a regression fails here instead of hanging the suite.
    a = Poly(("x", "y"), {((0, 1), (0, 1), (1, 1)): 1, ((1, 1),): 1})
    b = Poly(("x", "y"), {((0, 1),): 1, (): 1})
    raised = []

    def run():
        try:
            coeff._prem(a, b, 0)
        except PlecticError as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "_prem still runs after 10 s"
    assert len(raised) == 1 and "does not drop" in str(raised[0])


# -- polynomial fast path against the code it short-cuts ---------------------
# The references below are the general routines without their shortcuts; the
# fast paths must reproduce them term for term, in the same dict order.


def _reduce_ladder(num, den):
    """_reduce without the shortcut over 1: always run the gcd ladder."""
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
            powers = dict(e1)
            for i, k in e2:
                powers[i] = powers.get(i, 0) + k
            e = tuple(sorted(powers.items()))
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
    exps = st.tuples(*(st.integers(0, 2) for _ in variables)).map(_sparse)
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_size).map(
        lambda terms: Poly(variables, terms)
    )


def _monomial_fold(p):
    """The gcd of p's monomials, folded over every term."""
    terms = iter(p.terms)
    mono = next(terms)
    for e in terms:
        mono = coeff._mono_gcd(mono, e)
    return mono


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_monomial_content_matches_the_full_fold(data):
    # a shared monomial factor makes most contents nonconstant; the fold
    # stops at the first () it reaches
    variables = ("a", "b", "c")
    p = data.draw(_polys(variables, _FRACTIONS.filter(bool), max_size=6, min_size=1))
    shared = data.draw(st.tuples(*(st.integers(0, 3) for _ in variables)).map(_sparse))
    p = p * Poly(variables, {shared: Fraction(1)})
    assert coeff._monomial_content(p) == _monomial_fold(p)


@st.composite
def _reduce_inputs(draw):
    """(kind, num, den) over 3-5 variables with each kind of denominator."""
    variables = tuple(f"v{i}" for i in range(draw(st.integers(3, 5))))
    kind = draw(st.sampled_from(["one/int", "one/frac", "const", "poly"]))
    num = draw(_polys(variables, _INTEGERS if kind == "one/int" else _FRACTIONS))
    if kind.startswith("one"):
        den = Poly.const(variables, 1)
    elif kind == "const":
        den = Poly.const(variables, draw(_FRACTIONS.filter(lambda c: c not in (0, 1))))
    else:
        den = draw(_polys(variables, _FRACTIONS, min_size=1).filter(lambda p: not p.is_const()))
    return kind, num, den


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_reduce_inputs())
def test_reduce_matches_gcd_ladder_term_order_included(case):
    kind, num, den = case
    got_num, got_den = _reduce(num, den)
    if kind == "one/frac":
        # the ladder only divides the rational content out and multiplies it
        # back, which re-sorts the terms; _reduce keeps them as given
        assert got_num is num and got_den is den
        return
    want_num, want_den = _reduce_ladder(num, den)
    assert _ordered(got_num) == _ordered(want_num)
    assert _ordered(got_den) == _ordered(want_den)


def test_reduce_keeps_integer_polynomials_over_one_as_given():
    variables = ("a", "b", "c")
    num = Poly(variables, {((2, 1),): Fraction(2), ((0, 1),): Fraction(-3)})
    one = Poly.const(variables, 1)
    assert _reduce(num, one) == (num, one)
    assert _reduce(num, one)[0] is num
    # a fractional numerator too: the gcd ladder would list -3/2*a before c/3
    frac = Poly(variables, {((2, 1),): Fraction(1, 3), ((0, 1),): Fraction(-3, 2)})
    assert _reduce(frac, one)[0] is frac


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


def _term_lists(expr):
    return [list(p.terms.items()) for p in (expr.num, expr.den)]


def test_reindex_matches_the_rename_by_name():
    # each variable goes to a later place, in the same order or swapped: the
    # same quotient as renaming it by name, down to the order of the terms
    wider = ("z", "a", "y", "b", "c")
    for place in ((1, 3, 4), (4, 1, 3)):
        rng = random.Random(2024)
        variables = tuple(wider[i] for i in place)
        for _ in range(20):
            e = ScalarExpr(*_seeded_quotient(rng, variables))
            got, want = e.reindex(wider, place), rename(e, wider)
            assert got.variables == wider and got == want and str(got) == str(want)
            assert _term_lists(got) == _term_lists(want)


def test_reindex_needs_a_position_only_for_used_variables():
    e = parse_expr("x/(x + 1)", ("x", "t"))
    moved = e.reindex(("u", "x"), (1, None))
    assert moved == parse_expr("x/(x + 1)", ("u", "x"))
    assert str(moved) == "(x)/(x + 1)"


def test_reindex_reduces_a_swap_anew():
    e = parse_expr("x/(x - t)", VARS)
    swapped = e.reindex(("t", "x"), (1, 0))
    want = parse_expr("x/(x - t)", ("t", "x"))
    assert str(swapped) == str(want)
    assert _term_lists(swapped) == _term_lists(want)


def test_evaluate_mixes_fractions_and_ints():
    e = parse_expr("x*t/3 + 1", VARS)
    assert e.evaluate([Fraction(1, 2), 4]) == Fraction(5, 3)
    assert parse_expr("1/(x - t)", VARS).evaluate([Fraction(3), 1]) == Fraction(1, 2)


def test_poly_evaluate_is_an_int_where_integral_and_a_fraction_elsewhere():
    # halves that sum to an integer come back as an int
    p = parse_expr("x/2 + t/2", VARS).num
    for point, value in (([1, 1], 1), ([Fraction(1, 3), Fraction(5, 3)], 1), ([2, 1], Fraction(3, 2))):
        assert p.evaluate(point) == value and type(p.evaluate(point)) is type(value)


def test_evaluate_divides_exactly():
    # int over int is a Fraction where it does not divide and the int where it
    # does; true division would make a float of both
    for src, point, value in (
        ("x/2", [1, 0], Fraction(1, 2)),
        ("1/(x + 1)", [1, 0], Fraction(1, 2)),
        ("(x+1)/(x-1)", [3, 0], 2),
        ("t/(x + t)", [Fraction(1, 2), Fraction(1, 2)], Fraction(1, 2)),
    ):
        got = parse_expr(src, VARS).evaluate(point)
        assert got == value and type(got) is type(value)


def _reference_value(e, point):
    """Value of e at the point in Fraction arithmetic, term by term."""
    def value(p):
        return sum(
            (Fraction(c) * math.prod(Fraction(point[i]) ** k for i, k in m) for m, c in p.terms.items()),
            Fraction(0),
        )
    den = value(e.den)
    return None if den == 0 else value(e.num) / den


_POINT_ENTRIES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_scalars(), st.lists(_POINT_ENTRIES, min_size=2, max_size=2))
def test_evaluate_is_exact_and_an_int_exactly_where_integral(a, point):
    # never a float: the value of the Fraction reference, as an int where
    # that is integral and as a Fraction elsewhere
    want = _reference_value(a, point)
    if want is None:
        with pytest.raises(PoleError):
            a.evaluate(point)
        return
    got = a.evaluate(point)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_diff_names_an_unknown_variable():
    with pytest.raises(PlecticError, match="unknown variable 'y'"):
        parse_expr("x*t", VARS).diff("y")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_polys(("a", "b", "c"), _FRACTIONS, min_size=2))
def test_power_is_the_repeated_product(p):
    product = Poly.const(p.variables, 1)
    for n in range(6):
        assert _ordered(p**n) == _ordered(product), n
        product = product * p


# -- Poly arithmetic against the filtering constructor --------------------------
# Sums, negations, products and nonzero scalings cannot hold a zero
# coefficient, so Poly builds them without its constructor's zero filter and
# without rebuilding Fractions.  The references below keep the loops that
# went through ``out.get(e, Fraction(0))`` and the filtering constructor.


def _ref_add(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return Poly(a.variables, out)


def _ref_neg(a):
    return Poly(a.variables, {e: -c for e, c in a.terms.items()})


def _ref_scale(a, k):
    k = Fraction(k)
    return Poly(a.variables, {e: c * k for e, c in a.terms.items()})


def _ref_mul(a, b):
    if b.is_const():
        return _ref_scale(a, b.const_value())
    if a.is_const():
        return _ref_scale(b, a.const_value())
    return _mul_loop(a, b)


def _conftest_polys(seed):
    """Integer and rational conftest polynomials, with zero and constants."""
    rng = random.Random(seed)
    polys = [Poly.zero(VARS5), Poly.const(VARS5, -2), Poly.const(VARS5, Fraction(3, 4))]
    for _ in range(8):
        p = random_poly_expr(rng, VARS5).num
        polys += [p, random_scalar(rng, VARS5).num, (ScalarExpr(p) / rng.randint(2, 5)).num]
    return polys


def _assert_same(got, want):
    assert _ordered(got) == _ordered(want)
    assert all(type(c) is Fraction and c for c in got.terms.values())


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_matches_the_filtering_constructor(seed):
    polys = _conftest_polys(seed)
    for a, b in itertools.product(polys, repeat=2):
        _assert_same(a + b, _ref_add(a, b))
        _assert_same(a - b, _ref_add(a, _ref_neg(b)))
        _assert_same(a * b, _ref_mul(a, b))
        # every term of a cancels
        _assert_same(a + (b - a), _ref_add(a, _ref_add(b, _ref_neg(a))))
        # the cross terms of (a + b)(a - b) cancel
        _assert_same((a + b) * (a - b), _ref_mul(_ref_add(a, b), _ref_add(a, _ref_neg(b))))
    for a in polys:
        _assert_same(-a, _ref_neg(a))
        _assert_same(a - a, Poly.zero(VARS5))
        for k in (0, 1, -3, Fraction(2, 3), Fraction(1), Fraction(0)):
            _assert_same(a * k, _ref_scale(a, k))
            _assert_same(k * a, _ref_scale(a, k))


def test_sums_and_products_drop_cancelled_terms():
    x, t = ScalarExpr.var(VARS, "x").num, ScalarExpr.var(VARS, "t").num
    assert _ordered((x + t) - t) == _ordered(x)
    assert ((x + t) + (-t - x)).is_zero()
    assert _ordered((x + t) * (x - t)) == _ordered(x * x - t * t)
    assert ((x + t) * (x - t)).terms.get(((0, 1), (1, 1))) is None
    assert Poly.const(VARS, Fraction(3)).terms == {(): 3}
    assert Poly.const(VARS, 0).is_zero()


@pytest.mark.parametrize("seed", range(2))
def test_product_by_one_is_the_other_operand(seed):
    one = Poly.const(VARS5, 1)
    for p in _conftest_polys(seed) + [one]:
        assert p * one is p
        assert one * p is p
    # so the denominator of a product of expressions over 1 is one of theirs
    a, b = ScalarExpr.var(VARS5, "x"), ScalarExpr.var(VARS5, "u")
    assert (a * b).den is a.den or (a * b).den is b.den


# -- products by one term against the general loop -------------------------------
# A constant operand is a shortcut: the factor 1 returns the other operand,
# and any other constant scales it.  Every other one-term operand takes the
# general loop.  Either way the terms and their order are the loop's.


def _random_poly(rng, max_terms):
    """A Poly built by its constructor alone, so no product goes into it."""
    terms = {
        _sparse([rng.randint(0, 2) for _ in VARS5]): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(rng.randint(0, max_terms))
    }
    return Poly(VARS5, terms)


@pytest.mark.parametrize("seed", range(4))
def test_product_by_a_single_term_matches_general_loop(seed):
    rng = random.Random(seed)
    polys = [_random_poly(rng, 6) for _ in range(12)] + [Poly.const(VARS5, 3)]
    for _ in range(6):
        mono = _sparse([rng.randint(0, 2) for _ in VARS5])
        for k in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
            single = Poly(VARS5, {mono: k})
            for p in polys:
                _assert_same(p * single, _mul_loop(p, single))
                _assert_same(single * p, _mul_loop(single, p))


# -- compose against ScalarExpr arithmetic ------------------------------------
# compose multiplies each term out raw and reduces each denominator's part
# once.  The reference sums and multiplies ScalarExprs, each through _reduce;
# _reduce keeps a polynomial over 1 as given, so over 1 the two agree term
# for term, and elsewhere in value, and in text where _reduce is canonical.

OUT_VARS = ("s", "t", "w")


def _compose_by_eval_poly(expr, values):
    out_vars = values[0].variables if values else ()

    def eval_poly(p):
        total = ScalarExpr.zero(out_vars)
        for e, c in p.terms.items():
            term = ScalarExpr.const(out_vars, c)
            for i, k in e:
                term = term * values[i] ** k
            total = total + term
        return total

    return eval_poly(expr.num) / eval_poly(expr.den)


def _assert_same_expr(got, want):
    assert str(got) == str(want)
    assert (_ordered(got.num), _ordered(got.den)) == (_ordered(want.num), _ordered(want.den))


def _compose_value(rng, kind):
    if kind == "poly":
        return random_poly_expr(rng, OUT_VARS, max_terms=3, max_exp=1)
    if kind == "const":
        return ScalarExpr.const(OUT_VARS, rng.randint(-3, 3))
    if kind == "zero":
        return ScalarExpr.zero(OUT_VARS)
    if kind == "fraction":
        return random_poly_expr(rng, OUT_VARS, max_terms=3, max_exp=1) / rng.randint(2, 4)
    return random_scalar(rng, OUT_VARS)


def _compose_expr(rng, kind):
    p = random_poly_expr(rng, VARS5, max_terms=4, max_exp=2)
    if kind == "fraction":
        return p / rng.randint(2, 4)
    if kind == "quotient":
        return p / (ScalarExpr.var(VARS5, rng.choice(VARS5)) + rng.randint(1, 3))
    return p


@pytest.mark.parametrize("seed", range(4))
def test_compose_of_integer_polynomials_matches_the_eval_poly_path(seed):
    rng = random.Random(seed)
    for _ in range(25):
        values = [_compose_value(rng, rng.choice(["poly", "poly", "const", "zero"])) for _ in VARS5]
        expr = _compose_expr(rng, "integer")
        _assert_same_expr(expr.compose(values), _compose_by_eval_poly(expr, values))


@pytest.mark.parametrize("seed", range(4))
def test_compose_with_a_fraction_anywhere_matches_the_eval_poly_path(seed):
    rng = random.Random(100 + seed)
    kinds = ["poly", "const", "zero", "fraction", "quotient"]
    for trial in range(25):
        values = [_compose_value(rng, rng.choice(kinds)) for _ in VARS5]
        # every other trial composes with integer polynomials only
        expr = _compose_expr(rng, "fraction" if trial % 2 else rng.choice(["fraction", "quotient"]))
        if trial % 2:
            values = [_compose_value(rng, "poly") for _ in VARS5]
        try:
            want = _compose_by_eval_poly(expr, values)
        except ZeroDivisionError:
            with pytest.raises(PoleError):
                expr.compose(values)
            continue
        _assert_same_expr(expr.compose(values), want)


def _assert_same_value(got, want):
    """Equal values, and equal text where the denominator is a monomial."""
    assert got == want
    if len(want.den.terms) == 1:
        assert str(got) == str(want)


def _compose_or_pole(compose, expr, values):
    try:
        return compose(expr, values)
    except (PoleError, ZeroDivisionError):  # the reference divides by a zero ScalarExpr
        return PoleError


def _rational_value(rng, variables):
    # a constant in -3..-1 meets the random denominators c + coordinate
    if rng.random() < 0.4:
        return ScalarExpr.const(variables, rng.randint(-3, -1))
    return random_scalar(rng, variables)


def test_compose_of_rational_coefficients_matches_scalar_arithmetic():
    rng = random.Random(300)
    poles = 0
    for _ in range(100):
        expr = random_scalar(rng, VARS5)
        values = [_rational_value(rng, OUT_VARS) for _ in VARS5]
        got = _compose_or_pole(ScalarExpr.compose, expr, values)
        want = _compose_or_pole(_compose_by_eval_poly, expr, values)
        if want is PoleError:
            assert got is PoleError
            poles += 1
            continue
        _assert_same_value(got, want)
    assert poles >= 3
    # a denominator that vanishes only once the values' denominators are used
    s, w = ScalarExpr.var(OUT_VARS, "s"), ScalarExpr.var(OUT_VARS, "w")
    expr = parse_expr("1/(x - t)", VARS)
    with pytest.raises(PoleError):
        expr.compose([s / (w + 1), s / (w + 1)])
    assert expr.compose([s / (w + 1), s / (w + 2)]) == (w + 1) * (w + 2) / s


def test_compose_after_a_map_and_along_a_rational_section_matches_scalar_arithmetic():
    rng = random.Random(404)
    src, mid, tgt = Chart("src", OUT_VARS), Chart("mid", VARS), Chart("tgt", VARS5)
    fibered = FiberedChart(tgt, ("x", "t"))
    cube = ScalarExpr.var(VARS, "x") ** 3
    for _ in range(10):
        inner = CoordinateMap(src, mid, [random_scalar(rng, OUT_VARS) for _ in VARS])
        outer = CoordinateMap(mid, tgt, [random_scalar(rng, VARS) for _ in VARS5])
        for got, comp in zip(outer.after(inner).components, outer.components):
            _assert_same_value(got, _compose_by_eval_poly(comp, inner.components))
        # a cube lies outside random_scalar's degrees, so no component is
        # constant and no denominator c + coordinate vanishes on the graph
        section = Section(fibered, {n: random_scalar(rng, VARS) + cube for n in fibered.fiber})
        graph = section.graph_map().components
        for _ in range(3):
            expr = random_scalar(rng, VARS5)
            _assert_same_value(expr.compose(graph), _compose_by_eval_poly(expr, graph))


@pytest.mark.parametrize("seed", range(4))
def test_compose_keeps_the_term_order_of_fraction_sums(seed):
    # g0/2 + g1/2 + g2/2 sums to the integer polynomial h through fraction
    # sums, which compose's raw sum and ScalarExpr arithmetic must order alike
    rng = random.Random(200 + seed)
    v = [ScalarExpr.var(VARS5, name) for name in VARS5[:3]]
    rest = [ScalarExpr.zero(OUT_VARS)] * 2
    for _ in range(10):
        g0, g1, h = (random_poly_expr(rng, OUT_VARS, max_terms=3, max_exp=2) for _ in range(3))
        g = [g0, g1, 2 * h - g0 - g1]
        cases = [
            ((v[0] + v[1] + v[2]) / 2, g + rest),  # Fraction coefficients
            (v[0] + v[1] + v[2], [x / 2 for x in g] + rest),  # Fraction values
        ]
        for expr, values in cases:
            got = expr.compose(values)
            assert got == h
            _assert_same_expr(got, _compose_by_eval_poly(expr, values))


def test_compose_sums_polynomials_over_1_in_term_order():
    x, t = ScalarExpr.var(VARS, "x"), ScalarExpr.var(VARS, "t")
    s, w = ScalarExpr.var(OUT_VARS, "s"), ScalarExpr.var(OUT_VARS, "w")
    expr = t + 3 * x * x * t - 2
    got = expr.compose([s + w, ScalarExpr.zero(OUT_VARS)])
    assert str(got) == "-2" and got.den.is_one()
    got = expr.compose([w - s, s])
    _assert_same_expr(got, _compose_by_eval_poly(expr, [w - s, s]))
    # the terms of t first, then those of 3*x^2*t, then -2
    assert list(got.num.terms) == [((0, 1),), ((0, 1), (2, 2)), ((0, 2), (2, 1)), ((0, 3),), ()]
    # s/2 + t^2/2 keeps the order the sum makes, s first
    s, t = ScalarExpr.var(OUT_VARS, "s"), ScalarExpr.var(OUT_VARS, "t")
    v0, v1, v2 = (ScalarExpr.var(VARS5, name) for name in VARS5[:3])
    rest = [ScalarExpr.zero(OUT_VARS)] * 2
    for expr, values in (
        ((v0 + v1 + v2) / 2, [s, t * t, s + t * t] + rest),
        (v0 + v1 + v2, [s / 2, t * t / 2, (s + t * t) / 2] + rest),
    ):
        got = expr.compose(values)
        _assert_same_expr(got, _compose_by_eval_poly(expr, values))
        assert list(got.num.terms) == [((0, 1),), ((1, 2),)]


# -- sparse monomials against a dense reference --------------------------------
# _Dense is the representation Poly had before its monomials became sparse:
# one exponent per variable, ordered by (total degree, exponent tuple).  The
# functions below it transcribe the gcd ladder of _reduce onto it, so the
# sparse Poly must reproduce every value and every term order.


class _Dense:
    def __init__(self, n, terms):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c}

    def const(self, value):
        return _Dense(self.n, {(0,) * self.n: Fraction(value)})

    def is_const(self):
        return all(not any(e) for e in self.terms)

    def const_value(self):
        return next(iter(self.terms.values()), Fraction(0))

    def lead(self):
        return max(self.terms, key=lambda e: (sum(e), e))

    def degree_in(self, idx):
        return max((e[idx] for e in self.terms), default=0)

    def content(self):
        c = Fraction(0)
        for coeff in self.terms.values():
            c = _frac_gcd(c, abs(coeff))
        return c if c else Fraction(1)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _Dense(self.n, out)

    def __neg__(self):
        return _Dense(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _Dense):
            return _Dense(self.n, {e: c * other for e, c in self.terms.items()})
        if other.is_const():
            return self * other.const_value()
        if self.is_const():
            return other * self.const_value()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _Dense(self.n, out)

    def diff(self, idx):
        out = {}
        for e, c in self.terms.items():
            if e[idx]:
                ne = e[:idx] + (e[idx] - 1,) + e[idx + 1:]
                out[ne] = out.get(ne, Fraction(0)) + c * e[idx]
        return _Dense(self.n, out)

    def evaluate(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                c *= Fraction(x) ** k
            total += c
        return total

    def show(self, names):
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            body = "*".join(
                ([str(abs(c))] if abs(c) != 1 or not any(e) else [])
                + [names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k]
            )
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + body)
        return " ".join(parts) or "0"


def _d_div_exact(a, b):
    quot, rem = {}, a
    lb = b.lead()
    while rem.terms:
        la = rem.lead()
        e = tuple(x - y for x, y in zip(la, lb))
        if min(e) < 0:
            return None
        quot[e] = rem.terms[la] / b.terms[lb]
        rem = rem - _Dense(a.n, {e: quot[e]}) * b
    return _Dense(a.n, quot)


def _d_vcoeffs(p, idx):
    out = {}
    for e, c in p.terms.items():
        rest = e[:idx] + (0,) + e[idx + 1:]
        coeff = out.setdefault(e[idx], {})
        coeff[rest] = coeff.get(rest, Fraction(0)) + c
    return {k: _Dense(p.n, t) for k, t in out.items()}


def _d_prem(a, b, idx):
    db = b.degree_in(idx)
    lb, r = _d_vcoeffs(b, idx)[db], a
    while r.terms and r.degree_in(idx) >= db:
        dr = r.degree_in(idx)
        shifted = _d_vcoeffs(r, idx)[dr] * b
        shifted = {e[:idx] + (e[idx] + dr - db,) + e[idx + 1:]: c for e, c in shifted.terms.items()}
        r = lb * r - _Dense(a.n, shifted)
    return r


def _d_vcontent(p, idx, budget):
    g = _Dense(p.n, {})
    coeffs = _d_vcoeffs(p, idx)
    for k in sorted(coeffs, key=lambda k: (len(coeffs[k].terms), k)):  # as coeff walks them
        g = _d_prs_gcd(g, coeffs[k], budget)
        if g.is_const():
            break
    return g if g.terms else p.const(1)


def _d_sign(p):
    return -p if p.terms and p.terms[p.lead()] < 0 else p


def _d_prs_gcd(a, b, budget):
    if not a.terms:
        return _d_sign(b)
    if not b.terms:
        return _d_sign(a)
    budget[0] -= 1
    if budget[0] < 0 or max(len(a.terms), len(b.terms)) > _GCD_TERM_LIMIT:
        return a.const(1)
    idx = next((i for i in range(a.n) if a.degree_in(i) or b.degree_in(i)), None)
    if idx is None:
        return a.const(_frac_gcd(a.content(), b.content()))
    ca, cb = _d_vcontent(a, idx, budget), _d_vcontent(b, idx, budget)
    pa, pb = _d_div_exact(a, ca), _d_div_exact(b, cb)
    cg = _d_prs_gcd(ca, cb, budget)
    while pb.terms:
        budget[0] -= 1
        if budget[0] < 0 or max(len(pa.terms), len(pb.terms)) > _GCD_TERM_LIMIT:
            return a.const(1)
        r = _d_prem(pa, pb, idx)
        if not r.terms:
            pa = pb
            break
        pa, pb = pb, _d_div_exact(r, _d_vcontent(r, idx, budget))
    g = cg * _d_div_exact(pa, _d_vcontent(pa, idx, budget))
    return _d_sign(_d_div_exact(g, g.const(g.content())))


def _d_strip(p):
    c = p.content()
    mono = tuple(min(e[i] for e in p.terms) for i in range(p.n))
    stripped = {tuple(x - m for x, m in zip(e, mono)): k / c for e, k in p.terms.items()}
    return c, mono, _Dense(p.n, stripped)


def _d_poly_gcd(a, b):
    (ca, ma, pa), (cb, mb, pb) = _d_strip(a), _d_strip(b)
    base = _Dense(a.n, {tuple(map(min, ma, mb)): _frac_gcd(ca, cb)})
    if len(pa.terms) == 1 or len(pb.terms) == 1:
        return _d_sign(base)
    if pa.terms == pb.terms or pa.terms == (-pb).terms:
        return _d_sign(base * _d_sign(pa))
    small, big = (pa, pb) if len(pa.terms) <= len(pb.terms) else (pb, pa)
    if _d_div_exact(big, small) is not None:
        return _d_sign(base * _d_sign(small))
    if len(pa.terms) <= 24 and len(pb.terms) <= 24:
        return _d_sign(base * _d_prs_gcd(pa, pb, [60]))
    return _d_sign(base)


def _d_reduce(num, den):
    if not num.terms:
        return num, num.const(1)
    g = _d_poly_gcd(num, den)
    if g.terms != g.const(1).terms:
        qn, qd = _d_div_exact(num, g), _d_div_exact(den, g)
        if qn is not None and qd is not None:
            num, den = qn, qd
    scale = den.content() if den.terms[den.lead()] > 0 else -den.content()
    return num * (1 / scale), den * (1 / scale)


@st.composite
def _dense_cases(draw):
    """(names, three dense polynomials, a point) over 1 to 8 variables."""
    n = draw(st.integers(1, 8))
    exps = st.tuples(*(st.integers(0, 2) for _ in range(n)))
    polys = [_Dense(n, draw(st.dictionaries(exps, _FRACTIONS, max_size=4))) for _ in range(3)]
    point = draw(st.lists(st.one_of(_FRACTIONS, st.integers(-3, 3)), min_size=n, max_size=n))
    return tuple(f"v{i}" for i in range(n)), polys, point


def _as_poly(names, dense):
    return Poly(names, {_sparse(e): c for e, c in dense.terms.items()})


def _same(poly, dense):
    return _ordered(poly) == [(_sparse(e), c) for e, c in dense.terms.items()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dense_cases())
def test_sparse_poly_matches_dense_reference(case):
    names, polys, point = case
    for d in polys:
        p = _as_poly(names, d)
        assert str(p) == d.show(names)
        if d.terms:
            assert p._lead() == _sparse(d.lead())
        assert p.evaluate(point) == d.evaluate(point)
        for i, name in enumerate(names):
            assert _same(p.diff(name), d.diff(i))
        for other in polys:
            assert _same(p * _as_poly(names, other), d * other)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dense_cases())
def test_reduce_term_order_matches_dense_reference(case):
    # a shared factor c gives the gcd ladder something to find
    names, (a, b, c), _ = case
    num, den = a * c, b * c
    if not den.terms:
        den = b if b.terms else c.const(1)
    pnum, pden = _as_poly(names, num), _as_poly(names, den)
    got = _reduce(pnum, pden)
    if den.terms == den.const(1).terms:  # a polynomial over 1 comes back as given
        assert got[0] is pnum and got[1] is pden
        return
    want = _d_reduce(num, den)
    assert _same(got[0], want[0]) and _same(got[1], want[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dense_cases())
def test_div_exact_matches_dense_reference(case):
    # the quotient term for term and in order, or None on both sides
    names, (a, b, c), _ = case
    divisions = [(a * c, c), (a, c), (a, a), (a, -a)]
    if c.terms:
        lead = c.lead()
        one_term = _Dense(c.n, {lead: c.terms[lead]})
        divisions += [(a * one_term, one_term), (b, one_term)]
    for num, den in divisions:
        if not den.terms:
            continue
        got = _div_exact(_as_poly(names, num), _as_poly(names, den))
        want = _d_div_exact(num, den)
        assert (got is None) == (want is None)
        if want is not None:
            assert _same(got, want)


def test_div_exact_by_one_term_sorts_the_remainder_once(monkeypatch):
    # a search for the remainder's lead on every step would make about n^2 / 2 calls
    calls = [0]
    key = coeff.term_order_key

    def counted(e):
        calls[0] += 1
        return key(e)

    monkeypatch.setattr(coeff, "term_order_key", counted)
    names = ("x", "y", "z")
    exps = itertools.product(range(1, 9), range(5), range(10))  # 400 monomials, all divisible by x
    a = Poly(names, {_sparse(e): Fraction(sum(e) + 1, 3) for e in exps})
    b = Poly(names, {((0, 1),): Fraction(2)})
    q = _div_exact(a, b)
    assert calls[0] <= 3 * len(a.terms)
    assert q * b == a
    assert list(q.terms) == sorted(q.terms, key=key, reverse=True)


def test_reduce_over_one_term_builds_no_primitive_part(monkeypatch):
    # a one-term operand ends poly_gcd at the content rung, so neither
    # operand's primitive part is divided out: the only exact divisions are
    # those of the final num and den by the gcd
    calls = [0]
    div_exact = coeff._div_exact

    def counted(*args):
        calls[0] += 1
        return div_exact(*args)

    monkeypatch.setattr(coeff, "_div_exact", counted)
    names = ("x", "y", "z")
    exps = itertools.product(range(1, 5), range(5), range(5))  # 100 monomials, all divisible by x
    num = Poly(names, {_sparse(e): Fraction(2 * sum(e) + 2, 3) for e in exps})
    den = Poly(names, {((0, 2), (1, 1)): Fraction(4, 3)})
    got_num, got_den = _reduce(num, den)
    assert calls[0] == 2
    assert got_den == Poly(names, {((0, 1), (1, 1)): Fraction(1)})
    assert got_num * Poly(names, {((0, 1),): Fraction(4, 3)}) == num


# -- reduced forms depend only on values ---------------------------------------
# The gcd ladder walks every polynomial in an order fixed by its value, so
# every term order of the same num and den reduces to the same values, and
# prints alike.

_WITNESS_NAMES = ("v0", "v1")
_WITNESS = [  # a, b, c: num = b * c and den = a * c share the factor c
    _Dense(2, {(0, 0): Fraction(4), (2, 2): Fraction(-1), (0, 1): Fraction(1)}),
    _Dense(
        2, {(3, 3): Fraction(-5), (0, 3): Fraction(-5), (0, 1): Fraction(1), (0, 0): Fraction(3, 2)}
    ),
    _Dense(2, {(1, 1): Fraction(-4), (0, 0): Fraction(-1), (2, 3): Fraction(-4)}),
]


def _witness_quotient():
    a, b, c = _WITNESS
    return _as_poly(_WITNESS_NAMES, b * c), _as_poly(_WITNESS_NAMES, a * c)


def _reorders(p, rng):
    """p as given, then in each of term_orders."""
    items = list(p.terms.items())
    return [p] + [Poly(p.variables, dict(order(items))) for order in term_orders(rng)]


def _small_polys(variables):
    """2-4 terms, total degree at most 3."""
    exps = [e for e in itertools.product(range(4), repeat=len(variables)) if sum(e) <= 3]
    monomials = st.sampled_from([_sparse(e) for e in exps])
    return st.dictionaries(monomials, _FRACTIONS.filter(bool), min_size=2, max_size=4).map(
        lambda terms: Poly(variables, terms)
    )


@st.composite
def _shared_factor_quotients(draw):
    """(b * c, a * c) over three variables."""
    a, b, c = (draw(_small_polys(("a", "b", "c"))) for _ in range(3))
    return b * c, a * c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_shared_factor_quotients(), st.randoms(use_true_random=False))
@example(_witness_quotient(), random.Random(0))
def test_reduce_and_gcd_depend_only_on_values(case, rng):
    num, den = case
    want_num, want_den = _reduce(num, den)
    want_gcd = poly_gcd(num, den).terms
    for n, d in zip(_reorders(num, rng), _reorders(den, rng)):
        got_num, got_den = _reduce(n, d)
        assert (got_num.terms, got_den.terms) == (want_num.terms, want_den.terms)
        assert poly_gcd(n, d).terms == want_gcd


def test_compose_prints_alike_in_any_term_order_of_its_input():
    # x / t composed with the witness num and den over 1 divides them, so
    # its text is the reduced witness b / a in every term order of the values
    rng = random.Random(24)
    x, t = ScalarExpr.var(VARS, "x"), ScalarExpr.var(VARS, "t")
    num, den = _witness_quotient()
    cases = [(x / t, [ScalarExpr(num), ScalarExpr(den)])]
    for _ in range(20):
        cases.append((random_scalar(rng, VARS5), [random_scalar(rng, OUT_VARS) for _ in VARS5]))
    for expr, values in cases:
        want = _compose_or_pole(ScalarExpr.compose, expr, values)
        for order in term_orders(rng):
            reordered = [with_terms_in(v, order) for v in values]
            got = _compose_or_pole(ScalarExpr.compose, with_terms_in(expr, order), reordered)
            assert str(got) == str(want)
    a, b, _ = _WITNESS
    assert str(cases[0][0].compose(cases[0][1])) == str(
        ScalarExpr(_as_poly(_WITNESS_NAMES, b), _as_poly(_WITNESS_NAMES, a))
    )


def _seeded_quotient(rng, variables):
    """(b * c, a * c), each of a, b, c of 2-4 terms and total degree at most 3."""
    exps = [e for e in itertools.product(range(4), repeat=len(variables)) if sum(e) <= 3]

    def poly():
        monomials = rng.sample(exps, rng.randint(2, 4))
        coeffs = (Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in monomials)
        return Poly(variables, {_sparse(e): k for e, k in zip(monomials, coeffs)})

    a, b, c = poly(), poly(), poly()
    return b * c, a * c


def test_reduce_reaches_the_sympy_denominator_on_most_seeded_quotients():
    # The step budget makes the gcd partial, so a reduced quotient need not be
    # in lowest terms; this records how often it is: 33 of these 60 seeded
    # quotients reduce to sympy.cancel's denominator up to a constant.
    sympy = pytest.importorskip("sympy")
    variables = ("a", "b", "c")
    symbols = sympy.symbols(variables)
    rng = random.Random(2024)
    reached = 0
    for _ in range(60):
        num, den = _seeded_quotient(rng, variables)
        got = sympy_expr(sympy, ScalarExpr(_reduce(num, den)[1]), symbols)
        num, den = (sympy_expr(sympy, ScalarExpr(p), symbols) for p in (num, den))
        want = sympy.fraction(sympy.cancel(num / den))[1]
        reached += sympy.cancel(got / want).is_number
    assert reached >= 33


def test_reduce_finds_the_shared_factor_in_the_given_term_order():
    # The pseudo-remainder sequence of poly_gcd runs on a step budget.  Its
    # walk depends only on values, so the term order of num and den no
    # longer matters: it finds c in every order
    # (test_reduce_and_gcd_depend_only_on_values), and num / den comes back
    # as b / a, as in the dense reference.
    a, b, c = _WITNESS
    num, den = b * c, a * c
    got = _reduce(_as_poly(_WITNESS_NAMES, num), _as_poly(_WITNESS_NAMES, den))
    want = _d_reduce(num, den)
    assert _same(got[0], want[0]) and _same(got[1], want[1])
    assert (len(got[0].terms), len(got[1].terms)) == (len(b.terms), len(a.terms))
