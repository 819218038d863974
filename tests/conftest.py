import importlib.resources
import random
from fractions import Fraction

import pytest

from plectic import (
    Chart,
    Form,
    PreMultisymplecticManifold,
    ScalarExpr,
    VectorField,
    build_split_frame,
    build_thickening,
)
from plectic.coeff import Poly, exact_point, term_order_key
from plectic.exterior import fill_rows, substitute


def fixture_path(name: str) -> str:
    return str(importlib.resources.files("plectic") / "fixtures" / name)


@pytest.fixture(scope="session")
def chart4() -> Chart:
    """The 5-dimensional scalar-field phase space chart."""
    return Chart("scalar_field_2d", ("x", "t", "u", "rho_x", "rho_t"))


def scalar_field_form(chart: Chart) -> Form:
    """omega = d(rho_x)^du^dt - rho_x d(rho_x)^dx^dt."""
    return Form.from_terms(
        chart,
        3,
        [
            (("rho_x", "u", "t"), "1"),
            (("rho_x", "x", "t"), "-rho_x"),
        ],
    )


@pytest.fixture(scope="session")
def manifold4(chart4) -> PreMultisymplecticManifold:
    return PreMultisymplecticManifold(chart4, 3, scalar_field_form(chart4))


@pytest.fixture(scope="session")
def frame4(manifold4):
    chart = manifold4.chart
    vertical = [
        VectorField.from_mapping(chart, {"x": "1", "u": "rho_x"}),
        VectorField.from_mapping(chart, {"rho_t": "1"}),
    ]
    horizontal = [
        VectorField.from_mapping(chart, {"t": "1"}),
        VectorField.from_mapping(chart, {"u": "1"}),
        VectorField.from_mapping(chart, {"rho_x": "1"}),
    ]
    return build_split_frame(manifold4, vertical, horizontal)


@pytest.fixture(scope="session")
def thickening4(manifold4, frame4):
    return build_thickening(manifold4, frame4)


# -- deterministic random generators used by property suites -----------------


def random_poly_expr(rng: random.Random, variables, max_terms=3, max_exp=2) -> ScalarExpr:
    expr = ScalarExpr.zero(variables)
    for _ in range(rng.randint(0, max_terms)):
        term = ScalarExpr.const(variables, Fraction(rng.randint(-4, 4)))
        for v in variables:
            term = term * ScalarExpr.var(variables, v) ** rng.randint(0, max_exp)
        expr = expr + term
    return expr


def random_scalar(rng: random.Random, variables) -> ScalarExpr:
    """Rational coefficient with a small denominator (keeps chains fast)."""
    num = random_poly_expr(rng, variables)
    den = ScalarExpr.const(variables, rng.randint(1, 3))
    if rng.random() < 0.5:
        den = den + ScalarExpr.var(variables, rng.choice(variables))
    return num / den


def random_form(rng: random.Random, chart: Chart, degree: int, max_terms=2,
                rational=False) -> Form:
    entries = []
    for _ in range(rng.randint(0, max_terms)):
        idx = rng.sample(range(chart.dim), degree)
        coeff = (
            random_scalar(rng, chart.coords)
            if rational
            else random_poly_expr(rng, chart.coords)
        )
        entries.append((tuple(idx), coeff))
    return Form.from_terms(chart, degree, entries)


def random_vector_field(rng: random.Random, chart: Chart) -> VectorField:
    return VectorField(
        chart, [random_poly_expr(rng, chart.coords, max_terms=2, max_exp=1) for _ in chart.coords]
    )


# -- term orders -------------------------------------------------------------------


def with_terms_in(expr: ScalarExpr, order) -> ScalarExpr:
    """expr with the (monomial, coefficient) items of num and den listed in
    order(items), and nothing reduced."""
    out = object.__new__(ScalarExpr)
    out.num, out.den = (
        Poly(p.variables, dict(order(list(p.terms.items())))) for p in (expr.num, expr.den)
    )
    return out


def term_orders(rng: random.Random):
    """Reorderings of a list of polynomial items: reversed, sorted both ways
    by term order, and shuffled."""
    key = lambda item: term_order_key(item[0])  # noqa: E731
    yield lambda items: items[::-1]
    yield lambda items: sorted(items, key=key)
    yield lambda items: sorted(items, key=key, reverse=True)
    yield lambda items: rng.sample(items, len(items))


# -- references ------------------------------------------------------------------


def evaluate(form: Form, point, vectors) -> Fraction:
    """form(v_1, ..., v_k) at a rational point: each coefficient's value times
    the determinant of the vectors' entries on its index, with no contraction."""
    assert len(vectors) == form.degree
    total = Fraction(0)
    for idx, c in form.eval_coefficients(point).items():
        total += c * det([[Fraction(v[i]) for v in vectors] for i in idx])
    return total


def det(rows) -> Fraction:
    """The determinant of a square matrix of Fractions, by row reduction."""
    n = len(rows)
    m = [row[:] for row in rows]
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def keyed_rows(form: Form, point):
    """Every nonzero row of X -> i_X form at a point, with its key: the full
    row layout, with no peel."""
    layout = form.point_layout()
    return fill_rows(layout.rows((), 0), layout.values(point))


def pullback_composing_every_term(phi, form: Form) -> Form:
    """phi^* form with every term composed, also those whose index meets an
    empty differential row, which substitute then drops."""
    composed = [(idx, c.compose(phi.components)) for idx, c in form.terms.items()]
    return Form(phi.source, form.degree, substitute(composed, phi._partial_rows()))


def rename(expr: ScalarExpr, variables) -> ScalarExpr:
    """expr over variables, each variable that occurs moved to the place of
    its name there, its monomials sorted and the quotient reduced anew."""
    variables = tuple(variables)
    pos = {i: variables.index(expr.variables[i]) for i in expr.support()}

    def remap(p: Poly) -> Poly:
        return Poly(
            variables, {tuple(sorted((pos[i], k) for i, k in e)): c for e, c in p.terms.items()}
        )

    return ScalarExpr(remap(expr.num), remap(expr.den))


def pushforward_vector(phi, point, vector):
    """The differential of phi applied to a tangent vector at a rational point."""
    point = exact_point(point)
    return [
        sum((p.evaluate(point) * Fraction(vector[j]) for j, p in row), Fraction(0))
        for row in phi._partial_rows()
    ]


# -- reference conversion for the sympy cross-checks ----------------------------


def sympy_expr(sympy, expr, symbols):
    """The sympy expression of a ScalarExpr over ``symbols`` (one per variable)."""
    def poly(p):
        return sympy.Add(*[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[symbols[i] ** k for i, k in e])
            for e, c in p.terms.items()
        ])

    return poly(expr.num) / poly(expr.den)
