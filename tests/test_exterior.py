import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from plectic.coeff import ScalarExpr, parse_expr
from plectic.errors import ChartMismatchError, DegreeError, PoleError
from plectic.exterior import (
    Chart,
    CoordinateMap,
    Form,
    VectorField,
    add_term,
    contract_constant,
    interior_multi,
    sort_index,
    substitute,
)
from plectic.linalg import DimensionMismatchError

from conftest import (
    pushforward_vector,
    random_form,
    random_poly_expr,
    random_scalar,
    random_vector_field,
    scalar_field_form,
    sympy_expr,
    term_orders,
    with_terms_in,
)

F = Fraction

CHART3 = Chart("c3", ("x", "y", "z"))


def dx(chart, name):
    return Form.d_coord(chart, name)


# -- wedge -------------------------------------------------------------------


def test_wedge_repeated_index_vanishes():
    a = dx(CHART3, "x")
    assert a.wedge(a).is_zero()


def test_wedge_antisymmetry():
    a, b = dx(CHART3, "x"), dx(CHART3, "y")
    assert a.wedge(b) == -(b.wedge(a))


def test_wedge_builds_scalar_field_summand(chart4):
    built = (
        dx(chart4, "rho_x").wedge(dx(chart4, "u")).wedge(dx(chart4, "t"))
    )
    expected = Form.from_terms(chart4, 3, [(("rho_x", "u", "t"), "1")])
    assert built == expected


# -- interior ----------------------------------------------------------------


def test_interior_dual_pairing():
    chart = Chart("c2", ("t", "x"))
    dt_dx = dx(chart, "t").wedge(dx(chart, "x"))
    contracted = dt_dx.interior(VectorField.coordinate(chart, "t"))
    assert contracted == dx(chart, "x")


def test_interior_kernel_fields_annihilate_scalar_field_form(chart4):
    omega = scalar_field_form(chart4)
    v1 = VectorField.from_mapping(chart4, {"x": "1", "u": "rho_x"})
    v2 = VectorField.from_mapping(chart4, {"rho_t": "1"})
    assert omega.interior(v1).is_zero()
    assert omega.interior(v2).is_zero()


def test_interior_misses_absent_coordinate():
    chart = Chart("r4", ("x1", "x2", "x3", "x4"))
    omega = Form.from_terms(chart, 3, [(("x1", "x2", "x3"), "1")])
    assert omega.interior(VectorField.coordinate(chart, "x4")).is_zero()


def test_interior_of_zero_form_rejected():
    with pytest.raises(DegreeError):
        Form.scalar(CHART3, 1).interior(VectorField.coordinate(CHART3, "x"))


def test_interior_chart_mismatch():
    other = Chart("other", ("x", "y", "z"))
    with pytest.raises(ChartMismatchError):
        dx(CHART3, "x").interior(VectorField.coordinate(other, "x"))


def test_wedge_chart_mismatch():
    other = Chart("other", ("x", "y", "z"))
    with pytest.raises(ChartMismatchError):
        dx(CHART3, "x").wedge(dx(other, "y"))


def test_addition_requires_matching_degree():
    with pytest.raises(DegreeError):
        dx(CHART3, "x") + Form.scalar(CHART3, 1)


# -- iterated interior -------------------------------------------------------


def test_interior_multi_matches_nested_single_contractions():
    chart = Chart("c3b", ("t", "x", "u"))
    alpha = dx(chart, "t").wedge(dx(chart, "x")).wedge(dx(chart, "u"))
    et = VectorField.coordinate(chart, "t")
    ex = VectorField.coordinate(chart, "x")
    # oracle: nested single contractions in the documented order
    nested = alpha.interior(et).interior(ex)
    assert interior_multi([et, ex], alpha) == nested
    assert nested == dx(chart, "u")


def test_interior_multi_alternates():
    rng = random.Random(23)
    for _ in range(20):
        alpha = random_form(rng, CHART3, 2)
        v, w = random_vector_field(rng, CHART3), random_vector_field(rng, CHART3)
        assert interior_multi([v, w], alpha) == -interior_multi([w, v], alpha)


def test_interior_multi_kernel_pair_kills_scalar_field_form(chart4):
    omega = scalar_field_form(chart4)
    v1 = VectorField.from_mapping(chart4, {"x": "1", "u": "rho_x"})
    et = VectorField.coordinate(chart4, "t")
    assert interior_multi([v1, et], omega).is_zero()


def test_interior_multi_too_many_fields():
    with pytest.raises(DegreeError):
        interior_multi(
            [VectorField.coordinate(CHART3, "x")] * 2, dx(CHART3, "x")
        )


# -- exterior derivative -----------------------------------------------------


def test_scalar_field_form_is_closed(chart4):
    assert scalar_field_form(chart4).d().is_zero()


def test_d_single_term():
    chart = Chart("c2", ("x", "t"))
    xdt = Form.from_terms(chart, 1, [(("t",), "x")])
    assert xdt.d() == dx(chart, "x").wedge(dx(chart, "t"))


def test_dd_zero_on_random_forms():
    rng = random.Random(17)
    for _ in range(30):
        degree = rng.randint(0, 2)
        alpha = random_form(rng, CHART3, degree, rational=True)
        assert alpha.d().d().is_zero()


# -- pullback ----------------------------------------------------------------


def test_pullback_along_identity():
    rng = random.Random(29)
    ident = CoordinateMap.identity(CHART3)
    for _ in range(10):
        alpha = random_form(rng, CHART3, rng.randint(0, 3))
        assert ident.pullback(alpha) == alpha


def test_pullback_is_algebra_homomorphism():
    rng = random.Random(31)
    src = Chart("src", ("a", "b"))
    for _ in range(15):
        phi = CoordinateMap(
            src, CHART3, [random_poly_expr(rng, src.coords) for _ in range(3)]
        )
        alpha = random_form(rng, CHART3, 1)
        beta = random_form(rng, CHART3, 1)
        assert phi.pullback(alpha.wedge(beta)) == phi.pullback(alpha).wedge(
            phi.pullback(beta)
        )


def test_pullback_functoriality():
    rng = random.Random(37)
    a_chart = Chart("a", ("s",))
    b_chart = Chart("b", ("p", "q"))
    for _ in range(15):
        psi = CoordinateMap(
            a_chart, b_chart, [random_poly_expr(rng, a_chart.coords) for _ in range(2)]
        )
        phi = CoordinateMap(
            b_chart, CHART3, [random_poly_expr(rng, b_chart.coords) for _ in range(3)]
        )
        alpha = random_form(rng, CHART3, rng.randint(0, 1))
        composed = phi.after(psi)
        assert composed.pullback(alpha) == psi.pullback(phi.pullback(alpha))


def test_pullback_commutes_with_d():
    rng = random.Random(41)
    src = Chart("src", ("a", "b"))
    for _ in range(15):
        phi = CoordinateMap(
            src, CHART3, [random_poly_expr(rng, src.coords) for _ in range(3)]
        )
        alpha = random_form(rng, CHART3, rng.randint(0, 2))
        assert phi.pullback(alpha.d()) == phi.pullback(alpha).d()


# -- differential checks against sympy ---------------------------------------


def _sympy_components(sympy, form, symbols):
    """Every increasing index tuple of the form mapped to its sympy coefficient."""
    return {
        idx: sympy_expr(sympy, form.coefficient(idx), symbols)
        for idx in itertools.combinations(range(form.chart.dim), form.degree)
    }


def _assert_components(sympy, form, expected, symbols):
    for idx, got in _sympy_components(sympy, form, symbols).items():
        assert sympy.cancel(got - expected[idx]) == 0, (idx, got, expected[idx])


def test_d_agrees_with_sympy():
    # (d a)_I = sum_j (-1)^j d/dx_{I_j} a_{I without I_j}
    sympy = pytest.importorskip("sympy")
    rng = random.Random(101)
    symbols = sympy.symbols(CHART3.coords)
    for _ in range(20):
        alpha = random_form(rng, CHART3, rng.randint(0, 2), max_terms=3, rational=True)
        a = _sympy_components(sympy, alpha, symbols)
        expected = {
            idx: sum(
                (-1) ** j * sympy.diff(a[idx[:j] + idx[j + 1 :]], symbols[i])
                for j, i in enumerate(idx)
            )
            for idx in itertools.combinations(range(3), alpha.degree + 1)
        }
        _assert_components(sympy, alpha.d(), expected, symbols)


def test_wedge_agrees_with_sympy():
    # (a ^ b)_I = sum over shuffles S of I of sign(S, I - S) a_S b_{I - S}
    sympy = pytest.importorskip("sympy")
    rng = random.Random(103)
    chart = Chart("c4", ("x", "y", "z", "w"))
    symbols = sympy.symbols(chart.coords)
    for _ in range(20):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        alpha = random_form(rng, chart, p, max_terms=3, rational=True)
        beta = random_form(rng, chart, q, max_terms=3, rational=True)
        a = _sympy_components(sympy, alpha, symbols)
        b = _sympy_components(sympy, beta, symbols)
        expected = {}
        for idx in itertools.combinations(range(4), p + q):
            total = 0
            for first in itertools.combinations(idx, p):
                rest = tuple(i for i in idx if i not in first)
                inversions = sum(1 for s in first for t in rest if s > t)
                total += (-1) ** inversions * a[first] * b[rest]
            expected[idx] = total
        _assert_components(sympy, alpha.wedge(beta), expected, symbols)


def test_pullback_agrees_with_sympy():
    # (phi^* a)_J = sum_I a_I(phi) det(d phi^I / d s^J)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(107)
    src = Chart("src", ("a", "b", "c"))
    target = Chart("tgt", ("x", "y", "z", "w"))
    s_syms = sympy.symbols(src.coords)
    t_syms = sympy.symbols(target.coords)
    for trial in range(20):
        comps = [random_poly_expr(rng, src.coords, max_terms=2, max_exp=1) for _ in range(4)]
        if trial % 4 == 0:
            comps[0] = random_scalar(rng, src.coords)
        phi = CoordinateMap(src, target, comps)
        alpha = random_form(rng, target, rng.randint(0, 3), max_terms=3)
        phi_s = [sympy_expr(sympy, c, s_syms) for c in comps]
        jacobian = sympy.Matrix([[sympy.diff(f, s) for s in s_syms] for f in phi_s])
        a = _sympy_components(sympy, alpha, t_syms)
        k = alpha.degree
        expected = {
            cols: sum(
                a[rows].subs(dict(zip(t_syms, phi_s)), simultaneous=True)
                * jacobian.extract(list(rows), list(cols)).det()
                for rows in itertools.combinations(range(4), k)
            )
            for cols in itertools.combinations(range(3), k)
        }
        _assert_components(sympy, phi.pullback(alpha), expected, s_syms)


def test_evaluate_agrees_with_sympy():
    # a(v_1, ..., v_k) = sum_I a_I(point) det(v_j^i for i in I), so this also
    # checks the row-swap signs of exterior._det
    sympy = pytest.importorskip("sympy")
    rng = random.Random(109)
    chart = Chart("c5", ("a", "b", "c", "d", "e"))
    symbols = sympy.symbols(chart.coords)

    def rational():
        return F(0) if rng.random() < 0.4 else F(rng.randint(-3, 3), rng.randint(1, 3))

    evaluated = 0
    for trial in range(60):
        k = rng.randint(1, 5)
        alpha = random_form(rng, chart, k, max_terms=4, rational=trial % 2 == 1)
        point = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(5)]
        vectors = [[rational() for _ in range(5)] for _ in range(k)]
        try:
            got = alpha.evaluate(point, vectors)
        except PoleError:
            continue
        at = {s: sympy.Rational(x.numerator, x.denominator) for s, x in zip(symbols, point)}
        columns = sympy.Matrix(
            [[sympy.Rational(v[i].numerator, v[i].denominator) for v in vectors] for i in range(5)]
        )
        a = _sympy_components(sympy, alpha, symbols)
        expected = sum(
            a[idx].subs(at) * columns.extract(list(idx), list(range(k))).det()
            for idx in itertools.combinations(range(5), k)
        )
        assert sympy.Rational(got.numerator, got.denominator) == expected, trial
        evaluated += 1
    assert evaluated >= 50


def test_evaluate_rejects_vectors_and_points_of_the_wrong_dimension():
    chart = Chart("r3", ("x", "y", "z"))
    omega = Form.from_terms(chart, 2, [(("x", "y"), "1"), (("y", "z"), "x")])
    origin = [0, 0, 0]
    assert omega.evaluate(origin, [[1, 0, 0], [0, 1, 0]]) == 1
    for vectors in ([[1, 0, 0, 7], [0, 1, 0, 9]], [[1, 0], [0, 1]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(DimensionMismatchError):
            omega.evaluate(origin, vectors)
    for point in ([0, 0], [0, 0, 0, 0]):
        with pytest.raises(DimensionMismatchError):
            omega.evaluate(point, [[1, 0, 0], [0, 1, 0]])


# -- support-restricted differentiation against all-axes loops --------------
# Form.d, pullback and pushforward differentiate only along the variables a
# coefficient uses; these references differentiate along every chart axis.


def _d_all_axes(form):
    out = {}
    for idx, c in form.terms.items():
        for axis, name in enumerate(form.chart.coords):
            dc = c.diff(name)
            if dc.is_zero():
                continue
            sign, nidx = sort_index((axis,) + idx)
            if sign == 0:
                continue
            add_term(out, nidx, dc if sign > 0 else -dc)
    return Form(form.chart, form.degree + 1, out)


def _jacobian_all_axes(phi):
    rows = []
    for comp in phi.components:
        row = []
        for j, name in enumerate(phi.source.coords):
            p = comp.diff(name)
            if not p.is_zero():
                row.append((j, p))
        rows.append(row)
    return rows


def _pullback_all_axes(phi, form):
    composed = ((idx, c.compose(phi.components)) for idx, c in form.terms.items())
    return Form(phi.source, form.degree, substitute(composed, _jacobian_all_axes(phi)))


def _term_lists(form):
    return [
        (idx, list(c.num.terms.items()), list(c.den.terms.items()))
        for idx, c in form.terms.items()
    ]


def test_d_matches_all_axes_loop():
    rng = random.Random(211)
    chart = Chart("c4", ("x", "y", "z", "w"))
    for _ in range(40):
        alpha = random_form(rng, chart, rng.randint(0, 3), max_terms=3, rational=True)
        assert _term_lists(alpha.d()) == _term_lists(_d_all_axes(alpha))


def test_pullback_and_pushforward_match_all_axes_loops():
    rng = random.Random(223)
    src = Chart("src", ("a", "b", "c"))
    target = Chart("tgt", ("x", "y", "z", "w"))
    for trial in range(30):
        comps = [random_poly_expr(rng, src.coords, max_terms=2, max_exp=1) for _ in range(4)]
        if trial % 3 == 0:
            comps[rng.randrange(4)] = random_scalar(rng, src.coords)
        phi = CoordinateMap(src, target, comps)
        alpha = random_form(rng, target, rng.randint(0, 3), max_terms=3, rational=True)
        assert _term_lists(phi.pullback(alpha)) == _term_lists(_pullback_all_axes(phi, alpha))
        point = [F(rng.randint(-5, 5)) for _ in src.coords]
        vector = [F(rng.randint(-3, 3)) for _ in src.coords]
        try:
            want = [
                sum((p.evaluate(point) * vector[j] for j, p in row), F(0))
                for row in _jacobian_all_axes(phi)
            ]
        except PoleError:
            continue
        assert pushforward_vector(phi, point, vector) == want


def test_a_map_differentiates_its_components_once():
    rng = random.Random(229)
    src = Chart("src", ("a", "b", "c"))
    target = Chart("tgt", ("x", "y", "z", "w"))
    comps = [random_poly_expr(rng, src.coords, max_terms=2, max_exp=2) for _ in range(4)]
    phi = CoordinateMap(src, target, comps)
    alpha = random_form(rng, target, 2, max_terms=3, rational=True)
    first = _term_lists(phi.pullback(alpha))
    rows = phi._partial_rows()
    assert phi._partial_rows() is rows
    assert _term_lists(phi.pullback(alpha)) == first
    assert rows == _jacobian_all_axes(phi)


# -- pullback along constant components ---------------------------------------
# A term with a factor along a constant component (an empty row) pulls back
# to zero: pullback composes it and substitute drops it, as the reference
# built on the all-axes Jacobian does.


def _pullback_or_pole(pull, phi, form):
    try:
        return _term_lists(pull(phi, form))
    except PoleError:
        return PoleError


def test_pullback_along_constant_components_matches_composing_every_term():
    rng = random.Random(233)
    src = Chart("src", ("a", "b", "c"))
    target = Chart("tgt", ("x", "y", "z", "w"))
    dropped = dropped_poles = 0
    for trial in range(80):
        comps = [random_poly_expr(rng, src.coords, max_terms=2, max_exp=1) for _ in range(4)]
        if trial % 3 == 0:
            comps[rng.randrange(4)] = random_scalar(rng, src.coords)
        # constants in -3..-1 meet the random denominators c + coordinate, c in 1..3
        for axis in rng.sample(range(4), rng.randint(1, 3)):
            comps[axis] = ScalarExpr.const(src.coords, rng.randint(-3, -1))
        phi = CoordinateMap(src, target, comps)
        alpha = random_form(rng, target, rng.randint(1, 3), max_terms=4, rational=trial % 4 != 0)
        got = _pullback_or_pole(CoordinateMap.pullback, phi, alpha)
        assert got == _pullback_or_pole(_pullback_all_axes, phi, alpha), trial
        dead = {i for i, row in enumerate(phi._partial_rows()) if not row}
        kept = Form(target, alpha.degree, {i: c for i, c in alpha.terms.items() if dead.isdisjoint(i)})
        dropped += len(kept.terms) < len(alpha.terms)
        # a pole that only the dropped terms carry
        dropped_poles += got is PoleError and _pullback_or_pole(_pullback_all_axes, phi, kept) != got
    assert dropped >= 40 and dropped_poles >= 3


def test_pullback_raises_on_a_pole_of_a_dropped_term():
    # (1/p) dp pulls back to zero along p = 0, but its coefficient has no
    # value there: composing the whole term raises, and so does the pullback
    target = Chart("xyp", ("x", "y", "p"))
    src = Chart("xy", ("x", "y"))
    along_zero = CoordinateMap(src, target, ["x", "y", "0"])
    one_over_p = Form.from_terms(target, 1, [(("p",), "1/p")])
    for form in (one_over_p, one_over_p + dx(target, "x")):
        with pytest.raises(PoleError, match="zero set of the denominator"):
            along_zero.pullback(form)
    assert CoordinateMap(src, target, ["x", "y", "1"]).pullback(one_over_p).is_zero()
    # two dropped terms over p + 1, which does not vanish there
    alpha = Form.from_terms(
        target, 2, [(("p", "x"), "1/(p + 1)"), (("p", "y"), "x/(p + 1)"), (("x", "y"), "x*p + y")]
    )
    assert along_zero.pullback(alpha) == Form.from_terms(src, 2, [(("x", "y"), "y")])


# -- substitute against the add_term loop --------------------------------------
# substitute sums the products of an index raw, one dict per denominator;
# the reference adds every product with add_term.


def _substitute_by_add_term(terms, rows):
    out = {}
    for idx, c in terms:
        if c.is_zero():
            continue
        for combo in itertools.product(*(rows[i] for i in idx)):
            sign, nidx = sort_index([j for j, _ in combo])
            if sign == 0:
                continue
            coeff = c
            for _, e in combo:
                coeff = coeff * e
            add_term(out, nidx, coeff if sign > 0 else -coeff)
    return out


def _coefficient_lists(out):
    return [
        (idx, str(c), list(c.num.terms.items()), list(c.den.terms.items()))
        for idx, c in out.items()
    ]


def _assert_matches_the_add_term_loop(got, want):
    """Key order and value for every index; text where the reference
    denominator is 1 or a monomial, on which _reduce is canonical.  The
    term order of a coefficient over 1 is not compared: reduced forms
    depend only on values, and the raw sums may order the terms of an
    integer polynomial otherwise than the reduced products did."""
    assert list(got) == list(want)
    for idx, c in want.items():
        assert got[idx] == c, idx
        if len(c.den.terms) == 1:
            assert str(got[idx]) == str(c), idx


def _random_rows(rng, coords, n_rows):
    """Rows over a small pool of integer and rational entries and their
    negatives, so that products often cancel."""
    pool = [random_poly_expr(rng, coords, max_terms=2, max_exp=1) for _ in range(3)]
    pool += [random_scalar(rng, coords), ScalarExpr.var(coords, coords[0]) / 2]
    pool += [-e for e in pool]
    pool = [e for e in pool if not e.is_zero()]
    return [
        [(j, rng.choice(pool)) for j in sorted(rng.sample(range(len(coords)), rng.randint(1, 3)))]
        for _ in range(n_rows)
    ]


def test_substitute_matches_the_add_term_loop():
    rng = random.Random(227)
    chart = Chart("c4", ("x", "y", "z", "w"))
    for trial in range(30):
        alpha = random_form(rng, chart, rng.randint(1, 3), max_terms=3, rational=trial % 2 == 1)
        terms = list(alpha.terms.items())
        # repeat the terms so that the sums cancel to zero and grow again
        terms += [(idx, -c) for idx, c in terms[:1]] + terms[:1]
        rows = _random_rows(rng, chart.coords, chart.dim)
        _assert_matches_the_add_term_loop(
            substitute(terms, rows), _substitute_by_add_term(terms, rows)
        )


def test_substitute_keeps_the_key_order_of_cancelled_sums():
    coords = ("x", "y")
    x, y = ScalarExpr.var(coords, "x"), ScalarExpr.var(coords, "y")
    one = ScalarExpr.one(coords)
    rows = [[(0, x)], [(1, y), (0, -x)], [(0, x)], [(0, x / 3)]]
    # index (0,) gets x, is cancelled, then gets x again after (1,) is made;
    # its last product, x^2/3, is not an integer polynomial
    terms = [((0,), one), ((1,), one), ((2,), one), ((3,), x)]
    got = substitute(terms, rows)
    assert _coefficient_lists(got) == _coefficient_lists(_substitute_by_add_term(terms, rows))
    assert list(got) == [(1,), (0,)]
    assert str(got[(0,)]) == "1/3*x^2 + x"
    assert substitute(terms[:3], rows) == {(1,): y, (0,): x}
    assert list(substitute(terms[:3], rows)) == [(1,), (0,)]


def test_substitute_sums_polynomials_over_1_raw():
    # y + x^2/2 and y + x^2 are polynomials over 1, which _reduce keeps as
    # given: the raw sum and add_term both keep y first
    coords = ("x", "y")
    x, y = ScalarExpr.var(coords, "x"), ScalarExpr.var(coords, "y")
    rows = [[(0, ScalarExpr.one(coords))]]
    terms = [((0,), y), ((0,), x * x / 2), ((0,), x * x / 2)]
    got = substitute(terms, rows)
    assert _coefficient_lists(got) == _coefficient_lists(_substitute_by_add_term(terms, rows))
    assert list(got[(0,)].num.terms) == [((1, 1),), ((0, 2),)]


def _texts(out):
    return [(idx, str(c)) for idx, c in out.items()]


def test_substitute_prints_alike_in_any_term_order_of_its_input():
    # (b * c) dv0 along the row dv0 = dv1 / (a * c): its one product is
    # b * c / (a * c), which reduces to b / a in every term order of b * c
    # and a * c, since the gcd's walk depends only on values
    rng = random.Random(24)
    names = ("v0", "v1")
    witness = ("4 - v0^2*v1^2 + v1", "-5*v0^3*v1^3 - 5*v1^3 + v1 + 3/2", "-4*v0*v1 - 1 - 4*v0^2*v1^3")
    a, b, c = (parse_expr(src, names) for src in witness)
    cases = [([((0,), b * c)], [[(1, 1 / (a * c))], []])]
    chart = Chart("c4", ("x", "y", "z", "w"))
    for trial in range(10):
        alpha = random_form(rng, chart, rng.randint(1, 3), max_terms=3, rational=True)
        cases.append((list(alpha.terms.items()), _random_rows(rng, chart.coords, chart.dim)))
    for terms, rows in cases:
        want = _texts(substitute(terms, rows))
        for order in term_orders(rng):
            got = substitute(
                [(idx, with_terms_in(c, order)) for idx, c in terms],
                [[(j, with_terms_in(e, order)) for j, e in row] for row in rows],
            )
            assert _texts(got) == want
    assert _texts(substitute(*cases[0])) == [((1,), str(b / a))]


# -- the depth-first walk of substitute against itertools.product -------------
# substitute walks the choices row by row, skips an entry whose output index
# is already chosen and shares the product up to each row; the reference
# multiplies out every itertools.product combination.


def _overlapping_rows(rng, coords, n_rows, n_out):
    """Rows of 2-3 entries on n_out output indices, a sixth of them empty.

    The entries mix integer polynomials, rationals and the factors x/2, 2,
    x/y and y, whose products reduce to integer polynomials; with their
    negatives, sums cancel often.
    """
    x, y = ScalarExpr.var(coords, coords[0]), ScalarExpr.var(coords, coords[1])
    pool = [random_poly_expr(rng, coords, max_terms=2, max_exp=1) for _ in range(3)]
    pool += [random_scalar(rng, coords), x / 2, ScalarExpr.const(coords, 2), x / y, y]
    pool += [-e for e in pool]
    pool = [e for e in pool if not e.is_zero()]
    return [
        []
        if rng.random() < 1 / 6
        else [(j, rng.choice(pool)) for j in rng.sample(range(n_out), rng.randint(2, 3))]
        for _ in range(n_rows)
    ]


def _choices(terms, rows):
    """(all choices, choices that repeat an output index) of substitute."""
    combos = [
        [j for j, _ in combo]
        for idx, _ in terms
        for combo in itertools.product(*(rows[i] for i in idx))
    ]
    return len(combos), sum(len(set(js)) < len(js) for js in combos)


def test_substitute_walk_matches_the_product_order_on_overlapping_rows():
    rng = random.Random(1515)
    coords = ("x", "y", "z")
    x, y = ScalarExpr.var(coords, "x"), ScalarExpr.var(coords, "y")
    total = repeated = 0
    for trial in range(30):
        rows = _overlapping_rows(rng, coords, 8, 5)
        terms = []
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.sample(range(8), rng.randint(3, 5))))
            c = rng.choice([
                random_poly_expr(rng, coords), random_scalar(rng, coords), x / 2, y / x,
            ])
            terms.append((idx, c))
        # a term, its negative and the term again: keys are deleted and come back
        terms += [(idx, -c) for idx, c in terms[:1]] + terms[:1]
        _assert_matches_the_add_term_loop(
            substitute(terms, rows), _substitute_by_add_term(terms, rows)
        )
        n, r = _choices(terms, rows)
        total, repeated = total + n, repeated + r
    # most choices repeat an output index
    assert repeated > 0.75 * total


def test_substitute_skips_a_term_with_an_empty_row():
    coords = ("x", "y")
    x, y = ScalarExpr.var(coords, "x"), ScalarExpr.var(coords, "y")
    rows = [[(0, x), (1, y)], [], [(1, x), (0, y)]]
    terms = [((0, 1, 2), x), ((0, 2), y), ((1,), x)]
    got = substitute(terms, rows)
    assert _coefficient_lists(got) == _coefficient_lists(_substitute_by_add_term(terms, rows))
    assert list(got) == [(0, 1)]
    assert str(got[(0, 1)]) == "x^2*y - y^3"
    assert substitute(terms[:1] + terms[2:], rows) == {}


def test_substitute_reduces_rational_products_to_integer_ones():
    coords = ("x", "y")
    x, y = ScalarExpr.var(coords, "x"), ScalarExpr.var(coords, "y")
    one, two = ScalarExpr.one(coords), ScalarExpr.const(coords, 2)
    # y * (x/2) * 2 and y * (x/y) * y are the integer x*y; y * (x/2) * y is not
    rows = [[(0, x / 2), (1, x / y)], [(1, two), (2, y)]]
    terms = [((0, 1), y), ((0, 1), one)]
    got = substitute(terms, rows)
    assert _coefficient_lists(got) == _coefficient_lists(_substitute_by_add_term(terms, rows))
    assert {idx: str(c) for idx, c in got.items()} == {
        (0, 1): "x*y + x",
        (0, 2): "1/2*x*y^2 + 1/2*x*y",
        (1, 2): "x*y + x",
    }
    assert list(got[(1, 2)].num.terms) == [((0, 1), (1, 1)), ((0, 1),)]


# -- evaluation --------------------------------------------------------------


def test_eval_form_orientation():
    chart = Chart("c2", ("x", "t"))
    dxdt = dx(chart, "x").wedge(dx(chart, "t"))
    ex, et = [F(1), F(0)], [F(0), F(1)]
    assert dxdt.evaluate([0, 0], [ex, et]) == 1
    assert dxdt.evaluate([0, 0], [et, ex]) == -1


def test_eval_scalar_field_form(chart4):
    # determinant-expansion oracle: only the drho_x^du^dt term survives on
    # (e_rho_x, e_u, e_t), giving +1 regardless of rho_x
    omega = scalar_field_form(chart4)
    e_rho_x = [F(0), F(0), F(0), F(1), F(0)]
    e_u = [F(0), F(0), F(1), F(0), F(0)]
    e_t = [F(0), F(1), F(0), F(0), F(0)]
    assert omega.evaluate([0, 0, 0, 2, 0], [e_rho_x, e_u, e_t]) == 1


def test_eval_form_alternating_random():
    rng = random.Random(43)
    for _ in range(20):
        alpha = random_form(rng, CHART3, 2)
        point = [F(rng.randint(-3, 3)) for _ in range(3)]
        v = [F(rng.randint(-3, 3)) for _ in range(3)]
        w = [F(rng.randint(-3, 3)) for _ in range(3)]
        assert alpha.evaluate(point, [v, w]) == -alpha.evaluate(point, [w, v])


def _is_exact(v) -> bool:
    """v is an int, or a Fraction that is not integral (never a float)."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_supplied_float_and_decimal_points_are_converted_exactly():
    # a float or Decimal entry is read as the Fraction it denotes, so the
    # values stay exact, equal those at the converted point, and are ints
    # exactly where they are integral
    alpha = Form.from_terms(
        CHART3, 1, [(("x",), "x*y - 1/3"), (("y",), "2*x + z"), (("z",), "1/(y + z)")]
    )
    point = [0.5, Decimal("0.25"), 2]
    exact = [F(1, 2), F(1, 4), F(2)]
    values = alpha.eval_coefficients(point)
    assert values == alpha.eval_coefficients(exact) == {(0,): F(-5, 24), (1,): 3, (2,): F(4, 9)}
    assert all(_is_exact(v) for v in values.values())
    field = VectorField.from_mapping(CHART3, {"x": "x*y", "y": "8*x*y", "z": "z/3"})
    assert field.evaluate(point) == field.evaluate(exact) == [F(1, 8), 1, F(2, 3)]
    assert all(_is_exact(v) for v in field.evaluate(point))


def test_eval_coefficients_leaves_out_a_coefficient_that_vanishes_at_the_point():
    from plectic.splitting import contraction_matrix

    alpha = Form.from_terms(CHART3, 2, [(("x", "y"), "x - 1"), (("y", "z"), "3")])
    assert alpha.eval_coefficients([1, 5, 7]) == {(1, 2): 3}
    # only dy^dz gives rows: i_X (3 dy^dz) = 3 X_y dz - 3 X_z dy
    assert contraction_matrix(alpha, [1, 5, 7]) == ([{2: -3}, {1: 3}], [(1,), (2,)])
    assert alpha.eval_coefficients([2, 5, 7]) == {(0, 1): 1, (1, 2): 3}


def test_eval_arity_mismatch():
    with pytest.raises(DegreeError):
        dx(CHART3, "x").evaluate([0, 0, 0], [])


# -- graded algebra properties ------------------------------------------------


def test_wedge_graded_commutativity_and_associativity():
    rng = random.Random(47)
    for _ in range(25):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        alpha = random_form(rng, CHART3, p)
        beta = random_form(rng, CHART3, q)
        sign = (-1) ** (p * q)
        assert alpha.wedge(beta) == beta.wedge(alpha) * sign
        gamma = random_form(rng, CHART3, rng.randint(0, 3 - min(3, p + q)))
        assert alpha.wedge(beta).wedge(gamma) == alpha.wedge(beta.wedge(gamma))


def test_interior_is_graded_derivation():
    rng = random.Random(53)
    for _ in range(25):
        p = rng.randint(1, 2)
        q = rng.randint(1, 3 - p)
        alpha = random_form(rng, CHART3, p)
        beta = random_form(rng, CHART3, q)
        x = random_vector_field(rng, CHART3)
        lhs = alpha.wedge(beta).interior(x)
        rhs = alpha.interior(x).wedge(beta) + alpha.wedge(beta.interior(x)) * (
            (-1) ** p
        )
        assert lhs == rhs


def test_double_interior_vanishes():
    rng = random.Random(59)
    for _ in range(20):
        alpha = random_form(rng, CHART3, 2)
        x = random_vector_field(rng, CHART3)
        assert alpha.interior(x).interior(x).is_zero()


def test_interior_over_q_x_and_over_q_agree_with_evaluation():
    # Form.interior (over Q(x)) evaluated at a point, contract_constant of the
    # evaluated terms (over Q), and the determinant evaluation
    # (i_X a)_I = a(X, e_I) must all agree; fields are mostly zero
    rng = random.Random(97)
    chart = Chart("c5", ("a", "b", "c", "d", "e"))
    units = [[F(int(i == j)) for i in range(5)] for j in range(5)]
    checked = 0
    for trial in range(60):
        k = rng.randint(1, 4)
        alpha = random_form(rng, chart, k, max_terms=6, rational=trial % 2 == 1)
        comps = [
            ScalarExpr.zero(chart.coords) if rng.random() < 0.6
            else random_poly_expr(rng, chart.coords, max_terms=2, max_exp=1)
            for _ in range(5)
        ]
        x = VectorField(chart, comps)
        point = [F(rng.randint(-3, 3)) for _ in range(5)]
        try:
            consts = alpha.eval_coefficients(point)
        except PoleError:
            continue
        values = x.evaluate(point)
        got = contract_constant(values, consts)
        symbolic = alpha.interior(x).eval_coefficients(point)
        assert got == {idx: c for idx, c in symbolic.items() if c}
        assert all(got.values())
        for idx in itertools.combinations(range(5), k - 1):
            expected = alpha.evaluate(point, [values] + [units[i] for i in idx])
            assert got.get(idx, 0) == expected
        checked += bool(got)
    assert checked >= 20


def test_contract_constant_keeps_integral_entries_as_ints():
    # i_X (3 dx^dy + 1/2 dy^dz) for X = (2, 1, 0) is -3 dx + 6 dy + 1/2 dz; an
    # integral Fraction entry of X multiplies as an int
    got = contract_constant([F(2), 1, F(0)], {(0, 1): 3, (1, 2): F(1, 2)})
    assert got == {(0,): -3, (1,): 6, (2,): F(1, 2)}
    assert [type(got[idx]) for idx in ((0,), (1,), (2,))] == [int, int, Fraction]
