import os
import random
from fractions import Fraction

import pytest

from plectic import exterior, fieldtheory
from plectic.coeff import Poly, ScalarExpr, _div_exact, parse_expr, partial_degree
from plectic.errors import DegreeError, PlecticError
from plectic.exterior import Chart, Form, VectorField, substitute
from plectic.fieldtheory import (
    FiberedChart,
    Section,
    eom_residual,
    eom_symbolic_system,
)
from plectic.manifoldspec import parse_spec_dict, thickened_spec_dict
from plectic.splitting import build_split_frame
from plectic.thicken import build_thickening

from conftest import (
    fixture_path,
    pullback_composing_every_term,
    random_form,
    random_poly_expr,
    rename,
    scalar_field_form,
)

F = Fraction
BASE = ("x", "t")


@pytest.fixture(scope="module")
def fibered4(chart4):
    return FiberedChart(chart4, BASE)


def _section(fibered, u, rho_x, rho_t):
    comps = {
        "u": parse_expr(u, BASE),
        "rho_x": parse_expr(rho_x, BASE),
        "rho_t": parse_expr(rho_t, BASE),
    }
    return Section(fibered, comps)


def _vol(form, expr):
    """expr * dx^dt on the chart the given residual form lives on."""
    return Form.from_terms(form.chart, 2, [(("x", "t"), expr)])


# -- concrete residuals --------------------------------------------------------


def test_linear_solution_family_has_zero_residual(chart4, fibered4):
    omega = scalar_field_form(chart4)
    section = _section(fibered4, "3*x + 5", "3", "x^2*t - 7")
    residual = eom_residual(omega, fibered4, section)
    assert residual.is_zero()


def test_gauge_direction_is_unconstrained(chart4, fibered4):
    # the rho_t component never enters the residuals: 20 random polynomials
    omega = scalar_field_form(chart4)
    rng = random.Random(13)
    for _ in range(20):
        terms = " + ".join(
            f"{rng.randint(1, 5)}*x^{rng.randint(0, 2)}*t^{rng.randint(0, 2)}"
            for _ in range(3)
        )
        section = _section(fibered4, "3*x + 5", "3", terms)
        assert eom_residual(omega, fibered4, section).is_zero()


def test_nonsolution_residuals_frozen(chart4, fibered4):
    # hand oracle: i_du omega = -d(rho_x)^dt pulls back to -dPx/dx dx^dt = -1;
    # i_drho_x omega = du^dt - rho_x dx^dt pulls back to (dphi/dx - Px) = x
    omega = scalar_field_form(chart4)
    section = _section(fibered4, "x^2", "x", "0")
    residual = eom_residual(omega, fibered4, section)
    assert not residual.is_zero()
    assert residual.residuals["u"] == _vol(residual.residuals["u"], "0-1")
    assert residual.residuals["rho_x"] == _vol(residual.residuals["rho_x"], "x")
    assert residual.residuals["rho_t"].is_zero()
    assert residual.nonzero_directions() == ["u", "rho_x"]


def test_residual_degree_gate(chart4, fibered4):
    with pytest.raises(DegreeError):
        eom_residual(Form.zero(chart4, 2), fibered4, _section(fibered4, "0", "0", "0"))


def test_section_component_must_depend_on_base_coordinates_only():
    coords = ("x", "t", "u", "rho_x", "rho_t")
    fibered = FiberedChart(Chart("m", coords), BASE)
    comps = {name: parse_expr("0", coords) for name in fibered.fiber}
    comps["u"] = parse_expr("u + x", coords)
    with pytest.raises(PlecticError, match="section component 'u' depends on 'u'"):
        Section(fibered, comps)
    # a component over the whole chart or over a reordered base is mapped by
    # the name of each variable it uses
    comps["u"] = parse_expr("x + 2*t", ("t", "x"))
    comps["rho_x"] = parse_expr("t^2/x", coords)
    graph = Section(fibered, comps).graph_map()
    assert graph.components[2] == parse_expr("x + 2*t", BASE)
    assert str(graph.components[3]) == str(parse_expr("t^2/x", BASE))


def test_residual_linear_in_the_form(chart4, fibered4):
    rng = random.Random(19)
    section = _section(fibered4, "x*t", "t^2", "x - t")
    for _ in range(10):
        omega1 = random_form(rng, chart4, 3, max_terms=2)
        omega2 = random_form(rng, chart4, 3, max_terms=2)
        r1 = eom_residual(omega1, fibered4, section)
        r2 = eom_residual(omega2, fibered4, section)
        r12 = eom_residual(omega1 + omega2, fibered4, section)
        for name in fibered4.fiber:
            assert r12.residuals[name] == r1.residuals[name] + r2.residuals[name]


# -- symbolic systems ------------------------------------------------------------


def _normalized_set(system):
    out = []
    for eq in system.physical_system():
        out.append(eq)
    return out


def _contains(system, equations, text):
    expected = parse_expr(text, system.jets.coords)
    return any(e == expected or e == -expected for e in equations)


def test_base_symbolic_system_is_the_two_displayed_equations(chart4, fibered4):
    system = eom_symbolic_system(scalar_field_form(chart4), fibered4)
    physical = system.physical_system()
    assert len(physical) == 2
    assert _contains(system, physical, "rho_x__x")
    assert _contains(system, physical, "u__x - rho_x")
    assert system.auxiliary_system() == []
    assert system.obstructions() == []


def test_zero_form_gives_empty_system(chart4, fibered4):
    system = eom_symbolic_system(Form.zero(chart4, 3), fibered4)
    assert system.equations == []
    assert system.physical_system() == []


def _thickened_spec():
    from plectic.manifoldspec import load_spec

    spec = load_spec(fixture_path("scalar_field_2d.json"))
    manifold = spec.manifold()
    frame = build_split_frame(manifold, spec.vertical, spec.horizontal)
    thickening = build_thickening(manifold, frame)
    return parse_spec_dict(thickened_spec_dict(thickening, spec))


def test_thickened_symbolic_system_fixes_the_gauge():
    tspec = _thickened_spec()
    fibered = tspec.fibered_chart()
    assert set(fibered.auxiliary) == {
        "p_x_rho_t", "p_x_t", "p_x_u", "p_x_rho_x",
        "p_rho_t_t", "p_rho_t_u", "p_rho_t_rho_x",
    }
    system = eom_symbolic_system(tspec.form, fibered)
    physical = system.physical_system()
    assert len(physical) == 6
    for text in (
        "u__x - rho_x",
        "u__t",
        "rho_x__x",
        "rho_x__t",
        "rho_t__x",
        "rho_t__t",
    ):
        assert _contains(system, physical, text)
    # the volume-dual fiber direction admits no solution and is reported so
    assert [d for d, _ in system.obstructions()] == ["p_x_t"]
    # regulator dynamics are segregated, not displayed as physical equations
    aux_directions = {d for d, _ in system.auxiliary_system()}
    assert aux_directions == {"u", "rho_x", "rho_t"}
    assert {d for d, _ in system.derived_combinations()} <= {
        "p_rho_t_u", "p_rho_t_rho_x",
    }


def test_thickened_concrete_section_with_determined_regulators():
    tspec = _thickened_spec()
    fibered = tspec.fibered_chart()
    comps = {name: parse_expr("0", BASE) for name in fibered.fiber}
    comps["u"] = parse_expr("5 + 3*x", BASE)
    comps["rho_x"] = parse_expr("3", BASE)
    comps["rho_t"] = parse_expr("7", BASE)
    section = Section(fibered, comps)
    residual = eom_residual(tspec.form, fibered, section)
    # the physical directions are exactly solved
    assert all(f.is_zero() for f in residual.physical().values())
    # every regulator direction vanishes except the volume-dual obstruction
    for name, form in residual.auxiliary().items():
        if name == "p_x_t":
            assert form == _vol(form, "1")
        else:
            assert form.is_zero()


def test_thickened_section_with_time_dependence_is_rejected_by_residuals():
    tspec = _thickened_spec()
    fibered = tspec.fibered_chart()
    comps = {name: parse_expr("0", BASE) for name in fibered.fiber}
    comps["u"] = parse_expr("5 + 3*x + 2*t", BASE)  # violates the fixed gauge
    comps["rho_x"] = parse_expr("3", BASE)
    comps["rho_t"] = parse_expr("7", BASE)
    section = Section(fibered, comps)
    residual = eom_residual(tspec.form, fibered, section)
    assert residual.residuals["p_x_u"] == _vol(residual.residuals["p_x_u"], "2")


def test_display_renders_jets_as_partials(chart4, fibered4):
    system = eom_symbolic_system(scalar_field_form(chart4), fibered4)
    rendered = {system.display(e) for e in system.physical_system()}
    assert "d(rho_x)/d(x) = 0" in rendered
    assert "-rho_x + d(u)/d(x) = 0" in rendered


def test_display_prints_each_variable_once_by_name():
    # the field w_u__x contains the jet symbol u__x; it must print as it is
    chart = Chart("c", ("x", "u", "w_u__x"))
    fibered = FiberedChart(chart, ("x",))
    omega = Form.from_terms(chart, 2, [(("u", "w_u__x"), "1"), (("u", "x"), "w_u__x")])
    system = eom_symbolic_system(omega, fibered)
    [equation] = [eq for eq in system.equations if eq.direction == "u"]
    assert system.display(equation.physical) == "w_u__x + d(w_u__x)/d(x) = 0"


def test_jet_symbol_colliding_with_a_coordinate_is_refused():
    chart = Chart("c", ("x", "u", "u__x"))
    fibered = FiberedChart(chart, ("x",))
    with pytest.raises(PlecticError, match="'u__x' collides"):
        eom_symbolic_system(Form.zero(chart, 2), fibered)


def test_jet_symbol_colliding_with_another_jet_is_refused():
    # u on column x__y and u__x on column y both name the jet u__x__y
    chart = Chart("jc", ("y", "x__y", "u", "u__x"))
    fibered = FiberedChart(chart, ("y", "x__y"))
    with pytest.raises(PlecticError, match="'u__x__y' collides with another jet symbol"):
        eom_symbolic_system(Form.zero(chart, 3), fibered)


# -- one pass over omega_hat against a contraction per direction -----------------
# The reference contracts omega_hat with the coordinate field of each fiber
# direction, renames each contracted coefficient to the jet chart and pulls it
# back along the formal graph, one direction at a time.


def _structure(expr):
    """num and den of an expression as text and as ordered term lists."""
    return [(str(p), list(p.terms.items())) for p in (expr.num, expr.den)]


def _contract_each_direction(omega_hat, fibered):
    return {
        name: omega_hat.interior(VectorField.coordinate(fibered.total, name))
        for name in fibered.fiber
    }


def _reference_kind(physical, jet_axes):
    """The class of a physical part, by the largest jet degree of its monomials."""
    if physical.is_zero():
        return "empty"
    degree = max(partial_degree(e, jet_axes) for e in physical.num.terms)
    return {0: "obstruction", 1: "pde"}.get(degree, "derived")


def _reference_system(omega_hat, fibered):
    """(jet chart, [(direction, physical, auxiliary, kind)]) of the nonzero residuals."""
    base = fibered.base
    jets = base + fibered.fiber + tuple(
        f"{f}__{b}" for f in fibered.fiber for b in base
    )
    one = ScalarExpr.one(jets)
    rows = [
        [(base.index(n), one)]
        if n in base
        else [(i, ScalarExpr.var(jets, f"{n}__{b}")) for i, b in enumerate(base)]
        for n in fibered.total.coords
    ]
    aux = {jets.index(a) for a in fibered.auxiliary}
    aux |= {jets.index(f"{a}__{b}") for a in fibered.auxiliary for b in base}
    jet_axes = set(range(len(fibered.total.coords), len(jets)))
    equations = []
    for name, contracted in _contract_each_direction(omega_hat, fibered).items():
        renamed = ((idx, rename(c, jets)) for idx, c in contracted.terms.items())
        residual = substitute(renamed, rows).get(tuple(range(len(base))))
        if residual is None or residual.is_zero():
            continue
        if any(partial_degree(e, aux) for e in residual.den.terms):
            physical, auxiliary = ScalarExpr.zero(jets), residual
        else:
            parts = ({}, {})
            for e, c in residual.num.terms.items():
                parts[bool(partial_degree(e, aux))][e] = c
            physical, auxiliary = (ScalarExpr(Poly(jets, t), residual.den) for t in parts)
        kind = _reference_kind(physical, jet_axes)
        equations.append((name, _structure(physical), _structure(auxiliary), kind))
    return jets, equations


def _thickened_fibered(path):
    """omega_tilde and the fibered chart of the thickened spec of a spec file."""
    from plectic.manifoldspec import load_spec

    spec = load_spec(path)
    manifold = spec.manifold()
    frame = build_split_frame(manifold, spec.vertical, spec.horizontal)
    tspec = parse_spec_dict(thickened_spec_dict(build_thickening(manifold, frame), spec))
    return tspec.form, tspec.fibered_chart()


def _golden_spec(name):
    return os.path.join(os.path.dirname(__file__), "golden", name + ".json")


DW_SPECS = (
    fixture_path("scalar_field_2d.json"),
    _golden_spec("dw_n3"),
    _golden_spec("dw_rational_n3"),
    _golden_spec("dw_n4"),
)
# the goldens whose formal systems are compared with the reference
SYSTEM_SPECS = DW_SPECS + (
    _golden_spec("dw_half_n3"),
    _golden_spec("dw_quad_n3"),
    _golden_spec("dw_rational_n4"),
)
RANDOM_CHART = Chart("r", ("x", "t", "u", "v", "w"))
RANDOM_FIBERED = FiberedChart(RANDOM_CHART, BASE, ("w",))
# a 3-dim base whose axes alternate with four fiber axes, so the 3-factor
# rests of degree-4 forms hold base and fiber axes in every order
INTERLEAVED_CHART = Chart("s", ("u", "x", "v", "y", "w", "z", "q"))
INTERLEAVED_FIBERED = FiberedChart(INTERLEAVED_CHART, ("x", "y", "z"), ("w",))


def _random_cases():
    """(omega_hat, fibered, rng) on a fibered chart, integer and rational
    coefficients; the zero forms are left out."""
    for seed in range(24):
        rng = random.Random(seed)
        omega = random_form(rng, RANDOM_CHART, 3, max_terms=8, rational=seed % 2 == 1)
        if not omega.is_zero():
            yield omega, RANDOM_FIBERED, rng


def _interleaved_cases():
    """Degree-4 forms with rational coefficients on the interleaved chart;
    the zero forms are left out."""
    for seed in range(16):
        omega = random_form(random.Random(seed), INTERLEAVED_CHART, 4, max_terms=10, rational=True)
        if not omega.is_zero():
            yield omega, INTERLEAVED_FIBERED


def _assert_system_matches_reference(omega_hat, fibered):
    system = eom_symbolic_system(omega_hat, fibered)
    jets, want = _reference_system(omega_hat, fibered)
    assert system.jets.coords == jets
    assert system.jet_axes == set(range(len(fibered.total.coords), len(jets)))
    got = [
        (eq.direction, _structure(eq.physical), _structure(eq.auxiliary), eq.kind)
        for eq in system.equations
    ]
    assert got == want


@pytest.mark.parametrize("path", SYSTEM_SPECS, ids=os.path.basename)
def test_symbolic_system_matches_a_contraction_per_direction_on_dw(path):
    _assert_system_matches_reference(*_thickened_fibered(path))


def test_symbolic_system_matches_a_contraction_per_direction_on_random_forms():
    for omega, fibered, _ in _random_cases():
        _assert_system_matches_reference(omega, fibered)


def test_symbolic_system_matches_a_contraction_per_direction_on_interleaved_axes():
    cases = list(_interleaved_cases())
    # the rests of the fiber contractions hold base and fiber axes in all
    # 2^3 orders
    is_base = [name in INTERLEAVED_FIBERED.base for name in INTERLEAVED_CHART.coords]
    orders = {
        tuple(is_base[axis] for axis in idx[:pos] + idx[pos + 1 :])
        for omega, _ in cases
        for idx in omega.terms
        for pos in range(len(idx))
        if not is_base[idx[pos]]
    }
    assert len(orders) == 8
    for omega, fibered in cases:
        _assert_system_matches_reference(omega, fibered)


def test_symbolic_system_multiplies_no_polynomials_and_substitutes_nothing(monkeypatch):
    # each direction is a signed sum of jet monomials times its coefficients'
    # numerators: no product of polynomials and no change of basis is needed
    omega, fibered = _thickened_fibered(_golden_spec("dw_n3"))
    calls = {"mul": 0, "substitute": 0}
    mul = Poly.__mul__

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_substitute(*args, **kwargs):
        calls["substitute"] += 1
        return substitute(*args, **kwargs)

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(exterior, "substitute", counted_substitute)
    monkeypatch.setattr(fieldtheory, "substitute", counted_substitute, raising=False)
    system = eom_symbolic_system(omega, fibered)
    assert len(system.equations) == 35
    assert calls == {"mul": 0, "substitute": 0}


def test_quadratic_frame_equations_divide_the_cube_of_its_denominator():
    # the dw_quad_n3 coframe divides by 1 + x1^2; each direction sums its
    # signed jet-monomial products in one accumulator and reduces it once, so
    # no equation keeps a power of it above the third
    omega, fibered = _thickened_fibered(_golden_spec("dw_quad_n3"))
    system = eom_symbolic_system(omega, fibered)
    cube = parse_expr("(1 + x1^2)^3", system.jets.coords).num
    dens = [part.den for eq in system.equations for part in (eq.physical, eq.auxiliary)]
    assert len(dens) == 70
    assert [str(den) for den in dens if _div_exact(cube, den) is None] == []


def test_accessors_compute_jet_degrees_only_to_normalize(monkeypatch):
    # each equation is classified once, when the system is built: the
    # accessors call partial_degree once per monomial they normalize
    omega, fibered = _thickened_fibered(_golden_spec("dw_n3"))
    system = eom_symbolic_system(omega, fibered)
    jet_axes = set(range(len(fibered.total.coords), len(system.jets.coords)))
    kinds = [_reference_kind(eq.physical, jet_axes) for eq in system.equations]
    normalized = sum(
        len(eq.physical.num.terms) for eq, kind in zip(system.equations, kinds)
        if kind in ("pde", "derived")
    ) + sum(len(eq.auxiliary.num.terms) for eq in system.equations)
    assert {"pde", "derived", "obstruction"} <= set(kinds)
    calls = [0]

    def counted(e, axes):
        calls[0] += 1
        return partial_degree(e, axes)

    monkeypatch.setattr(fieldtheory, "partial_degree", counted)
    system.physical_system()
    system.auxiliary_system()
    system.derived_combinations()
    system.obstructions()
    assert calls[0] == normalized


def _random_section(rng, fibered):
    # a cube lies outside random_poly_expr's degrees, so no component is
    # constant and no random denominator c + coordinate vanishes on the graph
    cube = parse_expr(f"{fibered.base[0]}^3", fibered.base)
    return Section(
        fibered, {n: random_poly_expr(rng, fibered.base) + cube for n in fibered.fiber}
    )


def _assert_residuals_match_reference(omega_hat, fibered, section):
    got = eom_residual(omega_hat, fibered, section).residuals
    graph = section.graph_map()
    want = {
        name: graph.pullback(contracted)
        for name, contracted in _contract_each_direction(omega_hat, fibered).items()
    }
    assert list(got) == list(want)
    for name, form in got.items():
        assert form.chart == want[name].chart and form.degree == want[name].degree
        assert [(i, _structure(c)) for i, c in form.terms.items()] == [
            (i, _structure(c)) for i, c in want[name].terms.items()
        ]


@pytest.mark.parametrize("path", DW_SPECS[:3], ids=os.path.basename)
def test_residuals_match_a_contraction_per_direction_on_dw(path):
    omega, fibered = _thickened_fibered(path)
    _assert_residuals_match_reference(omega, fibered, _random_section(random.Random(5), fibered))


def test_residuals_match_a_contraction_per_direction_on_random_forms():
    for omega, fibered, rng in _random_cases():
        _assert_residuals_match_reference(omega, fibered, _random_section(rng, fibered))


def test_residuals_along_constant_components_match_composing_every_term(chart4, fibered4):
    # rho_x = 3 on section_zero's graph: each term with a drho_x factor pulls
    # back to zero, and the pullback drops it before composing it
    cases = [(scalar_field_form(chart4), fibered4, _section(fibered4, "3*x + 5", "3", "x*t"))]
    cube = parse_expr("x^3", BASE)
    for omega, fibered, rng in _random_cases():
        # positive constants miss the random denominators c + coordinate, c >= 1
        components = {
            n: ScalarExpr.const(BASE, rng.randint(1, 3))
            if rng.random() < 0.5
            else random_poly_expr(rng, BASE) + cube
            for n in fibered.fiber
        }
        cases.append((omega, fibered, Section(fibered, components)))
    for omega, fibered, section in cases:
        got = eom_residual(omega, fibered, section).residuals
        graph = section.graph_map()
        want = {
            name: pullback_composing_every_term(graph, contracted)
            for name, contracted in _contract_each_direction(omega, fibered).items()
        }
        assert list(got) == list(want)
        for name, form in got.items():
            assert [(i, _structure(c)) for i, c in form.terms.items()] == [
                (i, _structure(c)) for i, c in want[name].terms.items()
            ]
