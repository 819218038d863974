"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison is exact
(rational arithmetic or symbolic equality); sampled checks use the fixed
seeds stated in the bundled spec files.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from plectic import linalg
from plectic.coeff import ScalarExpr, parse_expr
from plectic.exterior import Chart, CoordinateMap, Form
from plectic.fieldtheory import Section, eom_residual, eom_symbolic_system
from plectic.manifoldspec import load_spec, parse_spec_dict, thickened_spec_dict
from plectic.report import EVIDENCE, FAIL, PASS
from plectic.sampling import SampleConfig, sample_points
from plectic.splitting import (
    build_split_frame,
    decompose,
    kernel_at,
    multisymplectic_orthogonal,
)
from plectic.thicken import (
    build_thickening,
    closedness_report,
    enumerate_fiber_coordinates,
    nondegeneracy_report,
    present_in_frame_basis,
    verify_closed,
    verify_coisotropic,
    verify_nondegenerate,
    verify_zero_section_pullback,
)

from conftest import (
    fixture_path,
    random_form,
    random_poly_expr,
    random_vector_field,
)

F = Fraction


@pytest.fixture(scope="module")
def scalar_field():
    spec = load_spec(fixture_path("scalar_field_2d.json"))
    manifold = spec.manifold()
    frame = build_split_frame(manifold, spec.vertical, spec.horizontal)
    thickening = build_thickening(manifold, frame)
    return spec, manifold, frame, thickening


def _report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_scalar_field_pipeline(scalar_field):
    start = time.perf_counter()
    spec, manifold, frame, thickening = scalar_field

    # 7 fiber coordinates, 12-dimensional chart
    assert thickening.fiber_count == 7
    assert thickening.big_chart.dim == 12
    assert set(thickening.fiber_names) == {
        "p_x_rho_t", "p_x_t", "p_x_u", "p_x_rho_x",
        "p_rho_t_t", "p_rho_t_u", "p_rho_t_rho_x",
    }

    # the tautological form, presented over the coframe monomials, is exactly
    # the displayed seven-term expression: one fiber coordinate per monomial
    coeffs = present_in_frame_basis(thickening, thickening.theta0)
    assert len(coeffs) == 7
    for idx, name in zip(thickening.fiber_index, thickening.fiber_names):
        assert coeffs[idx] == ScalarExpr.var(thickening.big_chart.coords, name)

    # symbolic checks, tolerance exact
    assert verify_closed(thickening).verdict == PASS
    assert verify_zero_section_pullback(thickening).verdict == PASS

    # 50 seeded samples, nonzero fiber values present (global validity)
    nondeg = verify_nondegenerate(thickening, SampleConfig(count=50, seed=0))
    assert nondeg.verdict == EVIDENCE
    assert nondeg.details["points_checked"] == 50
    assert nondeg.details["points_with_nonzero_fiber_part"] >= 1

    # (k-1)-coisotropy at 25 zero-section samples
    coiso = verify_coisotropic(
        thickening, ell=2, config=SampleConfig(count=25, seed=0)
    )
    assert coiso.verdict == EVIDENCE
    assert coiso.details["points_checked"] == 25

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"scalar-field pipeline, {elapsed:.2f}s")


def test_criterion_2_nonuniqueness_fixtures():
    start = time.perf_counter()
    for name, constrained in (
        ("r5_thickening.json", ("x5",)),
        ("r6_thickening.json", ("x5", "x6")),
    ):
        spec = load_spec(fixture_path(name))
        omega = spec.form
        assert closedness_report(omega).verdict == PASS
        d = omega.chart.dim
        cfg = SampleConfig(count=50, seed=0)
        points = sample_points(d, cfg)
        assert nondegeneracy_report(omega, points, cfg).verdict == EVIDENCE

        # the common 4-dimensional submanifold {extra coordinates = 0}
        fixed_axes = {omega.chart.axis(c) for c in constrained}
        tangent = [
            [F(int(i == j)) for i in range(d)]
            for j in range(d)
            if j not in fixed_axes
        ]
        base_cfg = SampleConfig(count=25, seed=0)
        for p in sample_points(d, base_cfg):
            point = tuple(
                F(0) if i in fixed_axes else x for i, x in enumerate(p)
            )
            ortho = multisymplectic_orthogonal(omega, point, tangent, 2)
            assert linalg.subspace_contained(ortho, tangent)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"non-uniqueness fixtures 2-coisotropic, {elapsed:.2f}s")


def test_criterion_3_equations_of_motion(scalar_field):
    start = time.perf_counter()
    spec, manifold, frame, thickening = scalar_field
    fibered = spec.fibered_chart()

    def contains(system, equations, text):
        expected = parse_expr(text, system.jets.coords)
        return any(e == expected or e == -expected for e in equations)

    # base system: exactly the two displayed equations
    base_system = eom_symbolic_system(spec.form, fibered)
    base_eqs = base_system.physical_system()
    assert len(base_eqs) == 2
    assert contains(base_system, base_eqs, "rho_x__x")
    assert contains(base_system, base_eqs, "u__x - rho_x")

    # thickened system: the six displayed equations, gauge direction fixed
    tspec = parse_spec_dict(thickened_spec_dict(thickening, spec))
    tsystem = eom_symbolic_system(tspec.form, tspec.fibered_chart())
    teqs = tsystem.physical_system()
    assert len(teqs) == 6
    for text in (
        "u__x - rho_x", "u__t",
        "rho_x__x", "rho_x__t",
        "rho_t__x", "rho_t__t",
    ):
        assert contains(tsystem, teqs, text)

    # gauge freedom on the base: residuals independent of the rho_t component
    rng = random.Random(2024)
    for _ in range(20):
        g = " + ".join(
            f"{rng.randint(1, 9)}*x^{rng.randint(0, 3)}*t^{rng.randint(0, 3)}"
            for _ in range(rng.randint(1, 4))
        )
        section = Section(
            fibered,
            {
                "u": parse_expr("3*x + 5", fibered.base),
                "rho_x": parse_expr("3", fibered.base),
                "rho_t": parse_expr(g, fibered.base),
            },
        )
        assert eom_residual(spec.form, fibered, section).is_zero()

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"equations of motion, {elapsed:.2f}s")


def test_criterion_4_kernel_certification(scalar_field):
    start = time.perf_counter()
    spec, manifold, _, _ = scalar_field
    cfg = SampleConfig(count=50, seed=0)
    for point in sample_points(5, cfg):
        basis = kernel_at(manifold, point)
        assert len(basis) == 2
        rho_x = point[3]
        expected = [
            [F(1), F(0), rho_x, F(0), F(0)],  # e_x + rho_x e_u
            [F(0), F(0), F(0), F(0), F(1)],   # e_rho_t
        ]
        assert linalg.subspace_contained(basis, expected)
        assert linalg.subspace_contained(expected, basis)

    nondeg_spec = load_spec(fixture_path("scalar_field_2d_nondegenerate.json"))
    nondeg_manifold = nondeg_spec.manifold()
    for point in sample_points(5, cfg):
        assert kernel_at(nondeg_manifold, point) == []
    elapsed = time.perf_counter() - start
    _report(4, f"kernel certification, {elapsed:.2f}s")


def test_criterion_5_algebraic_property_suites(scalar_field):
    start = time.perf_counter()
    spec, manifold, frame, _ = scalar_field
    chart3 = Chart("c3", ("x", "y", "z"))
    cases = 200

    # d o d = 0
    rng = random.Random(101)
    for _ in range(cases):
        alpha = random_form(rng, chart3, rng.randint(0, 3), rational=True)
        assert alpha.d().d().is_zero()

    # graded commutativity of the wedge
    rng = random.Random(102)
    for _ in range(cases):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        alpha, beta = random_form(rng, chart3, p), random_form(rng, chart3, q)
        assert alpha.wedge(beta) == beta.wedge(alpha) * ((-1) ** (p * q))

    # graded Leibniz for d
    rng = random.Random(103)
    for _ in range(cases):
        p, q = rng.randint(0, 2), rng.randint(0, 1)
        alpha, beta = random_form(rng, chart3, p), random_form(rng, chart3, q)
        lhs = alpha.wedge(beta).d()
        rhs = alpha.d().wedge(beta) + alpha.wedge(beta.d()) * ((-1) ** p)
        assert lhs == rhs

    # graded Leibniz for the interior product
    rng = random.Random(104)
    for _ in range(cases):
        p = rng.randint(1, 2)
        q = rng.randint(1, 3 - p)
        alpha, beta = random_form(rng, chart3, p), random_form(rng, chart3, q)
        x = random_vector_field(rng, chart3)
        lhs = alpha.wedge(beta).interior(x)
        rhs = alpha.interior(x).wedge(beta) + alpha.wedge(beta.interior(x)) * (
            (-1) ** p
        )
        assert lhs == rhs

    # pullback functoriality and d-commutation
    rng = random.Random(105)
    a_chart = Chart("a", ("s", "r"))
    b_chart = Chart("b", ("p", "q"))
    for _ in range(cases):
        psi = CoordinateMap(
            a_chart, b_chart, [random_poly_expr(rng, a_chart.coords, max_exp=1) for _ in range(2)]
        )
        phi = CoordinateMap(
            b_chart, chart3, [random_poly_expr(rng, b_chart.coords, max_exp=1) for _ in range(3)]
        )
        alpha = random_form(rng, chart3, rng.randint(0, 2))
        assert phi.after(psi).pullback(alpha) == psi.pullback(phi.pullback(alpha))
        assert phi.pullback(alpha.d()) == phi.pullback(alpha).d()

    # decomposition identity and idempotence, both projectors
    rng = random.Random(106)
    for _ in range(cases):
        alpha = random_form(rng, manifold.chart, rng.randint(1, 3))
        for which in ("P", "R"):
            split = decompose(alpha, frame, which)
            assert split.parallel + split.transversal == alpha
            again = decompose(split.parallel, frame, which)
            assert again.transversal.is_zero()

    # orthogonal nesting in ell
    rng = random.Random(107)
    chart4d = Chart("c4", ("a", "b", "c", "d"))
    for _ in range(cases):
        omega = random_form(rng, chart4d, 3, max_terms=3)
        point = [F(rng.randint(-3, 3)) for _ in range(4)]
        nb = [
            [F(rng.randint(-2, 2)) for _ in range(4)]
            for _ in range(rng.randint(1, 3))
        ]
        ells = sorted(rng.sample(range(1, 4), 2))
        small = multisymplectic_orthogonal(omega, point, nb, ells[0])
        large = multisymplectic_orthogonal(omega, point, nb, ells[1])
        assert linalg.subspace_contained(small, large)

    # fiber-count formula against brute-force enumeration, exhaustively over
    # every dimension/degree/split triple with 2 <= k <= d <= 7
    compared = 0
    for d in range(2, 8):
        for k in range(2, d + 1):
            for l in range(0, d + 1):
                r = d - l
                labels = tuple(f"v{i}" for i in range(r)) + tuple(
                    f"h{i}" for i in range(l)
                )
                entries = enumerate_fiber_coordinates(d, l, k, labels)
                brute = {
                    s
                    for s in itertools.combinations(range(d), k - 1)
                    if any(j < r for j in s)
                }
                assert {idx for idx, _ in entries} == brute
                expected = math.comb(d, k - 1) - (
                    math.comb(l, k - 1) if l >= k - 1 else 0
                )
                assert len(entries) == expected
                compared += max(1, len(brute))
    assert compared >= 200

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"algebraic property suites ({cases} cases each), {elapsed:.2f}s")


def test_criterion_6_fault_injection(scalar_field):
    start = time.perf_counter()
    spec, manifold, frame, thickening = scalar_field

    # a deliberately non-closed form is caught, with a witness term
    big = thickening.big_chart
    non_closed = thickening.omega_tilde + Form.from_terms(
        big, 3, [(("t", "u", "rho_x"), "x")]
    )
    report = closedness_report(non_closed)
    assert report.verdict == FAIL
    assert report.witnesses

    # a mutated tautological form breaks the zero-section pullback
    mutated_theta = thickening.theta0 + Form.from_terms(big, 2, [(("t", "u"), "x")])
    mutated = thickening.replace(
        theta0=mutated_theta,
        omega_tilde=thickening.tau.pullback(manifold.omega) + mutated_theta.d(),
    )
    pull_report = verify_zero_section_pullback(mutated)
    assert pull_report.verdict == FAIL
    assert pull_report.witnesses
    residual_coeffs = {w["coefficient"] for w in pull_report.witnesses}
    assert residual_coeffs  # nonzero residual exhibited explicitly

    # the degenerate base form fails non-degeneracy with the known kernel
    cfg = SampleConfig(count=10, seed=0)
    points = sample_points(5, cfg)
    base_report = nondegeneracy_report(manifold.omega, points, cfg)
    assert base_report.verdict == FAIL
    for witness, point in zip(base_report.witnesses, points):
        assert witness["kernel_dim"] == 2
        rho_x = point[3]
        expected = [
            [F(1), F(0), rho_x, F(0), F(0)],
            [F(0), F(0), F(0), F(0), F(1)],
        ]
        got = [[F(x) for x in v] for v in witness["kernel_basis"]]
        assert linalg.subspace_contained(got, expected)
        assert linalg.subspace_contained(expected, got)

    elapsed = time.perf_counter() - start
    _report(6, f"fault injection negatives, {elapsed:.2f}s")
