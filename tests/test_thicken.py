import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from plectic import cli, linalg, splitting
from plectic.exterior import Chart, CoordinateMap, Form, VectorField, substitute
from plectic import coeff
from plectic.coeff import ScalarExpr
from plectic.fieldtheory import FiberedChart, eom_symbolic_system
from plectic.report import EVIDENCE, FAIL, NO_POINTS, PASS, POINT_COUNTS, VerificationReport
from plectic.sampling import SampleConfig, pole_rejector, sample_points
from plectic.splitting import (
    PreMultisymplecticManifold,
    build_split_frame,
    kernel_at,
    multisymplectic_orthogonal,
)
from plectic.thicken import (
    DegreeTooLowError,
    _on_zero_section,
    build_thickening,
    closedness_report,
    enumerate_fiber_coordinates,
    nondegeneracy_report,
    present_in_frame_basis,
    verify_all,
    verify_closed,
    verify_coisotropic,
    verify_nondegenerate,
    verify_zero_section_pullback,
)

from plectic.manifoldspec import load_spec
from plectic.errors import PoleError
from plectic.record import FrozenError
from conftest import evaluate, fixture_path, pullback_composing_every_term, pushforward_vector

F = Fraction


# -- fiber enumeration ---------------------------------------------------------


def test_fiber_enumeration_scalar_field(frame4):
    entries = enumerate_fiber_coordinates(5, 3, 3, frame4.labels)
    names = [name for _, name in entries]
    assert names == [
        "p_x_rho_t",
        "p_x_t",
        "p_x_u",
        "p_x_rho_x",
        "p_rho_t_t",
        "p_rho_t_u",
        "p_rho_t_rho_x",
    ]
    assert len(names) == math.comb(5, 2) - math.comb(3, 2) == 7


def test_fiber_enumeration_no_vertical_directions():
    assert enumerate_fiber_coordinates(4, 4, 3, ("a", "b", "c", "d")) == []


def test_fiber_enumeration_r4():
    entries = enumerate_fiber_coordinates(4, 3, 3, ("x4", "x1", "x2", "x3"))
    # brute-force oracle: 2-subsets containing the unique vertical label
    brute = [
        s
        for s in itertools.combinations(range(4), 2)
        if 0 in s
    ]
    assert [idx for idx, _ in entries] == brute
    assert len(entries) == math.comb(4, 2) - math.comb(3, 2) == 3


def test_fiber_count_formula_matches_brute_force():
    for d in range(2, 8):
        for k in range(2, d + 1):
            for l in range(0, d + 1):
                r = d - l
                labels = tuple(f"v{i}" for i in range(r)) + tuple(
                    f"h{i}" for i in range(l)
                )
                entries = enumerate_fiber_coordinates(d, l, k, labels)
                brute = [
                    s
                    for s in itertools.combinations(range(d), k - 1)
                    if any(j < r for j in s)
                ]
                assert sorted(idx for idx, _ in entries) == sorted(brute)
                assert len(entries) == math.comb(d, k - 1) - (
                    math.comb(l, k - 1) if l >= k - 1 else 0
                )


# -- construction ----------------------------------------------------------------


def test_scalar_field_thickening_chart(thickening4):
    assert thickening4.big_chart.dim == 12
    assert thickening4.fiber_count == 7
    assert thickening4.big_chart.coords[:5] == ("x", "t", "u", "rho_x", "rho_t")


def test_rejects_degree_two():
    chart = Chart("c", ("q", "p", "z"))
    omega = Form.from_terms(chart, 2, [(("q", "p"), "1")])
    manifold = PreMultisymplecticManifold(chart, 2, omega)
    frame = build_split_frame(
        manifold,
        [VectorField.coordinate(chart, "z")],
        [VectorField.coordinate(chart, "q"), VectorField.coordinate(chart, "p")],
    )
    with pytest.raises(DegreeTooLowError, match="Gotay"):
        build_thickening(manifold, frame)


def test_omega_tilde_is_pullback_plus_exact(thickening4):
    pulled = thickening4.tau.pullback(thickening4.base.omega)
    assert thickening4.omega_tilde == pulled + thickening4.theta0.d()
    # the build lifts by position: the same forms as the tau pullbacks,
    # down to the order of the terms and of every numerator and denominator
    # term
    rational = [_spec_thickening(_golden(n)) for n in ("dw_rational_n3", "dw_quad_n3")]
    for thickening in _thickening_cases(thickening4) + rational:
        tau, big = thickening.tau, thickening.big_chart
        want = tau.pullback(thickening.base.omega) + thickening.theta0.d()
        assert _term_lists(thickening.omega_tilde) == _term_lists(want)
        rows = [
            [(j, e.compose(tau.components)) for j, e in row.items()]
            for row in thickening.frame.rows()
        ]
        rows += [[(i, ScalarExpr.one(big.coords))] for i in range(len(rows), big.dim)]
        for form in (thickening.theta0, thickening.omega_tilde):
            got = Form(big, form.degree, present_in_frame_basis(thickening, form))
            want = Form(big, form.degree, substitute(form.terms.items(), rows))
            assert _term_lists(got) == _term_lists(want)
    # the projection pullback re-expresses omega on the big chart with no
    # fiber differentials and no fiber dependence in the coefficients
    base_dim = thickening4.base_dim
    fiber_names = set(thickening4.fiber_names)
    for idx, coeff in pulled.terms.items():
        assert all(i < base_dim for i in idx)
        for exp in coeff.num.terms:
            assert all(thickening4.big_chart.coords[i] not in fiber_names for i, _ in exp)


def test_r4_thickening_end_to_end():
    chart = Chart("r4", ("x1", "x2", "x3", "x4"))
    omega = Form.from_terms(chart, 3, [(("x1", "x2", "x3"), "1")])
    manifold = PreMultisymplecticManifold(chart, 3, omega)
    frame = build_split_frame(
        manifold,
        [VectorField.coordinate(chart, "x4")],
        [VectorField.coordinate(chart, n) for n in ("x1", "x2", "x3")],
    )
    thickening = build_thickening(manifold, frame)
    assert thickening.big_chart.dim == 7
    assert verify_closed(thickening).verdict == PASS
    assert verify_zero_section_pullback(thickening).verdict == PASS
    cfg = SampleConfig(count=20, seed=1)
    assert verify_nondegenerate(thickening, cfg).verdict == EVIDENCE
    assert verify_coisotropic(thickening, config=SampleConfig(count=10, seed=1)).verdict == EVIDENCE


# -- tautological form ------------------------------------------------------------


def test_theta0_frame_presentation_term_for_term(thickening4):
    # in the coframe presentation, theta_0 is exactly sum_I p_I eta^I: the
    # displayed seven-term expression of the worked example
    coeffs = present_in_frame_basis(thickening4, thickening4.theta0)
    expected = {
        idx: name for idx, name in zip(thickening4.fiber_index, thickening4.fiber_names)
    }
    assert set(coeffs) == set(expected)
    variables = thickening4.big_chart.coords
    for idx, coeff in coeffs.items():
        from plectic.coeff import ScalarExpr

        assert coeff == ScalarExpr.var(variables, expected[idx])


def test_theta0_coordinate_expansion_frozen(thickening4):
    # frozen dq-basis expansion, computed by hand from the coframe monomials:
    # the u-dual covector du - rho_x dx folds a rho_x p_rho_t_u term into the
    # dx^drho_t coefficient
    big = thickening4.big_chart
    expected = Form.from_terms(
        big,
        2,
        [
            (("x", "t"), "p_x_t"),
            (("x", "u"), "p_x_u"),
            (("x", "rho_x"), "p_x_rho_x"),
            (("x", "rho_t"), "p_x_rho_t + rho_x*p_rho_t_u"),
            (("t", "rho_t"), "0 - p_rho_t_t"),
            (("u", "rho_t"), "0 - p_rho_t_u"),
            (("rho_x", "rho_t"), "0 - p_rho_t_rho_x"),
        ],
    )
    assert thickening4.theta0 == expected


def _theta0_by_wedges(thickening):
    """theta_0 summed fiber by fiber, each coframe monomial a chain of wedges."""
    big = thickening.big_chart
    total = Form.zero(big, thickening.base.degree - 1)
    pulled = [thickening.tau.pullback(covector) for covector in thickening.frame.coframe]
    for idx, name in zip(thickening.fiber_index, thickening.fiber_names):
        mono = Form.scalar(big, 1)
        for j in idx:
            mono = mono.wedge(pulled[j])
        total = total + mono * ScalarExpr.var(big.coords, name)
    return total


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name):
    return os.path.join(GOLDEN, name + ".json")


def _build_inputs(path):
    spec = load_spec(path)
    manifold = spec.manifold()
    return manifold, build_split_frame(manifold, spec.vertical, spec.horizontal)


def _spec_thickening(path):
    return build_thickening(*_build_inputs(path))


def _thickening_cases(thickening4):
    return [
        thickening4,
        _spec_thickening(fixture_path("scalar_field_2d.json")),
        _spec_thickening(fixture_path("r4_premultisymplectic.json")),
        _dw3_thickening(),
    ]


def test_theta0_is_the_sum_of_wedged_coframe_monomials(thickening4):
    # one change of basis gives the same form as the wedge-and-add loop, down
    # to the order of the terms and of every numerator and denominator term
    for thickening in _thickening_cases(thickening4):
        expected = _theta0_by_wedges(thickening)
        assert str(thickening.theta0) == str(expected)
        assert [
            (idx, list(c.num.terms.items()), list(c.den.terms.items()))
            for idx, c in thickening.theta0.terms.items()
        ] == [
            (idx, list(c.num.terms.items()), list(c.den.terms.items()))
            for idx, c in expected.terms.items()
        ]


def test_theta0_vanishes_on_zero_section(thickening4):
    pulled = thickening4.zero_section.pullback(thickening4.theta0)
    assert pulled.is_zero()


def _term_lists(form):
    return [
        (idx, list(c.num.terms.items()), list(c.den.terms.items()))
        for idx, c in form.terms.items()
    ]


@pytest.mark.parametrize(
    "path, kept, terms, denominators",
    [
        (fixture_path("scalar_field_2d.json"), 3, 11, 0),
        (os.path.join(GOLDEN, "dw_n3.json"), 7, 45, 0),
        (os.path.join(GOLDEN, "dw_n4.json"), 21, 173, 0),
        (os.path.join(GOLDEN, "dw_rational_n3.json"), 12, 50, 1),
    ],
    ids=["dw_n2", "dw_n3", "dw_n4", "dw_rational_n3"],
)
def test_zero_section_composes_only_the_terms_it_keeps(monkeypatch, path, kept, terms, denominators):
    # the zero section's differential is zero on the fibers, so a term with a
    # fiber factor restricts to zero; only the denominator shared by the
    # dropped rational terms is composed, to test it for a pole
    thickening = _spec_thickening(path)
    omega_tilde = thickening.omega_tilde
    want = _term_lists(pullback_composing_every_term(thickening.zero_section, omega_tilde))
    calls = _counting(monkeypatch, ScalarExpr, "compose")
    pulled = _on_zero_section(thickening, omega_tilde)
    assert _term_lists(pulled) == want
    assert pulled == thickening.base.omega
    assert len(omega_tilde.terms) == terms
    assert calls[0] == kept + denominators
    fibers = {thickening.big_chart.axis(n) for n in thickening.fiber_names}
    assert sum(fibers.isdisjoint(idx) for idx in omega_tilde.terms) == kept
    dropped_rational = [
        c for idx, c in omega_tilde.terms.items() if not fibers.isdisjoint(idx) and not c.den.is_one()
    ]
    assert (len(dropped_rational) > denominators) == bool(denominators)


FRAMED_SPECS = [
    fixture_path(name + ".json")
    for name in ("r4_premultisymplectic", "r5_thickening", "r6_thickening", "scalar_field_2d",
                 "scalar_field_2d_nondegenerate")
] + [
    _golden(name)
    for name in ("dw_n3", "dw_n4", "dw_rational_n3", "dw_rational_n4", "dw_rational_n5",
                 "dw_half_n3", "dw_quad_n3", "dw_rational_n3_u_first", "rational_frame")
]


def test_the_zero_section_restriction_is_the_pullback_composing_every_term():
    # down to the order of the terms and of every numerator and denominator term
    specs = [load_spec(path) for path in FRAMED_SPECS]
    specs = [spec for spec in specs if spec.has_frame()]
    assert len(specs) == 11
    for spec in specs:
        manifold = spec.manifold()
        thickening = build_thickening(
            manifold, build_split_frame(manifold, spec.vertical, spec.horizontal)
        )
        for form in (thickening.omega_tilde, thickening.theta0):
            want = pullback_composing_every_term(thickening.zero_section, form)
            assert _term_lists(_on_zero_section(thickening, form)) == _term_lists(want), spec.path


def test_zero_section_check_raises_on_a_pole_of_a_dropped_term(thickening4):
    # a term with a fiber factor restricts to zero, but 1/p has no value at p = 0
    big, p = thickening4.big_chart, thickening4.fiber_names[0]
    omega_tilde = thickening4.omega_tilde

    def with_term(coefficient):
        extra = Form.from_terms(big, 3, [((p, "t", "x"), coefficient)])
        return thickening4.replace(omega_tilde=omega_tilde + extra)

    for coefficient in (f"1/{p}", f"x/({p}*t + {p})"):
        with pytest.raises(PoleError, match="zero set of the denominator"):
            verify_zero_section_pullback(with_term(coefficient))
    assert verify_zero_section_pullback(with_term(f"1/({p} + 1)")).verdict == PASS


def test_the_zero_section_check_calls_no_pullback(monkeypatch, thickening4):
    thickenings = [thickening4, _spec_thickening(_golden("dw_rational_n3"))]
    pullbacks = _counting(monkeypatch, CoordinateMap, "pullback")
    for thickening in thickenings:
        assert verify_zero_section_pullback(thickening).verdict == PASS
    assert pullbacks[0] == 0


def test_the_frame_is_rendered_once_per_thickening(monkeypatch, thickening4):
    fresh = thickening4.replace()
    calls = _counting(monkeypatch, VectorField, "__str__")
    first = fresh.describe_frame()
    assert calls[0] == 5  # two vertical and three horizontal fields
    second = fresh.describe_frame()
    assert calls[0] == 5
    assert first == second == {
        "vertical_frame": [str(v) for v in thickening4.frame.vertical],
        "horizontal_frame": [str(h) for h in thickening4.frame.horizontal],
    }
    # each call gives new lists, so no two reports share one
    assert first["vertical_frame"] is not second["vertical_frame"]
    assert first["horizontal_frame"] is not second["horizontal_frame"]
    first["vertical_frame"].append("mutated")
    assert fresh.describe_frame() == second


def test_theta0_pointwise_pairing(thickening4):
    # defining property: theta_0 at a bundle point pairs the fiber values
    # against tau-pushforwards of the arguments.  Independent route: evaluate
    # each coframe monomial on the base and combine with the fiber values.
    rng = random.Random(5)
    frame = thickening4.frame
    base_chart = thickening4.base.chart
    for _ in range(10):
        point = [F(rng.randint(-4, 4)) for _ in range(12)]
        vectors = [[F(rng.randint(-3, 3)) for _ in range(12)] for _ in range(2)]
        direct = evaluate(thickening4.theta0, point, vectors)
        base_point = point[:5]
        pushed = [pushforward_vector(thickening4.tau, point, v) for v in vectors]
        paired = F(0)
        for idx, name in zip(thickening4.fiber_index, thickening4.fiber_names):
            p_value = point[thickening4.big_chart.axis(name)]
            monomial = frame.coframe[idx[0]].wedge(frame.coframe[idx[1]])
            paired += p_value * evaluate(monomial, base_point, pushed)
        assert direct == paired


# -- verifier negatives ------------------------------------------------------------


def test_verify_closed_detects_mutation(thickening4):
    big = thickening4.big_chart
    bad = thickening4.omega_tilde + Form.from_terms(big, 3, [(("t", "u", "rho_x"), "x")])
    report = closedness_report(bad)
    assert report.verdict == FAIL
    assert report.witnesses
    assert any("x" in w["index"] for w in report.witnesses)


def test_verify_nondegenerate_fails_on_degenerate_base(manifold4):
    cfg = SampleConfig(count=5, seed=2)
    points = sample_points(5, cfg)
    report = nondegeneracy_report(manifold4.omega, points, cfg)
    assert report.verdict == FAIL
    # witnesses reproduce the known kernel
    for w, p in zip(report.witnesses, points):
        assert w["kernel_dim"] == 2
        rho_x = p[3]
        expected = [
            [F(1), F(0), rho_x, F(0), F(0)],
            [F(0), F(0), F(0), F(0), F(1)],
        ]
        got = [[F(x) for x in v] for v in w["kernel_basis"]]
        assert linalg.subspace_contained(got, expected)
        assert linalg.subspace_contained(expected, got)


def test_verify_nondegenerate_consistent_with_kernel_at(manifold4):
    # the same sample run through kernel_at and the non-degeneracy checker
    point = [F(1), F(2), F(0), F(3), F(1)]
    report = nondegeneracy_report(manifold4.omega, [point])
    assert report.witnesses[0]["kernel_dim"] == len(kernel_at(manifold4, point))


def test_sampled_verifiers_fail_on_empty_point_lists(manifold4, thickening4):
    # EVIDENCE needs at least one evaluated point
    for report in (
        nondegeneracy_report(manifold4.omega, []),
        verify_nondegenerate(thickening4, points=[]),
        verify_coisotropic(thickening4, points=[]),
        splitting.verify_constant_rank(manifold4, points=[]),
    ):
        assert report.verdict == FAIL
        assert [report.details[k] for k in POINT_COUNTS if k in report.details] == [0]
        assert report.witnesses == [{"error": NO_POINTS}]


def test_verify_nondegenerate_reports_the_seed_it_sampled_with(thickening4):
    # one point from [0, 1] with seed 31 lies on the zero section, so the
    # guard resamples; the echoed config must reproduce the point checked
    config = SampleConfig(1, 31, 0, 1)
    big, d = thickening4.big_chart.dim, thickening4.base_dim
    reject = pole_rejector(thickening4.omega_tilde)
    assert not any(sample_points(big, config, reject)[0][d:])
    details = verify_nondegenerate(thickening4, config).details
    used = SampleConfig(details["samples"], details["seed"], *details["coordinate_range"])
    assert used == SampleConfig(1, 32, 0, 1)
    assert any(sample_points(big, used, reject)[0][d:])
    assert details["points_with_nonzero_fiber_part"] == 1


def test_sampled_verifiers_echo_supplied_points_not_a_config(thickening4):
    # explicit points are not sampled, so no sampling config may be echoed
    point = (F(1), F(2), F(0), F(3), F(1)) + (F(0),) * thickening4.fiber_count
    for report in (
        nondegeneracy_report(thickening4.omega_tilde, [point]),
        verify_nondegenerate(thickening4, points=[point]),
        verify_coisotropic(thickening4, points=[point]),
    ):
        assert report.details["points_checked"] == 1
        assert report.details["points_supplied"] == 1
        assert not {"samples", "seed", "coordinate_range"} & set(report.details)


def test_evidence_report_needs_an_evaluated_point():
    for key in ("points_checked", "samples_evaluated"):
        with pytest.raises(ValueError, match="at least one point"):
            VerificationReport("sampled", EVIDENCE, {key: 0}, [], 0.0)
        assert VerificationReport("sampled", EVIDENCE, {key: 1}, [], 0.0).ok
    report = VerificationReport("sampled", FAIL, {"points_checked": 0}, [{"error": "x"}], 0.0)
    assert report.verdict == FAIL
    # a built report is final: its verdict cannot be reassigned
    with pytest.raises(FrozenError):
        report.verdict = EVIDENCE


def test_verify_zero_section_detects_mutated_tautological_form(thickening4):
    big = thickening4.big_chart
    mutated_theta = thickening4.theta0 + Form.from_terms(big, 2, [(("t", "u"), "x")])
    mutated = thickening4.replace(
        theta0=mutated_theta,
        omega_tilde=thickening4.tau.pullback(thickening4.base.omega) + mutated_theta.d(),
    )
    report = verify_zero_section_pullback(mutated)
    assert report.verdict == FAIL
    assert report.witnesses  # the residual d(x dt^du) restricted to the base


def test_coisotropy_informational_at_lower_ell(thickening4):
    # the theorem only speaks about ell = k-1; ell = k-2 = 1 is informational.
    # by orthogonal nesting the ell=1 orthogonal sits inside the ell=2 one,
    # so containment still holds here
    report = verify_coisotropic(thickening4, ell=1, config=SampleConfig(count=3, seed=4))
    assert report.details["ell"] == 1
    assert report.verdict in (EVIDENCE, FAIL)


def test_coisotropy_fail_witnesses_are_the_orthogonal_vectors_off_the_base(thickening4):
    # tau^* omega vanishes along the fibers, so the zero section is not
    # coisotropic for it.  The escaping vectors must be exactly those of the
    # contracted orthogonal (a zero vector forces the general path) that leave
    # the span of the base tangent vectors
    tau_omega = thickening4.tau.pullback(thickening4.base.omega)
    thickening = thickening4.replace(omega_tilde=tau_omega)
    d, big = thickening.base_dim, thickening.big_chart.dim
    tangent = [[F(int(i == j)) for i in range(big)] for j in range(d)]
    for ell in (1, 2):
        report = verify_coisotropic(thickening, ell, SampleConfig(3, 5))
        assert report.verdict == FAIL
        assert len(report.witnesses) == 3
        for witness in report.witnesses:
            point = [F(x) for x in witness["point"]]
            ortho = multisymplectic_orthogonal(tau_omega, point, tangent + [[F(0)] * big], ell)
            escaping = [v for v in ortho if not linalg.subspace_contained([v], tangent)]
            assert escaping
            assert witness["escaping_vectors"] == [[str(x) for x in v] for v in escaping]


def test_verify_nondegenerate_fails_without_an_off_section_sample(thickening4, tmp_path, capsys):
    # every coordinate drawn from [0, 0] puts all samples, and the resample,
    # on the zero section, so nothing away from it would be checked
    report = verify_nondegenerate(thickening4, SampleConfig(3, 0, 0, 0))
    assert report.verdict == FAIL
    assert report.details["points_with_nonzero_fiber_part"] == 0
    assert report.details["seed"] == 1
    assert report.witnesses == [{"error": "no sample point off the zero section"}]
    # supplied points are the caller's choice
    on_section = (F(1), F(2), F(0), F(3), F(1)) + (F(0),) * thickening4.fiber_count
    assert verify_nondegenerate(thickening4, points=[on_section]).verdict == EVIDENCE
    with open(fixture_path("scalar_field_2d.json")) as fh:
        spec = json.load(fh)
    spec["samples"] = {"count": 3, "seed": 0, "coordinate_range": [0, 0]}
    path = tmp_path / "zero_range.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["thicken", str(path), "--json"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    nondeg = next(l for l in lines if l.get("check") == "thickened-form-non-degenerate")
    assert nondeg["verdict"] == FAIL


def test_coisotropy_rejects_off_section_points(thickening4):
    bad_point = tuple([F(0)] * 5 + [F(1)] + [F(0)] * 6)
    with pytest.raises(Exception, match="zero section"):
        verify_coisotropic(thickening4, points=[bad_point])


# -- remark-2 style fixtures ---------------------------------------------------------


def _r5_tilde():
    chart = Chart("r5", ("x1", "x2", "x3", "x4", "x5"))
    return Form.from_terms(
        chart, 3, [(("x1", "x2", "x3"), "1"), (("x1", "x4", "x5"), "1")]
    )


def _r6_tilde():
    chart = Chart("r6", ("x1", "x2", "x3", "x4", "x5", "x6"))
    return Form.from_terms(
        chart,
        3,
        [
            (("x1", "x2", "x3"), "1"),
            (("x1", "x4", "x5"), "1"),
            (("x2", "x4", "x6"), "1"),
        ],
    )


def test_r5_and_r6_fixtures_closed_and_nondegenerate():
    for omega in (_r5_tilde(), _r6_tilde()):
        assert closedness_report(omega).verdict == PASS
        cfg = SampleConfig(count=20, seed=0)
        points = sample_points(omega.chart.dim, cfg)
        assert nondegeneracy_report(omega, points, cfg).verdict == EVIDENCE


def test_degree_four_thickening_on_six_dimensions():
    # higher degree, wider chart: 16 fiber coordinates, 22-dimensional total
    chart = Chart("six", ("a", "b", "c", "d", "e", "f"))
    omega = Form.from_terms(chart, 4, [(("a", "b", "c", "d"), "1")])
    manifold = PreMultisymplecticManifold(chart, 4, omega)
    frame = build_split_frame(
        manifold,
        [VectorField.coordinate(chart, "e"), VectorField.coordinate(chart, "f")],
        [VectorField.coordinate(chart, n) for n in ("a", "b", "c", "d")],
    )
    thickening = build_thickening(manifold, frame)
    assert thickening.fiber_count == math.comb(6, 3) - math.comb(4, 3) == 16
    assert thickening.big_chart.dim == 22
    closed, nondeg, pullback, coiso = verify_all(thickening, SampleConfig(7, 0))
    assert closed.verdict == pullback.verdict == PASS
    assert nondeg.verdict == coiso.verdict == EVIDENCE
    assert nondeg.details["samples"] == 7
    # coisotropy samples half as many points, with the same seed
    assert coiso.details["samples"] == coiso.details["points_checked"] == 3
    assert coiso.details["seed"] == 0
    assert coiso.details["ell"] == 3


def test_frame_labels_fall_back_to_matching():
    # first field claims the only coordinate the second could take greedily;
    # the bipartite matching still finds distinct labels
    chart = Chart("two", ("a", "b"))
    omega = Form.zero(chart, 3)
    manifold = PreMultisymplecticManifold(chart, 3, omega)
    v1 = VectorField.from_mapping(chart, {"a": "1"})
    v2 = VectorField.from_mapping(chart, {"a": "1", "b": "1"})
    frame = build_split_frame(manifold, [v1, v2], [])
    assert frame.labels == ("a", "b")


def test_r5_inclusion_pulls_back_to_base_form():
    # the x5 = 0 inclusion of R^4 recovers the degenerate base form exactly
    from plectic.coeff import ScalarExpr
    from plectic.exterior import CoordinateMap

    omega = _r5_tilde()
    small = Chart("r4", ("x1", "x2", "x3", "x4"))
    inclusion = CoordinateMap(
        small,
        omega.chart,
        [ScalarExpr.var(small.coords, n) for n in small.coords]
        + [ScalarExpr.zero(small.coords)],
    )
    assert inclusion.pullback(omega) == Form.from_terms(
        small, 3, [(("x1", "x2", "x3"), "1")]
    )


# -- work done by the polynomial fast path -------------------------------------


def _dw3_thickening():
    """The DeDonder-Weyl scalar field on 3 base dimensions, thickened (38 dims)."""
    chart = Chart("dw3", ("x1", "x2", "x3", "u", "rho1", "rho2", "rho3"))
    omega = Form.from_terms(
        chart, 4, [(("rho1", "u", "x2", "x3"), "1"), (("rho1", "x1", "x2", "x3"), "-rho1")]
    )
    manifold = PreMultisymplecticManifold(chart, 4, omega)
    vertical = [VectorField.from_mapping(chart, {"x1": "1", "u": "rho1"})] + [
        VectorField.coordinate(chart, n) for n in ("rho2", "rho3")
    ]
    horizontal = [VectorField.coordinate(chart, n) for n in ("x2", "x3", "u", "rho1")]
    return build_thickening(manifold, build_split_frame(manifold, vertical, horizontal))


def _counting(monkeypatch, owner, attr):
    calls = [0]
    original = getattr(owner, attr)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_the_build_composes_no_pullback(monkeypatch):
    paths = [_golden("dw_rational_n3"), _golden("dw_quad_n3"), fixture_path("scalar_field_2d.json")]
    inputs = [_build_inputs(path) for path in paths]
    pullbacks = _counting(monkeypatch, CoordinateMap, "pullback")
    composes = _counting(monkeypatch, ScalarExpr, "compose")
    for manifold, frame in inputs:
        build_thickening(manifold, frame)
    assert pullbacks[0] == composes[0] == 0


def test_d_differentiates_only_along_each_coefficients_support(monkeypatch):
    omega_tilde = _dw3_thickening().omega_tilde
    assert omega_tilde.chart.dim == 38
    expected = sum(len(c.support()) for c in omega_tilde.terms.values())
    calls = _counting(monkeypatch, ScalarExpr, "_diff")
    assert omega_tilde.d().is_zero()
    assert calls[0] == expected < 38 * len(omega_tilde.terms)


def test_check_differentiates_the_form_once(monkeypatch, capsys):
    calls = _counting(monkeypatch, Form, "d")
    spec = os.path.join(os.path.dirname(__file__), "golden", "dw_n3.json")
    assert cli.main(["check", spec, "--samples", "2"]) == 0
    assert "closedness: PASS" in capsys.readouterr().out
    assert calls[0] == 1


def test_coisotropy_samples_avoid_the_poles_of_omega_tilde():
    # the frame inverse divides by x, so omega_tilde has a pole at x = 0 and omega none
    spec = load_spec(os.path.join(os.path.dirname(__file__), "golden", "rational_frame.json"))
    manifold = spec.manifold()
    th = build_thickening(manifold, build_split_frame(manifold, spec.vertical, spec.horizontal))
    assert not pole_rejector(manifold.omega)((F(0),) * 4)
    for seed in range(30):
        report = verify_coisotropic(th, config=SampleConfig(10, seed))
        assert report.verdict == EVIDENCE
        assert report.details["points_checked"] == 10


def test_polynomial_pipeline_runs_no_gcd(monkeypatch, thickening4, manifold4):
    calls = _counting(monkeypatch, coeff, "poly_gcd")
    assert verify_closed(thickening4).verdict == PASS
    base = FiberedChart(manifold4.chart, ("x", "t"))
    thick = FiberedChart(thickening4.big_chart, ("x", "t"), thickening4.fiber_names)
    assert eom_symbolic_system(manifold4.omega, base).equations
    assert eom_symbolic_system(thickening4.omega_tilde, thick).equations
    assert calls[0] == 0


def test_pole_rejector_evaluates_each_distinct_nonconstant_denominator_once(monkeypatch):
    chart = Chart("c3", ("x", "y", "z"))
    form = Form.from_terms(
        chart, 1, [(("x",), "1/(x - 1)"), (("y",), "y/(x - 1)"), (("z",), "3/2 + z/(y + 2)")]
    )
    reject = pole_rejector(form)
    calls = _counting(monkeypatch, coeff.Poly, "evaluate")
    assert reject((F(1), F(0), F(0)))
    assert reject((F(0), F(-2), F(0)))
    assert not reject((F(2), F(3), F(4)))
    assert calls[0] <= 2 * 3
    assert not pole_rejector(Form.from_terms(chart, 1, [(("x",), "x*y - 1/2")]))((F(0),) * 3)


def test_coordinate_subspace_orthogonals_contract_no_tuples(monkeypatch, capsys):
    # both production callers pass unit vectors, whose rows are read off the
    # form's terms; any other basis is contracted tuple by tuple
    calls = _counting(monkeypatch, splitting, "contract_constant")
    report = verify_coisotropic(_dw3_thickening(), config=SampleConfig(count=2, seed=0))
    assert report.verdict == EVIDENCE
    argv = ["orthogonal", fixture_path("r5_thickening.json"), "--submanifold", "x5=0",
            "--ell", "2", "--samples", "3"]
    assert cli.main(argv) == 0
    assert calls[0] == 0
    skew = [[F(1), F(1), F(0), F(0), F(0)], [F(0), F(0), F(1), F(0), F(0)]]
    ortho = multisymplectic_orthogonal(_r5_tilde(), [F(0)] * 5, skew, 2)
    assert calls[0] == 2
    assert len(ortho) == 4  # the one tuple imposes v1 = v2
