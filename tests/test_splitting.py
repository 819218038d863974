import itertools
import json
import os
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from plectic import linalg
from plectic.coeff import ScalarExpr, exact_point
from plectic.errors import PlecticError, PoleError
from plectic.exterior import Chart, Form, PointLayout, VectorField, fill_rows
from plectic.splitting import (
    FrameError,
    NotClosedError,
    PreMultisymplecticManifold,
    build_split_frame,
    contraction_matrix,
    coordinate_orthogonal,
    decompose,
    kernel_at,
    kernel_dimensions,
    multisymplectic_orthogonal,
    verify_constant_rank,
)
from plectic.sampling import SampleConfig, pole_rejector, sample_points

from conftest import evaluate, fixture_path, keyed_rows, random_form, random_poly_expr, random_scalar

F = Fraction


def _chart_r4():
    return Chart("r4", ("x1", "x2", "x3", "x4"))


def _r4_manifold():
    chart = _chart_r4()
    omega = Form.from_terms(chart, 3, [(("x1", "x2", "x3"), "1")])
    return PreMultisymplecticManifold(chart, 3, omega)


def _hamiltonian_form(chart):
    """The non-degenerate companion form on the 5-dimensional phase space."""
    return Form.from_terms(
        chart,
        3,
        [
            (("rho_t", "u", "x"), "1"),
            (("rho_x", "u", "t"), "1"),
            (("rho_t", "x", "t"), "-rho_t"),
            (("rho_x", "x", "t"), "-rho_x"),
        ],
    )


# -- manifold construction ----------------------------------------------------


def test_construction_rejects_non_closed_forms():
    chart = Chart("c", ("x", "y", "z"))
    alpha = Form.from_terms(chart, 2, [(("y", "z"), "x")])
    with pytest.raises(NotClosedError):
        PreMultisymplecticManifold(chart, 2, alpha)


# -- kernel_at ----------------------------------------------------------------


def test_kernel_of_scalar_field_form(manifold4):
    rng = random.Random(0)
    for _ in range(5):
        point = [F(rng.randint(-5, 5)) for _ in range(5)]
        basis = kernel_at(manifold4, point)
        assert len(basis) == 2
        rho_x = point[3]
        expected = [
            [F(1), F(0), rho_x, F(0), F(0)],
            [F(0), F(0), F(0), F(0), F(1)],
        ]
        assert linalg.subspace_contained(basis, expected)
        assert linalg.subspace_contained(expected, basis)


def test_kernel_of_r4_form():
    manifold = _r4_manifold()
    basis = kernel_at(manifold, [1, 2, 3, 4])
    assert len(basis) == 1
    assert linalg.subspace_contained(basis, [[F(0), F(0), F(0), F(1)]])


def test_kernel_of_nondegenerate_form(chart4):
    manifold = PreMultisymplecticManifold(chart4, 3, _hamiltonian_form(chart4))
    # oracle: exact rank of the nonzero rows of the 10x5 contraction matrix
    point = [2, -1, 3, 1, 4]
    rows, _ = keyed_rows(manifold.omega, point)
    assert len(rows) == 9 and all(max(row) < 5 for row in rows)
    assert linalg.rank(rows, 5) == 5
    peeled, units = contraction_matrix(manifold.omega, point)
    assert linalg.rank(peeled, 5, units) == 5
    assert kernel_at(manifold, point) == []


def test_contraction_matrix_keeps_only_nonzero_rows():
    # oracle: column v of the full matrix is i_{e_v} of the constant form
    from plectic.exterior import contract_constant

    rng = random.Random(8)
    chart = Chart("c6", tuple(f"y{i}" for i in range(6)))
    for degree in (2, 3, 4):
        form = random_form(rng, chart, degree, max_terms=4)
        point = [F(rng.randint(-3, 3)) for _ in range(6)]
        consts = form.eval_coefficients(point)
        columns = [contract_constant([F(int(i == v)) for i in range(6)], consts) for v in range(6)]
        full = {
            rest: [columns[v].get(rest, F(0)) for v in range(6)]
            for rest in itertools.combinations(range(6), degree - 1)
        }
        rows, indices = keyed_rows(form, point)
        assert indices == [rest for rest, row in full.items() if any(row)]
        assert rows == [linalg.sparse(full[rest]) for rest in indices]
        assert all(row and all(row.values()) and max(row) < 6 for row in rows)
        peeled, units = contraction_matrix(form, point)
        assert all(row and all(row.values()) for row in peeled)
        assert linalg.rref(peeled, 6, units) == linalg.rref(rows, 6)


def test_rref_of_a_dw_n3_contraction_matrix_holds_only_ints():
    # every DW contraction entry at an integer point is an int, and the
    # rows with one entry, and those left with one once the unit columns are
    # deleted, reach full rank: each rref is the identity, in int 1s, and
    # equals the rref of the matrix of Fractions
    from plectic.manifoldspec import load_spec
    from plectic.thicken import build_thickening

    spec = load_spec(os.path.join(os.path.dirname(__file__), "golden", "dw_n3.json"))
    manifold = spec.manifold()
    omega = build_thickening(
        manifold, build_split_frame(manifold, spec.vertical, spec.horizontal)
    ).omega_tilde
    dim = omega.chart.dim
    int_only = []
    for n, point in enumerate(sample_points(dim, SampleConfig(8, 3), pole_rejector(omega))):
        rows, _ = keyed_rows(omega, point)
        assert all(type(x) is int for row in rows for x in row.values())
        reduced = linalg.rref(rows, dim)
        assert reduced == linalg.rref([{j: F(x) for j, x in row.items()} for row in rows], dim)
        assert reduced == {q: {q: 1} for q in range(dim)}
        if all(type(x) is int for row in reduced.values() for x in row.values()):
            int_only.append(n)
    assert int_only == list(range(8))


def test_kernel_dimension_invariant_under_relabeling(manifold4):
    # same form with the coordinates named differently
    renamed = Chart("renamed", ("a", "b", "c", "d", "e"))
    relabel = [ScalarExpr.var(renamed.coords, n) for n in renamed.coords]
    omega = Form(
        renamed,
        3,
        {idx: coeff.compose(relabel) for idx, coeff in manifold4.omega.terms.items()},
    )
    relabeled = PreMultisymplecticManifold(renamed, 3, omega)
    point = [1, 2, 3, 4, 5]
    assert len(kernel_at(relabeled, point)) == len(kernel_at(manifold4, point))


# -- constant-rank sampling ----------------------------------------------------


def test_constant_rank_scalar_field(manifold4):
    report = verify_constant_rank(manifold4, config=SampleConfig(count=50, seed=0))
    assert report.verdict == "EVIDENCE"
    assert report.details["kernel_dimensions"] == [2]


def test_constant_rank_detects_rank_jumps():
    chart = _chart_r4()
    omega = Form.from_terms(chart, 3, [(("x1", "x2", "x3"), "x1")])
    manifold = PreMultisymplecticManifold(chart, 3, omega)
    on_wall = (F(0), F(1), F(2), F(3))     # kernel dim 4 where x1 = 0
    off_wall = (F(1), F(1), F(2), F(3))    # kernel dim 1 elsewhere
    report = verify_constant_rank(manifold, points=[on_wall, off_wall])
    assert report.verdict == "FAIL"
    assert {w["kernel_dim"] for w in report.witnesses} == {1, 4}


def test_constant_rank_accepts_decimal_and_float_points():
    chart = _chart_r4()
    omega = Form.from_terms(chart, 3, [(("x1", "x2", "x3"), "x1")])
    manifold = PreMultisymplecticManifold(chart, 3, omega)
    on_wall = (Decimal("0"), 1.5, 2, 3)
    off_wall = (Decimal("0.1"), 1.5, 2, 3)
    report = verify_constant_rank(manifold, points=[on_wall, off_wall])
    assert report.verdict == "FAIL"
    assert {w["kernel_dim"] for w in report.witnesses} == {1, 4}


def test_constant_rank_r4():
    report = verify_constant_rank(_r4_manifold(), config=SampleConfig(count=20, seed=3))
    assert report.verdict == "EVIDENCE"
    assert report.details["kernel_dimensions"] == [1]


def test_constant_rank_skips_poles():
    chart = Chart("c", ("x", "y", "z"))
    omega = Form.from_terms(chart, 2, [(("y", "z"), "1/y")])  # closed, pole at y=0
    manifold = PreMultisymplecticManifold(chart, 2, omega)
    pole = (F(1), F(0), F(1))
    good = (F(1), F(1), F(1))
    report = verify_constant_rank(manifold, points=[pole, good])
    assert report.details["samples_skipped_at_poles"] == [["1", "0", "1"]]
    assert report.details["samples_evaluated"] == 1


def test_constant_rank_counts_repeated_samples():
    # a point drawn twice is two evaluated samples; the witnesses are still
    # the first point seen at each kernel dimension
    chart = _chart_r4()
    omega = Form.from_terms(chart, 3, [(("x1", "x2", "x3"), "x1")])
    manifold = PreMultisymplecticManifold(chart, 3, omega)
    on_wall, off_wall = (F(0), F(1), F(2), F(3)), (F(1), F(1), F(2), F(3))
    other = (F(2), F(1), F(2), F(3))
    report = verify_constant_rank(manifold, points=[off_wall, on_wall, off_wall, other])
    assert report.details["samples_evaluated"] == 4
    assert report.details["kernel_dimensions"] == [1, 4]
    assert report.witnesses == [
        {"point": ["1", "1", "2", "3"], "kernel_dim": 1},
        {"point": ["0", "1", "2", "3"], "kernel_dim": 4},
    ]
    same = verify_constant_rank(manifold, points=[off_wall, off_wall])
    assert same.verdict == "EVIDENCE"
    assert same.details["samples_evaluated"] == 2


# -- frames --------------------------------------------------------------------


def test_scalar_field_frame_coframe(frame4, chart4):
    # the theta block is {dx, drho_t}; the u-dual picks up the -rho_x dx term
    assert frame4.vertical_coframe[0] == Form.d_coord(chart4, "x")
    assert frame4.vertical_coframe[1] == Form.d_coord(chart4, "rho_t")
    assert frame4.horizontal_coframe[0] == Form.d_coord(chart4, "t")
    assert frame4.horizontal_coframe[1] == Form.from_terms(
        chart4, 1, [(("u",), "1"), (("x",), "-rho_x")]
    )
    assert frame4.horizontal_coframe[2] == Form.d_coord(chart4, "rho_x")
    assert frame4.labels == ("x", "rho_t", "t", "u", "rho_x")


def test_frame_duality_identity(frame4):
    fields = frame4.fields
    coframe = frame4.coframe
    for i, eta in enumerate(coframe):
        for j, field in enumerate(fields):
            pairing = eta.interior(field)
            expected = Form.scalar(frame4.chart, int(i == j))
            assert pairing == expected


def test_adapted_coordinate_frame_gives_coordinate_coframe():
    manifold = _r4_manifold()
    chart = manifold.chart
    vertical = [VectorField.coordinate(chart, "x4")]
    horizontal = [VectorField.coordinate(chart, n) for n in ("x1", "x2", "x3")]
    frame = build_split_frame(manifold, vertical, horizontal)
    assert frame.vertical_coframe[0] == Form.d_coord(chart, "x4")
    assert [str(f) for f in frame.horizontal_coframe] == ["dx1", "dx2", "dx3"]
    assert frame.labels == ("x4", "x1", "x2", "x3")


def test_frame_rejects_vertical_not_in_kernel(manifold4):
    chart = manifold4.chart
    bad_vertical = [
        VectorField.coordinate(chart, "u"),
        VectorField.coordinate(chart, "rho_t"),
    ]
    horizontal = [VectorField.coordinate(chart, n) for n in ("t", "x", "rho_x")]
    with pytest.raises(FrameError, match="not in the kernel"):
        build_split_frame(manifold4, bad_vertical, horizontal)


def test_frame_rejects_dependent_fields(manifold4):
    chart = manifold4.chart
    v1 = VectorField.from_mapping(chart, {"x": "1", "u": "rho_x"})
    vertical = [v1, VectorField.coordinate(chart, "rho_t")]
    horizontal = [
        VectorField.coordinate(chart, "t"),
        VectorField.coordinate(chart, "t"),  # repeated: not independent
        VectorField.coordinate(chart, "rho_x"),
    ]
    with pytest.raises(FrameError, match="frame"):
        build_split_frame(manifold4, vertical, horizontal)


def test_frame_rejects_wrong_counts(manifold4):
    chart = manifold4.chart
    with pytest.raises(FrameError, match="dim"):
        build_split_frame(
            manifold4,
            [VectorField.coordinate(chart, "rho_t")],
            [VectorField.coordinate(chart, "t")],
        )


# -- decomposition --------------------------------------------------------------


def test_scalar_field_form_is_purely_horizontal(manifold4, frame4):
    # independent oracle: apply omega to R-projected coordinate fields.
    # R projects along the kernel onto the chosen complement, so a form that
    # annihilates the kernel must equal its R-parallel part exactly.
    chart = manifold4.chart
    split = decompose(manifold4.omega, frame4, "R")
    projected = _project_form(manifold4.omega, frame4, "R")
    assert split.parallel == projected
    assert split.parallel == manifold4.omega
    assert split.transversal.is_zero()


def test_scalar_field_form_has_no_vertical_part(manifold4, frame4):
    split = decompose(manifold4.omega, frame4, "P")
    assert split.parallel.is_zero()
    assert split.transversal == manifold4.omega


def _project_form(form, frame, which):
    """alpha(Pi ., ..., Pi .) computed coefficient-wise via projected fields.

    Independent route: build the projector Pi = sum_j field_j (x) coframe_j
    over the selected block, apply it to every coordinate field, and read the
    coefficients alpha_I = alpha(Pi e_i1, ..., Pi e_ik) off by iterated
    contraction.
    """
    chart = form.chart
    fields = frame.fields
    r = frame.r
    selected = range(r) if which == "P" else range(r, chart.dim)
    projected_fields = []
    for axis in range(chart.dim):
        comps = [frame.chart.scalar(0) for _ in range(chart.dim)]
        for j in selected:
            weight = frame.coframe[j].coefficient((axis,))
            for i, c in enumerate(fields[j].components):
                comps[i] = comps[i] + weight * c
        projected_fields.append(VectorField(chart, comps))
    entries = []
    for idx in itertools.combinations(range(chart.dim), form.degree):
        current = form
        for i in idx:  # alpha(v1, ..., vk) = i_vk ... i_v1 alpha
            current = current.interior(projected_fields[i])
        coeff = current.terms.get((), None)
        if coeff is not None:
            entries.append((idx, coeff))
    return Form.from_terms(chart, form.degree, entries)


def test_decompose_partition_and_idempotence(manifold4, frame4):
    rng = random.Random(71)
    chart = manifold4.chart
    for _ in range(10):
        alpha = random_form(rng, chart, rng.randint(1, 3))
        for which in ("P", "R"):
            split = decompose(alpha, frame4, which)
            assert split.parallel + split.transversal == alpha
            again = decompose(split.parallel, frame4, which)
            assert again.transversal.is_zero()
            assert again.parallel == split.parallel


def test_decompose_degree_above_horizontal_count(frame4, manifold4):
    # degree 4 > 3 horizontal directions: no pure-horizontal monomials exist
    rng = random.Random(73)
    alpha = random_form(rng, manifold4.chart, 4)
    split = decompose(alpha, frame4, "R")
    assert split.parallel.is_zero()
    assert split.transversal == alpha


def test_vertical_frame_fields_annihilate_omega(frame4, manifold4):
    for v in frame4.vertical:
        assert manifold4.omega.interior(v).is_zero()


# -- multisymplectic orthogonal --------------------------------------------------


def _r5_form():
    chart = Chart("r5", ("x1", "x2", "x3", "x4", "x5"))
    return Form.from_terms(
        chart, 3, [(("x1", "x2", "x3"), "1"), (("x1", "x4", "x5"), "1")]
    )


def test_orthogonal_full_space_when_ell_exceeds_basis():
    omega = _r5_form()
    basis = [[F(int(i == j)) for i in range(5)] for j in range(2)]
    ortho = multisymplectic_orthogonal(omega, [0] * 5, basis, 3)
    assert len(ortho) == 5


def test_orthogonal_nesting():
    rng = random.Random(79)
    chart = Chart("c4", ("a", "b", "c", "d"))
    for _ in range(15):
        omega = random_form(rng, chart, 3, max_terms=3)
        point = [F(rng.randint(-3, 3)) for _ in range(4)]
        nb = [
            [F(rng.randint(-2, 2)) for _ in range(4)]
            for _ in range(rng.randint(1, 3))
        ]
        o1 = multisymplectic_orthogonal(omega, point, nb, 1)
        o2 = multisymplectic_orthogonal(omega, point, nb, 2)
        assert linalg.subspace_contained(o1, o2)


def _brute_force_orthogonal(omega, point, nb, ell):
    # rows V -> omega(V, W..., e_rest...) read off conftest's evaluate, which
    # goes through its own determinant rather than through term contraction
    dim, k = omega.chart.dim, omega.degree
    units = [[F(int(i == j)) for i in range(dim)] for j in range(dim)]
    rows = []
    if ell < k:
        for ws in itertools.combinations(nb, ell):
            for rest in itertools.combinations(units, k - 1 - ell):
                rows.append(linalg.sparse(
                    [evaluate(omega, point, [units[v], *ws, *rest]) for v in range(dim)]
                ))
    return linalg.kernel_basis(rows, dim)


def _unit_basis(rng, dim):
    """Scaled unit vectors on random axes in random order, sometimes one axis twice."""
    axes = rng.sample(range(dim), rng.randint(1, dim))
    if rng.random() < 0.3:
        axes.append(axes[0])
    return [
        [F(rng.choice((1, 2, -3, F(1, 2)))) * (i == a) for i in range(dim)]
        for a in axes
    ]


def test_orthogonal_matches_brute_force_evaluation():
    # every basis is contracted tuple by tuple, and a zero vector, which adds
    # nothing to the span, must leave the list as it is; on a unit basis,
    # coordinate_orthogonal reads the same list off the terms, given the axes
    rng = random.Random(83)
    chart = Chart("c5", ("a", "b", "c", "d", "e"))
    zero = [F(0)] * 5
    proper = {"general": 0, "unit": 0}
    for trial in range(100):
        k = 3 + trial % 2
        omega = random_form(rng, chart, k, max_terms=8, rational=trial % 4 >= 2)
        point = [F(rng.randint(-3, 3)) for _ in range(5)]
        if pole_rejector(omega)(point):
            continue
        bases = {
            "general": [
                [F(rng.randint(-2, 2)) for _ in range(5)]
                for _ in range(rng.randint(1, 3))
            ],
            "unit": _unit_basis(rng, 5),
        }
        for kind, nb in bases.items():
            ell = rng.randint(1, k + 1)
            expected = _brute_force_orthogonal(omega, point, nb, ell)
            ortho = multisymplectic_orthogonal(omega, point, nb, ell)
            assert len(ortho) == len(expected)
            assert linalg.subspace_contained(ortho, expected)
            assert linalg.subspace_contained(expected, ortho)
            assert ortho == multisymplectic_orthogonal(omega, point, nb + [zero], ell)
            if kind == "unit":
                axes = [next(j for j, x in enumerate(w) if x) for w in nb]
                assert ortho == coordinate_orthogonal(omega, point, axes, ell)
            proper[kind] += len(ortho) < 5
    assert min(proper.values()) >= 20, proper


def test_r4_inside_r5_is_2_coisotropic_at_origin():
    omega = _r5_form()
    tangent = [[F(int(i == j)) for i in range(5)] for j in range(4)]
    ortho = multisymplectic_orthogonal(omega, [0] * 5, tangent, 2)
    # hand computation: conditions v1 = v2 = v3 = v5 = 0 (from the pairs
    # (e2,e3), (e1,e3), (e1,e2), (e1,e4)), so the orthogonal is span{e4},
    # the base form's kernel direction -- safely inside the tangent space
    assert len(ortho) == 1
    assert linalg.subspace_contained(ortho, [tangent[3]])
    assert linalg.subspace_contained([tangent[3]], ortho)
    assert linalg.subspace_contained(ortho, tangent)


# -- the pointwise layout ------------------------------------------------------
# contraction_matrix and coordinate_orthogonal fill row layouts that each form
# builds once; the references below evaluate every coefficient at every point
# and build the rows from the nonzero values.  keyed_rows (conftest) fills the
# full ell = 0 layout, with no peel, and its keys.


def _reference_values(form, point):
    point = exact_point(point)
    return {idx: v for idx, c in form.terms.items() if (v := c.evaluate(point))}


def _reference_rows(cterms):
    by_rest = {}
    for idx, c in cterms.items():
        for pos, axis in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            by_rest.setdefault(rest, {})[axis] = c if pos % 2 == 0 else -c
    return by_rest


def _reference_contraction_matrix(form, point):
    by_rest = _reference_rows(_reference_values(form, point))
    row_indices = sorted(by_rest)
    return [by_rest[rest] for rest in row_indices], row_indices


def _reference_coordinate_orthogonal(form, point, axes, ell):
    axes = set(axes)
    contracted = {}
    for idx, c in _reference_values(form, point).items():
        inside = [pos for pos, axis in enumerate(idx) if axis in axes]
        for s in itertools.combinations(inside, ell):
            parity = sum(s) - ell * (ell - 1) // 2
            w = tuple([idx[pos] for pos in s])
            rest = tuple([axis for axis in idx if axis not in w])
            contracted.setdefault(w, {})[rest] = -c if parity % 2 else c
    rows = [row for cterms in contracted.values() for row in _reference_rows(cterms).values()]
    return linalg.kernel_basis(rows, form.chart.dim)


def _or_pole(fn, *args):
    try:
        return fn(*args)
    except PoleError:
        return PoleError


def _mixed_form(rng, chart, degree, rational):
    """Up to six terms, about half of them constant (some of them Fractions)."""
    entries = []
    for _ in range(rng.randint(1, 6)):
        idx = rng.sample(range(chart.dim), degree)
        if rng.random() < 0.5:
            coeff = ScalarExpr.const(chart.coords, F(rng.choice((1, -2, 3)), rng.choice((1, 1, 2))))
        else:
            coeff = (random_scalar if rational else random_poly_expr)(rng, chart.coords)
            coeff = coeff * ScalarExpr.var(chart.coords, rng.choice(chart.coords))
        entries.append((idx, coeff))
    return Form.from_terms(chart, degree, entries)


def test_layout_rows_match_evaluating_every_coefficient():
    rng = random.Random(26)
    chart = Chart("c5", tuple(f"y{i}" for i in range(5)))
    subsets = [s for r in range(6) for s in itertools.combinations(range(5), r)]
    vanished = poles = orthogonals = 0
    for trial in range(60):
        form = _mixed_form(rng, chart, rng.randint(1, 4), rational=trial % 2 == 1)
        for _ in range(3):
            # zero-heavy points, where non-constant coefficients vanish
            point = [rng.choice((0, 0, 0, 1, -1, -2, F(1, 2))) for _ in range(5)]
            want = _or_pole(_reference_contraction_matrix, form, point)
            got = _or_pole(keyed_rows, form, point)
            assert repr(got) == repr(want), (trial, point)
            if want is PoleError:
                poles += 1
                with pytest.raises(PoleError):
                    contraction_matrix(form, point)
                continue
            rows, units = contraction_matrix(form, point)
            assert linalg.rref(rows, 5, units) == linalg.rref(want[0], 5)
            assert form.eval_coefficients(point) == _reference_values(form, point)
            vanished += len(_reference_values(form, point)) < len(form.terms)
            for axes in subsets:
                for ell in range(1, form.degree + 2):
                    ortho = coordinate_orthogonal(form, point, axes, ell)
                    expected = _reference_coordinate_orthogonal(form, point, axes, ell)
                    assert ortho == expected, (trial, point, axes, ell)
                    assert [[str(x) for x in v] for v in ortho] == [
                        [str(x) for x in v] for v in expected
                    ]
                    orthogonals += 0 < len(ortho) < 5
    assert vanished >= 40 and poles >= 3 and orthogonals >= 2000, (vanished, poles, orthogonals)


def test_layout_raises_pole_error_at_a_pole():
    chart = Chart("c3", ("x", "y", "z"))
    form = Form.from_terms(chart, 2, [(("x", "y"), "2"), (("y", "z"), "y/(x - 1)")])
    assert keyed_rows(form, [0, 1, 0])[1] == [(0,), (1,), (2,)]
    for point in ([1, 1, 0], [F(1), 0, 5]):
        with pytest.raises(PoleError):
            contraction_matrix(form, point)
        with pytest.raises(PoleError):
            coordinate_orthogonal(form, point, [0], 1)
        with pytest.raises(PoleError):
            form.eval_coefficients(point)
        assert pole_rejector(form)(point)
    with pytest.raises(linalg.DimensionMismatchError):
        contraction_matrix(Form.from_terms(chart, 1, [(("x",), "3")]), [0, 0])


# -- the layout's unit peel ---------------------------------------------------
# PointLayout.peeled finds the unit columns of a row layout from its
# coefficients with a constant numerator; each point fills only the rows
# left, and linalg.rref starts from the units.  The references fill every row
# at the point.


def _spec_forms():
    """(name, form, base axes) of every fixture and golden spec's form and,
    where the spec has a frame, of its thickened form."""
    from plectic.manifoldspec import load_spec
    from plectic.thicken import build_thickening

    fixtures = os.path.dirname(fixture_path("scalar_field_2d.json"))
    golden = os.path.join(os.path.dirname(__file__), "golden")
    paths = [os.path.join(fixtures, name) for name in sorted(os.listdir(fixtures))]
    paths += [
        os.path.join(golden, name)
        for name in sorted(os.listdir(golden))
        if name.endswith(".json") and not name.startswith("section_")
    ]
    for path in paths:
        spec = load_spec(path)
        manifold = spec.manifold()
        name = os.path.basename(path)
        yield name, manifold.omega, ()
        if spec.has_frame():
            frame = build_split_frame(manifold, spec.vertical, spec.horizontal)
            thickening = build_thickening(manifold, frame)
            yield name + " thickened", thickening.omega_tilde, range(thickening.base_dim)


def _peel_points(form, base_axes, seed):
    """Seeded points, and the same points with variables of the non-constant
    coefficients set to 0 (one at a time, a few, and all of them) and, on a
    thickened chart, with the fibers set to 0."""
    rng = random.Random(seed)
    dim = form.chart.dim
    support = sorted({axis for _, c in form.point_layout().variable for axis in c.support()})
    for point in sample_points(dim, SampleConfig(2, seed)):
        yield point
        for axes in [[a] for a in rng.sample(support, min(4, len(support)))] + [support]:
            yield [0 if axis in axes else x for axis, x in enumerate(point)]
        if base_axes:
            yield [x if axis in base_axes else 0 for axis, x in enumerate(point)]


def _check_the_peel(form, point, axes, ell):
    """Asserts the rref from the layout's units and the rows left equals that
    of the full rows at the point; returns whether a non-constant coefficient
    vanished there, or None at a pole."""
    layout = form.point_layout()
    try:
        values = layout.values(point)
    except PoleError:
        with pytest.raises(PoleError):
            contraction_matrix(form, point, axes, ell)
        return None
    full, _ = fill_rows(layout.rows(axes, ell), values)
    rows, units = contraction_matrix(form, point, axes, ell)
    dim = form.chart.dim
    assert linalg.rref(rows, dim, units) == linalg.rref(full, dim), (point, axes, ell)
    assert len(rows) <= len(full) and set(units) == set(layout.peeled(axes, ell)[0])
    return any(not values[t] for t, _ in layout.variable)


def _peel_cases(form, base_axes, rng):
    yield (), 0
    if base_axes:
        yield base_axes, form.degree - 1
    for ell in range(1, form.degree):
        size = min(form.chart.dim, ell + 2)
        yield sorted(rng.sample(range(form.chart.dim), size)), ell


def test_the_peel_gives_the_rref_of_the_full_rows_on_every_spec():
    rng = random.Random(35)
    vanished = poles = unit_forms = 0
    for name, form, base_axes in _spec_forms():
        unit_forms += bool(form.point_layout().peeled((), 0)[0])
        for axes, ell in _peel_cases(form, base_axes, rng):
            for point in _peel_points(form, base_axes, rng.randint(0, 999)):
                result = _check_the_peel(form, point, axes, ell)
                poles += result is None
                vanished += bool(result)
    assert vanished >= 300 and poles >= 1 and unit_forms >= 20, (vanished, poles, unit_forms)


def test_the_peel_gives_the_rref_of_the_full_rows_on_random_forms():
    rng = random.Random(351)
    chart = Chart("c5", tuple(f"y{i}" for i in range(5)))
    vanished = with_units = 0
    for trial in range(80):
        degree = rng.randint(1, 4)
        if trial % 2:
            form = _mixed_form(rng, chart, degree, rational=trial % 4 == 1)
        else:
            form = random_form(rng, chart, degree, max_terms=5, rational=trial % 4 == 2)
        with_units += bool(form.point_layout().peeled((), 0)[0])
        for axes, ell in _peel_cases(form, (), rng):
            for point in _peel_points(form, (), trial):
                vanished += bool(_check_the_peel(form, point, axes, ell))
    assert vanished >= 100 and with_units >= 20, (vanished, with_units)


def test_a_variable_single_entry_is_never_a_unit():
    # x dx^dy^dz has one entry a row, each x: at x = 0 every vector is in
    # the kernel
    chart = Chart("r3", ("x", "y", "z"))
    manifold = PreMultisymplecticManifold(chart, 3, Form.from_terms(chart, 3, [(("x", "y", "z"), "x")]))
    units, rest = manifold.omega.point_layout().peeled((), 0)
    assert units == () and len(rest) == 3
    assert kernel_dimensions(manifold, [[0, 1, 1], [1, 1, 1], [0, F(1, 2), 3]]) == [3, 0, 3]
    assert len(kernel_at(manifold, [0, 2, 5])) == 3
    assert coordinate_orthogonal(manifold.omega, [0, 1, 1], [0], 1) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]
    ]
    assert coordinate_orthogonal(manifold.omega, [2, 1, 1], [0], 1) == [[1, 0, 0]]


def test_a_constant_numerator_is_a_unit():
    # (1/x) dx^dy^dz is nonzero wherever it is defined, so its rows peel to
    # every column, and at x = 0 the pole still raises
    chart = Chart("r3", ("x", "y", "z"))
    manifold = PreMultisymplecticManifold(chart, 3, Form.from_terms(chart, 3, [(("x", "y", "z"), "1/x")]))
    units, rest = manifold.omega.point_layout().peeled((), 0)
    assert sorted(units) == [0, 1, 2] and rest == []
    assert kernel_at(manifold, [1, 2, 3]) == []
    with pytest.raises(PoleError):
        kernel_at(manifold, [0, 2, 3])
    with pytest.raises(PoleError):
        coordinate_orthogonal(manifold.omega, [0, 1, 1], [0], 1)
    assert kernel_dimensions(manifold, [[0, 1, 1], [F(1, 2), 1, 1]]) == [None, 0]


@pytest.mark.parametrize(
    "name",
    ("dw_rational_n3", "dw_rational_n3_u_first", "dw_quad_n3", "dw_rational_n4", "dw_rational_n5", "rational_frame"),
)
def test_the_rational_golden_thickenings_peel_every_non_degeneracy_row(name):
    # coefficients with a variable denominator over a constant numerator are
    # units; a peel on the constant coefficients alone leaves 1 to 205 rows
    from plectic.manifoldspec import load_spec
    from plectic.thicken import build_thickening

    spec = load_spec(os.path.join(os.path.dirname(__file__), "golden", name + ".json"))
    manifold = spec.manifold()
    thickening = build_thickening(manifold, build_split_frame(manifold, spec.vertical, spec.horizontal))
    units, rest = thickening.omega_tilde.point_layout().peeled((), 0)
    assert sorted(units) == list(range(thickening.big_chart.dim)) and rest == []


def test_a_pole_in_unit_columns_still_raises():
    from plectic.thicken import nondegeneracy_report

    # the entries of 1/x lie in unit columns, so no row a point fills holds it
    chart = Chart("r4", ("x", "y", "z", "w"))
    omega = Form.from_terms(chart, 2, [(("x", "y"), "1"), (("z", "w"), "1"), (("x", "z"), "1/x")])
    manifold = PreMultisymplecticManifold(chart, 2, omega)
    layout = omega.point_layout()
    for axes, ell in (((), 0), (range(4), 1)):
        units, rest = layout.peeled(axes, ell)
        assert sorted(units) == [0, 1, 2, 3] and rest == []
    pole, regular = [0, 1, 2, 3], [1, 1, 2, 3]
    assert kernel_at(manifold, regular) == []
    with pytest.raises(PoleError):
        kernel_at(manifold, pole)
    with pytest.raises(PoleError):
        nondegeneracy_report(omega, [regular, pole])
    with pytest.raises(PoleError):
        coordinate_orthogonal(omega, pole, range(4), 1)
    assert kernel_dimensions(manifold, [pole, regular]) == [None, 0]
    assert nondegeneracy_report(omega, [regular]).verdict == "EVIDENCE"


def _count_layouts(monkeypatch):
    built = []
    original = PointLayout.__init__

    def counted(self, form):
        built.append(form)
        original(self, form)

    monkeypatch.setattr(PointLayout, "__init__", counted)
    return built


def test_each_form_builds_its_layout_once(monkeypatch):
    chart = Chart("c4", ("a", "b", "c", "d"))
    form = Form.from_terms(
        chart, 3, [(("a", "b", "c"), "2"), (("a", "b", "d"), "a*b"), (("b", "c", "d"), "-1/2")]
    )
    built = _count_layouts(monkeypatch)
    calls = [0]
    evaluate = ScalarExpr.evaluate

    def counted(self, point):
        calls[0] += 1
        return evaluate(self, point)

    monkeypatch.setattr(ScalarExpr, "evaluate", counted)
    pole_rejector(form)
    layout = form.point_layout()
    assert built == [form] and calls[0] == 2  # the constants, once
    contraction = layout.peeled((), 0)
    orthogonal = layout.peeled([0, 1], 2)
    for point in ([1, 2, 3, 4], [0, 1, 0, 1], [F(1, 2), 3, 0, -1]):
        calls[0] = 0
        rows, units = contraction_matrix(form, point)
        assert calls[0] == 1  # the one non-constant coefficient
        want = _reference_contraction_matrix(form, point)
        assert keyed_rows(form, point) == want
        assert linalg.rref(rows, 4, units) == linalg.rref(want[0], 4)
        assert coordinate_orthogonal(form, point, range(2), 2) == (
            _reference_coordinate_orthogonal(form, point, [0, 1], 2)
        )
        form.eval_coefficients(point)
    assert built == [form]
    assert form.point_layout() is layout
    assert layout.peeled((), 0) is contraction
    assert layout.peeled((1, 0), 2) is orthogonal
    assert layout.peeled([0, 1], 1) is not orthogonal
    # the layout keeps (units, the rows left) per axes and ell, and no full rows
    assert [len(entry) for entry in layout._rows.values()] == [2, 2, 2]


def test_a_warm_form_makes_a_pole_rejector_without_scanning_its_terms(monkeypatch):
    chart = Chart("c3", ("x", "y", "z"))
    form = Form.from_terms(chart, 1, [(("x",), "1/(x - 1)"), (("y",), "3"), (("z",), "z")])
    form.point_layout()
    calls = [0]
    is_const = ScalarExpr.is_const

    def counted(self):
        calls[0] += 1
        return is_const(self)

    monkeypatch.setattr(ScalarExpr, "is_const", counted)
    reject = pole_rejector(form)
    assert calls[0] == 0
    assert reject((1, 0, 0)) and not reject((2, 0, 0))


def test_building_a_thickening_builds_no_layout(monkeypatch, manifold4, frame4):
    from plectic.thicken import build_thickening

    built = _count_layouts(monkeypatch)
    thickening = build_thickening(manifold4, frame4)
    assert built == []
    for form in (thickening.omega_tilde, thickening.theta0):
        assert getattr(form, "_layout", None) is None


def test_forms_with_the_same_indices_share_no_layout():
    chart = Chart("c3", ("x", "y", "z"))
    idx = [("x", "y"), ("x", "z"), ("y", "z")]
    forms = [
        Form.from_terms(chart, 2, zip(idx, ("2", "x", "-1"))),
        Form.from_terms(chart, 2, zip(idx, ("5", "1/2", "y*z"))),
        Form.from_terms(chart, 2, zip(idx, ("x*y", "7", "-3"))),
    ]
    point = [1, 2, 3]
    for form in forms:
        assert keyed_rows(form, point) == _reference_contraction_matrix(form, point)
        for axes in ([0], [1, 2], [0, 1, 2]):
            assert coordinate_orthogonal(form, point, axes, 1) == (
                _reference_coordinate_orthogonal(form, point, axes, 1)
            )
    layouts = [form.point_layout() for form in forms]
    assert len({id(layout) for layout in layouts}) == 3
    assert [layout.constants for layout in layouts] == [[2, 0, -1], [5, F(1, 2), 0], [0, 7, -3]]


def test_sampled_reports_from_a_cold_and_a_warm_layout_are_identical(manifold4, frame4):
    from plectic.thicken import build_thickening, verify_coisotropic, verify_nondegenerate

    def reports(thickening):
        return json.dumps([
            verify_nondegenerate(thickening, SampleConfig(6, 4)).to_json_dict(),
            verify_coisotropic(thickening, config=SampleConfig(4, 4)).to_json_dict(),
            verify_constant_rank(manifold4, config=SampleConfig(5, 4)).to_json_dict(),
        ], sort_keys=True)

    thickening = build_thickening(manifold4, frame4)
    assert getattr(thickening.omega_tilde, "_layout", None) is None
    cold = reports(thickening)
    assert thickening.omega_tilde.point_layout().peeled((), 0)[0]
    assert reports(thickening) == cold
    assert reports(build_thickening(manifold4, frame4)) == cold


def test_kernel_vectors_hold_int_zeros_and_ones():
    basis = linalg.kernel_basis([{0: 2, 1: 3}], 3)
    assert basis == [[F(-3, 2), 1, 0], [0, 0, 1]]
    assert [[type(x) for x in v] for v in basis] == [[Fraction, int, int], [int, int, int]]


# -- one read-off for every contraction matrix -------------------------------
# contraction_matrix (ell = 0), coordinate_orthogonal and
# multisymplectic_orthogonal all read their rows off term indices with
# exterior.read_off_rows and fill them with fill_rows.


def _evaluated_rows(rows, keys, point):
    """Symbolic rows evaluated entry by entry, with zero entries and empty rows dropped."""
    out_rows, out_keys = [], []
    for row, key in zip(rows, keys):
        row = {axis: v for axis, c in row.items() if (v := c.evaluate(point))}
        if row:
            out_rows.append(row)
            out_keys.append(key)
    return out_rows, out_keys


def test_rows_filled_with_the_coefficients_evaluate_to_the_pointwise_rows(manifold4):
    rng = random.Random(28)
    chart = Chart("c5", tuple(f"y{i}" for i in range(5)))
    subsets = [s for r in range(1, 6) for s in itertools.combinations(range(5), r)]
    forms = [manifold4.omega] + [
        _mixed_form(rng, chart, rng.randint(1, 4), rational=trial % 2 == 1) for trial in range(30)
    ]
    compared = 0
    for form in forms:
        layout = form.point_layout()
        coefficients = list(form.terms.values())
        dim = form.chart.dim
        # rows over Q(x) of X -> i_X form are those of i_{e_a} form for each a
        rows, keys = fill_rows(layout.rows((), 0), coefficients)
        for axis, name in enumerate(form.chart.coords):
            want = form.interior(VectorField.coordinate(form.chart, name)).terms
            assert {key: row[axis] for row, key in zip(rows, keys) if axis in row} == want
        reject = pole_rejector(form)
        points = [p for p in (
            [rng.choice((0, 0, 1, -1, 2, F(1, 2), F(-3, 2))) for _ in range(dim)] for _ in range(4)
        ) if not reject(p)]
        cases = [((), 0)] + [
            (axes, ell) for axes in rng.sample([s for s in subsets if max(s) < dim], 4)
            for ell in range(1, form.degree + 1)
        ]
        for axes, ell in cases:
            symbolic = fill_rows(layout.rows(axes, ell), coefficients)
            for point in points:
                want = fill_rows(layout.rows(axes, ell), layout.values(point))
                assert _evaluated_rows(*symbolic, exact_point(point)) == want, (form, axes, ell)
                compared += bool(want[0])
    assert compared >= 300, compared


def test_the_kernel_rows_are_one_layout_whatever_the_axes():
    chart = Chart("c4", ("a", "b", "c", "d"))
    form = Form.from_terms(chart, 2, [(("a", "b"), "1"), (("c", "d"), "a"), (("b", "d"), "2")])
    layout = form.point_layout()
    kernel, peel = layout.rows((), 0), layout.peeled((), 0)
    for axes in ([0], (1, 2), range(4), [3, 0], iter([2])):
        assert layout.rows(axes, 0) == kernel
        assert layout.peeled(axes, 0) is peel
    assert layout.rows([0, 1], 1) == layout.rows((1, 0), 1) != kernel
    assert layout.peeled([0, 1], 1) is layout.peeled((1, 0), 1) is not peel
    assert len(layout._rows) == 2
    rows, units = contraction_matrix(form, [1, 2, 3, 4])
    full, _ = fill_rows(kernel, layout.values([1, 2, 3, 4]))
    assert linalg.rref(rows, 4, units) == linalg.rref(full, 4)


def test_multisymplectic_orthogonal_of_unit_vectors_is_the_coordinate_orthogonal():
    rng = random.Random(1999)
    chart = Chart("c5", tuple(f"y{i}" for i in range(5)))
    subsets = [s for r in range(1, 6) for s in itertools.combinations(range(5), r)]
    compared = proper = 0
    for trial in range(40):
        form = _mixed_form(rng, chart, rng.randint(1, 4), rational=trial % 2 == 1)
        reject = pole_rejector(form)
        for _ in range(2):
            point = [rng.choice((0, 0, 1, -1, 2, F(1, 2))) for _ in range(5)]
            if reject(point):
                continue
            for axes in rng.sample(subsets, 5):
                units = [[int(i == a) for i in range(5)] for a in axes]
                for ell in range(1, form.degree + 2):
                    got = multisymplectic_orthogonal(form, point, units, ell)
                    assert got == coordinate_orthogonal(form, point, axes, ell), (trial, axes, ell)
                    compared += 1
                    proper += 0 < len(got) < 5
    assert compared >= 600 and proper >= 150, (compared, proper)


def test_every_pointwise_check_reads_its_rows_with_the_one_read_off(monkeypatch):
    from plectic import exterior, splitting

    starts = []
    read_off_rows = exterior.read_off_rows

    def counted(terms, start=0):
        starts.append(start)
        return read_off_rows(terms, start)

    # splitting imports the name, so both bindings are patched
    monkeypatch.setattr(exterior, "read_off_rows", counted)
    monkeypatch.setattr(splitting, "read_off_rows", counted)
    point = [0, 0, 0, 1]
    checks = [
        lambda form: contraction_matrix(form, point),
        lambda form: coordinate_orthogonal(form, point, [0, 1], 1),
        lambda form: multisymplectic_orthogonal(form, point, [[1, 0, 0, 0], [0, 1, 0, 0]], 1),
    ]
    # one call for the kernel, one for all S groups (S in front, read off
    # after it), and one per contracted tuple
    for check, want in zip(checks, ([0], [1], [0, 0])):
        starts.clear()
        check(_r4_manifold().omega)  # a fresh form, so its layout is built now
        assert starts == want
    assert not hasattr(splitting, "_contraction_rows")
    assert not hasattr(PointLayout, "contraction_rows")
    assert not hasattr(PointLayout, "orthogonal_rows")


def test_wrong_dimension_input_raises_dimension_mismatch():
    assert issubclass(linalg.DimensionMismatchError, PlecticError)
    omega = _r4_manifold().omega
    point = [0, 0, 0, 1]
    assert multisymplectic_orthogonal(omega, point, [[1, 0, 0, 0]], 1) == [[1, 0, 0, 0], [0, 0, 0, 1]]
    for basis in ([[1, 0]], [[1, 0, 0, 0, 5, 6]], [[1, 0, 0, 0], [0, 1, 0]]):
        for ell in (1, 2):
            with pytest.raises(linalg.DimensionMismatchError):
                multisymplectic_orthogonal(omega, point, basis, ell)
    layout = omega.point_layout()
    for axes in ([7], [0, 4], [-1], [1, 9]):
        for _ in range(2):  # an invalid key is never cached
            with pytest.raises(linalg.DimensionMismatchError, match="not all on a 4-dim chart"):
                coordinate_orthogonal(omega, point, iter(axes), 1)
    assert coordinate_orthogonal(omega, point, [0], 1) == [[1, 0, 0, 0], [0, 0, 0, 1]]
    assert list(layout._rows) == [(frozenset([0]), 1)]
    for bad in ([0, 0, 0], [0, 0, 0, 1, 0], []):
        for check in (
            lambda: contraction_matrix(omega, bad),
            lambda: coordinate_orthogonal(omega, bad, [0], 1),
            lambda: omega.eval_coefficients(bad),
            lambda: Form.zero(omega.chart, 2).eval_coefficients(bad),
        ):
            with pytest.raises(linalg.DimensionMismatchError, match="point of dimension"):
                check()
    r3 = Chart("r3", ("x", "y", "z"))
    reject = pole_rejector(Form.from_terms(r3, 1, [(("z",), "1/(x+y)")]))
    for check in (
        lambda: VectorField.from_mapping(r3, {"x": "y"}).evaluate([0, 0]),
        lambda: reject((1, 2)),
        lambda: reject((1, 2, 3, 4)),
    ):
        with pytest.raises(linalg.DimensionMismatchError, match="point of dimension"):
            check()
