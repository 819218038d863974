import random
from fractions import Fraction

import pytest

from plectic.coeff import ScalarExpr, parse_expr
from plectic.linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    invert,
    kernel_basis,
    rank,
    subspace_contained,
)

F = Fraction


def _e(i, n):
    return [F(int(j == i)) for j in range(n)]


def test_kernel_of_identity_is_trivial():
    m = [_e(i, 3) for i in range(3)]
    assert kernel_basis(m) == []


def test_kernel_of_zero_map_is_everything():
    m = [[F(0)] * 3 for _ in range(2)]
    basis = kernel_basis(m)
    assert len(basis) == 3
    assert rank(basis) == 3


def test_kernel_of_scalar_field_contraction(manifold4):
    # contraction matrix of the degenerate 3-form at rho_x = 1
    from plectic.splitting import contraction_matrix

    rows, _ = contraction_matrix(manifold4.omega, [0, 0, 0, 1, 0])
    # only the nonzero rows of the 10 x 5 matrix
    assert len(rows) == 5 and all(len(row) == 5 and any(row) for row in rows)
    basis = kernel_basis(rows)
    assert len(basis) == 2
    expected = [
        [F(1), F(0), F(1), F(0), F(0)],  # e_x + rho_x e_u at rho_x = 1
        [F(0), F(0), F(0), F(0), F(1)],  # e_rho_t
    ]
    assert subspace_contained(basis, expected)
    assert subspace_contained(expected, basis)


def test_subspace_containment_trivial_cases():
    e1, e2, e3 = _e(0, 3), _e(1, 3), _e(2, 3)
    assert subspace_contained([e1], [e1, e2])
    assert not subspace_contained([e3], [e1, e2])


def test_subspace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        subspace_contained([[F(1)]], [[F(1), F(0)]])


def test_invert_identity():
    variables = ("x",)
    one, zero = ScalarExpr.one(variables), ScalarExpr.zero(variables)
    m = [[one, zero], [zero, one]]
    assert invert(m) == m


def test_invert_unipotent_and_multiply_back():
    variables = ("x",)
    m = [
        [parse_expr("1", variables), parse_expr("x", variables)],
        [parse_expr("0", variables), parse_expr("1", variables)],
    ]
    inv = invert(m)
    assert inv[0][1] == parse_expr("0-x", variables)
    identity = [
        [ScalarExpr.one(variables), ScalarExpr.zero(variables)],
        [ScalarExpr.zero(variables), ScalarExpr.one(variables)],
    ]
    def product(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]

    assert product(m, inv) == identity
    assert product(inv, m) == identity


def test_invert_singular_raises():
    variables = ("x",)
    x = parse_expr("x", variables)
    with pytest.raises(SingularMatrixError):
        invert([[x, x], [x, x]])


def test_rank_transpose_invariance():
    rng = random.Random(3)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
        mt = [list(col) for col in zip(*m)]
        assert rank(m) == rank(mt)


def test_kernel_invariants_on_random_matrices():
    rng = random.Random(11)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        basis = kernel_basis(m)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            assert all(
                sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m
            )
        if basis:
            assert rank(basis) == len(basis)


def test_rank_invariant_under_permutations():
    rng = random.Random(5)
    for _ in range(30):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        m = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        r = rank(m)
        rows = m[:]
        rng.shuffle(rows)
        cols = list(range(ncols))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert rank(shuffled) == r


def _random_matrix(rng, nrows, ncols):
    """Small rationals, with zero rows and duplicate rows mixed in."""
    m = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            m.append([F(0)] * ncols)
        elif roll < 0.3 and m:
            m.append(list(rng.choice(m)))
        else:
            m.append([
                F(0) if rng.random() < 0.4 else F(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(ncols)
            ])
    return m


def test_rank_kernel_and_containment_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for trial in range(120):
        # wide, tall and square shapes
        nrows, ncols = [(2, 7), (9, 3), (5, 5)][trial % 3]
        m = _random_matrix(rng, nrows, ncols)
        s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
        assert rank(m) == s.rank()
        expected = [[F(int(x.p), int(x.q)) for x in v] for v in s.nullspace()]
        assert kernel_basis(m) == expected
        span_a = _random_matrix(rng, rng.randint(1, 3), ncols)
        if trial % 2:
            # a combination of m's rows, so containment holds
            span_a.append([sum(row[j] * (i + 1) for i, row in enumerate(m)) for j in range(ncols)])
        sa = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in span_a])
        assert subspace_contained(span_a, m) == (s.col_join(sa).rank() == s.rank())
        assert subspace_contained(expected, [[F(0)] * ncols] + expected)
