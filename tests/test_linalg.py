import functools
import json
import os
import random
import re
from fractions import Fraction
from unittest import mock

import pytest

from plectic import linalg
from plectic.coeff import ScalarExpr, parse_expr
from plectic.linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    invert,
    kernel_basis,
    rank,
    rref,
    sparse,
    subspace_contained,
)

from conftest import sympy_expr

F = Fraction


def _e(i, n):
    return [F(int(j == i)) for j in range(n)]


def _rows(m):
    return [sparse(row) for row in m]


def test_kernel_of_identity_is_trivial():
    m = _rows(_e(i, 3) for i in range(3))
    assert kernel_basis(m, 3) == []


def test_kernel_of_zero_map_is_everything():
    m = _rows([F(0)] * 3 for _ in range(2))
    basis = kernel_basis(m, 3)
    assert len(basis) == 3
    assert rank(_rows(basis), 3) == 3


def test_kernel_of_scalar_field_contraction(manifold4):
    # contraction matrix of the degenerate 3-form at rho_x = 1
    from plectic.splitting import contraction_matrix

    rows, _ = contraction_matrix(manifold4.omega, [0, 0, 0, 1, 0])
    # only the nonzero rows of the 10 x 5 matrix
    assert len(rows) == 5 and all(row and all(row.values()) and max(row) < 5 for row in rows)
    basis = kernel_basis(rows, 5)
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
    one = ScalarExpr.one(variables)
    m = [{0: one}, {1: one}]
    assert invert(m, 2) == m


def test_invert_unipotent_and_multiply_back():
    variables = ("x",)
    m = [
        {0: parse_expr("1", variables), 1: parse_expr("x", variables)},
        {1: parse_expr("1", variables)},
    ]
    inv = invert(m, 2)
    assert inv[0][1] == parse_expr("0-x", variables)
    identity = [
        [ScalarExpr.one(variables), ScalarExpr.zero(variables)],
        [ScalarExpr.zero(variables), ScalarExpr.one(variables)],
    ]
    zero = ScalarExpr.zero(variables)

    def product(a, b):
        return [
            [sum((a[i].get(k, zero) * b[k].get(j, zero) for k in range(2)), zero) for j in range(2)]
            for i in range(2)
        ]

    assert product(m, inv) == identity
    assert product(inv, m) == identity


def test_invert_singular_raises():
    variables = ("x",)
    x = parse_expr("x", variables)
    with pytest.raises(SingularMatrixError):
        invert([{0: x, 1: x}, {0: x, 1: x}], 2)


def test_invert_names_a_zero_column():
    # the elimination stops at the dependent third row; column 2 is the zero one
    variables = ("x",)
    x, one = parse_expr("x", variables), ScalarExpr.one(variables)
    symbolic = [{0: one, 1: x, 3: x}, {1: one, 3: one}, {0: x, 1: x * x, 3: x * x}, {3: one}]
    rational = [{0: F(1), 1: F(2)}, {1: F(1), 3: F(5)}, {0: F(3), 1: F(9), 3: F(15)}, {3: F(1)}]
    for m in (symbolic, rational):
        with pytest.raises(SingularMatrixError, match=r"column 2$"):
            invert(m, 4)


def test_rank_transpose_invariance():
    rng = random.Random(3)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
        mt = [list(col) for col in zip(*m)]
        assert rank(_rows(m), ncols) == rank(_rows(mt), nrows)


def test_kernel_invariants_on_random_matrices():
    rng = random.Random(11)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        basis = kernel_basis(_rows(m), ncols)
        assert len(basis) == ncols - rank(_rows(m), ncols)
        for v in basis:
            assert all(
                sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m
            )
        if basis:
            assert rank(_rows(basis), ncols) == len(basis)


def test_rank_invariant_under_permutations():
    rng = random.Random(5)
    for _ in range(30):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        m = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        r = rank(_rows(m), ncols)
        rows = m[:]
        rng.shuffle(rows)
        cols = list(range(ncols))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert rank(_rows(shuffled), ncols) == r


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


def _random_int_matrix(rng, nrows, ncols):
    """Small ints with non-unit entries, zero rows and rows that combine
    earlier ones, so the rank is often below min(nrows, ncols)."""
    m = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            m.append([0] * ncols)
        elif roll < 0.35 and len(m) >= 2:
            a, b = rng.sample(m, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            m.append([s * x + t * y for x, y in zip(a, b)])
        else:
            m.append([0 if rng.random() < 0.3 else rng.randint(-6, 6) for _ in range(ncols)])
    return m


def _int_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _exact(values):
    return all(type(x) in (int, Fraction) for x in values)


@pytest.mark.parametrize("seed", range(4))
def test_rref_rank_and_kernel_agree_on_int_and_fraction_matrices(seed):
    # an int pivot row is scaled by exact int division where the pivot
    # divides and to a Fraction where it does not: never to a float, and to
    # the values the same matrix of Fractions gives
    rng = random.Random(seed)
    divided = 0
    for trial in range(60):
        nrows, ncols = [(3, 7), (8, 4), (6, 6)][trial % 3]
        m = _random_int_matrix(rng, nrows, ncols)
        ints, fracs = _int_rows(m), _rows(m)
        reduced = rref(ints, ncols)
        assert reduced == rref(fracs, ncols)
        assert all(_exact(row.values()) for row in reduced.values())
        divided += sum(type(x) is Fraction for row in reduced.values() for x in row.values())
        assert rank(ints, ncols) == rank(fracs, ncols) == len(reduced)
        basis = kernel_basis(ints, ncols)
        assert basis == kernel_basis(fracs, ncols)
        assert all(_exact(v) for v in basis)
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m)
    assert divided  # some pivots did not divide their row


def test_rank_kernel_and_containment_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for trial in range(120):
        # wide, tall and square shapes
        nrows, ncols = [(2, 7), (9, 3), (5, 5)][trial % 3]
        m = _random_matrix(rng, nrows, ncols)
        s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])
        assert rank(_rows(m), ncols) == s.rank()
        expected = [[F(int(x.p), int(x.q)) for x in v] for v in s.nullspace()]
        assert kernel_basis(_rows(m), ncols) == expected
        span_a = _random_matrix(rng, rng.randint(1, 3), ncols)
        if trial % 2:
            # a combination of m's rows, so containment holds
            span_a.append([sum(row[j] * (i + 1) for i, row in enumerate(m)) for j in range(ncols)])
        sa = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in span_a])
        assert subspace_contained(span_a, m) == (s.col_join(sa).rank() == s.rank())
        assert subspace_contained(expected, [[F(0)] * ncols] + expected)


def _random_expr(rng, variables, rational):
    """A random polynomial or rational ScalarExpr; zero about a third of the time."""
    if rng.random() < 0.35:
        return ScalarExpr.zero(variables)
    expr = ScalarExpr.const(variables, F(rng.randint(-3, 3), rng.randint(1, 2)))
    for v in variables:
        expr = expr + rng.randint(-2, 2) * ScalarExpr.var(variables, v)
    if rational and rng.random() < 0.25:
        expr = expr / (ScalarExpr.var(variables, rng.choice(variables)) + rng.randint(1, 3))
    return expr


def test_invert_agrees_with_sympy_on_random_scalar_matrices():
    # M M^-1 = I exactly; a singular M reports the first non-pivot column of
    # its reduced row echelon form
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(61)
    variables = ("x", "y")
    symbols = sympy.symbols(variables)
    zero, one = ScalarExpr.zero(variables), ScalarExpr.one(variables)
    singular = 0
    for trial in range(40):
        rational, dependent = trial % 3 == 2, trial % 2 == 1
        # 4 x 4 only where the elimination stays small
        n = rng.randint(1, 3 if rational or dependent else 4)
        cols = [[_random_expr(rng, variables, rational) for _ in range(n)] for _ in range(n)]
        if dependent:
            # make one or two columns combinations of the earlier ones
            for k in rng.sample(range(n), rng.randint(1, min(2, n))):
                coeffs = [_random_expr(rng, variables, False) for _ in range(k)]
                cols[k] = [sum((c * cols[j][i] for j, c in enumerate(coeffs)), zero) for i in range(n)]
        dense = [[cols[j][i] for j in range(n)] for i in range(n)]
        for row in dense:
            assert all(bool(e) == (not e.is_zero()) for e in row)
        m = [{j: e for j, e in enumerate(row) if e} for row in dense]
        _, pivots = DomainMatrix.from_Matrix(sympy.Matrix(
            [[sympy_expr(sympy, e, symbols) for e in row] for row in dense]
        )).to_field().rref()
        if len(pivots) < n:
            singular += 1
            with pytest.raises(SingularMatrixError) as info:
                invert(m, n)
            column = min(set(range(n)) - set(pivots))
            assert re.search(rf"column {column}$", str(info.value)), (trial, pivots)
            continue
        inv = invert(m, n)
        assert all(e and bool(e) == (not e.is_zero()) for row in inv for e in row.values())
        for i in range(n):
            for j in range(n):
                entry = sum((m[i].get(k, zero) * inv[k].get(j, zero) for k in range(n)), zero)
                assert entry == (one if i == j else zero), (trial, i, j)
    assert 10 <= singular <= 30


# -- the unit-row peel against elimination alone ------------------------------


def _reference_reduce(v, reduced):
    for p in [p for p in v if p in reduced]:
        g = -v[p]
        for j, x in reduced[p].items():
            s = v[j] + g * x if j in v else g * x
            if s:
                v[j] = s
            else:
                del v[j]


def _reference_rref(rows, ncols):
    """rref by elimination alone, with no peel: each row is reduced against
    the rows so far, scaled to 1 at its leading column and cleared from the
    earlier rows."""
    reduced = {}
    for row in rows:
        if len(reduced) == ncols:
            break
        v = dict(row)
        _reference_reduce(v, reduced)
        if not v:
            continue
        q = min(v)
        p = v[q]
        if type(p) is int:
            v = {
                j: (x // p if not x % p else Fraction(x, p)) if type(x) is int else x / p
                for j, x in v.items()
            }
        else:
            v = {j: x / p for j, x in v.items()}
        for r in reduced.values():
            if q in r:
                _reference_reduce(r, {q: v})
        reduced[q] = v
    return reduced


def _peelable_matrix(rng, kind):
    """(rows, ncols): layers of rows that have one entry once the columns of
    the layers before are deleted, rows left with two or more entries, some
    of them on unit columns too, duplicate singletons and zero rows, shuffled."""
    ints = [x for x in range(-6, 7) if x]

    def value():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.choice(ints)
        return F(rng.choice(ints), rng.randint(1, 4))

    ncols = rng.randint(6, 12)
    cols = list(range(ncols))
    rng.shuffle(cols)
    rows, units = [], []
    for _ in range(3):
        k = rng.randint(1, 3)
        layer, cols = cols[:k], cols[k:]
        for q in layer:
            row = {q: value()}
            for j in rng.sample(units, min(len(units), rng.randint(0, 3))):
                row[j] = value()
            rows.append(row)
        units += layer
    for _ in range(rng.randint(1, 4)):
        support = rng.sample(cols, min(len(cols), rng.randint(2, 3)))
        support += rng.sample(units, rng.randint(0, min(2, len(units))))
        rows.append({j: value() for j in support})
    rows += [{q: value()} for q in rng.sample(units, min(2, len(units)))] + [{}, {}]
    rng.shuffle(rows)
    return rows, ncols


@pytest.mark.parametrize("kind", ("int", "fraction", "mixed"))
def test_rref_matches_elimination_alone_on_peelable_matrices(kind):
    rng = random.Random(sum(map(ord, kind)))
    for trial in range(150):
        rows, ncols = _peelable_matrix(rng, kind)
        copies = [dict(row) for row in rows]
        want = _reference_rref(rows, ncols)
        assert rref(rows, ncols) == want, (kind, trial)
        # e_q lies in the row space exactly when the rref's row at q is e_q
        units = [q for q, row in want.items() if row == {q: 1}]
        given = rng.sample(units, rng.randint(0, len(units)))
        assert rref(rows, ncols, given) == want, (kind, trial, given)
        assert rows == copies  # the caller's rows are left as they were


def test_the_peel_takes_only_the_entries_its_rule_admits():
    # under "only 1 is a unit", {0: 2} waits until {1: 1} makes {0: 1, 1: 3}
    # a unit row at 0, and {2: 5} is left as the caller's own row
    waiting, kept = {0: 2}, {2: 5}
    rows = [waiting, {0: 1, 1: 3}, kept, {1: 1}, {2: 4, 1: 7}]
    units = {}
    left = linalg.peel(rows, units, lambda x: x == 1)
    assert units == {1: {1: 1}, 0: {0: 1}}
    assert left == [{2: 5}, {2: 4}] and left[0] is kept
    assert rows[1] == {0: 1, 1: 3} and rows[4] == {2: 4, 1: 7}
    # the field rule takes every single entry
    units = {}
    assert linalg.peel(rows, units) == [] and sorted(units) == [0, 1, 2]


@functools.lru_cache(maxsize=None)
def _dw_thickening(n):
    """(thickening, manifold) of DW of base dimension n.  DW n = 5 is the
    rational golden spec with its first horizontal field made constant
    again."""
    from plectic.manifoldspec import parse_spec_dict
    from plectic.splitting import build_split_frame
    from plectic.thicken import build_thickening

    name = f"dw_n{n}" if n < 5 else f"dw_rational_n{n}"
    with open(os.path.join(os.path.dirname(__file__), "golden", name + ".json")) as fh:
        data = json.load(fh)
    data["frame"]["horizontal"][0] = {"x2": "1"}
    spec = parse_spec_dict(data)
    manifold = spec.manifold()
    frame = build_split_frame(manifold, spec.vertical, spec.horizontal)
    return build_thickening(manifold, frame), manifold


@functools.lru_cache(maxsize=None)
def _dw_rref_inputs(n):
    """{check: [(rows, ncols, units) of each rref call]} of the
    non-degeneracy, coisotropy and tau^* omega kernel checks of DW of base
    dimension n at one seeded point."""
    from plectic.sampling import SampleConfig
    from plectic.splitting import PreMultisymplecticManifold, verify_constant_rank
    from plectic.thicken import verify_coisotropic, verify_nondegenerate

    th, manifold = _dw_thickening(n)
    pulled = PreMultisymplecticManifold(
        th.big_chart, manifold.degree, th.tau.pullback(manifold.omega)
    )
    checks = {
        "non-degeneracy": lambda: verify_nondegenerate(th, SampleConfig(1, 1)),
        "coisotropy": lambda: verify_coisotropic(th, config=SampleConfig(1, 1)),
        "tau^* omega": lambda: verify_constant_rank(pulled, config=SampleConfig(1, 1)),
    }
    inputs = {}
    for check, run in checks.items():
        calls = []

        def spy(rows, ncols, units=(), real=linalg.rref):
            calls.append((rows, ncols, units))
            return real(rows, ncols, units)

        with mock.patch.object(linalg, "rref", spy):
            assert run().verdict == "EVIDENCE", (n, check)
        inputs[check] = calls
    return inputs


@pytest.mark.parametrize("n", (3, 4, 5))
def test_rref_matches_elimination_alone_on_dw_check_matrices(n):
    for check, calls in _dw_rref_inputs(n).items():
        assert calls, check
        for rows, ncols, units in calls:
            assert units, check  # every check hands rref the layout's units
            want = _reference_rref(rows + [{q: 1} for q in units], ncols)
            assert rref(rows, ncols, units) == want, (n, check)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_the_peel_ranks_a_dw_non_degeneracy_matrix_with_no_arithmetic(n):
    # the rows with one constant entry, then those left with one once the
    # unit columns are deleted, reach full rank from the layout alone, so no
    # point fills a row or does any arithmetic
    th, _ = _dw_thickening(n)
    units, rest = th.omega_tilde.point_layout().peeled((), 0)
    assert sorted(units) == list(range(th.big_chart.dim)) and rest == []
    assert len(units) == len(set(units))
