"""Exact linear algebra over Q and over symbolic rational functions.

Matrices are plain lists of rows.  Rank, kernels and containment over Q drive
every pointwise verdict in the package and all run through one exact
elimination, ``rref``: Gauss-Jordan over Fraction on sparse {column: value}
rows, so zero rows and zero entries cost nothing.  Symbolic inversion runs
Gauss-Jordan over ScalarExpr with exact zero tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

from .coeff import ScalarExpr
from .errors import PlecticError

Vector = List[Fraction]
SparseRow = Dict[int, Fraction]


class SingularMatrixError(PlecticError):
    """Symbolic matrix has no inverse (no nonzero pivot found)."""


class DimensionMismatchError(PlecticError):
    pass


def _reduce(v: SparseRow, reduced: Dict[int, SparseRow]) -> None:
    """Clear v's pivot columns in place; each reduced row is 0 at the others."""
    for p in [p for p in v if p in reduced]:
        f = v[p]
        for j, x in reduced[p].items():
            s = v.get(j, 0) - f * x
            if s:
                v[j] = s
            else:
                del v[j]


def rref(rows: Sequence[Sequence[Fraction]]) -> Dict[int, SparseRow]:
    """Reduced row echelon form over Q of dense rows, keyed by pivot column.

    Each row is reduced against the rows so far, scaled to 1 at its leading
    column (the new pivot), and cleared from the earlier rows.  Zero rows
    vanish, so the rank is the number of sparse rows returned.  The form is
    unique, so results do not depend on the order of the rows.
    """
    ncols = len(rows[0]) if rows else 0
    reduced: Dict[int, SparseRow] = {}
    for row in rows:
        if len(reduced) == ncols:
            break
        v = {j: Fraction(x) for j, x in enumerate(row) if x}
        _reduce(v, reduced)
        if not v:
            continue
        q = min(v)
        inv = 1 / v[q]
        v = {j: x * inv for j, x in v.items()}
        for r in reduced.values():
            if q in r:
                _reduce(r, {q: v})
        reduced[q] = v
    return reduced


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q."""
    return len(rref(rows))


def kernel_basis(rows: Sequence[Sequence[Fraction]], ncols: int = None) -> List[Vector]:
    """Exact basis of the right null space {v : M v = 0}.

    Basis size always equals ncols - rank(M); basis vectors carry a 1 in
    their defining free coordinate.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty row list")
        ncols = len(rows[0])
    reduced = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, row in reduced.items():
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def subspace_contained(span_a: Sequence[Vector], span_b: Sequence[Vector]) -> bool:
    """True iff every vector of span_a lies in span(span_b), decided exactly."""
    dims = {len(v) for v in list(span_a) + list(span_b)}
    if len(dims) > 1:
        raise DimensionMismatchError(f"ambient dimensions differ: {sorted(dims)}")
    reduced = rref(span_b)
    for a in span_a:
        v = {j: Fraction(x) for j, x in enumerate(a) if x}
        _reduce(v, reduced)
        if v:
            return False
    return True


def invert(rows: Sequence[Sequence[ScalarExpr]]) -> List[List[ScalarExpr]]:
    """Exact inverse of a square ScalarExpr matrix via Gauss-Jordan.

    Raises SingularMatrixError when elimination finds a column without a
    symbolically nonzero pivot (determinant is the zero expression).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix is not square")
    if n == 0:
        return []
    variables = rows[0][0].variables
    one = ScalarExpr.one(variables)
    zero = ScalarExpr.zero(variables)
    m = [list(r) for r in rows]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no nonzero pivot in column {c}")
        m[c], m[pivot_row] = m[pivot_row], m[c]
        inv[c], inv[pivot_row] = inv[pivot_row], inv[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        inv[c] = [x / p for x in inv[c]]
        for i in range(n):
            if i == c or m[i][c].is_zero():
                continue
            f = m[i][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
            inv[i] = [a - f * b for a, b in zip(inv[i], inv[c])]
    return inv
