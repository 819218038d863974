"""Exact linear algebra over Q and over symbolic rational functions.

A matrix is a list of sparse rows ``{column: value}`` that carry no zero
entries; the values are ints, Fractions or ScalarExprs.  A pivot row of ints
is scaled by exact int division where the pivot divides the entry, and to a
Fraction where it does not, so an integer matrix is reduced on ints as far as
its pivots allow.  One exact elimination,
``rref``, is field-generic and serves rank and kernels over Q (every
pointwise verdict in the package), containment over Q (the tests' span
checks) and the symbolic inverse of a frame over Q(x), which is the rref of
[M | I].  Zero rows and zero entries cost nothing.  Dense vectors, such as
kernel bases, enter through ``sparse``.

Before it eliminates, ``rref`` peels off the unit rows: a row with a single
entry at column q spans the unit row e_q, and deleting the unit columns
from the other rows leaves the row space as it is, split as span(e_S) plus
the span of what is left.  The rref is unique, so the peel changes no rank,
kernel vector or witness, only how much arithmetic reaches them.  Most rows
of a point's contraction matrix in the DeDonder-Weyl family have one entry,
and the peel alone reaches full rank there.  [M | I] has no single-entry
row unless M has a zero row, so ``invert`` does the same arithmetic as
without the peel.

Where a single entry is a constant coefficient, a nonzero rational, its
unit row is in the row space at every point, so ``exterior.PointLayout``
peels those once per row layout and the pointwise callers pass the unit
columns to ``rref``, ``rank`` and ``kernel_basis`` as ``units``: the rows
they hand in are the others, with the unit columns deleted.  The rref is
unique, so the result is the same.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence

from .errors import DimensionMismatchError, PlecticError

Vector = List[Fraction]
SparseRow = Dict[int, object]


class SingularMatrixError(PlecticError):
    """Symbolic matrix has no inverse (no nonzero pivot found)."""


def sparse(vector: Sequence) -> SparseRow:
    """The sparse row of a dense rational vector: its nonzero entries as Fractions."""
    return {j: Fraction(x) for j, x in enumerate(vector) if x}


def _reduce(v: SparseRow, reduced: Dict[int, SparseRow]) -> None:
    """Clear v's pivot columns in place; each reduced row is 0 at the others."""
    for p in [p for p in v if p in reduced]:
        g = -v[p]
        for j, x in reduced[p].items():
            s = v[j] + g * x if j in v else g * x
            if s:
                v[j] = s
            else:
                del v[j]


def rref(rows: Sequence[SparseRow], ncols: int, units: Iterable[int] = ()) -> Dict[int, SparseRow]:
    """Reduced row echelon form of sparse rows, keyed by pivot column.

    ``units`` are columns q whose unit row e_q the caller knows to lie in the
    row space, as ``exterior.PointLayout.peeled`` knows from constant
    coefficients: the result is that of the rows with a row {q: 1} added for
    each, and the elimination starts from them.  It is a fact about the rows,
    not a setting: a column that is not a unit gives a wrong result.

    First the unit rows are peeled off with no arithmetic.  A row left with
    one entry (q, x) spans the unit row e_q, which is x / x at q; deleting
    the unit columns S found so far from the other rows may leave more such
    rows, so passes repeat until one finds no new unit.  The row space is
    span(e_S) plus the span of the rows with the columns S deleted, so the
    rows left are eliminated as before, starting from the units: each is
    reduced against the rows so far, scaled to 1 at its leading column (the
    new pivot), and cleared from the earlier rows.  Zero rows vanish, so the
    rank is the number of rows returned.  The form is unique, so results do
    not depend on the order of the rows or on how many the peel takes.
    Works over any field whose values test nonzero with ``bool``: Fraction
    and ScalarExpr, and ints, which a pivot row scales to Fractions only
    where it must.  The peel pivots on any nonzero single entry, which is
    sound over a field; an elimination that admits only some pivots, such
    as a certificate that pivots only on units of Q(x), must apply its rule
    to the peel as well.
    """
    reduced: Dict[int, SparseRow] = {q: {q: 1} for q in units}
    found = True
    while found:
        found, pending = False, []
        for row in rows:
            v = row if len(row) == 1 else {j: x for j, x in row.items() if j not in reduced}
            if len(v) == 1:
                ((q, x),) = v.items()
                if q not in reduced:
                    reduced[q] = {q: x // x if type(x) is int else x / x}
                    found = True
            elif v:
                pending.append(v)
        rows = pending
    for v in rows:  # the peel's own copies
        if len(reduced) == ncols:
            break
        _reduce(v, reduced)
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
                _reduce(r, {q: v})
        reduced[q] = v
    return reduced


def rank(rows: Sequence[SparseRow], ncols: int, units: Iterable[int] = ()) -> int:
    """Rank of sparse rows with ncols columns (``units`` as for ``rref``)."""
    return len(rref(rows, ncols, units))


def kernel_basis(rows: Sequence[SparseRow], ncols: int, units: Iterable[int] = ()) -> List[Vector]:
    """Exact basis of the right null space {v : M v = 0}, as dense vectors.

    Basis size always equals ncols - rank(M); basis vectors carry a 1 in
    their defining free coordinate.  Over Q the entries are exact rationals,
    ints or Fractions as the elimination left them, and the 0 and 1 of the
    free coordinates are ints.  ``units`` are as for ``rref``.
    """
    reduced = rref(rows, ncols, units)
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        v = [0] * ncols
        v[fc] = 1
        for pc, row in reduced.items():
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def subspace_contained(span_a: Sequence[Vector], span_b: Sequence[Vector]) -> bool:
    """True iff every dense vector of span_a lies in span(span_b), decided exactly."""
    dims = {len(v) for v in list(span_a) + list(span_b)}
    if len(dims) > 1:
        raise DimensionMismatchError(f"ambient dimensions differ: {sorted(dims)}")
    reduced = rref([sparse(b) for b in span_b], max(dims, default=0))
    for a in span_a:
        v = sparse(a)
        _reduce(v, reduced)
        if v:
            return False
    return True


def invert(rows: Sequence[SparseRow], n: int) -> List[SparseRow]:
    """Exact inverse of an n x n matrix of sparse rows: the rref of [M | I].

    The pivots of the rref of [M | I] below column n are those of the rref
    of M, so M is singular iff one of its columns has none, and
    SingularMatrixError names the first such column.  Each inverse row lists
    its entries by column.
    """
    if len(rows) != n or any(not 0 <= j < n for row in rows for j in row):
        raise DimensionMismatchError("matrix is not square")
    reduced = rref([{**row, n + i: Fraction(1)} for i, row in enumerate(rows)], 2 * n)
    column = next((c for c in range(n) if c not in reduced), None)
    if column is not None:
        raise SingularMatrixError(f"no nonzero pivot in column {column}")
    return [{j - n: x for j, x in sorted(reduced[c].items()) if j >= n} for c in range(n)]
