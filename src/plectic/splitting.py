"""Kernel distributions, connections, adapted frames, and form decomposition.

A closed degree-k form with a possibly nontrivial kernel is wrapped as a
PreMultisymplecticManifold.  The user supplies a frame of the kernel plus a
complement (the connection choice); the dual coframe is computed by exact
symbolic matrix inversion, and every form can then be decomposed into its
parallel and transversal parts with respect to either projector (P onto the
kernel, or R = 1 - P onto the complement).

Frame order convention: kernel (vertical) fields first, then the chosen
complement (horizontal) fields.  Coframe covectors and all frame-monomial
indices follow the same order.

Every pointwise check reads its rows V -> i_V i_{e_S} form off term indices
with ``exterior.read_off_rows`` and fills them with ``fill_rows``.
``contraction_matrix`` fills the rows the form's ``PointLayout`` keeps after
its peel, built at the first pointwise use, and returns them with the unit
columns the peel found, under its rule that a coefficient with a constant
numerator is a unit.  The kernels and ranks at a point (``kernel_at``,
``kernel_dimensions``, ``coordinate_orthogonal`` and the thickening's
non-degeneracy check) hand both to ``linalg``.
``multisymplectic_orthogonal`` reads its rows off its contracted values.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .coeff import ScalarExpr
from .errors import ChartMismatchError, PlecticError, PoleError
from .exterior import (
    Chart,
    Form,
    Index,
    VectorField,
    contract_constant,
    fill_rows,
    read_off_rows,
    substitute,
)
from .record import Record
from .report import VerificationReport, sampled_report
from .sampling import SampleConfig, echo, pole_rejector, sample_points


class NotClosedError(PlecticError):
    """The supplied form has a nonzero exterior derivative, kept as ``residual``."""

    def __init__(self, residual: Form):
        super().__init__(f"form is not closed: d(omega) = {residual}")
        self.residual = residual


class FrameError(PlecticError):
    """The supplied fields do not constitute a valid kernel/complement frame."""


class PreMultisymplecticManifold(Record):
    """Chart + closed degree-k form (possibly degenerate)."""

    chart: Chart
    degree: int
    omega: Form

    def __post_init__(self):
        if self.omega.chart != self.chart:
            raise ChartMismatchError("form lives on a different chart")
        if self.omega.degree != self.degree:
            raise PlecticError(
                f"form degree {self.omega.degree} != declared degree {self.degree}"
            )
        residual = self.omega.d()
        if not residual.is_zero():
            raise NotClosedError(residual)


def contraction_matrix(
    form: Form, point: Sequence, axes: Iterable[int] = (), ell: int = 0
) -> Tuple[List[linalg.SparseRow], Tuple[int, ...]]:
    """The rows V -> i_V i_{e_S} form at a point, as ``linalg`` takes them:
    the rows left by ``PointLayout.peeled(axes, ell)``, filled at the point,
    and its unit columns.  At ell = 0 these are the rows of X -> i_X form.
    Every non-constant coefficient is evaluated, so a pole raises PoleError
    even where its entries lie in unit columns."""
    layout = form.point_layout()
    units, rest = layout.peeled(axes, ell)
    # the rows left carry no keys, so their positions stand in for them
    rows, _ = fill_rows(enumerate(rest), layout.values(point))
    return rows, units


def kernel_at(manifold: PreMultisymplecticManifold, point: Sequence[Fraction]) -> List[List[Fraction]]:
    """Exact basis of {X : i_X omega = 0} at a rational point."""
    rows, units = contraction_matrix(manifold.omega, point)
    return linalg.kernel_basis(rows, manifold.chart.dim, units)


def kernel_dimensions(
    manifold: PreMultisymplecticManifold, points: Sequence[Sequence[Fraction]]
) -> List[Optional[int]]:
    """Kernel dimension at each point; None where a coefficient has a pole."""
    dims = []
    for p in points:
        try:
            rows, units = contraction_matrix(manifold.omega, p)
        except PoleError:
            dims.append(None)
        else:
            dims.append(manifold.chart.dim - linalg.rank(rows, manifold.chart.dim, units))
    return dims


def verify_constant_rank(
    manifold: PreMultisymplecticManifold,
    points: Optional[Sequence[Sequence[Fraction]]] = None,
    config: Optional[SampleConfig] = None,
    dims: Optional[Sequence[Optional[int]]] = None,
) -> VerificationReport:
    """Sampled constant-rank check: kernel dimension at every sample point.

    This is sampling evidence, not a proof; the verdict is EVIDENCE when all
    sampled dimensions agree and FAIL (with the two disagreeing points as
    witnesses) otherwise.  Samples where a coefficient has a pole are skipped
    and noted, and a check that evaluated no sample is a FAIL.  Without
    ``points``, draws them with ``config`` (default SampleConfig()).  ``dims``
    may pass in kernel_dimensions(manifold, points).
    """
    start = time.perf_counter()
    if points is None:
        config = config or SampleConfig()
        points = sample_points(manifold.chart.dim, config, pole_rejector(manifold.omega))
    if dims is None:
        dims = kernel_dimensions(manifold, points)
    skipped = [[str(x) for x in p] for p, k in zip(points, dims) if k is None]
    evaluated = [(p, k) for p, k in zip(points, dims) if k is not None]
    seen: Dict[int, Sequence[Fraction]] = {}
    for p, k in evaluated:
        seen.setdefault(k, p)
    details = {
        **echo(config, points),
        "kernel_dimensions": sorted(seen),
        "samples_evaluated": len(evaluated),
        "samples_skipped_at_poles": skipped,
    }
    witnesses = []
    if len(seen) > 1:
        for k, p in sorted(seen.items()):
            witnesses.append({"point": [str(x) for x in p], "kernel_dim": k})
    return sampled_report("constant-rank", evaluated, details, witnesses, start)


class SplitFrame(Record):
    """Kernel frame, complement frame, and their exact dual coframe.

    ``coframe[j]`` is dual to ``fields[j]``, verticals first, so
    ``vertical_coframe`` (the theta covectors) and ``horizontal_coframe`` are
    its slices at r; duality holds as an exact ScalarExpr identity.
    ``labels[j]`` is the distinct coordinate name assigned to ``fields[j]``
    (used to name fiber coordinates downstream).
    """

    chart: Chart
    vertical: Tuple[VectorField, ...]
    horizontal: Tuple[VectorField, ...]
    coframe: Tuple[Form, ...]
    labels: Tuple[str, ...]

    @property
    def r(self) -> int:
        return len(self.vertical)

    @property
    def l(self) -> int:
        return len(self.horizontal)

    @property
    def fields(self) -> Tuple[VectorField, ...]:
        return self.vertical + self.horizontal

    @property
    def vertical_coframe(self) -> Tuple[Form, ...]:
        return self.coframe[: self.r]

    @property
    def horizontal_coframe(self) -> Tuple[Form, ...]:
        return self.coframe[self.r :]

    def rows(self) -> List[linalg.SparseRow]:
        """Sparse rows of the frame matrix E: dq^i = sum_j E[i][j] eta^j."""
        return _frame_rows(self.fields, self.chart.dim)


def _frame_rows(fields: Sequence[VectorField], d: int) -> List[linalg.SparseRow]:
    """Row i holds the nonzero i-th components of the fields, by field position."""
    return [
        {j: f.components[i] for j, f in enumerate(fields) if f.components[i]}
        for i in range(d)
    ]


def _assign_labels(rows: Sequence[linalg.SparseRow], coords: Sequence[str]) -> List[str]:
    """Assign each frame field a distinct coordinate with a nonzero component.

    Greedy bipartite matching; a perfect matching exists whenever the frame
    matrix is invertible (some generalized diagonal is nonzero).
    """
    d = len(coords)
    candidates: List[List[int]] = [[] for _ in range(d)]
    for i, row in enumerate(rows):
        for j in row:
            candidates[j].append(i)
    match_of_coord: Dict[int, int] = {}

    def try_assign(j: int, visited: set) -> bool:
        for i in candidates[j]:
            if i in visited:
                continue
            visited.add(i)
            if i not in match_of_coord or try_assign(match_of_coord[i], visited):
                match_of_coord[i] = j
                return True
        return False

    for j in range(d):
        if not try_assign(j, set()):
            raise FrameError("could not label frame fields by coordinates")
    label_of_field = {j: i for i, j in match_of_coord.items()}
    return [coords[label_of_field[j]] for j in range(d)]


def build_split_frame(
    manifold: PreMultisymplecticManifold,
    vertical: Sequence[VectorField],
    horizontal: Sequence[VectorField],
) -> SplitFrame:
    """Validate a kernel frame + complement and compute the dual coframe.

    Checks, symbolically: counts r + l = dim, each vertical field annihilates
    omega, and the d fields are independent (frame matrix invertible).
    """
    chart = manifold.chart
    fields = list(vertical) + list(horizontal)
    for f in fields:
        if f.chart != chart:
            raise ChartMismatchError("frame field on a different chart")
    if len(fields) != chart.dim:
        raise FrameError(
            f"{len(vertical)} vertical + {len(horizontal)} horizontal != dim {chart.dim}"
        )
    for n, field in enumerate(vertical):
        contraction = manifold.omega.interior(field)
        if not contraction.is_zero():
            raise FrameError(
                f"vertical field #{n} is not in the kernel: i_V omega = {contraction}"
            )
    rows = _frame_rows(fields, chart.dim)
    try:
        inverse = linalg.invert(rows, chart.dim)
    except linalg.SingularMatrixError as exc:
        raise FrameError(f"fields do not form a frame: {exc}") from exc
    coframe = tuple(Form(chart, 1, {(i,): c for i, c in row.items()}) for row in inverse)
    labels = tuple(_assign_labels(rows, chart.coords))
    return SplitFrame(chart, tuple(vertical), tuple(horizontal), coframe, labels)


def frame_expansion(form: Form, frame: SplitFrame) -> Dict[Index, ScalarExpr]:
    """Coefficients of a form in the coframe monomial basis.

    Indices refer to coframe positions (verticals first).  Uses the change of
    basis dq^i = sum_j E[i][j] eta^j, where E is the frame matrix.
    """
    if form.chart != frame.chart:
        raise ChartMismatchError("form and frame charts differ")
    return substitute(form.terms.items(), [row.items() for row in frame.rows()])


def from_frame_expansion(frame: SplitFrame, degree: int, coeffs: Dict[Index, ScalarExpr]) -> Form:
    """Rebuild a coordinate-basis Form from coframe-monomial coefficients.

    The inverse change of basis eta^j = sum_i coframe[j][i] dq^i.
    """
    rows = [[(i, c) for (i,), c in covector.terms.items()] for covector in frame.coframe]
    return Form(frame.chart, degree, substitute(coeffs.items(), rows))


class FormSplit(Record):
    """Parallel/transversal decomposition with respect to P or R."""

    parallel: Form
    transversal: Form
    which: str  # "P" or "R"


def decompose(form: Form, frame: SplitFrame, which: str) -> FormSplit:
    """Split a form into parallel + transversal parts.

    For P (projector onto the kernel) the parallel part collects the pure
    vertical-coframe monomials; for R = 1 - P it collects the pure
    horizontal-coframe monomials.  parallel + transversal == form exactly,
    and re-splitting the parallel part leaves it unchanged.
    """
    if which not in ("P", "R"):
        raise PlecticError("which must be 'P' or 'R'")
    coeffs = frame_expansion(form, frame)
    r = frame.r
    if which == "P":
        keep = {i: c for i, c in coeffs.items() if all(j < r for j in i)}
    else:
        keep = {i: c for i, c in coeffs.items() if all(j >= r for j in i)}
    parallel = from_frame_expansion(frame, form.degree, keep)
    return FormSplit(parallel, form - parallel, which)


def multisymplectic_orthogonal(
    form: Form,
    point: Sequence[Fraction],
    n_basis: Sequence[Sequence[Fraction]],
    ell: int,
) -> List[List[Fraction]]:
    """Exact basis of the ell-orthogonal of span(n_basis) at a point.

    Returns {V : i_{V ^ W_1 ^ ... ^ W_ell} form = 0 at the point, for all
    choices of W_j from n_basis}.  Tuples range over unordered combinations
    (the contraction alternates, so ordered tuples add nothing); if fewer
    than ell spanning vectors exist the result is the full tangent space.
    Each tuple is contracted with ``contract_constant``, and the rows of all
    tuples are read off the contracted values into one row layout.  A
    spanning vector of the wrong length raises DimensionMismatchError.
    """
    if ell < 1:
        raise PlecticError("ell must be >= 1")
    dim = form.chart.dim
    if any(len(w) != dim for w in n_basis):
        raise linalg.DimensionMismatchError(f"a spanning vector's length is not the chart's {dim}")
    consts = form.eval_coefficients(point)
    layout, values = [], []
    for ws in itertools.combinations(range(len(n_basis)), ell):
        # i_V i_{W...} form differs from i_{W...} i_V form by one sign per
        # tuple, so the rows for V span the same space either way
        c = consts
        for w in ws:
            c = contract_constant(n_basis[w], c)
        layout += read_off_rows(zip(itertools.count(len(values)), c, itertools.repeat(1)))
        values += c.values()
    rows, _ = fill_rows(layout, values)
    return linalg.kernel_basis(rows, dim)


def coordinate_orthogonal(
    form: Form, point: Sequence[Fraction], axes: Iterable[int], ell: int
) -> List[List[Fraction]]:
    """Exact basis of the ell-orthogonal of the coordinate subspace on ``axes``.

    For each ell-subset S of the axes, the rows V -> i_V i_{e_S} form are
    read off the form's terms, with no contraction.  Their peel
    (``PointLayout.peeled(axes, ell)``) is built once per form, axes and
    ell, and each point fills the rows left with the coefficients' values
    (``contraction_matrix``); an axis off the chart raises
    DimensionMismatchError when it is built.  A vector lies in the subspace
    exactly when it vanishes off the axes, so callers test containment on
    the returned vectors' entries.
    """
    if ell < 1:
        raise PlecticError("ell must be >= 1")
    rows, units = contraction_matrix(form, point, axes, ell)
    return linalg.kernel_basis(rows, form.chart.dim, units)
