"""The multisymplectic thickening and its property verifiers.

Given a closed degree-k form (k >= 3) with constant-rank kernel and a chosen
kernel/complement frame, the thickening is a chart on the bundle of
transversal (k-1)-covectors: base coordinates followed by one fiber
coordinate per transversal coframe monomial (a strictly increasing
(k-1)-subset of coframe covectors containing at least one vertical one).
On it live the tautological form (fiber coordinates paired against the
projection's pushforward) and the thickened form

    omega_tilde = tau^* omega + d(theta_0),

which is closed by construction, everywhere non-degenerate, restricts to the
original form on the zero section, and exhibits the zero section as a
(k-1)-coisotropic submanifold.  The base coordinates come first on the
thickened chart, so tau^* only moves a coefficient's variables to their
places there: the build lifts omega and the coframe with
``ScalarExpr.reindex`` and composes no pullback.  The verifiers below
certify each claim: closedness and the zero-section pullback symbolically,
non-degeneracy and coisotropy exactly at seeded rational sample points.

Fiber coordinates are named ``p_<label1>_<label2>_...`` from the coframe
labels (verticals first), ordered by ascending number of horizontal labels
and then lexicographically by coframe position, so fixtures are byte-stable.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .coeff import Poly, ScalarExpr
from .errors import PlecticError, PoleError
from .exterior import Chart, CoordinateMap, Form, Index, substitute
from .record import Record
from .report import VerificationReport, residual_report, sampled_report
from .sampling import SampleConfig, echo, pole_rejector, sample_points
from .splitting import (
    PreMultisymplecticManifold,
    SplitFrame,
    contraction_matrix,  # re-exported: callers reach it as thicken.contraction_matrix
    coordinate_orthogonal,
    peeled_rows,
)


class DegreeTooLowError(PlecticError):
    """Thickening requested for k < 3.

    The degree-2 case is the classical (Gotay) coisotropic embedding, which
    needs a tubular-neighborhood restriction and is a different construction;
    this engine only implements the higher-degree one.
    """


def enumerate_fiber_coordinates(
    dim: int, num_horizontal: int, degree: int, labels: Sequence[str]
) -> List[Tuple[Index, str]]:
    """Transversal (degree-1)-multi-indices over the coframe, with names.

    ``labels`` lists the coframe labels, verticals first (so positions
    < dim - num_horizontal are vertical).  Returns all strictly increasing
    (degree-1)-subsets containing at least one vertical position, ordered by
    ascending count of horizontal positions then lexicographically, paired
    with their fiber-coordinate names.  The count always equals
    C(dim, degree-1) - C(num_horizontal, degree-1).
    """
    if degree < 2:
        raise PlecticError("fiber enumeration needs degree >= 2")
    if num_horizontal < 0 or num_horizontal > dim:
        raise PlecticError("horizontal count out of range")
    if len(labels) != dim:
        raise PlecticError("need one coframe label per dimension")
    r = dim - num_horizontal
    subsets = [
        idx
        for idx in itertools.combinations(range(dim), degree - 1)
        if any(j < r for j in idx)
    ]
    subsets.sort(key=lambda idx: (sum(1 for j in idx if j >= r), idx))
    return [(idx, "p_" + "_".join(labels[j] for j in idx)) for idx in subsets]


class Thickening(Record):
    """Chart of the transversal (k-1)-covector bundle with theta_0 and omega_tilde."""

    base: PreMultisymplecticManifold
    frame: SplitFrame
    big_chart: Chart
    fiber_index: Tuple[Index, ...]
    fiber_names: Tuple[str, ...]
    tau: CoordinateMap
    zero_section: CoordinateMap
    theta0: Form
    omega_tilde: Form

    @property
    def fiber_count(self) -> int:
        return len(self.fiber_names)

    @property
    def base_dim(self) -> int:
        return self.base.chart.dim

    def describe_frame(self) -> dict:
        """The frame fields as text, in new lists on every call.

        Every sampled report quotes them, so they are rendered at the first
        call and kept, not at construction, which a build without sampled
        checks would pay for.
        """
        text = getattr(self, "_frame_text", None)
        if text is None:
            text = (
                tuple(str(v) for v in self.frame.vertical),
                tuple(str(h) for h in self.frame.horizontal),
            )
            object.__setattr__(self, "_frame_text", text)
        vertical, horizontal = text
        return {"vertical_frame": list(vertical), "horizontal_frame": list(horizontal)}


def tautological_form(
    big_chart: Chart, frame: SplitFrame, fiber_index: Sequence[Index], degree: int
) -> Form:
    """theta_0 = sum_I p_I * (coframe monomial I pulled back along tau).

    One change of basis: each fiber monomial eta^I, weighted by its fiber
    coordinate p_I, expands through the pulled-back coframe rows
    eta^j = sum_i c_ji dq^i, as in ``splitting.from_frame_expansion``.
    The base coordinates come first on big_chart, so tau^* moves each
    coframe coefficient by position (``ScalarExpr.reindex``), and the fiber
    coordinate of the i-th index of fiber_index is the variable at position
    d + i.
    """
    coords, d = big_chart.coords, len(frame.coframe)
    terms = [(idx, ScalarExpr(Poly.var(coords, d + i))) for i, idx in enumerate(fiber_index)]
    rows = [
        [(i, c.reindex(coords, range(d))) for (i,), c in covector.terms.items()]
        for covector in frame.coframe
    ]
    return Form(big_chart, degree, substitute(terms, rows))


def build_thickening(manifold: PreMultisymplecticManifold, frame: SplitFrame) -> Thickening:
    """Assemble the thickened chart, theta_0, and omega_tilde."""
    k = manifold.degree
    if k < 3:
        raise DegreeTooLowError(
            f"degree {k} < 3: the k = 2 case is the classical (Gotay) symplectic "
            "thickening, which this construction deliberately does not emulate"
        )
    if frame.chart != manifold.chart:
        raise PlecticError("frame was built over a different chart")
    base = manifold.chart.coords
    entries = enumerate_fiber_coordinates(len(base), frame.l, k, frame.labels)
    fiber_index = tuple(idx for idx, _ in entries)
    fiber_names = tuple(name for _, name in entries)
    for name in fiber_names:
        if name in base:
            raise PlecticError(f"fiber coordinate {name!r} collides with a base coordinate")
    big_chart = Chart(manifold.chart.name + "_thickened", base + fiber_names)
    big, d = big_chart.coords, len(base)
    tau = CoordinateMap(big_chart, manifold.chart, [ScalarExpr(Poly.var(big, i)) for i in range(d)])
    zeros = [ScalarExpr.zero(base)] * len(fiber_names)
    zero_section = CoordinateMap(
        manifold.chart, big_chart, [ScalarExpr(Poly.var(base, i)) for i in range(d)] + zeros
    )
    theta0 = tautological_form(big_chart, frame, fiber_index, k - 1)
    lifted = {idx: c.reindex(big, range(d)) for idx, c in manifold.omega.terms.items()}
    omega_tilde = Form(big_chart, k, lifted) + theta0.d()
    return Thickening(
        manifold,
        frame,
        big_chart,
        fiber_index,
        fiber_names,
        tau,
        zero_section,
        theta0,
        omega_tilde,
    )


def present_in_frame_basis(thickening: Thickening, form: Form) -> Dict[Index, ScalarExpr]:
    """Expand a big-chart form over {coframe covectors, fiber differentials}.

    Positions 0..d-1 refer to coframe covectors (verticals first), positions
    d.. to the fiber coordinate differentials, matching how the construction
    is usually displayed.
    """
    big, d = thickening.big_chart, thickening.base_dim
    # dq^i = sum_j E[i][j] eta^j on the base block, lifted; fiber differentials stay
    rows = [
        [(j, e.reindex(big.coords, range(d))) for j, e in row.items()]
        for row in thickening.frame.rows()
    ]
    rows += [[(i, ScalarExpr.one(big.coords))] for i in range(len(rows), big.dim)]
    return substitute(form.terms.items(), rows)


# -- verifiers ---------------------------------------------------------------


def closedness_report(form: Form, name: str = "closedness") -> VerificationReport:
    """Symbolic d(form) == 0 check; FAIL carries the residual terms."""
    start = time.perf_counter()
    return residual_report(name, form.d(), start)


def verify_closed(thickening: Thickening) -> VerificationReport:
    return closedness_report(thickening.omega_tilde, "thickened-form-closed")


def _degenerate_points(form: Form, points: Sequence[Sequence[Fraction]]) -> List[dict]:
    """One witness, with a kernel basis, per point where form is degenerate."""
    witnesses = []
    for p in points:
        rows, units = peeled_rows(form, p)
        kernel = linalg.kernel_basis(rows, form.chart.dim, units)
        if kernel:
            witnesses.append(
                {
                    "point": [str(x) for x in p],
                    "kernel_dim": len(kernel),
                    "kernel_basis": [[str(x) for x in v] for v in kernel],
                }
            )
    return witnesses


def nondegeneracy_report(
    form: Form,
    points: Sequence[Sequence[Fraction]],
    config: Optional[SampleConfig] = None,
) -> VerificationReport:
    """Exact full-rank check of the contraction map at each point; no points is a FAIL."""
    start = time.perf_counter()
    details = {"points_checked": len(points), **echo(config, points)}
    witnesses = _degenerate_points(form, points)
    return sampled_report("non-degeneracy", points, details, witnesses, start)


def verify_nondegenerate(
    thickening: Thickening,
    config: Optional[SampleConfig] = None,
    points: Optional[Sequence[Sequence[Fraction]]] = None,
) -> VerificationReport:
    """Sampled non-degeneracy of omega_tilde, including off the zero section.

    Without ``points``, draws them with ``config`` (default SampleConfig()).
    Validity away from the zero section is part of the claim, so a sampled
    set is required to contain at least one point with a nonzero fiber
    coordinate.  Uniform integer sampling essentially guarantees this; if not,
    the guard resamples once with the next seed and reports that seed, and a
    resample still on the zero section is a FAIL.  Supplied points are the
    caller's choice and are not checked for this.
    """
    start = time.perf_counter()
    d = thickening.base_dim
    sampled = points is None
    if sampled:
        config = config or SampleConfig()
        reject = pole_rejector(thickening.omega_tilde)
        points = sample_points(thickening.big_chart.dim, config, reject)
        if thickening.fiber_count and not any(any(p[d:]) for p in points):
            config = SampleConfig(config.count, config.seed + 1, config.low, config.high)
            points = sample_points(thickening.big_chart.dim, config, reject)
    off_section = sum(1 for p in points if any(p[d:]))
    details = {
        "points_checked": len(points),
        **echo(config, points),
        "points_with_nonzero_fiber_part": off_section,
        "frame": thickening.describe_frame(),
    }
    witnesses = _degenerate_points(thickening.omega_tilde, points)
    if sampled and thickening.fiber_count and not off_section:
        witnesses.append({"error": "no sample point off the zero section"})
    return sampled_report("thickened-form-non-degenerate", points, details, witnesses, start)


def _on_zero_section(thickening: Thickening, form: Form) -> Form:
    """s^* form along the zero section s(x) = (x, 0), by position: ds is the
    identity on the base axes and zero on the fibers, so the terms off the base
    axes drop, but a pole of theirs on the section raises, as composing would."""
    d, values = thickening.base_dim, thickening.zero_section.components
    dropped = {c.den for idx, c in form.terms.items() if idx[-1] >= d and not c.den.is_one()}
    if any(ScalarExpr(den).compose(values).is_zero() for den in dropped):
        raise PoleError("substitution lands in the zero set of the denominator")
    terms = {idx: c.compose(values) for idx, c in form.terms.items() if idx[-1] < d}
    return Form(thickening.base.chart, form.degree, terms)


def verify_zero_section_pullback(thickening: Thickening) -> VerificationReport:
    """Symbolic check that the zero section pulls omega_tilde back to omega."""
    start = time.perf_counter()
    pulled = _on_zero_section(thickening, thickening.omega_tilde)
    return residual_report("zero-section-pullback", pulled - thickening.base.omega, start)


def verify_coisotropic(
    thickening: Thickening,
    ell: Optional[int] = None,
    config: Optional[SampleConfig] = None,
    points: Optional[Sequence[Sequence[Fraction]]] = None,
) -> VerificationReport:
    """Sampled (k-1)-coisotropy of the zero section.

    At each zero-section sample the ell-orthogonal of the base tangent space
    inside the thickening is computed exactly and checked for containment in
    the base tangent space.  That space is the coordinate subspace on the
    base axes, so its orthogonal is read off by ``coordinate_orthogonal`` and
    a vector escapes exactly when a fiber entry is nonzero.  Samples are
    taken on the zero section because that is where the embedded copy of the
    base lives; without ``points`` they are drawn with ``config`` (default
    25 points), redrawing a base point where omega_tilde has a pole on the
    zero section.
    """
    start = time.perf_counter()
    if ell is None:
        ell = thickening.base.degree - 1
    d = thickening.base_dim
    if points is None:
        config = config or SampleConfig(count=25)
        reject = pole_rejector(thickening.omega_tilde)
        zeros = (0,) * thickening.fiber_count
        base_points = sample_points(d, config, lambda p: reject(p + zeros))
        points = [p + zeros for p in base_points]
    else:
        for p in points:
            if any(p[d:]):
                raise PlecticError("coisotropy samples must lie on the zero section")
    witnesses = []
    orthogonal_dims = set()
    for p in points:
        ortho = coordinate_orthogonal(thickening.omega_tilde, p, range(d), ell)
        orthogonal_dims.add(len(ortho))
        escaping = [v for v in ortho if any(v[d:])]
        if escaping:
            witnesses.append(
                {
                    "point": [str(x) for x in p],
                    "escaping_vectors": [[str(x) for x in v] for v in escaping],
                }
            )
    details = {
        "ell": ell,
        "points_checked": len(points),
        "orthogonal_dimensions_seen": sorted(orthogonal_dims),
        **echo(config, points),
        "frame": thickening.describe_frame(),
    }
    return sampled_report("zero-section-coisotropic", points, details, witnesses, start)


def verify_all(
    thickening: Thickening, config: SampleConfig = SampleConfig()
) -> List[VerificationReport]:
    """Run the four claimed-property verifiers in a fixed order.

    Coisotropy samples half of ``config.count`` points (at least one).
    """
    coisotropy_config = config.replace(count=max(1, config.count // 2))
    return [
        verify_closed(thickening),
        verify_nondegenerate(thickening, config),
        verify_zero_section_pullback(thickening),
        verify_coisotropic(thickening, config=coisotropy_config),
    ]
