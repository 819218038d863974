"""Sections over a low-dimensional base and equation-of-motion residuals.

A field configuration is a section of a fibered chart (total coordinates
split into base and fiber); its equations of motion are the statement that,
for every vertical coordinate direction V, the pullback of i_V omega along
the section's graph map vanishes as a top-degree form on the base.  Vertical
coordinate fields suffice: the contraction condition is linear over functions
in V.

Two views are provided.  ``eom_residual`` evaluates the residuals of a
concrete section.  ``eom_symbolic_system`` keeps the section formal: each
fiber component becomes an opaque field symbol and its first partials become
independent jet symbols, so the residuals print as first-order PDE left-hand
sides.  For thickened inputs the fiber coordinates added by the thickening
are marked auxiliary; each residual is split into the part free of auxiliary
symbols (the physical part) and the remainder, and the displayed physical
system collects the physical parts that are honest first-order PDEs (affine
in the jet symbols).  Higher jet-degree leftovers are reported as derived
combinations, and jet-free nonzero residuals -- which arise in the thickened
system from the fiber direction dual to the base volume monomial, and admit
no solution -- are reported as obstructions rather than silently dropped.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from .coeff import Poly, ScalarExpr, partial_degree, term_order_key
from .errors import DegreeError, PlecticError
from .exterior import Chart, CoordinateMap, Form, VectorField, substitute
from .record import Record

JET_SEP = "__"


class FiberedChart(Record):
    """Total chart split into base and fiber coordinates.

    ``auxiliary`` optionally marks a subset of the fiber coordinates as
    non-physical regulator fields (the thickening's fiber coordinates).
    """

    total: Chart
    base: Tuple[str, ...]
    auxiliary: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "auxiliary", tuple(self.auxiliary))
        for name in self.base:
            self.total.axis(name)
        fiber = self.fiber
        for name in self.auxiliary:
            if name not in fiber:
                raise PlecticError(f"auxiliary coordinate {name!r} is not a fiber coordinate")

    @property
    def fiber(self) -> Tuple[str, ...]:
        return tuple(n for n in self.total.coords if n not in self.base)

    def base_chart(self) -> Chart:
        return Chart(self.total.name + "_base", self.base)


class Section(Record):
    """One base-coordinate expression per fiber coordinate."""

    fibered: FiberedChart
    components: Mapping[str, ScalarExpr]

    def __post_init__(self):
        fiber = self.fibered.fiber
        missing = [n for n in fiber if n not in self.components]
        extra = [n for n in self.components if n not in fiber]
        if missing or extra:
            parts = [
                f"{word} {names}"
                for word, names in (("missing", missing), ("unexpected", extra))
                if names
            ]
            raise PlecticError(f"section components mismatch: {', '.join(parts)}")

    def graph_map(self) -> CoordinateMap:
        base_chart = self.fibered.base_chart()
        comps = []
        for name in self.fibered.total.coords:
            if name in self.fibered.base:
                comps.append(ScalarExpr.var(base_chart.coords, name))
            else:
                comps.append(self.components[name].subs_rename(base_chart.coords))
        return CoordinateMap(base_chart, self.fibered.total, comps)


class EOMResidual(Record):
    """Per-vertical-direction residual forms (top degree on the base chart)."""

    fibered: FiberedChart
    residuals: Dict[str, Form]

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.residuals.values())

    def nonzero_directions(self) -> List[str]:
        return [n for n, f in self.residuals.items() if not f.is_zero()]

    def physical(self) -> Dict[str, Form]:
        return {
            n: f for n, f in self.residuals.items() if n not in self.fibered.auxiliary
        }

    def auxiliary(self) -> Dict[str, Form]:
        return {n: f for n, f in self.residuals.items() if n in self.fibered.auxiliary}


def _check_top_degree(omega_hat: Form, fibered: FiberedChart) -> None:
    """omega_hat must live on the fibered chart with degree base dimension + 1."""
    if omega_hat.chart != fibered.total:
        raise PlecticError("form does not live on the fibered chart")
    if omega_hat.degree != len(fibered.base) + 1:
        raise DegreeError(
            f"form degree {omega_hat.degree} != base dimension + 1 = {len(fibered.base) + 1}"
        )


def eom_residual(omega_hat: Form, fibered: FiberedChart, section: Section) -> EOMResidual:
    """Residuals of a concrete section: pullback of each i_V omega_hat."""
    _check_top_degree(omega_hat, fibered)
    graph = section.graph_map()
    residuals = {}
    for name in fibered.fiber:
        contracted = omega_hat.interior(VectorField.coordinate(fibered.total, name))
        residuals[name] = graph.pullback(contracted)
    return EOMResidual(fibered, residuals)


# -- formal jet systems ------------------------------------------------------


def jet_symbol(fiber_name: str, base_name: str) -> str:
    return f"{fiber_name}{JET_SEP}{base_name}"


def _jet_chart(fibered: FiberedChart) -> Chart:
    names = list(fibered.base) + list(fibered.fiber)
    for f in fibered.fiber:
        for b in fibered.base:
            sym = jet_symbol(f, b)
            if sym in names:
                raise PlecticError(f"jet symbol {sym!r} collides with a coordinate")
            names.append(sym)
    return Chart(fibered.total.name + "_jets", tuple(names))


def _formal_graph_rows(
    fibered: FiberedChart, jets: Chart
) -> List[List[Tuple[int, ScalarExpr]]]:
    """Differentials along the formal graph: d(fiber f) -> sum_b f__b d(base b).

    One row per total coordinate, as (base axis, jet-chart coefficient) pairs.
    """
    base_axes = {n: i for i, n in enumerate(fibered.base)}
    rows = []
    for name in fibered.total.coords:
        if name in base_axes:
            rows.append([(base_axes[name], ScalarExpr.one(jets.coords))])
        else:
            rows.append(
                [
                    (base_axes[b], ScalarExpr.var(jets.coords, jet_symbol(name, b)))
                    for b in fibered.base
                ]
            )
    return rows


class JetEquation(Record):
    """One residual direction of the formal system.

    The residual is the coefficient of the base volume form, a polynomial in
    the field symbols (fiber names) and jet symbols (``f__b``), over the jet
    chart; it is ``physical + auxiliary``.  ``physical`` collects the
    monomials free of auxiliary field/jet symbols; ``auxiliary`` is the
    remainder.
    """

    direction: str
    physical: ScalarExpr
    auxiliary: ScalarExpr
    jet_axes: Tuple[int, ...]

    def jet_degree(self) -> int:
        """Largest total jet-symbol degree among the physical part's monomials."""
        axes = set(self.jet_axes)
        return max((partial_degree(e, axes) for e in self.physical.num.terms), default=0)

    def kind(self) -> str:
        """Classify the physical part: pde, derived, obstruction, or empty."""
        if self.physical.is_zero():
            return "empty"
        deg = self.jet_degree()
        if deg == 0:
            return "obstruction"
        if deg == 1:
            return "pde"
        return "derived"


def _split_physical(expr: ScalarExpr, jets: Chart, aux_axes: set) -> Tuple[ScalarExpr, ScalarExpr]:
    """Split a polynomial expression by auxiliary-symbol content."""
    if any(partial_degree(e, aux_axes) for e in expr.den.terms):
        # auxiliary symbols in a denominator: treat everything as auxiliary
        return ScalarExpr.zero(jets.coords), expr
    phys_terms, aux_terms = {}, {}
    for e, c in expr.num.terms.items():
        target = aux_terms if partial_degree(e, aux_axes) else phys_terms
        target[e] = c
    phys = ScalarExpr(Poly(jets.coords, phys_terms), expr.den)
    aux = ScalarExpr(Poly(jets.coords, aux_terms), expr.den)
    return phys, aux


def normalize_equation(expr: ScalarExpr, jet_axes: Sequence[int]) -> ScalarExpr:
    """Scale so the leading jet monomial has rational coefficient +1.

    The leading monomial is the graded-lex largest among those of maximal jet
    degree, with jet symbols ordered by their chart position.  Comparisons of
    normalized equations are up to overall sign and exact equality.
    """
    if expr.is_zero():
        return expr
    axes = set(jet_axes)
    lead = max(expr.num.terms, key=lambda e: (partial_degree(e, axes), term_order_key(e)))
    return expr * (1 / expr.num.terms[lead])


class EOMSystem(Record):
    """The formal first-order system of a form over a fibered chart."""

    fibered: FiberedChart
    jets: Chart
    equations: List[JetEquation]

    def physical_system(self) -> List[ScalarExpr]:
        """Distinct normalized physical PDE parts (jet-affine, at least one jet)."""
        out: List[ScalarExpr] = []
        for eq in self.equations:
            if eq.kind() != "pde":
                continue
            n = normalize_equation(eq.physical, eq.jet_axes)
            if not any(n == seen or n == -seen for seen in out):
                out.append(n)
        return out

    def auxiliary_system(self) -> List[Tuple[str, ScalarExpr]]:
        return [
            (eq.direction, normalize_equation(eq.auxiliary, eq.jet_axes))
            for eq in self.equations
            if not eq.auxiliary.is_zero()
        ]

    def derived_combinations(self) -> List[Tuple[str, ScalarExpr]]:
        return [
            (eq.direction, normalize_equation(eq.physical, eq.jet_axes))
            for eq in self.equations
            if eq.kind() == "derived"
        ]

    def obstructions(self) -> List[Tuple[str, ScalarExpr]]:
        return [
            (eq.direction, eq.physical)
            for eq in self.equations
            if eq.kind() == "obstruction"
        ]

    def display(self, expr: ScalarExpr) -> str:
        """Render jet symbols as partial derivatives: u__x -> d(u)/d(x)."""
        text = str(expr)
        subs = [
            (jet_symbol(f, b), f"d({f})/d({b})")
            for f in self.fibered.fiber
            for b in self.fibered.base
        ]
        # longest first, so a jet symbol embedded in a longer field name is safe
        for sym, pretty in sorted(subs, key=lambda kv: -len(kv[0])):
            text = text.replace(sym, pretty)
        return f"{text} = 0"


def eom_symbolic_system(omega_hat: Form, fibered: FiberedChart) -> EOMSystem:
    """Formal residuals, one equation per vertical direction; zeros dropped."""
    _check_top_degree(omega_hat, fibered)
    jets = _jet_chart(fibered)
    jet_axes = tuple(
        jets.axis(jet_symbol(f, b)) for f in fibered.fiber for b in fibered.base
    )
    aux_axes = {jets.axis(a) for a in fibered.auxiliary}
    for a in fibered.auxiliary:
        for b in fibered.base:
            aux_axes.add(jets.axis(jet_symbol(a, b)))
    volume_index = tuple(range(len(fibered.base)))
    rows = _formal_graph_rows(fibered, jets)
    equations = []
    for name in fibered.fiber:
        contracted = omega_hat.interior(VectorField.coordinate(fibered.total, name))
        pulled = substitute(
            ((idx, c.subs_rename(jets.coords)) for idx, c in contracted.terms.items()), rows
        )
        residual = pulled.get(volume_index, ScalarExpr.zero(jets.coords))
        if residual.is_zero():
            continue
        physical, auxiliary = _split_physical(residual, jets, aux_axes)
        equations.append(JetEquation(name, physical, auxiliary, jet_axes))
    return EOMSystem(fibered, jets, equations)
