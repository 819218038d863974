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
sides.  Along the formal graph d(fiber f) pulls back to sum_b f__b d(base b),
so a contracted term c d(rest) pulls back to c times a signed sum of jet
monomials, a minor of the jet matrix, on the base volume; each direction
sums those products in one raw accumulator, reduced once.  For thickened
inputs the fiber coordinates added by the thickening are marked auxiliary;
each residual is split into the part free of auxiliary symbols (the
physical part) and the remainder, and the displayed physical system
collects the physical parts that are honest first-order PDEs (affine in the
jet symbols).  Higher jet-degree leftovers are reported as derived
combinations, and jet-free nonzero residuals -- which arise in the thickened
system from the fiber direction dual to the base volume monomial, and admit
no solution -- are reported as obstructions rather than silently dropped.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .coeff import Poly, ScalarExpr, add_terms, partial_degree, raw_sum, term_order_key
from .errors import DegreeError, PlecticError
from .exterior import Chart, CoordinateMap, Form, Index, sort_index
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
        for name, c in self.components.items():
            stray = [c.variables[i] for i in c.support() if c.variables[i] not in self.fibered.base]
            if stray:
                raise PlecticError(
                    f"section component {name!r} depends on {stray[0]!r}, not a base coordinate"
                )

    def graph_map(self) -> CoordinateMap:
        base = self.fibered.base
        column = {b: j for j, b in enumerate(base)}
        comps = []
        for name in self.fibered.total.coords:
            if name in column:
                comps.append(ScalarExpr(Poly.var(base, column[name])))
            else:
                c = self.components[name]
                comps.append(c.reindex(base, [column.get(v) for v in c.variables]))
        return CoordinateMap(self.fibered.base_chart(), self.fibered.total, comps)


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


def _fiber_contractions(
    terms: Iterable[Tuple[Index, ScalarExpr]], fibered: FiberedChart
) -> Dict[str, List[Tuple[Index, ScalarExpr]]]:
    """The terms of i_V omega_hat for the coordinate field V of every fiber
    coordinate, in fiber order, from one pass over the (total-chart index,
    coefficient) terms of omega_hat.

    A term sends (index without the slot, c) to the direction of each fiber
    slot it holds, with -c at an odd slot.  No sums are needed: removing a
    fixed axis from distinct sorted indices leaves distinct indices.  So
    each list holds the keys, order and values of
    ``omega_hat.interior(VectorField.coordinate(fibered.total, name))``.
    """
    by_axis: Dict[int, List[Tuple[Index, ScalarExpr]]] = {
        axis: [] for axis, name in enumerate(fibered.total.coords) if name not in fibered.base
    }
    for idx, c in terms:
        neg = None
        for pos, axis in enumerate(idx):
            contracted = by_axis.get(axis)
            if contracted is None:
                continue
            if pos % 2 and neg is None:
                neg = -c
            contracted.append((idx[:pos] + idx[pos + 1 :], neg if pos % 2 else c))
    return dict(zip(fibered.fiber, by_axis.values()))


def eom_residual(omega_hat: Form, fibered: FiberedChart, section: Section) -> EOMResidual:
    """Residuals of a concrete section: pullback of each i_V omega_hat."""
    _check_top_degree(omega_hat, fibered)
    graph = section.graph_map()
    contractions = _fiber_contractions(omega_hat.terms.items(), fibered)
    residuals = {
        name: graph.pullback(Form(fibered.total, omega_hat.degree - 1, dict(contracted)))
        for name, contracted in contractions.items()
    }
    return EOMResidual(fibered, residuals)


# -- formal jet systems ------------------------------------------------------


def jet_symbol(fiber_name: str, base_name: str) -> str:
    return f"{fiber_name}{JET_SEP}{base_name}"


def _jet_layout(
    fibered: FiberedChart,
) -> Tuple[Chart, List[int], List[tuple], FrozenSet[int], FrozenSet[int]]:
    """The jet chart, each total coordinate's position on it, the formal
    graph's differentials, the jet axes and the auxiliary axes, all by
    position.

    The jet chart lists the base, the fibers, then the jets f__b fiber by
    fiber and column by column: with dim coordinates and n base columns,
    fiber i sits at n + i and its jets start at dim + i*n.  Along the formal
    graph d(fiber f) -> sum_b f__b d(base b), given as one pair per total
    coordinate: (its column, None) for a base coordinate, and (None, the jet
    factor (axis of f__b, 1) of each column b) for a fiber coordinate f.
    Every monomial of the system shares these factors.  The auxiliary axes
    are those of each auxiliary fiber and of its jets.
    """
    base, n, dim = fibered.base, len(fibered.base), fibered.total.dim
    column = {b: j for j, b in enumerate(base)}
    taken = set(fibered.total.coords)
    names, jet_names = list(base), []
    positions: List[int] = []
    graph: List[tuple] = []
    aux_axes = set()
    for name in fibered.total.coords:
        if name in column:
            positions.append(column[name])
            graph.append((column[name], None))
            continue
        first = dim + len(jet_names)
        positions.append(len(names))
        graph.append((None, [(first + j, 1) for j in range(n)]))
        if name in fibered.auxiliary:
            aux_axes.add(len(names))
            aux_axes.update(range(first, first + n))
        names.append(name)
        for b in base:
            sym = jet_symbol(name, b)
            if sym in taken:
                other = "a coordinate" if sym in fibered.total.coords else "another jet symbol"
                raise PlecticError(f"jet symbol {sym!r} collides with {other}")
            taken.add(sym)
            jet_names.append(sym)
    jets = Chart(fibered.total.name + "_jets", tuple(names + jet_names))
    return jets, positions, graph, frozenset(range(dim, jets.dim)), frozenset(aux_axes)


def _graph_expansion(
    rest: Index, graph: List[tuple], permutations: dict
) -> List[Tuple[bool, tuple]]:
    """The pullback of d(rest) along the formal graph, as (negate, jet
    monomial) pairs: its base-volume coefficient is the sum of the signed
    monomials, a minor of the jet matrix.

    A base factor takes its own column; the fiber factors take the free
    columns in every order, lexicographically (``permutations`` holds, per
    count k, each permutation of range(k) with its parity).  The sign is
    that of the permutation from the factors to their columns: the parity
    of the base columns with the free ones in order, times that of the
    order.  Both parities are the sign ``sort_index`` gives, as neither
    sequence repeats a column.  A fiber factor f on column b multiplies by
    f__b; the fiber factors come in fiber order, as ``_jet_layout`` lays
    out the jets, so each monomial is built sorted.
    """
    pairs = [graph[axis] for axis in rest]
    taken = {col for col, _ in pairs}
    free = [b for b in range(len(rest)) if b not in taken]
    fill = iter(free)
    odd = sort_index([next(fill) if col is None else col for col, _ in pairs])[0] < 0
    signed = permutations.get(len(free))
    if signed is None:
        signed = permutations[len(free)] = [
            (sort_index(p)[0] < 0, p) for p in itertools.permutations(range(len(free)))
        ]
    # jets[i][j]: the jet factor of fiber factor i on the j-th free column
    jets = [[row[b] for b in free] for col, row in pairs if col is None]
    return [(odd != podd, tuple(map(list.__getitem__, jets, p))) for podd, p in signed]


class JetEquation(Record):
    """One residual direction of the formal system.

    The residual is the coefficient of the base volume form, a polynomial in
    the field symbols (fiber names) and jet symbols (``f__b``), over the jet
    chart; it is ``physical + auxiliary``.  ``physical`` collects the
    monomials free of auxiliary field/jet symbols; ``auxiliary`` is the
    remainder.  ``kind`` classifies the physical part by the largest total
    jet-symbol degree of its monomials: ``obstruction`` (0), ``pde`` (1),
    ``derived`` (2 or more), or ``empty`` when it is zero.
    """

    direction: str
    physical: ScalarExpr
    auxiliary: ScalarExpr
    kind: str


def _split_physical(expr: ScalarExpr, aux_axes: AbstractSet[int]) -> Tuple[ScalarExpr, ScalarExpr]:
    """Split a polynomial expression by auxiliary-symbol content."""
    if any(i in aux_axes for e in expr.den.terms for i, _ in e):
        # auxiliary symbols in a denominator: treat everything as auxiliary
        return ScalarExpr.zero(expr.variables), expr
    phys_terms, aux_terms = {}, {}
    for e, c in expr.num.terms.items():
        target = aux_terms if any(i in aux_axes for i, _ in e) else phys_terms
        target[e] = c
    phys = ScalarExpr(Poly(expr.variables, phys_terms), expr.den)
    aux = ScalarExpr(Poly(expr.variables, aux_terms), expr.den)
    return phys, aux


def normalize_equation(expr: ScalarExpr, jet_axes: AbstractSet[int]) -> ScalarExpr:
    """Scale so the leading jet monomial has rational coefficient +1.

    The leading monomial is the graded-lex largest among those of maximal jet
    degree, with jet symbols ordered by their chart position.  Comparisons of
    normalized equations are up to overall sign and exact equality.
    """
    if expr.is_zero():
        return expr
    lead = max(expr.num.terms, key=lambda e: (partial_degree(e, jet_axes), term_order_key(e)))
    return expr * (1 / expr.num.terms[lead])


class EOMSystem(Record):
    """The formal first-order system of a form over a fibered chart.

    ``jet_axes`` is the set of jet-symbol axes of ``jets``, by which
    ``normalize_equation`` measures jet degree.
    """

    fibered: FiberedChart
    jets: Chart
    jet_axes: FrozenSet[int]
    equations: List[JetEquation]

    def physical_system(self) -> List[ScalarExpr]:
        """Distinct normalized physical PDE parts (jet-affine, at least one jet)."""
        out: List[ScalarExpr] = []
        for eq in self.equations:
            if eq.kind != "pde":
                continue
            n = normalize_equation(eq.physical, self.jet_axes)
            if not any(n == seen or n == -seen for seen in out):
                out.append(n)
        return out

    def auxiliary_system(self) -> List[Tuple[str, ScalarExpr]]:
        return [
            (eq.direction, normalize_equation(eq.auxiliary, self.jet_axes))
            for eq in self.equations
            if not eq.auxiliary.is_zero()
        ]

    def derived_combinations(self) -> List[Tuple[str, ScalarExpr]]:
        return [
            (eq.direction, normalize_equation(eq.physical, self.jet_axes))
            for eq in self.equations
            if eq.kind == "derived"
        ]

    def obstructions(self) -> List[Tuple[str, ScalarExpr]]:
        return [(eq.direction, eq.physical) for eq in self.equations if eq.kind == "obstruction"]

    def __post_init__(self):
        # the printed name of each jet-chart variable, by position: the
        # coordinates as they are, then f__b -> d(f)/d(b) in the jets' order
        fibered = self.fibered
        pretty = tuple(f"d({f})/d({b})" for f in fibered.fiber for b in fibered.base)
        object.__setattr__(self, "_display_names", self.jets.coords[: fibered.total.dim] + pretty)

    def display(self, expr: ScalarExpr) -> str:
        """Render jet symbols as partial derivatives: u__x -> d(u)/d(x).

        Each variable is printed once, by its name, so a field name that
        contains a jet symbol prints as it is.
        """
        return f"{expr.render(self._display_names)} = 0"


def _pulled_volume_coefficient(
    contracted: Iterable[Tuple[Index, ScalarExpr]], graph: List[tuple], permutations: dict
) -> ScalarExpr:
    """The base-volume coefficient of the pullback of sum c d(rest) along the
    formal graph: each term of c.num times each signed jet monomial of
    rest's ``_graph_expansion``, over c.den.

    The products go, term by term and monomial by monomial, into one raw
    accumulator {den or None for 1: numerator terms}; a part that cancels
    is deleted, so a later product reopens it last.  ``raw_sum`` reduces
    each part once.  These are the sums, in their order, of
    ``exterior.substitute`` on the same terms and the formal graph's rows.
    ``_jet_layout`` puts the jet axes after every coordinate axis, so
    appending a jet monomial to a coefficient monomial keeps it sorted.
    """
    parts: dict = {}
    variables = ()
    for rest, c in contracted:
        num = c.num.terms
        variables = c.variables
        den = None if c.den.is_one() else c.den
        acc = parts.get(den) or {}
        for negate, mono in _graph_expansion(rest, graph, permutations):
            if not acc:
                parts[den] = acc
            add_terms(acc, {e + mono: k for e, k in num.items()}, negate)
            if not acc:
                del parts[den]
    return raw_sum(variables, parts)


def eom_symbolic_system(omega_hat: Form, fibered: FiberedChart) -> EOMSystem:
    """Formal residuals, one equation per vertical direction; zeros dropped.

    The contractions of every direction come from one pass over omega_hat
    (``_fiber_contractions``), with each coefficient moved to the jet chart
    once, by position (``ScalarExpr.reindex``).  Only the base-volume
    component survives the pullback along the formal graph, and a contracted
    term (rest, c) pulls back to c times a signed sum of jet monomials, a
    minor of the jet matrix (``_graph_expansion``).  Each direction sums its products in one raw
    accumulator, reduced once.  Each equation's ``kind`` is set here, once.
    """
    _check_top_degree(omega_hat, fibered)
    jets, positions, graph, jet_axes, aux_axes = _jet_layout(fibered)
    # the signed permutations of range(k), for each k met
    permutations: dict = {}
    moved = ((idx, c.reindex(jets.coords, positions)) for idx, c in omega_hat.terms.items())
    contractions = _fiber_contractions(moved, fibered)
    equations = []
    for name, contracted in contractions.items():
        residual = _pulled_volume_coefficient(contracted, graph, permutations)
        if residual.is_zero():
            continue
        physical, auxiliary = _split_physical(residual, aux_axes)
        degree = max((partial_degree(e, jet_axes) for e in physical.num.terms), default=None)
        kind = "empty" if degree is None else ("obstruction", "pde", "derived")[min(degree, 2)]
        equations.append(JetEquation(name, physical, auxiliary, kind))
    return EOMSystem(fibered, jets, jet_axes, equations)
