"""Differential forms and vector fields on a coordinate chart.

Forms are stored sparsely: a degree-k form maps strictly increasing tuples of
coordinate positions to nonzero ScalarExpr coefficients, with sign
normalization applied when terms are inserted.  Zero coefficients are pruned
eagerly, so ``is_zero`` is a structural check.  All operations are pure.

Convention for iterated contraction: ``interior_multi((X1, ..., Xl), a)``
computes i_{Xl} ... i_{X1} a, i.e. X1 is contracted into the first slot.
Kernels and orthogonals are insensitive to this sign choice; it is fixed here
once and used everywhere.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from . import linalg
from .coeff import Exact, Poly, ScalarExpr, add_terms, as_scalar, exact_point, raw_sum
from .errors import ChartMismatchError, DegreeError, DimensionMismatchError, PlecticError
from .record import Record

Index = Tuple[int, ...]


class Chart(Record):
    """A named coordinate chart: an ordered tuple of distinct coordinate names."""

    name: str
    coords: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(set(self.coords)) != len(self.coords):
            raise PlecticError(f"duplicate coordinate names in chart {self.name!r}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def axis(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise PlecticError(f"chart {self.name!r} has no coordinate {name!r}") from None

    def scalar(self, value) -> ScalarExpr:
        return as_scalar(value, self.coords)


def sort_index(indices: Sequence[int]):
    """Sign-normalize an index tuple: (sign, increasing tuple); sign 0 if repeated."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        return 0, None
    sign = 1
    # insertion sort; counts transpositions exactly
    for i in range(1, len(indices)):
        j = i
        while j > 0 and indices[j - 1] > indices[j]:
            indices[j - 1], indices[j] = indices[j], indices[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(indices)


def add_term(out: Dict[Index, ScalarExpr], idx: Index, c: ScalarExpr) -> None:
    """Add c to out[idx] in place, dropping a zero sum (ScalarExpr, int or Fraction)."""
    s = out[idx] + c if idx in out else c
    if s:
        out[idx] = s
    else:
        out.pop(idx, None)


def substitute(
    terms: Iterable[Tuple[Index, ScalarExpr]],
    rows: Sequence[Sequence[Tuple[int, ScalarExpr]]],
) -> Dict[Index, ScalarExpr]:
    """Change of basis: replace each factor i of every monomial by rows[i].

    ``rows[i]`` lists the (j, e) pairs of dq^i = sum_j e * dy^j.  Each term
    (idx, c) expands into c * prod(e) over every choice of one pair per
    factor, sign-normalized; the result maps new index tuples to coefficients.
    Zero coefficients are skipped.

    The choices are walked depth-first, row by row: an entry whose j is
    already chosen is skipped (its products all vanish), and the product
    up to a row is shared by every choice below it, carried raw as a
    numerator and a denominator (None for 1), multiplied left to right as
    c * e1 * e2 * ...  A term with an empty row yields no choice.

    Each output index sums its products' numerators with ``add_terms``, one
    dict per denominator; a dict that cancels is deleted, and an index with
    none left.  At the end ``raw_sum`` reduces each dict once and adds
    them, and a zero index is dropped.  Reduced forms depend only on
    values, so each index has the value of ``add_term`` on each product in
    turn, and its text wherever that reduces completely; keys keep its
    order unless products over unequal denominators cancel.
    """
    out: Dict[Index, dict] = {}
    # rows[i] as (j, e.num, e.den), each None for 1
    prepared: List[object] = [None] * len(rows)
    variables = ()

    def walk(level: int, chosen: Index, sign: int, num: Poly, den) -> None:
        # chosen: the sorted j of rows < level; num / den: their product
        if level == len(term_rows):
            parts = out.setdefault(chosen, {})
            acc = parts.setdefault(den, {})
            add_terms(acc, num.terms, negate=sign < 0)
            if not acc:
                del parts[den]
                if not parts:
                    del out[chosen]
            return
        for j, enum, eden in term_rows[level]:
            pos = bisect_left(chosen, j)
            if pos < len(chosen) and chosen[pos] == j:
                continue
            nchosen = chosen[:pos] + (j,) + chosen[pos:]
            nsign = -sign if (len(chosen) - pos) % 2 else sign
            nden = den if eden is None else eden if den is None else den * eden
            walk(level + 1, nchosen, nsign, num if enum is None else num * enum, nden)

    for idx, c in terms:
        if c.is_zero():
            continue
        variables = c.variables
        term_rows = []
        for i in idx:
            row = prepared[i]
            if row is None:
                row = prepared[i] = [
                    (j, None if e.num.is_one() else e.num, None if e.den.is_one() else e.den)
                    for j, e in rows[i]
                ]
            term_rows.append(row)
        walk(0, (), 1, c.num, None if c.den.is_one() else c.den)
    sums = ((nidx, raw_sum(variables, parts)) for nidx, parts in out.items())
    return {nidx: c for nidx, c in sums if c}


class Form:
    """Differential form of fixed degree with exact rational-function coefficients."""

    # _layout is set by point_layout, at the form's first pointwise use
    __slots__ = ("chart", "degree", "terms", "_layout")

    def __init__(self, chart: Chart, degree: int, terms: Mapping[Index, ScalarExpr] = None):
        if degree < 0:
            raise DegreeError("negative form degree")
        self.chart = chart
        self.degree = degree
        self.terms: Dict[Index, ScalarExpr] = {}
        for idx, coeff in (terms or {}).items():
            if len(idx) != degree:
                raise DegreeError(f"index {idx} has length != degree {degree}")
            if not coeff.is_zero():
                self.terms[tuple(idx)] = coeff

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "Form":
        return cls(chart, degree, {})

    @classmethod
    def scalar(cls, chart: Chart, value) -> "Form":
        return cls(chart, 0, {(): chart.scalar(value)})

    @classmethod
    def d_coord(cls, chart: Chart, name: str) -> "Form":
        """The coordinate differential of one chart coordinate."""
        return cls(chart, 1, {(chart.axis(name),): ScalarExpr.one(chart.coords)})

    @classmethod
    def from_terms(cls, chart: Chart, degree: int, entries: Iterable) -> "Form":
        """Build from (index tuple, coefficient) pairs, normalizing index order.

        Indices may be coordinate positions or coordinate names.
        """
        acc: Dict[Index, ScalarExpr] = {}
        for indices, coeff in entries:
            coeff = chart.scalar(coeff)
            positions = [chart.axis(n) if isinstance(n, str) else n for n in indices]
            sign, idx = sort_index(positions)
            if sign == 0 or coeff.is_zero():
                continue
            if sign < 0:
                coeff = -coeff
            acc[idx] = acc[idx] + coeff if idx in acc else coeff
        return cls(chart, degree, acc)

    # -- helpers ---------------------------------------------------------

    def _check_chart(self, other) -> None:
        if self.chart != other.chart:
            raise ChartMismatchError(
                f"charts differ: {self.chart.name!r} vs {other.chart.name!r}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> ScalarExpr:
        sign, idx = sort_index(indices)
        if sign == 0:
            return ScalarExpr.zero(self.chart.coords)
        c = self.terms.get(idx)
        if c is None:
            return ScalarExpr.zero(self.chart.coords)
        return c if sign > 0 else -c

    def sorted_terms(self) -> List[Tuple[Index, ScalarExpr]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.chart != other.chart or self.degree != other.degree:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.chart, self.degree))

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        self._check_chart(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            add_term(out, idx, c)
        return Form(self.chart, self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.chart, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        s = self.chart.scalar(scalar) if not isinstance(scalar, ScalarExpr) else scalar
        return Form(self.chart, self.degree, {i: c * s for i, c in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        """Exterior product; degrees add, graded-commutative."""
        self._check_chart(other)
        out: Dict[Index, ScalarExpr] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                sign, idx = sort_index(i1 + i2)
                if sign == 0:
                    continue
                c = c1 * c2
                add_term(out, idx, c if sign > 0 else -c)
        return Form(self.chart, self.degree + other.degree, out)

    def interior(self, field: "VectorField") -> "Form":
        """Contraction i_X into the first slot; degree drops by one."""
        if self.chart != field.chart:
            raise ChartMismatchError("vector field lives on a different chart")
        if self.degree == 0:
            raise DegreeError("cannot contract a 0-form")
        return Form(self.chart, self.degree - 1, _interior(self.terms, field.components))

    def d(self) -> "Form":
        """Exterior derivative; d(d(a)) = 0."""
        out: Dict[Index, ScalarExpr] = {}
        for idx, c in self.terms.items():
            for axis in c.support():
                dc = c._diff(axis)
                if dc.is_zero():
                    continue
                sign, nidx = sort_index((axis,) + idx)
                if sign == 0:
                    continue
                add_term(out, nidx, dc if sign > 0 else -dc)
        return Form(self.chart, self.degree + 1, out)

    # -- evaluation ------------------------------------------------------

    def point_layout(self) -> "PointLayout":
        """What evaluating the form at a point needs that does not depend on
        the point, built at the first call and kept (forms are not changed
        after construction)."""
        layout = getattr(self, "_layout", None)
        if layout is None:
            layout = self._layout = PointLayout(self)
        return layout

    def eval_coefficients(self, point: Sequence) -> Dict[Index, Exact]:
        """The nonzero coefficients at a rational point, each an int where it
        is integral and a Fraction elsewhere (raises PoleError).

        Entries of the point go through exact_point, so a float or Decimal
        stands for the rational it denotes.  Only the non-constant
        coefficients are evaluated (see ``PointLayout.values``).
        """
        layout = self.point_layout()
        return {idx: v for idx, v in zip(layout.indices, layout.values(point)) if v}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.coords
        parts = []
        for idx, c in self.sorted_terms():
            mono = "^".join(f"d{names[i]}" for i in idx) if idx else "1"
            cs = str(c)
            if cs == "1" and idx:
                parts.append(mono)
            else:
                cs = cs if _is_atomic(cs) else f"({cs})"
                parts.append(f"{cs}*{mono}" if idx else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Form<deg {self.degree} on {self.chart.name}>({self})"


def _is_atomic(s: str) -> bool:
    return not any(ch in s for ch in "+- ") or (s.startswith("-") and not any(ch in s[1:] for ch in "+- "))


# -- a form at a point ----------------------------------------------------------

# a row layout: a row key and the {column: (term position, sign)} of its entries
RowLayout = Tuple[Index, Dict[int, Tuple[int, int]]]


class PointLayout:
    """The point-independent part of evaluating a form and of its pointwise
    contraction rows, by term position (the order of ``form.terms``).

    Built by ``Form.point_layout``: the values of the constant coefficients,
    evaluated once, the positions of the other coefficients, and their
    distinct non-constant denominators (the poles ``sampling.pole_rejector``
    tests).  ``rows(axes, ell)`` gives the rows of X -> i_X form whose key
    holds at least ell of the axes; at ell = 0 that is all of them.
    ``peeled(axes, ell)`` gives the columns whose unit rows those rows span at
    every point and the rows left with those columns deleted: each point
    fills only these, and ``linalg.rref`` starts from the units.  Only the
    peel is kept, one entry per axes and ell; the full row layout is read
    off for it and dropped.  ``fill_rows`` turns a row layout and the values
    at a point into sparse rows.

    The peel's rule of what is a unit at every point is ``unit_terms``: a
    coefficient c / q whose numerator c is constant.  It is nonzero wherever
    it is defined, and ``values`` raises PoleError where q vanishes.  A
    coefficient with a variable numerator is never a unit: it may vanish at
    a point.
    """

    __slots__ = ("dim", "indices", "constants", "unit_terms", "variable", "denominators", "_rows")

    def __init__(self, form: Form):
        self.dim = form.chart.dim
        self.indices = list(form.terms)
        origin = (0,) * self.dim
        # a constant coefficient is nonzero, and the same at every point
        self.constants, self.variable = [], []
        for t, c in enumerate(form.terms.values()):
            if c.is_const():
                self.constants.append(c.evaluate(origin))
            else:
                self.constants.append(0)
                self.variable.append((t, c))
        self.unit_terms = [c.num.is_const() for c in form.terms.values()]
        self.denominators = list(
            dict.fromkeys(c.den for _, c in self.variable if not c.den.is_const())
        )
        # (axes, ell) -> (units, the rows left)
        self._rows: Dict[Tuple[frozenset, int], tuple] = {}

    def values(self, point: Sequence) -> List[Exact]:
        """Every coefficient's value at a rational point, by term position,
        zeros kept; only the non-constant coefficients are evaluated.

        The point goes through exact_point; one of the wrong dimension raises
        DimensionMismatchError.
        """
        point = exact_point(point)
        if len(point) != self.dim:
            raise DimensionMismatchError(f"point of dimension {len(point)} on a {self.dim}-dim chart")
        values = self.constants.copy()
        for t, c in self.variable:
            values[t] = c.evaluate(point)
        return values

    def rows(self, axes: Iterable[int], ell: int) -> List[RowLayout]:
        """The rows of X -> i_X form whose key holds at least ell of the axes,
        which ``read_off_rows`` shows are those of V -> i_V i_{e_S} form over
        the ell-subsets S of the axes.  Read off anew at each call.  An axis
        off the chart raises DimensionMismatchError."""
        axes = frozenset(axes) if ell else frozenset()
        if not axes <= frozenset(range(self.dim)):
            raise DimensionMismatchError(f"axes {sorted(axes)} are not all on a {self.dim}-dim chart")
        return read_off_rows(enumerate(self.indices), axes, ell)

    def peeled(self, axes: Iterable[int], ell: int) -> Tuple[Tuple[int, ...], List[dict]]:
        """The unit columns of ``rows(axes, ell)`` and the entries of the rows
        left, with no keys: ``linalg.peel`` under the rule of ``unit_terms``,
        built at the first call and kept.  ``linalg.rref`` of the rows left,
        filled at a point, from the units is the rref of the filled
        ``rows(axes, ell)``.
        """
        key = (frozenset(axes) if ell else frozenset(), ell)
        built = self._rows.get(key)
        if built is None:
            units: Dict[int, dict] = {}
            rows = [entries for _, entries in self.rows(*key)]
            rest = linalg.peel(rows, units, lambda e: self.unit_terms[e[0]])
            built = self._rows[key] = (tuple(units), rest)
        return built


def read_off_rows(
    terms: Iterable[Tuple[int, Index]], axes: frozenset = frozenset(), ell: int = 0
) -> List[RowLayout]:
    """The row layout of X -> i_X over the terms (term position t, index),
    keyed by the index left in increasing order, and kept where the key
    holds at least ``ell`` of the ``axes``: entry axis: (t, s) is s times
    term t's value at column axis, s the sign of moving the axis to the
    front.  ``fill_rows`` fills it with values at a point (rows over Q) or
    with the coefficients (rows over Q(x)) alike.

    The rows kept are those of V -> i_V i_{e_S} over the ell-subsets S of
    the axes, up to sign and repetition: the row of S and the index left R
    is V -> form(e_S, V, e_R) = +-form(V, e_{S u R}), one sign for the whole
    row, so it is the row keyed S u R, and every key holding ell axes has
    such an S."""
    by_rest: Dict[Index, dict] = {}
    for t, idx in terms:
        inside = len(axes.intersection(idx))
        sign = 1 if len(idx) % 2 else -1  # the combinations leave out the last slot first
        for axis, rest in zip(reversed(idx), itertools.combinations(idx, len(idx) - 1 if idx else 0)):
            if inside - (axis in axes) >= ell:
                by_rest.setdefault(rest, {})[axis] = (t, sign)
            sign = -sign
    return [(rest, by_rest[rest]) for rest in sorted(by_rest)]


def fill_rows(layout: Iterable[RowLayout], values: Sequence[Exact]) -> Tuple[List[dict], List[Index]]:
    """The sparse rows of a row layout at the values of the terms (at a point,
    or the coefficients themselves), with their keys; zero entries and empty
    rows are dropped."""
    rows, keys = [], []
    for key, entries in layout:
        row = {}
        for axis, (t, sign) in entries.items():
            v = values[t]
            if v:
                row[axis] = v if sign > 0 else -v
        if row:
            rows.append(row)
            keys.append(key)
    return rows, keys


class VectorField:
    """Vector field with one ScalarExpr component per chart coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[ScalarExpr]):
        if len(components) != chart.dim:
            raise PlecticError("component count != chart dimension")
        self.chart = chart
        self.components = tuple(chart.scalar(c) if not isinstance(c, ScalarExpr) else c for c in components)

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "VectorField":
        axis = chart.axis(name)
        # coefficients are immutable, so every zero component is one shared object
        zero, one = ScalarExpr.zero(chart.coords), ScalarExpr.one(chart.coords)
        return cls(chart, [one if i == axis else zero for i in range(chart.dim)])

    @classmethod
    def from_mapping(cls, chart: Chart, mapping: Mapping[str, object]) -> "VectorField":
        comps = [ScalarExpr.zero(chart.coords) for _ in range(chart.dim)]
        for name, value in mapping.items():
            comps[chart.axis(name)] = chart.scalar(value)
        return cls(chart, comps)

    def evaluate(self, point: Sequence) -> List[Exact]:
        """The components at a rational point, zeros kept, each an int where integral."""
        point = exact_point(point)
        return [c.evaluate(point) for c in self.components]

    def __str__(self) -> str:
        parts = [
            f"({c})*e_{name}"
            for c, name in zip(self.components, self.chart.coords)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def interior_multi(fields: Sequence[VectorField], form: Form) -> Form:
    """i_{Xl} ... i_{X1} form: the first listed field contracts first."""
    if len(fields) > form.degree:
        raise DegreeError("more contractions than form degree")
    out = form
    for field in fields:
        out = out.interior(field)
    return out


class CoordinateMap:
    """Rational map between charts: one source-coordinate expression per target coordinate."""

    __slots__ = ("source", "target", "components", "_rows")

    def __init__(self, source: Chart, target: Chart, components: Sequence):
        if len(components) != target.dim:
            raise PlecticError("component count != target dimension")
        self.source = source
        self.target = target
        self.components = tuple(source.scalar(c) if not isinstance(c, ScalarExpr) else c for c in components)
        self._rows = None

    def pullback(self, form: Form) -> Form:
        """Pull a form on the target chart back to the source chart: compose
        every coefficient with the components, then ``substitute`` the rows."""
        if form.chart != self.target:
            raise ChartMismatchError(
                f"form lives on {form.chart.name!r}, map targets {self.target.name!r}"
            )
        composed = ((idx, c.compose(self.components)) for idx, c in form.terms.items())
        return Form(self.source, form.degree, substitute(composed, self._partial_rows()))

    def _partial_rows(self) -> List[List[Tuple[int, ScalarExpr]]]:
        """The differential of each component as its nonzero (j, d comp / d source_j)
        pairs, computed at first use and kept (the map is immutable).

        Only the source axes in a component's support are differentiated along.
        """
        if self._rows is None:
            rows = []
            for comp in self.components:
                row = [(j, comp._diff(j)) for j in comp.support()]
                rows.append([(j, p) for j, p in row if not p.is_zero()])
            self._rows = rows
        return self._rows


# -- the interior-product loop, over Q(x) and over Q -------------------------


def _interior(terms: Mapping[Index, object], components: Sequence) -> Dict[Index, object]:
    """Terms of i_X into the first slot, X given by its components.

    Field-generic: serves ScalarExpr forms over Q(x) and evaluated forms over
    Q alike; each component's truth is tested once, and a term with no slot
    on a nonzero component is skipped whole.
    """
    nonzero = {axis: comp for axis, comp in enumerate(components) if comp}
    axes = nonzero.keys()
    out: Dict[Index, object] = {}
    for idx, c in terms.items():
        if axes.isdisjoint(idx):
            continue
        for pos, axis in enumerate(idx):
            comp = nonzero.get(axis)
            if comp is None:
                continue
            add_term(out, idx[:pos] + idx[pos + 1 :], c * comp if pos % 2 == 0 else -(c * comp))
    return out


def contract_constant(values: Sequence, cterms: Mapping[Index, Exact]) -> Dict[Index, Exact]:
    """Interior product of an evaluated form by a rational vector (first slot).

    The entry point over Q of the interior-product loop ``Form.interior``
    runs over Q(x); ``splitting.multisymplectic_orthogonal`` contracts
    general (non-coordinate) bases with it.  The vector goes through
    exact_point, so int values and int entries contract to ints.
    """
    return _interior(cterms, exact_point(values))
