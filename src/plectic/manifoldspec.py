"""JSON spec and section files: loading, validation, and emission.

A spec file describes a chart, a closed form, and optionally a kernel frame,
a fibration over a base, and sampling parameters:

    {
      "name": "...",
      "coordinates": ["x", "t", ...],
      "form": {"degree": 3,
               "terms": [{"indices": ["rho_x", "u", "t"], "coeff": "1"}, ...]},
      "frame": {"vertical": [{"x": "1", "u": "rho_x"}, ...],
                "horizontal": [{"t": "1"}, ...]},
      "fibration": {"base": ["x", "t"], "auxiliary": ["p_x_t", ...]},
      "samples": {"count": 50, "seed": 0, "coordinate_range": [-5, 5]}
    }

Unknown top-level keys are rejected.  Term index lists name coordinates (not
positions), must be duplicate-free, and may appear in any order; coefficients
are expression strings in the documented grammar.  ``fibration.auxiliary`` is
optional and marks regulator fields in thickened specs so equation reports
can segregate them.

A section file, read by ``load_section``, maps every fiber coordinate of a
fibered spec to an expression string over its base coordinates:

    {"u": "3*x + 5", "rho_x": "3", "rho_t": "x*t"}
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .coeff import is_identifier, parse_expr
from .errors import PlecticError
from .exterior import Chart, Form, VectorField
from .fieldtheory import FiberedChart, Section
from .record import Record
from .sampling import DEFAULT_COUNT, DEFAULT_RANGE, DEFAULT_SEED, SampleConfig
from .splitting import PreMultisymplecticManifold

_TOP_KEYS = {"name", "coordinates", "form", "frame", "fibration", "samples"}


class SpecError(PlecticError):
    """Invalid manifold specification; message carries the JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ManifoldSpec(Record):
    """Validated in-memory image of a spec file."""

    name: str
    chart: Chart
    degree: int
    form: Form
    vertical: Optional[List[VectorField]]
    horizontal: Optional[List[VectorField]]
    fibration_base: Optional[Tuple[str, ...]]
    fibration_auxiliary: Tuple[str, ...]
    samples: SampleConfig

    def manifold(self) -> PreMultisymplecticManifold:
        """Wrap as a manifold; raises NotClosedError if the form is not closed."""
        return PreMultisymplecticManifold(self.chart, self.degree, self.form)

    def fibered_chart(self) -> FiberedChart:
        if self.fibration_base is None:
            raise SpecError("fibration", "spec has no fibration block")
        return FiberedChart(self.chart, self.fibration_base, self.fibration_auxiliary)

    def has_frame(self) -> bool:
        return self.vertical is not None


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SpecError(path, message)


def _parse_coeff(path: str, src, coords) -> object:
    _require(isinstance(src, str), path, f"expected an expression string, got {type(src).__name__}")
    try:
        return parse_expr(src, coords)
    except PlecticError as exc:
        raise SpecError(path, str(exc)) from exc


def _parse_vector(path: str, data, chart: Chart) -> VectorField:
    _require(isinstance(data, dict), path, "vector spec must map coordinate -> expression")
    mapping = {}
    for key, value in data.items():
        _require(key in chart.coords, f"{path}.{key}", f"unknown coordinate {key!r}")
        mapping[key] = _parse_coeff(f"{path}.{key}", value, chart.coords)
    return VectorField.from_mapping(chart, mapping)


def parse_spec_dict(data: dict, name_hint: str = "<spec>") -> ManifoldSpec:
    _require(isinstance(data, dict), "$", "spec root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, "$", f"unknown top-level keys: {sorted(unknown)}")
    for key in ("name", "coordinates", "form"):
        _require(key in data, "$", f"missing required key {key!r}")

    name = data["name"]
    _require(isinstance(name, str) and name, "name", "must be a non-empty string")

    coords = data["coordinates"]
    _require(
        isinstance(coords, list) and coords and all(isinstance(c, str) for c in coords),
        "coordinates",
        "must be a non-empty list of strings",
    )
    _require(len(set(coords)) == len(coords), "coordinates", "coordinate names must be unique")
    for i, c in enumerate(coords):
        _require(
            is_identifier(c), f"coordinates[{i}]", f"coordinate names must be identifiers, got {c!r}"
        )
    chart = Chart(name, tuple(coords))

    fdata = data["form"]
    _require(isinstance(fdata, dict), "form", "must be an object")
    _require(set(fdata) <= {"degree", "terms"}, "form", "allowed keys: degree, terms")
    degree = fdata.get("degree")
    _require(type(degree) is int and degree >= 0, "form.degree", "must be a non-negative integer")
    terms = fdata.get("terms")
    _require(isinstance(terms, list), "form.terms", "must be a list")
    entries = []
    for i, term in enumerate(terms):
        path = f"form.terms[{i}]"
        _require(isinstance(term, dict), path, "must be an object")
        _require(set(term) == {"indices", "coeff"}, path, "keys must be exactly indices, coeff")
        indices = term["indices"]
        _require(
            isinstance(indices, list) and all(isinstance(n, str) for n in indices),
            f"{path}.indices",
            "must be a list of coordinate names",
        )
        _require(len(indices) == degree, f"{path}.indices", f"must have length {degree}")
        _require(len(set(indices)) == len(indices), f"{path}.indices", "duplicate coordinate in index list")
        for n in indices:
            _require(n in coords, f"{path}.indices", f"unknown coordinate {n!r}")
        coeff = _parse_coeff(f"{path}.coeff", term["coeff"], chart.coords)
        entries.append(([chart.axis(n) for n in indices], coeff))
    form = Form.from_terms(chart, degree, entries)

    vertical = horizontal = None
    if "frame" in data:
        fr = data["frame"]
        _require(isinstance(fr, dict), "frame", "must be an object")
        _require(set(fr) == {"vertical", "horizontal"}, "frame", "keys must be vertical, horizontal")
        _require(
            isinstance(fr["vertical"], list) and isinstance(fr["horizontal"], list),
            "frame",
            "vertical and horizontal must be lists of vector specs",
        )
        vertical = [
            _parse_vector(f"frame.vertical[{i}]", v, chart) for i, v in enumerate(fr["vertical"])
        ]
        horizontal = [
            _parse_vector(f"frame.horizontal[{i}]", v, chart)
            for i, v in enumerate(fr["horizontal"])
        ]

    fibration_base = None
    fibration_auxiliary: Tuple[str, ...] = ()
    if "fibration" in data:
        fb = data["fibration"]
        _require(isinstance(fb, dict), "fibration", "must be an object")
        _require(set(fb) <= {"base", "auxiliary"}, "fibration", "allowed keys: base, auxiliary")
        _require("base" in fb, "fibration", "missing key 'base'")
        base = fb["base"]
        _require(
            isinstance(base, list) and base and all(n in coords for n in base),
            "fibration.base",
            "must be a non-empty list of known coordinates",
        )
        _require(len(set(base)) == len(base), "fibration.base", "duplicate coordinates")
        fibration_base = tuple(base)
        aux = fb.get("auxiliary", [])
        _require(
            isinstance(aux, list) and all(n in coords and n not in base for n in aux),
            "fibration.auxiliary",
            "must list fiber coordinates",
        )
        fibration_auxiliary = tuple(aux)

    samples = SampleConfig()
    if "samples" in data:
        sm = data["samples"]
        _require(isinstance(sm, dict), "samples", "must be an object")
        _require(
            set(sm) <= {"count", "seed", "coordinate_range"},
            "samples",
            "allowed keys: count, seed, coordinate_range",
        )
        count = sm.get("count", DEFAULT_COUNT)
        seed = sm.get("seed", DEFAULT_SEED)
        crange = sm.get("coordinate_range", list(DEFAULT_RANGE))
        _require(type(count) is int and count > 0, "samples.count", "must be a positive integer")
        _require(type(seed) is int, "samples.seed", "must be an integer")
        _require(
            isinstance(crange, list)
            and len(crange) == 2
            and all(type(x) is int for x in crange)
            and crange[0] <= crange[1],
            "samples.coordinate_range",
            "must be [low, high] integers with low <= high",
        )
        samples = SampleConfig(count, seed, crange[0], crange[1])

    return ManifoldSpec(
        name,
        chart,
        degree,
        form,
        vertical,
        horizontal,
        fibration_base,
        fibration_auxiliary,
        samples,
    )


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(path, f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(path, f"invalid JSON: {exc}") from exc


def load_spec(path: str) -> ManifoldSpec:
    return parse_spec_dict(_read_json(path), path)


def load_section(path: str, fibered: FiberedChart) -> Section:
    """Read a section file: one expression over the base per fiber coordinate."""
    data = _read_json(path)
    _require(isinstance(data, dict), path, "section file must map fiber coordinate -> expression")
    components = {
        name: _parse_coeff(f"{path}:{name}", src, fibered.base) for name, src in data.items()
    }
    try:
        return Section(fibered, components)
    except PlecticError as exc:
        raise SpecError(path, str(exc)) from exc


def form_to_spec_terms(form: Form) -> List[dict]:
    names = form.chart.coords
    return [
        {"indices": [names[i] for i in idx], "coeff": str(c)}
        for idx, c in form.sorted_terms()
    ]


def thickened_spec_dict(thickening, source: ManifoldSpec) -> dict:
    """Spec dict for a thickened manifold, re-ingestable by the checker."""
    out = {
        "name": source.name + "_thickened",
        "coordinates": list(thickening.big_chart.coords),
        "form": {
            "degree": thickening.omega_tilde.degree,
            "terms": form_to_spec_terms(thickening.omega_tilde),
        },
        "samples": {
            "count": source.samples.count,
            "seed": source.samples.seed,
            "coordinate_range": [source.samples.low, source.samples.high],
        },
    }
    if source.fibration_base is not None:
        out["fibration"] = {
            "base": list(source.fibration_base),
            "auxiliary": list(source.fibration_auxiliary)
            + list(thickening.fiber_names),
        }
    return out


def save_spec_dict(data: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise SpecError(path, f"cannot write file: {exc}") from exc
