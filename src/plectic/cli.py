"""Command-line surface: check, thicken, orthogonal, eom.

Exit codes: 0 when every verdict is PASS or EVIDENCE, 1 on a verification
failure, 2 on input errors (unreadable spec, validation failure, bad flags).

With --json the command emits one JSON object per line (a header, then one
object per report) with sorted keys and no timing data, so output for a fixed
seed is byte-for-byte reproducible.  The environment variable PLECTIC_SEED
overrides the default sampling seed; an explicit --seed wins over both it and
the spec file's samples block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import PlecticError
from .exterior import Form
from .fieldtheory import eom_residual, eom_symbolic_system
from .manifoldspec import (
    ManifoldSpec,
    SpecError,
    load_section,
    load_spec,
    save_spec_dict,
    thickened_spec_dict,
)
from .report import VerificationReport, residual_report, sampled_report
from .sampling import SampleConfig, pole_rejector, sample_points
from .splitting import (
    NotClosedError,
    build_split_frame,
    coordinate_orthogonal,
    kernel_dimensions,
    verify_constant_rank,
)
from .thicken import Thickening, build_thickening, present_in_frame_basis, verify_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class _Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def header(self, **fields):
        if self.as_json:
            self._emit({"header": fields})
        else:
            for key, value in fields.items():
                print(f"{key}: {value}")

    def report(self, report: VerificationReport):
        if self.as_json:
            self._emit(report.to_json_dict())
        else:
            for line in report.human_lines():
                print(line)

    def info(self, text: str, payload, key: str):
        """``payload`` under ``key`` in JSON mode, else ``text`` unless it is empty."""
        if self.as_json:
            self._emit({key: payload})
        elif text:
            print(text)

    def _emit(self, obj):
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _sample_config(spec: ManifoldSpec, args) -> SampleConfig:
    seed = spec.samples.seed
    env = os.environ.get("PLECTIC_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise SpecError("PLECTIC_SEED", f"not an integer: {env!r}")
    if args.seed is not None:
        seed = args.seed
    if args.samples is not None and args.samples <= 0:
        raise SpecError("--samples", "must be a positive integer")
    count = args.samples if args.samples is not None else spec.samples.count
    return SampleConfig(count, seed, spec.samples.low, spec.samples.high)


def _render_form(form: Form, basis: str, thickening: Thickening) -> str:
    if basis == "frame":
        coeffs = present_in_frame_basis(thickening, form)
        frame = thickening.frame
        d = frame.chart.dim
        labels = []
        for j in range(thickening.big_chart.dim):
            if j < frame.r:
                labels.append(f"theta_{frame.labels[j]}")
            elif j < d:
                labels.append(f"eta_{frame.labels[j]}")
            else:
                labels.append(f"d{thickening.big_chart.coords[j]}")
        parts = []
        for idx in sorted(coeffs):
            mono = "^".join(labels[j] for j in idx)
            parts.append(f"({coeffs[idx]})*{mono}")
        return " + ".join(parts) if parts else "0"
    return str(form)


def _manifold(spec: ManifoldSpec):
    """The spec's manifold (None if its form is not closed) and the closedness report."""
    start = time.perf_counter()
    try:
        manifold = spec.manifold()
    except NotClosedError as exc:
        return None, residual_report("closedness", exc.residual, start)
    return manifold, residual_report("closedness", Form.zero(spec.chart, spec.degree + 1), start)


def cmd_check(args) -> int:
    spec = load_spec(args.spec)
    out = _Output(args.json)
    config = _sample_config(spec, args)
    manifold, closedness = _manifold(spec)
    reports = [closedness]
    # drawn before the header: a spec on which sampling fails prints nothing
    if manifold is not None:
        points = sample_points(spec.chart.dim, config, pole_rejector(spec.form))
    out.header(
        command="check",
        spec=spec.name,
        dimension=spec.chart.dim,
        degree=spec.degree,
        **config.describe(),
    )
    if manifold is not None:
        dims = kernel_dimensions(manifold, points)
        rank_report = verify_constant_rank(manifold, points, config, dims)
        per_sample = [
            {"point": [str(x) for x in p], "kernel_dim": dim}
            for p, dim in zip(points, dims)
        ]
        if args.json:
            details = {**rank_report.details, "per_sample": per_sample}
            rank_report = rank_report.replace(details=details)
        else:
            for entry in per_sample:
                print(f"  sample {','.join(entry['point'])}: kernel dim {entry['kernel_dim']}")
        reports.append(rank_report)
    for report in reports:
        out.report(report)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAIL


def cmd_thicken(args) -> int:
    spec = load_spec(args.spec)
    if not spec.has_frame():
        raise SpecError("frame", "thicken requires a frame block (kernel + complement)")
    out = _Output(args.json)
    config = _sample_config(spec, args)
    manifold, closedness = _manifold(spec)
    if manifold is None:
        out.report(closedness)
        return EXIT_FAIL
    frame = build_split_frame(manifold, spec.vertical, spec.horizontal)
    thickening = build_thickening(manifold, frame)
    out.header(
        command="thicken",
        spec=spec.name,
        base_dimension=spec.chart.dim,
        thickened_dimension=thickening.big_chart.dim,
        fiber_coordinates=list(thickening.fiber_names),
        monomial_basis=args.monomial_basis,
        **config.describe(),
    )
    for name, form in (("theta_0", thickening.theta0), ("omega_tilde", thickening.omega_tilde)):
        text = _render_form(form, args.monomial_basis, thickening)
        out.info(f"{name} = {text}", payload={name: text}, key="form")
    reports = verify_all(thickening, config)
    for report in reports:
        out.report(report)
    if args.emit:
        save_spec_dict(thickened_spec_dict(thickening, spec), args.emit)
        out.info(f"thickened spec written to {args.emit}", payload=args.emit, key="emitted")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAIL


def _parse_constraints(text: str, spec: ManifoldSpec) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise SpecError("--submanifold", f"expected name=value, got {piece!r}")
        name, _, value = piece.partition("=")
        name = name.strip()
        if name not in spec.chart.coords:
            raise SpecError("--submanifold", f"unknown coordinate {name!r}")
        if spec.chart.axis(name) in out:
            raise SpecError("--submanifold", f"coordinate {name!r} constrained twice")
        try:
            out[spec.chart.axis(name)] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError("--submanifold", f"bad rational constant {value!r}: {exc}")
    if not out:
        raise SpecError("--submanifold", "no constraints given")
    return out


def cmd_orthogonal(args) -> int:
    spec = load_spec(args.spec)
    out = _Output(args.json)
    config = _sample_config(spec, args)
    constraints = _parse_constraints(args.submanifold, spec)
    ell = args.ell if args.ell is not None else spec.degree - 1
    if ell < 1:
        raise SpecError("--ell", "must be >= 1")
    d = spec.chart.dim
    free_axes = [i for i in range(d) if i not in constraints]
    start = time.perf_counter()
    reject = pole_rejector(spec.form)

    def on_submanifold(point):
        full = list(point)
        for axis, value in constraints.items():
            full[axis] = value
        return tuple(full)

    # drawn before the header: a spec on which sampling fails prints nothing
    raw_points = sample_points(d, config, lambda p: reject(on_submanifold(p)))
    points = [on_submanifold(p) for p in raw_points]
    out.header(
        command="orthogonal",
        spec=spec.name,
        submanifold={spec.chart.coords[i]: str(v) for i, v in sorted(constraints.items())},
        ell=ell,
        tangent_dimension=len(free_axes),
        **config.describe(),
    )
    witnesses = []
    for p in points:
        ortho = coordinate_orthogonal(spec.form, p, free_axes, ell)
        contained = not any(v[a] for v in ortho for a in constraints)
        entry = {
            "point": [str(x) for x in p],
            "orthogonal_basis": [[str(x) for x in v] for v in ortho],
            "contained_in_tangent": contained,
        }
        text = (
            f"  at ({','.join(entry['point'])}): dim T-perp,{ell} = {len(ortho)}; "
            f"contained: {contained}"
        )
        out.info(text, entry, "sample")
        if not contained:
            witnesses.append(entry)
    details = {"points_checked": len(points), "ell": ell, **config.describe()}
    report = sampled_report(f"{ell}-coisotropic-containment", points, details, witnesses, start)
    out.report(report)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_eom(args) -> int:
    spec = load_spec(args.spec)
    out = _Output(args.json)
    fibered = spec.fibered_chart()
    if bool(args.symbolic) == bool(args.section):
        raise SpecError("eom", "exactly one of --symbolic or --section is required")
    section = load_section(args.section, fibered) if args.section else None
    out.header(
        command="eom",
        spec=spec.name,
        base=list(fibered.base),
        fields=list(fibered.fiber),
        auxiliary=list(fibered.auxiliary),
    )
    if args.symbolic:
        system = eom_symbolic_system(spec.form, fibered)

        def by_direction(pairs, key="equation", show=system.display):
            return [{"direction": d, key: show(e)} for d, e in pairs]

        payload = {
            "physical": [system.display(e) for e in system.physical_system()],
            "auxiliary": by_direction(system.auxiliary_system()),
            "derived": by_direction(system.derived_combinations()),
            "obstructions": by_direction(system.obstructions(), "residual", str),
        }
        lines = [f"physical system ({len(payload['physical'])} equations):"]
        lines += [f"  {e}" for e in payload["physical"]]
        for key, title, text in (
            ("auxiliary", "auxiliary equations (regulator fields; neglected):", "{equation}"),
            ("derived", "derived combinations (jet-degree >= 2):", "{equation}"),
            ("obstructions", "obstruction directions (residual has no jet variables; no solution):",
             "residual {residual}"),
        ):
            if payload[key]:
                lines.append(title)
            for item in payload[key]:
                lines.append(("  [from direction {direction}] " + text).format(**item))
        out.info("\n".join(lines), payload, "eom_symbolic")
        return EXIT_OK
    residual = eom_residual(spec.form, fibered, section)
    entries = [
        {
            "direction": name,
            "kind": "auxiliary" if name in fibered.auxiliary else "physical",
            "residual": str(form),
            "zero": form.is_zero(),
        }
        for name, form in residual.residuals.items()
    ]
    lines = [
        f"  direction {e['direction']} [{e['kind']}]: {'0' if e['zero'] else e['residual']}"
        for e in entries
    ]
    out.info("\n".join(lines), entries, "eom_residuals")
    zero = residual.is_zero()
    out.info(f"overall: {'all residuals zero' if zero else 'nonzero residuals'}", zero, "all_zero")
    return EXIT_OK if zero else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plectic",
        description="Exact verification engine for closed-form kernels, "
        "coisotropic thickenings, and field equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="path to a manifold spec (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable JSONL output")
        p.add_argument("--samples", type=int, default=None, help="number of sample points")
        p.add_argument("--seed", type=int, default=None, help="sampling seed")

    p_check = sub.add_parser("check", help="closedness + kernel rank at samples")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_thicken = sub.add_parser("thicken", help="build the thickening and verify its properties")
    common(p_thicken)
    p_thicken.add_argument("--emit", default=None, help="write the thickened manifold spec here")
    p_thicken.add_argument(
        "--monomial-basis",
        choices=("dx", "frame"),
        default="frame",
        help="presentation basis for reported forms",
    )
    p_thicken.set_defaults(func=cmd_thicken)

    p_orth = sub.add_parser("orthogonal", help="ell-orthogonal of a coordinate submanifold")
    common(p_orth)
    p_orth.add_argument(
        "--submanifold",
        required=True,
        help="comma-separated coordinate constraints, e.g. 'x5=0,x6=0'",
    )
    p_orth.add_argument("--ell", type=int, default=None, help="orthogonality order (default k-1)")
    p_orth.set_defaults(func=cmd_orthogonal)

    p_eom = sub.add_parser("eom", help="equation-of-motion residuals for sections")
    common(p_eom)
    p_eom.add_argument("--symbolic", action="store_true", help="print the formal PDE system")
    p_eom.add_argument("--section", default=None, help="JSON file mapping fiber coords to expressions")
    p_eom.set_defaults(func=cmd_eom)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlecticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
