"""Per-layer tracing applied from outside the program.

The tracer replaces the layers' public functions with timing wrappers.  A
function is patched at every binding that refers to it: its defining module,
every ``plectic`` module that imported it by name, and every class attribute
that aliases it (``ScalarExpr.__radd__ is ScalarExpr.__add__``).  Nothing in
the program's source changes.

Every wrapped function is aggregated into a call count and a self time, the
time of its calls minus the time covered by wrapped functions they call.  The
hot ``coeff`` and ``exterior`` methods run hundreds of thousands of times in
one pass, so only these aggregates are kept for them.  Coarse entry points
(builders, verifiers, the CLI commands) also record one span per call, with
its parent span, for the span log.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

# (metric key, owner path, attribute, coarse).  The key names the layer module
# first; the owner path is resolved inside the imported package.
TRACED = [
    ("coeff.ScalarExpr.mul", "coeff.ScalarExpr", "__mul__", False),
    ("coeff.ScalarExpr.add", "coeff.ScalarExpr", "__add__", False),
    ("coeff.ScalarExpr.diff", "coeff.ScalarExpr", "diff", False),
    ("coeff.ScalarExpr.compose", "coeff.ScalarExpr", "compose", False),
    ("coeff.ScalarExpr.evaluate", "coeff.ScalarExpr", "evaluate", False),
    ("coeff.poly_gcd", "coeff", "poly_gcd", False),
    ("coeff.parse_expr", "coeff", "parse_expr", False),
    ("exterior.CoordinateMap.pullback", "exterior.CoordinateMap", "pullback", False),
    ("exterior.Form.wedge", "exterior.Form", "wedge", False),
    ("exterior.Form.d", "exterior.Form", "d", False),
    ("exterior.contract_constant", "exterior", "contract_constant", False),
    ("linalg.rref", "linalg", "rref", False),
    ("linalg.kernel_basis", "linalg", "kernel_basis", False),
    ("linalg.rank", "linalg", "rank", False),
    ("linalg.subspace_contained", "linalg", "subspace_contained", False),
    ("linalg.invert", "linalg", "invert", True),
    ("splitting.contraction_matrix", "splitting", "contraction_matrix", False),
    ("splitting.multisymplectic_orthogonal", "splitting", "multisymplectic_orthogonal", False),
    ("splitting.build_split_frame", "splitting", "build_split_frame", True),
    ("splitting.verify_constant_rank", "splitting", "verify_constant_rank", True),
    ("thicken.tautological_form", "thicken", "tautological_form", True),
    ("thicken.build_thickening", "thicken", "build_thickening", True),
    ("thicken.verify_closed", "thicken", "verify_closed", True),
    ("thicken.verify_nondegenerate", "thicken", "verify_nondegenerate", True),
    ("thicken.verify_zero_section_pullback", "thicken", "verify_zero_section_pullback", True),
    ("thicken.verify_coisotropic", "thicken", "verify_coisotropic", True),
    ("thicken.present_in_frame_basis", "thicken", "present_in_frame_basis", True),
    ("fieldtheory.eom_symbolic_system", "fieldtheory", "eom_symbolic_system", True),
    ("fieldtheory.eom_residual", "fieldtheory", "eom_residual", True),
    ("manifoldspec.load_spec", "manifoldspec", "load_spec", True),
    ("manifoldspec.thickened_spec_dict", "manifoldspec", "thickened_spec_dict", True),
    ("manifoldspec.save_spec_dict", "manifoldspec", "save_spec_dict", True),
    ("sampling.sample_points", "sampling", "sample_points", False),
]
CLI_COMMANDS = ("check", "thicken", "orthogonal", "eom")
MODULES = ("coeff", "exterior", "linalg", "splitting", "thicken", "fieldtheory",
           "manifoldspec", "sampling", "cli")
# problem-size counters: name -> unit
SIZES = {
    "linalg.rows_in": "count",
    "linalg.useful_row_ratio": "ratio",
    "splitting.contraction_matrix.rows": "count",
    "splitting.contraction_matrix.nnz": "count",
    "thicken.big_chart_dim": "count",
    "thicken.fiber_count": "count",
    "thicken.omega_tilde_terms": "count",
    "sampling.pole_rejections": "count",
}
OVERHEAD = {"trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}


def function_keys() -> List[str]:
    return [key for key, *_ in TRACED] + [f"cli.main.{c}" for c in CLI_COMMANDS]


def layer_metrics() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for key in function_keys():
        out[f"{key}.calls"] = "count"
        out[f"{key}.self_s"] = "s"
    for module in MODULES:
        out[f"{module}.self_s"] = "s"
    out.update(SIZES)
    out.update(OVERHEAD)
    return out


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs wrappers, aggregates calls and self time, keeps coarse spans."""

    def __init__(self, package, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats: Dict[str, List[float]] = {key: [0, 0.0] for key in function_keys()}
        self.counts: Dict[str, float] = {
            "linalg.rows_in": 0, "linalg.useful_rows": 0,
            "splitting.contraction_matrix.rows": 0, "splitting.contraction_matrix.nnz": 0,
            "sampling.pole_rejections": 0,
        }
        self.maxima: Dict[str, int] = {
            "thicken.big_chart_dim": 0, "thicken.fiber_count": 0, "thicken.omega_tilde_terms": 0,
        }
        self.spans: List[tuple] = []
        self._child_time = [0.0]
        self._span_stack = [None]
        self._patches: List[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn: Callable, key, coarse: bool, after: Optional[Callable] = None):
        stats = self.stats
        child_time = self._child_time
        span_stack = self._span_stack
        spans = self.spans
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The caller is charged the whole time from entered to the end, so
            # the wrapper's own bookkeeping is in no function's self time.
            entered = clock()
            try:
                name = key(args) if callable(key) else key
                if coarse:
                    span_id = len(spans)
                    spans.append(None)
                    span_stack.append(span_id)
                child_time.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    entry = stats[name]
                    entry[0] += 1
                    entry[1] += end - start - child_time.pop()
                    if coarse:
                        span_stack.pop()
                        spans[span_id] = (span_id, span_stack[-1], name, start, end)
                return result if after is None else after(args, result)
            finally:
                child_time[-1] += clock() - entered

        return wrapper

    def _replace(self, original, replacement) -> None:
        prefix = self.package.__name__
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, replacement)

    def install(self) -> None:
        after = {
            "linalg.rref": self._count_rows,
            "splitting.contraction_matrix": self._count_matrix,
            "thicken.build_thickening": self._record_sizes,
        }
        for key, owner, attr, coarse in TRACED:
            original = getattr(_resolve(self.package, owner), attr)
            self._replace(original, self._wrapper(original, key, coarse, after.get(key)))
        main = self.package.cli.main
        self._replace(main, self._wrapper(main, lambda args: f"cli.main.{args[0][0]}", True))
        rejector = self.package.sampling.pole_rejector
        self._replace(rejector, self._counting_rejector(rejector))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- size hooks ----------------------------------------------------------

    def _count_rows(self, args, result):
        rows = args[0]
        self.counts["linalg.rows_in"] += len(rows)
        self.counts["linalg.useful_rows"] += sum(1 for row in rows if any(row))
        return result

    def _count_matrix(self, args, result):
        rows = result[0]
        self.counts["splitting.contraction_matrix.rows"] += len(rows)
        self.counts["splitting.contraction_matrix.nnz"] += sum(
            1 for row in rows for x in row if x
        )
        return result

    def _record_sizes(self, args, thickening):
        for name, value in (
            ("thicken.big_chart_dim", thickening.big_chart.dim),
            ("thicken.fiber_count", thickening.fiber_count),
            ("thicken.omega_tilde_terms", len(thickening.omega_tilde.terms)),
        ):
            self.maxima[name] = max(self.maxima[name], value)
        return thickening

    def _counting_rejector(self, rejector):
        counts = self.counts

        @functools.wraps(rejector)
        def counting(form):
            reject = rejector(form)

            def predicate(point):
                rejected = reject(point)
                if rejected:
                    counts["sampling.pole_rejections"] += 1
                return rejected

            return predicate

        return counting

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-pass averages of the aggregates (sizes are per-pass maxima)."""
        out: Dict[str, float] = {}
        module_self = {module: 0.0 for module in MODULES}
        for key, (calls, self_s) in self.stats.items():
            out[f"{key}.calls"] = calls / passes
            out[f"{key}.self_s"] = self_s / passes
            module_self[key.split(".")[0]] += self_s / passes
        for module, value in module_self.items():
            out[f"{module}.self_s"] = value
        rows = self.counts["linalg.rows_in"]
        out["linalg.rows_in"] = rows / passes
        out["linalg.useful_row_ratio"] = self.counts["linalg.useful_rows"] / rows if rows else 0.0
        for name in ("splitting.contraction_matrix.rows", "splitting.contraction_matrix.nnz",
                     "sampling.pole_rejections"):
            out[name] = self.counts[name] / passes
        out.update(self.maxima)
        return out
