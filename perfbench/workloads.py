"""Workloads, their correctness oracle, and one measured pass of each.

Load is a closed loop with one client: one process issues one operation at a
time and starts the next when the previous one has returned.  Every
operation is checked against a known answer taken from the paper's claims or
from the documented CLI behaviour, never against the program's own earlier
output.  An operation counts as failed on a wrong verdict or exit code, a
crash, or a timeout.

Workloads (seed costs on a 2-core x86-64 container, Python 3.11.7):

``cli-fixtures``
    The user-facing path: ``python -m plectic.cli ... --json --seed S`` as a
    subprocess on the bundled fixtures, the emitted thickened spec, and two
    section files, 15 commands per pass (about 0.1 s each, most of it
    interpreter start-up and import).  It moves with start-up, import and
    spec parsing and emitting, and barely with the algorithms.  It includes a
    write path (``--emit``) and two documented exit-1 commands.
``dw3-sampled``
    Pointwise verifiers on the DW n = 3 thickening (38-dim chart, 31 fibers,
    45 omega_tilde terms), one seeded point per call: non-degeneracy (full
    rank, 0.5 to 0.9 s, mostly ``linalg.rref`` on a dense 8436 x 38 matrix
    with 142 nonzero rows), the kernel of tau^* omega (rank-deficient, kernel
    dimension 34 = fibers + n, 0.5 to 0.8 s) and coisotropy (0.05 to 0.08 s).
    The first two use the same matrix size at full rank and rank-deficient,
    so a full-rank shortcut cannot hide a loss on the fallback path.  The
    build (about 1 s) is a small share.
``dw-symbolic``
    The DW n = 4 build (130-dim chart, 121 fibers; 18 to 25 s), its
    closedness and zero-section checks (about 0.7 s) and its frame-basis
    presentation (0.3 s), then ``eom_symbolic_system`` on the DW n = 3
    thickening (1.2 to 1.9 s after a 1 s build).  ``coeff`` and ``exterior``
    do nearly all the work.  Left out: n = 4 non-degeneracy, whose dense
    contraction matrix would have C(130, 4), about 11.7M, rows; and n = 4
    eom, which takes about 103 s, over half of a run's time limit.

Every run reports every end-to-end metric, so each pass also runs, on the
smallest family member (DW n = 2, which is ``scalar_field_2d`` renamed), the
stages that are not its workload's focus: the library stages for
``cli-fixtures``, and a four-command CLI suite for the DW workloads.  These
small stages change little between workloads; the focus stages are where a
workload's numbers are expected to move.  ``verdict_s`` times the focus
stages only.  A millisecond operation is timed in a batch (``BATCH``) and
reported per operation, so that one sample spans a few tenths of a second.

Every time is in reference seconds: each operation's measured time is scaled
by the machine speed measured around and during it (``speed.py``), because
the shared 2-core container this was built on changes speed by 25 to 75%
within seconds.  ``verdict_s`` is the sum of its operations' scaled times.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import dwfamily
import speed

PASS, EVIDENCE, FAIL = "PASS", "EVIDENCE", "FAIL"
OP_LIMIT_S = 90.0
# Repetitions timed as one sample, so that a sample of a millisecond operation
# spans about as much machine time (0.25 s or more at seed) as a slow one.
BATCH = {
    ("build_s", 2): 8, ("symbolic_verify_s", 2): 32, ("eom_s", 2): 16,
    ("nondeg_s_per_point", 2): 64, ("kernel_s_per_point", 2): 128,
    ("coiso_s_per_point", 2): 64, ("coiso_s_per_point", 3): 4,
}
DW2_CLI_REPS = 3
DW3_POINTS_PER_PASS = 3
# dw-symbolic makes one pass per run and then repeats its shorter stages
DW_SYMBOLIC_ROUNDS = 2
POINT_METRICS = ("nondeg_s_per_point", "kernel_s_per_point", "coiso_s_per_point")

CLI_METRICS = {"check": "cli.check_s", "thicken": "cli.thicken_s",
               "orthogonal": "cli.orthogonal_s", "eom": "cli.eom_s"}


class OpTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` have passed."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"no result after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- oracle ------------------------------------------------------------------

THICKEN_VERDICTS = [
    ("thickened-form-closed", PASS),
    ("thickened-form-non-degenerate", EVIDENCE),
    ("zero-section-pullback", PASS),
    ("zero-section-coisotropic", EVIDENCE),
]


def _reports(lines: List[dict]) -> List[dict]:
    return [line for line in lines if "check" in line and "verdict" in line]


def _keyed(lines: List[dict], key: str):
    return next((line[key] for line in lines if key in line), None)


def expect_check(kernel_dim: int) -> Callable:
    def check(lines):
        reports = {r["check"]: r for r in _reports(lines)}
        if reports.get("closedness", {}).get("verdict") != PASS:
            return "closedness is not PASS"
        rank = reports.get("constant-rank")
        if rank is None or rank["verdict"] != EVIDENCE:
            return "constant-rank is not EVIDENCE"
        if rank["details"]["kernel_dimensions"] != [kernel_dim]:
            return f"kernel dimensions {rank['details']['kernel_dimensions']} != [{kernel_dim}]"
        return None

    return check


def expect_thicken(dim: int) -> Callable:
    def check(lines):
        header = _keyed(lines, "header") or {}
        if header.get("thickened_dimension") != dim:
            return f"thickened dimension {header.get('thickened_dimension')} != {dim}"
        verdicts = [(r["check"], r["verdict"]) for r in _reports(lines)]
        return None if verdicts == THICKEN_VERDICTS else f"verdicts {verdicts}"

    return check


def expect_orthogonal(verdict: str) -> Callable:
    def check(lines):
        reports = _reports(lines)
        if not reports or reports[-1]["verdict"] != verdict:
            return f"containment verdict is not {verdict}"
        if verdict == FAIL and not reports[-1]["witnesses"]:
            return "FAIL without a witness"
        return None

    return check


def expect_eom(physical: int, obstructions: int) -> Callable:
    def check(lines):
        system = _keyed(lines, "eom_symbolic")
        if system is None:
            return "no eom_symbolic output"
        got = (len(system["physical"]), len(system["obstructions"]))
        return None if got == (physical, obstructions) else f"(physical, obstructions) = {got}"

    return check


def expect_section(all_zero: bool) -> Callable:
    def check(lines):
        got = _keyed(lines, "all_zero")
        return None if got is all_zero else f"all_zero = {got}"

    return check


@dataclass
class Command:
    kind: str
    argv: List[str]
    exit_code: int
    expect: Callable


def fixture_suite(fixtures: str, tmp: str) -> List[Command]:
    """The CLI pass of ``cli-fixtures``; verdicts from the README and tests."""
    f = lambda name: os.path.join(fixtures, name + ".json")  # noqa: E731
    thick = os.path.join(tmp, "thick.json")
    samples = ["--samples", "5"]
    kernels = {"scalar_field_2d": 2, "scalar_field_2d_nondegenerate": 0,
               "r4_premultisymplectic": 1, "r5_thickening": 0, "r6_thickening": 0}
    suite = [Command("check", ["check", f(name), *samples], 0, expect_check(k))
             for name, k in kernels.items()]
    return suite + [
        Command("thicken", ["thicken", f("scalar_field_2d"), *samples, "--emit", thick],
                0, expect_thicken(12)),
        Command("check", ["check", thick, *samples], 0, expect_check(0)),
        Command("eom", ["eom", thick, "--symbolic"], 0, expect_eom(6, 1)),
        Command("thicken", ["thicken", f("r4_premultisymplectic"), *samples],
                0, expect_thicken(7)),
        Command("orthogonal", ["orthogonal", f("r5_thickening"), "--submanifold", "x5=0",
                               "--ell", "2", *samples], 0, expect_orthogonal(EVIDENCE)),
        Command("orthogonal", ["orthogonal", f("r6_thickening"), "--submanifold",
                               "x5=0,x6=0", "--ell", "2", *samples],
                0, expect_orthogonal(EVIDENCE)),
        Command("eom", ["eom", f("scalar_field_2d"), "--symbolic"], 0, expect_eom(2, 0)),
        Command("eom", ["eom", f("scalar_field_2d"), "--section",
                        os.path.join(tmp, "section_zero.json")], 0, expect_section(True)),
        Command("eom", ["eom", f("scalar_field_2d"), "--section",
                        os.path.join(tmp, "section_nonzero.json")], 1, expect_section(False)),
        # documented FAIL: ell exceeds the tangent dimension
        Command("orthogonal", ["orthogonal", f("r4_premultisymplectic"), "--submanifold",
                               "x4=0", "--ell", "5", *samples], 1, expect_orthogonal(FAIL)),
    ]


def dw2_suite(spec_path: str, tmp: str, fiber_names) -> List[Command]:
    """Four CLI commands on DW n = 2, one of each kind."""
    thick = os.path.join(tmp, "dw_n2_thick.json")
    zero_section = ",".join(f"{name}=0" for name in fiber_names)
    samples = ["--samples", "5"]
    return [
        Command("check", ["check", spec_path, *samples], 0, expect_check(2)),
        Command("thicken", ["thicken", spec_path, *samples, "--emit", thick],
                0, expect_thicken(dwfamily.big_chart_dim(2))),
        # claim 4: the zero section is (k-1)-coisotropic
        Command("orthogonal", ["orthogonal", thick, "--submanifold", zero_section,
                               "--ell", "2", *samples], 0, expect_orthogonal(EVIDENCE)),
        Command("eom", ["eom", thick, "--symbolic"], 0, expect_eom(6, 1)),
    ]


# -- inputs ------------------------------------------------------------------


@dataclass
class Model:
    n: int
    spec: object
    manifold: object


def dw_model(plectic, n: int) -> Model:
    spec = plectic.manifoldspec.parse_spec_dict(dwfamily.spec_dict(n))
    return Model(n, spec, spec.manifold())


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def setup(plectic, workload: str, root: str, tmp: str) -> dict:
    """Input generation, spec load and manifold construction."""
    inputs = {"dw2": dw_model(plectic, 2)}
    if workload == "cli-fixtures":
        fixtures = os.path.join(root, "src", "plectic", "fixtures")
        for name in sorted(os.listdir(fixtures)):
            plectic.manifoldspec.load_spec(os.path.join(fixtures, name)).manifold()
        write_json(os.path.join(tmp, "section_zero.json"),
                   {"u": "3*x + 5", "rho_x": "3", "rho_t": "x*t"})
        write_json(os.path.join(tmp, "section_nonzero.json"),
                   {"u": "x^2", "rho_x": "x", "rho_t": "0"})
        inputs["suite"] = fixture_suite(fixtures, tmp)
        return inputs
    spec_path = os.path.join(tmp, "dw_n2.json")
    write_json(spec_path, dwfamily.spec_dict(2))
    m = inputs["dw2"].manifold
    frame = plectic.splitting.build_split_frame(m, inputs["dw2"].spec.vertical,
                                                inputs["dw2"].spec.horizontal)
    fibers = plectic.thicken.build_thickening(m, frame).fiber_names
    inputs["suite"] = dw2_suite(spec_path, tmp, fibers)
    inputs["dw3"] = dw_model(plectic, 3)
    if workload == "dw-symbolic":
        inputs["dw4"] = dw_model(plectic, 4)
    return inputs


# -- measured operations -----------------------------------------------------


class Run:
    """Samples, operation counts and failures of one benchmark run.

    Each operation's time is scaled to reference seconds by a meter (see
    ``speed.py``): the ``startup`` kernel for CLI subprocesses, the in-process
    ``kernel`` for the rest.  A traced run runs the CLI in process, so its
    CLI operations use the in-process meter too.
    """

    def __init__(self, plectic, seed: int, deadline: float, traced: bool):
        self.plectic = plectic
        self.seed = seed
        self.deadline = deadline
        self.traced = traced
        self.cpu = speed.Meter(speed.kernel_time, speed.REFERENCE_S, probe=True)
        self.startup = self.cpu if traced else speed.Meter(
            speed.startup_time, speed.STARTUP_REFERENCE_S)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: List[str] = []
        self.first_stdout: Dict[str, str] = {}
        self.op_seconds = 0.0  # all successful operations so far
        self._points = 0

    def point_seed(self) -> int:
        self._points += 1
        return self.seed * 100003 + self._points

    def op(self, label: str, fn: Callable, check: Optional[Callable] = None,
           limit: float = OP_LIMIT_S, meter: Optional[speed.Meter] = None):
        """Time fn() under a time limit and check its result.

        Returns (result, reference seconds), or (None, None) after recording
        a failure.  ``meter`` defaults to the in-process one.
        """
        meter = meter or self.cpu
        self.attempted += 1
        limit = min(limit, self.deadline - time.perf_counter())
        try:
            if limit <= 0:
                raise OpTimeout("run deadline reached")
            first = meter.mark()
            spent = meter.spent
            start = time.perf_counter()
            with time_limit(limit), meter.probing():
                result = fn()
            seconds = meter.scale(time.perf_counter() - start - (meter.spent - spent), first)
            problem = check(result) if check is not None else None
        except OpTimeout as exc:
            problem = f"timeout: {exc}"
        except Exception:  # a crash is a failed operation; the run goes on
            problem = "crash: " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        if problem:
            self.failures.append(f"{label}: {problem}")
            return None, None
        self.op_seconds += seconds
        return result, seconds

    @contextmanager
    def timed(self, metric: str):
        """Sample the time of the operations the block runs."""
        before = self.op_seconds
        yield
        self.samples[metric].append(self.op_seconds - before)

    # -- CLI ----------------------------------------------------------------

    def _cli(self, argv: List[str]):
        if self.traced:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.plectic.cli.main(argv)
            return code, out.getvalue()
        # on OpTimeout, subprocess.run kills the child before re-raising
        proc = subprocess.run([sys.executable, "-m", "plectic.cli", *argv],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def cli_suite(self, suite: List[Command], reps: int = 1) -> None:
        """One sample per command kind: its total time in ``reps`` passes over the suite."""
        totals = {kind: 0.0 for kind in CLI_METRICS}
        for _ in range(reps):
            for command in suite:
                argv = [*command.argv, "--json", "--seed", str(self.seed)]
                label = " ".join(argv)
                _, elapsed = self.op(label, lambda: self._cli(argv),
                                     lambda result: self._check_cli(label, command, result),
                                     meter=self.startup)
                if elapsed is None:
                    return
                totals[command.kind] += elapsed
        for kind, metric in CLI_METRICS.items():
            self.samples[metric].append(totals[kind])

    def _check_cli(self, label: str, command: Command, result) -> Optional[str]:
        code, stdout = result
        if code != command.exit_code:
            return f"exit code {code}, expected {command.exit_code}"
        try:
            lines = [json.loads(line) for line in stdout.splitlines()]
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON lines: {exc}"
        problem = command.expect(lines)
        if problem:
            return problem
        first = self.first_stdout.setdefault(label, stdout)
        return None if stdout == first else "--json stdout differs from the first pass"

    # -- library stages -------------------------------------------------------

    def repeat(self, metric: Optional[str], n: int, step: Callable):
        """One sample of ``metric`` at DW size n: the mean time of ``step``.

        ``step()`` returns ``op``'s (result, seconds) and runs BATCH times.
        Returns the last result, or None after a failure (and no sample).
        """
        times = BATCH.get((metric, n), 1)
        total, result = 0.0, None
        for _ in range(times):
            result, elapsed = step()
            if elapsed is None:
                return None
            total += elapsed
        if metric is not None:
            self.samples[metric].append(total / times)
        return result

    def build(self, model: Model, metric: Optional[str] = "build_s"):
        p = self.plectic
        n = model.n

        def fn():
            frame = p.splitting.build_split_frame(
                model.manifold, model.spec.vertical, model.spec.horizontal)
            return p.thicken.build_thickening(model.manifold, frame)

        def check(th):
            got = (th.big_chart.dim, th.fiber_count)
            want = (dwfamily.big_chart_dim(n), dwfamily.fiber_count(n))
            return None if got == want else f"(chart dim, fibers) = {got}, expected {want}"

        return self.repeat(metric, n, lambda: self.op(f"build DW n={n}", fn, check))

    def symbolic(self, th, n: int) -> None:
        """Claims 1 and 3: closedness and the zero-section pullback (PASS)."""
        p = self.plectic

        def step():
            total = 0.0
            for name, fn in (("closed", p.thicken.verify_closed),
                             ("zero-section", p.thicken.verify_zero_section_pullback)):
                report, elapsed = self.op(
                    f"{name} DW n={n}", lambda: fn(th),
                    lambda r: self._check_report(r, PASS, f"{name} n={n}"))
                if elapsed is None:
                    return None, None
                total += elapsed
            return report, total

        self.repeat("symbolic_verify_s", n, step)

    def _check_report(self, report, verdict: str, label: Optional[str] = None) -> Optional[str]:
        """Verdict check; a labelled report must also repeat byte for byte."""
        if report.verdict != verdict:
            return f"verdict {report.verdict}, expected {verdict}"
        if label is not None:
            # the JSON form leaves out the report's elapsed time
            text = json.dumps(report.to_json_dict(), sort_keys=True)
            if self.first_stdout.setdefault(label, text) != text:
                return "report differs from the first pass"
        return None

    def present(self, th, n: int) -> None:
        """omega_tilde over the coframe: dp_I enters once, as (-1)^(k-1) eta^I ^ dp_I."""
        d = th.base_dim
        sign = (-1) ** (th.base.degree - 1)
        want = {tuple(idx) + (d + i,) for i, idx in enumerate(th.fiber_index)}

        def check(coeffs):
            fiber_terms = {idx: c for idx, c in coeffs.items() if idx[-1] >= d}
            if set(fiber_terms) != want:
                return "fiber-differential terms are not eta^I ^ dp_I"
            if any(not (c.is_const() and c.const_value() == sign) for c in fiber_terms.values()):
                return f"a fiber-differential coefficient is not {sign}"
            return None

        self.op(f"present DW n={n}",
                lambda: self.plectic.thicken.present_in_frame_basis(th, th.omega_tilde), check)

    def pulled_back(self, th, model: Model):
        """tau^* omega on the thickened chart: closed, with a kernel of fibers + n."""
        p = self.plectic
        result, _ = self.op(
            f"tau^* omega DW n={model.n}",
            lambda: p.splitting.PreMultisymplecticManifold(
                th.big_chart, model.manifold.degree, th.tau.pullback(model.manifold.omega)))
        return result

    def sampled(self, th, pulled, n: int, metrics) -> None:
        """Claims 2 and 4 and the tau^* omega kernel, one seeded point per call."""
        p = self.plectic
        config = p.sampling.SampleConfig
        kernel = dwfamily.pulled_kernel_dim(n)

        def check_kernel(report):
            if report.verdict != EVIDENCE:
                return f"verdict {report.verdict}"
            dims = report.details["kernel_dimensions"]
            return None if dims == [kernel] else f"kernel dimensions {dims} != [{kernel}]"

        ops = {
            "nondeg_s_per_point": (
                "non-degenerate",
                lambda seed: p.thicken.verify_nondegenerate(th, config(1, seed)),
                lambda r: self._check_report(r, EVIDENCE)),
            "kernel_s_per_point": (
                "tau^* omega kernel",
                lambda seed: p.splitting.verify_constant_rank(pulled, config=config(1, seed)),
                check_kernel),
            "coiso_s_per_point": (
                "coisotropic",
                lambda seed: p.thicken.verify_coisotropic(th, config=config(1, seed)),
                lambda r: self._check_report(r, EVIDENCE)),
        }

        def point(name, fn, check):
            seed = self.point_seed()
            return self.op(f"{name} DW n={n} seed={seed}", lambda: fn(seed), check)

        for metric in metrics:
            name, fn, check = ops[metric]
            self.repeat(metric, n, lambda: point(name, fn, check))

    def eom(self, th, model: Model, physical: Optional[int] = None) -> None:
        """The extended system has exactly one jet-free obstruction direction."""
        p = self.plectic
        fibered = p.fieldtheory.FiberedChart(
            th.big_chart, model.spec.fibration_base, th.fiber_names)

        def check(system):
            got = (len(system.physical_system()), len(system.obstructions()))
            if got[1] != 1 or got[0] < 1 or (physical is not None and got[0] != physical):
                return f"(physical, obstructions) = {got}"
            return None

        self.repeat("eom_s", model.n, lambda: self.op(
            f"eom DW n={model.n}",
            lambda: p.fieldtheory.eom_symbolic_system(th.omega_tilde, fibered), check))

    def small_stages(self, inputs: dict, stages) -> None:
        """The stages that are not a workload's focus, on DW n = 2."""
        if "cli" in stages:
            self.cli_suite(inputs["suite"], DW2_CLI_REPS)
        model = inputs["dw2"]
        th = self.build(model, "build_s" if "build" in stages else None)
        if th is None:
            return
        if "symbolic" in stages:
            self.symbolic(th, 2)
        if "sampled" in stages:
            pulled = self.pulled_back(th, model)
            if pulled is not None:
                self.sampled(th, pulled, 2, POINT_METRICS)
        if "eom" in stages:
            self.eom(th, model, physical=6)


# -- passes ------------------------------------------------------------------
# verdict_s times a workload's own operations; the DW n = 2 stages follow it.


def pass_cli_fixtures(run: Run, inputs: dict) -> None:
    with run.timed("verdict_s"):
        run.cli_suite(inputs["suite"])
    run.small_stages(inputs, ("build", "symbolic", "sampled", "eom"))


def pass_dw3_sampled(run: Run, inputs: dict) -> None:
    model = inputs["dw3"]
    with run.timed("verdict_s"):
        th = run.build(model)
        pulled = run.pulled_back(th, model) if th is not None else None
        if pulled is not None:
            for _ in range(DW3_POINTS_PER_PASS):
                run.sampled(th, pulled, 3, ("nondeg_s_per_point", "kernel_s_per_point"))
            run.sampled(th, pulled, 3, ("coiso_s_per_point",))
    run.small_stages(inputs, ("cli", "symbolic", "eom"))


def pass_dw_symbolic(run: Run, inputs: dict) -> None:
    with run.timed("verdict_s"):
        th4 = run.build(inputs["dw4"])
        if th4 is None:
            return
        run.symbolic(th4, 4)
        run.present(th4, 4)
        th3 = run.build(inputs["dw3"], metric=None)
        if th3 is None:
            return
        run.eom(th3, inputs["dw3"])
    for _ in range(DW_SYMBOLIC_ROUNDS):
        # more samples of the second-scale stages, spread over the run
        run.symbolic(th4, 4)
        run.eom(th3, inputs["dw3"])
        run.small_stages(inputs, ("cli", "sampled"))


PASSES = {
    "cli-fixtures": pass_cli_fixtures,
    "dw3-sampled": pass_dw3_sampled,
    "dw-symbolic": pass_dw_symbolic,
}
