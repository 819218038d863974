"""Benchmark of the plectic verifier: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload dw3-sampled --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src`` with
nothing installed.  Workloads: ``cli-fixtures``, ``dw3-sampled`` and
``dw-symbolic`` (see ``workloads.py`` for what each measures and why).

With ``--trace 0`` the last line holds the end-to-end metrics, each a median
over the run's samples, in reference seconds (see ``speed.py``); the lines
above it give each metric with its percentile and sample count, the machine
speed, and the interpreter, ``nproc`` and load average.
With ``--trace 1`` the last line holds the per-layer metrics of a traced run
(see ``tracer.py``) and the tracing overhead.

Work happens in child processes (``worker.py``) so that the program starts
from a fresh interpreter: ``setup_s`` is the median of several fresh set-ups.
The run and all its children are pinned to one CPU, the one whose speed the
calibration kernel measures.
Temporary files go under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cli-fixtures", "dw3-sampled", "dw-symbolic")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
# end-to-end metric -> unit; failed_ratio is reported as its complement, ok_ratio,
# because a metric that reads 0 has no relative spread
END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "cli.check_s": "s",
    "cli.thicken_s": "s",
    "cli.orthogonal_s": "s",
    "cli.eom_s": "s",
    "build_s": "s",
    "symbolic_verify_s": "s",
    "eom_s": "s",
    "nondeg_s_per_point": "s",
    "kernel_s_per_point": "s",
    "coiso_s_per_point": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def percentile_note(values) -> str:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g} n={n}"
    return f"no percentile with 10 samples beyond it, n={n}"


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    # bytecode is cached as an installed package's would be
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PLECTIC_SEED", None)
    return env


def worker(args, mode: str, tmp: str, started: float, spans=None) -> dict:
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--root", ROOT, "--tmp", tmp, "--budget", str(budget - 5)]
    if spans:
        argv += ["--spans", spans]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(args.seed), capture_output=True,
                          text=True, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()} ({sys.executable}), nproc {os.cpu_count()}, "
            f"load average {load}, on CPU {sorted(os.sched_getaffinity(0))}")


def end_to_end(result: dict, setup_runs: list) -> dict:
    samples = dict(result["samples"])
    samples["setup_s"] = [r["setup_s"] for r in setup_runs + [result]]
    print("times in reference seconds (see speed.py): median kernel "
          f"{result['kernel_s'] * 1e3:.4g} ms (reference {speed.REFERENCE_S * 1e3:.4g} ms), "
          f"median startup {result['startup_s'] * 1e3:.4g} ms "
          f"(reference {speed.STARTUP_REFERENCE_S * 1e3:.4g} ms)")
    samples["peak_rss_mb"] = [result["peak_rss_mb"]]
    attempted = result["attempted"]
    samples["ok_ratio"] = [1 - len(result["failures"]) / attempted]
    out = {}
    for name, unit in END_TO_END.items():
        values = samples.get(name)
        if not values:
            if result["failures"]:
                continue  # a failed operation left its stage without a sample
            raise RuntimeError(f"no samples for {name}")
        out[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:>20} = {out[name]['value']:.6g} {unit}  "
              f"(median; {percentile_note(values)})")
    print(f"{'failed_ratio':>20} = {len(result['failures']) / attempted:.6g} ratio "
          f"({len(result['failures'])} of {attempted} operations)")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "plectic", "cli.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # the workers and their CLI subprocesses run on the CPU whose speed the kernel measures
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    build = os.path.join(ROOT, ".bench_build", "perfbench")
    tmp = os.path.join(build, f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        # a traced run reports no setup_s
        setup_runs = [] if args.trace else [worker(args, "setup", tmp, started)
                                            for _ in range(SETUP_PROBES)]
        spans = os.path.join(build, f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = worker(args, "trace" if args.trace else "run", tmp, started,
                        spans if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = f"{len(result['passes'])} passes"
    if args.trace:
        passes = f"{len(result['passes'])} untraced and {len(result['traced_passes'])} traced passes"
    print(f"workload {args.workload}, seed {args.seed}, {passes}; {environment()}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    if args.trace:
        units = tracer.layer_metrics()
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in units.items()}
        for name, metric in metrics.items():
            print(f"{name:>48} = {metric['value']:.6g} {metric['unit']}")
        print(f"span log: {spans}")
    else:
        metrics = end_to_end(result, setup_runs)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
