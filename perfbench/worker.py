"""One benchmark process: set up a workload, run its passes, print the samples.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Modes: ``setup`` only times set-up; ``run`` times passes untraced; ``trace``
times untraced passes for the first half of the time and traced passes for
the second half, and reports per-layer aggregates (measured seconds) plus the
difference of the passes' median times (reference seconds).
The last line of stdout is one JSON object.
"""

T0 = __import__("time").perf_counter()  # before the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import plectic  # noqa: E402
import plectic.cli  # noqa: E402,F401  (the CLI module is not imported by the package)

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_passes(run, inputs, workload: str, seconds: float) -> list:
    """Closed loop: passes until the next one would overrun ``seconds``.

    Returns each pass's operation time in reference seconds.
    """
    durations, op_seconds = [], []
    started = time.perf_counter()
    while not durations or time.perf_counter() - started + durations[-1] <= seconds:
        start, before = time.perf_counter(), run.op_seconds
        workloads.PASSES[workload](run, inputs)
        durations.append(time.perf_counter() - start)
        op_seconds.append(run.op_seconds - before)
    return op_seconds


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds after which every operation times out")
    parser.add_argument("--spans", default=None, help="span log to write in trace mode")
    args = parser.parse_args()

    inputs = workloads.setup(plectic, args.workload, args.root, args.tmp)
    raw_setup_s = time.perf_counter() - T0
    setup_s = raw_setup_s * speed.REFERENCE_S / statistics.median(
        speed.kernel_time() for _ in range(4))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    deadline = T0 + args.budget
    trace = args.mode == "trace"
    run = workloads.Run(plectic, args.seed, deadline, traced=trace)
    out = {"setup_s": setup_s}
    if not trace:
        out["passes"] = run_passes(run, inputs, args.workload, args.seconds)
    else:
        untraced = run_passes(run, inputs, args.workload, args.seconds / 2)
        # the tracer's clock leaves out the speed probes inside traced functions
        with tracer.Tracer(plectic, clock=run.cpu.clock) as t:
            traced = run_passes(run, inputs, args.workload, args.seconds / 2)
        layers = t.metrics(len(traced))
        base = statistics.median(untraced)
        layers["trace.overhead_s"] = statistics.median(traced) - base
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / base
        out.update(passes=untraced, traced_passes=traced, layers=layers)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in t.spans:
                    fh.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end"), span))))
                    fh.write("\n")
    out.update(
        samples=run.samples,
        kernel_s=statistics.median(run.cpu.times) if run.cpu.times else None,
        startup_s=statistics.median(run.startup.times) if run.startup.times else None,
        attempted=run.attempted,
        failures=run.failures,
        peak_rss_mb=peak_rss_mb(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
