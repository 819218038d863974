"""A smoke run at DW n = 2 and the benchmark's behaviour without a program."""

import json
import os
import shutil
import subprocess
import time

import _paths

import plectic
import plectic.cli
import speed
import tracer
import workloads

END_TO_END_STAGES = ("build_s", "symbolic_verify_s", "eom_s", "nondeg_s_per_point",
                     "kernel_s_per_point", "coiso_s_per_point", "cli.check_s",
                     "cli.thicken_s", "cli.orthogonal_s", "cli.eom_s")


def test_dw2_smoke_pass_is_correct_and_traced(tmp_path):
    inputs = workloads.setup(plectic, "dw3-sampled", _paths.ROOT, str(tmp_path))
    run = workloads.Run(plectic, 1, time.perf_counter() + 60, traced=True)
    with tracer.Tracer(plectic) as t:
        run.cli_suite(inputs["suite"])
        run.small_stages(inputs, ("build", "symbolic", "sampled", "eom"))
    assert run.failures == []
    for metric in END_TO_END_STAGES:
        assert len(run.samples[metric]) == 1 and run.samples[metric][0] > 0, metric
    layers = t.metrics(1)
    assert set(layers) | set(tracer.OVERHEAD) == set(tracer.layer_metrics())
    assert layers["thicken.big_chart_dim"] == 12
    assert layers["thicken.fiber_count"] == 7
    assert layers["linalg.rref.calls"] > 0 and layers["cli.main.thicken.calls"] == 1
    assert 0 < layers["linalg.useful_row_ratio"] <= 1
    # the wrappers are gone again
    assert plectic.linalg.rref.__module__ == "plectic.linalg"
    assert plectic.thicken.contraction_matrix is plectic.splitting.contraction_matrix
    assert not hasattr(plectic.coeff.ScalarExpr.__mul__, "__wrapped__")


def test_tracer_patches_every_binding():
    with tracer.Tracer(plectic):
        assert hasattr(plectic.thicken.contraction_matrix, "__wrapped__")
        assert plectic.thicken.contraction_matrix is plectic.splitting.contraction_matrix
        assert plectic.splitting.contract_constant is plectic.exterior.contract_constant
        assert plectic.cli.build_thickening is plectic.thicken.build_thickening
        assert plectic.build_thickening is plectic.thicken.build_thickening
        assert plectic.coeff.ScalarExpr.__radd__ is plectic.coeff.ScalarExpr.__add__
    assert not hasattr(plectic.cli.build_thickening, "__wrapped__")


def test_wrapper_bookkeeping_is_in_no_self_time():
    t = tracer.Tracer(plectic)
    noop = t._wrapper(lambda: None, "linalg.rank", False)
    calls = 20000

    def loop(fn):
        for _ in range(calls):
            fn()

    start = time.perf_counter()
    t._wrapper(loop, "linalg.rref", True)(noop)
    wall = time.perf_counter() - start
    assert t.stats["linalg.rank"][0] == calls
    # Most of what the wrappers add (wall less the callee's self time) is
    # bookkeeping, charged to no one; the caller keeps its loop and calls.
    caller_self = t.stats["linalg.rref"][1]
    assert caller_self < 0.5 * (wall - t.stats["linalg.rank"][1])


def test_speed_probes_are_in_no_self_time():
    meter = speed.Meter(speed.kernel_time, speed.REFERENCE_S, probe=True)
    t = tracer.Tracer(plectic, clock=meter.clock)
    spin = t._wrapper(lambda: sum(i * i for i in range(5_000_000)), "linalg.rank", False)
    start = time.perf_counter()
    with meter.probing():
        spin()
    wall = time.perf_counter() - start
    assert len(meter.times) >= 3
    assert abs(t.stats["linalg.rank"][1] - (wall - meter.spent)) < meter.spent / 4


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(_paths.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(_paths.ROOT, "BENCHMARK.json"), tmp_path)
    command = json.load(open(tmp_path / "BENCHMARK.json", encoding="utf-8"))["command"]
    proc = subprocess.run(
        [*command, "--workload", "cli-fixtures", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
