"""The correctness oracle: documented answers pass, wrong ones are counted."""

import json
import subprocess
import sys
import time

import _paths

import plectic
import plectic.cli
import speed
import workloads
from workloads import EVIDENCE, FAIL, PASS


def new_run(seconds=60.0, traced=True):
    return workloads.Run(plectic, 3, time.perf_counter() + seconds, traced)


def check_line(verdict, kernel_dims):
    return [
        {"header": {"command": "check"}},
        {"check": "closedness", "verdict": PASS, "details": {}, "witnesses": []},
        {"check": "constant-rank", "verdict": verdict,
         "details": {"kernel_dimensions": kernel_dims}, "witnesses": []},
    ]


def test_expectations_reject_wrong_answers():
    assert workloads.expect_check(2)(check_line(EVIDENCE, [2])) is None
    assert workloads.expect_check(2)(check_line(EVIDENCE, [1])) is not None
    assert workloads.expect_check(2)(check_line(FAIL, [2, 1])) is not None
    reports = [{"check": c, "verdict": v, "details": {}, "witnesses": []}
               for c, v in workloads.THICKEN_VERDICTS]
    header = {"header": {"thickened_dimension": 12}}
    assert workloads.expect_thicken(12)([header, *reports]) is None
    assert workloads.expect_thicken(7)([header, *reports]) is not None
    assert workloads.expect_thicken(12)([header, *reports[::-1]]) is not None
    failed = [{"check": "5-coisotropic-containment", "verdict": FAIL, "witnesses": []}]
    assert workloads.expect_orthogonal(FAIL)(failed) is not None
    assert workloads.expect_section(True)([{"all_zero": False}]) is not None
    assert workloads.expect_eom(2, 0)([{"eom_symbolic": {"physical": ["a"], "obstructions": []}}])


def test_fixture_suite_passes_in_process(tmp_path):
    inputs = workloads.setup(plectic, "cli-fixtures", _paths.ROOT, str(tmp_path))
    run = new_run()
    run.cli_suite(inputs["suite"])
    run.cli_suite(inputs["suite"])
    assert run.failures == []
    assert run.attempted == 2 * len(inputs["suite"]) == 30
    assert all(len(run.samples[m]) == 2 for m in workloads.CLI_METRICS.values())


def test_wrong_exit_code_and_changed_stdout_are_failures(tmp_path):
    inputs = workloads.setup(plectic, "cli-fixtures", _paths.ROOT, str(tmp_path))
    failing = inputs["suite"][-1]
    assert failing.exit_code == 1  # the documented FAIL of orthogonal --ell 5
    run = new_run()
    run.cli_suite([workloads.Command(failing.kind, failing.argv, 0, failing.expect)])
    assert len(run.failures) == 1 and "exit code 1, expected 0" in run.failures[0]
    run = new_run()
    command = inputs["suite"][0]
    run.cli_suite([command])
    label = next(iter(run.first_stdout))
    run.first_stdout[label] = run.first_stdout[label].replace("PASS", "EVIDENCE", 1)
    run.cli_suite([command])
    assert len(run.failures) == 1 and "differs" in run.failures[0]


def test_timeouts_and_crashes_are_failures():
    run = new_run()
    assert run.op("sleeps", lambda: time.sleep(2), limit=0.1) == (None, None)
    assert run.op("raises", lambda: json.loads("{")) == (None, None)
    result, elapsed = run.op("returns", lambda: 7, lambda r: None if r == 7 else "wrong")
    assert result == 7 and elapsed >= 0
    assert run.attempted == 3
    assert [f.split(":")[0] for f in run.failures] == ["sleeps", "raises"]
    assert "timeout" in run.failures[0]


def test_timed_out_cli_subprocess_is_killed():
    run = new_run()
    start = time.perf_counter()
    sleeper = [sys.executable, "-c", "import time; time.sleep(30)"]
    assert run.op("sleeper", lambda: subprocess.run(sleeper), limit=0.5) == (None, None)
    assert time.perf_counter() - start < 10
    assert "timeout" in run.failures[0]


def test_operations_are_scaled_by_the_kernel_times_around_and_during_them():
    def spin():
        return sum(i * i for i in range(2_000_000))

    run = new_run(traced=False)
    result, seconds = run.op("spins", spin)
    assert result > 0 and seconds > 0
    # one kernel time before, at least one during (every 0.05 s of CPU), one after
    assert len(run.cpu.times) >= 3
    with run.timed("verdict_s"):
        run.op("sleeps", lambda: time.sleep(0.01))
        run.op("fails", lambda: 1, lambda r: "wrong")
    assert run.samples["verdict_s"][0] == run.op_seconds - seconds > 0


def test_deadline_turns_remaining_operations_into_timeouts():
    run = new_run(seconds=-1.0)
    assert run.op("late", lambda: 1) == (None, None)
    assert "deadline" in run.failures[0]
