import json
import os
import shutil
import subprocess
import sys

import pytest

import plectic
from plectic import cli
from plectic.cli import main

from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_check_scalar_field_passes(capsys):
    code, out, _ = run(capsys, "check", fixture_path("scalar_field_2d.json"), "--samples", "10")
    assert code == 0
    assert "closedness: PASS" in out
    assert "kernel dim 2" in out
    assert "constant-rank: EVIDENCE" in out


def test_check_json_is_byte_reproducible(capsys):
    args = ("check", fixture_path("scalar_field_2d.json"), "--json", "--samples", "10", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = [json.loads(line) for line in out1.splitlines()]
    header = lines[0]["header"]
    assert header["seed"] == 7
    assert {l["check"] for l in lines[1:]} == {"closedness", "constant-rank"}
    # the constant-rank points were drawn with the header's sampling config
    rank = lines[-1]["details"]
    echo = ("samples", "seed", "coordinate_range")
    assert [rank[k] for k in echo] == [header[k] for k in echo] == [10, 7, [-5, 5]]
    assert "points_supplied" not in rank


def test_check_counts_every_evaluated_sample(capsys):
    # seed 3 draws one r4 point twice; both draws are evaluated samples
    code, out, _ = run(capsys, "check", fixture_path("r4_premultisymplectic.json"), "--json",
                       "--seed", "3")
    assert code == 0
    rank = json.loads(out.splitlines()[-1])
    assert rank["check"] == "constant-rank"
    points = [tuple(s["point"]) for s in rank["details"]["per_sample"]]
    assert len(set(points)) < len(points) == 50
    assert rank["details"]["samples_evaluated"] == 50


def test_check_exit_2_on_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "coordinates": ["x", "y"],
                "form": {"degree": 1, "terms": [{"indices": ["x"], "coeff": "1 +"}]},
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "position" in err


def test_check_exit_1_on_non_closed_form(tmp_path, capsys):
    bad = tmp_path / "open.json"
    bad.write_text(
        json.dumps(
            {
                "name": "open",
                "coordinates": ["x", "y", "z"],
                "form": {"degree": 2, "terms": [{"indices": ["y", "z"], "coeff": "x"}]},
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "closedness: FAIL" in out
    assert "witness" in out


def test_thicken_scalar_field_and_emit_round_trip(tmp_path, capsys):
    emitted = tmp_path / "thick.json"
    code, out, _ = run(
        capsys,
        "thicken",
        fixture_path("scalar_field_2d.json"),
        "--samples", "10",
        "--emit", str(emitted),
    )
    assert code == 0
    assert "thickened_dimension: 12" in out
    assert "p_x_rho_t" in out
    assert "thickened-form-closed: PASS" in out
    assert "zero-section-pullback: PASS" in out
    assert emitted.exists()

    code2, out2, _ = run(capsys, "check", str(emitted), "--samples", "10")
    assert code2 == 0
    assert "kernel dim 0" in out2
    assert "kernel dim 1" not in out2


def test_emitted_spec_is_byte_stable(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        run(
            capsys,
            "thicken", fixture_path("scalar_field_2d.json"),
            "--samples", "5", "--emit", str(path),
        )
    assert first.read_bytes() == second.read_bytes()


def test_thicken_json_is_byte_reproducible(capsys):
    args = (
        "thicken", fixture_path("scalar_field_2d.json"),
        "--json", "--samples", "8", "--seed", "5",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_thicken_dx_basis_presentation(capsys):
    code, out, _ = run(
        capsys,
        "thicken", fixture_path("scalar_field_2d.json"),
        "--samples", "5", "--monomial-basis", "dx",
    )
    assert code == 0
    assert "p_x_t*dx^dt" in out
    assert "theta_x" not in out


def test_thicken_requires_frame(capsys):
    code, _, err = run(capsys, "thicken", fixture_path("r5_thickening.json"))
    assert code == 2
    assert "frame" in err


def test_thicken_rejects_low_degree(tmp_path, capsys):
    spec = {
        "name": "sympl",
        "coordinates": ["q", "p", "z"],
        "form": {"degree": 2, "terms": [{"indices": ["q", "p"], "coeff": "1"}]},
        "frame": {
            "vertical": [{"z": "1"}],
            "horizontal": [{"q": "1"}, {"p": "1"}],
        },
    }
    path = tmp_path / "sympl.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run(capsys, "thicken", str(path))
    assert code == 2
    assert "Gotay" in err


def test_thicken_exits_1_on_a_framed_form_that_is_not_closed(tmp_path, capsys):
    spec = write_json(tmp_path / "open.json", {
        "name": "open",
        "coordinates": ["x", "y", "z", "w"],
        "form": {"degree": 3, "terms": [{"indices": ["y", "z", "w"], "coeff": "x"}]},
        "frame": {"vertical": [], "horizontal": [{c: "1"} for c in ("x", "y", "z", "w")]},
    })
    code, out, _ = run(capsys, "thicken", spec)
    assert code == 1
    assert "closedness: FAIL" in out


def test_thicken_exits_2_when_the_emit_path_cannot_be_written(tmp_path, capsys):
    target = tmp_path / "missing" / "thick.json"
    spec = fixture_path("r4_premultisymplectic.json")
    code, _, err = run(capsys, "thicken", spec, "--samples", "2", "--emit", str(target))
    assert code == 2
    assert err.startswith(f"error: {target}: cannot write file: ")
    assert err.count("\n") == 1


def test_check_exits_2_when_the_degree_exceeds_the_coordinates(tmp_path, capsys):
    spec = write_json(tmp_path / "deg.json", {
        "name": "deg", "coordinates": ["x", "t"], "form": {"degree": 3, "terms": []},
    })
    code, out, err = run(capsys, "check", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: form.degree: must be at most the number of coordinates")
    assert err.count("\n") == 1


def test_thicken_checks_the_emit_path_before_any_work(tmp_path, capsys):
    spec = fixture_path("r4_premultisymplectic.json")
    for target in (tmp_path / "missing" / "thick.json", tmp_path):
        for json_flag in ([], ["--json"]):
            code, out, err = run(capsys, "thicken", spec, "--emit", str(target), *json_flag)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {target}: cannot write file: ")
            assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def write_pole_spec(tmp_path):
    # 1/x dx^dy^dz sampled on [0, 0]: every point lies on the pole x = 0
    return write_json(tmp_path / "pole.json", {
        "name": "pole",
        "coordinates": ["x", "y", "z"],
        "form": {"degree": 3, "terms": [{"indices": ["x", "y", "z"], "coeff": "1/x"}]},
        "samples": {"coordinate_range": [0, 0]},
    })


def test_check_exits_2_when_every_draw_is_a_pole(tmp_path, capsys):
    spec = write_pole_spec(tmp_path)
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "check", spec, *json_flag)
        assert code == 2
        assert "sampling rejected too many points" in err
        assert out == ""


def test_orthogonal_exits_2_when_every_draw_is_a_pole(tmp_path, capsys):
    spec = write_pole_spec(tmp_path)
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "orthogonal", spec, "--submanifold", "z=0", *json_flag)
        assert code == 2
        assert "sampling rejected too many points" in err
        assert out == ""


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--submanifold", "x5"], "expected name=value"),
        (["--submanifold", "x5=abc"], "bad rational constant"),
        (["--submanifold", ","], "no constraints given"),
        (["--submanifold", "x5=0", "--ell", "0"], "--ell: must be >= 1"),
        # 4301 digits, past the int-string limit of the header's str()
        (["--submanifold", "x5=1e4300"], "--submanifold: constant '1e4300' may have more than"),
        # 10 ** 100000000 is never built
        (["--submanifold", "x5=1e100000000"], "may have more than 4300 digits"),
    ],
)
def test_orthogonal_rejects_bad_flags(capsys, flags, message):
    code, _, err = run(capsys, "orthogonal", fixture_path("r5_thickening.json"), *flags)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("value,shown", [("1/3", "1/3"), ("-2", "-2"), ("0.5", "1/2"), ("1e3", "1000")])
def test_orthogonal_takes_rational_constants(capsys, value, shown):
    code, out, _ = run(
        capsys, "orthogonal", fixture_path("r5_thickening.json"), "--submanifold", f"x5={value}",
        "--samples", "1",
    )
    assert code == 0
    assert f"submanifold: {{'x5': '{shown}'}}" in out


def test_orthogonal_r5_fixture(capsys):
    code, out, _ = run(
        capsys,
        "orthogonal",
        fixture_path("r5_thickening.json"),
        "--submanifold", "x5=0",
        "--ell", "2",
        "--samples", "5",
    )
    assert code == 0
    assert "2-coisotropic-containment: EVIDENCE" in out
    assert "contained: True" in out


def test_orthogonal_r6_fixture(capsys):
    code, out, _ = run(
        capsys,
        "orthogonal",
        fixture_path("r6_thickening.json"),
        "--submanifold", "x5=0,x6=0",
        "--ell", "2",
        "--samples", "5",
    )
    assert code == 0
    assert "2-coisotropic-containment: EVIDENCE" in out


def test_orthogonal_large_ell_gives_full_ambient(capsys):
    # ell exceeds the tangent dimension: the orthogonal is everything, so the
    # containment verdict honestly fails
    code, out, _ = run(
        capsys,
        "orthogonal",
        fixture_path("r4_premultisymplectic.json"),
        "--submanifold", "x4=0",
        "--ell", "5",
        "--samples", "3",
    )
    assert code == 1
    assert "dim T-perp,5 = 4" in out


def test_orthogonal_rejects_unknown_constraint(capsys):
    code, _, err = run(
        capsys,
        "orthogonal",
        fixture_path("r4_premultisymplectic.json"),
        "--submanifold", "nope=0",
    )
    assert code == 2
    assert "unknown coordinate" in err


def test_orthogonal_rejects_a_coordinate_constrained_twice(capsys):
    code, out, err = run(
        capsys,
        "orthogonal",
        fixture_path("r5_thickening.json"),
        "--submanifold", "x5=0,x5=1",
    )
    assert code == 2
    assert out == ""
    assert "'x5' constrained twice" in err


def test_eom_symbolic_base(capsys):
    code, out, _ = run(capsys, "eom", fixture_path("scalar_field_2d.json"), "--symbolic")
    assert code == 0
    assert "physical system (2 equations):" in out
    assert "d(rho_x)/d(x) = 0" in out
    assert "-rho_x + d(u)/d(x) = 0" in out


def test_eom_symbolic_thickened(tmp_path, capsys):
    emitted = tmp_path / "thick.json"
    run(capsys, "thicken", fixture_path("scalar_field_2d.json"), "--samples", "5", "--emit", str(emitted))
    code, out, _ = run(capsys, "eom", str(emitted), "--symbolic")
    assert code == 0
    assert "physical system (6 equations):" in out
    assert "d(u)/d(t) = 0" in out
    assert "obstruction directions" in out


def test_eom_section_zero_residual(tmp_path, capsys):
    section = tmp_path / "section.json"
    section.write_text(
        json.dumps({"u": "3*x + 5", "rho_x": "3", "rho_t": "x*t"}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "eom", fixture_path("scalar_field_2d.json"), "--section", str(section)
    )
    assert code == 0
    assert "all residuals zero" in out


def test_eom_section_nonzero_residual(tmp_path, capsys):
    section = tmp_path / "section.json"
    section.write_text(
        json.dumps({"u": "x^2", "rho_x": "x", "rho_t": "0"}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "eom", fixture_path("scalar_field_2d.json"), "--section", str(section)
    )
    assert code == 1
    assert "nonzero residuals" in out


def test_eom_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "eom", fixture_path("scalar_field_2d.json"))
    assert code == 2


def test_eom_requires_fibration(capsys):
    code, _, err = run(capsys, "eom", fixture_path("r4_premultisymplectic.json"), "--symbolic")
    assert code == 2
    assert "fibration" in err


@pytest.mark.parametrize(
    "coordinates,degree,modes,message",
    [
        (["x", "t", "u", "v"], 2, ["--symbolic", "--section"],
         "form degree 2 != base dimension + 1 = 3"),
        (["x", "t", "u", "u__x"], 3, ["--symbolic"],
         "jet symbol 'u__x' collides with a coordinate"),
    ],
    ids=["degree", "jet-collision"],
)
def test_eom_input_error_prints_no_header(tmp_path, capsys, coordinates, degree, modes, message):
    spec = write_json(tmp_path / "bad.json", {
        "name": "bad",
        "coordinates": coordinates,
        "form": {"degree": degree, "terms": [{"indices": coordinates[1:degree + 1], "coeff": "1"}]},
        "fibration": {"base": ["x", "t"]},
    })
    section = write_json(tmp_path / "section.json", {n: "0" for n in coordinates[2:]})
    for mode in modes:
        argv = ["eom", spec, mode] + ([section] if mode == "--section" else [])
        for json_flag in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *json_flag)
            assert (code, out) == (2, "")
            assert err == f"error: {message}\n"


def test_plectic_seed_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("PLECTIC_SEED", "soon")
    code, _, err = run(capsys, "check", fixture_path("scalar_field_2d.json"))
    assert code == 2
    assert "PLECTIC_SEED" in err


def test_eom_section_missing_component(tmp_path, capsys):
    section = tmp_path / "partial.json"
    section.write_text(json.dumps({"u": "0", "rho_x": "0"}), encoding="utf-8")
    code, _, err = run(
        capsys, "eom", fixture_path("scalar_field_2d.json"), "--section", str(section)
    )
    assert code == 2
    assert "rho_t" in err


@pytest.mark.parametrize(
    "coordinates,coeff,section",
    [
        (["x", "y"], "2²", None),
        (["x", ""], "1", None),
        (["x", "y"], "1", {"u": 3, "rho_x": "0", "rho_t": "0"}),
        # past Python's 4300-digit int-string limit, and past its recursion limit
        (["x", "y"], "1" * 5000, None),
        (["x", "y"], "(" * 5000 + "x" + ")" * 5000, None),
        (["x", "y"], "1", {"u": "2" * 5000, "rho_x": "0", "rho_t": "0"}),
        (["x", "y"], "1", {"u": "(" * 5000 + "x" + ")" * 5000, "rho_x": "0", "rho_t": "0"}),
    ],
    ids=[
        "superscript-digit",
        "empty-coordinate",
        "non-string-section-value",
        "long-integer",
        "deep-parentheses",
        "section-long-integer",
        "section-deep-parentheses",
    ],
)
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, coordinates, coeff, section):
    if section is None:
        spec = write_json(tmp_path / "bad.json", {
            "name": "bad",
            "coordinates": coordinates,
            "form": {"degree": 1, "terms": [{"indices": ["x"], "coeff": coeff}]},
        })
        code, _, err = run(capsys, "check", spec)
    else:
        path = write_json(tmp_path / "section.json", section)
        code, out, err = run(
            capsys, "eom", fixture_path("scalar_field_2d.json"), "--section", path
        )
        assert out == ""
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "eom"])
@pytest.mark.parametrize(
    "text",
    [
        '{"name": "big", "samples": {"seed": ' + "7" * 5001 + "}}",
        "[" * 200000 + "]" * 200000,
    ],
    ids=["5001-digit-int", "deep-brackets"],
)
def test_json_that_json_load_refuses_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "refused.json"
    path.write_text(text, encoding="utf-8")
    if command == "check":
        argv = ["check", str(path)]
    else:
        argv = ["eom", fixture_path("scalar_field_2d.json"), "--section", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1


def test_plectic_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PLECTIC_SEED", "99")
    code, out, _ = run(
        capsys, "check", fixture_path("scalar_field_2d.json"), "--json", "--samples", "5"
    )
    assert code == 0
    header = json.loads(out.splitlines()[0])["header"]
    assert header["seed"] == 99
    # explicit flag wins over the environment
    code, out, _ = run(
        capsys,
        "check", fixture_path("scalar_field_2d.json"), "--json", "--samples", "5", "--seed", "3",
    )
    header = json.loads(out.splitlines()[0])["header"]
    assert header["seed"] == 3


def test_console_script_installed():
    assert shutil.which("plectic") is not None


def test_thicken_rejects_zero_samples(capsys):
    code, out, err = run(capsys, "thicken", fixture_path("scalar_field_2d.json"), "--samples", "0")
    assert code == 2
    assert "EVIDENCE" not in out
    assert "--samples" in err and "positive" in err


def test_check_rejects_negative_samples(capsys):
    code, out, err = run(capsys, "check", fixture_path("scalar_field_2d.json"), "--json", "--samples", "-3")
    assert code == 2
    assert out == ""
    assert "--samples" in err and "positive" in err


def test_check_refuses_a_huge_exponent_in_time(tmp_path):
    # x^100000000 would take 10^8 multiplications; the timeout turns a hang into a failure
    spec = write_json(tmp_path / "pow.json", {
        "name": "pow",
        "coordinates": ["x", "y"],
        "form": {"degree": 1, "terms": [{"indices": ["x"], "coeff": "x^100000000"}]},
    })
    src = os.path.dirname(os.path.dirname(plectic.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "plectic.cli", "check", spec],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "exponent 100000000 is larger than 64 (at position 2)" in proc.stderr


def test_check_refuses_a_huge_power_in_time(tmp_path):
    # (x+t+u+v+w)^64 has 814,385 terms; it is refused before it is multiplied out
    spec = write_json(tmp_path / "power.json", {
        "name": "power",
        "coordinates": ["x", "t", "u", "v", "w"],
        "form": {"degree": 1, "terms": [{"indices": ["x"], "coeff": "(x+t+u+v+w)^64"}]},
    })
    src = os.path.dirname(os.path.dirname(plectic.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "plectic.cli", "check", spec],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "power ^64 may have 814385 terms, more than 10000 (at position 12)" in proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # the read end is closed before the command starts, so its first write
    # (unbuffered) or the flush of its output (buffered) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(plectic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "plectic.cli", "check", fixture_path("scalar_field_2d.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_json_is_byte_stable_across_hash_seeds(tmp_path):
    # string hashing changes set and dict order between interpreter runs;
    # neither --json nor the emitted spec may depend on it
    emitted = tmp_path / "thick.json"
    commands = [
        ["check", fixture_path("scalar_field_2d.json")],
        ["thicken", fixture_path("scalar_field_2d.json"), "--emit", str(emitted)],
        ["orthogonal", fixture_path("r6_thickening.json"), "--submanifold", "x5=0,x6=0", "--ell", "2"],
        ["eom", str(emitted), "--symbolic"],
    ]
    src = os.path.dirname(os.path.dirname(plectic.__file__))
    outputs = []
    for seed in range(4):
        env = dict(
            os.environ,
            PYTHONHASHSEED=str(seed),
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        run_outputs = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "plectic.cli", *argv, "--json", "--samples", "3"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            run_outputs.append(proc.stdout)
        run_outputs.append(emitted.read_text())
        outputs.append(run_outputs)
    assert all(run_outputs == outputs[0] for run_outputs in outputs[1:])


def _reference_parser():
    """The argparse parser that cli.py had, as a reference for its argv table."""
    import argparse

    parser = argparse.ArgumentParser(prog="plectic")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in ("check", "thicken", "orthogonal", "eom"):
        commands[name] = p = sub.add_parser(name)
        p.add_argument("spec")
        p.add_argument("--json", action="store_true")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    commands["thicken"].add_argument("--emit", default=None)
    commands["thicken"].add_argument("--monomial-basis", choices=("dx", "frame"), default="frame")
    commands["orthogonal"].add_argument("--submanifold", required=True)
    commands["orthogonal"].add_argument("--ell", type=int, default=None)
    commands["eom"].add_argument("--symbolic", action="store_true")
    commands["eom"].add_argument("--section", default=None)
    return parser


@pytest.mark.parametrize(
    "argv",
    [
        "check s.json",
        "check --json s.json --samples 3 --seed 7",
        "check s.json --seed=7 --samples=3 --json",
        "check --seed 1 s.json --seed 2 --json --json --samples=4 --samples 5",
        "check s.json --samples -3 --seed +4",
        "thicken s.json --samples 2",
        "thicken s.json --emit out.json --monomial-basis dx",
        "thicken --monomial-basis=dx s.json --emit=out.json --monomial-basis frame --samples 2",
        "orthogonal s.json --submanifold x5=0,x6=0 --ell 2",
        "orthogonal --ell=3 --submanifold=x5=0 s.json --ell 2 --json --seed=0",
        "eom s.json --symbolic",
        "eom --json s.json --section sec.json --seed 3 --samples 1",
        "eom --section=a.json s.json --section b.json --symbolic",
    ],
)
def test_parser_agrees_with_argparse_reference(argv):
    argv = argv.split()
    expected = vars(_reference_parser().parse_args(argv))
    assert cli.parse_argv(argv) == (expected.pop("command"), expected.pop("spec"), expected)


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "expected a command"),
        (["verify", "{spec}"], "expected a command"),
        (["check", "{spec}", "--sample", "3"], "check has no flag --sample"),
        (["check", "{spec}", "--emit", "out.json"], "check has no flag --emit"),
        (["check", "{spec}", "--samples"], "--samples expects a value"),
        (["thicken", "{spec}", "--emit", "--json"], "--emit expects a value"),
        (["thicken", "{spec}", "--emit=--json"], "--emit expects a value"),
        (["check", "{spec}", "--json=yes"], "--json takes no value"),
        (["check", "{spec}", "--samples", "x"], "--samples: not an integer"),
        (["check", "{spec}", "--seed", "1.5"], "--seed: not an integer"),
        (["orthogonal", "{spec}", "--submanifold", "x=0", "--ell", "two"], "--ell: not an integer"),
        (["thicken", "{spec}", "--monomial-basis", "tangent"], "--monomial-basis: 'tangent'"),
        (["check", "{spec}", "extra.json"], "unexpected argument 'extra.json'"),
        (["check", "--json"], "missing SPEC"),
        (["orthogonal", "{spec}", "--ell", "1"], "--submanifold: no constraints given"),
    ],
    ids=[
        "no-command", "unknown-command", "abbreviated-flag", "flag-of-another-command",
        "missing-value", "value-starting-dashes", "equals-value-starting-dashes",
        "value-for-a-switch", "non-integer-samples", "non-integer-seed", "non-integer-ell",
        "bad-monomial-basis", "extra-positional", "missing-spec", "missing-submanifold",
    ],
)
def test_bad_command_line_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)  # an argv taken wrongly may write a file here
    spec = fixture_path("scalar_field_2d.json")
    code, out, err = run(capsys, *(arg.format(spec=spec) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["check", "-h"], ["eom", "s.json", "--symbolic", "--help"]]
)
def test_help_prints_every_command_and_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: plectic")
    for command, (_, summary, kinds) in cli.COMMANDS.items():
        assert f"plectic {command} SPEC" in out and summary in out
        assert all(flag in out for flag in kinds)


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no arguments
    argv = ["plectic", "check", fixture_path("scalar_field_2d.json"), "--samples", "3"]
    monkeypatch.setattr(sys, "argv", argv)
    assert main() == 0
    assert "constant-rank: EVIDENCE" in capsys.readouterr().out
