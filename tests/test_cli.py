import json
import os
import shutil
import subprocess
import sys

import pytest

import plectic
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
    ],
)
def test_orthogonal_rejects_bad_flags(capsys, flags, message):
    code, _, err = run(capsys, "orthogonal", fixture_path("r5_thickening.json"), *flags)
    assert code == 2
    assert message in err


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
    ],
    ids=["superscript-digit", "empty-coordinate", "non-string-section-value"],
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
