"""Golden --json output of the CLI on the bundled fixtures and on DW n = 3.

Each case's stdout (and, for ``thicken --emit``, the emitted spec) is
compared byte for byte with the file of the same name under tests/golden/,
and its exit code with the one pinned in the case tables below.  The
``orthogonal`` and ``eom`` cases also pin their text output, in ``.txt``
files with each report's ``[... ms]`` timing masked.
``tests/golden/dw_n3.json`` is the DeDonder-Weyl spec of base dimension 3,
``json.dumps(perfbench.dwfamily.spec_dict(3), indent=2, sort_keys=True)``;
it lives there rather than among the bundled fixtures because its outputs
are large enough for the term order of every coefficient to show.
``tests/golden/section_zero.json`` and ``section_nonzero.json`` are section
files for ``scalar_field_2d``, one a solution and one not.
``tests/golden/rational_frame.json`` has a frame whose inverse divides by a
coordinate, so omega_tilde has a pole that the base form lacks.
After an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest

from plectic.cli import main

from conftest import fixture_path

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SEEDS = (None, 7)  # None: the spec file's seed

FIXTURES = (
    "r4_premultisymplectic",
    "r5_thickening",
    "r6_thickening",
    "scalar_field_2d",
    "scalar_field_2d_nondegenerate",
)
# (fixture, extra argv, exit code); x4 = 0 is not 2-coisotropic in r4, so exit 1
ORTHOGONAL = (
    ("r4_premultisymplectic", ["--submanifold", "x4=0"], 1),
    ("r5_thickening", ["--submanifold", "x5=0", "--ell", "2"], 0),
    ("r6_thickening", ["--submanifold", "x5=0,x6=0", "--ell", "2"], 0),
)
THICKEN = ("scalar_field_2d", "r4_premultisymplectic")
GOLDEN_SPECS = ("dw_n3", "rational_frame")
SECTIONS = (("section_zero", 0), ("section_nonzero", 1))  # (section file, exit code)
TEXT_COMMANDS = ("orthogonal", "eom")
TIMING = re.compile(r"\[\d+\.\d ms\]")


def _cases():
    """(command, fixture, extra argv, seed, exit code) for every golden case."""
    for seed in SEEDS:
        for name in FIXTURES:
            yield "check", name, [], seed, 0
        for name in THICKEN:
            yield "thicken", name, [], seed, 0
        for name, extra, code in ORTHOGONAL:
            yield "orthogonal", name, extra, seed, code
        yield "eom", "scalar_field_2d", ["--symbolic"], seed, 0
        yield "eom", "scalar_field_2d_thickened", ["--symbolic"], seed, 0
    yield "thicken", "dw_n3", [], None, 0
    yield "thicken", "rational_frame", [], None, 0
    yield "eom", "dw_n3_thickened", ["--symbolic"], None, 0
    for section, code in SECTIONS:
        section_path = os.path.join(GOLDEN_DIR, section + ".json")
        yield "eom", "scalar_field_2d", ["--section", section_path], None, code


def _case_name(command, name, extra, seed):
    if extra[:1] == ["--section"]:
        name += "_" + os.path.splitext(os.path.basename(extra[1]))[0]
    return f"{command}_{name}_{'spec_seed' if seed is None else f'seed{seed}'}"


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _spec(name, workdir):
    """Path of the spec named name; ``<base>_thickened`` is emitted from ``<base>``."""
    if name.endswith("_thickened"):
        base = _spec(name[: -len("_thickened")], workdir)
        spec = os.path.join(workdir, name + ".json")
        code, _ = _run(["thicken", base, "--emit", spec, "--json"])
        assert code == 0
        return spec
    if name in GOLDEN_SPECS:
        return os.path.join(GOLDEN_DIR, name + ".json")
    return fixture_path(name + ".json")


def _argv(command, name, extra, seed, workdir):
    seed_argv = [] if seed is None else ["--seed", str(seed)]
    return [command, _spec(name, workdir), *extra, *seed_argv]


def _outputs(command, name, extra, seed, workdir):
    """(exit code, {golden file name: contents}) for one case.

    ``thicken`` adds its emitted spec and drops the line echoing the
    emitted path.
    """
    base = _case_name(command, name, extra, seed)
    argv = _argv(command, name, extra, seed, workdir) + ["--json"]
    if command != "thicken":
        code, out = _run(argv)
        return code, {base + ".jsonl": out}
    emitted = os.path.join(workdir, "emitted.json")
    code, out = _run(argv + ["--emit", emitted])
    lines = [line for line in out.splitlines(keepends=True) if "emitted" not in json.loads(line)]
    with open(emitted, encoding="utf-8") as fh:
        spec_text = fh.read()
    return code, {base + ".jsonl": "".join(lines), base + ".spec.json": spec_text}


def _text_outputs(command, name, extra, seed, workdir):
    """(exit code, {golden file name: text stdout with timings masked}) for one case."""
    code, out = _run(_argv(command, name, extra, seed, workdir))
    return code, {_case_name(command, name, extra, seed) + ".txt": TIMING.sub("[... ms]", out)}


def _text_cases():
    return [case for case in _cases() if case[0] in TEXT_COMMANDS]


def _check_golden(outputs, case, expected_code, workdir, monkeypatch):
    monkeypatch.delenv("PLECTIC_SEED", raising=False)
    code, files = outputs(*case, workdir)
    assert code == expected_code
    for filename, text in files.items():
        with open(os.path.join(GOLDEN_DIR, filename), encoding="utf-8") as fh:
            assert text == fh.read(), filename


@pytest.mark.parametrize(
    "command,name,extra,seed,expected_code",
    list(_cases()),
    ids=[_case_name(*case[:4]) for case in _cases()],
)
def test_json_output_matches_golden(
    command, name, extra, seed, expected_code, tmp_path, monkeypatch
):
    case = (command, name, extra, seed)
    _check_golden(_outputs, case, expected_code, str(tmp_path), monkeypatch)


@pytest.mark.parametrize(
    "command,name,extra,seed,expected_code",
    _text_cases(),
    ids=[_case_name(*case[:4]) for case in _text_cases()],
)
def test_text_output_matches_golden(
    command, name, extra, seed, expected_code, tmp_path, monkeypatch
):
    case = (command, name, extra, seed)
    _check_golden(_text_outputs, case, expected_code, str(tmp_path), monkeypatch)


if __name__ == "__main__":
    os.environ.pop("PLECTIC_SEED", None)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        runs = [(_outputs, case) for *case, _code in _cases()]
        runs += [(_text_outputs, case) for *case, _code in _text_cases()]
        for outputs, case in runs:
            for filename, text in outputs(*case, workdir)[1].items():
                with open(os.path.join(GOLDEN_DIR, filename), "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(filename)
