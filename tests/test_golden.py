"""Golden --json output of the CLI on the bundled fixtures.

Each case's stdout (and, for ``thicken --emit``, the emitted spec) is
compared byte for byte with the file of the same name under tests/golden/.
After an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
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
ORTHOGONAL = (
    ("r4_premultisymplectic", ["--submanifold", "x4=0"]),
    ("r5_thickening", ["--submanifold", "x5=0", "--ell", "2"]),
    ("r6_thickening", ["--submanifold", "x5=0,x6=0", "--ell", "2"]),
)
THICKEN = ("scalar_field_2d", "r4_premultisymplectic")


def _cases():
    """(case name, command, fixture, extra argv, seed) for every golden case."""
    for seed in SEEDS:
        for name in FIXTURES:
            yield "check", name, [], seed
        for name in THICKEN:
            yield "thicken", name, [], seed
        for name, extra in ORTHOGONAL:
            yield "orthogonal", name, extra, seed
        yield "eom", "scalar_field_2d", ["--symbolic"], seed
        yield "eom", "scalar_field_2d_thickened", ["--symbolic"], seed


def _case_name(command, name, seed):
    return f"{command}_{name}_{'spec_seed' if seed is None else f'seed{seed}'}"


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _outputs(command, name, extra, seed, workdir):
    """{golden file name: contents} for one case.

    ``thicken`` adds its emitted spec and drops the line echoing the
    emitted path; ``eom`` on ``scalar_field_2d_thickened`` first emits that
    spec from scalar_field_2d.
    """
    seed_argv = [] if seed is None else ["--seed", str(seed)]
    base = _case_name(command, name, seed)
    if name == "scalar_field_2d_thickened":
        spec = os.path.join(workdir, "scalar_field_2d_thickened.json")
        code, _ = _run(["thicken", fixture_path("scalar_field_2d.json"), "--emit", spec, "--json"])
        assert code == 0
    else:
        spec = fixture_path(name + ".json")
    argv = [command, spec, "--json", *extra, *seed_argv]
    if command != "thicken":
        return {base + ".jsonl": _run(argv)[1]}
    emitted = os.path.join(workdir, "emitted.json")
    out = _run(argv + ["--emit", emitted])[1]
    lines = [line for line in out.splitlines(keepends=True) if "emitted" not in json.loads(line)]
    with open(emitted, encoding="utf-8") as fh:
        spec_text = fh.read()
    return {base + ".jsonl": "".join(lines), base + ".spec.json": spec_text}


@pytest.mark.parametrize(
    "command,name,extra,seed",
    list(_cases()),
    ids=[_case_name(c, n, s) for c, n, _, s in _cases()],
)
def test_json_output_matches_golden(command, name, extra, seed, tmp_path, monkeypatch):
    monkeypatch.delenv("PLECTIC_SEED", raising=False)
    for filename, text in _outputs(command, name, extra, seed, str(tmp_path)).items():
        with open(os.path.join(GOLDEN_DIR, filename), encoding="utf-8") as fh:
            assert text == fh.read(), filename


if __name__ == "__main__":
    os.environ.pop("PLECTIC_SEED", None)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in _cases():
            for filename, text in _outputs(*case, workdir).items():
                with open(os.path.join(GOLDEN_DIR, filename), "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(filename)
