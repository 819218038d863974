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
``tests/golden/dw_n4.json`` is the same spec at base dimension 4; its
``thicken`` outputs (a 35 KB spec of the 130-dimensional thickened chart)
and its ``eom --symbolic`` output on that chart (about 130 KB) are pinned
only by the sha256 of each output, in ``DIGESTS``.
``tests/golden/section_zero.json`` and ``section_nonzero.json`` are section
files for ``scalar_field_2d``, one a solution and one not.
``tests/golden/rational_frame.json`` has a frame whose inverse divides by a
coordinate, so omega_tilde has a pole that the base form lacks.
``tests/golden/dw_rational_n3.json`` is ``spec_dict(3, "dw_rational_n3")``
with its first horizontal field replaced by ``{"x2": "x1"}``: the same
fibers and kernels as DW n = 3, but a frame that is not constant, so its
``thicken`` and ``eom --symbolic`` outputs run the rational-coefficient
paths that the integer DW cases skip.
``tests/golden/dw_rational_n4.json`` is the same spec at base dimension 4
(``spec_dict(4, "dw_rational_n4")``, first horizontal field ``{"x2": "x1"}``);
like DW n = 4, its ``thicken`` and ``eom --symbolic`` outputs are pinned by
sha256 in ``DIGESTS``.  They were generated and committed before
``coeff._div_exact`` became a one-pass division, and pin that the change
left them unchanged.
``tests/golden/dw_half_n3.json`` is ``spec_dict(3, "dw_half_n3")`` with
its first horizontal field replaced by ``{"x2": "2"}``: a constant frame
whose coframe carries 1/2, so its coefficients are fractional polynomials
over the denominator 1, which no other golden case has.  Its ``check``,
``thicken`` and ``eom --symbolic`` outputs were generated and committed
before ``coeff._reduce`` stopped running the gcd ladder on such values,
and pin that the change left them unchanged.
``tests/golden/dw_rational_n5.json`` is the rational DW spec at base
dimension 5 (``spec_dict(5, "dw_rational_n5")``, first horizontal field
``{"x2": "x1"}``).  Its ``eom --symbolic`` outputs on the 467-dimensional
thickened chart are pinned by sha256 in ``DIGESTS``.  Every coefficient of
its coframe has a power of x1 as its denominator, so each output index of
``exterior.substitute`` sums many products over monomial denominators.
``tests/golden/dw_quad_n3.json`` is ``spec_dict(3, "dw_quad_n3")`` with
its first horizontal field replaced by ``{"x2": "1 + x1^2"}``: the one
golden case whose coframe has a denominator that is not a monomial,
1 + x1^2.  Its ``thicken`` outputs were generated and committed before
``exterior.substitute`` summed each output index's products over their
denominators, and pin that the change left them unchanged.  Its
``eom --symbolic`` outputs were written after that change, which reduced
four auxiliary equations to the denominator (1 + x1^2)^3.
``tests/golden/dw_rational_n3_u_first.json`` is ``dw_rational_n3`` with
``u`` moved to the front of its coordinates: the one golden chart whose
fibration base does not come first, so ``eom --symbolic`` on it moves each
coefficient to the jet chart in a new variable order, and reduces it anew.
Its ``eom --symbolic`` outputs, and those on its thickened spec, were
generated and committed before ``ScalarExpr.reindex`` replaced
``subs_rename``, and pin that the change left them unchanged.
After an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff; the script prints the new value of each ``DIGESTS``
entry instead of writing a file.
"""

import contextlib
import hashlib
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
GOLDEN_SPECS = (
    "dw_n3",
    "dw_n4",
    "dw_rational_n3",
    "dw_rational_n4",
    "dw_rational_n5",
    "dw_half_n3",
    "dw_quad_n3",
    "dw_rational_n3_u_first",
    "rational_frame",
)
SECTIONS = (("section_zero", 0), ("section_nonzero", 1))  # (section file, exit code)
TEXT_COMMANDS = ("orthogonal", "eom")
TIMING = re.compile(r"\[\d+\.\d ms\]")
# golden outputs too large to store: sha256 of the UTF-8 text
DIGESTS = {
    "thicken_dw_n4_spec_seed.jsonl": "cd16fae23dac50d0c4ef4c660ff927eaf7dc08f541a5fc42938b263134cbca65",
    "thicken_dw_n4_spec_seed.spec.json": "edfb5f0f89047f40619f53a2484d9fb845bda048d4414a72840b95355e6bfe86",
    "eom_dw_n4_thickened_spec_seed.jsonl": "f6589d9a580abf7bd9a86198d291596b463776460e5050511d6e489078c1d2b1",
    "eom_dw_n4_thickened_spec_seed.txt": "bd7914c2cc8c997b476f8ba8f1d0873bc29a095aaebd249349028d53cb4e251a",
    "thicken_dw_rational_n4_spec_seed.jsonl": "c57d6bb4933ca0eb1d4567a187d92adef5b440b7e1613df197b2826bb4ea59cd",
    "thicken_dw_rational_n4_spec_seed.spec.json": "45edb456628d54f3ed0d516c86909bd51216558cca0942a6921218dbe4f33644",
    "eom_dw_rational_n4_thickened_spec_seed.jsonl": "7efcbfcf3eaffdd356f26cb69e2eecf8e11779dedd25d220e5cedf6a9f679fbc",
    "eom_dw_rational_n4_thickened_spec_seed.txt": "589e082dad83dbd1da3a85a9894b5f8304ccf8fd53b8e5384a77d91817d32327",
    "eom_dw_rational_n5_thickened_spec_seed.jsonl": "f676d5c5756d063187d1ec46c29c59409bdaa4ebe670f7cddebace9c1d628416",
    "eom_dw_rational_n5_thickened_spec_seed.txt": "6a0f435dc6502f8f8102bec0086b9b18a5f308f5a7af55d9a89ec59d4d1e4327",
}


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
    yield "thicken", "dw_n4", [], None, 0
    yield "thicken", "rational_frame", [], None, 0
    yield "thicken", "dw_rational_n3", [], None, 0
    yield "thicken", "dw_rational_n4", [], None, 0
    yield "check", "dw_half_n3", [], None, 0
    yield "thicken", "dw_half_n3", [], None, 0
    yield "thicken", "dw_quad_n3", [], None, 0
    yield "eom", "dw_n3_thickened", ["--symbolic"], None, 0
    yield "eom", "dw_n4_thickened", ["--symbolic"], None, 0
    yield "eom", "dw_rational_n3_thickened", ["--symbolic"], None, 0
    yield "eom", "dw_rational_n4_thickened", ["--symbolic"], None, 0
    yield "eom", "dw_half_n3_thickened", ["--symbolic"], None, 0
    yield "eom", "dw_rational_n5_thickened", ["--symbolic"], None, 0
    yield "eom", "dw_quad_n3_thickened", ["--symbolic"], None, 0
    yield "eom", "dw_rational_n3_u_first", ["--symbolic"], None, 0
    yield "eom", "dw_rational_n3_u_first_thickened", ["--symbolic"], None, 0
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
    """Path of the spec named name; ``<base>_thickened`` is emitted from ``<base>``
    into workdir, once for each workdir."""
    if name.endswith("_thickened"):
        spec = os.path.join(workdir, name + ".json")
        if not os.path.exists(spec):
            base = _spec(name[: -len("_thickened")], workdir)
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


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_golden(outputs, case, expected_code, workdir, monkeypatch):
    monkeypatch.delenv("PLECTIC_SEED", raising=False)
    code, files = outputs(*case, workdir)
    assert code == expected_code
    for filename, text in files.items():
        if filename in DIGESTS:
            assert _digest(text) == DIGESTS[filename], filename
            continue
        with open(os.path.join(GOLDEN_DIR, filename), encoding="utf-8") as fh:
            assert text == fh.read(), filename


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """One directory for the session, so each thickened spec is emitted once."""
    return str(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "command,name,extra,seed,expected_code",
    list(_cases()),
    ids=[_case_name(*case[:4]) for case in _cases()],
)
def test_json_output_matches_golden(
    command, name, extra, seed, expected_code, workdir, monkeypatch
):
    case = (command, name, extra, seed)
    _check_golden(_outputs, case, expected_code, workdir, monkeypatch)


@pytest.mark.parametrize(
    "command,name,extra,seed,expected_code",
    _text_cases(),
    ids=[_case_name(*case[:4]) for case in _text_cases()],
)
def test_text_output_matches_golden(
    command, name, extra, seed, expected_code, workdir, monkeypatch
):
    case = (command, name, extra, seed)
    _check_golden(_text_outputs, case, expected_code, workdir, monkeypatch)


if __name__ == "__main__":
    os.environ.pop("PLECTIC_SEED", None)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        runs = [(_outputs, case) for *case, _code in _cases()]
        runs += [(_text_outputs, case) for *case, _code in _text_cases()]
        for outputs, case in runs:
            for filename, text in outputs(*case, workdir)[1].items():
                if filename in DIGESTS:
                    print(f"{filename}: {_digest(text)}")
                    continue
                with open(os.path.join(GOLDEN_DIR, filename), "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(filename)
