import json

import pytest

from plectic.cli import main
from plectic.manifoldspec import (
    SpecError,
    load_section,
    load_spec,
    parse_spec_dict,
    thickened_spec_dict,
)
from plectic.splitting import build_split_frame
from plectic.thicken import build_thickening

from conftest import fixture_path, rename


def _minimal(**overrides):
    data = {
        "name": "toy",
        "coordinates": ["x", "y", "z"],
        "form": {
            "degree": 2,
            "terms": [{"indices": ["x", "y"], "coeff": "1"}],
        },
    }
    data.update(overrides)
    return data


def test_bundled_fixtures_load():
    for name in (
        "scalar_field_2d.json",
        "scalar_field_2d_nondegenerate.json",
        "r4_premultisymplectic.json",
        "r5_thickening.json",
        "r6_thickening.json",
    ):
        spec = load_spec(fixture_path(name))
        assert spec.form.degree == 3


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError, match="unknown top-level keys"):
        parse_spec_dict(_minimal(surprise=1))


def test_duplicate_indices_rejected():
    bad = _minimal()
    bad["form"]["terms"][0]["indices"] = ["x", "x"]
    with pytest.raises(SpecError, match="duplicate"):
        parse_spec_dict(bad)


def test_unknown_coordinate_in_indices_rejected():
    bad = _minimal()
    bad["form"]["terms"][0]["indices"] = ["x", "w"]
    with pytest.raises(SpecError, match="unknown coordinate"):
        parse_spec_dict(bad)


def test_malformed_coefficient_reports_position():
    bad = _minimal()
    bad["form"]["terms"][0]["coeff"] = "1 + * y"
    with pytest.raises(SpecError, match="position"):
        parse_spec_dict(bad)


@pytest.mark.parametrize("name", ["", "1x", "x²", "é", "x-y"])
def test_coordinate_names_must_be_ascii_identifiers(name):
    with pytest.raises(SpecError, match="identifiers"):
        parse_spec_dict(_minimal(coordinates=["x", "y", "z", name]))


def test_bad_coordinate_name_is_reported_by_index_and_name():
    with pytest.raises(SpecError) as excinfo:
        parse_spec_dict(_minimal(coordinates=["x", "", "y"]))
    assert excinfo.value.path == "coordinates[1]"
    assert str(excinfo.value) == "coordinates[1]: coordinate names must be identifiers, got ''"


def test_non_increasing_indices_normalize_by_sign():
    data = _minimal()
    data["form"]["terms"] = [
        {"indices": ["y", "x"], "coeff": "1"},
        {"indices": ["x", "y"], "coeff": "1"},
    ]
    spec = parse_spec_dict(data)
    assert spec.form.is_zero()


def test_fibration_auxiliary_must_be_fiber():
    data = _minimal()
    data["fibration"] = {"base": ["x"], "auxiliary": ["x"]}
    with pytest.raises(SpecError, match="fiber"):
        parse_spec_dict(data)


def test_fibration_auxiliary_duplicates_rejected_with_exit_2(tmp_path, capsys):
    with open(fixture_path("scalar_field_2d.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["fibration"]["auxiliary"] = ["rho_t", "rho_t"]
    with pytest.raises(SpecError, match=r"fibration\.auxiliary.*duplicate"):
        parse_spec_dict(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["eom", str(path), "--symbolic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "duplicate" in captured.err
    data["fibration"]["auxiliary"] = ["rho_t"]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["eom", str(path), "--symbolic"]) == 0


def test_samples_block_validated():
    # JSON true/false load as bool, an int subclass, but are not integers
    for samples, message in (
        ({"count": 0}, "positive"),
        ({"coordinate_range": [3, -3]}, "low <= high"),
        ({"count": True}, "samples.count"),
        ({"seed": False}, "samples.seed"),
        ({"coordinate_range": [False, True]}, "samples.coordinate_range"),
    ):
        with pytest.raises(SpecError, match=message):
            parse_spec_dict(_minimal(samples=samples))


def test_boolean_degree_rejected():
    data = _minimal(form={"degree": True, "terms": [{"indices": ["x"], "coeff": "1"}]})
    with pytest.raises(SpecError, match="form.degree"):
        parse_spec_dict(data)


def test_degree_above_the_chart_dimension_rejected():
    # a degree-3 form on two coordinates can only be zero
    data = _minimal(coordinates=["x", "t"], form={"degree": 3, "terms": []})
    with pytest.raises(SpecError, match=r"form.degree: must be at most the number of coordinates \(2\)"):
        parse_spec_dict(data)
    top = _minimal(form={"degree": 3, "terms": [{"indices": ["x", "y", "z"], "coeff": "1"}]})
    assert parse_spec_dict(top).form.degree == 3


def test_emitted_thickened_spec_round_trips(tmp_path):
    spec = load_spec(fixture_path("scalar_field_2d.json"))
    manifold = spec.manifold()
    frame = build_split_frame(manifold, spec.vertical, spec.horizontal)
    thickening = build_thickening(manifold, frame)
    emitted = thickened_spec_dict(thickening, spec)

    path = tmp_path / "thick.json"
    path.write_text(json.dumps(emitted), encoding="utf-8")
    reloaded = load_spec(str(path))

    assert reloaded.chart.dim == 12
    assert reloaded.form.degree == 3
    # field-equal form after the string round-trip
    rebuilt_terms = {
        idx: coeff for idx, coeff in reloaded.form.terms.items()
    }
    assert len(rebuilt_terms) == len(thickening.omega_tilde.terms)
    for idx, coeff in thickening.omega_tilde.terms.items():
        assert idx in rebuilt_terms
        assert rebuilt_terms[idx] == rename(coeff, reloaded.chart.coords)
    # closedness survives, kernel is trivial
    reloaded.manifold()
    assert reloaded.fibration_base == ("x", "t")
    assert set(reloaded.fibration_auxiliary) == set(thickening.fiber_names)


def _section(tmp_path, data):
    path = tmp_path / "section.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _fibered():
    return load_spec(fixture_path("scalar_field_2d.json")).fibered_chart()


def test_load_section_parses_components_over_the_base(tmp_path):
    path = _section(tmp_path, {"u": "3*x + 5", "rho_x": "3", "rho_t": "x*t"})
    section = load_section(path, _fibered())
    assert section.components["rho_t"].variables == ("x", "t")
    assert str(section.components["u"]) == "3*x + 5"


@pytest.mark.parametrize(
    "data,message",
    [
        (["u"], "must map fiber coordinate"),
        ({"u": 3, "rho_x": "0", "rho_t": "0"}, "section.json:u: expected an expression string"),
        ({"u": "u", "rho_x": "0", "rho_t": "0"}, "section.json:u: unknown variable 'u'"),
        ({"u": "0", "rho_x": "0"}, r"missing \['rho_t'\]"),
        ({"u": "0", "rho_x": "0", "rho_t": "0", "v": "0"}, r"unexpected \['v'\]"),
    ],
)
def test_load_section_rejects_bad_sections(tmp_path, data, message):
    with pytest.raises(SpecError, match=message):
        load_section(_section(tmp_path, data), _fibered())


def test_section_mismatch_names_only_the_nonempty_parts(tmp_path):
    for data, parts in (
        ({"u": "0", "rho_x": "0"}, "missing ['rho_t']"),
        ({"u": "0", "rho_x": "0", "rho_t": "0", "v": "0"}, "unexpected ['v']"),
        ({"u": "0", "rho_x": "0", "v": "0"}, "missing ['rho_t'], unexpected ['v']"),
    ):
        path = _section(tmp_path, data)
        with pytest.raises(SpecError) as excinfo:
            load_section(path, _fibered())
        assert str(excinfo.value) == f"{path}: section components mismatch: {parts}"


def test_load_section_reports_unreadable_files(tmp_path):
    with pytest.raises(SpecError, match="cannot read file"):
        load_section(str(tmp_path / "absent.json"), _fibered())
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(SpecError, match="invalid JSON"):
        load_section(str(bad), _fibered())
