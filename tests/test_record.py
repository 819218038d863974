import os
import subprocess
import sys

import pytest

import plectic
from plectic.errors import PlecticError
from plectic.exterior import Chart
from plectic.record import FrozenError, Record
from plectic.report import EVIDENCE, VerificationReport
from plectic.sampling import SampleConfig


class Point(Record):
    x: int
    y: int = 0


class Point3(Point):
    z: int = 0


class Pair(Record):
    x: int
    y: int = 0


def test_positional_keyword_and_default_construction():
    assert Point._fields == ("x", "y")
    assert Point3._fields == ("x", "y", "z")
    p = Point(1, 2)
    assert (p.x, p.y) == (1, 2)
    assert Point(y=2, x=1) == p
    assert Point(1, y=2) == p
    assert Point(1).y == 0
    assert Point3(1, z=3) == Point3(1, 0, 3)
    config = SampleConfig(seed=9)
    assert (config.count, config.seed, config.low, config.high) == (50, 9, -5, 5)


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        ((), {}, "missing fields: x"),
        ((), {"y": 1}, "missing fields: x"),
        ((1,), {"w": 1}, "unexpected field 'w'"),
        ((1, 2, 3), {}, "takes 2 fields but 3 were given"),
        ((1,), {"x": 1}, "multiple values for field 'x'"),
    ],
)
def test_bad_construction_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_fields_cannot_be_set_or_deleted():
    chart = Chart("c", ("x", "y"))
    with pytest.raises(FrozenError):
        chart.name = "d"
    with pytest.raises(FrozenError):
        del chart.coords
    with pytest.raises(FrozenError):
        chart.extra = 1
    # a frozen error is an AttributeError, as callers of setattr expect
    with pytest.raises(AttributeError):
        Point(1).x = 2
    assert chart == Chart("c", ("x", "y"))


def test_equality_and_hash_follow_type_and_values():
    assert Point(1, 2) == Point(1, 2)
    assert hash(Point(1, 2)) == hash(Point(1, 2))
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2) != (1, 2)
    assert len({Point(1, 2), Point(1, 2), Pair(1, 2), Point(2, 1)}) == 3
    assert {Chart("c", ["x"]): 1}[Chart("c", ("x",))] == 1


def test_replace_builds_a_new_validated_record():
    chart = Chart("c", ("x", "y"))
    renamed = chart.replace(name="d")
    assert renamed == Chart("d", ("x", "y"))
    assert chart.name == "c"
    assert chart.replace(coords=["y", "x"]).coords == ("y", "x")  # __post_init__ ran again
    with pytest.raises(PlecticError, match="duplicate coordinate names"):
        chart.replace(coords=("x", "x"))
    with pytest.raises(TypeError, match="unexpected field 'dim'"):
        chart.replace(dim=3)


def test_report_fields_have_no_defaults():
    # a default is shared by every record, so mutable report fields have none
    with pytest.raises(TypeError, match="missing fields: details, witnesses, timing_ms"):
        VerificationReport("a", EVIDENCE)
    first = VerificationReport("a", EVIDENCE, {}, [], 0.0)
    assert first.replace(name="c").details is first.details


def test_repr_names_each_field():
    assert repr(Chart("c", ("x", "y"))) == "Chart(name='c', coords=('x', 'y'))"
    assert repr(Point3(1, z=3)) == "Point3(x=1, y=0, z=3)"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both cost a one-shot command more start-up time than a check takes
    src = os.path.dirname(os.path.dirname(plectic.__file__))
    script = (
        "import sys; bare = set(sys.modules); import plectic.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "plectic.cli" in added
    assert not added & {"dataclasses", "inspect"}
