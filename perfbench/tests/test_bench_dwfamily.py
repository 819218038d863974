"""The DW-family generator against closed forms of the construction."""

import json
import os
from fractions import Fraction
from math import comb

import _paths

import dwfamily
import plectic
from plectic import manifoldspec, splitting, thicken


def dw(n):
    spec = manifoldspec.parse_spec_dict(dwfamily.spec_dict(n))
    return spec, spec.manifold()


def test_closed_forms():
    assert [dwfamily.chart_dim(n) for n in (2, 3, 4)] == [5, 7, 9]
    assert [dwfamily.fiber_count(n) for n in (2, 3, 4)] == [7, 31, 121]
    assert [dwfamily.big_chart_dim(n) for n in (2, 3, 4)] == [12, 38, 130]
    for n in (2, 3, 4):
        assert dwfamily.fiber_count(n) == comb(2 * n + 1, n) - comb(n + 1, n)
        assert dwfamily.pulled_kernel_dim(n) == dwfamily.fiber_count(n) + n


def test_forms_are_closed_with_an_n_dimensional_kernel():
    for n in (2, 3, 4):
        spec, manifold = dw(n)
        assert manifold.degree == n + 1
        point = [Fraction(i - 3) for i in range(manifold.chart.dim)]
        kernel = splitting.kernel_at(manifold, point)
        assert len(kernel) == n
        assert len(spec.vertical) == n and len(spec.horizontal) == n + 1


def test_thickened_sizes_match_the_closed_forms():
    for n in (2, 3):
        spec, manifold = dw(n)
        frame = splitting.build_split_frame(manifold, spec.vertical, spec.horizontal)
        th = thicken.build_thickening(manifold, frame)
        assert th.big_chart.dim == dwfamily.big_chart_dim(n)
        assert th.fiber_count == dwfamily.fiber_count(n)
        pulled = splitting.PreMultisymplecticManifold(
            th.big_chart, n + 1, th.tau.pullback(manifold.omega))
        point = plectic.sample_points(th.big_chart.dim, plectic.SampleConfig(1, 5))[0]
        assert len(splitting.kernel_at(pulled, point)) == dwfamily.pulled_kernel_dim(n)
    # n = 4 without the 20 s build: the fiber enumeration alone
    labels = [f"c{i}" for i in range(dwfamily.chart_dim(4))]
    entries = thicken.enumerate_fiber_coordinates(9, 5, 5, labels)
    assert len(entries) == dwfamily.fiber_count(4)


def test_n2_is_the_scalar_field_fixture_renamed():
    path = os.path.join(_paths.ROOT, "src", "plectic", "fixtures", "scalar_field_2d.json")
    with open(path, encoding="utf-8") as fh:
        fixture = json.load(fh)
    generated = dwfamily.renamed(dwfamily.spec_dict(2), dwfamily.N2_RENAME)
    for key in ("coordinates", "form", "frame", "fibration"):
        assert generated[key] == fixture[key], key
