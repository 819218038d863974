from plectic.exterior import Chart, Form
from plectic.sampling import SampleConfig, pole_rejector, sample_points


def test_pole_rejector_redraws_points_on_a_pole():
    # 1/x dx^dy^dz is closed (top degree) with a pole on the plane x = 0,
    # which a third of the draws from [-1, 1] hit
    chart = Chart("R3", ("x", "y", "z"))
    form = Form.from_terms(chart, 3, [(("x", "y", "z"), "1/x")])
    points = sample_points(3, SampleConfig(20, 0, -1, 1), pole_rejector(form))
    assert len(points) == 20
    assert all(p[0] != 0 for p in points)


def test_sample_points_are_int_tuples_of_the_seeded_draws():
    points = sample_points(5, SampleConfig(3, 0))
    assert points == [(1, 1, -5, -1, 3), (2, 1, -1, 2, 0), (4, -2, 3, -3, -1)]
    assert all(type(x) is int for p in points for x in p)
