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
