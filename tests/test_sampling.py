import random
import threading

import pytest

from plectic.errors import PlecticError
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


@pytest.mark.parametrize("low, high", [(-5, 5), (0, 0), (-8, 7), (0, 1023), (-2**40, 2**40)])
@pytest.mark.parametrize("seed", [0, 7, -7, 2**40 + 1])
def test_sample_points_are_the_randint_stream(low, high, seed):
    # widths 16 and 1024 are powers of two: a draw of width.bit_length() bits
    # rejects about half of them, and one bit fewer would change the points
    dim, count = 4, 6
    points = sample_points(dim, SampleConfig(count, seed, low, high))
    rng = random.Random(seed)
    assert points == [tuple(rng.randint(low, high) for _ in range(dim)) for _ in range(count)]
    # random.Random seeds an int by its absolute value: -7 draws the points of 7
    assert points == sample_points(dim, SampleConfig(count, -seed, low, high))


def test_an_empty_range_is_refused_in_time():
    # a k-bit draw loop over low > high would spin (getrandbits(0) is 0), so
    # run in a daemon thread: a regression fails here instead of hanging
    raised = []

    def run():
        try:
            sample_points(3, SampleConfig(1, 0, 5, -5))
        except PlecticError as exc:
            raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "sample_points still runs after 10 s"
    assert len(raised) == 1 and "[5, -5]" in str(raised[0])
