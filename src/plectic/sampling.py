"""Deterministic integer sample points for pointwise verification.

Coordinates are drawn uniformly, as ints, from the integers of a closed range
(default [-5, 5]) with a seeded generator, straight from its bits; points
where a supplied rejection predicate fires (poles) are redrawn.  Every
sampled verdict echoes what it checked through ``echo``: a SampleConfig
(count, seed, range) whenever the caller gave one, and ``points_supplied``
only for points that came with no config.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Sized, Tuple

from .errors import PlecticError
from .record import Record

DEFAULT_RANGE = (-5, 5)
DEFAULT_COUNT = 50
DEFAULT_SEED = 0

_MAX_REJECTS = 1000


class SampleConfig(Record):
    count: int = DEFAULT_COUNT
    seed: int = DEFAULT_SEED
    low: int = DEFAULT_RANGE[0]
    high: int = DEFAULT_RANGE[1]

    def describe(self) -> dict:
        return {
            "samples": self.count,
            "seed": self.seed,
            "coordinate_range": [self.low, self.high],
        }


def echo(config: Optional[SampleConfig], points: Sized) -> dict:
    """Report details naming the points a sampled check used."""
    return config.describe() if config is not None else {"points_supplied": len(points)}


def sample_points(
    dim: int,
    config: SampleConfig,
    reject: Optional[Callable[[Tuple[int, ...]], bool]] = None,
) -> List[Tuple[int, ...]]:
    """Draw config.count points in Z^dim, redrawing rejected ones.

    A coordinate is low + r, where r is a k-bit draw of the generator
    (k = width.bit_length()) redrawn until it falls below the range width:
    the rejection loop of ``randint`` on CPython 3.10-3.13, so the points
    are the ones ``randint`` gives there, without its three Python frames
    a coordinate.  An empty range (low > high) raises ``PlecticError``.
    """
    low, high = config.low, config.high
    width = high - low + 1
    if width <= 0:
        # getrandbits(0) is 0, never below an empty width: the loop would spin
        raise PlecticError(f"empty coordinate range [{low}, {high}]: low exceeds high")
    k = width.bit_length()
    getrandbits = random.Random(config.seed).getrandbits
    points = []
    rejects = 0
    while len(points) < config.count:
        coords = []
        for _ in range(dim):
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            coords.append(low + r)
        point = tuple(coords)
        if reject is not None and reject(point):
            rejects += 1
            if rejects > _MAX_REJECTS:
                raise PlecticError("sampling rejected too many points (pole-dense input?)")
            continue
        points.append(point)
    return points


def pole_rejector(form) -> Callable[[Sequence], bool]:
    """Rejection predicate: any coefficient denominator vanishes at the point.

    A constant denominator is nonzero, so only the distinct non-constant
    ones, which the form's ``PointLayout`` lists, are evaluated.
    """
    dens = form.point_layout().denominators

    def reject(point) -> bool:
        return any(den.evaluate(point) == 0 for den in dens)

    return reject
