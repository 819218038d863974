"""Deterministic integer sample points for pointwise verification.

Coordinates are drawn uniformly, as ints, from the integers of a closed range
(default [-5, 5]) with a seeded generator; points where a supplied
rejection predicate fires (poles) are redrawn.  Every sampled verdict
echoes what it checked through ``echo``: a SampleConfig (count, seed, range)
whenever the caller gave one, and ``points_supplied`` only for points that
came with no config.
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
    """Draw config.count points in Z^dim, redrawing rejected ones."""
    rng = random.Random(config.seed)
    points = []
    rejects = 0
    while len(points) < config.count:
        point = tuple(rng.randint(config.low, config.high) for _ in range(dim))
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
