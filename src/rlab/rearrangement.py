"""Distribution functions, decreasing rearrangements, equimeasurability."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .dyadic import StepFunction


def distribution(f: StepFunction) -> tuple[tuple[Fraction, Fraction], ...]:
    """Breakpoints (v, m{|f| >= v}) of f's distribution, v strictly
    decreasing, read off f*: canonical f* has one run per distinct |value|,
    in decreasing order. f* itself gives the same breakpoints, and sorting
    it again is linear."""
    star = decreasing_rearrangement(f)
    width = Fraction(1, 2**star.level)
    measures = itertools.accumulate(length * width for length, _ in star.runs)
    return tuple(zip((value for _, value in star.runs), measures))


def decreasing_rearrangement(f: StepFunction) -> StepFunction:
    """f*: |values| sorted nonincreasing; ties keep original order.

    Sorting on (float(|v|), |v|) gives the stable exact order: rounding is
    monotone, so floats decide every pair they separate and the exact value
    breaks their ties; a reverse sort stays stable.
    """
    runs = sorted(((length, abs(value)) for length, value in f.runs), key=_magnitude, reverse=True)
    return StepFunction.from_runs(f.level, runs)


def _magnitude(run: tuple[int, Fraction]) -> tuple[float, Fraction]:
    try:
        return run[1].numerator / run[1].denominator, run[1]
    except OverflowError:  # past every float, the exact value alone orders
        return math.inf, run[1]


def equimeasurable(f: StepFunction, g: StepFunction) -> bool:
    return decreasing_rearrangement(f) == decreasing_rearrangement(g)
