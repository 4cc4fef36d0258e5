"""Distribution functions, decreasing rearrangements, equimeasurability."""

from __future__ import annotations

import itertools
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
    """f*: |values| sorted nonincreasing; ties keep original order."""
    return f.sorted_abs()


def equimeasurable(f: StepFunction, g: StepFunction) -> bool:
    return decreasing_rearrangement(f) == decreasing_rearrangement(g)
