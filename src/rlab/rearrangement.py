"""Distribution functions, decreasing rearrangements, equimeasurability."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import StepFunction


@dataclass(frozen=True)
class DistributionFn:
    """n_f(tau) = m{ |f| > tau } as a right-continuous step function.

    breakpoints holds (tau, measure) with tau strictly decreasing and
    measure nondecreasing along the list; n_f(tau) is the measure attached
    to the largest threshold <= tau's bracket, 0 beyond the top value.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __call__(self, tau) -> Fraction:
        tau = Fraction(tau)
        result = Fraction(0)
        # breakpoints are (value v, measure of {|f| >= v} cumulated from top);
        # n_f(tau) = measure of cells with |value| > tau
        for v, cum in self.breakpoints:
            if v > tau:
                result = cum
            else:
                break
        return result


def distribution(f: StepFunction) -> DistributionFn:
    width = Fraction(1, 2**f.level)
    mass: dict[Fraction, Fraction] = {}
    for length, value in f.runs:
        v = abs(value)
        mass[v] = mass.get(v, Fraction(0)) + length * width
    levels = sorted(mass, reverse=True)
    cum = Fraction(0)
    pts = []
    for v in levels:
        cum += mass[v]
        pts.append((v, cum))
    return DistributionFn(tuple(pts))


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
