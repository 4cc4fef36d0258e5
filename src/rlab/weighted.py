"""Weighted spaces X(w): norms and the Hoelder pairing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import LEVEL_CAP, StepFunction, make_step
from .errors import DivisionByZero, InvalidSpec, NonPositiveWeight
from .spaces import SpaceSpec, _fields, norm


@dataclass(frozen=True)
class Weight:
    """Strictly positive step weight; 1/w stays exactly rational."""

    fn: StepFunction
    label: str = "step"

    def __post_init__(self):
        if any(value <= 0 for _, value in self.fn.runs):
            raise NonPositiveWeight("weight must be positive on every cell")

    @staticmethod
    def constant(c) -> "Weight":
        c = Fraction(c)
        return Weight(StepFunction.constant(c), label=f"const:{c}")

    @staticmethod
    def logpow(beta: float, level: int) -> "Weight":
        """w(t) = log(e/t)**beta sampled at rank-`level` cell midpoints, each
        sample the exact dyadic value of its float."""
        n = 2**level
        vals = [Fraction(math.log(math.e / ((j + 0.5) / n)) ** beta) for j in range(n)]
        return Weight(make_step(level, vals), label=f"logpow:{beta}:level={level}")


def weighted_norm(X: SpaceSpec, w: Weight, f: StepFunction) -> float:
    if w.fn.level == 0 and w.fn.runs[0][1] == 1:
        return norm(X, f)
    return norm(X, f * w.fn)


def holder_check(X: SpaceSpec, f: StepFunction, g: StepFunction) -> float:
    """integral |fg| / (||f||_X ||g||_X'); must stay <= 1 + 1e-9."""
    nf = norm(X, f)
    ng = norm(X.dual(), g)
    if nf == 0 or ng == 0:
        raise DivisionByZero("zero norm in Hoelder ratio")
    pairing = float((abs(f) * abs(g)).integral())
    return pairing / (nf * ng)


def parse_weight(text: str) -> Weight:
    """CLI descriptors: const:1, step:<json file>, logpow:0.5:level=20."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "const":
            return Weight.constant(Fraction(_fields(parts, 2)[1]))
        if kind == "step":
            with open(_fields(parts, 2)[1]) as fh:
                return Weight(StepFunction.from_json(fh.read()), label=text)
        if kind == "logpow":
            beta, level = float(parts[1]), 10
            for field in _fields(parts, 3)[2:]:
                key, _, val = field.partition("=")
                if key != "level":
                    raise ValueError(f"unknown field {field!r}")
                level = int(val)
            if not 0 <= level <= LEVEL_CAP:
                raise InvalidSpec(f"sampling level {level} outside 0..{LEVEL_CAP}")
            return Weight.logpow(beta, level)
    except (LookupError, TypeError, ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        raise InvalidSpec(f"malformed weight descriptor {text!r}: {type(exc).__name__}: {exc}") from exc
    raise InvalidSpec(f"unknown weight kind {kind!r}")
