"""Closed-form descriptors for quasi-concave functions and Orlicz functions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class PhiFn:
    """Positive function on (0,1] with phi(0+) = 0, increasing, phi(t)/t decreasing."""

    label = "phi"

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def tilde(self) -> "PhiFn":
        """The dual-generating function t / phi(t)."""
        return TildePhi(self)

    def check_quasiconcave(self, grid_size: int = 40, tol: float = 1e-12) -> bool:
        """phi nondecreasing and phi(t)/t nonincreasing on a dyadic grid."""
        ts = [2.0**-j for j in range(grid_size, -1, -1)]
        vals = [self(t) for t in ts]
        ratios = [v / t for v, t in zip(vals, ts)]
        inc = all(b >= a - tol for a, b in zip(vals, vals[1:]))
        dec = all(b <= a + tol for a, b in zip(ratios, ratios[1:]))
        return inc and dec and self(1e-14) >= -tol


@dataclass(frozen=True)
class PowerPhi(PhiFn):
    """phi(t) = t**alpha, 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0,1], got {self.alpha}")

    @property
    def label(self) -> str:
        return f"pow:{self.alpha}"

    def __call__(self, t: float) -> float:
        t = float(t)
        return 0.0 if t <= 0 else t**self.alpha


@dataclass(frozen=True)
class LogPowerPhi(PhiFn):
    """phi(t) = log(e/t)**(-beta); increasing with phi(0+) = 0 for beta > 0."""

    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @property
    def label(self) -> str:
        return f"logpow:{self.beta}"

    def __call__(self, t: float) -> float:
        t = float(t)
        if t <= 0:
            return 0.0
        return math.log(math.e / t) ** (-self.beta)


@dataclass(frozen=True)
class TildePhi(PhiFn):
    """t / base(t); quasi-concave whenever base is."""

    base: PhiFn

    @property
    def label(self) -> str:
        return f"tilde({self.base.label})"

    def __call__(self, t: float) -> float:
        t = float(t)
        if t <= 0:
            return 0.0
        b = self.base(t)
        return t / b if b > 0 else 0.0


class OrliczFn:
    """Increasing convex M on [0, inf) with M(0) = 0 and an analytic inverse."""

    label = "orlicz"

    def __call__(self, u: float) -> float:
        raise NotImplementedError

    def array(self, u: np.ndarray) -> np.ndarray:
        """M elementwise on a float64 array, by numpy: equal to __call__ up
        to the last bits of pow/expm1; overflow gives inf, not an error."""
        raise NotImplementedError

    def inverse(self, v: float) -> float:
        raise NotImplementedError

    def check_convex(self, grid_size: int = 30, tol: float = 1e-12) -> bool:
        us = [0.1 * k for k in range(grid_size)]
        vals = [self(u) for u in us]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        return (
            abs(self(0.0)) <= tol
            and all(d >= -tol for d in diffs)
            and all(b >= a - tol for a, b in zip(diffs, diffs[1:]))
        )


@dataclass(frozen=True)
class PowerOrlicz(OrliczFn):
    """M(u) = u**p; the Orlicz space is L_p isometrically."""

    p: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")

    @property
    def label(self) -> str:
        return f"u^{self.p}"

    def __call__(self, u: float) -> float:
        return float(u) ** self.p

    def array(self, u: np.ndarray) -> np.ndarray:
        return u**self.p

    def inverse(self, v: float) -> float:
        return float(v) ** (1.0 / self.p)


@dataclass(frozen=True)
class ExpPowerOrlicz(OrliczFn):
    """M(u) = exp(u**p) - 1; generates the exponential-integrability space."""

    p: float

    def __post_init__(self):
        if self.p <= 0:
            raise ValueError(f"p must be positive, got {self.p}")

    @property
    def label(self) -> str:
        return f"exp(u^{self.p})-1"

    def __call__(self, u: float) -> float:
        return math.expm1(float(u) ** self.p)

    def array(self, u: np.ndarray) -> np.ndarray:
        return np.expm1(u**self.p)

    def inverse(self, v: float) -> float:
        return math.log1p(float(v)) ** (1.0 / self.p)
