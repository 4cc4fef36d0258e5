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

    @property
    def exponents(self) -> tuple[float, float]:
        """(a, b) with phi(t) = t**a * log(e/t)**b."""
        raise NotImplementedError

    def tilde(self) -> "PhiFn":
        """The dual-generating function t / phi(t)."""
        return TildePhi(self)


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

    @property
    def exponents(self) -> tuple[float, float]:
        return self.alpha, 0.0

    def __call__(self, t: float) -> float:
        t = float(t)
        return 0.0 if t <= 0 else t**self.alpha


@dataclass(frozen=True)
class LogPowerPhi(PhiFn):
    """phi(t) = log(e/t)**(-beta), 0 < beta <= 1: with L = log(e/t) >= 1,
    d/dt[phi(t)/t] = t**-2 L**(-beta-1) (beta - L) is <= 0 on (0, 1] only then."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0,1], got {self.beta}")

    @property
    def label(self) -> str:
        return f"logpow:{self.beta}"

    @property
    def exponents(self) -> tuple[float, float]:
        return 0.0, -self.beta

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

    @property
    def exponents(self) -> tuple[float, float]:
        a, b = self.base.exponents
        return 1.0 - a, -b

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


@dataclass(frozen=True)
class PowerOrlicz(OrliczFn):
    """M(u) = u**p; the Orlicz space is L_p isometrically."""

    p: float

    def __post_init__(self):
        if not 1 <= self.p < math.inf:  # NaN too
            raise ValueError(f"p must be finite and >= 1, got {self.p}")

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
    """M(u) = exp(u**p) - 1, p >= 1: M'' = p u**(p-2) e**(u**p) ((p-1) + p u**p)
    is >= 0 for every u > 0 only then."""

    p: float

    def __post_init__(self):
        if not 1 <= self.p < math.inf:  # NaN too
            raise ValueError(f"p must be finite and >= 1, got {self.p}")

    @property
    def label(self) -> str:
        return f"exp(u^{self.p})-1"

    def __call__(self, u: float) -> float:
        return math.expm1(float(u) ** self.p)

    def array(self, u: np.ndarray) -> np.ndarray:
        return np.expm1(u**self.p)

    def inverse(self, v: float) -> float:
        return math.log1p(float(v)) ** (1.0 / self.p)
