"""Norms and structural predicates for the implemented symmetric-space families.

Families: L_p, L_infty, Orlicz (power / exponential-power), Exp L^p,
Lorentz Lambda(phi), Marcinkiewicz M(phi).  Norm evaluation works on exact
StepFunctions; outputs are floats at documented tolerances.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .dyadic import StepFunction
from .errors import InvalidSpec, UnsupportedDual
from .phi import ExpPowerOrlicz, LogPowerPhi, OrliczFn, PhiFn, PowerOrlicz, PowerPhi
from .rearrangement import decreasing_rearrangement

GOLDEN_TOL = 1e-9
PRUNE_MARGIN = 1.0 + 1e-9
ORLICZ_TOL = 1e-10
ORLICZ_MARGIN = 1e-9
TREND_GROWTH = 1e-3
# grid depths j of the doubling truncations t >= 2**-j that divergence_trend reads
TRUNCATIONS = (16, 32, 64, 128, 256)
# the deepest f* level whose phi values at the cell ends a space keeps
PHI_GRID_LEVEL = 12


def _upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) for x > 0: by the recurrence when 2s is an integer, every
    term positive so nothing cancels; by mpmath for any other s."""
    if s < 0.5 or not (2.0 * s).is_integer():
        return float(mpmath.gammainc(s, x))
    ex = math.exp(-x)
    a = 0.5 if s % 1 else 1.0
    g = math.sqrt(math.pi) * math.erfc(math.sqrt(x)) if a == 0.5 else ex
    while a < s:
        g = a * g + x**a * ex
        a += 1.0
    return g


def logpow_cumulative(q: float, t: float) -> float:
    """Integral of log(e/s)**q over s in (0, t], via the incomplete gamma.

    Substituting s = e^(1-u) gives e * Gamma(q+1, log(e/t)).  Gamma(s, x)
    climbs from Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) or Gamma(1, x) = e^-x
    by Gamma(a+1, x) = a Gamma(a, x) + x^a e^-x (DLMF 8.4.6, 8.4.5, 8.8.2).
    """
    if t <= 0:
        return 0.0
    if t > 1:
        t = 1.0
    return math.e * _upper_gamma(q + 1.0, math.log(math.e / t))


def divergence_trend(values: list[float]) -> bool:
    """Doubling-truncation certificate: diverging iff the last three doublings
    each grow by more than TREND_GROWTH relative."""
    growths = [(b - a) / a if a > 0 else (math.inf if b > 0 else 0.0)
               for a, b in zip(values, values[1:])]
    return len(growths) >= 3 and all(g > TREND_GROWTH for g in growths[-3:])


def _star_cells(f: StepFunction) -> list[tuple[float, float, float]]:
    """(start, end, value) runs of f*, floats, zero-valued tail dropped.
    Endpoints are cell positions times 2**-level, exact for level <= 28."""
    star = decreasing_rearrangement(f)
    width = 2.0**-star.level
    cells = []
    pos = 0
    for length, value in star.abs_float_runs():
        cells.append((pos * width, (pos + length) * width, value))
        pos += length
    return cells


def _loghalf(t: float) -> float:
    return math.sqrt(math.log(math.e / t))


def _stieltjes_term(phi: PhiFn, lo: float, b: float, v: float) -> float:
    """v * integral over [lo, b] of log^(1/2)(e/t) d phi(t), by a
    geometric-grid Stieltjes sum refined toward the left edge."""
    ts = np.geomspace(lo, b, num=max(8, int(24 * math.log2(b / lo) + 8)))
    phis = [phi(float(t)) for t in ts]
    mids = [math.sqrt(t0 * t1) for t0, t1 in zip(ts, ts[1:])]
    return v * math.fsum(_loghalf(m) * (p1 - p0) for m, p0, p1 in zip(mids, phis, phis[1:]))


class SpaceSpec:
    family = "abstract"

    @functools.cached_property
    def _phi_grids(self) -> dict[tuple[PhiFn, int], list]:
        return {}

    def _star_phi(self, phi: PhiFn, f: StepFunction):
        """(v, phi(b)) for each nonzero cell [a, b] of f*, in order.

        b is k 2**-level for the k cells up to the cell's end.  Up to
        PHI_GRID_LEVEL the phi values are kept in a grid of 2**level + 1
        entries, filled as they are first read, that the space holds for as
        long as it lives; the same float reaches phi either way.
        """
        star = decreasing_rearrangement(f)
        width = 2.0**-star.level
        grid = None
        if star.level <= PHI_GRID_LEVEL:
            grid = self._phi_grids.get((phi, star.level))
            if grid is None:
                grid = self._phi_grids[phi, star.level] = [None] * (2**star.level + 1)
        end = 0
        for length, v in star.abs_float_runs():
            end += length
            value = None if grid is None else grid[end]
            if value is None:
                value = phi(end * width)
                if grid is not None:
                    grid[end] = value
            yield v, value

    def norm(self, f: StepFunction) -> float:
        raise NotImplementedError

    def fundamental(self, t) -> float:
        raise NotImplementedError

    def dual(self) -> "SpaceSpec":
        """Koethe dual within the implemented families."""
        raise UnsupportedDual(f"no dual formula for {self.label}")

    def contains_loghalf(self) -> bool:
        """Membership of log^(1/2)(e/t) in the space, by a closed form."""
        raise NotImplementedError

    def sym_kernel(self, cells: list[tuple[float, float, float]]) -> dict:
        """Norm of f*(t) log^(1/2)(e/t), f* given by its nonzero `cells`
        (see _star_cells), with its truncation trend."""
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    @property
    def label(self) -> str:
        ps = self.params()
        inner = ",".join(f"{k}={v}" for k, v in sorted(ps.items()))
        return f"{self.family}({inner})" if inner else self.family


@dataclass(frozen=True)
class Lp(SpaceSpec):
    p: Fraction

    family = "lp"

    def __post_init__(self):
        p = Fraction(self.p)
        if p < 1:
            raise InvalidSpec(f"p must be >= 1, got {p}")
        object.__setattr__(self, "p", p)

    def params(self) -> dict:
        return {"p": str(self.p)}

    def norm(self, f: StepFunction) -> float:
        p = self.p
        if p.denominator == 1:
            # the p-th moment correctly rounded, then one root: past the guard
            # from a fixed-point sum where it decides the float, else from the
            # exact moment by one division; a quotient below the normal range
            # is first scaled by an exact 2**(p*k) taken from the bit lengths,
            # and the root back by 2**-k
            q = int(p)
            r = f._rounded_moment(q)
            if r is not None:
                return r ** (1.0 / q)
            num, den = f._moment_pair(q)
            r = num / den
            if r >= sys.float_info.min or not num:
                return r ** (1.0 / q)
            k = -((num.bit_length() - den.bit_length()) // q)
            return math.ldexp(((num << q * k) / den) ** (1.0 / q), -k)
        pf = float(p)
        width = 1.0 / 2**f.level

        def moment(values) -> float:
            return math.fsum(length * v**pf for length, v in values) * width

        total = moment(f.abs_float_runs())
        if total >= sys.float_info.min:
            return total ** (1.0 / pf)
        # below the normal range: rerun on f scaled by an exact 2**-e, and
        # scale the root back
        e = f.log2_max()
        if e is None:
            return 0.0
        return math.ldexp(moment(f.abs_float_runs(e)) ** (1.0 / pf), e)

    def fundamental(self, t) -> float:
        return float(t) ** (1.0 / float(self.p))

    def dual(self) -> SpaceSpec:
        return Linfty() if self.p == 1 else Lp(self.p / (self.p - 1))

    def contains_loghalf(self) -> bool:
        return True

    def sym_kernel(self, cells) -> dict:
        p = float(self.p)
        total = math.fsum(
            v**p * (logpow_cumulative(p / 2.0, b) - logpow_cumulative(p / 2.0, a))
            for a, b, v in cells
        )
        return {"value": total ** (1.0 / p), "diverging": False, "trend": []}


@dataclass(frozen=True)
class Linfty(SpaceSpec):
    family = "linfty"

    def norm(self, f: StepFunction) -> float:
        return float(f.sup_abs())

    def fundamental(self, t) -> float:
        return 1.0 if float(t) > 0 else 0.0

    def dual(self) -> SpaceSpec:
        return Lp(Fraction(1))

    def contains_loghalf(self) -> bool:
        return False

    def sym_kernel(self, cells) -> dict:
        return {"value": math.inf, "diverging": True, "trend": []}


@dataclass(frozen=True)
class Lorentz(SpaceSpec):
    phi: PhiFn

    family = "lorentz"

    def params(self) -> dict:
        return {"phi": self.phi.label}

    def norm(self, f: StepFunction) -> float:
        # the zero tail adds only zero terms, so it is left out
        terms = []
        prev = 0.0
        for v, cur in self._star_phi(self.phi, f):
            terms.append(v * (cur - prev))
            prev = cur
        return math.fsum(terms)

    def fundamental(self, t) -> float:
        return self.phi(float(t))

    def dual(self) -> SpaceSpec:
        return Marcinkiewicz(self.phi.tilde())

    def contains_loghalf(self) -> bool:
        # with phi = t^a L^b, L = log(e/t): for a > 0 the integral of L^(1/2)
        # d phi converges; for a = 0 it is -b times that of L^(b-1/2) dL
        # over [1, oo), finite iff b < -1/2
        a, b = self.phi.exponents
        return a > 0 or b < -0.5

    def sym_kernel(self, cells) -> dict:
        # each partial sum adds the cells' terms in cell order; a cell that
        # starts at or above the widest cutoff is cut by none, so its term is
        # computed once
        widest = 2.0**-TRUNCATIONS[0]
        uncut = [_stieltjes_term(self.phi, a, b, v) if widest <= a < b else None for a, b, v in cells]
        partials = []
        for j in TRUNCATIONS:
            total = 0.0
            for (a, b, v), term in zip(cells, uncut):
                if term is None:
                    lo = max(a, 2.0**-j)
                    if lo >= b:
                        continue
                    term = _stieltjes_term(self.phi, lo, b, v)
                total += term
            partials.append(total)
        diverging = divergence_trend(partials)
        return {
            "value": math.inf if diverging else partials[-1],
            "diverging": diverging,
            "trend": partials,
        }


@dataclass(frozen=True)
class Marcinkiewicz(SpaceSpec):
    phi: PhiFn

    family = "marcinkiewicz"

    def params(self) -> dict:
        return {"phi": self.phi.label}

    def norm(self, f: StepFunction) -> float:
        """max of phi(t)/t * F(t), F(t) = integral of f* over [0, t], over the
        points a golden section visits on each cell of f*, and the support edge.

        This is an estimate from below, not a certified sup: the golden
        section assumes one peak per cell.  Cells that cannot raise it are
        skipped.  `floor` is the max over every cell's two endpoint values,
        which the golden section evaluates too.  On a cell [a, b] with a > 0,
        phi nondecreasing and f* >= 0 bound every value by phi(b)*F(b)/a, and
        float rounding is monotone, so a cell whose bound times PRUNE_MARGIN
        (for phi's own last-bit wobble) lies below `floor` only has values
        below it.  The result is the float the unpruned loop returns.
        """
        cells = _star_cells(f)
        if not cells:
            return 0.0

        # F(t) = cum + v*(t-a) on a cell; objective phi(t)/t * F(t)
        parts = []
        cum = 0.0
        for a, b, v in cells:
            def g(t, cum=cum, a=a, v=v):
                return self.phi(t) * (cum + v * (t - a)) / t

            top = self.phi(b) * (cum + v * (b - a))  # g(b) == top / b
            parts.append((g, a, a if a > 0 else min(b, 1e-300), b, top))
            cum += v * (b - a)
        floor = max(max(g(lo), top / b) for g, _, lo, b, top in parts)
        best = max(0.0, floor)
        for g, a, lo, b, top in parts:
            if a > 0 and top / a * PRUNE_MARGIN < floor:
                continue
            best = max(best, _golden_max(g, lo, b))
        # past the support, F is constant: phi(t)/t decreasing, check support edge
        edge = cells[-1][1]
        if edge < 1.0:
            best = max(best, self.phi(edge) / edge * cum)
        return best

    def fundamental(self, t) -> float:
        return self.phi(float(t))

    def dual(self) -> SpaceSpec:
        return Lorentz(self.phi.tilde())

    def contains_loghalf(self) -> bool:
        # phi(t)/t times the integral of L^(1/2) over [0, t] is of the order
        # t^a L^(b+1/2) as t -> 0, bounded iff a > 0 or b <= -1/2
        a, b = self.phi.exponents
        return a > 0 or b <= -0.5

    def sym_kernel(self, cells) -> dict:
        # H(t) = sum of v*(L(min(t, b)) - L(a)) over the cells with a < t,
        # from prefix sums added in the direct sum's left-to-right order
        L = functools.partial(logpow_cumulative, 0.5)
        starts = [a for a, _, _ in cells]
        prefix = [0.0]
        for a, b, v in cells:
            prefix.append(prefix[-1] + v * (L(b) - L(a)))

        def H(t: float) -> float:
            k = bisect.bisect_left(starts, t)
            if k == 0:
                return 0.0
            a, b, v = cells[k - 1]
            return prefix[k] if t >= b else prefix[k - 1] + v * (L(t) - L(a))

        def objective(t: float) -> float:
            return self.phi(t) / t * H(t)

        # each candidate is evaluated once; a truncation's candidates are a
        # prefix of the dyadic grid, then the cell ends
        grid = [objective(2.0**-j) for j in range(TRUNCATIONS[-1] + 1)]
        edges = [objective(b) for _, b, _ in cells]
        sups = [max(grid[: jmax + 1] + edges) for jmax in TRUNCATIONS]
        diverging = divergence_trend(sups)
        return {
            "value": math.inf if diverging else sups[-1],
            "diverging": diverging,
            "trend": sups,
        }


@dataclass(frozen=True)
class OrliczSpace(SpaceSpec):
    M: OrliczFn

    family = "orlicz"

    def params(self) -> dict:
        return {"M": self.M.label}

    def norm(self, f: StepFunction) -> float:
        """Luxemburg norm: bisection on lam for the modular sum m*M(|f|/lam) <= 1.

        Each step first decides from `est`, the modular with M applied by
        numpy (`M.array`), and takes the exact per-term math.fsum only when
        est is within ORLICZ_MARGIN of 1, or is so large that an exact term
        might overflow and raise (numpy gives inf instead).  The
        division by lam and the product by m round the same in numpy and
        Python, and fsum adds no error, so est differs from the exact sum only
        by the per-term last-bit differences between numpy's and libm's
        expm1/pow (numpy may use SVML on AVX-512): about 1e-15 relative,
        some 10**6 times below the margin.  Every decision, and so the
        returned float, is the one the exact modular gives.

        The norm is positively homogeneous, so the bisection runs on f scaled
        by an exact 2**-e, taken from StepFunction.log2_max and from M^-1(1),
        that puts its first upper end max|f| / M^-1(1) in (1/2, 4); the result
        is scaled back.  Scaling by a power of two commutes with
        every rounding in the normal range, so where the unscaled loop stays
        in that range the result is its float, and a norm far below 1e-300
        or near the float maximum is found as well.
        """
        e = f.log2_max()
        if e is None:
            return 0.0
        c = self.M.inverse(1.0)
        e -= math.frexp(c)[1]
        vals = [(length / 2**f.level, v) for length, v in f.abs_float_runs(e)]
        top = max(v for _, v in vals)
        ms, vs = np.array(vals).T

        def modular(lam: float) -> float:
            return math.fsum(m * self.M(v / lam) for m, v in vals)

        def feasible(lam: float) -> bool:
            with np.errstate(over="ignore"):
                terms = ms * self.M.array(vs / lam)
            try:
                est = math.fsum(terms.tolist())
            except OverflowError:  # partial sums past the float range
                est = math.inf
            if ORLICZ_MARGIN * max(est, 1.0) < abs(est - 1.0) < 1e300:
                return est <= 1.0
            return modular(lam) <= 1.0

        hi = top / c
        lo = hi
        while feasible(lo):
            lo /= 2.0
            if lo < 1e-300:
                return 0.0
        # bisection on the monotone feasibility boundary
        while (hi - lo) / hi > ORLICZ_TOL:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        try:
            return math.ldexp(hi, e)
        except OverflowError:
            raise OverflowError(f"{self.label} norm exceeds the float range") from None

    def fundamental(self, t) -> float:
        t = float(t)
        if t <= 0:
            return 0.0
        return 1.0 / self.M.inverse(1.0 / t)

    def _proxy(self) -> SpaceSpec:
        """The family that shares this space's dual and kernel formulas: L_p
        for u^p, Exp L^p for exp(u^p) - 1, at p to a 10**6 denominator."""
        p = Fraction(self.M.p).limit_denominator(10**6)
        if isinstance(self.M, PowerOrlicz):
            return Lp(p)
        if isinstance(self.M, ExpPowerOrlicz):
            return ExpLp(p)
        raise InvalidSpec(f"unknown Orlicz form {self.M!r}")

    def dual(self) -> SpaceSpec:
        if isinstance(self.M, PowerOrlicz):
            return self._proxy().dual()
        return super().dual()

    def contains_loghalf(self) -> bool:
        # the exponential form compares the float p, not _proxy's rounded one
        if isinstance(self.M, ExpPowerOrlicz):
            return self.M.p <= 2.0
        return self._proxy().contains_loghalf()

    def sym_kernel(self, cells) -> dict:
        return self._proxy().sym_kernel(cells)


@dataclass(frozen=True)
class ExpLp(SpaceSpec):
    """Zygmund space Exp L^p, evaluated through its Marcinkiewicz sup form.

    The sup form sup x*(t) log^(-1/p)(e/t) is a quasi-norm, equivalent to
    the Luxemburg norm of OrliczSpace(ExpPowerOrlicz(p)):
    ||f + g|| <= (1 + ln 2)^(1/p) (||f|| + ||g||).  p >= 1, as phi_p =
    log^(-1/p) is quasi-concave only then (see LogPowerPhi).
    """

    p: Fraction

    family = "explp"

    def __post_init__(self):
        p = Fraction(self.p)
        if p < 1:
            raise InvalidSpec(f"p must be >= 1, got {p}")
        object.__setattr__(self, "p", p)

    def params(self) -> dict:
        return {"p": str(self.p)}

    def phi_p(self) -> LogPowerPhi:
        return LogPowerPhi(beta=1.0 / float(self.p))

    def norm(self, f: StepFunction) -> float:
        best = 0.0
        for v, phi_b in self._star_phi(self.phi_p(), f):
            # x* nonincreasing, phi increasing: cell sup at the right endpoint
            best = max(best, v * phi_b)
        return best

    def fundamental(self, t) -> float:
        return self.phi_p()(float(t))

    def dual(self) -> SpaceSpec:
        # Exp L^p coincides with M(phi_p); dual through that identification
        return Lorentz(self.phi_p().tilde())

    def contains_loghalf(self) -> bool:
        return float(self.p) <= 2.0

    def sym_kernel(self, cells) -> dict:
        e0 = 0.5 - 1.0 / float(self.p)
        if e0 > 0 and cells[0][0] == 0.0:
            return {"value": math.inf, "diverging": True, "trend": []}
        best = 0.0
        for a, b, v in cells:
            t = b if e0 <= 0 else max(a, 1e-300)
            best = max(best, v * math.log(math.e / t) ** e0)
        return {"value": best, "diverging": False, "trend": []}


def _golden_max(g, a: float, b: float) -> float:
    """Golden-section maximum of g on [a, b] to relative x-tolerance GOLDEN_TOL."""
    if b <= a:
        return g(b)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = g(x1), g(x2)
    best = max(g(a), g(b), f1, f2)
    lo, hi = a, b
    while (hi - lo) > GOLDEN_TOL * max(hi, 1e-30):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = g(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = g(x1)
        best = max(best, f1, f2)
    return best


def norm(X: SpaceSpec, f: StepFunction) -> float:
    if not isinstance(X, SpaceSpec):
        raise InvalidSpec(f"not a space spec: {X!r}")
    return X.norm(f)


def dilation_indices(psi: PhiFn) -> tuple[float, float]:
    """Finite-grid estimates of the lower/upper dilation indices of psi.

    Log-log slope fit of sup_s psi(st)/psi(s) for t = 2**-j -> 0 (gamma)
    and t = 2**j -> infinity (delta), j = 40..80; clamped into [0, 1] with
    gamma <= delta.  The window sits deep enough that slowly varying
    factors (powers of log) contribute a slope below the reported 0.02
    tolerance.
    """
    j_lo, j_hi = 40, 80
    s_grid = [2.0**-j for j in range(0, 2 * j_hi + 1)]

    def sup_ratio_small(t: float) -> float:
        return max(psi(s * t) / psi(s) for s in s_grid if 0.0 < s * t <= 1.0)

    def sup_ratio_large(t: float) -> float:
        return max(psi(s * t) / psi(s) for s in s_grid if s <= 1.0 / t)

    js = list(range(j_lo, j_hi + 1))
    xs = [-j for j in js]
    y_gamma = [math.log2(sup_ratio_small(2.0**-j)) for j in js]
    y_delta = [math.log2(sup_ratio_large(2.0**j)) for j in js]
    gamma = float(np.polyfit(xs, y_gamma, 1)[0])
    delta = float(np.polyfit([j for j in js], y_delta, 1)[0])
    gamma = min(max(gamma, 0.0), 1.0)
    delta = min(max(delta, 0.0), 1.0)
    if gamma > delta:
        gamma, delta = delta, gamma
    return gamma, delta


def delta2_check(phi: PhiFn) -> dict:
    """Trend test of phi(t) <= C phi(t^2) on the grid t = 2^-j, j <= 40."""

    def sup_upto(jmax: int) -> float:
        best = 0.0
        for j in range(1, jmax + 1):
            t = 2.0**-j
            denom = phi(t * t)
            best = max(best, math.inf if denom == 0 else phi(t) / denom)
        return best

    s1, s2, s3 = sup_upto(10), sup_upto(20), sup_upto(40)
    if not all(math.isfinite(s) for s in (s1, s2, s3)):
        return {"holds": False, "C": math.inf, "sups": [s1, s2, s3]}
    g12 = s2 / s1 if s1 > 0 else math.inf
    g23 = s3 / s2 if s2 > 0 else math.inf
    holds = g23 <= max(g12, 1.0 + 1e-9) and g23 <= 1.1
    return {"holds": bool(holds), "C": s3, "sups": [s1, s2, s3]}


def contains_loghalf(X: SpaceSpec) -> bool:
    """Family-specific membership of log^(1/2)(e/t) in X."""
    return X.contains_loghalf()


def sym_kernel_report(X: SpaceSpec, f: StepFunction) -> dict:
    """Norm of f*(t) log^(1/2)(e/t) in X with a truncation-trend certificate."""
    cells = _star_cells(f)
    if not cells:
        return {"value": 0.0, "diverging": False, "trend": []}
    return X.sym_kernel(cells)


_SQRT_ALIASES = {"sqrt": 0.5}


def _fields(parts: list[str], n: int) -> list[str]:
    """A descriptor's `parts`, refused if they hold more than n fields."""
    if len(parts) > n:
        raise ValueError(f"unexpected field {':'.join(parts[n:])!r}")
    return parts


def _parse_phi(parts: list[str]) -> PhiFn:
    if not parts:
        raise InvalidSpec("missing phi descriptor")
    head = parts[0]
    if head in _SQRT_ALIASES:
        _fields(parts, 1)
        return PowerPhi(_SQRT_ALIASES[head])
    if head == "pow":
        return PowerPhi(float(_fields(parts, 2)[1]))
    if head == "logpow":
        return LogPowerPhi(beta=float(_fields(parts, 2)[1]))
    raise InvalidSpec(f"unknown phi descriptor {':'.join(parts)!r}")


def parse_space(text: str) -> SpaceSpec:
    """Parse CLI descriptors: lp:2, linfty, lorentz:sqrt, lorentz:pow:0.5,
    marcinkiewicz:logpow:0.5, explp:2, orlicz:pow:2, orlicz:exp:2."""
    parts = text.strip().lower().split(":")
    family = parts[0]
    try:
        if family == "lp":
            return Lp(Fraction(_fields(parts, 2)[1]))
        if family == "linfty":
            _fields(parts, 1)
            return Linfty()
        if family == "lorentz":
            return Lorentz(_parse_phi(parts[1:]))
        if family == "marcinkiewicz":
            return Marcinkiewicz(_parse_phi(parts[1:]))
        if family == "explp":
            return ExpLp(Fraction(_fields(parts, 2)[1]))
        if family == "orlicz":
            if _fields(parts, 3)[1] == "pow":
                return OrliczSpace(PowerOrlicz(float(parts[2])))
            if parts[1] == "exp":
                return OrliczSpace(ExpPowerOrlicz(float(parts[2])))
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"malformed space descriptor {text!r}: {type(exc).__name__}: {exc}") from exc
    raise InvalidSpec(f"unknown space family {family!r}")

