"""Rademacher coefficients, projections, Khintchine checks, and
multiplicator / projection norm estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dyadic import (
    LEVEL_CAP,
    StepFunction,
    _numerators,
    _rademacher_cells,
    chi_prefix,
    rademacher,
    rademacher_sum,
    signs_orthogonal,
)
from .errors import LevelCapExceeded, TooManyCoefficients, UnsupportedDual
from .spaces import ExpLp, Linfty, Lp, SpaceSpec, contains_loghalf, norm, sym_kernel_report
from .weighted import Weight, weighted_norm

KHINTCHINE_MAX_N = 20
KHINTCHINE_LOWER_SQ = Fraction(1, 2)  # (1/sqrt(2))^2


@dataclass(frozen=True)
class NormBracket:
    """[lower, upper] interval for a norm estimate; `method` says how each
    end was found.

    `lower` is an optimiser lower bound: the best ratio that the witnesses
    and the seeded ascent reached.  `upper` is certified only for the
    `exact` and `exact-chain` methods; a `sym-upper` upper end is the
    symmetric-kernel norm, a measured equivalence, not a certified bound.
    An upper end below `lower` is raised to it and its method is marked
    `(inflated-to-lower)`.
    """

    lower: float
    upper: float
    method: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"bracket inverted: {self.lower} > {self.upper}")


def coefficients(f: StepFunction, n: int) -> tuple[Fraction, ...]:
    """Exact Rademacher coefficients c_k = integral f r_k, k = 1..n."""
    if n > LEVEL_CAP:
        raise LevelCapExceeded(f"n = {n} exceeds cap {LEVEL_CAP}")
    if n < 1:
        return ()
    return tuple(f.rademacher_coefficients(n))


def project(f: StepFunction, n: int) -> StepFunction:
    """Truncated Rademacher projection P_n f = sum_{k<=n} c_k(f) r_k, exact."""
    cs = coefficients(f, n)
    m = len(cs)
    while m and cs[m - 1] == 0:
        m -= 1
    return rademacher_sum(cs[:m])


def rademacher_sum_l1_exact(a: Sequence) -> Fraction:
    """Exact ||sum a_k r_k||_1 by enumeration over the 2**n sign cells."""
    n = len(a)
    if n > KHINTCHINE_MAX_N:
        raise TooManyCoefficients(f"n = {n} exceeds {KHINTCHINE_MAX_N}")
    nums, den = _numerators(a)
    cells = _rademacher_cells(nums, headroom=n)
    return Fraction(int(np.abs(cells).sum()), den << n)


def khintchine_check(a: Sequence) -> dict:
    """Exact L1 Khintchine window: l2/sqrt(2) <= ||sum a_k r_k||_1 <= l2."""
    coeffs = [Fraction(v) for v in a]
    l1 = rademacher_sum_l1_exact(coeffs)
    l2_sq = sum((v * v for v in coeffs), Fraction(0))
    lower_ok = KHINTCHINE_LOWER_SQ * l2_sq <= l1 * l1
    upper_ok = l1 * l1 <= l2_sq
    return {"l1": l1, "l2_squared": l2_sq, "lower_ok": bool(lower_ok), "upper_ok": bool(upper_ok)}


# Trial vectors only produce lower bounds / empirical brackets, so their
# entries may be rounded to a fixed dyadic grid; dyadic denominators stay
# bounded under addition, keeping exact step-function arithmetic fast.
_SNAP_BITS = 30


def _snap_num(v: float) -> int:
    """The numerator of v snapped to the grid of 2**-_SNAP_BITS."""
    return round(float(v) * (1 << _SNAP_BITS))


def _snap(v: float) -> Fraction:
    return Fraction(_snap_num(v), 1 << _SNAP_BITS)


def _unit_vectors(n: int, trials: int, seed) -> list[tuple[Fraction, ...]]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        v = rng.standard_normal(n)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            v = np.ones(n)
            nrm = math.sqrt(n)
        out.append(tuple(_snap(x) for x in v / nrm))
    return out


def _structured_unit_vectors(n: int) -> list[tuple[Fraction, ...]]:
    vecs = []
    for k in range(n):
        e = [Fraction(0)] * n
        e[k] = Fraction(1)
        vecs.append(tuple(e))
    u = _snap(1.0 / math.sqrt(n))
    vecs.append(tuple([u] * n))
    if n >= 2 and n & (n - 1) == 0:
        from .dyadic import _sylvester

        h = _sylvester(n)
        for c in range(n):
            vecs.append(tuple(_snap(s / math.sqrt(n)) for s in h[:, c]))
    return vecs


def equivalence_constants(X: SpaceSpec, w: Weight, n: int, trials: int, seed) -> dict:
    """Empirical bracket for ||sum a_k r_k||_X(w) over unit vectors a."""
    vals = []
    for a in _unit_vectors(n, trials, seed) + _structured_unit_vectors(n):
        vals.append(weighted_norm(X, w, rademacher_sum(a)))
    return {"cLow": min(vals), "cHigh": max(vals)}


def _ratio_objective(X: SpaceSpec, f: StepFunction, a: Sequence[float]) -> float:
    s = rademacher_sum([_snap_num(v) for v in a], 1 << _SNAP_BITS)
    denom = norm(X, s)
    if denom == 0.0:
        return 0.0
    return norm(X, f * s) / denom


def _indicator_profile(f: StepFunction, n: int):
    """If f = c * chi_A with A a union of rank-n cells, return (c, J); else None."""
    if f.level > n:
        return None
    nonzero = {value for _, value in f.runs if value != 0}
    if len(nonzero) != 1:
        return None
    c = nonzero.pop()
    if c < 0:
        c = -c
    js = []
    cell = 1
    rep = 2 ** (n - f.level)
    for length, value in f.runs:
        if value != 0:
            js.extend(range(cell, cell + length * rep))
        cell += length * rep
    return c, js


def multiplicator_norm(
    X: SpaceSpec, f: StepFunction, n: int, budget: int = 200, seed=0
) -> NormBracket:
    """Bracket for the multiplicator norm restricted to the first n Rademachers.

    Lower bound: structured witnesses plus seeded coordinate-ascent on the
    norm ratio.  Upper bound: exact head/tail chain for L1 indicators, or
    the symmetric-kernel surrogate (measured equivalence, not certified).
    """
    # constant functions multiply every Rademacher sum verbatim
    consts = {abs(value) for _, value in f.runs}
    if len(consts) == 1:
        c = float(consts.pop())
        return NormBracket(c, c, "exact")

    evals = 0
    best = 0.0
    best_vec: np.ndarray | None = None
    for a in _structured_unit_vectors(n):
        val = _ratio_objective(X, f, [float(v) for v in a])
        evals += 1
        if val > best:
            best = val
            best_vec = np.array([float(v) for v in a])

    rng = np.random.default_rng(seed)
    budget_flag = False
    starts = [best_vec] if best_vec is not None else []
    while evals < budget:
        starts.append(rng.standard_normal(n))
        a = starts.pop(0)
        a = a / (np.linalg.norm(a) or 1.0)
        cur = _ratio_objective(X, f, a)
        evals += 1
        step = 0.5
        while step > 1e-3 and evals < budget:
            improved = False
            for i in range(n):
                for sgn in (1.0, -1.0):
                    if evals >= budget:
                        budget_flag = True
                        break
                    trial = a.copy()
                    trial[i] += sgn * step
                    val = _ratio_objective(X, f, trial)
                    evals += 1
                    if val > cur:
                        cur, a, improved = val, trial, True
                        break
                if budget_flag:
                    break
            if not improved:
                step /= 2.0
        best = max(best, cur)
        if budget_flag:
            break

    lower = best
    lower_method = "witness+ascent"

    upper = math.inf
    upper_method = "none"
    profile = _indicator_profile(f, n)
    if isinstance(X, Lp) and X.p == 1 and profile is not None and n <= 16:
        c, js = profile
        m_a = len(js) * 2.0**-n
        head = n * 2.0**-n if len(js) == n and signs_orthogonal(n, js) else math.sqrt(m_a)
        upper = float(c) * math.sqrt(2.0) * (head + m_a)
        upper_method = "exact-chain+tail-bound"
    elif contains_loghalf(X):
        rep = sym_kernel_report(X, f)
        if not rep["diverging"]:
            upper = rep["value"]
            upper_method = "sym-upper"

    if upper < lower:
        upper = lower
        upper_method += "(inflated-to-lower)"
    method = f"lower={lower_method};upper={upper_method}"
    if budget_flag:
        method += ";budget-exhausted"
    return NormBracket(lower, upper, method)


def _projection_test_functions(n: int, trials: int, seed) -> list[StepFunction]:
    rng = np.random.default_rng(seed)
    level = min(n + 2, 10)
    fns = [rademacher(1), chi_prefix(Fraction(1, 2))]
    for _ in range(trials):
        vals = rng.standard_normal(2**level)
        fns.append(StepFunction.from_runs(level, ((1, _snap(v)) for v in vals)))
    return fns


def projection_norm(X: SpaceSpec, w: Weight, n: int, trials: int = 50, seed=0) -> float:
    """Sampled lower bound on ||P_n||_{X(w) -> X(w)}: the best ratio over
    r_1, chi_[0,1/2] and `trials` seeded random functions, not a certified bound.

    No other fixed test function can raise the bound: P_n r_k = r_k for
    k <= n gives a ratio of exactly 1, as r_1 does (|r_k w| = w for every k),
    and r_k for k > n and the constant 1 project to 0.
    """
    best = 0.0
    for f in _projection_test_functions(n, trials, seed):
        denom = weighted_norm(X, w, f)
        if denom == 0.0:
            continue
        best = max(best, weighted_norm(X, w, project(f, n)) / denom)
    return best


def theorem_predicates(X: SpaceSpec, w: Weight, n: int = 8, budget: int = 80, seed=0) -> dict:
    """Numeric proxies for the span / embedding criteria at finite truncation.

    The G-embedding proxy is membership of log^(1/2)(e/t); symmetric-kernel
    membership is a truncation-trend certificate; none of these is a proof.
    """
    g_subset = contains_loghalf(X)
    report: dict = {
        "g_subset_proxy": {
            "value": bool(g_subset),
            "method": "closed-form/trend membership of log^(1/2)(e/t)",
        },
    }
    if not g_subset:
        report["branch"] = "equivalence fails"
        return report
    report["branch"] = "equivalence"

    sym = sym_kernel_report(X, w.fn)
    report["w_in_sym_proxy"] = {
        "value": not sym["diverging"],
        "sym_norm": sym["value"],
        "method": "trend",
    }

    bracket = multiplicator_norm(X, w.fn, n, budget, seed)
    report["w_in_mult"] = {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "method": bracket.method,
    }
    try:
        dual = X.dual()
        dual_bracket = multiplicator_norm(dual, w.fn.reciprocal(), n, budget, seed)
        report["inv_w_in_mult_dual"] = {
            "lower": dual_bracket.lower,
            "upper": dual_bracket.upper,
            "method": dual_bracket.method,
        }
    except UnsupportedDual as exc:  # no dual formula: recorded as a note
        report["inv_w_in_mult_dual"] = {"error": type(exc).__name__}

    if isinstance(X, ExpLp):
        p = float(X.p)
        if p < 2.0:
            q = 2.0 * p / (2.0 - p)
            qspace: SpaceSpec = ExpLp(Fraction(q).limit_denominator(10**6))
        else:
            q = math.inf
            qspace = Linfty()
        report["explp_weight_membership"] = {
            "q": q,
            "norm_w": norm(qspace, w.fn),
            "method": "direct evaluation at the weight's sampling level",
        }
    return report
