"""Norms, fundamental functions, duals, indices, and membership predicates."""

import math
import sys
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlab.dyadic import StepFunction, chi_prefix, make_step
from rlab.errors import InvalidSpec, UnsupportedDual
from rlab.phi import ExpPowerOrlicz, LogPowerPhi, PhiFn, PowerOrlicz, PowerPhi, TildePhi
from rlab.rearrangement import decreasing_rearrangement
from rlab.spaces import (
    PHI_GRID_LEVEL,
    TRUNCATIONS,
    ExpLp,
    Linfty,
    Lorentz,
    Lp,
    Marcinkiewicz,
    OrliczSpace,
    contains_loghalf,
    delta2_check,
    dilation_indices,
    divergence_trend,
    logpow_cumulative,
    norm,
    parse_space,
    sym_kernel_report,
    _star_cells,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
step_functions = st.integers(min_value=0, max_value=5).flatmap(
    lambda lvl: st.lists(rationals, min_size=2**lvl, max_size=2**lvl).map(
        lambda vs: make_step(lvl, vs)
    )
)

ALL_SPACES = [
    Lp(F(1)),
    Lp(F(3, 2)),
    Lp(F(2)),
    Linfty(),
    Lorentz(PowerPhi(0.5)),
    Marcinkiewicz(PowerPhi(0.5)),
    OrliczSpace(PowerOrlicz(2.0)),
    ExpLp(F(2)),
]

# a pair on which ExpLp(2)'s sup form breaks the triangle inequality:
# ||f+g|| = 3.6 against ||f|| + ||g|| = 0.7685 + 2.7667
EXPLP_PAIR = (make_step(1, [0, 1]), make_step(1, [F(18, 5), F(8, 3)]))


class TestNormExamples:
    def test_l1_spike(self):
        assert norm(Lp(F(1)), make_step(2, [2, 0, 0, 0])) == pytest.approx(0.5)

    def test_lorentz_sqrt_indicator(self):
        assert norm(Lorentz(PowerPhi(0.5)), chi_prefix(F(1, 4))) == pytest.approx(0.5)

    def test_marcinkiewicz_sqrt_indicator(self):
        assert norm(Marcinkiewicz(PowerPhi(0.5)), chi_prefix(F(1, 4))) == pytest.approx(
            0.5, rel=1e-9
        )

    def test_orlicz_square_indicator(self):
        X = OrliczSpace(PowerOrlicz(2.0))
        analytic = 1.0 / PowerOrlicz(2.0).inverse(4.0)
        assert norm(X, chi_prefix(F(1, 4))) == pytest.approx(analytic, rel=1e-9)

    def test_linfty(self):
        assert norm(Linfty(), make_step(1, [-3, 2])) == 3.0

    def test_explp_constant(self):
        assert norm(ExpLp(F(2)), StepFunction.constant(1)) == pytest.approx(1.0)

    def test_zero_function_everywhere(self):
        for X in ALL_SPACES:
            assert norm(X, StepFunction.zero()) == 0.0

    def test_l2_exact_moments(self):
        f = make_step(2, [3, 1, 2, 3])
        assert norm(Lp(F(2)), f) == pytest.approx(math.sqrt(23 / 4), rel=1e-12)


class TestFundamental:
    def test_l2_quarter(self):
        assert Lp(F(2)).fundamental(F(1, 4)) == pytest.approx(0.5)

    def test_lorentz_is_phi(self):
        phi = PowerPhi(0.5)
        assert Lorentz(phi).fundamental(F(1, 8)) == pytest.approx(phi(0.125))
        assert Marcinkiewicz(phi).fundamental(F(1, 8)) == pytest.approx(phi(0.125))

    def test_explp_is_log_power(self):
        t = 0.125
        expect = math.log(math.e / t) ** -0.5
        assert ExpLp(F(2)).fundamental(F(1, 8)) == pytest.approx(expect)

    @pytest.mark.parametrize(
        "X",
        [Lp(F(1)), Lp(F(3, 2)), Lp(F(2)), Lorentz(PowerPhi(0.5)), Marcinkiewicz(PowerPhi(0.5))],
    )
    def test_crosscheck_against_indicator_norm(self, X):
        for j in range(1, 10):
            closed, direct = X.fundamental(F(1, 2**j)), X.norm(chi_prefix(F(1, 2**j)))
            assert direct == pytest.approx(closed, rel=1e-9)


class TestDuality:
    def test_lorentz_dual_is_marcinkiewicz_tilde(self):
        dual = Lorentz(PowerPhi(0.5)).dual()
        assert isinstance(dual, Marcinkiewicz)
        # tilde of sqrt is sqrt again
        for t in (0.1, 0.5, 0.9):
            assert dual.phi(t) == pytest.approx(math.sqrt(t))

    def test_marcinkiewicz_dual_is_lorentz(self):
        assert isinstance(Marcinkiewicz(PowerPhi(0.5)).dual(), Lorentz)

    def test_lp_self_and_extremes(self):
        assert Lp(F(2)).dual() == Lp(F(2))
        assert isinstance(Lp(F(1)).dual(), Linfty)
        assert Linfty().dual() == Lp(F(1))
        assert Lp(F(3)).dual() == Lp(F(3, 2))

    def test_explp_dual_via_marcinkiewicz_form(self):
        assert isinstance(ExpLp(F(2)).dual(), Lorentz)

    def test_unsupported(self):
        with pytest.raises(UnsupportedDual):
            OrliczSpace(ExpPowerOrlicz(2.0)).dual()


class TestIndices:
    def test_power_half(self):
        gamma, delta = dilation_indices(PowerPhi(0.5))
        assert gamma == pytest.approx(0.5, abs=0.02)
        assert delta == pytest.approx(0.5, abs=0.02)

    def test_log_power(self):
        gamma, delta = dilation_indices(LogPowerPhi(0.5))
        assert gamma == pytest.approx(0.0, abs=0.02)
        assert delta == pytest.approx(0.0, abs=0.02)

    def test_identity(self):
        gamma, delta = dilation_indices(PowerPhi(1.0))
        assert gamma == pytest.approx(1.0, abs=0.02)
        assert delta == pytest.approx(1.0, abs=0.02)


class _ConstOne(PhiFn):
    def __call__(self, t: float) -> float:
        return 1.0 if t > 0 else 0.0


class TestDelta2:
    def test_log_power_holds_with_sqrt2_constant(self):
        res = delta2_check(LogPowerPhi(0.5))
        assert res["holds"]
        assert res["C"] <= math.sqrt(2) + 0.01

    def test_sqrt_fails(self):
        assert not delta2_check(PowerPhi(0.5))["holds"]

    def test_constant_like_holds(self):
        res = delta2_check(_ConstOne())
        assert res["holds"]
        assert res["C"] == pytest.approx(1.0)


class TestContainsLogHalf:
    def test_closed_forms(self):
        assert contains_loghalf(Lp(F(2)))
        assert not contains_loghalf(Linfty())
        assert contains_loghalf(ExpLp(F(2)))
        assert not contains_loghalf(ExpLp(F(3)))

    def test_trend_families(self):
        assert contains_loghalf(Lorentz(PowerPhi(0.5)))
        assert contains_loghalf(Marcinkiewicz(PowerPhi(0.5)))
        assert contains_loghalf(Marcinkiewicz(LogPowerPhi(0.5)))
        # phi(t)/t * int_0^t log^(1/2) grows like log^(1/2 - beta); beta < 1/2 diverges
        assert not contains_loghalf(Marcinkiewicz(LogPowerPhi(0.25)))


def lorentz_logpow_integral(beta: float, top=mpmath.inf):
    """Integral of L^(1/2) d phi(t) for phi = L^-beta, L = log(e/t), over
    t in [e^(1 - e^top), 1]: with t = e^(1 - u) and u = e^x it is the integral
    of beta u^(-beta - 1/2) du over [1, e^top], of beta e^((1/2 - beta) x) dx
    over [0, top]."""
    return mpmath.quad(lambda x: beta * mpmath.exp((0.5 - beta) * x), [0, top])


def marcinkiewicz_logpow_ratio(beta: float, u) -> float:
    """phi(t)/t times the integral of L^(1/2) over (0, t] at t = e^(1 - u),
    phi = L^-beta: with s = e^(1 - u - w) it is
    u^-beta times the integral of (u + w)^(1/2) e^-w over [0, oo)."""
    return u**-beta * mpmath.quad(lambda w: mpmath.sqrt(u + w) * mpmath.exp(-w), [0, mpmath.inf])


class TestLogHalfExactIntegrals:
    """Membership of log^(1/2)(e/t) against integrals that mpmath evaluates
    without rlab, on both sides of each family's edge."""

    @pytest.mark.parametrize("beta,value", [(0.75, 3), (1.0, 2)])
    def test_lorentz_logpow_integral_is_beta_over_beta_minus_half(self, beta, value):
        assert float(lorentz_logpow_integral(beta)) == pytest.approx(value, rel=1e-12)
        assert contains_loghalf(parse_space(f"lorentz:logpow:{beta}"))

    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_lorentz_logpow_diverges_to_beta_half(self, beta):
        # the integrand beta e^((1/2 - beta) x) is at least beta, so the
        # integral up to x = top is at least beta * top
        assert lorentz_logpow_integral(beta, 1000) >= beta * 1000
        assert not contains_loghalf(parse_space(f"lorentz:logpow:{beta}"))

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.09, 1.0])
    def test_lorentz_pow_converges(self, alpha):
        # with t = e^(1 - u): alpha times the integral of u^(1/2) e^(alpha (1 - u)) du
        total = alpha * mpmath.quad(lambda u: mpmath.sqrt(u) * mpmath.exp(alpha * (1 - u)), [1, mpmath.inf])
        assert mpmath.isfinite(total) and total > 0
        assert contains_loghalf(parse_space(f"lorentz:pow:{alpha}"))

    def test_marcinkiewicz_logpow_half_is_bounded(self):
        # at beta = 1/2 the ratio is decreasing in u, from its value at u = 1 (t = 1)
        ratios = [marcinkiewicz_logpow_ratio(0.5, mpmath.mpf(10) ** k) for k in range(0, 41, 5)]
        assert all(1 <= r <= ratios[0] < 1.4 for r in ratios)
        assert contains_loghalf(parse_space("marcinkiewicz:logpow:0.5"))

    @pytest.mark.parametrize("beta", [0.42, 0.45, 0.49])
    def test_marcinkiewicz_logpow_below_half_is_unbounded(self, beta):
        # the ratio is at least u^(1/2 - beta), past the beta = 1/2 bound at u = 10^40
        assert marcinkiewicz_logpow_ratio(beta, mpmath.mpf(10) ** 40) > 2
        assert not contains_loghalf(parse_space(f"marcinkiewicz:logpow:{beta}"))

    def test_dual_of_marcinkiewicz_pow_1_is_linfty(self):
        # tilde(t) = 1, so the dual is Lambda(1) = L_infty, which log^(1/2) leaves
        dual = parse_space("marcinkiewicz:pow:1").dual()
        assert dual.phi.exponents == (0.0, 0.0)
        assert not contains_loghalf(dual)


class TestSymKernel:
    def test_l1_full_indicator_matches_quadrature(self):
        oracle = float(mpmath.quad(lambda t: mpmath.sqrt(mpmath.log(mpmath.e / t)), [0, 1]))
        got = sym_kernel_report(Lp(F(1)), StepFunction.constant(1))["value"]
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_zero(self):
        assert sym_kernel_report(Lp(F(1)), StepFunction.zero())["value"] == 0.0

    def test_monotone_in_support(self):
        vals = [
            sym_kernel_report(Lp(F(1)), chi_prefix(F(1, 2**j)))["value"] for j in range(5, 0, -1)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_linfty_diverges(self):
        rep = sym_kernel_report(Linfty(), StepFunction.constant(1))
        assert rep["diverging"] and rep["value"] == math.inf


def stieltjes_five_pass(cells, phi: PhiFn) -> list[float]:
    """The Lorentz truncation trend summed anew over every cell for each
    cutoff: sum of v * integral over [max(a, cutoff), b] of
    log^(1/2)(e/t) d phi(t), by the geometric-grid Stieltjes sum."""

    def partial(cutoff: float) -> float:
        total = 0.0
        for a, b, v in cells:
            lo = max(a, cutoff)
            if lo >= b:
                continue
            ts = np.geomspace(lo, b, num=max(8, int(24 * math.log2(b / lo) + 8)))
            phis = [phi(float(t)) for t in ts]
            mids = [math.sqrt(t0 * t1) for t0, t1 in zip(ts, ts[1:])]
            total += v * math.fsum(
                math.sqrt(math.log(math.e / m)) * (p1 - p0) for m, p0, p1 in zip(mids, phis, phis[1:])
            )
        return total

    return [partial(2.0**-j) for j in TRUNCATIONS]


GRID_PHIS = [PowerPhi(0.5), PowerPhi(1.0), LogPowerPhi(0.5), TildePhi(LogPowerPhi(0.5)), TildePhi(PowerPhi(0.5))]
STIELTJES_CELLS = {
    # f* cells on either side of 2**-16, the widest cutoff, one of them
    # across it, at level 20
    "straddling": _star_cells(StepFunction.from_runs(20, [(1, 5), (3, 4), (60, 3), (2**20 - 64, 1)])),
    # cells that end below some cutoffs, so those partial sums skip them
    "deep": _star_cells(StepFunction.from_runs(20, [(1, 9), (1, 8), (2, 7), (4, 6), (8, 5), (2**20 - 16, 1)])),
    # only the first cell, at 0, starts below 2**-16
    "shallow": _star_cells(make_step(3, [3, -1, 2, 0, F(1, 2), F(5, 4), -3, 1])),
    # no cell starts below 2**-16; the first starts on it
    "uncut": [(2.0**-16, 2.0**-10, 2.0), (2.0**-10, 0.5, 1.5), (0.5, 1.0, 0.25)],
}


@pytest.mark.parametrize("phi", GRID_PHIS, ids=lambda phi: phi.label)
@pytest.mark.parametrize("name", sorted(STIELTJES_CELLS))
def test_lorentz_trend_is_the_five_pass_sum(name, phi):
    cells = STIELTJES_CELLS[name]
    assert Lorentz(phi).sym_kernel(cells)["trend"] == stieltjes_five_pass(cells, phi)


def lorentz_direct(phi: PhiFn, f: StepFunction) -> float:
    """Sum of v (phi(b) - phi(a)) over f*'s cells, phi called at each end."""
    terms, prev = [], 0.0
    for _, b, v in _star_cells(f):
        cur = phi(b)
        terms.append(v * (cur - prev))
        prev = cur
    return math.fsum(terms)


def explp_direct(phi: PhiFn, f: StepFunction) -> float:
    return max((v * phi(b) for _, b, v in _star_cells(f)), default=0.0)


WIDE_PRIMES = [549755813911, 549755813927, 549755813933, 549755813951,
               549755813963, 549755814037, 549755814043, 549755814071]


def grid_functions(level: int) -> list[StepFunction]:
    """Seeded functions at `level` >= 3 with runs of random lengths: one
    over dyadic denominators, one past the guard, whose first eight runs
    take each of WIDE_PRIMES in turn."""
    rng = np.random.default_rng(level)
    out = []
    for dens in ([1, 2, 4, 8], WIDE_PRIMES):
        runs, left = [], 2**level
        while left:
            length = min(left, int(rng.integers(1, max(2, 2**level // 50))))
            den = dens[len(runs)] if len(runs) < len(dens) else int(rng.choice(dens))
            runs.append((length, F(int(rng.integers(1, 41)) * int(rng.choice([-1, 1])), den)))
            left -= length
        out.append(StepFunction.from_runs(level, runs))
    return out


@pytest.mark.parametrize("level", [3, 8, PHI_GRID_LEVEL, PHI_GRID_LEVEL + 1, 15])
def test_phi_grid_gives_the_direct_loop(level):
    fns = grid_functions(level)
    assert fns[0]._int_form is not None and fns[1]._int_form is None
    spaces = [(Lorentz(phi), phi, lorentz_direct) for phi in GRID_PHIS]
    spaces += [(ExpLp(F(p)), LogPowerPhi(1.0 / p), explp_direct) for p in (1, 2, 3)]
    for X, phi, direct in spaces:
        for f in fns + fns:  # the second pass reads the grid the first one filled
            assert X.norm(f) == direct(phi, f)
        # a grid is kept only at the levels where it is small
        assert bool(X._phi_grids) is (fns[0].level <= PHI_GRID_LEVEL)


# Per family: the dual's label (None where no formula exists), log^(1/2)
# membership, and the sym-kernel report of FAMILY_F (value and trend as
# float.hex, diverging), pinned so that any change to a family's formulas
# shows, down to the last bit.
FAMILY_F = make_step(3, [3, -1, 2, 0, F(1, 2), F(5, 4), -3, 1])
FAMILY_PINS = [
    ("lp:1", "linfty", True, "0x1.28ddfa0057061p+1", False, []),
    ("lp:3/2", "lp(p=3)", True, "0x1.5d87cc43b2314p+1", False, []),
    ("linfty", "lp(p=1)", False, "inf", True, []),
    (
        "lorentz:sqrt", "marcinkiewicz(phi=tilde(pow:0.5))", True, "0x1.e64f28cc8dd4ep+1", False,
        [
            "0x1.e0b0f89dea70fp+1", "0x1.e647a12a0133ap+1", "0x1.e64f27deb06a6p+1",
            "0x1.e64f2881a4977p+1", "0x1.e64f28cc8dd4ep+1",
        ],
    ),
    (
        "marcinkiewicz:logpow:0.5", "lorentz(phi=tilde(logpow:0.5))", True,
        "0x1.c543bf48c332cp+1", False,
        [
            "0x1.c543bf48c332cp+1", "0x1.c543bf48c332cp+1", "0x1.c543bf48c332cp+1",
            "0x1.c543bf48c332cp+1", "0x1.c543bf48c332cp+1",
        ],
    ),
    ("explp:1", "lorentz(phi=tilde(logpow:1.0))", True, "0x1.f129d9517cd23p+0", False, []),
    ("explp:3", "lorentz(phi=tilde(logpow:0.3333333333333333))", False, "inf", True, []),
    ("orlicz:pow:2", "lp(p=2)", True, "0x1.89de3c207cd4ep+1", False, []),
    ("orlicz:exp:2", None, True, "0x1.8000000000000p+1", False, []),
]


@pytest.mark.parametrize(
    "desc,dual,loghalf,value,diverging,trend", FAMILY_PINS, ids=[row[0] for row in FAMILY_PINS]
)
def test_family_formulas_pinned(desc, dual, loghalf, value, diverging, trend):
    X = parse_space(desc)
    if dual is None:
        with pytest.raises(UnsupportedDual):
            X.dual()
    else:
        assert X.dual().label == dual
    assert contains_loghalf(X) is loghalf
    rep = sym_kernel_report(X, FAMILY_F)
    assert rep["value"].hex() == value
    assert rep["diverging"] is diverging
    assert [t.hex() for t in rep["trend"]] == trend


@pytest.mark.parametrize("p", [1, 2, 4])
def test_lp_norm_scales_by_powers_of_two(p):
    """norm(2^k f) = 2^k norm(f) down to k = -1000, past where the exact
    p-th moment's quotient leaves the float range.  p = 1 takes no root and
    holds bit for bit; libm's pow is not homogeneous in its last bit (it
    differs for about one y in 1500 between y**0.5 and (y * 2**-180)**0.5
    * 2**90), so p = 2, 4 hold to one ulp."""
    X = Lp(F(p))
    for f in (FAMILY_F, make_step(2, [F(1, 3), F(-7, 5), 0, F(22, 7)])):
        base = norm(X, f)
        for k in range(0, -1001, -1):
            want = math.ldexp(base, k)
            if want < sys.float_info.min:
                break
            got = norm(X, f.scale(F(2) ** k))
            assert abs(got - want) <= (p > 1) * math.ulp(want), (k, got, want)


@pytest.mark.parametrize("M", [PowerOrlicz(1.5), PowerOrlicz(2.0), ExpPowerOrlicz(1.5),
                               ExpPowerOrlicz(1.0), ExpPowerOrlicz(2.0)], ids=lambda M: M.label)
def test_orlicz_norm_scales_by_powers_of_two(M):
    """norm(2^k f) = 2^k norm(f) bit for bit, for k in [-1000, 1000] with a
    normal result: the bisection runs on f scaled by a power of two chosen
    from max|f|, so it sees the same floats for every k."""
    X = OrliczSpace(M)
    for f in (FAMILY_F, make_step(2, [F(1, 3), F(-7, 5), 0, F(22, 7)])):
        base = norm(X, f)
        for k in [*range(-1000, 1001, 40), -1, 1]:
            if not -1021 <= math.frexp(base)[1] + k <= 1024:
                continue  # 2^k norm(f) is not a normal float
            got = norm(X, f.scale(F(2) ** k))
            assert got == math.ldexp(base, k), (k, got, base)


class TestLogPowCumulative:
    # q + 1 half-integer (0.5, 1.5), integer (1, 2: one and two recurrence
    # steps) and neither (0.75, through mpmath)
    @pytest.mark.parametrize("q", [0.5, 0.75, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("t", [1.0, 0.25, 1e-4])
    def test_against_quadrature(self, q, t):
        oracle = mpmath.quad(lambda s: mpmath.log(mpmath.e / s) ** q, [0, t])
        assert logpow_cumulative(q, t) == pytest.approx(float(oracle), rel=1e-8)

    def test_degenerate(self):
        assert logpow_cumulative(0.5, 0.0) == 0.0


class TestDivergenceTrend:
    def test_flat_sequence_not_diverging(self):
        assert not divergence_trend([1.0, 1.0001, 1.0001, 1.0001, 1.0001])

    def test_growing_sequence_diverging(self):
        assert divergence_trend([1.0, 2.0, 4.0, 8.0, 16.0])


class TestParsing:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("lp:2", Lp),
            ("linfty", Linfty),
            ("lorentz:sqrt", Lorentz),
            ("lorentz:pow:0.5", Lorentz),
            ("marcinkiewicz:logpow:0.5", Marcinkiewicz),
            ("explp:2", ExpLp),
            ("orlicz:pow:2", OrliczSpace),
            ("orlicz:exp:2", OrliczSpace),
        ],
    )
    def test_descriptors(self, text, cls):
        assert isinstance(parse_space(text), cls)

    @pytest.mark.parametrize("text", ["bogus:1", "lp", "lorentz:cubic", "lp:junk"])
    def test_malformed(self, text):
        with pytest.raises(InvalidSpec):
            parse_space(text)


class TestNormProperties:
    @settings(deadline=None, max_examples=40)
    @given(step_functions)
    def test_symmetry(self, f):
        star = decreasing_rearrangement(f)
        for X in ALL_SPACES:
            assert norm(X, f) == pytest.approx(norm(X, star), rel=1e-9, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(step_functions)
    def test_lattice_monotonicity(self, f):
        g = abs(f) + StepFunction.constant(F(1, 2))
        for X in ALL_SPACES:
            assert norm(X, f) <= norm(X, g) + 1e-12

    @settings(deadline=None, max_examples=40)
    @given(step_functions)
    def test_marcinkiewicz_below_lorentz(self, f):
        phi = PowerPhi(0.5)
        assert norm(Marcinkiewicz(phi), f) <= norm(Lorentz(phi), f) * (1 + 1e-9)

    @settings(deadline=None, max_examples=40)
    @given(step_functions, step_functions)
    @example(*EXPLP_PAIR)
    def test_triangle_inequality(self, f, g):
        # ExpLp's sup form is a quasi-norm: (f+g)*(t) <= f*(t/2) + g*(t/2) and
        # sup phi_p(t)/phi_p(t/2) = (1 + ln 2)^(1/p), at t = 1
        for X in ALL_SPACES:
            c = (1 + math.log(2)) ** (1 / float(X.p)) if isinstance(X, ExpLp) else 1.0
            assert norm(X, f + g) <= c * (norm(X, f) + norm(X, g)) + 1e-9

    def test_explp_sup_form_is_only_a_quasi_norm(self):
        X = ExpLp(F(2))
        f, g = EXPLP_PAIR
        assert norm(X, f + g) == pytest.approx(3.6)
        assert norm(X, f + g) > norm(X, f) + norm(X, g)

    @settings(deadline=None, max_examples=30)
    @given(step_functions)
    def test_orlicz_square_matches_l2(self, f):
        assert norm(OrliczSpace(PowerOrlicz(2.0)), f) == pytest.approx(
            norm(Lp(F(2)), f), rel=1e-9, abs=1e-12
        )


class TestExpLpConventions:
    def test_sup_and_luxemburg_are_equivalent_on_indicators(self):
        X = ExpLp(F(2))
        ratios = []
        for j in range(1, 8):
            chi = chi_prefix(F(1, 2**j))
            sup_form = X.norm(chi)
            lux = OrliczSpace(ExpPowerOrlicz(2.0)).norm(chi)
            assert lux > 0 and sup_form > 0
            ratios.append(sup_form / lux)
        # mutual equivalence: bounded ratio band, measured not assumed
        assert max(ratios) / min(ratios) < 4.0
