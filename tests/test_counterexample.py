"""Two-tier block construction: explicit small builds and exact-arithmetic
certificates for the closed-form bound chains."""

import math
import random
import time
from fractions import Fraction as F

import mpmath
import pytest

from rlab import counterexample as cex
from rlab.dyadic import StepFunction, indicator
from rlab.errors import (
    BlockTooSmall,
    GrowthConditionViolated,
    LevelCapExceeded,
    NotPowerOfTwo,
)
from rlab.projections import multiplicator_norm
from rlab.rearrangement import equimeasurable
from rlab.spaces import Lp, sym_kernel_report


def support_measure(f):
    """Measure of {f != 0}: the integral of its indicator."""
    return f.map(lambda v: 1 if v else 0).integral()


class TestPlan:
    def test_strict_accepts_full_scale(self):
        pl = cex.plan([1, 16])
        assert pl.n == (2, 65536)
        assert pl.N == (2, 65538)
        assert pl.condition_ok
        # growth condition at k=2: 65536^(1/8) = 4 >= 2^2 = 4
        assert 65536 ** F(1, 8) == 4 == 2**2

    def test_strict_rejects_slow_growth(self):
        with pytest.raises(GrowthConditionViolated):
            cex.plan([1, 2])

    def test_relaxed_accepts_with_flag(self):
        pl = cex.plan([2, 3], strict=False)
        assert not pl.condition_ok
        assert pl.n == (4, 8) and pl.N == (4, 12)

    def test_m_list_must_increase(self):
        with pytest.raises(GrowthConditionViolated):
            cex.plan([3, 3], strict=False)
        with pytest.raises(GrowthConditionViolated):
            cex.plan([], strict=False)

    def test_alpha_values(self):
        pl = cex.plan([2, 3], strict=False)
        assert float(pl.alpha_mpf(1)) == pytest.approx(2.0**4 * 4**-1.25)
        assert float(pl.alpha_mpf(2)) == pytest.approx(2.0**8 * 8**-1.25)


class TestBuildExplicit:
    def test_single_block_measure(self):
        built = cex.build_explicit(cex.plan([2], strict=False), 1)
        assert support_measure(built["f"]) == F(4, 16)

    def test_single_block_equimeasurable(self):
        built = cex.build_explicit(cex.plan([2], strict=False), 1)
        assert equimeasurable(built["f"], built["g"])

    def test_two_blocks_disjoint_and_sized(self):
        pl = cex.plan([2, 3], strict=False)
        built = cex.build_explicit(pl, 2)
        f, g = built["f"], built["g"]
        assert equimeasurable(f, g)
        # block measures: m(B_1) = 4 * 2^-4, m(B_2) = 8 * 2^-12
        chi1 = indicator(pl.N[0], built["B"][0])
        chi2 = indicator(pl.N[1], built["B"][1])
        assert chi1.integral() == F(4, 2**4)
        assert chi2.integral() == F(8, 2**12)
        assert chi1 * chi2 == StepFunction.zero()  # disjoint
        d1 = indicator(pl.N[0], built["D"][0])
        d2 = indicator(pl.N[1], built["D"][1])
        assert d1 * d2 == StepFunction.zero()

    def test_block_heights_match_alpha(self):
        pl = cex.plan([2], strict=False)
        built = cex.build_explicit(pl, 1)
        assert float(built["f"].sup_abs()) == pytest.approx(float(pl.alpha_mpf(1)))

    def test_level_cap_guard(self):
        pl = cex.plan([3, 5], strict=False)  # N_2 = 40 cells level
        with pytest.raises(LevelCapExceeded):
            cex.build_explicit(pl, 2)

    def test_blocks_out_of_range(self):
        with pytest.raises(GrowthConditionViolated):
            cex.build_explicit(cex.plan([2], strict=False), 2)


class TestBounds:
    def test_bound_b_n4(self):
        assert float(cex.bound_B(4)) == pytest.approx(2 * math.sqrt(2) * 4 / 16)

    def test_bound_b_n16(self):
        assert float(cex.bound_B(16)) == pytest.approx(2 * math.sqrt(2) * 16 * 2.0**-16)

    def test_bound_b_rejects_non_power(self):
        with pytest.raises(NotPowerOfTwo):
            cex.bound_B(6)

    def test_bound_d_n4_exact_quarter(self):
        assert float(cex.bound_D(4)) == pytest.approx(0.25)
        # equality case of the half-form: 0.25 = (1/2) * 4^(3/2) / 16
        assert 0.25 == 0.5 * 4**1.5 * 2.0**-4

    def test_bound_d_n16(self):
        assert float(cex.bound_D(16)) == pytest.approx((4 - 0.5) * 16 * 2.0**-16)

    def test_bound_d_rejects_small_blocks(self):
        with pytest.raises(BlockTooSmall):
            cex.bound_D(2)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_cross_module_consistency(self, n):
        """Explicit multiplicator estimates agree with the closed-form bounds."""
        from rlab.dyadic import hadamard_select, single_negative_select

        chi_b = indicator(n, hadamard_select(n))
        br = multiplicator_norm(Lp(F(1)), chi_b, n, budget=40, seed=0)
        assert br.upper <= float(cex.bound_B(n)) + 1e-12
        chi_d = indicator(n, single_negative_select(n))
        br = multiplicator_norm(Lp(F(1)), chi_d, n, budget=40, seed=0)
        assert br.lower >= float(cex.bound_D(n)) - 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_half_form_lower(self, n):
        assert float(cex.bound_D(n)) >= 0.5 * n**1.5 * 2.0**-n - 1e-15


class TestCertify:
    def test_full_scale_pass(self):
        pl = cex.plan([1, 16])
        res = cex.certify(pl, 2)
        assert res["verdict"] == "PASS"
        assert res["blocks"] == 2
        # block-2 divergence term: alpha_2 bound_D >= 65536^(1/8) / 2 = 2
        g2 = [c for c in res["checks"] if c["name"] == "g_term_ge_half_eighth_root[k=2]"]
        assert g2 and g2[0]["holds"] and "skipped" not in g2[0]
        assert F(g2[0]["rhs8"]) == F(65536, 256)  # (n^(1/8)/2)^8 = 256
        assert F(g2[0]["lhs8"]) >= F(g2[0]["rhs8"])
        assert float(g2[0]["rhs"]) == pytest.approx(2.0)

    def test_full_scale_f_series_bounded(self):
        res = cex.certify(cex.plan([1, 16]), 2)
        majorant = 2 * math.sqrt(2) * (2**-0.25 + 65536**-0.25)
        partials = [float(mpmath.mpf(s)) for s in res["f_upper_series"]]
        assert all(a < b for a, b in zip(partials, partials[1:]))
        assert partials[-1] <= majorant + 1e-12

    def test_small_first_block_is_flagged_not_failed(self):
        res = cex.certify(cex.plan([1, 16]), 2)
        g1 = [c for c in res["checks"] if c["name"] == "g_term_ge_half_eighth_root[k=1]"]
        assert g1 and g1[0].get("skipped")

    def test_relaxed_plan_refused(self):
        with pytest.raises(GrowthConditionViolated):
            cex.certify(cex.plan([2], strict=False), 1)

    def test_three_block_plan(self):
        # m_3 >= 8 N_2 = 8 * (2 + 65536 + 2^16) ... use the minimal chain
        start = time.perf_counter()
        pl = cex.plan([1, 16, 8 * (2 + 65536)])
        res = cex.certify(pl, 3)
        elapsed = time.perf_counter() - start
        assert res["verdict"] == "PASS"
        assert all(c["holds"] for c in res["checks"])
        gs = [mpmath.mpf(v) for v in res["g_lower_terms"] if v is not None]
        assert gs[0] < gs[1]
        inc = [c for c in res["checks"] if c["name"] == "g_terms_increasing[2->3]"]
        assert inc and inc[0]["holds"] and inc[0]["method"] == "exact"
        assert elapsed < 2.0, f"elapsed={elapsed:.2f}s"

    @pytest.mark.parametrize("name", ["_alpha_exponent4", "_bound_B_log2"])
    def test_majorant_check_fails_when_a_factor_is_off(self, monkeypatch, name):
        real = getattr(cex, name)
        monkeypatch.setattr(cex, name, lambda *a: real(*a) + 1)
        res = cex.certify(cex.plan([1, 16]), 2)
        assert res["verdict"] == "FAIL"
        f_checks = [c for c in res["checks"] if c["name"].startswith("f_term_le_majorant")]
        assert len(f_checks) == 2 and not any(c["holds"] for c in f_checks)
        assert all(F(c["lhs8"]) > F(c["rhs8"]) for c in f_checks)


def _strict_chains(top):
    """Every strictly increasing m-chain within 0..top with m_k >= 8 N_(k-1)."""
    chains, stack = [], [[m] for m in range(top + 1)]
    while stack:
        ms = stack.pop()
        chains.append(ms)
        prefix = sum(2**m for m in ms)
        stack.extend(ms + [m] for m in range(max(ms[-1] + 1, 8 * prefix), top + 1))
    return chains


def _dyadic(man, exp):
    return F(man) * F(2) ** exp


def _old_repr(fr):
    """The p/q or 80-bit rounded quotient printing of a reduced fraction."""
    if fr.numerator.bit_length() < 4000 and fr.denominator.bit_length() < 4000:
        return str(fr)
    with mpmath.workprec(80):
        return mpmath.nstr(mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator), 20)


class TestExponentForm:
    """The certificate's dyadic eighth powers against the rational formulas
    (n - 4 + 4/n)^4 / n^2 / 2^(8p), n / 2^8 and 2^12 / n^2."""

    def test_chains_enumerated(self):
        chains = _strict_chains(12)
        assert len(chains) == 13 + 5  # [m] for m <= 12, [0, m] for 8 <= m <= 12
        assert [0, 8] in chains and [1, 16] in _strict_chains(16)

    @pytest.mark.parametrize("ms", _strict_chains(12), ids=str)
    def test_eighth_powers_match_rational_formulas(self, ms):
        res = cex.certify(cex.plan(ms), len(ms))
        checks = {c["name"]: c for c in res["checks"]}
        ok = True
        g8 = []
        for k, m in enumerate(ms, start=1):
            n, p = 2**m, sum(2**j for j in ms[: k - 1])
            f_check = checks[f"f_term_le_majorant[k={k}]"]
            f8 = F(2**12, n**2)
            assert (F(f_check["lhs8"]), F(f_check["rhs8"])) == (f8, f8)
            assert f_check["holds"] is True
            g_check = checks[f"g_term_ge_half_eighth_root[k={k}]"]
            if n < 4:
                assert g_check["skipped"]
                continue
            lhs8 = (F(n) - 4 + F(4, n)) ** 4 / n**2 / F(2) ** (8 * p)
            rhs8 = F(n, 2**8)
            assert (F(g_check["lhs8"]), F(g_check["rhs8"])) == (lhs8, rhs8)
            assert (g_check["lhs8"], g_check["rhs8"]) == (str(lhs8), str(rhs8))
            assert g_check["holds"] is (lhs8 >= rhs8)
            assert _dyadic(*cex._gterm_eighth_powers(m, p)[0]) == lhs8
            ok &= lhs8 >= rhs8
            g8.append((k, lhs8))
        for (k0, a), (k1, b) in zip(g8, g8[1:]):
            assert checks[f"g_terms_increasing[{k0}->{k1}]"]["holds"] is (b > a)
            ok &= b > a
        assert res["verdict"] == ("PASS" if ok else "FAIL")

    def test_increasing_check_can_fail(self):
        # a forged plan that skips the growth condition: g_3 < g_2
        pl = cex.CounterexamplePlan((0, 8, 9), True, (1, 256, 512), (1, 257, 769), True)
        res = cex.certify(pl, 3)
        checks = {c["name"]: c for c in res["checks"]}
        assert checks["g_terms_increasing[2->3]"]["holds"] is False
        assert mpmath.mpf(res["g_lower_terms"][2]) < mpmath.mpf(res["g_lower_terms"][1])
        assert res["verdict"] == "FAIL"

    @pytest.mark.parametrize(
        "man, exp",
        [(1, -3998), (1, -3999), (1, -4000), (1, 3998), (1, 3999), (3, 3998), (1, 12 - 2 * 2006)]
        + [((2 ** (m - 1) - 1) ** 8, 8 - 6 * m - 8) for m in (500, 501, 667, 668, 669)]
        + [(1, m - 8) for m in (4006, 4007, 4008)],
    )
    def test_printing_matches_rounded_quotient(self, man, exp):
        assert cex._fraction_repr(man, exp) == _old_repr(_dyadic(man, exp))

    def test_printing_random_odd_mantissas_past_threshold(self):
        rng = random.Random(8)
        for _ in range(200):
            man = rng.getrandbits(rng.randint(3900, 4100)) | 1
            exp = rng.randint(-4200, 200)
            assert cex._fraction_repr(man, exp) == _old_repr(_dyadic(man, exp)), (man, exp)

    def test_dyadic_cmp_matches_fractions(self):
        rng = random.Random(3)
        for _ in range(500):
            a = (rng.getrandbits(rng.randint(1, 90)) | 1, rng.randint(-60, 60))
            b = (rng.getrandbits(rng.randint(1, 90)) | 1, rng.randint(-60, 60))
            if rng.random() < 0.2:  # equal values
                b = a
            x, y = _dyadic(*a), _dyadic(*b)
            assert cex._dyadic_cmp(a, b) == (x > y) - (x < y)


class TestSymIntegralTrend:
    """The integral of f* log^(1/2)(e/t) is the L1 symmetric-kernel norm."""

    def test_explicit_single_block(self):
        built = cex.build_explicit(cex.plan([2], strict=False), 1)
        got = sym_kernel_report(Lp(F(1)), built["f"])
        alpha = 2.0**4 * 4**-1.25
        oracle = mpmath.quad(lambda t: alpha * mpmath.sqrt(mpmath.log(mpmath.e / t)), [0, 0.25])
        assert got == pytest.approx(float(oracle), abs=1e-6)

    def test_zero(self):
        from rlab.dyadic import StepFunction

        assert sym_kernel_report(Lp(F(1)), StepFunction.zero()) == 0.0
