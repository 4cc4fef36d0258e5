"""Closed-form quasi-concave descriptors and Orlicz functions."""

import math

import pytest

from rlab.phi import ExpPowerOrlicz, LogPowerPhi, PowerOrlicz, PowerPhi


def quasiconcave_on_grid(phi, tol=1e-12) -> bool:
    """phi nondecreasing and phi(t)/t nonincreasing on t = 2**-40 .. 1,
    and phi(1e-14) >= 0."""
    ts = [2.0**-j for j in range(40, -1, -1)]
    vals = [phi(t) for t in ts]
    ratios = [v / t for v, t in zip(vals, ts)]
    return (all(b >= a - tol for a, b in zip(vals, vals[1:]))
            and all(b <= a + tol for a, b in zip(ratios, ratios[1:]))
            and phi(1e-14) >= -tol)


def convex_on_grid(M, tol=1e-12) -> bool:
    """M(0) = 0, M nondecreasing with nondecreasing differences on u = 0, 0.1, .., 2.9."""
    vals = [M(0.1 * k) for k in range(30)]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    return (abs(vals[0]) <= tol and all(d >= -tol for d in diffs)
            and all(b >= a - tol for a, b in zip(diffs, diffs[1:])))


class TestPhiForms:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_power_quasiconcave(self, alpha):
        assert quasiconcave_on_grid(PowerPhi(alpha))

    def test_power_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PowerPhi(1.5)
        with pytest.raises(ValueError):
            PowerPhi(0.0)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_logpow_quasiconcave(self, beta):
        assert quasiconcave_on_grid(LogPowerPhi(beta))

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.01, 1.5, 2.0, 5.0])
    def test_logpow_rejects_beta_outside_0_1(self, beta):
        # phi(t)/t increases on (e^(1-beta), 1] once beta > 1
        with pytest.raises(ValueError):
            LogPowerPhi(beta)

    def test_logpow_values(self):
        phi = LogPowerPhi(0.5)
        assert phi(1.0) == pytest.approx(1.0)
        assert phi(math.exp(-3)) == pytest.approx(0.5)
        assert phi(0.0) == 0.0

    def test_tilde_of_sqrt_is_sqrt(self):
        tilde = PowerPhi(0.5).tilde()
        for t in (0.1, 0.25, 0.9):
            assert tilde(t) == pytest.approx(math.sqrt(t))


class TestOrliczForms:
    def test_power_convex_and_inverse(self):
        m = PowerOrlicz(2.0)
        assert convex_on_grid(m)
        assert m.inverse(4.0) == pytest.approx(2.0)
        assert m(m.inverse(7.3)) == pytest.approx(7.3)

    def test_power_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            PowerOrlicz(0.5)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_exp_power_convex_and_inverse(self, p):
        m = ExpPowerOrlicz(p)
        assert convex_on_grid(m)
        assert m(0.0) == 0.0
        for v in (0.5, 1.0, 10.0):
            assert m(m.inverse(v)) == pytest.approx(v)

    def test_exp_power_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            ExpPowerOrlicz(0.0)

    @pytest.mark.parametrize("p", [0.0001, 0.5, 0.9])
    def test_exp_power_rejects_p_below_one(self, p):
        # M'' < 0 near 0, where p u^(p-2) e^(u^p) ((p-1) + p u^p) has (p-1) < 0
        assert not convex_on_grid(lambda u: math.expm1(u**p))
        with pytest.raises(ValueError):
            ExpPowerOrlicz(p)
