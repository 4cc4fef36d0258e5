"""Closed-form quasi-concave descriptors and Orlicz functions."""

import math

import pytest

from rlab.phi import ExpPowerOrlicz, LogPowerPhi, PowerOrlicz, PowerPhi


class TestPhiForms:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_power_quasiconcave(self, alpha):
        assert PowerPhi(alpha).check_quasiconcave()

    def test_power_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PowerPhi(1.5)
        with pytest.raises(ValueError):
            PowerPhi(0.0)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_logpow_quasiconcave(self, beta):
        assert LogPowerPhi(beta).check_quasiconcave()

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
        assert m.check_convex()
        assert m.inverse(4.0) == pytest.approx(2.0)
        assert m(m.inverse(7.3)) == pytest.approx(7.3)

    def test_power_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            PowerOrlicz(0.5)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_exp_power_convex_and_inverse(self, p):
        m = ExpPowerOrlicz(p)
        assert m.check_convex()
        assert m(0.0) == 0.0
        for v in (0.5, 1.0, 10.0):
            assert m(m.inverse(v)) == pytest.approx(v)

    def test_exp_power_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            ExpPowerOrlicz(0.0)
