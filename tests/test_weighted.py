"""Weighted spaces X(w): norms and the Hoelder pairing."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab.dyadic import StepFunction, chi_prefix, make_step, rademacher_sum
from rlab.errors import DivisionByZero, InvalidSpec, NonPositiveWeight
from rlab.phi import PowerPhi
from rlab.spaces import Lorentz, Lp, Marcinkiewicz, norm, parse_space
from rlab.weighted import (
    Weight,
    holder_check,
    parse_weight,
    weighted_norm,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
step_functions = st.integers(min_value=0, max_value=5).flatmap(
    lambda lvl: st.lists(rationals, min_size=2**lvl, max_size=2**lvl).map(
        lambda vs: make_step(lvl, vs)
    )
)


class TestWeight:
    def test_positivity_enforced(self):
        with pytest.raises(NonPositiveWeight):
            Weight(make_step(1, [1, 0]))
        with pytest.raises(NonPositiveWeight):
            Weight(make_step(1, [1, -1]))

    def test_reciprocal_exact(self):
        w = Weight(make_step(1, [2, F(1, 3)]))
        assert w.fn.reciprocal().values_at(1) == [F(1, 2), F(3)]

    def test_logpow_sampling(self):
        w = Weight.logpow(0.5, level=6)
        # samples of log(e/t)^(1/2) are >= 1 and decreasing in t
        vals = w.fn.values_at(w.fn.level)
        assert all(v >= 1 for v in vals)
        assert vals[0] > vals[-1]

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_logpow_samples_are_their_dyadic_floats(self, beta):
        # each sample is the float that limit_denominator(10**12) rounded
        # before, kept exactly: same float, power-of-two denominator
        for level in range(13):
            n = 2**level
            vals = Weight.logpow(beta, level).fn.values_at(level)
            for j, v in enumerate(vals):
                old = F(math.log(math.e / ((j + 0.5) / n)) ** beta).limit_denominator(10**12)
                assert float(v) == float(old)
                assert v.denominator & (v.denominator - 1) == 0

    def test_dyadic_product_stays_on_the_integer_kernel(self):
        w = Weight.logpow(0.5, level=10)
        f = rademacher_sum([F(3, 4), F(-1, 8), *[F(1, 2**k) for k in range(3, 13)]])
        assert w.fn._int_form is not None and (f * w.fn)._int_form is not None


class TestWeightedNorm:
    def test_l1_example(self):
        w = Weight(make_step(1, [1, 2]))
        assert weighted_norm(Lp(F(1)), w, StepFunction.constant(1)) == pytest.approx(1.5)

    def test_identity_weight(self):
        f = make_step(2, [3, 1, 2, 3])
        assert weighted_norm(Lp(F(1)), Weight.constant(1), f) == norm(Lp(F(1)), f)

    def test_l2_scaling(self):
        w = Weight.constant(2)
        f = make_step(1, [1, 0])
        assert weighted_norm(Lp(F(2)), w, f) == pytest.approx(math.sqrt(2))

    @settings(deadline=None, max_examples=30)
    @given(step_functions, st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8))
    def test_constant_weight_homogeneity(self, f, c):
        X = Lp(F(2))
        assert weighted_norm(X, Weight.constant(c), f) == pytest.approx(
            float(c) * norm(X, f), rel=1e-12, abs=1e-12
        )

    @settings(deadline=None, max_examples=30)
    @given(step_functions, step_functions)
    def test_lattice_norm_triangle(self, f, g):
        w = Weight(make_step(1, [1, 2]))
        X = Lp(F(2))
        lhs = weighted_norm(X, w, f + g)
        assert lhs <= weighted_norm(X, w, f) + weighted_norm(X, w, g) + 1e-12


class TestHolder:
    def test_l2_equality_case(self):
        chi = chi_prefix(F(1, 4))
        assert holder_check(Lp(F(2)), chi, chi) == pytest.approx(1.0)

    def test_l1_constants(self):
        one = StepFunction.constant(1)
        assert holder_check(Lp(F(1)), one, one) == pytest.approx(1.0)

    def test_zero_norm_raises(self):
        with pytest.raises(DivisionByZero):
            holder_check(Lp(F(2)), StepFunction.zero(), StepFunction.constant(1))

    @settings(deadline=None, max_examples=60)
    @given(step_functions, step_functions)
    def test_random_pairs_lorentz(self, f, g):
        if f == StepFunction.zero() or g == StepFunction.zero():
            return
        assert holder_check(Lorentz(PowerPhi(0.5)), f, g) <= 1 + 1e-9

    @settings(deadline=None, max_examples=60)
    @given(step_functions, step_functions)
    def test_random_pairs_marcinkiewicz(self, f, g):
        if f == StepFunction.zero() or g == StepFunction.zero():
            return
        assert holder_check(Marcinkiewicz(PowerPhi(0.5)), f, g) <= 1 + 1e-9


class TestParsing:
    def test_const(self):
        w = parse_weight("const:3/2")
        assert w.fn == StepFunction.constant(F(3, 2))

    def test_logpow_with_level(self):
        w = parse_weight("logpow:0.5:level=8")
        assert w.fn.level <= 8
        assert "level=8" in w.label

    def test_step_file(self, tmp_path):
        f = make_step(1, [1, 2])
        path = tmp_path / "w.json"
        path.write_text(f.to_json())
        assert parse_weight(f"step:{path}").fn == f

    @pytest.mark.parametrize("text", ["bogus:1", "const:zebra", "logpow:0.5:level=99"])
    def test_malformed(self, text):
        with pytest.raises(InvalidSpec):
            parse_weight(text)
