"""Rademacher coefficients, projections, Khintchine window, equivalence
constants, multiplicator brackets, and projection-norm estimates."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab.dyadic import (
    StepFunction,
    chi_prefix,
    hadamard_select,
    indicator,
    make_step,
    rademacher,
    rademacher_sum,
    single_negative_select,
)
from rlab.errors import TooManyCoefficients, UnsupportedDual
from rlab.phi import LogPowerPhi
from rlab.projections import (
    NormBracket,
    coefficients,
    equivalence_constants,
    khintchine_check,
    multiplicator_norm,
    project,
    projection_norm,
    rademacher_sum_l1_exact,
    theorem_predicates,
)
from rlab.spaces import ExpLp, Lp, Marcinkiewicz
from rlab.weighted import Weight

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
step_functions = st.integers(min_value=0, max_value=5).flatmap(
    lambda lvl: st.lists(rationals, min_size=2**lvl, max_size=2**lvl).map(
        lambda vs: make_step(lvl, vs)
    )
)


class TestCoefficients:
    def test_rademacher_is_orthonormal(self):
        assert coefficients(rademacher(1), 2) == (F(1), F(0))

    def test_corner_indicator(self):
        assert coefficients(make_step(2, [1, 0, 0, 0]), 2) == (F(1, 4), F(1, 4))

    def test_constant_has_zero_coefficients(self):
        assert coefficients(StepFunction.constant(1), 3) == (F(0), F(0), F(0))

    def test_above_function_level_vanish(self):
        f = make_step(2, [3, 1, 2, 3])
        cs = coefficients(f, 6)
        assert cs[2:] == (F(0),) * 4

    @settings(deadline=None, max_examples=40)
    @given(step_functions, st.integers(min_value=1, max_value=7))
    def test_matches_direct_integration(self, f, n):
        direct = tuple((f * rademacher(k)).integral() for k in range(1, n + 1))
        assert coefficients(f, n) == direct


class TestProject:
    def test_fixed_point(self):
        assert project(rademacher(1), 2) == rademacher(1)

    def test_corner_indicator(self):
        expect = (rademacher(1) + rademacher(2)).scale(F(1, 4))
        assert project(make_step(2, [1, 0, 0, 0]), 2) == expect

    @settings(deadline=None, max_examples=40)
    @given(step_functions, st.integers(min_value=1, max_value=6))
    def test_idempotent(self, f, n):
        pf = project(f, n)
        assert project(pf, n) == pf

    @settings(deadline=None, max_examples=40)
    @given(step_functions, step_functions, st.integers(min_value=1, max_value=6))
    def test_self_adjoint(self, f, g, n):
        assert (project(f, n) * g).integral() == (f * project(g, n)).integral()


class TestKhintchine:
    def test_pair_attains_lower(self):
        res = khintchine_check([1, 1])
        assert res["l1"] == 1
        assert res["l2_squared"] == 2
        # l1 equals exactly l2 / sqrt(2): compare squares
        assert res["l1"] ** 2 * 2 == res["l2_squared"]
        assert res["lower_ok"] and res["upper_ok"]

    def test_single_attains_upper(self):
        res = khintchine_check([1])
        assert res["l1"] == 1 and res["l1"] ** 2 == res["l2_squared"]

    def test_triple(self):
        res = khintchine_check([1, 1, 1])
        assert res["l1"] == F(3, 2)
        assert res["lower_ok"] and res["upper_ok"]

    def test_exact_l1_matches_norm(self):
        a = [F(1, 2), F(-3, 4), F(5)]
        assert rademacher_sum_l1_exact(a) == rademacher_sum(a).abs_moment(1)

    def test_too_many(self):
        with pytest.raises(TooManyCoefficients):
            rademacher_sum_l1_exact([1] * 21)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(rationals, min_size=1, max_size=10))
    def test_window_random(self, a):
        res = khintchine_check(a)
        assert res["lower_ok"] and res["upper_ok"]

    def test_python_fallback_for_huge_numerators(self):
        a = [F(2**40), F(1, 2**20)] * 3
        res = khintchine_check(a)
        assert res["lower_ok"] and res["upper_ok"]


class TestBracket:
    def test_inverted_bracket_rejected(self):
        with pytest.raises(ValueError):
            NormBracket(2.0, 1.0, "exact")


class TestEquivalenceConstants:
    def test_l2_unit_weight_is_isometric(self):
        res = equivalence_constants(Lp(F(2)), Weight.constant(1), 6, 20, seed=0)
        assert res["cLow"] == pytest.approx(1.0, rel=1e-7)
        assert res["cHigh"] == pytest.approx(1.0, rel=1e-7)

    def test_l1_bracket_within_khintchine_window(self):
        res = equivalence_constants(Lp(F(1)), Weight.constant(1), 10, 50, seed=1)
        assert res["cLow"] >= 1 / math.sqrt(2) - 1e-9
        assert res["cHigh"] <= 1 + 1e-9

    def test_explp_bounded_across_n(self):
        highs = []
        for n in (4, 8, 16):
            res = equivalence_constants(ExpLp(F(2)), Weight.constant(1), n, 10, seed=2)
            highs.append(res["cHigh"])
        assert max(highs) < 3.0


class TestMultiplicatorNorm:
    def test_constant_function_exact(self):
        br = multiplicator_norm(Lp(F(1)), StepFunction.constant(1), 4)
        assert br.lower == br.upper == 1.0
        assert br.method == "exact"

    def test_hadamard_block_upper(self):
        f = indicator(4, hadamard_select(4))
        br = multiplicator_norm(Lp(F(1)), f, 4, budget=60, seed=0)
        assert br.upper <= 2 * math.sqrt(2) * 4 * 2.0**-4 + 1e-12
        assert br.lower <= br.upper

    def test_single_negative_block_lower(self):
        f = indicator(4, single_negative_select(4))
        br = multiplicator_norm(Lp(F(1)), f, 4, budget=60, seed=0)
        assert br.lower >= 0.25 - 1e-12

    @pytest.mark.parametrize("n", [4, 8])
    def test_budget_monotone_lower(self, n):
        f = indicator(n, single_negative_select(n))
        lo_small = multiplicator_norm(Lp(F(1)), f, n, budget=30, seed=3).lower
        lo_big = multiplicator_norm(Lp(F(1)), f, n, budget=120, seed=3).lower
        assert lo_big >= lo_small - 1e-15

    def test_bracket_consistent_on_random_inputs(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(5):
            f = make_step(3, [F(int(v)) for v in rng.integers(0, 5, 8)])
            br = multiplicator_norm(Lp(F(1)), f, 3, budget=40, seed=5)
            assert br.lower <= br.upper


class TestProjectionNorm:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_l2_orthogonal(self, n):
        val = projection_norm(Lp(F(2)), Weight.constant(1), n, trials=10, seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_l1_between_one_and_khintchine_product(self):
        val = projection_norm(Lp(F(1)), Weight.constant(1), 8, trials=10, seed=0)
        assert 1.0 - 1e-12 <= val <= 2.0

    def test_profile_shape(self):
        # a profile is one projection_norm per n, in the order asked; r_1
        # alone gives every n a ratio of 1
        prof = [
            (n, projection_norm(Lp(F(1)), Weight.constant(1), n, trials=5, seed=0))
            for n in (4, 2)
        ]
        assert [n for n, _ in prof] == [4, 2]
        assert all(1.0 - 1e-12 <= val <= 2.0 for _, val in prof)


class TestTheoremPredicates:
    def test_l2_all_pass(self):
        rep = theorem_predicates(Lp(F(2)), Weight.constant(1), n=4, budget=30, seed=0)
        assert rep["branch"] == "equivalence"
        assert rep["g_subset_proxy"]["value"]
        assert rep["w_in_sym_proxy"]["value"]
        assert rep["w_in_mult"]["lower"] <= rep["w_in_mult"]["upper"]

    def test_loghalf_free_space_takes_failure_branch(self):
        X = Marcinkiewicz(LogPowerPhi(0.25))
        rep = theorem_predicates(X, Weight.constant(1), n=4, budget=30, seed=0)
        assert rep["branch"] == "equivalence fails"
        assert not rep["g_subset_proxy"]["value"]

    def test_explp_membership_exponent(self):
        rep = theorem_predicates(ExpLp(F(1)), Weight.constant(1), n=4, budget=30, seed=0)
        assert rep["explp_weight_membership"]["q"] == pytest.approx(2.0)

    def test_explp_p2_maps_to_bounded_membership(self):
        rep = theorem_predicates(ExpLp(F(2)), Weight.constant(1), n=4, budget=30, seed=0)
        assert rep["explp_weight_membership"]["q"] == math.inf

    def test_only_a_missing_dual_becomes_a_note(self, monkeypatch):
        def no_dual(X):
            raise UnsupportedDual(X.label)

        monkeypatch.setattr(Lp, "dual", no_dual)
        rep = theorem_predicates(Lp(F(2)), Weight.constant(1), n=4, budget=30, seed=0)
        assert rep["inv_w_in_mult_dual"] == {"error": "UnsupportedDual"}

        def faulty_dual(X):
            raise ZeroDivisionError("numeric fault")

        monkeypatch.setattr(Lp, "dual", faulty_dual)
        with pytest.raises(ZeroDivisionError):
            theorem_predicates(Lp(F(2)), Weight.constant(1), n=4, budget=30, seed=0)
