"""Rademacher coefficients, projections, Khintchine window, equivalence
constants, multiplicator brackets, and projection-norm estimates."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab import projections
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
    khintchine_windows,
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


def abs_sum(a) -> F:
    """sum over the 2**n sign patterns s of |sum a_k s_k|, one pattern at a time."""
    patterns = itertools.product((1, -1), repeat=len(a))
    return F(sum(abs(sum(ak * sk for ak, sk in zip(a, s))) for s in patterns))


def window(a) -> tuple[bool, bool]:
    """(l2 / sqrt(2) <= ||sum a_k r_k||_1, ||sum a_k r_k||_1 <= l2) on squares."""
    l1 = abs_sum(a) / 2 ** len(a)
    l2_sq = sum((F(v) ** 2 for v in a), F(0))
    return l2_sq <= 2 * l1 * l1, l1 * l1 <= l2_sq


def integer_rows(seed: int, count: int, n: int, bound: int) -> list[list[int]]:
    rnd = random.Random(seed)
    return [[rnd.randint(-bound, bound) for _ in range(n)] for _ in range(count)]


class TestHalfEnumerationL1:
    """The L1 of a Rademacher sum from two half enumerations against
    `abs_sum`, which walks every sign pattern."""

    @pytest.mark.parametrize("n", range(13))
    def test_batch_matches_every_pattern(self, n):
        rows = integer_rows(n, 5, n, 40) + [[0] * n, [7] * n]
        if n:
            rows += [[0] * (n - 1) + [-3], [1] + [0] * (n - 1)]
        totals = projections._abs_cell_sums(np.array(rows, dtype=np.int64))
        assert totals.tolist() == [abs_sum(row) for row in rows]
        lower_ok, upper_ok = khintchine_windows(np.array(rows, dtype=np.int64))
        assert list(zip(lower_ok.tolist(), upper_ok.tolist())) == [window(row) for row in rows]

    def test_batch_at_n_16(self):
        rows = integer_rows(16, 3, 16, 512)
        totals = projections._abs_cell_sums(np.array(rows, dtype=np.int64))
        assert totals.tolist() == [abs_sum(row) for row in rows]

    def test_object_rows_past_int64(self):
        # coefficients near 2**70 put every cell past int64
        rnd = random.Random(70)
        rows = [[rnd.randint(-2**70, 2**70) for _ in range(9)] for _ in range(4)]
        rows.append([2**70 - 1] + [1] * 8)
        totals = projections._abs_cell_sums(np.array(rows, dtype=object))
        assert totals.tolist() == [abs_sum(row) for row in rows]
        lower_ok, upper_ok = khintchine_windows(np.array(rows, dtype=object))
        assert list(zip(lower_ok.tolist(), upper_ok.tolist())) == [window(row) for row in rows]

    @pytest.mark.parametrize("a", [
        [F(1, 2), F(-3, 4), F(5), F(1, 3)],
        [F(1, 7), F(2, 9), F(-5, 8), F(3), F(-1, 1024), F(0), F(11, 6)],
        [F(1, 3**20), F(-1, 2**40), F(5, 11), F(7)] * 3,
        [F(2**70 + 1, 3), F(-(2**69)), F(1, 5), F(3, 64), F(-2**70)],
    ])
    def test_one_row_with_any_denominators(self, a):
        assert rademacher_sum_l1_exact(a) == abs_sum(a) / 2 ** len(a)
        res = khintchine_check(a)
        assert (res["lower_ok"], res["upper_ok"]) == window(a)
        assert res["l2_squared"] == sum(v * v for v in a)

    def test_window_can_fail(self, monkeypatch):
        # (1, 1) is on the lower edge and (1, 0) on the upper one, so one
        # unit less or more in their cell sums leaves the window
        rows = np.array([[1, 1], [1, 0]], dtype=np.int64)
        exact = projections._abs_cell_sums(rows)
        assert exact.tolist() == [4, 4]
        for shift, expected in ((0, [[True, True], [True, True]]),
                                (-1, [[False, True], [True, True]]),
                                (1, [[True, True], [True, False]])):
            monkeypatch.setattr(projections, "_abs_cell_sums", lambda rows, d=shift: exact + d)
            lower_ok, upper_ok = khintchine_windows(rows)
            assert [lower_ok.tolist(), upper_ok.tolist()] == expected


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
