"""Exact step-function plumbing: construction, canonical form, Rademacher
functions, their signs on dyadic cells, column selections, and serialization."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab.dyadic import (
    LEVEL_CAP,
    StepFunction,
    chi_prefix,
    hadamard_select,
    indicator,
    make_step,
    pattern_to_index,
    rademacher,
    rademacher_sum,
    signs_orthogonal,
    single_negative_select,
)
from rlab.errors import (
    BlockTooSmall,
    LengthMismatch,
    LevelCapExceeded,
    LevelTooLow,
    NotPowerOfTwo,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)


def random_step(draw_level, values):
    return make_step(draw_level, values)


step_functions = st.integers(min_value=0, max_value=6).flatmap(
    lambda lvl: st.lists(rationals, min_size=2**lvl, max_size=2**lvl).map(
        lambda vs: make_step(lvl, vs)
    )
)


class TestConstruction:
    def test_constant_identity(self):
        f = make_step(0, [1])
        assert f.level == 0 and f.values_at(0) == [F(1)]

    def test_sibling_merge_drops_level(self):
        f = make_step(1, [1, 1])
        assert f.level == 0
        assert f.runs == ((1, F(1)),)

    def test_already_canonical_is_unchanged(self):
        f = make_step(2, [3, 1, 2, 3])
        assert f.level == 2
        assert f.values_at(2) == [F(3), F(1), F(2), F(3)]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_step(2, [1, 2, 3])

    def test_level_cap(self):
        with pytest.raises(LevelCapExceeded):
            make_step(LEVEL_CAP + 1, [])

    def test_indicator_and_chi_prefix(self):
        chi = chi_prefix(F(1, 4))
        assert chi.values_at(2) == [F(1), F(0), F(0), F(0)]
        assert indicator(2, [1]) == chi
        assert indicator(2, []) == StepFunction.zero()
        with pytest.raises(LengthMismatch):
            indicator(2, [5])
        with pytest.raises(LengthMismatch):
            chi_prefix(F(1, 3))


class TestRademacher:
    def test_r1(self):
        assert rademacher(1).values_at(2) == [F(1), F(1), F(-1), F(-1)]

    def test_r2(self):
        assert rademacher(2).values_at(2) == [F(1), F(-1), F(1), F(-1)]

    def test_r2_refined(self):
        assert rademacher(2).values_at(3) == [
            F(1), F(1), F(-1), F(-1), F(1), F(1), F(-1), F(-1),
        ]

    def test_level_too_low(self):
        with pytest.raises(LevelTooLow):
            rademacher(3).values_at(2)
        with pytest.raises(LevelTooLow):
            rademacher(0)

    def test_sum_single(self):
        assert rademacher_sum([1]) == rademacher(1)

    def test_sum_pair(self):
        assert rademacher_sum([1, 1]).values_at(2) == [F(2), F(0), F(0), F(-2)]

    def test_sum_zero(self):
        assert rademacher_sum([0, 0]) == StepFunction.zero()

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_orthonormality(self, j, k):
        assert (rademacher(j) * rademacher(k)).integral() == (1 if j == k else 0)

    @given(st.integers(min_value=1, max_value=10))
    def test_square_is_one(self, k):
        assert (rademacher(k) * rademacher(k)) == StepFunction.constant(1)

    @given(st.lists(rationals, min_size=1, max_size=8))
    def test_sum_matches_termwise(self, a):
        total = StepFunction.zero()
        for k, ak in enumerate(a, start=1):
            total = total + rademacher(k).scale(ak)
        assert rademacher_sum(a) == total


def _sign(n: int, i: int, j: int) -> int:
    """Sign of r_i on the 1-based rank-n cell j: bit n-i of j-1, as +-1."""
    return 1 - 2 * (((j - 1) >> (n - i)) & 1)


def _sign_block(n: int, js) -> np.ndarray:
    return np.array([[_sign(n, i, j) for j in js] for i in range(1, n + 1)], dtype=np.int64)


class TestSignBits:
    @given(st.integers(min_value=1, max_value=6))
    def test_rows_equal_sampled_rademacher(self, n):
        for i in range(1, n + 1):
            row = [F(_sign(n, i, j)) for j in range(1, 2**n + 1)]
            assert row == rademacher(i).values_at(n)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_signs_orthogonal_matches_gram(self, n):
        for js in (single_negative_select(n), range(1, n + 1)):
            block = _sign_block(n, js)
            gram_ok = np.array_equal(block.T @ block, n * np.eye(n, dtype=np.int64))
            assert signs_orthogonal(n, js) == gram_ok
        assert signs_orthogonal(n, hadamard_select(n))
        assert not signs_orthogonal(n, [1] * n)  # a repeated cell


class TestSelections:
    def test_pattern_to_index(self):
        assert pattern_to_index([1, 1]) == 1
        assert pattern_to_index([1, -1]) == 2
        assert pattern_to_index([-1, 1]) == 3
        assert pattern_to_index([-1, -1]) == 4

    def test_hadamard_n1(self):
        assert hadamard_select(1) == (1,)

    def test_hadamard_n2(self):
        js = hadamard_select(2)
        assert js == (1, 2)
        block = _sign_block(2, js)
        assert np.array_equal(block.T @ block, 2 * np.eye(2, dtype=np.int64))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_hadamard_gram_identity(self, n):
        js = hadamard_select(n)
        assert len(js) == n
        block = _sign_block(n, js)
        assert np.array_equal(block.T @ block, n * np.eye(n, dtype=np.int64))

    def test_hadamard_not_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            hadamard_select(3)

    def test_single_negative_needs_two_cells(self):
        with pytest.raises(BlockTooSmall, match="n must be >= 2, got 1"):
            single_negative_select(1)

    def test_single_negative_n2(self):
        assert single_negative_select(2) == (2, 3)
        for j in single_negative_select(2):
            assert _sign(2, 1, j) + _sign(2, 2, j) == 0  # n - 2 = 0

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_single_negative_properties(self, n):
        js = single_negative_select(n)
        assert len(js) == n
        for j in js:
            col = [_sign(n, i, j) for i in range(1, n + 1)]
            assert col.count(-1) == 1
            assert sum(col) == n - 2


class TestAlgebra:
    def test_rk_squared_is_one(self):
        r1 = rademacher(1)
        assert r1 * r1 == StepFunction.constant(1)

    def test_add_halves(self):
        f = make_step(1, [1, 0])
        g = make_step(1, [0, 1])
        assert f + g == StepFunction.constant(1)

    def test_indicator_product(self):
        r2 = rademacher(2)
        chi = chi_prefix(F(1, 4))
        assert (chi * r2).values_at(2) == [F(1), F(0), F(0), F(0)]

    def test_scale_and_abs(self):
        f = make_step(1, [-2, 3])
        assert f.scale(F(1, 2)).values_at(1) == [F(-1), F(3, 2)]
        assert abs(f).values_at(1) == [F(2), F(3)]

    def test_reciprocal(self):
        f = make_step(1, [2, 4])
        assert f.reciprocal().values_at(1) == [F(1, 2), F(1, 4)]
        with pytest.raises(ZeroDivisionError):
            make_step(1, [1, 0]).reciprocal()

    @given(step_functions, step_functions)
    def test_add_integral_linear(self, f, g):
        assert (f + g).integral() == f.integral() + g.integral()

    @given(step_functions)
    def test_refine_then_canonicalize_is_identity(self, f):
        lvl = f.level + 2
        refined = StepFunction.from_runs(lvl, ((1, v) for v in f.values_at(lvl)))
        assert refined == f


class TestSerialization:
    def test_round_trip_example(self):
        f = make_step(2, [F(3, 2), F(1), F(1), F(-2)])
        doc = f.to_json_dict()
        assert doc["level"] == 2
        assert doc["runs"][0] == [1, "3/2"]
        assert StepFunction.from_json(f.to_json()) == f

    @given(step_functions)
    def test_round_trip_random(self, f):
        assert StepFunction.from_json(f.to_json()) == f
