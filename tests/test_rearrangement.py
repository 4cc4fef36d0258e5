"""Distribution functions, decreasing rearrangements, equimeasurability."""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from rlab.dyadic import StepFunction, chi_prefix, make_step, rademacher_sum
from rlab.rearrangement import (
    decreasing_rearrangement,
    distribution,
    equimeasurable,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
step_functions = st.integers(min_value=0, max_value=6).flatmap(
    lambda lvl: st.lists(rationals, min_size=2**lvl, max_size=2**lvl).map(
        lambda vs: make_step(lvl, vs)
    )
)


class TestDistribution:
    def test_example_three_quarters(self):
        assert distribution(make_step(2, [3, 1, 2, 3])) == ((3, F(1, 2)), (2, F(3, 4)), (1, 1))

    def test_zero_function(self):
        assert distribution(StepFunction.zero()) == ((0, 1),)

    def test_indicator(self):
        assert distribution(chi_prefix(F(1, 2))) == ((1, F(1, 2)), (0, 1))

    def test_unsorted_input(self):
        assert distribution(make_step(1, [1, 3])) == ((3, F(1, 2)), (1, 1))

    def test_uses_absolute_value(self):
        assert distribution(make_step(1, [-2, 1])) == ((2, F(1, 2)), (1, 1))

    @given(step_functions)
    def test_matches_direct_count(self, f):
        width = F(1, 2**f.level)
        pts = distribution(f)
        for v, m in pts:
            assert m == sum((length * width for length, u in f.runs if abs(u) >= v), F(0))
        assert all(a > b for (a, _), (b, _) in zip(pts, pts[1:]))
        assert pts[-1][1] == 1
        assert distribution(decreasing_rearrangement(f)) == pts


class TestRearrangement:
    def test_sort_example(self):
        star = decreasing_rearrangement(make_step(2, [3, 1, 2, 3]))
        assert star.values_at(star.level) == [F(3), F(3), F(2), F(1)]

    def test_absolute_value_first(self):
        star = decreasing_rearrangement(make_step(1, [-2, 1]))
        assert star.values_at(star.level) == [F(2), F(1)]

    def test_rademacher_pair(self):
        star = decreasing_rearrangement(rademacher_sum([1, 1]))
        assert star.values_at(2) == [F(2), F(2), F(0), F(0)]

    @given(step_functions)
    def test_l1_preserved(self, f):
        assert decreasing_rearrangement(f).integral() == f.abs_moment(1)

    @given(step_functions)
    def test_nonincreasing_and_idempotent(self, f):
        star = decreasing_rearrangement(f)
        vals = star.values_at(star.level)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert decreasing_rearrangement(star) == star

    @given(step_functions)
    def test_equimeasurable_with_original(self, f):
        assert equimeasurable(f, decreasing_rearrangement(f))

    @given(step_functions, step_functions)
    def test_hardy_littlewood(self, f, g):
        fs = decreasing_rearrangement(f)
        gs = decreasing_rearrangement(g)
        assert (abs(f) * abs(g)).integral() <= (fs * gs).integral()


class TestEquimeasurable:
    def test_permutation(self):
        assert equimeasurable(make_step(1, [1, 2]), make_step(1, [2, 1]))

    def test_different_measures(self):
        assert not equimeasurable(chi_prefix(F(1, 2)), chi_prefix(F(1, 4)))

    def test_mixed_levels(self):
        # same distribution expressed on different grids
        f = make_step(1, [1, 0])
        g = make_step(2, [1, 0, 0, 1])
        assert equimeasurable(f, g)
