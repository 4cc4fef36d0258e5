"""The exact integer kernel against oracles that do not use it.

Each oracle reads cell values off the public runs and does its arithmetic
with Fractions.  Coefficients mix dyadic denominators with 40-bit odd ones,
so functions fall on both sides of the common-denominator guard.
"""

from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlab.dyadic import StepFunction, make_step, rademacher_sum
from rlab.projections import coefficients, rademacher_sum_l1_exact
from rlab.spaces import Lp

dyadic = st.builds(
    F, st.integers(-(2**20), 2**20), st.integers(0, 30).map(lambda e: 2**e)
)
wide = st.builds(
    F, st.integers(-(2**40), 2**40), st.integers(2**39, 2**40 - 1).map(lambda d: d | 1)
)
rationals = st.one_of(dyadic, wide)
coeff_lists = st.lists(rationals, min_size=0, max_size=10)

# the eight primes after 2**39: their 320-bit product passes the 256-bit guard
WIDE_PRIMES = [549755813911, 549755813927, 549755813933, 549755813951,
               549755813963, 549755814037, 549755814043, 549755814071]
PAST_GUARD = [F(k + 1, p) for k, p in enumerate(WIDE_PRIMES)]
UNDER_GUARD = [F(3, 4), F(-5, 2**30), F(7), F(1, 2**12)]


@st.composite
def step_functions(draw):
    """A step function at level <= 10 whose cells take values from a small
    pool, laid out in runs of random length."""
    level = draw(st.integers(0, 10))
    pool = draw(st.lists(rationals, min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells: list[F] = []
    while len(cells) < 2**level:
        cells += [pool[rng.integers(len(pool))]] * int(rng.integers(1, 9))
    return make_step(level, cells[: 2**level])


def sign(k: int, j: int, level: int) -> int:
    """r_k on cell j (0-based) of rank `level`: -1 where bit k of j is set."""
    return -1 if (j >> (level - k)) & 1 else 1


def cells_of(f: StepFunction, level: int) -> list[F]:
    out: list[F] = []
    for length, value in f.runs:
        out += [value] * (length << (level - f.level))
    return out


def test_both_sides_of_the_guard_are_drawn():
    assert rademacher_sum(PAST_GUARD)._int_form is None
    assert rademacher_sum(UNDER_GUARD)._int_form is not None


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
@example(PAST_GUARD)
@example(UNDER_GUARD)
def test_rademacher_sum_cells_and_l1(a):
    n = len(a)
    s = rademacher_sum(a)
    expected = [sum((ak * sign(k, j, n) for k, ak in enumerate(a, 1)), F(0)) for j in range(2**n)]
    assert cells_of(s, n) == expected
    assert rademacher_sum_l1_exact(a) == s.abs_integral() == sum(map(abs, expected), F(0)) / 2**n


@settings(max_examples=60, deadline=None)
@given(step_functions())
@example(rademacher_sum(PAST_GUARD))
def test_lp_norm_equals_float_of_exact_moment(f):
    cells = cells_of(f, f.level)
    for p in (1, 2, 4):
        moment = sum((abs(v) ** p for v in cells), F(0)) / 2**f.level
        assert Lp(F(p)).norm(f) == float(moment) ** (1.0 / p)


@settings(max_examples=60, deadline=None)
@given(step_functions(), step_functions())
@example(rademacher_sum(PAST_GUARD), rademacher_sum(UNDER_GUARD))
# a zero factor next to numerators past int64
@example(StepFunction.zero(), make_step(1, [F(2**24, 549755813891), F(1, 549755813889)]))
def test_algebra_is_cellwise(f, g):
    level = max(f.level, g.level)
    pairs = list(zip(cells_of(f, level), cells_of(g, level)))
    for result, op in ((f + g, F.__add__), (f - g, F.__sub__), (f * g, F.__mul__)):
        assert result == make_step(level, [op(x, y) for x, y in pairs])
    assert (f * g).integral() == sum((x * y for x, y in pairs), F(0)) / 2**level


@settings(max_examples=60, deadline=None)
@given(step_functions())
@example(rademacher_sum(PAST_GUARD))
def test_coefficients_are_sign_sums(f):
    level = f.level
    cells = cells_of(f, level)
    expected = [
        sum((v * sign(k, j, level) for j, v in enumerate(cells)), F(0)) / 2**level
        if k <= level else F(0)
        for k in range(1, level + 3)
    ]
    assert list(coefficients(f, level + 2).a) == expected
