"""The exact integer kernel against oracles that do not use it.

Each oracle reads cell values off the public runs and does its arithmetic
with Fractions.  Coefficients mix dyadic denominators with 40-bit odd ones,
so functions fall on both sides of the common-denominator guard; one
group of tests draws only functions past it, where products, moments and
rearrangements run on per-run reduced numerators and denominators, and the
L_p norm reads a fixed-point moment.  The last group checks that a function
the kernel made, whose runs are built only when read, is the same function,
in the same form, as one built from its runs.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlab.dyadic import StepFunction, _from_ints, _ints, _rademacher_cells, make_step, rademacher_sum
from rlab.projections import coefficients, rademacher_sum_l1_exact
from rlab.rearrangement import decreasing_rearrangement
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


def sign_sums(f: StepFunction, n: int) -> list[F]:
    """c_k = integral of f r_k, k = 1..n, summed cell by cell."""
    level = f.level
    cells = cells_of(f, level)
    return [
        sum((v * sign(k, j, level) for j, v in enumerate(cells)), F(0)) / 2**level
        if k <= level else F(0)
        for k in range(1, n + 1)
    ]


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
    assert rademacher_sum_l1_exact(a) == s.abs_moment(1) == sum(map(abs, expected), F(0)) / 2**n


@pytest.mark.parametrize("dtype,bound", [(np.int64, 2**40), (object, 2**80)])
@pytest.mark.parametrize("n", [0, 1, 5, 9])
def test_row_axis_cells_are_each_rows_cells(n, dtype, bound):
    rng = np.random.default_rng(n)
    rows = [[int(v) * (bound >> 20) for v in rng.integers(-2**20, 2**20, n)] for _ in range(4)]
    cells = _rademacher_cells(np.array(rows, dtype=dtype).reshape(4, n))
    assert cells.shape == (4, 2**n) and cells.dtype == dtype
    assert cells.tolist() == [_rademacher_cells(row).tolist() for row in rows]


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
    assert list(coefficients(f, f.level + 2)) == sign_sums(f, f.level + 2)


@st.composite
def past_guard(draw):
    """A function at level 3..10 taking each of eight values over the
    WIDE_PRIMES at least once, plus up to four other 40-bit-denominator
    values, so its common denominator has more than 256 bits."""
    level = draw(st.integers(3, 10))
    primed = [F(draw(st.integers(1, p - 1)) * draw(st.sampled_from([-1, 1])), p) for p in WIDE_PRIMES]
    pool = primed + draw(st.lists(wide, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = primed + [pool[i] for i in rng.integers(len(pool), size=2**level - len(primed))]
    rng.shuffle(cells)
    f = make_step(level, cells)
    assert f._int_form is None
    return f


# float(1) == float(1 + 2**-60): the exact values must break the tie, and
# the smaller one comes first so that a float-only stable sort would fail
FLOAT_TIE = make_step(
    4, [F(1), F(-1), F(1) + F(1, 2**60), *PAST_GUARD, F(1, 3), F(1), F(3, 549755813911), F(0), F(-1)]
)
# |values| past every float: the exact values alone order them; the
# denominators take it past the guard
OVERFLOW = make_step(3, [
    F(10**400), F(1), F(-(10**400) - 1), F(3, WIDE_PRIMES[0] * WIDE_PRIMES[1]),
    F(5, WIDE_PRIMES[2] * WIDE_PRIMES[3]), F(7, WIDE_PRIMES[4] * WIDE_PRIMES[5]),
    F(1, WIDE_PRIMES[6]), F(2, WIDE_PRIMES[7]),
])


@settings(max_examples=40, deadline=None)
@given(past_guard())
@example(FLOAT_TIE)
@example(OVERFLOW)
def test_rearrangement_is_the_stable_exact_sort(f):
    expected = StepFunction.from_runs(
        f.level, ((length, abs(v)) for length, v in sorted(f.runs, key=lambda r: -abs(r[1])))
    )
    assert decreasing_rearrangement(f) == expected


def test_float_tie_is_past_the_guard():
    assert FLOAT_TIE._int_form is None and OVERFLOW._int_form is None
    star = decreasing_rearrangement(FLOAT_TIE)
    assert [v for _, v in star.runs][:2] == [F(1) + F(1, 2**60), F(1)]


@settings(max_examples=40, deadline=None)
@given(past_guard())
@example(FLOAT_TIE)
@example(OVERFLOW)
def test_moments_past_the_guard(f):
    cells = cells_of(f, f.level)
    assert f.integral() == sum(cells, F(0)) / 2**f.level
    for p in (1, 2, 4):
        moment = sum((abs(v) ** p for v in cells), F(0)) / 2**f.level
        assert f.abs_moment(p) == moment
        try:
            expected = float(moment) ** (1.0 / p)
        except OverflowError as exc:
            # the norm fails as the float of the exact moment does
            with pytest.raises(OverflowError, match=str(exc)):
                Lp(F(p)).norm(f)
        else:
            assert Lp(F(p)).norm(f) == expected


def moment_near(p: int, boundary: F, above: bool) -> StepFunction:
    """A level-3 function past the guard whose integral of |f|**p lies
    within 2**-200 of `boundary`, above or below it: seven small cells over
    WIDE_PRIMES, and an eighth over 3**140 whose p-th power makes up the rest."""
    cells = [F(k + 1, q) for k, q in enumerate(WIDE_PRIMES[:7])]
    den = 3**140
    root = math.floor((8 * boundary - sum(v**p for v in cells)) * den**p)
    for _ in range(p.bit_length() - 1):  # p is a power of two
        root = math.isqrt(root)
    return make_step(3, cells + [F(root + above, den)])


def near_midpoint(moment: F) -> bool:
    """Whether `moment` lies within 2**-200 of a point halfway between two
    adjacent floats, where rounding changes."""
    x = float(moment)
    return any(abs(moment - (F(x) + F(math.nextafter(x, side))) / 2) < F(1, 2**200)
               for side in (-math.inf, math.inf))


# midpoints between adjacent floats: ties round down to 1.0 at the first and
# up to 1 + 2**-51 at the second, so a moment just above the first or just
# below the second has a fixed-point bracket that straddles the rounding
TIE_DOWN, TIE_UP = F(1) + F(1, 2**53), F(1) + F(3, 2**53)


@settings(max_examples=40, deadline=None)
@given(past_guard(), st.sampled_from([1, 2, 4]))
@example(moment_near(1, TIE_DOWN, above=True), 1)
@example(moment_near(1, TIE_UP, above=False), 1)
@example(moment_near(2, TIE_DOWN, above=True), 2)
@example(moment_near(2, TIE_UP, above=False), 2)
@example(moment_near(4, TIE_DOWN, above=True), 4)
@example(moment_near(4, TIE_UP, above=False), 4)
def test_fixed_point_moment_is_the_rounded_exact_moment(f, p):
    assert f._int_form is None
    moment = f.abs_moment(p)
    fast = f._rounded_moment(p)
    if near_midpoint(moment):
        # the bracket [T, T + runs] holds the midpoint: the fast path must
        # decline, and the exact path round the moment
        assert fast is None
    else:
        assert fast is None or fast == float(moment)
    assert Lp(F(p)).norm(f) == float(moment) ** (1.0 / p)


def test_near_midpoint_examples_are_near_midpoints():
    for p in (1, 2, 4):
        for boundary, above in ((TIE_DOWN, True), (TIE_UP, False)):
            moment = moment_near(p, boundary, above).abs_moment(p)
            assert 0 < (moment - boundary) * (1 if above else -1) < F(1, 2**200)
            assert near_midpoint(moment)
    # away from a midpoint the fast path decides the float
    for p in (1, 2, 4):
        assert FLOAT_TIE._rounded_moment(p) == float(FLOAT_TIE.abs_moment(p))


@settings(max_examples=40, deadline=None)
@given(past_guard(), st.integers(1, 12))
@example(FLOAT_TIE, 6)
@example(OVERFLOW, 3)
def test_coefficients_past_the_guard(f, n):
    assert list(coefficients(f, n)) == sign_sums(f, n)


@settings(max_examples=40, deadline=None)
@given(step_functions(), past_guard())
def test_products_and_sums_past_the_guard(f, w):
    level = max(f.level, w.level)
    pairs = list(zip(cells_of(f, level), cells_of(w, level)))
    assert f * w == make_step(level, [x * y for x, y in pairs])
    assert f + w == make_step(level, [x + y for x, y in pairs])


@st.composite
def cell_ints(draw):
    """(level, cell numerators, denominator) with ties, zeros, signs, runs
    of equal cells that let the level drop, and a denominator that shares
    a random factor with every numerator, so the kernel must reduce it."""
    level = draw(st.integers(0, 8))
    past = draw(st.booleans())
    base = math.prod(WIDE_PRIMES) if past else 2 ** draw(st.integers(0, 40))
    pool = draw(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=5)) + [0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = 2 ** draw(st.integers(0, level))  # equal blocks of this many cells
    cells = [pool[i] for i in rng.integers(len(pool), size=2**level // block) for _ in range(block)]
    factor = draw(st.integers(1, 2**20))
    return level, [c * factor for c in cells], base * factor


def kernel_born(level: int, nums: list[int], den: int) -> StepFunction:
    top = max(map(abs, nums))
    return _from_ints(level, np.ones(len(nums), dtype=np.int64), _ints(nums, top), den)


def least_level(cells: list[F]) -> int:
    """The least level on whose cells the function is constant."""
    while len(cells) > 1 and cells[0::2] == cells[1::2]:
        cells = cells[0::2]
    return len(cells).bit_length() - 1


def split_runs(cells: list[F], seed: int) -> list[tuple[int, F]]:
    """Runs of 1 or 2 of the cells each, so equal neighbours arrive as
    separate runs that must merge, with a length-0 run of some other value
    before the first and after about a third of the rest."""
    rng = np.random.default_rng(seed)
    runs = [(0, F(7, 3))]
    i = 0
    while i < len(cells):
        length = 2 if i + 1 < len(cells) and cells[i] == cells[i + 1] and rng.random() < 0.5 else 1
        runs.append((length, cells[i]))
        if rng.random() < 0.3:
            runs.append((0, cells[i] + 1))
        i += length
    return runs


@settings(max_examples=80, deadline=None)
@given(cell_ints(), st.integers(0, 2**32 - 1))
@example((2, [0, 0, 0, 0], 6), 0)
@example((3, [5, 5, -5, -5, 0, 0, 5, 5], 10), 1)
# past the guard: merges across length-0 runs, and the level drops to 1
@example((3, [1, 1, 1, 1, 2, 2, 2, 2], math.prod(WIDE_PRIMES)), 2)
# past the guard: neighbours 1/p share a numerator and must stay apart
@example((3, [math.prod(WIDE_PRIMES) // p for p in WIDE_PRIMES], math.prod(WIDE_PRIMES)), 3)
def test_kernel_born_and_from_runs_are_the_same_function(case, seed):
    level, nums, den = case
    lazy = kernel_born(level, nums, den)
    cells = [F(v, den) for v in nums]
    for eager in (make_step(level, cells), StepFunction.from_runs(level, split_runs(cells, seed))):
        # the values fix the form, whichever constructor ran
        assert (lazy._int_form is None) is (eager._int_form is None)
        assert lazy.level == eager.level and lazy.runs == eager.runs
        assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
        assert lazy.to_json() == eager.to_json()
    # canonical: adjacent runs differ, and the level is as low as it can be
    assert all(a != b for (_, a), (_, b) in zip(lazy.runs, lazy.runs[1:]))
    assert lazy.level == least_level(cells)
    # the integer forms compare directly: a form over a multiple of den is
    # the same function
    again = kernel_born(level, [3 * v for v in nums], 3 * den)
    assert again == lazy and hash(again) == hash(lazy)
    other = kernel_born(level, [v + 1 for v in nums], den)
    assert lazy != other and other != eager


def star_oracle(f: StepFunction) -> StepFunction:
    """f* by the (float, exact) sort of |runs|, reverse and stable."""
    runs = sorted(((length, abs(v)) for length, v in f.runs), key=lambda r: (float(r[1]), r[1]), reverse=True)
    return StepFunction.from_runs(f.level, runs)


@settings(max_examples=80, deadline=None)
@given(cell_ints())
@example((3, [2, -3, 3, 0, -2, 2, 0, -3], 4))
def test_integer_star_is_the_exact_sort(case):
    f = kernel_born(*case)
    star = f.sorted_abs()
    assert star == star_oracle(f) and star.runs == star_oracle(f).runs
    floats = [(length, float(v)) for length, v in star.runs if v]
    assert star.abs_float_runs() == floats
    assert f.abs_float_runs() == [(length, float(abs(v))) for length, v in f.runs if v]
    assert f.sup_abs() == max(abs(v) for _, v in f.runs)
    assert f.log2_max() == max(
        (v.numerator.bit_length() - v.denominator.bit_length() for _, v in f.runs if v), default=None
    )
