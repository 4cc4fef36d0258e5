"""Exact piecewise-constant functions on dyadic partitions of [0,1].

A StepFunction stores run-length encoded exact rational values on the grid
of 2**level equal cells.  One canonicaliser builds every function: it merges
equal adjacent runs and drops the level as far as possible, so equal
functions have equal representations.  The values fix the form when a
function is made: integer numerators over one denominator under the guard
below, arrays of reduced numerators and denominators past it.  `Fraction`
runs are made only when read.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BlockTooSmall, LengthMismatch, LevelCapExceeded, LevelTooLow, NotPowerOfTwo

# the deepest dyadic grid any function, sum or block build may use
LEVEL_CAP = 26

# Dense work runs on integer numerators over one common denominator while
# that denominator has at most this many bits, and on per-run reduced
# numerators and denominators past it.  Reciprocals of dyadic weights, step
# files and --fn inputs may have many odd denominators of up to 53 bits whose
# LCM grows without bound, so the guard is checked as the LCM is built.
_DEN_BITS = 256
# int64 arithmetic is used where every magnitude met has at most this many bits
_INT64_BITS = 62


def _check_level(level: int) -> None:
    if level < 0:
        raise LevelTooLow(f"negative level {level}")
    if level > LEVEL_CAP:
        raise LevelCapExceeded(f"level {level} exceeds cap {LEVEL_CAP}")


def _within_guard(den: int) -> bool:
    """Whether a common denominator is small enough for the integer kernel."""
    return den.bit_length() <= _DEN_BITS


def _common_denominator(dens: Iterable[int]) -> int | None:
    """LCM of `dens`, or None as soon as it leaves the integer kernel's guard."""
    den = 1
    for d in dens:
        if den % d:
            den = den // math.gcd(den, d) * d
            if not _within_guard(den):
                return None
    return den


def _ints(values, top: int) -> np.ndarray:
    """Integers as int64 when `top` bounds every magnitude met, else as Python ints."""
    return np.asarray(values, dtype=np.int64 if top.bit_length() <= _INT64_BITS else object)


class _IntForm(NamedTuple):
    """A StepFunction's run values as integer numerators over one denominator."""

    den: int
    lengths: np.ndarray  # int64 run lengths
    nums: np.ndarray  # value = num / den; int64 exactly when top fits
    top: int  # max |num|

    def runs(self) -> tuple[tuple[int, Fraction], ...]:
        """The runs, with one Fraction made per distinct value."""
        distinct, which = np.unique(self.nums, return_inverse=True)
        fractions = [Fraction(v, self.den) for v in distinct.tolist()]
        return tuple(zip(self.lengths.tolist(), map(fractions.__getitem__, which.tolist())))


class _RatioForm(NamedTuple):
    """A StepFunction's run values past the guard, one reduced fraction a run."""

    lengths: np.ndarray  # int64 run lengths
    nums: np.ndarray  # Python ints
    dens: np.ndarray  # Python ints > 0, coprime to nums

    def runs(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(zip(self.lengths.tolist(), map(Fraction, self.nums.tolist(), self.dens.tolist())))


def _canonical(level: int, lengths: np.ndarray, *keys: np.ndarray) -> tuple[int, np.ndarray, np.ndarray | slice]:
    """(level, lengths, index of each one's first run) after merging the adjacent
    runs equal in every key and dropping the level as far as the lengths allow."""
    differ = keys[0][1:] != keys[0][:-1]
    for key in keys[1:]:
        differ |= key[1:] != key[:-1]
    starts = slice(None)
    if not differ.all():
        starts = np.flatnonzero(np.concatenate(([True], differ)))
        lengths = np.add.reduceat(lengths, starts)
    # adjacent runs now differ, so the level drops by the trailing zero bits
    # that every run length shares
    low = int(np.bitwise_or.reduce(lengths))
    drop = min(level, (low & -low).bit_length() - 1)
    return level - drop, lengths >> drop if drop else lengths, starts


def _from_ints(level: int, lengths: np.ndarray, nums: np.ndarray, den: int) -> "StepFunction":
    """Canonical StepFunction with run values nums/den of the given lengths.

    Equal adjacent runs merge, the level drops and gcd(den, nums) is divided
    out on the integers, so den is the LCM of the reduced denominators and
    the integer form is unique.  Under the denominator guard that form is
    the function; past it each value is reduced on its own.
    """
    level, lengths, starts = _canonical(level, lengths, nums)
    nums = nums[starts]
    g = math.gcd(den, int(np.gcd.reduce(nums)))
    if g > 1:
        den //= g
        # g passes int64 only when every num is 0
        nums = (nums if g.bit_length() <= _INT64_BITS else nums.astype(object)) // g
    if not _within_guard(den):
        nums = nums.astype(object)
        g = np.gcd(nums, den)
        return StepFunction(level, _RatioForm(lengths, nums // g, den // g))
    top = max(-int(nums.min()), int(nums.max()))
    return StepFunction(level, _IntForm(den, lengths, _ints(nums, top), top))


def _from_ratios(level: int, lengths: np.ndarray, nums: np.ndarray, dens: np.ndarray) -> "StepFunction":
    """Canonical StepFunction with run values nums/dens, object arrays with
    dens > 0.  The values are reduced; if their common denominator is within
    the guard the integer kernel takes them, so the values fix the form."""
    g = np.gcd(nums, dens)
    nums, dens = nums // g, dens // g
    den = _common_denominator(dens.tolist())
    if den is not None:
        ints = (nums * (den // dens)).tolist()
        return _from_ints(level, lengths, _ints(ints, max(map(abs, ints))), den)
    # reduced fractions are equal exactly when numerators and denominators are
    level, lengths, starts = _canonical(level, lengths, nums, dens)
    return StepFunction(level, _RatioForm(lengths, nums[starts], dens[starts]))


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded, inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def _descending(mags: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """The stable order of the values mags / dens, nonincreasing.

    The runs sort on the correctly rounded quotients: rounding is monotone,
    so floats decide every pair they separate.  Each group of equal floats,
    values past the float range included, is then re-sorted by exact value;
    a reverse sort stays stable.
    """
    keys = np.array(list(map(_quotient, mags.tolist(), dens.tolist())))
    order = np.argsort(-keys, kind="stable")
    ordered = keys[order]
    # +1 at the first and -1 at the last element of each group of equal floats
    ties = np.diff(np.concatenate(([0], ordered[1:] == ordered[:-1], [0])).astype(np.int8))
    for first, last in zip(np.flatnonzero(ties == 1).tolist(), np.flatnonzero(ties == -1).tolist()):
        group = order[first:last + 1].tolist()
        order[first:last + 1] = sorted(group, key=lambda i: Fraction(mags[i], dens[i]), reverse=True)
    return order


def _numerators(coeffs: Sequence) -> tuple[list[int], int]:
    """The coefficients as integer numerators over their least common
    denominator; Python ints are taken as they are."""
    if all(type(c) is int for c in coeffs):
        return list(coeffs), 1
    fractions = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in fractions))
    return [c.numerator * (den // c.denominator) for c in fractions], den


def _rademacher_cells(nums: Sequence[int], headroom: int = 0) -> np.ndarray:
    """Cell numerators of sum nums_k r_k, in cell order; int64 only if
    `headroom` more bits fit."""
    cells = _ints([0], sum(map(abs, nums)) << headroom)
    for c in nums:
        # each current cell splits into the adjacent pair (v+c, v-c)
        nxt = np.empty(2 * len(cells), dtype=cells.dtype)
        nxt[0::2] = cells + c
        nxt[1::2] = cells - c
        cells = nxt
    return cells


def _length_sum(form: _IntForm, level: int, p: int | None) -> int:
    """Exact sum over runs of length * num, or of length * |num|**p.

    Each length * |num|**a, for a = p or else a = ceil(p / 2), is made in
    int64 when it fits, and only its product by |num|**(p - a) and the sum
    are Python ints.
    """
    vals, p = (form.nums, 1) if p is None else (np.abs(form.nums), p)
    if (form.top**p << level).bit_length() <= _INT64_BITS:
        return int(vals**p @ form.lengths)
    longest = int(form.lengths.max())
    for a in (p, (p + 1) // 2):
        if (form.top**a * longest).bit_length() <= _INT64_BITS:
            head = (vals**a * form.lengths).tolist()
            return sum(head) if a == p else sum(map(operator.mul, head, (vals ** (p - a)).tolist()))
    return sum(map(operator.mul, form.lengths.tolist(), map(pow, vals.tolist(), itertools.repeat(p))))


class StepFunction:
    """Canonical run-length encoded step function on 2**level dyadic cells.

    Its values fix its form when it is made: under the guard `_int_form`
    holds integer numerators over one denominator; past it `_ratio_form`
    holds each run's reduced numerator and denominator.  Either is unique,
    and `runs` are made from it on first read.  Equality and hash are those
    of the level and the canonical runs.
    """

    def __init__(self, level: int, form: _IntForm | _RatioForm):
        self.level = level
        ints = isinstance(form, _IntForm)
        self._int_form = form if ints else None
        self._ratio_form = None if ints else form

    @cached_property
    def runs(self) -> tuple[tuple[int, Fraction], ...]:
        """The canonical (length, value) runs, made on their first read."""
        return (self._int_form or self._ratio_form).runs()

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        if self.level != other.level:
            return False
        a, b = self._int_form, other._int_form
        if a is not None and b is not None:
            # both forms are canonical, so equal functions have equal forms
            return a.den == b.den and np.array_equal(a.lengths, b.lengths) and np.array_equal(a.nums, b.nums)
        # the values fix the form, so functions in different forms differ
        r, q = self._ratio_form, other._ratio_form
        return (r is not None and q is not None and np.array_equal(r.lengths, q.lengths)
                and np.array_equal(r.nums, q.nums) and np.array_equal(r.dens, q.dens))

    def __hash__(self) -> int:
        return hash((self.level, self.runs))

    def __repr__(self) -> str:
        return f"StepFunction(level={self.level}, runs={self.runs!r})"

    @staticmethod
    def from_runs(level: int, runs: Iterable[tuple[int, Fraction]]) -> "StepFunction":
        """The canonical function with these runs; length-0 runs are dropped."""
        _check_level(level := operator.index(level))
        lengths, values = [], []
        for length, value in runs:
            if operator.index(length) < 0:
                raise LengthMismatch(f"negative run length {length}")
            if length:
                lengths.append(length)
                values.append(value)
        total = sum(lengths)
        if total != 2**level:
            raise LengthMismatch(f"runs cover {total} cells, expected {2**level}")
        lengths = np.array(lengths, dtype=np.int64)
        den = _common_denominator(value.denominator for value in values)
        if den is not None:
            nums = [value.numerator * (den // value.denominator) for value in values]
            return _from_ints(level, lengths, _ints(nums, max(map(abs, nums))), den)
        return _from_ratios(
            level, lengths,
            np.array([value.numerator for value in values], dtype=object),
            np.array([value.denominator for value in values], dtype=object),
        )

    @staticmethod
    def constant(value) -> "StepFunction":
        return StepFunction.from_runs(0, ((1, Fraction(value)),))

    @staticmethod
    def zero() -> "StepFunction":
        return StepFunction.constant(0)

    def _ratios(self) -> tuple[np.ndarray, np.ndarray]:
        """Each run's (numerator, denominator) as object arrays, reduced past
        the guard; under it every denominator is the common one."""
        form = self._int_form
        if form is None:
            return self._ratio_form.nums, self._ratio_form.dens
        return form.nums.astype(object), np.full(len(form.nums), form.den, dtype=object)

    def sorted_abs(self) -> "StepFunction":
        """f*: |f|'s runs sorted nonincreasing by a stable sort, canonical.

        On the integer form this is a stable descending argsort of |nums|;
        past the guard it is `_descending` on the reduced fractions.
        """
        form = self._int_form
        if form is None:
            r = self._ratio_form
            mags = np.abs(r.nums)
            order = _descending(mags, r.dens)
            return _from_ratios(self.level, r.lengths[order], mags[order], r.dens[order])
        mags = np.abs(form.nums)
        order = np.argsort(-mags, kind="stable")
        return _from_ints(self.level, form.lengths[order], mags[order], form.den)

    def abs_float_runs(self, e: int = 0) -> list[tuple[int, float]]:
        """(length, |value| 2**-e) of each nonzero run, each value rounded
        once: int / int divides correctly rounded."""
        up, down = max(-e, 0), max(e, 0)
        form = self._int_form
        if form is None:
            r = self._ratio_form
            return [(length, (abs(num) << up) / (den << down))
                    for length, num, den in zip(r.lengths.tolist(), r.nums.tolist(), r.dens.tolist()) if num]
        den = form.den << down
        return [(length, (abs(num) << up) / den)
                for length, num in zip(form.lengths.tolist(), form.nums.tolist()) if num]

    def log2_max(self) -> int | None:
        """e with max|f| 2**-e in (1/2, 2), None for f = 0: the largest
        bit-length difference of a value's reduced numerator and denominator."""
        form = self._int_form
        if form is None:
            r = self._ratio_form
            return max((num.bit_length() - den.bit_length()
                        for num, den in zip(r.nums.tolist(), r.dens.tolist()) if num), default=None)
        den = form.den
        return max(((num // (g := math.gcd(num, den))).bit_length() - (den // g).bit_length()
                    for num in form.nums.tolist() if num), default=None)

    def values_at(self, level: int) -> list[Fraction]:
        if level < self.level:
            raise LevelTooLow(f"level {level} below function level {self.level}")
        _check_level(level)
        rep = 2 ** (level - self.level)
        out: list[Fraction] = []
        for length, value in self.runs:
            out.extend([value] * (length * rep))
        return out

    def integral(self) -> Fraction:
        return Fraction(*self._moment_pair(None))

    def _moment_pair(self, p: int | None) -> tuple[int, int]:
        """Unreduced (num, den) with num / den the exact integral of f, or of
        |f|**p for an integer p >= 1.

        Past the guard the terms length * n**p / d**p are summed pairwise,
        so no gcd is taken and operand sizes stay balanced.
        """
        form = self._int_form
        if form is not None:
            return _length_sum(form, self.level, p), form.den ** (p or 1) << self.level
        r = self._ratio_form
        e = p or 1
        nums = r.nums if p is None else np.abs(r.nums)
        terms = list(zip((nums**e * r.lengths).tolist(), (r.dens**e).tolist()))
        while len(terms) > 1:
            paired = [(n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2) in zip(terms[0::2], terms[1::2])]
            if len(terms) % 2:
                paired.append(terms[-1])
            terms = paired
        num, den = terms[0]
        return num, den << self.level

    def _rounded_moment(self, p: int) -> float | None:
        """The integral of |f|**p, integer p >= 1, correctly rounded from a
        fixed-point sum past the guard; None under it, where the exact pair
        is cheap, and wherever the fixed-point sum cannot decide the float.

        K is taken from the bit lengths so that T = sum of
        floor(length |n|**p 2**K / d**p) over the nonzero runs has at least
        53 + 16 + log2(runs) bits.  The exact sum S has T <= S 2**K < T + runs,
        and rounding is monotone, so when T and T + runs round to the same
        float, that float times 2**-(K + level) is the moment rounded, as long
        as it lies above the subnormal range.
        """
        r = self._ratio_form
        if r is None:
            return None
        live = r.nums != 0
        lengths, nums, dens = r.lengths[live], np.abs(r.nums[live]), r.dens[live]
        runs = len(nums)
        # each term is at least 2**(bl(length) - 1 + p (bl(n) - 1 - bl(d)))
        least = max(length.bit_length() - 1 + p * (n.bit_length() - 1 - d.bit_length())
                    for length, n, d in zip(lengths.tolist(), nums.tolist(), dens.tolist()))
        k = 53 + 16 + runs.bit_length() - least
        terms, dens = nums**p * lengths, dens**p
        total = int(((terms << k) // dens if k >= 0 else terms // (dens << -k)).sum())
        try:
            rounded = float(total)
            if rounded != float(total + runs):
                return None
            moment = math.ldexp(rounded, -(k + self.level))
        except OverflowError:  # a large p can leave T past the float range
            return None
        return moment if moment > sys.float_info.min else None

    def abs_moment(self, p: int) -> Fraction:
        """Exact integral of |f|**p for an integer p >= 1."""
        return Fraction(*self._moment_pair(p))

    def sup_abs(self) -> Fraction:
        form = self._int_form
        if form is None:
            r = self._ratio_form
            mags = np.abs(r.nums)
            top = _descending(mags, r.dens)[0]
            return Fraction(mags[top], r.dens[top])
        return Fraction(form.top, form.den)

    def map(self, fn) -> "StepFunction":
        return StepFunction.from_runs(
            self.level, ((length, Fraction(fn(value))) for length, value in self.runs)
        )

    def __abs__(self) -> "StepFunction":
        return self.map(abs)

    def scale(self, c) -> "StepFunction":
        c = Fraction(c)
        return self.map(lambda v: v * c)

    def _zip(self, other: "StepFunction", op) -> "StepFunction":
        """Cellwise op (operator.add, sub or mul) of two step functions."""
        level = max(self.level, other.level)
        _check_level(level)
        a, b = self._int_form, other._int_form
        ends_a = np.cumsum(self._lengths() << (level - self.level))
        ends_b = np.cumsum(other._lengths() << (level - other.level))
        ends = np.union1d(ends_a, ends_b)
        ia, ib = np.searchsorted(ends_a, ends), np.searchsorted(ends_b, ends)
        lengths = np.diff(ends, prepend=0)
        if a is None or b is None:
            # past the guard: multiply or cross-multiply the aligned fractions
            (na, da), (nb, db) = self._ratios(), other._ratios()
            na, da, nb, db = na[ia], da[ia], nb[ib], db[ib]
            if op is operator.mul:
                return _from_ratios(level, lengths, na * nb, da * db)
            return _from_ratios(level, lengths, op(na * db, nb * da), da * db)
        if op is operator.mul:
            den, ka, kb = a.den * b.den, 1, 1
            top = max(a.top * b.top, a.top, b.top)  # a zero factor bounds nothing
        else:
            den = math.lcm(a.den, b.den)
            ka, kb = den // a.den, den // b.den
            top = max(a.top * ka + b.top * kb, ka, kb)
        x = _ints(a.nums, top)[ia] * ka
        y = _ints(b.nums, top)[ib] * kb
        return _from_ints(level, lengths, op(x, y), den)

    def _lengths(self) -> np.ndarray:
        return (self._int_form or self._ratio_form).lengths

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, operator.add)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, operator.sub)

    def __mul__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, operator.mul)

    def reciprocal(self) -> "StepFunction":
        nums, dens = self._ratios()
        if (nums == 0).any():
            raise ZeroDivisionError("step function has zero cells")
        return _from_ratios(self.level, self._lengths(), np.where(nums < 0, -dens, dens), np.abs(nums))

    def rademacher_coefficients(self, n: int) -> list[Fraction]:
        """Exact c_k = integral of f r_k for k = 1..n.

        c_k is the alternating-sign sum of the integrals of f over the rank-k
        dyadic cells, folded down one rank at a time; for k above f's level
        the sibling halves cancel, so c_k = 0 exactly.
        """
        coeffs = [Fraction(0)] * n
        kmax = min(n, self.level)
        if kmax < 1:
            return coeffs
        scale = 2 ** (self.level - kmax)  # level cells per rank-kmax cell
        form = self._int_form
        if form is None:
            # past the guard: the same walk over the LCM of the denominators
            r = self._ratio_form
            den = math.lcm(*r.dens.tolist())
            nums = r.nums * (den // r.dens)
            form = _IntForm(den, r.lengths, nums, max(map(abs, nums.tolist())))
        # integer mass of f over cells [0, x) at each rank-kmax boundary x, read
        # off the run holding cell x; every magnitude is at most top * 2**level
        nums = _ints(form.nums, form.top << self.level)
        starts = np.cumsum(form.lengths) - form.lengths
        before = np.cumsum(form.lengths * nums) - form.lengths * nums
        x = np.arange(2**kmax + 1, dtype=np.int64) * scale
        run = np.searchsorted(starts, x, side="right") - 1
        cell = np.diff(before[run] + (x - starts[run]) * nums[run])
        den = form.den << self.level
        for k in range(kmax, 0, -1):
            coeffs[k - 1] = Fraction(int(cell[0::2].sum() - cell[1::2].sum()), den)
            cell = cell[0::2] + cell[1::2]
        return coeffs

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "runs": [[length, f"{value.numerator}/{value.denominator}"] for length, value in self.runs],
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "StepFunction":
        runs = [(length, Fraction(text)) for length, text in doc["runs"]]
        return StepFunction.from_runs(doc["level"], runs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "StepFunction":
        return StepFunction.from_json_dict(json.loads(text))


def make_step(level: int, values: Sequence) -> StepFunction:
    """Build a canonical StepFunction from 2**level per-cell values."""
    _check_level(level)
    vals = [Fraction(v) for v in values]
    if len(vals) != 2**level:
        raise LengthMismatch(f"got {len(vals)} values, expected {2**level}")
    return StepFunction.from_runs(level, ((1, v) for v in vals))


def indicator(level: int, indices: Iterable[int]) -> StepFunction:
    """Characteristic function of a union of rank-`level` dyadic cells.

    `indices` are 1-based cell indices j with cell [(j-1)2^-level, j2^-level].
    """
    _check_level(level)
    chosen = sorted(set(indices))
    if chosen and (chosen[0] < 1 or chosen[-1] > 2**level):
        raise LengthMismatch("cell index out of range")
    runs: list[tuple[int, Fraction]] = []
    pos = 0
    for j in chosen:
        if j - 1 > pos:
            runs.append((j - 1 - pos, Fraction(0)))
        runs.append((1, Fraction(1)))
        pos = j
    if pos < 2**level:
        runs.append((2**level - pos, Fraction(0)))
    if not runs:
        runs = [(2**level, Fraction(0))]
    return StepFunction.from_runs(level, runs)


def chi_prefix(t: Fraction) -> StepFunction:
    """Indicator of [0, t] for dyadic-rational t."""
    t = Fraction(t)
    if t <= 0:
        return StepFunction.zero()
    if t >= 1:
        return StepFunction.constant(1)
    level = (t.denominator - 1).bit_length()
    cells = int(t * 2**level)
    if cells * Fraction(1, 2**level) != t:
        raise LengthMismatch(f"{t} is not a rank-{level} dyadic rational")
    return indicator(level, range(1, cells + 1))


def rademacher(k: int) -> StepFunction:
    """Rademacher function r_k = sign(sin 2^k pi t), constant on rank-k cells."""
    if k < 1:
        raise LevelTooLow(f"k must be >= 1, got {k}")
    _check_level(k)
    signs = np.tile(np.array([1, -1], dtype=np.int64), 2 ** (k - 1))
    return StepFunction(k, _IntForm(1, np.ones(2**k, dtype=np.int64), signs, 1))


def rademacher_sum(a: Sequence, den: int = 1) -> StepFunction:
    """Exact finite Rademacher sum sum_k (a_k / den) r_k at level n = len(a)."""
    n = len(a)
    _check_level(n)
    nums, common = _numerators(a)
    return _from_ints(n, np.ones(2**n, dtype=np.int64), _rademacher_cells(nums), common * den)


def signs_orthogonal(n: int, js: Sequence[int]) -> bool:
    """Whether the signs of r_1..r_n on the rank-n cells js (1-based) form
    columns with Gram matrix n*I.  The sign of r_i on cell j is
    1 - 2 * (bit n-i of j-1)."""
    cols = np.asarray(js, dtype=np.int64) - 1
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)[:, None]
    block = 1 - 2 * ((cols >> shifts) & 1)
    return bool(np.array_equal(block.T @ block, n * np.eye(len(js), dtype=np.int64)))


def _sylvester(n: int) -> np.ndarray:
    if n & (n - 1) != 0 or n < 1:
        raise NotPowerOfTwo(f"n = {n} is not a power of two")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def pattern_to_index(signs: Sequence[int]) -> int:
    """Map a +-1 sign pattern (s_1..s_n) to the 1-based rank-n cell index.

    Big-endian digits: j = 1 + sum_i b_i 2^(n-i) with b_i = (1 - s_i) / 2.
    """
    n = len(signs)
    j = 1
    for i, s in enumerate(signs, start=1):
        b = (1 - int(s)) // 2
        j += b * 2 ** (n - i)
    return j


def hadamard_select(n: int) -> tuple[int, ...]:
    """Columns J1(n): n rank-n cells whose sign patterns form a Hadamard matrix.

    The returned block satisfies eps^T eps = n I exactly.
    """
    h = _sylvester(n)
    js = sorted(pattern_to_index(h[:, c]) for c in range(n))
    if n <= 16:
        assert signs_orthogonal(n, js)
    return tuple(js)


def single_negative_select(n: int) -> tuple[int, ...]:
    """Columns J2(n): the n rank-n cells whose pattern has exactly one -1."""
    if n < 2:
        raise BlockTooSmall(f"n must be >= 2, got {n}")
    return tuple(sorted(1 + 2 ** (n - i) for i in range(1, n + 1)))

