"""The pruned Marcinkiewicz and float-filtered Orlicz norms, and the
projection norm's short test family, against the loops they replace.

The oracles below are the unpruned loops: a golden section on every cell of
f*, and an Orlicz bisection that sums the exact per-term modular at every
step.  The fast paths claim the same float, so results are compared in
float.hex, never to a tolerance.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rlab
from rlab.dyadic import LEVEL_CAP, StepFunction, chi_prefix, make_step, rademacher
from rlab.phi import ExpPowerOrlicz, LogPowerPhi, PowerOrlicz, PowerPhi, TildePhi
from rlab.projections import _snap, project, projection_norm
from rlab.spaces import ORLICZ_TOL, Marcinkiewicz, OrliczSpace, _golden_max, _star_cells
from rlab.weighted import Weight, weighted_norm

PHIS = [PowerPhi(0.5), PowerPhi(0.3), PowerPhi(1.0), LogPowerPhi(0.5),
        # the dual phi of a Lorentz space: its cells can peak inside
        TildePhi(LogPowerPhi(0.5))]
MS = [ExpPowerOrlicz(1.5), ExpPowerOrlicz(1.0), ExpPowerOrlicz(2.0),
      PowerOrlicz(1.5), PowerOrlicz(2.0)]


def marcinkiewicz_oracle(phi, f: StepFunction) -> float:
    cells = _star_cells(f)
    if not cells:
        return 0.0
    cum = 0.0
    best = 0.0
    for a, b, v in cells:
        def g(t, cum=cum, a=a, v=v):
            return phi(t) * (cum + v * (t - a)) / t

        best = max(best, _golden_max(g, a if a > 0 else min(b, 1e-300), b))
        cum += v * (b - a)
    edge = cells[-1][1]
    if edge < 1.0:
        best = max(best, phi(edge) / edge * cum)
    return best


def exact_modular(M, f: StepFunction, lam: float) -> float:
    vals = [(length / 2**f.level, abs(float(value))) for length, value in f.runs if value != 0]
    return math.fsum(m * M(v / lam) for m, v in vals)


def orlicz_oracle(M, f: StepFunction) -> float:
    if f == StepFunction.zero():
        return 0.0
    hi = float(f.sup_abs()) / M.inverse(1.0)
    lo = hi
    while exact_modular(M, f, lo) <= 1.0:
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    while (hi - lo) / hi > ORLICZ_TOL:
        mid = 0.5 * (lo + hi)
        if exact_modular(M, f, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class Wobbly(ExpPowerOrlicz):
    """exp(u^p) - 1 whose numpy form is off by `rel` relative: a stand-in
    for a vector library that rounds differently from libm."""

    rel: float = 2.0**-40

    def array(self, u):
        return super().array(u) * (1.0 + self.rel)


dyadic = st.builds(F, st.integers(-(2**20), 2**20), st.integers(0, 30).map(lambda e: 2**e))
wide = st.builds(F, st.integers(-(2**40), 2**40), st.integers(2**39, 2**40 - 1).map(lambda d: d | 1))


@st.composite
def step_functions(draw):
    """Levels 0..10, values from a small pool of mixed-sign dyadic and
    40-bit-denominator rationals and zeros, in runs of random length."""
    level = draw(st.integers(0, 10))
    pool = draw(st.lists(st.one_of(dyadic, wide, st.just(F(0))), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells: list[F] = []
    while len(cells) < 2**level:
        cells += [pool[rng.integers(len(pool))]] * int(rng.integers(1, 9))
    return make_step(level, cells[: 2**level])


def same(x: float, y: float) -> bool:
    return x.hex() == y.hex()


# the golden section on the second cell of f* finds a value above every
# cell endpoint: a bound taken from g(b) instead of phi(b)F(b)/a drops it
INTERIOR_PEAK = (TildePhi(LogPowerPhi(0.5)), make_step(1, [F(5, 8), F(17, 8)]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PHIS), step_functions())
@example(*INTERIOR_PEAK)
@example(PowerPhi(0.5), StepFunction.zero())
def test_marcinkiewicz_matches_unpruned_loop(phi, f):
    assert same(Marcinkiewicz(phi).norm(f), marcinkiewicz_oracle(phi, f))


def test_interior_peak_is_inside_a_later_cell():
    phi, f = INTERIOR_PEAK
    ends, peaks, cum = [], [], 0.0
    for a, b, v in _star_cells(f):
        def g(t, cum=cum, a=a, v=v):
            return phi(t) * (cum + v * (t - a)) / t

        lo = a if a > 0 else min(b, 1e-300)
        ends += [g(lo), g(b)]
        peaks.append(_golden_max(g, lo, b))
        cum += v * (b - a)
    assert peaks[1] > max(ends)
    assert Marcinkiewicz(phi).norm(f) == peaks[1]


def on_the_root(M) -> StepFunction:
    """1 on [0, 1/4] and x on the rest, x chosen so that the exact modular
    at the bisection's first midpoint, 3/4 of the starting lam, is 1 to the
    last bits."""
    hi = 1.0 / M.inverse(1.0)
    mid = 0.5 * (hi / 2.0 + hi)
    x = mid * M.inverse((1.0 - M(1.0 / mid) / 4.0) / 0.75)
    return make_step(2, [F(1), F(x), F(x), F(x)])


ON_ROOT = on_the_root(ExpPowerOrlicz(2.0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MS), step_functions())
@example(ExpPowerOrlicz(2.0), ON_ROOT)
@example(ExpPowerOrlicz(2.0), StepFunction.zero())
def test_orlicz_matches_exact_bisection(M, f):
    assert same(OrliczSpace(M).norm(f), orlicz_oracle(M, f))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1.0, -1.0]), st.sampled_from([1.5, 1.0, 2.0]), step_functions())
@example(1.0, 2.0, ON_ROOT)
@example(-1.0, 2.0, ON_ROOT)
def test_orlicz_decisions_survive_a_last_bits_difference(sign, p, f):
    wobbly = Wobbly(p, sign * 2.0**-40)
    assert same(OrliczSpace(wobbly).norm(f), orlicz_oracle(ExpPowerOrlicz(p), f))


def test_on_the_root_forces_the_exact_sum():
    M = ExpPowerOrlicz(2.0)
    hi = 1.0 / M.inverse(1.0)
    assert exact_modular(M, ON_ROOT, hi) <= 1.0 < exact_modular(M, ON_ROOT, hi / 2.0)
    assert abs(exact_modular(M, ON_ROOT, 0.5 * (hi / 2.0 + hi)) - 1.0) < 1e-12


def test_huge_and_tiny_values_on_the_cli():
    """Same reports and exit codes as the unpruned loops, with every
    warning an error, so that a numpy overflow warning would fail."""
    cases = {
        ("marcinkiewicz:sqrt", "1e200,1"): "7.071067811865475e+199",
        ("marcinkiewicz:sqrt", "1e300,1e-300,3,0"): "5e+299",
        ("orlicz:exp:2", "1e200,1"): "9.540645820018907e+199",
        ("orlicz:exp:2", "1e300,1e-300,3,0"): "7.882480159160473e+299",
    }
    script = (
        "import contextlib, io, json, sys\n"
        "from rlab.cli import main\n"
        "out = []\n"
        "for space, values in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        code = main(['norm', '--space', space, '--values', values])\n"
        "    out.append([code, buf.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    src = str(Path(rlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, json.dumps(list(cases))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    for (code, report), expected in zip(json.loads(proc.stdout), cases.values()):
        assert code == 0
        records = {rec["name"]: rec for rec in json.loads(report)["records"]}
        assert repr(records["norm"]["value"]) == expected


def projection_norm_oracle(X, w, n, trials, seed) -> float:
    """The best ratio over the full family: r_1..r_{n+1}, the constant 1,
    chi_[0,1/2] and the same seeded random functions."""
    rng = np.random.default_rng(seed)
    level = min(n + 2, 10)
    fns = [rademacher(k) for k in range(1, n + 1)]
    if n + 1 <= LEVEL_CAP:
        fns.append(rademacher(n + 1))
    fns += [StepFunction.constant(1), chi_prefix(F(1, 2))]
    for _ in range(trials):
        vals = rng.standard_normal(2**level)
        fns.append(StepFunction.from_runs(level, ((1, _snap(v)) for v in vals)))
    best = 0.0
    for f in fns:
        denom = weighted_norm(X, w, f)
        if denom == 0.0:
            continue
        best = max(best, weighted_norm(X, w, project(f, n)) / denom)
    return best


def test_projection_norm_equals_the_full_family():
    ns, trials, seed = (0, 1, 2, 4, 8), 2, 5
    # an increasing weight lifts chi_[0,1/2] above the r_k's ratio of 1
    weights = (Weight.logpow(0.5, 6), Weight(make_step(2, [1, 2, 5, 8])), Weight.constant(1))
    spaces = (Marcinkiewicz(PowerPhi(0.5)), OrliczSpace(ExpPowerOrlicz(2.0)))
    for X, w in itertools.product(spaces, weights):
        short = [(n, projection_norm(X, w, n, trials, seed).hex()) for n in ns]
        oracle = [(n, projection_norm_oracle(X, w, n, trials, seed).hex()) for n in ns]
        assert short == oracle
